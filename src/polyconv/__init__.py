"""Polynomials with unimodular-zero separation structure: weighted
convolutions, membership predicates, zero domains, and randomized theorem
verification."""

from .errors import (
    BadParams,
    DegreeMismatch,
    HypothesisViolated,
    NoConvergence,
    NotOnCircle,
    NotSymmetric,
    OutOfDomain,
    OutOfRange,
    PhaseCollision,
    PhaseMismatch,
    PolyconvError,
    PositivityLost,
    SamplerExhausted,
)
from .poly import (
    LambdaParam,
    Polynomial,
    self_inversive_phase,
    trimmed,
)
from .qconv import (
    QCoefficientTable,
    delta,
    gauss_product,
    grace_szego,
    lambda_convolve,
    pre_lift,
    q_coefficient,
    q_extremal,
)
from .roots import RootSet, arg_separation, find_roots, interspersed
from .classes import (
    MembershipVerdict,
    build_char_polys,
    eq8_oracle,
    extremal_family,
    half_plane_criterion,
    hermite_biehler,
    hermite_kakeya,
    in_D,
    in_D_first,
    in_D_second,
    in_D_third,
    in_T,
    is_lambda_extremal,
    pre_class_test,
)
from .domains import (
    DomainSpec,
    boundary_polyline,
    complement,
    contains,
    counterexample_P,
    limacon_inner,
    limacon_outer,
    mobius,
    omega,
    root_set_in,
)
from .herglotz import (
    HerglotzApproximant,
    build_approximant,
    default_schedule,
    disk_limit_check,
    evaluate_approximant_many,
    folded_polynomial,
)
from .harness import (
    TrialReport,
    run_gauss_lucas_trial,
    run_grid,
    run_herglotz_trial,
    run_limacon_trial,
    run_main_trial,
    run_suffridge_trial,
    sample_D,
    sample_T,
    standard_grid,
)

__version__ = "0.1.0"
