"""Randomized samplers and theorem-level property trials.

Each run_* function stresses one convolution/membership theorem on random
instances and returns a machine-readable TrialReport.  Theorem-backed
assertions must produce zero failures; instances whose decision margin is
below MARGIN_TOL are excluded from the pass/fail count and reported as
indeterminate.  Every trial derives its own RNG from (seed, trial index),
so single failures replay in isolation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .classes import (
    _third_sign,
    extremal_family,
    in_D_third,
    in_T,
    is_lambda_extremal,
    pre_class_test,
)
from .domains import (
    BOUNDARY,
    IN,
    OUT,
    complement,
    contains,
    counterexample_P,
    limacon_inner,
    limacon_outer,
    mobius,
    omega,
    root_set_in,
)
from .errors import OutOfRange, PolyconvError, SamplerExhausted
from .herglotz import build_approximant, default_schedule, evaluate_approximant_many
from .poly import LambdaParam, Polynomial, trimmed
from .qconv import delta, grace_szego, lambda_convolve, q_extremal
from .roots import CIRCLE_TOL, find_roots

MARGIN_TOL = 1e-6
#: rejection draws sample_D makes before it gives up
SAMPLE_D_BUDGET = 400
#: draws _sample_region makes in the unit disk before it gives up
REGION_BUDGET = 4000


@dataclass
class TrialReport:
    theorem_id: str
    trials: int = 0
    failures: int = 0
    indeterminate: int = 0
    worst_margin: float = math.inf
    seed: int = 0
    witnesses: list = field(default_factory=list)

    def record(self, margin, witness=None):
        """Count one decided trial; margin <= 0 with a witness is a failure."""
        self.trials += 1
        if margin < self.worst_margin:
            self.worst_margin = margin
        if witness is not None:
            self.failures += 1
            self.witnesses.append(witness)

    def skip(self):
        self.trials += 1
        self.indeterminate += 1

    @property
    def ok(self):
        return self.failures == 0

    def to_json(self):
        return json.dumps(
            {
                "theorem_id": self.theorem_id,
                "trials": self.trials,
                "failures": self.failures,
                "indeterminate": self.indeterminate,
                "worst_margin": self.worst_margin,
                "seed": self.seed,
                "witnesses": self.witnesses,
            },
            indent=2,
        )


def _trial_rng(seed, index):
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


def _wit(tag, *polys, **extra):
    out = {"tag": tag, "polys": [json.loads(p.to_json()) for p in polys]}
    out.update(extra)
    return out


def standard_grid(n_max=8):
    """(n, lambda) pairs covering the interior and the lower endpoint."""
    for n in range(2, n_max + 1):
        upper = 2.0 * math.pi / n
        yield n, 0.0
        for j in range(1, 8):
            yield n, j * upper / 8.0


# -- samplers ----------------------------------------------------------------


def sample_T(n, lam, strict, rng):
    """Random member of the circle class: gaps lam + Dirichlet-distributed
    excess, random rotation and unimodular leading factor.  Non-strict draws
    pin a random subset of gaps to exactly lam now and then."""
    # LambdaParam validates lam in either case
    if LambdaParam(n, lam).is_upper_endpoint and strict:
        raise OutOfRange("strict sampling impossible at the upper endpoint")
    excess = 2.0 * math.pi - n * lam
    if excess <= 1e-12:
        gaps = np.full(n, lam)
    elif strict:
        d = rng.dirichlet(np.ones(n))
        # floor keeps every gap clear of the boundary
        gaps = lam + excess * (0.9 * d + 0.1 / n)
    else:
        gaps = lam + excess * rng.dirichlet(np.ones(n))
        if n >= 2 and rng.random() < 0.3:
            pinned = rng.choice(n, size=int(rng.integers(1, n)), replace=False)
            free = np.setdiff1d(np.arange(n), pinned)
            gaps = np.full(n, lam)
            gaps[free] += excess * rng.dirichlet(np.ones(free.size))
    angles = rng.uniform(0.0, 2.0 * math.pi) + np.cumsum(gaps)
    roots = np.exp(1j * angles)
    a = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
    return Polynomial.from_roots(roots, leading=a)


def sample_D(n, lam, rng, strategy=None):
    """Random member of the open disk class (strategies 'scaled' and
    'rejection') or of the closed boundary family ('boundary').  Returns
    (polynomial, strategy tag).  lambda = 0 draws roots in the disk."""
    if lam == 0.0:
        roots = 0.95 * np.sqrt(rng.uniform(0.0, 1.0, n)) * np.exp(
            2j * np.pi * rng.uniform(0.0, 1.0, n))
        return Polynomial.from_roots(roots), "disk"
    lp = LambdaParam(n, lam)
    lp.require_interior()
    tag = strategy or ("scaled", "boundary", "rejection")[rng.integers(0, 3)]
    if tag == "scaled":
        F0 = sample_T(n, lam, strict=False, rng=rng)
        r = 1.0 + rng.uniform(0.05, 0.6)
        return F0.scale_argument(r), tag
    if tag == "boundary":
        # the member orientation of the boundary family: zeros of P - Q_n
        # land in the closed disk exactly when a and Im(c) have opposite
        # signs (the other orientation gives the reflected zero set)
        a = -float(rng.uniform(0.2, 2.0))
        b = float(rng.normal())
        c = np.exp(1j * rng.uniform(0.1, math.pi - 0.1))
        P = extremal_family(n, lam, a, b, complex(c))
        return P - q_extremal(n, lam), tag
    if tag == "rejection":
        for _ in range(SAMPLE_D_BUDGET):
            radius = rng.uniform(0.2, 0.95)
            roots = radius * np.sqrt(rng.uniform(0.0, 1.0, n)) * np.exp(
                2j * np.pi * rng.uniform(0.0, 1.0, n))
            F = Polynomial.from_roots(roots)
            # every zero is inside |z| < 0.95: in_D_third's root-finding
            # preamble could only confirm it
            v = _third_sign(F, lp, closed=False)
            if v.member and v.margin > MARGIN_TOL:
                return F, tag
        raise SamplerExhausted(
            f"no open-class member found in {SAMPLE_D_BUDGET} draws at n={n}, "
            f"lambda={lam}")
    raise ValueError(f"unknown strategy {tag!r}")


def _sample_region(d, rng, allow_boundary=False):
    """Rejection-sample one point of the region in the unit disk."""
    ok = {IN, BOUNDARY} if allow_boundary else {IN}
    for _ in range(REGION_BUDGET):
        z = math.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        if contains(d, complex(z)) in ok:
            return complex(z)
    raise SamplerExhausted(f"no point of {d.kind} found in {REGION_BUDGET} draws")


def sample_inner_limacon(gamma, rng, closed=False):
    z = _sample_region(limacon_inner(gamma, closed=closed), rng,
                       allow_boundary=closed)
    # the degenerate tip -1 lies on the closed boundary for every gamma
    if closed and rng.random() < 0.15:
        return -1.0 + 0.0j
    return z


def sample_outer_limacon(gamma, rng, closed=False):
    # exterior points are reciprocals of inner ones
    if closed and rng.random() < 0.15:
        return -1.0 - float(rng.uniform(0.0, 3.0))  # ray into the closed exterior
    while True:
        z = sample_inner_limacon(gamma, rng, closed=closed)
        if abs(z) > 1e-6:
            return 1.0 / z


# -- trial runners -----------------------------------------------------------


def _judge(report, margin, witness, indeterminate=False):
    """Standard bookkeeping: indeterminate or within MARGIN_TOL of 0 is
    skipped, else a positive margin passes and any other fails.  Outside
    that band a determinate verdict's member flag is margin > 0 on every
    route, so verdicts are judged by their margin too.  witness is called,
    without arguments, for a failure only."""
    if indeterminate or abs(margin) < MARGIN_TOL:
        report.skip()
    elif margin > 0:
        report.record(margin)
    else:
        report.record(margin, witness())


def run_suffridge_trial(n, lam, trials, seed=0):
    """Convolution invariance of the circle classes: closed * open lands in
    open; the only-if arm plants a non-member G and exposes it with the
    rotated identity elements."""
    lp = LambdaParam(n, lam)
    rep = TrialReport(f"circle-convolution n={n} lambda={lam:.6g}", seed=seed)
    for t in range(trials):
        rng = _trial_rng(seed, t)
        if lam > 1e-9 and t % 4 == 3:
            _suffridge_only_if(n, lam, lp, rng, rep)
            continue
        F = sample_T(n, lam, strict=False, rng=rng)
        G = sample_T(n, lam, strict=True, rng=rng)
        H = lambda_convolve(F, G, lp)
        v = in_T(H, lp, closed=False)
        _judge(rep, v.margin,
               lambda: _wit("convolution left open class", F, G, H, trial=t),
               v.indeterminate)
    return rep


def _suffridge_only_if(n, lam, lp, rng, rep):
    # G with separation below lambda cannot be fixed by any admissible F:
    # convolving with the rotated identity element reproduces G(bz).  One
    # gap is pinned to a sub-lambda value so the separation really is short.
    g0 = lam * rng.uniform(0.3, 0.8)
    gaps = np.empty(n)
    gaps[0] = g0
    gaps[1:] = g0 + (2.0 * math.pi - n * g0) * rng.dirichlet(np.ones(n - 1))
    angles = rng.uniform(0.0, 2.0 * math.pi) + np.cumsum(gaps)
    G = Polynomial.from_roots(np.exp(1j * angles),
                              leading=np.exp(1j * rng.uniform(0.0, 2.0 * math.pi)))
    vG = in_T(G, lp, closed=False)
    if vG.member or abs(vG.margin) < MARGIN_TOL:
        rep.skip()
        return
    Q = q_extremal(n, lam)
    for j in range(16):
        b = np.exp(2j * np.pi * j / 16)
        F = Q.scale_argument(complex(b))
        H = lambda_convolve(F, G, lp)
        v = in_T(H, lp, closed=False)
        if not v.member and abs(v.margin) >= MARGIN_TOL:
            rep.record(abs(v.margin))
            return
    rep.record(0.0, _wit("non-member G survived every rotated identity", G))


def run_main_trial(n, lam, trials, seed=0, mu=None):
    """Convolution invariance of the disk classes, plus the separation-lift
    property of the pre-coefficient classes at a larger parameter mu."""
    lp = LambdaParam(n, lam)
    rep = TrialReport(f"disk-convolution n={n} lambda={lam:.6g}", seed=seed)
    upper = 2.0 * math.pi / n
    if mu is None and 0.0 < lam:
        mu = lam + 0.4 * (upper - lam)
    for t in range(trials):
        rng = _trial_rng(seed, t)
        if lam > 0.0 and t % 3 == 2:
            _main_part_two(n, lam, mu, rng, rep, t)
            continue
        F, _ = sample_D(n, lam, rng)
        G, _ = sample_D(n, lam, rng,
                        strategy=("scaled", "rejection")[rng.integers(0, 2)]
                        if lam > 0 else None)
        H = lambda_convolve(F, G, lp)
        if lam == 0.0:
            rs = find_roots(H) if not H.is_zero else None
            margin = min(1.0 - abs(z) for z, _ in rs.roots) if rs else math.inf
            _judge(rep, margin,
                   lambda: _wit("convolution root left the disk", F, G, H, trial=t))
            continue
        v = in_D_third(H, lp, closed=False)
        _judge(rep, v.margin,
               lambda: _wit("convolution left open disk class", F, G, H, trial=t),
               v.indeterminate)
    return rep


def _main_part_two(n, lam, mu, rng, rep, t):
    # pre-coefficient member at lam must lift to the open class at mu > lam,
    # provided no unimodular fold of the lift is lambda-extremal
    lp = LambdaParam(n, lam)
    F, tag = sample_D(n, lam, rng,
                      strategy=("scaled", "rejection")[rng.integers(0, 2)])
    Fi = F.n_inverse()
    for j in range(16):
        zeta = np.exp(2j * np.pi * j / 16)
        if is_lambda_extremal(F + complex(zeta) * Fi, lp):
            rep.skip()
            return
    f = Polynomial(F.coeffs / q_extremal(n, lam).coeffs.real, n)
    v = pre_class_test(f, LambdaParam(n, mu), "PD_open")
    _judge(rep, v.margin,
           lambda: _wit("pre-class member failed to lift", F, trial=t, mu=mu, strategy=tag),
           v.indeterminate)


def run_limacon_trial(tau, gamma, n, trials, seed=0):
    """Binomial-weighted convolution against the Möbius-disk and limaçon
    zero domains: six positive arms plus the planted-root falsification arm."""
    if not 0.0 <= gamma < 1.0:
        raise OutOfRange(f"gamma={gamma} outside [0, 1)")
    if n < 1:
        raise OutOfRange(f"n must be >= 1, got {n}")
    tau = complex(tau)
    rep = TrialReport(f"limacon tau={tau} gamma={gamma} n={n}", seed=seed)
    om_open = omega(tau, gamma)
    om_closed = omega(tau, gamma, closed=True)

    def omega_root(rng, closed):
        r = math.sqrt(rng.uniform())
        if closed and rng.random() < 0.2:
            r = 1.0
        elif not closed:
            r *= 0.999
        u = r * np.exp(2j * np.pi * rng.uniform())
        return mobius(tau, gamma, complex(u))

    def outside_root(rng, closed):
        # |u| > 1 maps outside the closed disk image; u on the circle lands
        # on the boundary, admissible only when the complement is closed
        r = 1.0 + rng.uniform(0.05, 3.0)
        if closed and rng.random() < 0.2:
            r = 1.0
        u = r * np.exp(2j * np.pi * rng.uniform())
        if abs(1.0 + gamma * u) < 1e-3:
            return outside_root(rng, closed)
        return mobius(tau, gamma, complex(u))

    # (tag, P-root sampler, Q-root sampler, region the product's roots stay in)
    arms = (
        ("arm closed*inner", lambda rng: omega_root(rng, True),
         lambda rng: sample_inner_limacon(gamma, rng), om_open),
        ("arm open*closed-inner", lambda rng: omega_root(rng, False),
         lambda rng: sample_inner_limacon(gamma, rng, closed=True), om_open),
        ("arm complement*outer", lambda rng: outside_root(rng, True),
         lambda rng: sample_outer_limacon(gamma, rng), complement(om_closed)),
        ("arm complement-closed*outer-closed", lambda rng: outside_root(rng, False),
         lambda rng: sample_outer_limacon(gamma, rng, closed=True), complement(om_closed)),
        ("arm inner-self", lambda rng: sample_inner_limacon(gamma, rng, closed=True),
         lambda rng: sample_inner_limacon(gamma, rng), limacon_inner(gamma)),
        ("arm outer-self", lambda rng: sample_outer_limacon(gamma, rng, closed=True),
         lambda rng: sample_outer_limacon(gamma, rng), limacon_outer(gamma)),
    )
    for t in range(trials):
        rng = _trial_rng(seed, t)
        if t % 7 == 6:
            _limacon_negative_arm(tau, gamma, n, rng, rep, t)
            continue
        tag, p_root, q_root, target = arms[t % 7]
        P = Polynomial.from_roots([p_root(rng) for _ in range(n)])
        Q = Polynomial.from_roots([q_root(rng) for _ in range(n)])
        conv = grace_szego(P, Q)
        if conv.is_zero:
            rep.skip()
            continue
        bad = [complex(z) for z, _ in find_roots(conv).roots if contains(target, z) != IN]
        if bad:
            rep.record(-1.0, _wit(tag, P, Q, trial=t,
                                  offending_root=[bad[-1].real, bad[-1].imag]))
        else:
            rep.record(1.0)
    return rep


def _limacon_negative_arm(tau, gamma, n, rng, rep, t):
    """Plant a Q-root outside the inner limaçon and exhibit a P that pushes
    a convolution root out of the Möbius disk."""
    om_open = omega(tau, gamma)
    inner = limacon_inner(gamma)
    beta = None
    for _ in range(500):
        z = 1.4 * math.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        if contains(inner, z, 1e-3) == OUT:
            beta = complex(z)
            break
    if beta is None:
        rep.skip()
        return
    samples = 256
    alpha = None
    while samples <= 4096 and alpha is None:
        for j in range(samples):
            u = np.exp(2j * np.pi * (j + 0.5) / samples)
            cand = mobius(tau, gamma, complex(u))
            if contains(om_open, -cand * beta) == OUT:
                alpha = cand
                break
        samples *= 2
    if alpha is None:
        rep.skip()
        return
    P = counterexample_P(alpha, n)
    others = [sample_inner_limacon(gamma, rng) for _ in range(n - 1)]
    Q = Polynomial.from_roots([beta] + others)
    conv = grace_szego(P, Q)
    ok, _w = root_set_in(conv, om_open)
    if ok:
        rep.record(0.0, _wit("planted root stayed inside", P, Q, trial=t,
                             beta=[beta.real, beta.imag]))
    else:
        rep.record(1.0)


def run_gauss_lucas_trial(n, lam, trials, seed=0):
    """Images of the difference operator: disk-class members map into the
    closed (resp. open) disk, and for self-inversive inputs the disk image
    is equivalent to circle-class membership (both directions)."""
    lp = LambdaParam(n, lam)
    rep = TrialReport(f"difference-operator n={n} lambda={lam:.6g}", seed=seed)
    for t in range(trials):
        rng = _trial_rng(seed, t)
        mode = t % 3
        if mode == 0:  # closed circle-class members: image in closed disk
            F = sample_T(n, lam, strict=False, rng=rng)
            dist = _escape_distance(delta(F, lp))
            # boundary-landing roots are a clean pass for the closed target
            if dist <= CIRCLE_TOL:
                rep.record(max(-dist, CIRCLE_TOL))
            elif dist <= MARGIN_TOL:
                rep.skip()
            else:
                rep.record(-dist, _wit("closed image escaped", F, trial=t))
        elif mode == 1:  # open disk-class members: image in open disk
            F, _ = sample_D(n, lam, rng) if lam > 0 else sample_D(n, 0.0, rng)
            _judge(rep, -_escape_distance(delta(F, lp)),
                   lambda: _wit("open image escaped", F, trial=t))
        else:  # converse on self-inversive inputs: non-member -> image escapes
            if lam <= 1e-9:
                rep.skip()
                continue
            F = sample_T(n, lam * rng.uniform(0.2, 0.8), strict=True, rng=rng)
            vF = in_T(F, lp, closed=True)
            if vF.member or abs(vF.margin) < MARGIN_TOL:
                rep.skip()
                continue
            _judge(rep, _escape_distance(delta(F, lp)),
                   lambda: _wit("image stayed in the disk for a circle-class non-member",
                                F, trial=t))
    return rep


def _escape_distance(img):
    """max |root| - 1 of the trimmed image; -inf when no roots remain."""
    img = trimmed(img)
    if img.is_zero or img.exact_degree < 1:
        return -math.inf
    rs = find_roots(img)
    return max(abs(z) for z, _ in rs.roots) - 1.0


def run_herglotz_trial(trials, seed=0):
    """Convergence/positivity trial for the kernel approximant on random
    positive-real-part functions built from finite measures."""
    rep = TrialReport("kernel-approximant", seed=seed)
    for t in range(trials):
        rng = _trial_rng(seed, t)
        m = int(rng.integers(2, 6))
        w = rng.dirichlet(np.ones(m))
        nodes = np.exp(2j * np.pi * rng.uniform(size=m))
        # f(z) = sum w_j (1 + u_j z)/(1 - u_j z): Taylor coefficients
        N = 65
        coeffs = np.zeros(N + 1, dtype=complex)
        coeffs[0] = 1.0
        for j in range(1, N + 1):
            coeffs[j] = 2.0 * np.sum(w * nodes**j)
        errs = []
        try:
            for jj in (4, 5, 6):
                k, r = default_schedule(jj)
                h = build_approximant(coeffs[: k + 1], k, r)
                zs = 0.5 * np.exp(2j * np.pi * np.linspace(0, 1, 64, endpoint=False))
                approx = evaluate_approximant_many(h, zs)
                f = np.array([np.sum(w * (1 + nodes * z) / (1 - nodes * z))
                              for z in zs])
                errs.append(float(np.max(np.abs(approx - f))))
        except PolyconvError:
            rep.skip()
            continue
        if errs[-1] <= errs[0] + 1e-12:
            rep.record(errs[0] - errs[-1] + 1e-12)
        else:
            rep.record(errs[0] - errs[-1],
                       {"tag": "error failed to decrease", "errors": errs,
                        "trial": t, "polys": []})
    return rep


# the lambdas look the runners up when called, so a caller sees whatever
# run_*_trial is bound in this module then (a dict of the function objects
# would keep the originals after the names are rebound, as tracing does)
_THEOREMS = {
    "suffridge": lambda n, lam, trials, seed: run_suffridge_trial(n, lam, trials, seed),
    "main": lambda n, lam, trials, seed: run_main_trial(n, lam, trials, seed),
    "gausslucas": lambda n, lam, trials, seed: run_gauss_lucas_trial(n, lam, trials, seed),
}


def run_grid(theorem, trials=20, seed=0, n_max=8):
    """One report per standard-grid point for a circle/disk theorem."""
    if theorem not in _THEOREMS:
        raise ValueError(f"unknown theorem {theorem!r}")
    return [_THEOREMS[theorem](n, lam, trials, seed) for n, lam in standard_grid(n_max)]
