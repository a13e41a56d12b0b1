"""Membership tests for the unit-circle separation classes and their disk
extensions.

Naming: T_closed / T_open are the polynomials with unimodular zeros and
pairwise angular separation >= lambda resp. > lambda; D_closed / D_open are
the disk extensions defined through the half-plane range of the rotated
quotient.  Three equivalent decision routes are provided; the product-based
route (in_D_third) is the canonical one, the zeta-sampled route (in_D_first)
is a sampled cross-check, and the difference-quotient route (in_D_second)
root-finds the two ends of its pencil and decides the rest by a certified
sign test on the circle (Hermite-Biehler), with a unitless margin and an
indeterminate flag where the sign is within rounding.  eq8_oracle is the
direct grid evaluation of the defining inequality.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BadParams,
    HypothesisViolated,
    InternalInconsistency,
    NotOnCircle,
    OutOfRange,
    PhaseCollision,
    PhaseMismatch,
)
from .poly import LambdaParam, Polynomial, self_inversive_phase, trimmed
from .qconv import delta, pre_lift, q_extremal
from .roots import CIRCLE_TOL, _circle_sign, arg_separation, find_roots, interspersed

SEP_TOL = 1e-8
AMBIG_BAND = 1e-6


@dataclass
class MembershipVerdict:
    class_label: str
    member: bool
    method: str
    margin: float
    witnesses: dict = field(default_factory=dict)
    indeterminate: bool = False

    def as_dict(self):
        wit = {
            k: ([v.real, v.imag] if isinstance(v, complex) else v)
            for k, v in self.witnesses.items()
        }
        return {
            "class": self.class_label,
            "member": self.member,
            "method": self.method,
            "margin": self.margin,
            "witnesses": wit,
            "indeterminate": self.indeterminate,
        }


@dataclass(frozen=True)
class CharacterizationPolys:
    """The two degree-2n products whose unimodular zeros decide membership."""

    T: Polynomial
    S: Polynomial | None = None


def _label(base, closed):
    return f"{base}_closed" if closed else f"{base}_open"


def _require_open_interval(lp):
    if not 0.0 < lp.lam < lp.upper:
        raise OutOfRange(f"lambda={lp.lam} must lie strictly inside (0, {lp.upper})")


# -- the circle classes ------------------------------------------------------


def in_T(p, lp, closed=True, sep_tol=SEP_TOL):
    """Zeros all on the circle with angular separation >= lambda (closed)
    or > lambda with simple zeros (open)."""
    label = _label("T", closed)
    if p.is_zero or p.exact_degree != lp.n:
        return MembershipVerdict(label, False, "definition", -math.inf,
                                 {"reason": "exact degree != n"})
    rs = find_roots(p)
    tags = rs.tags()
    for (z, m), t in zip(rs.roots, tags):
        if t != "ON":
            return MembershipVerdict(label, False, "definition",
                                     -abs(abs(z) - 1.0), {"offending_root": complex(z)})
    sep = arg_separation(rs)
    margin = sep - lp.lam
    if closed:
        member = margin >= -sep_tol
    else:
        member = margin > sep_tol and all(m == 1 for _, m in rs.roots)
    wit = {} if member else {"separation": sep}
    return MembershipVerdict(label, member, "definition", margin, wit)


def is_lambda_extremal(p, lp, tol=1e-7):
    """Is p of the form a*Q_n(lambda; b z): unimodular zeros with n-1
    consecutive gaps equal to lambda?"""
    if p.is_zero or p.exact_degree != lp.n:
        return False
    rs = find_roots(p)
    if not rs.all_on_circle():
        return False
    if any(m > 1 for _, m in rs.roots) and lp.lam > tol:
        return False
    args = sorted(math.atan2(z.imag, z.real) for z, m in rs.roots for _ in range(m))
    gaps = sorted(
        [b - a for a, b in zip(args, args[1:])] + [2.0 * math.pi + args[0] - args[-1]]
    )
    return all(abs(g - lp.lam) <= tol for g in gaps[: lp.n - 1])


# -- characterization polynomials -------------------------------------------


def build_char_polys(F, lp, P=None, Q=None):
    """T := F_+ (F^*n)_- - F_- (F^*n)_+ and, when a P - Q split is given,
    S := P_+ Q_- - P_- Q_+ (both of nominal degree 2n)."""
    _require_open_interval(lp)
    h = lp.lam / 2.0
    Fi = F.n_inverse()
    T = F.rotate(h).product(Fi.rotate(-h)) - F.rotate(-h).product(Fi.rotate(h))
    S = None
    if P is not None and Q is not None:
        S = P.rotate(h).product(Q.rotate(-h)) - P.rotate(-h).product(Q.rotate(h))
    return CharacterizationPolys(T=T, S=S)


def _circle_parity(T, circle_tol=CIRCLE_TOL, band=AMBIG_BAND):
    """(all_even, margin, indeterminate) for the unimodular zeros of T.

    Zeros within `band` of the circle are grouped by argument (a double zero
    on the circle generically splits into a reflected pair); membership of
    the closed class needs every group to carry even total multiplicity.
    """
    T = trimmed(T)
    if T.is_zero or T.exact_degree < 1:
        return True, math.inf, False
    rs = find_roots(T)
    dists = [abs(abs(z) - 1.0) for z, _ in rs.roots]
    margin = min(dists)
    groups = {}
    indeterminate = False
    for (z, m), d in zip(rs.roots, dists):
        if d <= band:
            ang = math.atan2(z.imag, z.real)
            for key in groups:
                gap = abs(ang - key) % (2.0 * math.pi)
                if min(gap, 2.0 * math.pi - gap) < 1e-4:
                    groups[key] += m
                    break
            else:
                groups[ang] = m
            if circle_tol * 10.0 < d <= band:
                indeterminate = True
    all_even = all(m % 2 == 0 for m in groups.values())
    return all_even, margin, indeterminate


# -- disk-class routes -------------------------------------------------------


def _route_roots(F, lp, closed, label, method):
    """Common preamble: degree, outside roots, the on-circle dichotomy.

    Returns (verdict_or_None, rootset).  A verdict is final; None means all
    zeros are strictly inside and the route-specific test should run.
    """
    if F.is_zero or F.exact_degree != lp.n:
        return MembershipVerdict(label, False, method, -math.inf,
                                 {"reason": "exact degree != n"}), None
    rs = find_roots(F)
    tags = rs.tags()
    if "OUTSIDE" in tags:
        z = rs.roots[tags.index("OUTSIDE")][0]
        return MembershipVerdict(label, False, method, -(abs(z) - 1.0),
                                 {"offending_root": complex(z)}), rs
    if all(t == "ON" for t in tags):
        v = in_T(F, lp, closed)
        v.class_label = label
        v.method = method + "/routed_T"
        return v, rs
    if "ON" in tags:
        # mixed zero locations can never satisfy the defining inequality
        z = rs.roots[tags.index("ON")][0]
        return MembershipVerdict(label, False, method, 0.0,
                                 {"mixed_root_on_circle": complex(z)}), rs
    return None, rs


def in_D_third(F, lp, closed=True):
    """Canonical route: unimodular zeros of the product polynomial T must be
    absent (open class) or of even order (closed class)."""
    _require_open_interval(lp)
    label = _label("D", closed)
    early, _ = _route_roots(F, lp, closed, label, "THIRD_CHAR")
    if early is not None:
        return early
    T = build_char_polys(F, lp).T
    all_even, margin, indet = _circle_parity(T)
    if closed:
        return MembershipVerdict(label, all_even, "THIRD_CHAR", margin,
                                 {} if all_even else {"odd_unimodular_T_zero": True},
                                 indeterminate=indet)
    member = margin > CIRCLE_TOL
    return MembershipVerdict(label, member, "THIRD_CHAR", margin,
                             {} if member else {"unimodular_T_zero": True},
                             indeterminate=indet)


def in_D_first(F, lp, closed=True, zeta_count=64):
    """Sampled route: F + zeta F^*n stays in the circle class for every
    unimodular zeta.  Exact in the necessary direction, sampled in the
    sufficient one."""
    _require_open_interval(lp)
    label = _label("D", closed)
    early, _ = _route_roots(F, lp, closed, label, "FIRST_CHAR_SAMPLED")
    if early is not None:
        return early
    Fi = F.n_inverse()
    worst = math.inf
    for j in range(zeta_count):
        zeta = cmath.exp(2j * math.pi * j / zeta_count)
        v = in_T(F + zeta * Fi, lp, closed)
        if not v.member:
            return MembershipVerdict(label, False, "FIRST_CHAR_SAMPLED", v.margin,
                                     {"zeta": zeta, **v.witnesses})
        worst = min(worst, v.margin)
    return MembershipVerdict(label, True, "FIRST_CHAR_SAMPLED", worst)


def in_D_second(P, Q, lp, closed=True):
    """Difference-quotient route on a P - Q split with distinct phases.

    Every H_theta = cos(theta) A - sin(theta) B, with A = c_P D[P] and
    B = c_Q D[Q] of exact degree n - 1, must have its zeros in the disk
    (open: strictly; closed: within circle_tol).  A and B themselves are
    root-found; a zero outside decides non-member, with margin 1 - |z|.
    Once they are in the disk, H_theta vanishes at z on the circle exactly
    when A(z)/B(z) = tan(theta), so by the minimum principle for Im(A/B)
    outside the disk (the disk form of Hermite-Biehler) the pencil is in
    the disk exactly when s = Im(A conj B) is one-signed on the circle:
    strictly for the open class, touching 0 allowed for the closed one.
    The margin is then the signed minimum of s / (|A|^2 + |B|^2) over the
    circle: unitless, at most 1/2, positive for members and 0 exactly where
    some H_theta has a zero on the circle.  A minimum of s within its
    rounding bound is indeterminate (closed: member, open: non-member).
    """
    _require_open_interval(lp)
    label = _label("D", closed)
    # the pencil cannot tell F from its n-inverse (the split only changes
    # sign), so the zero-location preamble has to run on F itself
    early, _ = _route_roots(P - Q, lp, closed, label, "SECOND_CHAR_GRID")
    if early is not None:
        return early
    cP = self_inversive_phase(P)
    cQ = self_inversive_phase(Q)
    if min(abs(cP - cQ), abs(cP + cQ)) <= 1e-8:
        raise PhaseCollision("c_P == c_Q: split degenerate for this route")
    for name, X in (("P", P), ("Q", Q)):
        if not find_roots(X).all_on_circle():
            raise NotOnCircle(f"{name} must have all zeros on the unit circle")
    A = cP * delta(P, lp)
    B = cQ * delta(Q, lp)
    # at n = 1 the ends are nonzero constants, without zeros
    for theta, H in ((0.0, A), (math.pi / 2.0, B)) if lp.n > 1 else ():
        z = max((z for z, _ in find_roots(H).roots), key=abs)
        m = 1.0 - abs(z)
        if not (m >= -CIRCLE_TOL if closed else m > CIRCLE_TOL):
            return MembershipVerdict(label, False, "SECOND_CHAR_GRID", m,
                                     {"theta": theta, "offending_root": complex(z)})
    margin, indet, z = _circle_sign(A.coeffs, B.coeffs)
    member = closed if indet else margin > 0.0
    return MembershipVerdict(label, member, "SECOND_CHAR_GRID", margin,
                             {} if member and not indet else {"circle_point": z},
                             indeterminate=indet)


def eq8_oracle(F, lp, closed=True, n_theta=256, n_r=64):
    """Direct grid evaluation of the defining half-plane inequality for the
    rotated quotient on the exterior of the disk."""
    _require_open_interval(lp)
    label = _label("D", closed)
    if F.is_zero or F.exact_degree != lp.n:
        return MembershipVerdict(label, False, "EQ8_GRID", -math.inf,
                                 {"reason": "exact degree != n"})
    if not closed:
        rs = find_roots(F)
        if rs.all_on_circle():
            v = in_T(F, lp, closed=False)
            v.class_label = label
            v.method = "EQ8_GRID/routed_T"
            return v
    h = lp.lam / 2.0
    phase = cmath.exp(-1j * lp.n * h)
    Fp = F.rotate(h)
    Fm = F.rotate(-h)
    radii = np.geomspace(1.002, 8.0, n_r)
    if not closed:
        radii = np.concatenate([[1.0], radii])
    angles = np.exp(2j * np.pi * np.arange(n_theta) / n_theta)
    z = np.outer(radii, angles).ravel()
    num = Fp.eval_many(z)
    den = Fm.eval_many(z)
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = np.imag(phase * num / den)
    vals = vals[np.isfinite(vals)]
    margin = float(np.min(vals)) if vals.size else -math.inf
    member = margin > 0.0
    return MembershipVerdict(label, member, "EQ8_GRID", margin,
                             {} if member else {"negative_imag_on_grid": True})


def in_D(F, lp, closed=True, method="third", **kw):
    """Endpoint-aware dispatcher for the disk classes.

    lambda = 0 and lambda = 2*pi/n use their explicit definitions; interior
    lambda dispatches to the requested route.
    """
    label = _label("D", closed)
    if lp.lam == 0.0:
        return _in_D_lambda0(F, lp, closed)
    if lp.is_upper_endpoint:
        return _in_D_upper(F, lp, closed)
    if method == "third":
        return in_D_third(F, lp, closed)
    if method == "first":
        return in_D_first(F, lp, closed, **kw)
    if method == "oracle":
        return eq8_oracle(F, lp, closed, **kw)
    raise ValueError(f"unknown method {method!r} (second needs an explicit split)")


def _in_D_lambda0(F, lp, closed):
    label = _label("D", closed)
    if F.is_zero or F.exact_degree != lp.n:
        return MembershipVerdict(label, False, "definition", -math.inf,
                                 {"reason": "exact degree != n"})
    rs = find_roots(F)
    if closed:
        member = rs.all_in_closed_disk()
        margin = min(1.0 + CIRCLE_TOL - abs(z) for z, _ in rs.roots)
        wit = {} if member else {
            "offending_root": complex(max((z for z, _ in rs.roots), key=abs))}
        return MembershipVerdict(label, member, "definition", margin, wit)
    if rs.all_inside():
        margin = min(1.0 - abs(z) for z, _ in rs.roots)
        return MembershipVerdict(label, True, "definition", margin)
    v = in_T(F, lp, closed=False)
    v.class_label = label
    return v


def _in_D_upper(F, lp, closed):
    label = _label("D", closed)
    if not closed:
        return MembershipVerdict(label, False, "definition", -math.inf,
                                 {"reason": "open class empty at the endpoint"})
    c = F.coeffs
    n = lp.n
    scale = F.norm()
    if scale == 0.0 or abs(c[n]) <= 1e-12 * scale:
        return MembershipVerdict(label, False, "definition", -math.inf,
                                 {"reason": "exact degree != n"})
    mid = float(np.max(np.abs(c[1:n]))) if n > 1 else 0.0
    b = -c[0] / c[n]
    member = mid <= 1e-10 * scale and abs(b) <= 1.0 + CIRCLE_TOL
    margin = 1.0 - abs(b) if mid <= 1e-10 * scale else -mid / scale
    wit = {} if member else {"b": complex(b), "mid_coeff_norm": mid}
    return MembershipVerdict(label, member, "definition", margin, wit)


# -- interspersion lemmas ----------------------------------------------------


def hermite_biehler(P, Q, strict=False):
    """Interspersion of two unimodular zero sets with distinct phases,
    verified along both equivalent routes; disagreement raises."""
    cP = self_inversive_phase(P)
    cQ = self_inversive_phase(Q)
    if min(abs(cP - cQ), abs(cP + cQ)) <= 1e-8:
        raise PhaseCollision("distinct self-inversive phases required")
    if P.approx_eq(Q) or (P.norm() > 0 and Q.norm() > 0 and
                          (P * (1.0 / P.norm())).approx_eq(Q * (1.0 / Q.norm()), 1e-12)):
        raise BadParams("P/Q must be nonconstant")
    rsP = find_roots(P)
    rsQ = find_roots(Q)
    via_roots = interspersed(rsP, rsQ, strict=strict)

    F = P - Q
    via_location = _one_sided(F, strict)
    if via_location != via_roots:
        raise InternalInconsistency(
            f"alternation route says {via_roots}, zero-location route says {via_location}")
    return via_roots


def _one_sided(F, strict):
    """F or its n-inverse has all zeros in the (closed/open) unit disk."""
    Ft = trimmed(F)
    if Ft.is_zero:
        return False
    rs = find_roots(Ft)
    radii = [abs(z) for z, _ in rs.roots]
    deficit = F.nominal_degree - Ft.exact_degree  # zeros at infinity
    if strict:
        inside = all(r < 1.0 - CIRCLE_TOL for r in radii) and deficit == 0
        outside = all(r > 1.0 + CIRCLE_TOL for r in radii)
        return inside or outside
    inside = all(r <= 1.0 + CIRCLE_TOL for r in radii) and deficit == 0
    outside = all(r >= 1.0 - CIRCLE_TOL for r in radii)
    return inside or outside


def hermite_kakeya(P, Q, strict=False, x_grid=181):
    """Pencil test for equal-phase pairs: every projective combination
    cos(t) P - sin(t) Q must keep its zeros on the circle."""
    cP = self_inversive_phase(P)
    cQ = self_inversive_phase(Q)
    if min(abs(cP - cQ), abs(cP + cQ)) > 1e-8:
        raise PhaseMismatch("equal self-inversive phases required")
    if (P * (1.0 / max(P.norm(), 1e-300))).approx_eq(
            Q * (1.0 / max(Q.norm(), 1e-300)), 1e-12):
        raise BadParams("P/Q must be nonconstant")
    lp0 = LambdaParam(P.nominal_degree, 0.0)
    if strict:
        if not in_T(Q, lp0, closed=False).member:
            return False
    for t in np.linspace(0.0, math.pi, x_grid, endpoint=False):
        comb = math.cos(t) * P - math.sin(t) * Q
        if comb.is_zero:
            continue
        v = in_T(comb, lp0, closed=not strict)
        if not v.member:
            return False
    return True


# -- half-plane criterion and the explicit boundary family -------------------


def half_plane_margin(f, grid=256):
    """min over the unit circle of Re((f(z)-a0)/(a_n z^n - a0)) - 1/2."""
    c = f.coeffs
    n = f.nominal_degree
    a0, an = c[0], c[n]
    if abs(a0) >= abs(an):
        raise HypothesisViolated(f"need |a_0| < |a_n|, got {abs(a0)} >= {abs(an)}")
    z = np.exp(2j * np.pi * np.arange(grid) / grid)
    num = f.eval_many(z) - a0
    den = an * z**n - a0
    return float(np.min(np.real(num / den))) - 0.5


def half_plane_criterion(f, grid=256):
    """True when the shifted quotient stays in Re > 1/2 on the circle (and
    hence, by the maximum principle, outside the disk)."""
    return half_plane_margin(f, grid) > 0.0


def extremal_family(n, lam, a, b, c):
    """The explicit three-parameter family of unimodular polynomials P for
    which P - Q_n(lambda; .) lies on the boundary of the closed disk class.

    Each summand clears one simple-pole factor of Q_n in closed form, so the
    result is an exact polynomial of degree n.
    """
    if not 0.0 < lam < 2.0 * math.pi / n:
        raise OutOfRange(f"lambda={lam} must lie in (0, 2*pi/{n})")
    if a == 0.0:
        raise BadParams("a must be nonzero")
    cc = complex(c)
    if abs(abs(cc) - 1.0) > 1e-12 or abs(cc - 1.0) < 1e-12 or abs(cc + 1.0) < 1e-12:
        raise BadParams("c must be unimodular and different from +-1")
    factors = [cmath.exp(1j * (2 * j - n - 1) * lam / 2.0) for j in range(1, n + 1)]
    Q = q_extremal(n, lam)
    acc = float(b) * Q.coeffs.astype(complex)
    top = np.array([1.0, cmath.exp(1j * (n + 1) * lam / 2.0)])
    for k in range(1, n + 1):
        part = np.array([1.0 + 0.0j])
        for j, fac in enumerate(factors, start=1):
            if j == k:
                continue
            nxt = np.zeros(part.size + 1, dtype=complex)
            nxt[: part.size] += part
            nxt[1:] += fac * part
            part = nxt
        part = np.convolve(part, top)
        w = cmath.exp(1j * (k - n - 1) * lam / 2.0) / math.sin((k - n - 1) * lam / 2.0)
        acc = acc + float(a) * w * part
    return Polynomial(cc * acc, n)


# -- pre-coefficient classes -------------------------------------------------

_PRE_DISPATCH = {
    "PT_closed": ("T", True),
    "PT_open": ("T", False),
    "PD_closed": ("D", True),
    "PD_open": ("D", False),
}


def pre_class_test(f, lp, which="PD_open", method="third"):
    """Membership of the Hadamard lift f * Q_n(lambda; .) in the named class."""
    if which not in _PRE_DISPATCH:
        raise ValueError(f"unknown pre-class {which!r}")
    base, closed = _PRE_DISPATCH[which]
    lifted = pre_lift(f, lp)
    if base == "T":
        v = in_T(lifted, lp, closed)
    else:
        v = in_D(lifted, lp, closed, method=method)
    v.class_label = which
    return v
