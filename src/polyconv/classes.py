"""Membership tests for the unit-circle separation classes and their disk
extensions.

Naming: T_closed / T_open are the polynomials with unimodular zeros and
pairwise angular separation >= lambda resp. > lambda; D_closed / D_open are
the disk extensions defined through the half-plane range of the rotated
quotient.  in_D decides them at every lambda: by the definitions at 0 and
2 pi / n, by one of four routes in between.  The canonical route
(in_D_third) and the difference-quotient route (in_D_second, on the split
F = P - Q with P = (F - F^*n) / 2) run the zero-location preamble and then
decide by a certified sign test on the circle (roots._circle_sign): the
third on the rotated quotient itself, whose sign changes are the
unimodular zeros of the product T of the paper; the second on the ends of
the pencil of P and Q (Hermite-Biehler), once those two ends have their
zeros in the disk.  Both use zeros strictly inside only as a fact, which
the Schur-Cohn recursion (roots.all_zeros_within) certifies without a
root find; F and the ends are root-found only when it cannot.  Their
margins are unitless, in [-1/2, 1/2], and flagged indeterminate where the
sign is within rounding.  half_plane_criterion decides its inequality,
and herglotz.disk_limit_check through it, by the same sign test.  The
first route (in_D_first) decides its folds F + zeta F^*n for every
unimodular zeta at once from F's zeros, by the least gap of the argument
of the Blaschke product F / F^*n; it, like the open class at lambda = 0,
reads F's zeros, so its preamble root-finds F and skips the certificate.
eq8_oracle is the direct exterior-grid evaluation of the defining
inequality.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BadParams,
    HypothesisViolated,
    PhaseCollision,
    PhaseMismatch,
)
from .poly import LambdaParam, Polynomial, _expand, self_inversive_phase
from .qconv import delta, pre_lift, q_extremal
from .roots import (CIRCLE_TOL, INSIDE, NEWTON_STEPS, ON, OUTSIDE, _circle_sign, _inclusion_radii,
                    _unit_scaled, all_zeros_within, arg_separation, find_roots, interspersed)

SEP_TOL = 1e-8
#: the radius at which all_zeros_within certifies zeros that find_roots
#: would tag INSIDE: 2 CIRCLE_TOL below the circle, so that a zero tagged
#: ON or OUTSIDE passes only if find_roots misplaces it by over CIRCLE_TOL
INSIDE_RADIUS = 1.0 - 2.0 * CIRCLE_TOL
#: is_lambda_extremal's relative fit of the coefficients, and of |b| to 1
EXTREMAL_TOL = 1e-10
#: the exterior grid of eq8_oracle: angles and geometric radii out to 8
ORACLE_ANGLES = 256
ORACLE_RADII = 64
#: in_D_first bisects every node interval over which the argument of
#: F / F^*n rises by more than this
PHASE_STEP = math.pi / 8


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


def _label(base, closed):
    return f"{base}_closed" if closed else f"{base}_open"


def _degree_verdict(F, lp, label, method):
    """The non-member verdict of an F whose exact degree is not n (the zero
    polynomial's is -inf), else None."""
    if F.exact_degree != lp.n:
        return MembershipVerdict(label, False, method, -math.inf,
                                 {"reason": "exact degree != n"})
    return None


# -- the circle classes ------------------------------------------------------


def in_T(p, lp, closed=True):
    """Zeros all on the circle with angular separation >= lambda (closed)
    or > lambda with simple zeros (open)."""
    label = _label("T", closed)
    if (bad := _degree_verdict(p, lp, label, "definition")) is not None:
        return bad
    return _in_T_roots(find_roots(p), lp, closed, label, "definition")


def _in_T_roots(rs, lp, closed, label, method):
    """in_T on the roots rs of exact degree n; off the circle the farthest zero decides."""
    if not rs.all_on_circle():
        z = max((z for z, _ in rs.roots), key=lambda z: abs(abs(z) - 1.0))
        return MembershipVerdict(label, False, method,
                                 -abs(abs(z) - 1.0), {"offending_root": complex(z)})
    sep = arg_separation(rs)
    margin = sep - lp.lam
    if closed:
        member = margin >= -SEP_TOL
    else:
        member = margin > SEP_TOL  # a multiple zero has separation 0
    wit = {} if member else {"separation": sep}
    return MembershipVerdict(label, member, method, margin, wit)


def is_lambda_extremal(p, lp):
    """Is p of the form a*Q_n(lambda; b z) with |b| = 1: unimodular zeros
    with n-1 consecutive gaps equal to lambda?

    Decided on the coefficients q_k of Q_n: a = p_0 and b = p_1 / (a q_1)
    (at the upper endpoint, where q_1 = 0, an n-th root of p_n / (a q_n)),
    then every p_k must equal a q_k b^k within EXTREMAL_TOL * max|p_k|, and
    |b| must be 1 within EXTREMAL_TOL.  Rounding leaves about 1e-15 on a
    rotated and scaled Q_n; one zero moved by 1e-5 along the circle leaves
    at least 5e-9 for lambda down to 0.02 * 2pi/n, where crowded zeros hide
    it from the coefficients.
    """
    if p.exact_degree != lp.n:
        return False
    n = lp.n
    c = p.coeffs
    q = q_extremal(n, lp.lam).coeffs
    a = c[0]
    if a == 0.0:
        return False
    b = c[1] / (a * q[1]) if q[1] != 0.0 else (c[n] / (a * q[n])) ** (1.0 / n)
    fit = a * q * b ** np.arange(n + 1)
    return bool(abs(abs(b) - 1.0) <= EXTREMAL_TOL
                and np.max(np.abs(c - fit)) <= EXTREMAL_TOL * np.max(np.abs(c)))


# -- characterization polynomials -------------------------------------------


def build_char_polys(F, lp):
    """T := F_+ (F^*n)_- - F_- (F^*n)_+, of nominal degree 2n, where
    F_+- is F rotated by +-lambda/2.

    No route builds it: on the circle T(z) = 2i z^n s(z) with
    s = Im(e^{-inh} F_+ conj F_-), whose sign in_D_third decides directly.
    Only the tests read it, as the third route's sign function.
    """
    lp.require_interior()
    h = lp.lam / 2.0
    Fi = F.n_inverse()
    return F.rotate(h).product(Fi.rotate(-h)) - F.rotate(-h).product(Fi.rotate(h))


# -- disk-class routes -------------------------------------------------------


def _route_roots(F, lp, closed, label, method, roots=False):
    """Common preamble: degree, then where F's zeros lie.  For callers that
    read no zeros (the third and second routes), zeros that
    all_zeros_within certifies below INSIDE_RADIUS return (None, None)
    without a root find.  Callers that read them (roots=True: the first
    route and the open class at lambda = 0) skip the certificate, and F is
    root-found: a zero outside decides non-member by the outermost zero,
    margin 1 - |z|; zeros all on the circle go to in_T (method/routed_T);
    zeros on and inside the circle are a non-member at margin 0.  Returns
    the verdict, or None when all zeros are strictly inside and the route's
    own test runs; find_roots(F) then returns the kept root set."""
    if (bad := _degree_verdict(F, lp, label, method)) is not None:
        return bad
    if not roots and all_zeros_within(F, INSIDE_RADIUS):
        return None
    rs = find_roots(F)
    tags = rs.tags()
    if OUTSIDE in tags:
        z = rs.outermost()
        return MembershipVerdict(label, False, method, 1.0 - abs(z),
                                 {"offending_root": complex(z)})
    if INSIDE not in tags:
        return _in_T_roots(rs, lp, closed, label, method + "/routed_T")
    if ON in tags:
        # mixed zero locations can never satisfy the defining inequality
        z = rs.roots[tags.index(ON)][0]
        return MembershipVerdict(label, False, method, 0.0,
                                 {"mixed_root_on_circle": complex(z)})
    return None


def _margin_verdict(label, closed, method, margin, indet, z):
    """Verdict from a signed margin and its circle point z; a margin within
    rounding (indet) is a member of the closed class only."""
    member = closed if indet else margin > 0.0
    return MembershipVerdict(label, member, method, margin,
                             {} if member and not indet else {"circle_point": z},
                             indeterminate=indet)


def in_D_third(F, lp, closed=True):
    """Canonical route: the rotated quotient of the definition, decided on
    the circle.

    Once every zero of F is strictly inside, Im(e^{-inh} F_+ / F_-), with
    F_+- (z) = F(e^{+-ih} z) and h = lambda/2, is harmonic outside the disk
    and equals sin(n h) > 0 at infinity, so by the minimum principle the
    defining inequality holds exactly when s = Im(e^{-inh} F_+ conj F_-)
    is one-signed on the circle: strictly for the open class, touching 0
    allowed for the closed one.  On the circle T(z) = 2i z^n s(z) for the
    degree-2n product T = F_+ (F^*n)_- - F_- (F^*n)_+ of the paper.  The
    margin is the signed minimum of s / (|F_+|^2 + |F_-|^2) over the
    circle: unitless, in [-1/2, 1/2], positive for members and 0 exactly
    where T has a unimodular zero.  A minimum within its rounding bound is
    indeterminate (closed: member, open: non-member).
    """
    lp.require_interior()
    early = _route_roots(F, lp, closed, _label("D", closed), "THIRD_CHAR")
    if early is not None:
        return early
    return _third_sign(F, lp, closed)


def _third_sign(F, lp, closed):
    """in_D_third's sign test alone, for F of exact degree n whose zeros
    are known to lie strictly inside the disk (lambda interior)."""
    h = lp.lam / 2.0
    return _margin_verdict(_label("D", closed), closed, "THIRD_CHAR",
                           *_circle_sign(cmath.exp(-1j * lp.n * h) * F.rotate(h).coeffs,
                                         F.rotate(-h).coeffs))


def _blaschke_arg(n, z, m, w, theta):
    """phi, phi', phi'' at theta of phi = n theta + 2 sum_k m_k arg(1 - z_k
    e^{-i theta}), the argument of F / F^*n on the circle, F's zeros z_k
    (multiplicity m_k) strictly inside, w_k = m_k (1 - |z_k|^2).  Each term
    is an arctangent (positive real part), so phi needs no unwrapping."""
    y = np.multiply.outer(np.exp(-1j * theta), z)
    a, b = 1.0 - y.real, y.imag
    q = 1.0 / (a * a + b * b)
    return n * theta - 2.0 * (np.arctan(b / a) @ m), q @ w, 2.0 * (b * q * q) @ w


def _least_gap(arg, n, z, tol):
    """(theta, x) at the least gap x - theta, phi(x) = phi(theta) + 2 pi, of
    phi = arg(.)[0] of degree n with zeros z, levels solved to tol: sampled
    on nodes uniform in theta and graded by sqrt(2) about each zero out to
    that spacing (phi's spikes and their tails), bisected while phi rises by
    more than PHASE_STEP, each minimum refined by guarded Newton steps."""
    tau, count = 2.0 * math.pi, n * math.ceil(2.0 * math.pi / PHASE_STEP)
    d = np.sqrt(2.0) ** np.arange(-8, 60)
    d = np.multiply.outer(1.0 - np.abs(z), np.concatenate([d, -d]))
    graded = (np.angle(z)[:, None] + d)[np.abs(d) < tau / count]
    theta = np.sort(np.concatenate([tau * np.arange(count) / count, graded % tau]))
    phi, dphi, _ = arg(theta)
    while (wide := np.flatnonzero(np.concatenate([phi[1:], phi[:1] + tau * n]) - phi
                                  > PHASE_STEP)).size:
        mid = 0.5 * (theta[wide] + np.concatenate([theta[1:], [tau]])[wide])
        order = np.argsort(np.concatenate([theta, mid]))
        theta, phi, dphi = (np.concatenate(v)[order]
                            for v in zip((theta, phi, dphi), (mid, *arg(mid)[:2])))
    # levels phi +- 2 pi: each gap's end x, and a node whose gap ends at theta;
    # second-order Newton steps from the Hermite inverse in the table, each
    # until the error left, about (phi''/phi')^2 r^3 / 2, is within tol in phi
    nodes = theta.size
    tt, pp, dd = (np.concatenate([v - c, v, v + c])
                  for v, c in ((theta, tau), (phi, tau * n), (dphi, 0.0)))
    level = np.concatenate([phi + tau, phi - tau])
    i = np.searchsorted(pp, level)
    lo, hi, rise = tt[i - 1], tt[i], pp[i] - pp[i - 1]
    u = (level - pp[i - 1]) / rise
    x = np.minimum(np.maximum(lo + (hi - lo) * u * u * (3.0 - 2.0 * u) + rise * u * (1.0 - u)
                              * ((1.0 - u) / dd[i - 1] - u / dd[i]), lo), hi)
    dx, todo = np.empty_like(x), slice(None)  # views on the first pass
    for _ in range(NEWTON_STEPS):
        v, lv, hv = x[todo], lo[todo], hi[todo]
        p, d, dd = arg(v)
        r = (p - level[todo]) / d
        np.copyto(lv, v, where=r < 0.0)
        np.copyto(hv, v, where=r > 0.0)
        nxt = v - r * (1.0 + 0.5 * dd / d * r)  # to second order in r
        np.copyto(nxt, 0.5 * (lv + hv), where=(nxt < lv) | (nxt > hv))
        step = nxt - v
        x[todo], lo[todo], hi[todo], dx[todo] = nxt, lv, hv, d + dd * step
        if not (todo := np.arange(x.size)[todo][(dd / d) ** 2 * np.abs(r) ** 3 * d > tol]).size:
            break
    # with those nodes none lies inside the image of a node interval.  A gap
    # minimum (gap' = h / phi'(x), h = phi'(theta) - phi'(x)) lies where h goes
    # from - to +; bracket it one node further either way, start from cubic models
    back = x[nodes:] + tau * (x[nodes:] < 0.0)
    order = np.argsort(np.concatenate([theta, back]))
    theta, x, dx, h = (np.concatenate(v)[order] for v in (
        (theta, back), (x[:nodes], theta + back - x[nodes:]), (dx[:nodes], dphi),
        (dphi - dx[:nodes], dx[nodes:] - dphi)))
    hn, dxn = np.concatenate([h[1:], h[:1]]), np.concatenate([dx[1:], dx[:1]])
    # skip a sign change within rounding: with |h| width <= tol phi' at both
    # nodes, the gap between them lies within tol of theirs.  Coincident
    # nodes at a maximum of the gap give such changes, and bisecting one
    # took tens of steps
    width = np.concatenate([theta[1:], theta[:1] + tau]) - theta
    j = np.flatnonzero((h < 0.0) & (hn >= 0.0)
                       & ((-h * width > tol * dx) | (hn * width > tol * dxn)))
    theta, x, dx = (np.concatenate([v[-1:] - c, v, v[:2] + c])
                    for v, c in ((theta, tau), (x, tau), (dx, 0.0)))
    lo, hi, ylo, yhi = theta[j], theta[j + 3], x[j], x[j + 3]
    t0, x0, x1, wd = theta[j + 1], x[j + 1], x[j + 2], width[j]
    s0, s1, g = h[j] / dx[j + 1], hn[j] / dx[j + 2], x0 - x1 + wd
    qa, qb = 6.0 * g + 3.0 * wd * (s0 + s1), -6.0 * g - wd * (4.0 * s0 + 2.0 * s1)
    with np.errstate(divide="ignore", invalid="ignore"):
        f = -2.0 * wd * s0 / (qb + np.sqrt(np.maximum(qb * qb - 4.0 * qa * wd * s0, 0.0)))
        f = np.fmin(np.fmax(f, 0.0), 1.0)
        t = t0 + f * wd
        y = (x0 * (1.0 + 2.0 * f) * (1.0 - f) ** 2 + x1 * f * f * (3.0 - 2.0 * f)
             + wd * f * (1.0 - f) * ((1.0 + s0) * (1.0 - f) - (1.0 + s1) * f))
        for _ in range(NEWTON_STEPS if j.size else 0):
            pt, py, dt, dy, ddt, ddy = np.concatenate(arg(np.concatenate([t, y]))).reshape(6, -1)
            # y onto the level; h there to first order, trusted once within sqrt(tol)
            r = (py - pt - tau) / dy
            y = np.minimum(np.maximum(y - r * (1.0 + 0.5 * ddy / dy * r), ylo), yhi)
            hh, dh = dt - dy + ddy * r, ddt - ddy * dt / dy
            ok = np.abs(r * dy) <= math.sqrt(tol)
            np.copyto(lo, t, where=ok & (hh < 0.0))
            np.copyto(hi, t, where=ok & (hh > 0.0))
            nxt = t - hh / dh
            np.copyto(nxt, 0.5 * (lo + hi), where=(dh <= 0.0) | (nxt < lo) | (nxt > hi))
            np.copyto(nxt, t, where=~ok)
            # done once the step would lower the gap (gap'' ~ dh / phi'(y)) by tol
            if ok.all() and (np.abs(hh * (nxt - t)) <= tol * dy).all():
                break
            y, t = np.minimum(np.maximum(y + dt / dy * (nxt - t), ylo), yhi), nxt
    ends = np.concatenate([theta, t, x, y]).reshape(2, -1)
    return ends[:, np.argmin(ends[1] - ends[0])]


def in_D_first(F, lp, closed=True):
    """First characterization: F + zeta F^*n is in the circle class for every
    unimodular zeta, decided for all zeta at once from F's zeros.

    With F's zeros strictly inside, B = F / F^*n is a Blaschke product of
    degree n with a strictly rising argument phi on the circle; the fold
    F^*n (B + zeta) has n simple zeros there, one 2 pi step of phi apart
    (Garcia, Mashreghi & Ross 2018).  So the margin, min over theta of the
    gap, phi(theta + gap) = phi(theta) + 2 pi, minus lambda, is in_T's over
    all folds, which _least_gap finds.  Within the rounding of phi plus the
    inclusion radii of F's zeros (roots._inclusion_radii, the radii that
    decide find_roots' multiplicities), the margin is indeterminate (closed:
    member, open: non-member).  Witness: the circle point of the least gap.
    """
    lp.require_interior()
    label = _label("D", closed)
    early = _route_roots(F, lp, closed, label, "FIRST_CHAR", roots=True)
    if early is not None:
        return early
    rs = find_roots(F)
    n, eps = lp.n, np.finfo(float).eps
    if n == 1:  # one zero per fold, which in_T separates by 2 pi
        return _margin_verdict(label, closed, "FIRST_CHAR", 2.0 * math.pi - lp.lam, False, 1j)
    tol = 128.0 * math.pi * n * eps  # phi's level residual, and n theta's rounding
    z, m = map(np.array, zip(*rs.roots))
    w = m * (1.0 - np.abs(z) ** 2)
    at = _least_gap(functools.partial(_blaschke_arg, n, z, m, w), n, z, tol)
    r = _inclusion_radii(F.coeffs[: n + 1], z, m)
    v = np.abs(1.0 - np.multiply.outer(np.exp(-1j * at), z))
    with np.errstate(divide="ignore", invalid="ignore"):
        err = ((m * (r + 4.0 * eps)) @ (2.0 / v).sum(axis=0) + tol) / (w @ v[1] ** -2)
    margin = float(at[1] - at[0]) - lp.lam
    return _margin_verdict(label, closed, "FIRST_CHAR", margin, not abs(margin) > float(err),
                           cmath.exp(1j * at[0]))


def in_D_second(P, Q, lp, closed=True):
    """Difference-quotient route on a split F = P - Q of self-inversive P
    and Q with distinct phases (in_D passes P = (F - F^*n) / 2).

    P and Q need no root find: with X^*n = c_X^2 X, (c_P^2 - c_Q^2) P =
    F^*n - c_Q^2 F, and once the preamble finds F's zeros strictly inside,
    |F / F^*n| is below 1 inside the disk and above 1 outside, so all n
    zeros of P (|a_0| < |a_n|) lie on the circle; likewise Q's.

    Every H_theta = cos(theta) A - sin(theta) B, with A = c_P D[P] and
    B = c_Q D[Q] of exact degree n - 1, must have its zeros in the disk
    (open: all tagged INSIDE; closed: none OUTSIDE).  A and B are root-found
    only when roots.all_zeros_within does not certify them inside
    (open: below INSIDE_RADIUS; closed: below 1, a full CIRCLE_TOL short of
    the OUTSIDE tag); a zero out of the disk decides non-member by the
    outermost zero, with margin 1 - |z|.
    Once they are in the disk, H_theta vanishes at z on the circle exactly
    when A(z)/B(z) = tan(theta), so by the minimum principle for Im(A/B)
    outside the disk (the disk form of Hermite-Biehler) the pencil is in
    the disk exactly when s = Im(A conj B) keeps on the circle the sign of
    Im(A/B) at infinity, which is that of sin(b - a), c_P = e^{ia}, c_Q =
    e^{ib}, since |F_0| < |F_n| (B is negated where it is negative): strictly
    for the open class, touching 0 allowed for the closed one.
    The margin is then the signed minimum of s / (|A|^2 + |B|^2) over the
    circle: unitless, in [-1/2, 1/2], positive for members and 0 exactly
    where some H_theta has a zero on the circle.  A minimum of s within its
    rounding bound is indeterminate (closed: member, open: non-member).
    """
    lp.require_interior()
    label = _label("D", closed)
    # the pencil cannot tell F from its n-inverse (the split only changes
    # sign), so the zero-location preamble has to run on F itself
    early = _route_roots(P - Q, lp, closed, label, "SECOND_CHAR")
    if early is not None:
        return early
    cP, cQ, same = _phases(P, Q)
    if same:
        raise PhaseCollision("c_P == c_Q: split degenerate for this route")
    A, B = cP * delta(P, lp), cQ * delta(Q, lp)
    # at n = 1 the ends are nonzero constants, without zeros
    for theta, H in ((0.0, A), (math.pi / 2.0, B)) if lp.n > 1 else ():
        if all_zeros_within(H, 1.0 if closed else INSIDE_RADIUS):
            continue
        rs = find_roots(H)
        if not (rs.all_in_closed_disk() if closed else rs.all_inside()):
            z = rs.outermost()
            return MembershipVerdict(label, False, "SECOND_CHAR", 1.0 - abs(z),
                                     {"theta": theta, "offending_root": complex(z)})
    if (cQ * cP.conjugate()).imag < 0.0:
        B = -1.0 * B
    return _margin_verdict(label, closed, "SECOND_CHAR", *_circle_sign(A.coeffs, B.coeffs))


@functools.lru_cache(maxsize=2)
def _oracle_grid(closed):
    """eq8_oracle's exterior grid, radii by angles, flattened (read-only)."""
    radii = np.geomspace(1.0 + CIRCLE_TOL, 8.0, ORACLE_RADII)
    if not closed:
        radii = np.concatenate([[1.0], radii])
    angles = np.exp(2j * np.pi * np.arange(ORACLE_ANGLES) / ORACLE_ANGLES)
    z = np.outer(radii, angles).ravel()
    z.flags.writeable = False
    return z


def eq8_oracle(F, lp, closed=True):
    """Direct grid evaluation of the defining half-plane inequality for the
    rotated quotient on the exterior of the disk.

    The innermost radius is 1 + CIRCLE_TOL (and 1 for the open class): a
    zero of F just inside the circle can make the quotient dip below the
    real axis only within a thin band outside it.
    """
    lp.require_interior()
    label = _label("D", closed)
    if (bad := _degree_verdict(F, lp, label, "EQ8_GRID")) is not None:
        return bad
    if not closed:
        rs = find_roots(F)
        if rs.all_on_circle():
            return _in_T_roots(rs, lp, False, label, "EQ8_GRID/routed_T")
    h = lp.lam / 2.0
    phase = cmath.exp(-1j * lp.n * h)
    z = _oracle_grid(closed)
    # F_+ and F_- by Horner in place from the top coefficient, the steps of
    # np.polyval after its first, 0 z + c_n, which is c_n (the top is nonzero)
    rows = _unit_scaled(np.stack([F.rotate(h).coeffs, F.rotate(-h).coeffs], axis=1))
    rows = rows[::-1, :, None]
    y = np.empty((2, z.size), dtype=complex)
    y[...] = rows[0]
    for col in rows[1:]:
        y *= z
        y += col
    num, den = y
    with np.errstate(divide="ignore", invalid="ignore"):
        # phase * num / den in place, operands in that order
        np.multiply(phase, num, out=num)
        np.divide(num, den, out=num)
    im = num.imag
    i = int(np.argmin(im))  # the first NaN, if any
    margin = float(im[i])
    if not math.isfinite(margin):
        # the least finite value; -inf when there is none
        finite = np.isfinite(im)
        im = np.where(finite, im, math.inf)
        i = int(np.argmin(im))
        margin = float(im[i]) if finite[i] else -math.inf
    # a positive least value within its drop to its two angular neighbours
    # on its ring may hide a dip below zero between the nodes
    row, k = im.reshape(-1, ORACLE_ANGLES)[i // ORACLE_ANGLES], i % ORACLE_ANGLES
    drop = float(max(row[k - 1], row[(k + 1) % ORACLE_ANGLES])) - margin
    indet = 0.0 <= margin <= drop
    member = closed if indet else margin > 0.0
    wit = {"neighbour_drop": drop} if indet else {} if member else {
        "negative_imag_on_grid": True}
    return MembershipVerdict(label, member, "EQ8_GRID", margin, wit, indeterminate=indet)


def in_D(F, lp, closed=True, method="third"):
    """The disk classes at every lambda: the one entry point.

    lambda = 0 and lambda = 2*pi/n use their explicit definitions, whatever
    the method; interior lambda dispatches to the requested route, "third",
    "first", "second" (on the canonical split of F) or "oracle".
    """
    if method not in ("third", "first", "second", "oracle"):
        raise ValueError(f"unknown method {method!r}")
    if lp.lam == 0.0:
        return _in_D_lambda0(F, lp, closed)
    if lp.is_upper_endpoint:
        return _in_D_upper(F, lp, closed)
    if method == "second":
        Fi = F.n_inverse()
        return in_D_second((F - Fi) * 0.5, (F + Fi) * (-0.5), lp, closed)
    return {"third": in_D_third, "first": in_D_first, "oracle": eq8_oracle}[method](F, lp, closed)


def _in_D_lambda0(F, lp, closed):
    """The disk classes at lambda = 0 by definition and the outermost zero;
    the open class through the routes' preamble, _route_roots."""
    label = _label("D", closed)
    if not closed:
        early = _route_roots(F, lp, False, label, "definition", roots=True)
        if early is not None:
            return early
        return MembershipVerdict(label, True, "definition", 1.0 - abs(find_roots(F).outermost()))
    if (bad := _degree_verdict(F, lp, label, "definition")) is not None:
        return bad
    rs = find_roots(F)
    z = rs.outermost()
    member = rs.all_in_closed_disk()
    return MembershipVerdict(label, member, "definition", 1.0 + CIRCLE_TOL - abs(z),
                             {} if member else {"offending_root": complex(z)})


def _in_D_upper(F, lp, closed):
    label = _label("D", closed)
    if not closed:
        return MembershipVerdict(label, False, "definition", -math.inf,
                                 {"reason": "open class empty at the endpoint"})
    if (bad := _degree_verdict(F, lp, label, "definition")) is not None:
        return bad
    c = F.coeffs
    n = lp.n
    scale = F.norm()
    mid = float(np.max(np.abs(c[1:n]))) if n > 1 else 0.0
    b = complex(-c[0] / c[n])
    member = mid <= 1e-10 * scale and abs(b) <= 1.0 + CIRCLE_TOL
    margin = 1.0 - abs(b) if mid <= 1e-10 * scale else -mid / scale
    wit = {} if member else {"b": b, "mid_coeff_norm": mid}
    return MembershipVerdict(label, member, "definition", margin, wit)


# -- interspersion lemmas ----------------------------------------------------


def _phases(P, Q):
    """(c_P, c_Q, same): the self-inversive phases of P and Q, and whether
    they agree up to sign and rounding."""
    cP = self_inversive_phase(P)
    cQ = self_inversive_phase(Q)
    return cP, cQ, min(abs(cP - cQ), abs(cP + cQ)) <= 1e-8


def hermite_biehler(P, Q, strict=False):
    """Interspersion of two unimodular zero sets with distinct phases: do the
    zeros of P and Q alternate on the circle (strict: with none shared)?

    By the Hermite-Biehler lemma this is equivalent to P - Q, or its
    n-inverse, having all zeros in the closed (strict: open) unit disk; it
    is decided once, as hermite_kakeya is, so a zero off the circle is False.
    """
    if _phases(P, Q)[2]:
        raise PhaseCollision("distinct self-inversive phases required")
    return _alternate(P, Q, strict)


def hermite_kakeya(P, Q, strict=False):
    """Pencil test for equal-phase pairs: every projective combination
    cos(t) P - sin(t) Q keeps its zeros on the circle (strict: simple zeros).

    Decided by the Hermite-Kakeya statement: P and Q of degree n have all
    zeros on the circle and their zeros alternate.  A shared zero z0 is
    admitted only when not strict: with P = (z - z0) P1 and Q = (z - z0) Q1,
    the combination at tan(t) = P1(z0) / Q1(z0) vanishes doubly at z0.
    """
    if not _phases(P, Q)[2]:
        raise PhaseMismatch("equal self-inversive phases required")
    # equal phases admit exactly the real multiples of P, negative ones too
    Pu, Qu = P * (1.0 / max(P.norm(), 1e-300)), Q * (1.0 / max(Q.norm(), 1e-300))
    if Qu.approx_eq(Pu, 1e-12) or Qu.approx_eq(Pu * -1.0, 1e-12):
        raise BadParams("P/Q must be nonconstant")
    return _alternate(P, Q, strict)


def _alternate(P, Q, strict):
    """The lemmas' shared statement: exact degree n, all zeros ON, interspersed."""
    if not P.exact_degree == Q.exact_degree == P.nominal_degree:
        return False
    rsP, rsQ = find_roots(P), find_roots(Q)
    return rsP.all_on_circle() and rsQ.all_on_circle() and interspersed(rsP, rsQ, strict)


# -- half-plane criterion and the explicit boundary family -------------------


def half_plane_criterion(f):
    """Re((f - a_0) / B) > 1/2 on the circle, B = a_n z^n - a_0 (so, by the
    maximum principle, outside the disk), decided by roots._circle_sign as
    s = Im(A conj B) = |B|^2 (Re((f - a_0) / B) - 1/2) > 0, A = i(f - (a_0 +
    a_n z^n) / 2).  The quotient is 1 at infinity, where s > 0 orients the
    test, and the margin, the least of s / (|A|^2 + |B|^2), lies in (0, 1/2]
    for a member, in [-1/2, 0] for a non-member.  A margin within rounding
    is indeterminate, a non-member (the inequality is strict)."""
    c, n = f.coeffs, f.nominal_degree
    a0, an = c[0], c[n]
    if abs(a0) >= abs(an):
        raise HypothesisViolated(f"need |a_0| < |a_n|, got {abs(a0)} >= {abs(an)}")
    A, B = 1j * np.r_[a0 / 2, c[1:n], an / 2], np.r_[-a0, np.zeros(n - 1), an]
    return _margin_verdict("half_plane", False, "CIRCLE_SIGN", *_circle_sign(A, B))


def extremal_family(n, lam, a, b, c):
    """The explicit three-parameter family of unimodular polynomials P for
    which P - Q_n(lambda; .) lies on the boundary of the closed disk class.

    Each summand clears one simple-pole factor of Q_n in closed form, so the
    result is an exact polynomial of degree n.
    """
    LambdaParam(n, lam).require_interior()
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
        part = np.convolve(_expand(factors[: k - 1] + factors[k:]), top)
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
