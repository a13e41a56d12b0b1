"""Zero-domain predicates: Möbius disk images, limaçon regions, complements.

Membership is decided algebraically on the defining inequality of each
region; no boundary discretization enters the predicates themselves.  The
boundary polyline emitter exists only for plotting.  It traces every ray
at once: `_defect`, the one defect function, takes a Python complex in
`contains` and the array of all ray points in the polyline, which
brackets each ray by doubling and then shrinks every bracket together by
Anderson–Björck regula-falsi steps.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import BadParams, OutOfRange
from .poly import Polynomial
from .roots import find_roots

IN = "IN"
OUT = "OUT"
BOUNDARY = "BOUNDARY"

UNIT_DISK_OPEN = "UNIT_DISK_OPEN"
UNIT_DISK_CLOSED = "UNIT_DISK_CLOSED"
UNIT_CIRCLE = "UNIT_CIRCLE"
OMEGA = "OMEGA"
OMEGA_CLOSED = "OMEGA_CLOSED"
LIMACON_I = "LIMACON_I"
LIMACON_I_CLOSED = "LIMACON_I_CLOSED"
LIMACON_O = "LIMACON_O"
LIMACON_O_CLOSED = "LIMACON_O_CLOSED"
COMPLEMENT = "COMPLEMENT"

#: width of the BOUNDARY band on the defining defect, unless a caller gives its own
BOUNDARY_TOL = 1e-9

_OMEGA_KINDS = {OMEGA, OMEGA_CLOSED}
_LIMACON_KINDS = {LIMACON_I, LIMACON_I_CLOSED, LIMACON_O, LIMACON_O_CLOSED}


@dataclass(frozen=True)
class DomainSpec:
    """Tagged region description.

    OMEGA(tau, gamma) is the image of the open unit disk under
    w(z) = tau z / (1 + gamma z); LIMACON_I / LIMACON_O are
    |z| + gamma |1+z| < 1 and |z| - gamma |1+z| > 1.  gamma = 1 closed
    limaçons degenerate to the segments [-1, 0] and (-inf, -1].
    """

    kind: str
    tau: complex = 0.0 + 0.0j
    gamma: float = 0.0
    inner: "DomainSpec | None" = None

    def __post_init__(self):
        k = self.kind
        if k == COMPLEMENT:
            if self.inner is None:
                raise BadParams("COMPLEMENT needs an inner DomainSpec")
            return
        if self.inner is not None:
            raise BadParams("only COMPLEMENT takes an inner spec")
        if k in {UNIT_DISK_OPEN, UNIT_DISK_CLOSED, UNIT_CIRCLE}:
            return
        if k in _OMEGA_KINDS:
            if self.tau == 0 or not cmath.isfinite(self.tau):
                raise BadParams(f"tau must be finite and nonzero, got {self.tau}")
            if not 0.0 <= self.gamma <= 1.0:
                raise OutOfRange(f"gamma={self.gamma} outside [0, 1]")
            return
        if k in _LIMACON_KINDS:
            closed = k.endswith("CLOSED")
            hi = 1.0 if closed else 1.0 - 1e-15
            if not 0.0 <= self.gamma <= hi:
                # gamma = 1 open limaçons have no defined interior here
                raise OutOfRange(
                    f"gamma={self.gamma} outside [0, 1{']' if closed else ')'}")
            return
        raise BadParams(f"unknown domain kind {k!r}")


def omega(tau, gamma, closed=False):
    return DomainSpec(OMEGA_CLOSED if closed else OMEGA, complex(tau), float(gamma))


def limacon_inner(gamma, closed=False):
    return DomainSpec(LIMACON_I_CLOSED if closed else LIMACON_I, gamma=float(gamma))


def limacon_outer(gamma, closed=False):
    return DomainSpec(LIMACON_O_CLOSED if closed else LIMACON_O, gamma=float(gamma))


def complement(d):
    return DomainSpec(COMPLEMENT, inner=d)


def mobius(tau, gamma, z):
    """w(z) = tau z / (1 + gamma z)."""
    return tau * z / (1.0 + gamma * z)


def _defect(d, z):
    """The defining inequality of a region as a real function: positive
    strictly inside, zero on the boundary.  Not for the circle or a
    complement, which have none of their own."""
    k = d.kind
    if k in {UNIT_DISK_OPEN, UNIT_DISK_CLOSED}:
        return 1.0 - abs(z)
    if k in _OMEGA_KINDS:
        # z = w(u) with |u| < 1 inverts to |z| < |tau - gamma z|
        return abs(d.tau - d.gamma * z) - abs(z)
    if k in {LIMACON_I, LIMACON_I_CLOSED}:
        return 1.0 - abs(z) - d.gamma * abs(1.0 + z)
    return abs(z) - d.gamma * abs(1.0 + z) - 1.0


def _classify(defect, tol):
    """defect > 0 means strictly inside the defining inequality."""
    if abs(defect) <= tol:
        return BOUNDARY
    return IN if defect > 0 else OUT


def contains(d, z, tol=BOUNDARY_TOL):
    """Membership of the point z in the region, with a BOUNDARY verdict in a
    band of width tol on the defining defect.  Open and closed variants
    classify points identically; closure matters to root_set_in, which
    accepts BOUNDARY roots only for closed regions.  The gamma = 1 closed
    limaçons are the degenerate segments (every point of the set has defect
    zero), so there the band itself is the region and reads IN."""
    z = complex(z)
    k = d.kind
    if k == COMPLEMENT:
        v = contains(d.inner, z, tol)
        if v == BOUNDARY:
            return BOUNDARY
        return OUT if v == IN else IN
    if k == UNIT_CIRCLE:
        return IN if abs(abs(z) - 1.0) <= tol else OUT
    defect = _defect(d, z)
    if k in {LIMACON_I_CLOSED, LIMACON_O_CLOSED} and d.gamma == 1.0:
        return IN if abs(defect) <= tol else OUT
    return _classify(defect, tol)


def _accepts_boundary(d):
    if d.kind == COMPLEMENT:
        return not _accepts_boundary(d.inner)
    if d.kind == UNIT_CIRCLE:
        return False  # contains never reports BOUNDARY for the circle
    return d.kind.endswith("CLOSED")


def root_set_in(p, d, tol=BOUNDARY_TOL):
    """(all roots in the region, first offending root or None).

    BOUNDARY roots count as inside exactly for closed regions."""
    ok = {IN, BOUNDARY} if _accepts_boundary(d) else {IN}
    rs = find_roots(p)
    for z, _ in rs.roots:
        if contains(d, z, tol) not in ok:
            return False, complex(z)
    return True, None


def counterexample_P(alpha, n):
    """(1 - z/alpha)^n: the polynomial whose binomial-weighted convolution
    with any Q of degree n gives Q(-z/alpha)."""
    if alpha == 0:
        raise BadParams("alpha must be nonzero")
    # exact normalization matters: the identity is not invariant under
    # rescaling this factor
    a = complex(alpha)
    c = [math.comb(n, k) * (-1.0 / a) ** k for k in range(n + 1)]
    return Polynomial(c, n)


#: a ray of an unbounded region that is still inside this far from the
#: anchor counts as leaving the region through infinity
_FAR = 1e6


def _ray_anchor(d):
    """(interior point, reach): every boundary point of a bounded region
    lies within reach of the point; reach is None for the unbounded ones."""
    if d.kind in {LIMACON_O, LIMACON_O_CLOSED}:
        return complex(-(3.0 + d.gamma)), None
    if d.kind not in _OMEGA_KINDS:
        return 0.0 + 0.0j, 1.0  # the disk and the inner limaçons lie in |z| <= 1
    center = mobius(d.tau, d.gamma, 0.0)
    if d.gamma == 1.0:
        return center, None  # a half-plane
    # w(u) = tau u / (1 + gamma u) maps |u| < 1 into |w| < |tau| / (1 - gamma)
    reach = abs(d.tau) / (1.0 - d.gamma)
    if not reach < 2.0 ** 1000:
        raise OutOfRange(f"the boundary of {d} lies beyond the float range")
    return center, reach


def boundary_polyline(d, samples):
    """Points on the region boundary, one per angle, as an (m, 2) array of
    (re, im) rows for plotting, m <= samples.

    A ray leaves a region-dependent interior anchor at each angle
    2 pi j / samples.  It is bracketed by doubling: the first of
    t = 1, 2, 4, ... with defect <= 0 at anchor + t u, found for every ray
    and power in one defect call.  A bounded region's rays double past
    twice its reach, where each of them has crossed.  An unbounded region
    (an outer limaçon, the gamma = 1 OMEGA half-plane) drops the rays that
    are still inside at 2**20 >= 1e6.  All brackets then shrink together,
    one defect call per step, by Anderson–Björck regula-falsi steps, until
    each one's ends are adjacent floats or its defect is exactly zero."""
    if samples < 1:
        raise BadParams(f"samples must be >= 1, got {samples}")
    if d.kind == COMPLEMENT:
        return boundary_polyline(d.inner, samples)
    if d.kind == UNIT_CIRCLE:
        raise BadParams("the unit circle is its own boundary; no region defect")
    if d.kind in {LIMACON_I_CLOSED, LIMACON_O_CLOSED} and d.gamma == 1.0:
        raise BadParams("the gamma = 1 closed limaçons are segments; "
                        "no interior to trace the boundary from")

    center, reach = _ray_anchor(d)
    u = np.array([complex(math.cos(t), math.sin(t))
                  for t in np.linspace(0.0, 2.0 * math.pi, samples, endpoint=False)])
    last = math.ceil(math.log2(_FAR if reach is None else 2.0 * reach))
    powers = 2.0 ** np.arange(max(0, last) + 1)
    f = _defect(d, center + u[:, None] * powers)
    crossed = f <= 0.0
    j = crossed.argmax(axis=1)
    rays = np.flatnonzero(crossed[np.arange(samples), j])
    if reach is not None and rays.size < samples:
        # only gamma within rounding of 1 leaves the defect positive there
        raise OutOfRange(f"the defect of {d} does not resolve its boundary")
    j = j[rays]
    # the bracket (a, b), b the newest point: the defect changes sign from
    # a to b (> 0 at a and <= 0 at b to start)
    b, fb = powers[j], f[rays, j]
    a = np.where(j > 0, 0.5 * b, 0.0)
    fa = np.where(j > 0, f[rays, j - 1], _defect(d, center))
    u = u[rays]
    t = np.empty(rays.size)
    live, v = np.arange(rays.size), u  # the rays still shrinking, their directions
    while True:
        nb = np.nextafter(b, a)
        done = (fb == 0.0) | (nb == a)
        if done.any():
            t[live[done]] = np.where(fb[done] == 0.0, b[done], 0.5 * (a[done] + b[done]))
            keep = ~done
            live, a, b, fa, fb, nb, v = (x[keep] for x in (live, a, b, fa, fb, nb, v))
        if not live.size:
            break
        c = b - fb / (fb - fa) * (b - a)
        # a secant point at or past an end (the root is within rounding of
        # it) moves one float inside, so every step shrinks the bracket
        na = np.nextafter(a, b)
        c = np.minimum(np.maximum(c, np.minimum(na, nb)), np.maximum(na, nb))
        fc = _defect(d, center + c * v)
        flip = (fc > 0.0) != (fb > 0.0)
        # Anderson–Björck: when c falls on b's side, the value at a is
        # scaled by 1 - f(c)/f(b), or by 1/2 where that is not positive
        m = 1.0 - fc / fb
        m[m <= 0.0] = 0.5
        fa *= m
        fa[flip] = fb[flip]
        a[flip] = b[flip]
        b, fb = c, fc
    z = center + t * u
    return np.column_stack((z.real, z.imag))


def reflected_domain(d):
    """The region whose degree-n members are the n-inverses of polynomials
    zero-free on OMEGA(tau, gamma): OMEGA_CLOSED((gamma^2-1)/conj(tau), gamma)."""
    if d.kind not in _OMEGA_KINDS:
        raise BadParams("reflection defined for OMEGA regions")
    g = d.gamma
    if g == 1.0:
        raise OutOfRange("gamma = 1 reflection degenerates (tau' = 0)")
    return DomainSpec(OMEGA_CLOSED, (g * g - 1.0) / d.tau.conjugate(), g)
