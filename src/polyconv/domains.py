"""Zero-domain predicates: Möbius disk images, limaçon regions, complements.

Membership is decided algebraically on the defining inequality of each
region; no boundary discretization enters the predicates themselves.  The
boundary polyline emitter exists only for plotting.
"""

from __future__ import annotations

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
            if self.tau == 0:
                raise BadParams("tau must be nonzero")
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


def contains(d, z, tol=1e-9):
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


def root_set_in(p, d, tol=1e-9):
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


def boundary_polyline(d, samples=256):
    """Points on the region boundary, one per angle, found by radial
    bisection on the defining defect.  Returns an (samples, 2) array of
    (re, im) rows for plotting."""
    if samples < 1:
        raise BadParams(f"samples must be >= 1, got {samples}")
    if d.kind == COMPLEMENT:
        return boundary_polyline(d.inner, samples)
    if d.kind == UNIT_CIRCLE:
        raise BadParams("the unit circle is its own boundary; no region defect")

    # a region-dependent interior anchor keeps every ray crossing the boundary
    if d.kind in _OMEGA_KINDS:
        center = mobius(d.tau, d.gamma, 0.0)
    elif d.kind in {LIMACON_O, LIMACON_O_CLOSED}:
        center = complex(-(3.0 + d.gamma))
    else:
        center = 0.0 + 0.0j
    pts = []
    for t in np.linspace(0.0, 2.0 * math.pi, samples, endpoint=False):
        u = complex(math.cos(t), math.sin(t))
        lo, hi = 0.0, 1.0
        while _defect(d, center + hi * u) > 0 and hi < 1e6:
            lo, hi = hi, hi * 2.0
        if _defect(d, center + hi * u) > 0:
            continue  # unbounded direction (outer limaçon)
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if _defect(d, center + mid * u) > 0:
                lo = mid
            else:
                hi = mid
        z = center + 0.5 * (lo + hi) * u
        pts.append([z.real, z.imag])
    return np.array(pts)


def reflected_domain(d):
    """The region whose degree-n members are the n-inverses of polynomials
    zero-free on OMEGA(tau, gamma): OMEGA_CLOSED((gamma^2-1)/conj(tau), gamma)."""
    if d.kind not in _OMEGA_KINDS:
        raise BadParams("reflection defined for OMEGA regions")
    g = d.gamma
    if g == 1.0:
        raise OutOfRange("gamma = 1 reflection degenerates (tau' = 0)")
    return DomainSpec(OMEGA_CLOSED, (g * g - 1.0) / np.conj(d.tau), g)
