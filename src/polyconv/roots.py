"""Root finding and unit-circle classification.

Eigenvalues of the companion matrix (Edelman & Murakami 1995), a short
Newton polish, and geometric clustering for multiplicities confirmed by a
derivative test.  Deterministic given its options.  `_circle_sign`
certifies the sign of Im(A conj B) on the circle, which decides where a
pencil of polynomials takes zeros on the circle without root finding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NoConvergence, NotOnCircle

CIRCLE_TOL = 1e-7

INSIDE = "INSIDE"
ON = "ON"
OUTSIDE = "OUTSIDE"


@dataclass(frozen=True)
class RootSet:
    """Roots with multiplicities plus circle classification tags."""

    roots: tuple  # of (location: complex, multiplicity: int)
    residual: float
    circle_tol: float = CIRCLE_TOL

    def tags(self):
        out = []
        for z, m in self.roots:
            r = abs(z)
            if abs(r - 1.0) <= self.circle_tol:
                out.append(ON)
            elif r < 1.0:
                out.append(INSIDE)
            else:
                out.append(OUTSIDE)
        return out

    @property
    def total_multiplicity(self):
        return sum(m for _, m in self.roots)

    def all_on_circle(self):
        return all(t == ON for t in self.tags())

    def all_inside(self):
        return all(t == INSIDE for t in self.tags())

    def all_in_closed_disk(self):
        return all(t != OUTSIDE for t in self.tags())

    def min_boundary_margin(self):
        """Smallest | |z| - 1 | over all roots."""
        return min(abs(abs(z) - 1.0) for z, _ in self.roots) if self.roots else math.inf

    def to_csv(self):
        lines = []
        for (z, m), t in zip(self.roots, self.tags()):
            lines.append(f"{z.real:.17g},{z.imag:.17g},{m},{t}")
        return "\n".join(lines)


def _companion_roots(c):
    """Eigenvalues of the companion matrix of the ascending coefficients c
    (exact degree, nonzero constant term), made monic first.

    The monic division is by the larger end coefficient: when |c[0]| is
    the larger, the reversed polynomial is solved and its roots inverted.
    A leading coefficient at rounding level, left by cancellation in a
    difference of products, otherwise fills the matrix with entries near
    1e15, and double zeros on the circle come out split by 1e-4 to 1e-2,
    too far apart for the clustering to rejoin them.
    """
    flip = abs(c[0]) > abs(c[-1])
    if flip:
        c = c[::-1]
    d = c.size - 1
    comp = np.zeros((d, d), dtype=complex)
    comp[1:, :-1] = np.eye(d - 1)
    comp[:, -1] = -c[:-1] / c[-1]
    z = np.linalg.eigvals(comp)
    # inverting a real root leaves its imaginary part at -0.0; adding 0j
    # makes it +0.0, so its argument is pi, not -pi
    return 1.0 / z + 0j if flip else z


def _components(adj):
    """Connected components (index arrays) of a symmetric boolean adjacency."""
    reach = (adj | np.eye(len(adj), dtype=bool)).astype(float)
    while True:
        nxt = (reach @ reach > 0).astype(float)
        if np.array_equal(nxt, reach):
            break
        reach = nxt
    # all rows of one component are equal; its lowest index labels it
    labels = np.argmax(reach, axis=1)
    return [np.flatnonzero(labels == lab) for lab in np.unique(labels)]


def _refine_multiple(derivs, z, m, radius):
    """Newton on the (m-1)-th derivative, where an m-fold root is simple."""
    g = derivs[m - 1]
    dg = np.polyder(g)
    z0 = z
    for _ in range(20):
        dgv = np.polyval(dg, z0)
        if abs(dgv) < 1e-300:
            break
        step = np.polyval(g, z0) / dgv
        if abs(step) > 0.1:
            break
        z0 = z0 - step
        if abs(step) < 1e-15 * max(1.0, abs(z0)):
            break
    return z0 if abs(z0 - z) < radius else z


def _is_multiple(derivs, z0, m, rel_tol=1e-7):
    """Do p and its first m-1 derivatives all vanish at z0 (relatively)?

    Discriminates a genuine m-fold root (derivative values at rounding
    level) from a tight group of distinct roots (values of order spacing).
    """
    for j in range(m):
        c = derivs[j]
        norm = float(np.max(np.abs(c)))
        if norm == 0.0:
            continue
        size = norm * max(1.0, abs(z0)) ** (c.size - 1)
        if abs(np.polyval(c, z0)) > rel_tol * size:
            return False
    return True


def _cluster(points, cluster_tol, rev):
    """Group approximate roots into multiple roots, highest multiplicity
    first, accepting a group only when the derivative test confirms it.

    An m-fold root computed in floating point scatters into m points with
    spread of order eps**(1/m); the candidate radius grows accordingly with
    the hypothesized multiplicity, and false merges of genuinely distinct
    roots are rejected by _is_multiple.
    """
    dist = np.abs(points[:, None] - points[None, :])
    live = np.arange(points.size)
    derivs = None
    found = []
    for m in range(points.size, 1, -1):
        radius = 3.0 * cluster_tol ** (1.0 / m)
        adj = dist[np.ix_(live, live)] < radius
        np.fill_diagonal(adj, False)
        # the radius shrinks with m and live only shrinks: no later m links
        if not adj.any():
            break
        merged = []
        for g in _components(adj):
            if g.size != m:
                continue
            if derivs is None:
                derivs = [np.asarray(rev)]
                for _ in range(points.size):
                    derivs.append(np.polyder(derivs[-1]))
            centroid = complex(np.mean(points[live[g]]))
            z0 = _refine_multiple(derivs, centroid, m, radius)
            if _is_multiple(derivs, z0, m):
                found.append((z0, m))
                merged.extend(live[g])
        live = np.setdiff1d(live, merged)
    found.extend((complex(points[i]), 1) for i in live)
    return found


def find_roots(p, tol=1e-13, cluster_tol=1e-8, circle_tol=CIRCLE_TOL):
    """All roots of p with multiplicities, classified against the unit circle.

    Raises ValueError on a non-finite coefficient, and NoConvergence when
    the normalized residual at the simple roots is above sqrt(tol) after
    the eigensolve and polish.
    """
    bad = np.flatnonzero(~np.isfinite(p.coeffs))
    if bad.size:
        k = int(bad[0])
        raise ValueError(f"non-finite coefficient {p.coeffs[k]} of z^{k}")
    d = p.exact_degree
    if p.is_zero or d < 1:
        raise ValueError("need a nonzero polynomial of exact degree >= 1")
    c = np.array(p.coeffs[: d + 1])
    # exact zeros at the origin come from vanishing low-order coefficients
    scale = float(np.max(np.abs(c)))
    k0 = 0
    while abs(c[k0]) == 0.0:
        k0 += 1
    zero_mult = k0
    c = c[k0:]
    approx = _companion_roots(c) if c.size > 1 else np.array([], dtype=complex)

    # Newton polish (helps simple roots; harmless on clusters)
    rev = c[::-1] / c[-1]
    drev = (c[1:] * np.arange(1, c.size))[::-1] / c[-1]
    for _ in range(3):
        pv = np.polyval(rev, approx)
        dv = np.polyval(drev, approx)
        step = np.where(np.abs(dv) > 1e-300, pv / dv, 0.0)
        step = np.where(np.abs(step) < 0.1, step, 0.0)
        approx = approx - step

    found = _cluster(approx, cluster_tol, rev)
    if zero_mult:
        found.append((0.0 + 0.0j, zero_mult))

    simple = [z for z, m in found if m == 1]
    residual = 0.0
    if simple:
        # normalize by the natural size of p near each root so roots of
        # large modulus are not penalized
        vals = np.abs(p.eval_many(simple))
        sizes = scale * np.maximum(1.0, np.abs(simple)) ** d
        residual = float(np.max(vals / sizes))
        if not residual <= math.sqrt(tol):  # a NaN residual fails too
            raise NoConvergence(
                f"residual {residual:.3e} above tolerance after eigensolve and polish")
    found.sort(key=lambda rm: (round(abs(rm[0]), 12), np.angle(rm[0])))
    return RootSet(tuple(found), residual, circle_tol)


def _on_circle_args(rs):
    """Arguments (with multiplicity) of an all-on-circle root set, snapped to T."""
    if not rs.all_on_circle():
        raise NotOnCircle("root set has zeros off the unit circle")
    args = []
    for z, m in rs.roots:
        args.extend([math.atan2(z.imag, z.real)] * m)
    return sorted(args)


def arg_separation(rs):
    """Minimum circular gap between consecutive root arguments.

    A multiplicity-m root counts as m coincident arguments, so any m >= 2
    gives separation 0.
    """
    args = _on_circle_args(rs)
    if any(m >= 2 for _, m in rs.roots):
        return 0.0
    if len(args) == 1:
        return 2.0 * math.pi
    gaps = [b - a for a, b in zip(args, args[1:])]
    gaps.append(2.0 * math.pi + args[0] - args[-1])
    return float(min(gaps))


def interspersed(p_roots, q_roots, strict=False, ang_tol=1e-9):
    """Do the unimodular zeros of P and Q alternate on the circle?

    Coincident zeros (one from each side, within ang_tol of argument) are
    admitted in the non-strict variant; strict additionally requires the
    zero sets to be disjoint.  Multiple zeros on either side break
    alternation and give False.
    """
    pa = _on_circle_args(p_roots)
    qa = _on_circle_args(q_roots)
    if len(pa) != len(qa):
        return False

    def circ_close(a, b):
        d = abs(a - b) % (2.0 * math.pi)
        return min(d, 2.0 * math.pi - d) <= ang_tol

    shared = any(circ_close(a, b) for a in pa for b in qa)
    if strict and shared:
        return False
    entries = [(a, 0) for a in pa] + [(a, 1) for a in qa]
    entries.sort()
    # rotate shared pairs into P,Q order so coincidence reads as alternation
    owners = []
    i = 0
    while i < len(entries):
        if (
            i + 1 < len(entries)
            and circ_close(entries[i][0], entries[i + 1][0])
            and entries[i][1] != entries[i + 1][1]
        ):
            owners.extend([0, 1])
            i += 2
        else:
            owners.append(entries[i][1])
            i += 1
    k = len(owners)
    return all(owners[i] != owners[(i + 1) % k] for i in range(k))


def _circle_sign(A, B):
    """Certified sign of s(phi) = Im(A conj B)(e^{i phi}) on the unit circle.

    A and B (ascending coefficients of one length d + 1) are evaluated on
    M = max(64, 32(d + 1)) nodes, never through the product coefficients of
    s, whose rounding swamps s where A and B nearly share a zero by the
    circle.  g = s / (|a|^2 + |b|^2) is oriented by sigma, the sign of its
    larger extreme, and each node minimum of sigma*g is refined on a local
    grid zoomed six times by 16, to 6e-8 of the node spacing.  The rounding
    of s is bounded by |a| e_B + |b| e_A + e_A e_B, e_X = 4(d+1) eps sum|X_k|.
    Returns (margin, indeterminate, z): the least sigma*g and its circle
    point z; indeterminate unless every minimum clears its bound, or one
    falls below minus its bound while a node clears it.
    """
    k = np.arange(len(A))
    AB = np.stack([A, B], axis=1)
    eA, eB = 4.0 * len(A) * np.finfo(float).eps * np.sum(np.abs(AB), axis=0)

    def sign(x):
        ab = np.exp(1j * np.multiply.outer(x, k)) @ AB
        a, b = ab[..., 0], ab[..., 1]
        s = np.imag(a * np.conj(b))
        den = np.abs(a) ** 2 + np.abs(b) ** 2
        g = np.divide(s, den, out=np.zeros_like(s), where=den > 0.0)
        return s, g, np.abs(a) * eB + np.abs(b) * eA + eA * eB

    m = max(64, 32 * len(A))
    x = 2.0 * np.pi * np.arange(m) / m
    s, g, err = sign(x)
    sigma = 1.0 if g.max() >= -g.min() else -1.0
    clears = bool(np.any(sigma * s > err))
    t = sigma * g
    x = x[np.union1d(np.flatnonzero((t < np.roll(t, 1)) & (t <= np.roll(t, -1))),
                     [np.argmin(t)])]
    w = 2.0 * np.pi / m
    for _ in range(6):
        pts = x[:, None] + w * np.linspace(-1.0, 1.0, 33)
        x = pts[np.arange(x.size), np.argmin(sigma * sign(pts)[1], axis=1)]
        w /= 16.0
    s, g, err = sign(x)
    crossed = clears and bool(np.any(sigma * s < -err))
    i = int(np.argmin(sigma * g))
    return (float(sigma * g[i]), not crossed and not bool(np.all(sigma * s > err)),
            complex(np.exp(1j * x[i])))
