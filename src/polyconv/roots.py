"""Root finding and unit-circle classification.

Eigenvalues of the companion matrix (Edelman & Murakami 1995), a short
Newton polish, and multiplicities decided by overlapping inclusion disks
(Neumaier 2003), whose radii `_inclusion_radii` computes for the first
route too.  Deterministic.  `all_zeros_within`
certifies "every zero inside a radius" without root finding, by the
Schur-Cohn recursion with a running rounding bound; the routes use it
before find_roots wherever they need that fact alone.  `_circle_sign`
certifies the sign of Im(A conj B) on the circle, which decides without
root finding where a pencil of polynomials takes zeros on the circle, and
the half-plane criterion of classes: it samples on a node grid in numpy,
then refines each node minimum by scalar Newton steps that stop once a
step cannot beat the rounding of the sign.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, NotOnCircle

CIRCLE_TOL = 1e-7
#: find_roots raises NoConvergence at a residual above sqrt(RESIDUAL_TOL)
RESIDUAL_TOL = 1e-13
#: argument distance at which interspersed() reads two zeros as shared
ANG_TOL = 1e-9
#: most Newton steps per refinement loop (here and in the first route);
#: bisection of one node spacing either side converges well within them
NEWTON_STEPS = 60

#: all_zeros_within declines below this coefficient scale, where scaling
#: by a power of two would overflow
TINY = 2.0 ** -900

INSIDE = "INSIDE"
ON = "ON"
OUTSIDE = "OUTSIDE"


@dataclass(frozen=True)
class RootSet:
    """Roots with multiplicities, and the one owner of their circle tags."""

    roots: tuple  # of (location: complex, multiplicity: int)
    residual: float

    def tags(self):
        out = []
        for z, m in self.roots:
            r = abs(z)
            if abs(r - 1.0) <= CIRCLE_TOL:
                out.append(ON)
            elif r < 1.0:
                out.append(INSIDE)
            else:
                out.append(OUTSIDE)
        return out

    def all_on_circle(self):
        return all(t == ON for t in self.tags())

    def all_inside(self):
        return all(t == INSIDE for t in self.tags())

    def all_in_closed_disk(self):
        return all(t != OUTSIDE for t in self.tags())

    def outermost(self):
        """The zero of largest modulus, the first of equal ones."""
        return max((z for z, _ in self.roots), key=abs)

    def to_csv(self):
        lines = []
        for (z, m), t in zip(self.roots, self.tags()):
            lines.append(f"{z.real:.17g},{z.imag:.17g},{m},{t}")
        return "\n".join(lines)


def all_zeros_within(p, r):
    """True when the Schur-Cohn recursion certifies that every zero of p
    (exact degree >= 1) has modulus < r; False means "not certified".

    The recursion (Schur 1917, Cohn 1922) runs on a_k = c_k r^k, in plain
    Python complex arithmetic: with a_0 and a_m the end coefficients of p_m,
    p_{m-1} = (conj(a_m) p_m - a_0 p_m^*) / z, p_m^* = z^m conj(p_m(1/conj z)).
    When |a_0| < |a_m|, p_m has every zero in the open unit disk exactly
    when p_{m-1} has; when |a_0| >= |a_m| the product of its zeros has
    modulus >= 1.  Each coefficient carries a bound e_k on its distance
    from the exact recursion on the exact c_k r^k.  It starts at
    (k + 2)(u |a_k| + v), u = 2^-53 and v = 2^-1074 the least subnormal,
    for the rounding of r^k and of the product, and each step bounds the
    new coefficient conj(a_m) a_{i+1} - a_0 conj(a_{m-1-i}) by
        |a_m| e_{i+1} + e_m |a_{i+1}| + e_m e_{i+1}
        + |a_0| e_{m-1-i} + e_0 |a_{m-1-i}| + e_0 e_{m-1-i}
        + 8 u (|a_m| |a_{i+1}| + |a_0| |a_{m-1-i}|) + 16 v,
    the last two terms for the rounding and underflow of the complex
    products and their difference (3.3 u suffices for the rounding), the
    whole raised by 32 u for its own rounding.  Each step is scaled by a
    power of two, which rounds nothing.  The answer is True only when
    |a_0| + e_0 < |a_m| - e_m at every step, the two moduli widened by 4 u
    for their rounding and the test's; any other outcome (a step within
    its bound, coefficients below TINY, a step past the float range, a
    constant p) is False.

    So a True answer places every zero of p strictly below r.  Called with
    r = 1 - 2 CIRCLE_TOL, find_roots could tag a zero ON or OUTSIDE only by
    misplacing it by more than CIRCLE_TOL; called with r = 1, tag one
    OUTSIDE only by misplacing it by more than CIRCLE_TOL past the circle.
    """
    d = p.exact_degree
    if d < 1:
        return False
    c = p.coeffs[: d + 1].tolist()
    big = max(map(abs, c))
    if not big > TINY:
        return False
    u, v = 2.0 ** -53, 2.0 ** -1074
    grow = 1.0 + 32.0 * u
    s, pw, a, e = 2.0 ** -math.frexp(big)[1], 1.0, [], []
    for k, ck in enumerate(c):
        ak = ck * s * pw
        a.append(ak)
        e.append((k + 2) * (u * abs(ak) + v))
        pw *= r
    for m in range(d, 0, -1):
        a0, am, e0, em = a[0], a[m], e[0], e[m]
        r0, rm = abs(a0), abs(am)
        if not r0 * (1.0 + 4.0 * u) + e0 < rm * (1.0 - 4.0 * u) - em:
            return False
        if m == 1:
            return True
        cm, b, f = am.conjugate(), [], []
        for i in range(m):
            x, y, ex, ey = a[i + 1], a[m - 1 - i].conjugate(), e[i + 1], e[m - 1 - i]
            rx, ry = abs(x), abs(y)
            b.append(cm * x - a0 * y)
            f.append((rm * ex + em * rx + em * ex + r0 * ey + e0 * ry + e0 * ey
                      + 8.0 * u * (rm * rx + r0 * ry) + 16.0 * v) * grow)
        big = max(map(abs, b))
        if not TINY < big < math.inf:
            return False
        s = 2.0 ** -math.frexp(big)[1]
        a, e = [x * s for x in b], [x * s for x in f]


def _unit_scaled(c):
    """The complex array c times the one power of two that brings its largest
    real or imaginary part into [1/2, 1), so its largest modulus into
    [1/2, sqrt 2).  That rounds nothing short of subnormal results, so what
    is computed from it does not depend on a common scale of c, and no scale
    of c makes it overflow.  The exponent is read from the parts, which are
    finite where a modulus may overflow; the product is by ldexp, since the
    factor itself overflows for subnormal c.  An all-zero c is returned as
    it is."""
    c = np.ascontiguousarray(c, dtype=complex)
    parts = c.view(float)
    big = float(np.max(np.abs(parts)))
    if not big > 0.0:
        return c
    return np.ldexp(parts, -math.frexp(big)[1]).view(complex)


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
    comp.reshape(-1)[d::d + 1] = 1.0  # the subdiagonal
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


def _inclusion_radii(c, z, m):
    """A-posteriori inclusion radii of the approximate zeros z, with
    multiplicities m (an array, or 1 for all), of the polynomial of
    ascending coefficients c (Neumaier 2003):
    r_k = (d (|p(z_k)| + e_k) / |c_d prod_{j != k} (z_k - z_j)^{m_j}|)^{1/m_k},
    e_k = 4 d eps sum_j |c_j| |z_k|^j the rounding of p(z_k).  A connected
    group of disks of total multiplicity k holds exactly k zeros of p.  A
    radius is inf or NaN where two points coincide.  c is _unit_scaled
    first, so no scale of c makes the radii overflow."""
    return _radii(_unit_scaled(c), z, m, _distances(z))


def _distances(z):
    """|z_i - z_j|, with ones on the diagonal."""
    dz = np.abs(np.subtract.outer(z, z))
    np.fill_diagonal(dz, 1.0)
    return dz


def _radii(c, z, m, dz):
    """_inclusion_radii from the distances dz = _distances(z)."""
    d, eps = c.size - 1, np.finfo(float).eps
    zk = np.power.outer(z, np.arange(d + 1))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return (d * (np.abs(zk @ c) + 4.0 * d * eps * (np.abs(zk) @ np.abs(c)))
                / (abs(c[d]) * np.prod(dz ** m, axis=1))) ** (1.0 / m)


def _refine_multiple(g, z, radius):
    """Newton on g, the (m-1)-th derivative of p, where an m-fold root is
    simple, while the steps shrink; z unless the iterate stays within radius."""
    dg = np.polyder(g)
    z0, last = z, math.inf
    for _ in range(20):
        dgv = np.polyval(dg, z0)
        if abs(dgv) < 1e-300:
            break
        step = np.polyval(g, z0) / dgv
        if abs(step) > 0.1 or abs(step) >= last:
            break
        last = abs(step)
        z0 = z0 - step
        if abs(step) < 1e-15 * max(1.0, abs(z0)):
            break
    return z0 if abs(z0 - z) < radius else z


def _cluster(c, rev, eig, points):
    """Roots with multiplicities from the polished points.

    c are the ascending coefficients (nonzero constant term), rev the
    descending monic ones, and eig the eigenvalues the points were polished
    from.  Two points are one root when their inclusion disks (m = 1)
    overlap both at the eigenvalues and at the polished points, in the plane
    that _companion_roots solved in (1/z and the reversed coefficients when
    it flipped).  A connected group of m points is an m-fold root at the
    eigenvalues' centroid, refined by Newton on the (m-1)-th derivative
    within the eigenvalues' spread about it; every other point is simple.
    """
    flip = abs(c[0]) > abs(c[-1])
    cs = c[::-1] if flip else c
    adj = ~np.eye(points.size, dtype=bool)
    for x in (eig, points):
        w = 1.0 / x if flip else x
        dz = _distances(w)
        r = _radii(cs, w, 1, dz)
        # a NaN radius (coincident points) reads as an overlap
        adj &= ~(dz > np.add.outer(r, r))
        if not adj.any():
            return [(complex(z), 1) for z in points]
    found = []
    for g in _components(adj):
        if g.size == 1:
            found.append((complex(points[g[0]]), 1))
            continue
        centroid = complex(np.mean(eig[g]))
        spread = float(np.max(np.abs(eig[g] - centroid)))
        found.append((_refine_multiple(np.polyder(rev, g.size - 1), centroid, spread), g.size))
    return found


def find_roots(p):
    """All roots of p with multiplicities, classified against the unit circle.

    Distinct zeros come out simple once their inclusion disks separate at
    the eigenvalues or at the polished points; zeros whose disks overlap
    at both form one multiple root (see _cluster).  It works on p's
    coefficients _unit_scaled, so the roots do not depend on a common scale
    of p.  Raises NoConvergence when the normalized residual at the simple
    roots is above sqrt(RESIDUAL_TOL) after eigensolve and polish.  The
    RootSet is kept on p, which is immutable, and a later call on p returns
    it; a call that raises keeps nothing.
    """
    if p._roots is not None:
        return p._roots
    d = p.exact_degree
    if d < 1:
        raise ValueError("need a nonzero polynomial of exact degree >= 1")
    full = _unit_scaled(p.coeffs[: d + 1])
    # exact zeros at the origin come from vanishing low-order coefficients
    scale = float(np.max(np.abs(full)))
    k0 = 0
    while abs(full[k0]) == 0.0:
        k0 += 1
    zero_mult = k0
    c = full[k0:]
    eig = _companion_roots(c) if c.size > 1 else np.array([], dtype=complex)
    approx = eig

    # Newton polish (helps simple roots; harmless on clusters).  p and p'
    # come from one Horner pass, the steps of np.polyval (y = y * z + c from
    # zeros) on [z, z] against rows [rev; 0, drev] with every coefficient
    # repeated once per root: flat arrays keep each numpy call cheap, and
    # the leading 0 keeps p' exact
    rev = c[::-1] / c[-1]
    drev = (c[1:] * np.arange(1, c.size))[::-1] / c[-1]
    rows = np.repeat(np.stack([rev, np.concatenate([[0.0], drev])], axis=1),
                     approx.size, axis=1)
    for _ in range(3):
        z = np.concatenate([approx, approx])
        y = np.zeros(z.size, dtype=complex)
        for col in rows:
            y *= z
            y += col
        pv, dv = y[: approx.size], y[approx.size:]
        step = np.where(np.abs(dv) > 1e-300, pv / dv, 0.0)
        step = np.where(np.abs(step) < 0.1, step, 0.0)
        approx = approx - step

    found = _cluster(c, rev, eig, approx)
    if zero_mult:
        found.append((0.0 + 0.0j, zero_mult))

    simple = np.array([z for z, m in found if m == 1], dtype=complex)
    residual = 0.0
    if simple.size:
        # normalize by the natural size of p near each root so roots of
        # large modulus are not penalized
        vals = np.abs(np.polyval(full[::-1], simple))
        sizes = scale * np.maximum(1.0, np.abs(simple)) ** d
        residual = float(np.max(vals / sizes))
        if not residual <= math.sqrt(RESIDUAL_TOL):  # a NaN residual fails too
            raise NoConvergence(
                f"residual {residual:.3e} above tolerance after eigensolve and polish")
    found.sort(key=lambda rm: (round(abs(rm[0]), 12), math.atan2(rm[0].imag, rm[0].real)))
    p._roots = RootSet(tuple(found), residual)
    return p._roots


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


def interspersed(p_roots, q_roots, strict=False):
    """Do the unimodular zeros of P and Q alternate on the circle?

    Coincident zeros (one from each side, within ANG_TOL of argument) are
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
        return min(d, 2.0 * math.pi - d) <= ANG_TOL

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


@functools.lru_cache(maxsize=32)
def _circle_nodes(size):
    """The M = max(64, 32 size) nodes of _circle_sign and the matrix
    exp(i x_j k), k < size, that evaluates a polynomial there (read-only)."""
    m = max(64, 32 * size)
    x = 2.0 * np.pi * np.arange(m) / m
    e = np.exp(1j * np.multiply.outer(x, np.arange(size)))
    x.flags.writeable = False
    e.flags.writeable = False
    return x, e


def _circle_sign(A, B):
    """Certified sign of s(phi) = Im(A conj B)(e^{i phi}) on the unit circle,
    which decides the third and second routes and the half-plane criterion:
    whether s >= 0 everywhere.  Each caller orients its pair so that
    Im(A/B) > 0 at infinity (the disk form of Hermite-Biehler).

    A and B (ascending coefficients of one length d + 1) are evaluated on
    M = max(64, 32(d + 1)) nodes, never through the product coefficients of
    s, whose rounding swamps s where A and B nearly share a zero by the
    circle.  Each node minimum of g = s / (|a|^2 + |b|^2) is then refined on
    its own, in scalar complex arithmetic, by Newton's method on
    g' = (s'q - s q')/q^2, q = |a|^2 + |b|^2, from the vertex of the parabola
    through the node and its two neighbours, bracketed to one node spacing
    either side and guarded by bisection.  A and B and their first two
    derivatives come from one Horner pass per step.  The steps stop at a step
    of 1e-13, or once the step cannot lower g by more than its rounding,
    |g' dx| q <= |a| e_B + |b| e_A + e_A e_B, the bound on the rounding of s
    with e_X = 4(d+1) eps sum|X_k|; a refined value above its node's keeps
    the node.  Returns (margin, indeterminate, z): the least g, the signed
    minimum in [-1/2, 1/2], and its circle point z; indeterminate when no
    minimum falls below minus its bound and not every one clears it.
    """
    AB = _unit_scaled(np.stack([A, B], axis=1))
    eA, eB = (4.0 * len(A) * np.finfo(float).eps * np.sum(np.abs(AB), axis=0)).tolist()
    x, nodes = _circle_nodes(len(A))
    a, b = (nodes @ AB).T
    ra, rb = np.abs(a), np.abs(b)
    s0 = np.imag(a * np.conj(b))
    q = ra ** 2 + rb ** 2
    t = np.divide(s0, q, out=np.zeros_like(s0), where=q > 0.0)  # g at the nodes
    err0 = ra * eB + rb * eA + eA * eB
    # the node minima (a tie counts at its first node) and the least node
    tt = np.concatenate([t[-1:], t, t[:1]])
    low = (t < tt[:-2]) & (t <= tt[2:])
    low[np.argmin(t)] = True
    i = np.flatnonzero(low)
    w = float(x[1])
    tl, t0, tr = tt[i], t[i], tt[i + 2]
    curv = tl - 2.0 * t0 + tr
    start = x[i] + np.divide(0.5 * w * (tl - tr), curv, out=np.zeros_like(curv),
                             where=curv > 0.0)
    rows = AB[::-1].tolist()  # [A_k, B_k] from the top coefficient down
    least, crossed, cleared = math.inf, False, True
    for xs, xn, tn, sn, en in zip(start.tolist(), x[i].tolist(), t0.tolist(),
                                  s0[i].tolist(), err0[i].tolist()):
        lo, hi = xn - w, xn + w
        for _ in range(NEWTON_STEPS):
            z = complex(math.cos(xs), math.sin(xs))
            # A, B, their z-derivatives and halved second z-derivatives at z
            a = da = dda = b = db = ddb = 0j
            for ca, cb in rows:
                dda, da, a = dda * z + da, da * z + a, a * z + ca
                ddb, db, b = ddb * z + db, db * z + b, b * z + cb
            # derivatives in phi: a' = i z A', a'' = -z A' - z^2 A''
            da, dda = 1j * z * da, -z * (da + 2.0 * z * dda)
            db, ddb = 1j * z * db, -z * (db + 2.0 * z * ddb)
            ac, bc, dbc = a.conjugate(), b.conjugate(), db.conjugate()
            s = (a * bc).imag
            ra, rb = abs(a), abs(b)
            q = ra * ra + rb * rb
            err = ra * eB + rb * eA + eA * eB
            dg = nxt = math.nan  # q^2 = 0: bisect, and no rounding stop
            if q * q > 0.0:
                ds = (da * bc + a * dbc).imag
                dds = (dda * bc + 2.0 * da * dbc + a * ddb.conjugate()).imag
                dq = 2.0 * (da * ac + db * bc).real
                ddq = 2.0 * (dda * ac + ddb * bc + da * da.conjugate() + db * dbc).real
                dg = (ds * q - s * dq) / (q * q)
                ddg = (dds * q - s * ddq) / (q * q) - 2.0 * dq * dg / q
                if dg < 0.0:
                    lo = xs
                elif dg > 0.0:
                    hi = xs
                if ddg > 0.0:
                    nxt = xs - dg / ddg
            # inclusive: a converged iterate may sit on an end of its bracket
            if not lo <= nxt <= hi:
                nxt = 0.5 * (lo + hi)
            if abs(nxt - xs) <= 1e-13 or abs(dg * (nxt - xs)) * q <= err:
                break
            xs = nxt
        g = s / q if q > 0.0 else 0.0
        # never report a minimum above the node it started from
        if g > tn:
            s, g, err, z = sn, tn, en, complex(math.cos(xn), math.sin(xn))
        crossed = crossed or s < -err
        cleared = cleared and s > err
        if not g >= least:  # sets `at` on the first minimum, NaN or not
            least, at = g, z
    return least, not crossed and not cleared, at
