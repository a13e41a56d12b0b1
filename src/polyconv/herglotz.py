"""Constructive convex-combination approximation of positive-real-part
functions by Möbius kernels.

From the Taylor coefficients of f (normalized f(0) = 1) the truncation
S_k(rz) is folded into the self-inversive polynomial
P(z) = S_k(rz) + z^k (S_k(rz))^{*k} of degree m = 2k; the values of P at the
m-th roots of unity, divided by 2m, are the weights of a convex combination
of kernels (1 + w z)/(1 - w z) that approximates f on compact subsets of the
disk as k grows and r tends to 1.

One inverse FFT of S_k(rz) on a 4m-point circle grid gives both the
positivity check and the weights; the nodes depend on m alone and are made
once per m.  An approximant validates its tuples as arrays once, when it is
made, and evaluation reuses those arrays.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .classes import half_plane_criterion
from .errors import HypothesisViolated, OutOfDomain, OutOfRange, PositivityLost
from .poly import LambdaParam, Polynomial
from .qconv import _require_degree

#: radius of disk_limit_check's inner circle
LIMIT_RADIUS = 1.0 - 1.0 / 512


#: deterministic default schedule: k = 2^j paired with r = 1 - 2^(-j/2)
def default_schedule(j):
    return 2 ** j, 1.0 - 2.0 ** (-j / 2.0)


@functools.lru_cache(maxsize=32)
def _kernel_nodes(m):
    """The nodes conj(e^{2 pi i j / m}), j = 1..m, as a tuple of complex."""
    return tuple(np.conj(np.exp(2j * np.pi * np.arange(1, m + 1) / m)).tolist())


@dataclass(frozen=True)
class HerglotzApproximant:
    """Convex combination sum_j weights[j] (1 + nodes[j] z)/(1 - nodes[j] z).

    The tuples are read into read-only arrays once, on construction, and
    validated there; evaluate_approximant_many uses those arrays.
    """

    m: int
    weights: tuple  # of positive reals summing to 1
    nodes: tuple  # the m-th roots of unity, in index order
    _weight_array: np.ndarray = field(init=False, repr=False, compare=False)
    _node_array: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.m < 2 or self.m % 2 != 0:
            raise OutOfRange(f"m={self.m} must be even and >= 2")
        w = np.array(self.weights, dtype=float)
        x = np.array(self.nodes, dtype=complex)
        if w.shape != (self.m,) or x.shape != (self.m,):
            raise OutOfRange(f"m={self.m} needs {self.m} weights and {self.m} "
                             f"nodes, got {len(self.weights)} and {len(self.nodes)}")
        if not w.min() > 0.0:  # NaN fails here, +inf at the sum
            raise PositivityLost("all weights must be finite and strictly positive")
        total = float(w.sum())
        if abs(total - 1.0) > 1e-10:
            raise PositivityLost(f"weights sum to {total!r}, not 1")
        w.flags.writeable = False
        x.flags.writeable = False
        object.__setattr__(self, "_weight_array", w)
        object.__setattr__(self, "_node_array", x)


def _truncation(coeffs, k, r):
    """The coefficients of S_k(rz), from the first k+1 of coeffs, all finite."""
    if k < 1:
        raise OutOfRange(f"k must be >= 1, got {k}")
    c = np.asarray(list(coeffs), dtype=complex)
    if c.size < k + 1:
        raise OutOfRange(f"need at least {k + 1} coefficients, got {c.size}")
    c = c[: k + 1]
    finite = np.isfinite(c)
    if not finite.all():
        j = int(np.argmin(finite))
        raise OutOfRange(f"non-finite coefficient {c[j]} of z^{j}")
    return c * r ** np.arange(k + 1)


def build_approximant(coeffs, k, r):
    """Weights and nodes from the degree-k truncation evaluated at radius r.

    Requires at least k+1 Taylor coefficients, the first k+1 finite, with
    coeffs[0] = 1 and Re S_k(rz) > 0 on the circle (checked on a 4m-point
    grid, taken by one inverse FFT).  The weight sum equals 1 by the
    partial-fraction identity; it is asserted, never rescaled, so a failure
    flags a genuine numerical breakdown.
    """
    if not 0.0 < r < 1.0:
        raise OutOfRange(f"r={r} outside (0, 1)")
    s = _truncation(coeffs, k, r)  # S_k(r z); s[0] = coeffs[0] exactly
    if abs(s[0] - 1.0) > 1e-12:
        raise HypothesisViolated("normalization f(0) = 1 required")
    m = 2 * k

    v = np.fft.ifft(s, 4 * m).real * (4 * m)  # Re S_k(rz) at e^{2 pi i l / 4m}
    worst = float(v.min())
    if not worst > 0.0:
        raise PositivityLost(
            f"Re S_k(rz) reaches {worst:.3e} on the circle; raise k or lower r")

    # z^k S^{*k} at an m-th root of unity w is w^m conj(S(w)) = conj(S(w)),
    # so P(w) = 2 Re S(w) there.  The residue of P(z)/(1-z^m) at the pole w
    # carries the kernel 1/(1 - conj(w) z): each weight P(w)/(2m) pairs with
    # the conjugate node, which matters whenever f has non-real coefficients.
    # w = e^{2 pi i j / m}, j = 1..m, is grid point 4j mod 4m
    weights = np.concatenate([v[4::4], v[:1]]) / m
    return HerglotzApproximant(m, tuple(weights.tolist()), _kernel_nodes(m))


def folded_polynomial(coeffs, k, r):
    """The self-inversive P(z) = S_k(rz) + z^k (S_k(rz))^{*k} itself."""
    S = Polynomial(_truncation(coeffs, k, r), k)
    return Polynomial(np.concatenate([S.coeffs, np.zeros(k)]), 2 * k) + \
        Polynomial(np.concatenate([np.zeros(k), S.n_inverse().coeffs]), 2 * k)


def evaluate_approximant_many(h, zs):
    """Values of the combination at every point of zs (flattened), each in
    the open disk."""
    zs = np.asarray(zs, dtype=complex).ravel()
    if not (np.abs(zs) < 1.0).all():
        raise OutOfDomain("evaluation points must lie in the open unit disk")
    t = np.multiply.outer(zs, h._node_array)
    return np.sum(h._weight_array * (1.0 + t) / (1.0 - t), axis=1)


def disk_limit_check(p, lp: LambdaParam):
    """Half-plane check for the n-inverse on an inner circle.

    For p of nominal degree n, leading coefficient 1 and |a_0| < 1, decides
    Re((p^{*n}(z) - conj(a_0) z^n)/(1 - conj(a_0) z^n)) > 1/2 on the circle
    of radius rho = LIMIT_RADIUS.  As p^{*n}(rho w) = rho^n w^n conj(p(w/rho))
    for |w| = 1, that quotient at rho w is the conjugate of
    half_plane_criterion's for p(z/rho) at w, with the same real part.
    """
    _require_degree(p, lp)
    if abs(p.coeffs[lp.n] - 1.0) > 1e-10:
        raise HypothesisViolated("leading coefficient must be 1")
    if abs(p.coeffs[0]) >= 1.0:
        raise HypothesisViolated(f"need |a_0| < 1, got {abs(p.coeffs[0])}")
    return half_plane_criterion(p.scale_argument(1.0 / LIMIT_RADIUS))
