"""Weighted convolutions on the unit-circle ray of q-binomials.

The coefficient table C_k^(n)(lambda) is computed by the real sine-ratio
product (cancellation free, positive on the open interval) rather than via
complex Gaussian binomials.  Tables are cached per (n, lambda).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import OutOfRange
from .poly import LambdaParam, Polynomial, _expand


@lru_cache(maxsize=4096)
def _table(n, lam):
    """C_0..C_n at (n, lambda), validated by LambdaParam; a raise is not
    cached, so a cache hit needs no check."""
    lp = LambdaParam(n, lam)
    # a subnormal half-step loses the sine ratios (at 5e-324 it is 0.0 and
    # the row turns to inf/nan); the lambda -> 0 limit is exact there
    if lam / 2.0 < sys.float_info.min:
        return np.array([float(math.comb(n, k)) for k in range(n + 1)])
    if lp.is_upper_endpoint:
        vals = np.zeros(n + 1)
        vals[0] = vals[n] = 1.0
        return vals
    vals = np.empty(n + 1)
    vals[0] = 1.0
    # C_k = C_{k-1} * sin((n-k+1) lam/2) / sin(k lam/2), accumulated in order
    for k in range(1, n + 1):
        vals[k] = vals[k - 1] * math.sin((n - k + 1) * lam / 2.0) / math.sin(k * lam / 2.0)
    return vals


def _row(f, lp):
    """The weights C_0..C_n at lp for f of nominal degree n.  The upper
    endpoint is rejected: the interior weights vanish there."""
    if f.nominal_degree != lp.n:
        raise OutOfRange(f"lambda parameter is for n={lp.n}, polynomial has n={f.nominal_degree}")
    if lp.is_upper_endpoint:
        raise OutOfRange(f"lambda={lp.lam} is the upper endpoint 2*pi/{lp.n}, "
                         "where the weights vanish")
    return _table(lp.n, lp.lam)


def q_coefficient(n, k, lam):
    """C_k^(n)(lambda): sine-ratio product; binomial at lambda=0; 1/0 table
    at the upper endpoint 2*pi/n."""
    if not 0 <= k <= n:
        raise OutOfRange(f"k={k} outside 0..{n}")
    return float(_table(n, lam)[k])


@dataclass(frozen=True)
class QCoefficientTable:
    """The full row C_0..C_n at a given (n, lambda)."""

    n: int
    lam: float
    values: tuple

    @classmethod
    def build(cls, n, lam):
        return cls(n, lam, tuple(_table(n, lam)))


def q_extremal(n, lam):
    """Q_n(lambda; z) = prod_{j=1}^n (1 + e^{i(2j-n-1) lambda/2} z).

    The expanded coefficients are real and equal to C_k^(n)(lambda), so the
    sine-ratio row is returned without expanding the product.
    """
    return Polynomial(_table(n, lam).astype(complex), n)


def gauss_product(n, q):
    """R_n(q; z) = prod_{j=1}^n (1 + q^{j-1} z), expanded."""
    return Polynomial(_expand([complex(q) ** j for j in range(n)]), n)


def grace_szego(f, g):
    """Binomial-weighted coefficientwise product: coeff_k(f) coeff_k(g) / C(n,k)."""
    f._check_degree(g)
    n = f.nominal_degree
    w = np.array([float(math.comb(n, k)) for k in range(n + 1)])
    return Polynomial(f.coeffs * g.coeffs / w, n)


def lambda_convolve(f, g, lp: LambdaParam):
    """Suffridge-weighted convolution: coeff_k(f) coeff_k(g) / C_k^(n)(lambda).

    The upper endpoint lambda = 2*pi/n is rejected: the interior weights
    vanish there.
    """
    f._check_degree(g)
    return Polynomial(f.coeffs * g.coeffs / _row(f, lp), lp.n)


def delta(f, lp: LambdaParam):
    """The q-difference operator of step lambda, in coefficient form.

    coeff'_k = coeff_{k+1} * C_k^(n-1)(lambda) / C_{k+1}^(n)(lambda) for
    lambda > 0, and F'/n at lambda = 0.  Result has nominal degree n-1.
    """
    n = lp.n
    big = _row(f, lp)
    if lp.lam == 0.0:
        return Polynomial(f.derivative().coeffs / n, n - 1)
    small = _table(n - 1, lp.lam) if n > 1 else np.array([1.0])
    return Polynomial(f.coeffs[1:] * small / big[1:], n - 1)


def pre_lift(f, lp: LambdaParam):
    """Hadamard product with Q_n(lambda; .): the pre-coefficient class lift."""
    return Polynomial(f.coeffs * _row(f, lp), lp.n)
