"""Dense complex polynomials on an explicit ambient degree.

A Polynomial carries its coefficients in ascending powers together with a
nominal degree n.  The nominal degree is the "n" of the ambient space of
polynomials of degree <= n and may exceed the exact degree; the n-inverse
and every class predicate depend on it, not on the exact degree.
"""

from __future__ import annotations

import cmath
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DegreeMismatch, NotSymmetric, OutOfRange

#: default relative coefficient tolerance (relative to max coefficient modulus)
COEFF_TOL = 1e-10
#: leading coefficients trimmed() drops, relative to the largest modulus
TRIM_TOL = 1e-13


class Polynomial:
    """Immutable dense polynomial sum_k coeffs[k] z^k with len(coeffs) == n+1,
    every coefficient finite (ValueError otherwise).

    Being immutable, it keeps what it derives from its coefficients: its
    exact degree, computed on first read, and its roots.RootSet, which
    roots.find_roots stores on its first successful call."""

    __slots__ = ("_coeffs", "_n", "_degree", "_roots")

    def __init__(self, coeffs, nominal_degree=None):
        coeffs = list(coeffs)
        c = np.asarray(coeffs, dtype=complex)
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coeffs must be a non-empty 1-d sequence")
        if nominal_degree is None:
            nominal_degree = c.size - 1
        if nominal_degree < 0 or c.size != nominal_degree + 1:
            raise ValueError(
                f"need {nominal_degree + 1} coefficients for nominal degree "
                f"{nominal_degree}, got {c.size}"
            )
        # on the list, since np.isfinite costs several times more at these sizes
        if not all(map(cmath.isfinite, coeffs)):
            k = int(np.flatnonzero(~np.isfinite(c))[0])
            raise ValueError(f"non-finite coefficient {c[k]} of z^{k}")
        c.flags.writeable = False
        self._coeffs = c
        self._n = int(nominal_degree)
        self._degree = self._roots = None

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_roots(cls, roots, leading=1.0):
        """leading * prod (z - r) expanded to ascending coefficients.

        z - r is 1 - r z with its coefficients reversed, so this is the
        reversed expansion of leading * prod (1 - r z)."""
        return cls(_expand([-complex(r) for r in roots], leading)[::-1])

    @classmethod
    def zero(cls, nominal_degree):
        return cls(np.zeros(nominal_degree + 1, dtype=complex), nominal_degree)

    # -- basic views ----------------------------------------------------------

    @property
    def coeffs(self):
        return self._coeffs

    @property
    def nominal_degree(self):
        return self._n

    @property
    def exact_degree(self):
        """Largest k with coeffs[k] != 0, or -inf for the zero polynomial."""
        if self._degree is None:
            nz = np.flatnonzero(self._coeffs)
            self._degree = int(nz[-1]) if nz.size else -math.inf
        return self._degree

    @property
    def is_zero(self):
        return self.exact_degree == -math.inf

    def norm(self):
        """Max coefficient modulus (the scale for relative comparisons)."""
        return float(np.max(np.abs(self._coeffs)))

    def __repr__(self):
        return f"Polynomial({list(self._coeffs)!r}, nominal_degree={self._n})"

    # -- arithmetic -----------------------------------------------------------

    def __call__(self, z):
        """Horner evaluation at z."""
        acc = 0.0 + 0.0j
        for c in self._coeffs[::-1]:
            acc = acc * z + c
        return acc

    def eval_many(self, zs):
        return np.polyval(self._coeffs[::-1], np.asarray(zs, dtype=complex))

    def __add__(self, other):
        self._check_degree(other)
        return Polynomial(self._coeffs + other._coeffs, self._n)

    def __sub__(self, other):
        self._check_degree(other)
        return Polynomial(self._coeffs - other._coeffs, self._n)

    def __mul__(self, scalar):
        return Polynomial(self._coeffs * complex(scalar), self._n)

    __rmul__ = __mul__

    def product(self, other):
        """Polynomial product; nominal degrees add."""
        return Polynomial(np.convolve(self._coeffs, other._coeffs), self._n + other._n)

    def derivative(self):
        if self._n == 0:
            return Polynomial([0.0], 0)
        k = np.arange(1, self._n + 1)
        return Polynomial(self._coeffs[1:] * k, self._n - 1)

    # -- the structural operations --------------------------------------------

    def n_inverse(self):
        """z^n conj(P(1/conj(z))): coefficients conjugated and reversed."""
        return Polynomial(np.conj(self._coeffs[::-1]), self._n)

    def scale_argument(self, c):
        """P(c z): coefficient k picks up the factor c^k."""
        powers = np.power(complex(c), np.arange(self._n + 1))
        return Polynomial(self._coeffs * powers, self._n)

    def rotate(self, phi):
        """P(e^{i phi} z)."""
        return self.scale_argument(cmath.exp(1j * phi))

    def approx_eq(self, other, tol=COEFF_TOL):
        """Coefficientwise comparison relative to the larger max modulus."""
        self._check_degree(other)
        scale = max(self.norm(), other.norm(), 1e-300)
        return bool(np.max(np.abs(self._coeffs - other._coeffs)) <= tol * scale)

    def _check_degree(self, other):
        if self._n != other._n:
            raise DegreeMismatch(f"nominal degrees differ: {self._n} != {other._n}")

    # -- JSON wire form -------------------------------------------------------

    def to_json(self):
        return json.dumps(
            {"n": self._n, "coeffs": [[c.real, c.imag] for c in self._coeffs]}
        )

    @classmethod
    def from_json(cls, text):
        obj = json.loads(text)
        if not (isinstance(obj, dict) and type(obj.get("n")) is int
                and isinstance(obj.get("coeffs"), list)):
            raise ValueError('expected {"n": <int>, "coeffs": [[re, im], ...]}')
        # the constructor rejects a count of pairs other than n + 1
        return cls(complex_pairs(obj["coeffs"]), obj["n"])


def complex_pairs(pairs):
    """The complex numbers of a JSON list of [re, im] pairs; ValueError on
    anything else, and on a number past the float range (NaN, Infinity)."""
    if not isinstance(pairs, list):
        raise ValueError(f"expected a list of [re, im] pairs, got {type(pairs).__name__}")
    for k, pair in enumerate(pairs):
        if not (isinstance(pair, list) and len(pair) == 2 and all(
                isinstance(x, (int, float)) and not isinstance(x, bool) for x in pair)):
            raise ValueError(f"coefficient {k} must be a [re, im] pair of numbers, "
                             f"got {pair!r}")
        if not all(abs(x) <= sys.float_info.max for x in pair):
            raise ValueError(f"non-finite coefficient {k}: {pair!r}")
    return [complex(*pair) for pair in pairs]


@dataclass(frozen=True)
class LambdaParam:
    """Validated separation parameter: n >= 1 and 0 <= lam <= 2*pi/n.

    The one place that decides the lambda range; is_upper_endpoint allows
    the upper endpoint a rounding slack.  Both endpoints are representable;
    operations needing the open interval call require_interior.
    """

    n: int
    lam: float

    def __post_init__(self):
        if self.n < 1:
            raise OutOfRange(f"n must be >= 1, got {self.n}")
        if not (0.0 <= self.lam <= self.upper or self.is_upper_endpoint):
            raise OutOfRange(f"lambda={self.lam} outside [0, 2*pi/{self.n}]")

    @property
    def upper(self):
        return 2.0 * math.pi / self.n

    @property
    def is_upper_endpoint(self):
        return abs(self.lam - self.upper) <= 1e-15

    def require_interior(self):
        """Raise OutOfRange at lambda = 0 and at the upper endpoint."""
        if not self.lam > 0.0 or self.is_upper_endpoint:
            raise OutOfRange(f"lambda={self.lam} must lie strictly inside (0, {self.upper})")


def _expand(factors, leading=1.0):
    """Ascending coefficients of leading * prod (1 + f z) over the factors f."""
    c = np.array([complex(leading)])
    for f in factors:
        nxt = np.zeros(c.size + 1, dtype=complex)
        nxt[:-1] += c
        nxt[1:] += complex(f) * c
        c = nxt
    return c


def trimmed(p):
    """Drop leading coefficients within TRIM_TOL of the largest.

    Constructed products (differences of two convolutions) cancel their
    extreme coefficients exactly in theory but leave rounding residue in
    practice; root finding needs that residue stripped.
    """
    if p.is_zero:
        return p
    c = p.coeffs
    scale = p.norm()
    d = c.size - 1
    while d > 0 and abs(c[d]) <= TRIM_TOL * scale:
        d -= 1
    return Polynomial(c[: d + 1], d)


def self_inversive_phase(p):
    """The unimodular c with arg(c) in [0, pi) making c*P n-self-inversive.

    Requires n_inverse(p) == c^2 * p coefficientwise.  c^2 is read off the
    largest-modulus coefficient pair (best conditioned) and then verified
    against every pair; failure means the zeros of p are not symmetric
    about the unit circle.
    """
    if p.is_zero:
        raise NotSymmetric("zero polynomial has no self-inversive phase")
    c = p.coeffs
    n = p.nominal_degree
    inv = np.conj(c[::-1])
    scale = p.norm()
    k = int(np.argmax(np.abs(c)))
    c2 = inv[k] / c[k]
    if abs(abs(c2) - 1.0) > 1e-6:
        raise NotSymmetric(
            f"|coeff[{n - k}]| != |coeff[{k}]|: zeros not symmetric about the circle"
        )
    c2 /= abs(c2)
    if np.max(np.abs(inv - c2 * c)) > COEFF_TOL * scale:
        raise NotSymmetric("no unimodular c^2 matches all coefficient pairs")
    half = cmath.phase(c2) / 2.0  # phase(c2) in (-pi, pi]
    if half < 0.0:
        half += math.pi
    return cmath.exp(1j * half)

