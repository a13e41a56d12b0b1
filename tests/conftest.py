"""Inputs shared by the test modules."""

import math

import numpy as np
import pytest

from polyconv.poly import LambdaParam, Polynomial


@pytest.fixture(scope="session")
def crowded_split():
    """(F, lp, P, Q): draw 1036, 0-based, of a stress set whose n zeros sit
    1e-1 to 1.6e-7 inside the circle, and the halves P = (F - F^*n) / 2,
    Q = -(F + F^*n) / 2 of its canonical split.  Here n = 16; every zero
    of P and Q lies on the circle, and three of Q's lie within 4.2e-3 of
    each other."""
    rng = np.random.default_rng(5)
    for _ in range(1037):
        n = int(rng.integers(2, 17))
        radii = 1.0 - 10 ** rng.uniform(-6.8, -1, n)
        angles = 2 * math.pi * rng.uniform(size=n)
        lead = np.exp(2j * math.pi * rng.uniform())
        lam = float(rng.uniform(0.05, 0.95)) * 2 * math.pi / n
    F = Polynomial.from_roots(radii * np.exp(1j * angles), leading=lead)
    Fi = F.n_inverse()
    return F, LambdaParam(n, lam), (F - Fi) * 0.5, (F + Fi) * (-0.5)
