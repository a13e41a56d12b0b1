"""Inputs shared by the test modules."""

import math

import numpy as np
import pytest

from polyconv.poly import LambdaParam, Polynomial


def stress_draw(k):
    """(F, lp, P, Q): draw k, 0-based, of a stress set whose n zeros sit
    1e-1 to 1.6e-7 inside the circle, and the halves P = (F - F^*n) / 2,
    Q = -(F + F^*n) / 2 of its canonical split, every zero of which lies
    on the circle."""
    rng = np.random.default_rng(5)
    for _ in range(k + 1):
        n = int(rng.integers(2, 17))
        radii = 1.0 - 10 ** rng.uniform(-6.8, -1, n)
        angles = 2 * math.pi * rng.uniform(size=n)
        lead = np.exp(2j * math.pi * rng.uniform())
        lam = float(rng.uniform(0.05, 0.95)) * 2 * math.pi / n
    F = Polynomial.from_roots(radii * np.exp(1j * angles), leading=lead)
    Fi = F.n_inverse()
    return F, LambdaParam(n, lam), (F - Fi) * 0.5, (F + Fi) * (-0.5)


@pytest.fixture(scope="session")
def crowded_split():
    """Stress draw 1036: n = 16, and three of Q's zeros lie within 4.2e-3
    of each other."""
    return stress_draw(1036)
