"""Polynomial container, n-inverse, phases, JSON round trip."""

import cmath
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyconv.errors import DegreeMismatch, NotSymmetric, OutOfRange
from polyconv.poly import (
    LambdaParam,
    Polynomial,
    self_inversive_phase,
    trimmed,
)

coeff = st.complex_numbers(min_magnitude=0.0, max_magnitude=10.0,
                           allow_nan=False, allow_infinity=False)


def poly_strategy(min_deg=1, max_deg=8):
    return st.integers(min_deg, max_deg).flatmap(
        lambda n: st.lists(coeff, min_size=n + 1, max_size=n + 1).map(
            lambda c: Polynomial(c, n)))


class TestBasics:
    def test_construction_checks_length(self):
        with pytest.raises(ValueError):
            Polynomial([1, 2], 2)

    def test_exact_vs_nominal_degree(self):
        p = Polynomial([1, 2, 0, 0], 3)
        assert p.nominal_degree == 3
        assert p.exact_degree == 1
        assert not p.is_zero
        assert Polynomial.zero(4).is_zero

    def test_from_roots(self):
        p = Polynomial.from_roots([1, -1], leading=2.0)
        # 2(z-1)(z+1) = 2z^2 - 2
        assert np.allclose(p.coeffs, [-2, 0, 2])

    def test_from_roots_matches_linear_factor_loop_bit_for_bit(self):
        def reference(roots, leading):
            # multiply in one factor z - r at a time, ascending coefficients
            c = np.array([complex(leading)])
            for r in roots:
                nxt = np.zeros(c.size + 1, dtype=complex)
                nxt[1:] += c
                nxt[:-1] -= complex(r) * c
                c = nxt
            return c

        rng = np.random.default_rng(11)
        for i in range(200):
            d = 1 + i % 16
            roots = rng.normal(size=d) + 1j * rng.normal(size=d)
            leading = complex(rng.normal(), rng.normal())
            assert np.array_equal(Polynomial.from_roots(roots).coeffs,
                                  reference(roots, 1.0)), (i, d)
            assert np.array_equal(Polynomial.from_roots(roots, leading=leading).coeffs,
                                  reference(roots, leading)), (i, d)

    def test_evaluation_matches_horner_and_vectorized(self):
        p = Polynomial([1, 2 + 1j, 3], 2)
        z = 0.7 - 0.3j
        direct = 1 + (2 + 1j) * z + 3 * z * z
        assert abs(p(z) - direct) < 1e-14
        assert abs(p.eval_many([z])[0] - direct) < 1e-14

    def test_arithmetic_degree_guard(self):
        with pytest.raises(DegreeMismatch):
            Polynomial([1, 2], 1) + Polynomial([1, 2, 3], 2)

    def test_product_adds_nominal_degrees(self):
        p = Polynomial([1, 1], 1).product(Polynomial([1, -1], 1))
        assert p.nominal_degree == 2
        assert np.allclose(p.coeffs, [1, 0, -1])

    def test_derivative(self):
        p = Polynomial([5, 4, 3, 2], 3)
        assert np.allclose(p.derivative().coeffs, [4, 6, 6])

    def test_trimmed_drops_noise_leading_coeffs(self):
        p = Polynomial([1.0, 1.0, 1e-16], 2)
        t = trimmed(p)
        assert t.nominal_degree == 1
        assert np.allclose(t.coeffs, [1.0, 1.0])


class TestNInverse:
    def test_reflects_roots(self):
        # root at 0.5 reflects to 2
        p = Polynomial.from_roots([0.5])
        inv = p.n_inverse()
        assert abs(inv(2.0)) < 1e-12

    def test_depends_on_nominal_degree(self):
        p = Polynomial([1, 1, 0], 2)  # 1 + z in ambient degree 2
        assert np.allclose(p.n_inverse().coeffs, [0, 1, 1])

    @given(poly_strategy())
    @settings(max_examples=100, deadline=None)
    def test_involution(self, p):
        q = p.n_inverse().n_inverse()
        assert np.allclose(q.coeffs, p.coeffs, atol=1e-12)


class TestRotations:
    def test_rotate_plus_minus(self):
        lp = LambdaParam(2, 0.6)
        p = Polynomial([1, 1, 1], 2)
        up = p.rotate(+lp.lam / 2.0)
        dn = p.rotate(-lp.lam / 2.0)
        w = cmath.exp(1j * 0.3)
        assert np.allclose(up.coeffs, [1, w, w * w])
        assert np.allclose(dn.coeffs, [1, np.conj(w), np.conj(w) ** 2])


class TestSelfInversivePhase:
    def test_real_self_inversive(self):
        # (1+z)^2 is self-inversive with c = 1
        p = Polynomial([1, 2, 1], 2)
        assert abs(self_inversive_phase(p) - 1.0) < 1e-12

    def test_rotated_factor(self):
        # i(1+z): n-inverse is -i(1+z) = (i)^(-2) ... phase i  [DERIVED]
        p = Polynomial([1j, 1j], 1)
        assert abs(self_inversive_phase(p) - 1j) < 1e-12

    def test_circle_roots_always_have_phase(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            roots = np.exp(2j * np.pi * rng.uniform(size=4))
            lead = np.exp(2j * np.pi * rng.uniform())
            p = Polynomial.from_roots(roots, leading=lead)
            c = self_inversive_phase(p)
            assert abs(abs(c) - 1.0) < 1e-12
            assert 0.0 <= cmath.phase(c) % (2 * math.pi) < math.pi + 1e-12
            # c^2 p = n_inverse(p) coefficientwise
            assert p.n_inverse().approx_eq(p * (c * c), 1e-9)

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSymmetric):
            self_inversive_phase(Polynomial.from_roots([0.5, 0.25]))


class TestJson:
    def test_round_trip(self):
        p = Polynomial([1 + 2j, 0, -3j], 2)
        q = Polynomial.from_json(p.to_json())
        assert q.nominal_degree == 2
        assert np.allclose(q.coeffs, p.coeffs)

    def test_rejects_wrong_length(self):
        text = json.dumps({"n": 3, "coeffs": [[1, 0], [2, 0]]})
        with pytest.raises(ValueError):
            Polynomial.from_json(text)


class TestLambdaParam:
    def test_range_validation(self):
        with pytest.raises(ValueError):
            LambdaParam(4, -0.1)
        with pytest.raises(ValueError):
            LambdaParam(4, 2.0)  # 2 > 2*pi/4 ~ 1.5708
        assert LambdaParam(4, math.pi / 2).is_upper_endpoint
        assert not LambdaParam(4, 0.3).is_upper_endpoint

    @pytest.mark.parametrize("n, lam", [(0, 0.5), (-1, 0.5), (4, -0.1), (4, 2.0),
                                        (4, math.nan)])
    def test_range_errors_are_out_of_range(self, n, lam):
        # and OutOfRange is a ValueError, which the test above expects
        with pytest.raises(OutOfRange):
            LambdaParam(n, lam)

    def test_require_interior(self):
        upper = math.pi / 2
        LambdaParam(4, 0.3).require_interior()
        LambdaParam(4, np.nextafter(upper, 0.0) - 1e-14).require_interior()
        # the floats just below the upper endpoint are the endpoint
        for lam in (0.0, upper, np.nextafter(upper, 0.0)):
            assert LambdaParam(4, lam).is_upper_endpoint == (lam != 0.0)
            with pytest.raises(OutOfRange):
                LambdaParam(4, lam).require_interior()
