"""Convolution weights, extremal polynomials, convolution laws."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyconv.errors import OutOfRange
from polyconv.poly import LambdaParam, Polynomial
from polyconv.qconv import (
    QCoefficientTable,
    delta,
    gauss_product,
    grace_szego,
    lambda_convolve,
    pre_lift,
    q_coefficient,
    q_extremal,
)


class TestQCoefficient:
    def test_binomials_at_zero(self):
        for n in range(1, 12):
            for k in range(n + 1):
                assert q_coefficient(n, k, 0.0) == float(math.comb(n, k))

    def test_upper_endpoint_table(self):
        n = 5
        lam = 2 * math.pi / n
        vals = [q_coefficient(n, k, lam) for k in range(n + 1)]
        assert vals == [1.0, 0.0, 0.0, 0.0, 0.0, 1.0]

    def test_frozen_values(self):
        # sine-ratio product at n=5, lambda=0.5:
        # C_1 = sin(1.25)/sin(0.25), C_2 = C_1 sin(1)/sin(0.5)
        assert abs(q_coefficient(5, 1, 0.5) - 3.8357697355170246) < 1e-12
        assert abs(q_coefficient(5, 2, 0.5) - 6.7324092626331753) < 1e-12

    def test_palindromic(self):
        for lam in (0.1, 0.5, 1.0):
            for k in range(7):
                assert abs(q_coefficient(6, k, lam) -
                           q_coefficient(6, 6 - k, lam)) < 1e-12

    def test_positive_on_open_interval(self):
        for n in range(2, 9):
            for j in range(1, 8):
                lam = j * 2 * math.pi / (8 * n)
                assert all(q_coefficient(n, k, lam) > 0 for k in range(n + 1))

    def test_range_errors(self):
        with pytest.raises(OutOfRange):
            q_coefficient(4, 5, 0.1)
        with pytest.raises(OutOfRange):
            q_coefficient(4, 1, 2.0)
        # n = 0 used to divide by zero in 2*pi/n
        with pytest.raises(OutOfRange):
            q_coefficient(0, 0, 0.5)
        with pytest.raises(OutOfRange):
            q_extremal(0, 0.5)

    def test_subnormal_lambda_is_binomial_limit(self):
        # lam / 2 underflows to 0.0 at the smallest subnormal
        lam = 5e-324
        for k in range(6):
            assert q_coefficient(5, k, lam) == float(math.comb(5, k))
        lp = LambdaParam(5, lam)
        f = Polynomial([1.0, 2.0, -1.0, 0.5j, 3.0, 1.0], 5)
        assert np.all(np.isfinite(lambda_convolve(f, f, lp).coeffs))
        assert np.all(np.isfinite(delta(f, lp).coeffs))

    def test_table_matches_scalar(self):
        t = QCoefficientTable.build(6, 0.7)
        assert all(abs(t.values[k] - q_coefficient(6, k, 0.7)) < 1e-15
                   for k in range(7))


class TestQExtremal:
    def test_matches_product_expansion(self):
        # q_extremal returns the sine-ratio row; the product it stands for
        # is expanded here
        for n in range(1, 17):
            upper = 2 * math.pi / n
            for lam in (0.1 * upper, 0.4 * upper, 0.95 * upper, upper):
                c = np.array([1.0 + 0.0j])
                for j in range(1, n + 1):
                    c = np.convolve(c, [1.0, cmath.exp(1j * (2 * j - n - 1) * lam / 2)])
                Q = q_extremal(n, lam)
                assert np.max(np.abs(Q.coeffs - c)) <= 1e-12 * np.max(np.abs(c))

    def test_upper_endpoint_is_one_plus_zn(self):
        Q = q_extremal(4, 2 * math.pi / 4)
        assert np.allclose(Q.coeffs, [1, 0, 0, 0, 1], atol=1e-12)

    def test_roots_equally_gapped(self):
        n, lam = 5, 0.5
        Q = q_extremal(n, lam)
        roots = np.sort(np.angle(np.roots(Q.coeffs[::-1])))
        gaps = np.sort(np.append(np.diff(roots),
                                 2 * math.pi - (roots[-1] - roots[0])))
        # n-1 gaps of size lam plus the complementary arc
        assert np.allclose(gaps[: n - 1], lam, atol=1e-9)
        assert abs(gaps[-1] - (2 * math.pi - (n - 1) * lam)) < 1e-9

    def test_gauss_product_unimodular_q(self):
        # R_n(e^{i lam}; z) is Q_n(lam; z) times a rotation of the argument
        n, lam = 4, 0.6
        R = gauss_product(n, cmath.exp(1j * lam))
        Q = q_extremal(n, lam)
        shifted = Q.scale_argument(cmath.exp(1j * (n - 1) * lam / 2))
        assert R.approx_eq(shifted, 1e-12)


def random_poly(rng, n):
    return Polynomial(rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1), n)


class TestConvolutions:
    def test_grace_szego_frozen_example(self):
        # (z - 1/2)^2 convolved with itself gives (z + 1/4)^2
        p = Polynomial.from_roots([0.5, 0.5])
        c = grace_szego(p, p)
        assert c.approx_eq(Polynomial.from_roots([-0.25, -0.25]), 1e-12)

    def test_lambda_zero_reduces_to_binomial_weighting(self):
        rng = np.random.default_rng(0)
        lp = LambdaParam(5, 0.0)
        for _ in range(50):
            f, g = random_poly(rng, 5), random_poly(rng, 5)
            assert lambda_convolve(f, g, lp).approx_eq(grace_szego(f, g), 1e-11)

    def test_identity_element(self):
        rng = np.random.default_rng(1)
        n, lam = 6, 0.4
        lp = LambdaParam(n, lam)
        Q = q_extremal(n, lam)
        for _ in range(20):
            g = random_poly(rng, n)
            assert lambda_convolve(Q, g, lp).approx_eq(g, 1e-11)

    def test_scaled_identity_scales_argument(self):
        # Q_n(lambda; b z) convolved with G gives G(b z)
        rng = np.random.default_rng(2)
        n, lam = 5, 0.7
        lp = LambdaParam(n, lam)
        b = cmath.exp(1.3j)
        Qb = q_extremal(n, lam).scale_argument(b)
        g = random_poly(rng, n)
        assert lambda_convolve(Qb, g, lp).approx_eq(g.scale_argument(b), 1e-11)

    @given(st.integers(2, 7), st.data())
    @settings(max_examples=60, deadline=None)
    def test_commutative_and_associative(self, n, data):
        lam = data.draw(st.floats(0.0, 0.9)) * 2 * math.pi / n
        lp = LambdaParam(n, lam)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
        f, g, h = (random_poly(rng, n) for _ in range(3))
        fg = lambda_convolve(f, g, lp)
        gf = lambda_convolve(g, f, lp)
        assert fg.approx_eq(gf, 1e-11)
        a = lambda_convolve(fg, h, lp)
        b = lambda_convolve(f, lambda_convolve(g, h, lp), lp)
        assert a.approx_eq(b, 1e-10)

    def test_n_inverse_distributes(self):
        rng = np.random.default_rng(3)
        n, lam = 6, 0.5
        lp = LambdaParam(n, lam)
        for _ in range(50):
            f, g = random_poly(rng, n), random_poly(rng, n)
            left = lambda_convolve(f, g, lp).n_inverse()
            right = lambda_convolve(f.n_inverse(), g.n_inverse(), lp)
            assert left.approx_eq(right, 1e-11)

    def test_argument_scale_inverse_law(self):
        # (P(cz))^{*n} = conj(c)^n P^{*n}(cz) for unimodular c
        rng = np.random.default_rng(4)
        n = 5
        for _ in range(50):
            p = random_poly(rng, n)
            c = np.exp(1j * rng.uniform(0, 2 * math.pi))
            left = p.scale_argument(c).n_inverse()
            right = p.n_inverse().scale_argument(c) * (np.conj(c) ** n)
            assert left.approx_eq(right, 1e-11)

    def test_derivative_via_binomial_convolution(self):
        # F convolved with z(1+z)^(n-1) equals z F'(z) / n
        rng = np.random.default_rng(5)
        n = 6
        kernel = Polynomial.from_roots([-1.0] * (n - 1)).coeffs
        K = Polynomial(np.concatenate([[0.0], kernel]), n)
        for _ in range(50):
            f = random_poly(rng, n)
            conv = grace_szego(f, K)
            want = Polynomial(
                np.concatenate([[0.0], f.derivative().coeffs]) / n, n)
            assert conv.approx_eq(want, 1e-11)

    def test_upper_endpoint_rejected(self):
        n = 4
        upper = 2 * math.pi / n
        f = Polynomial([1, 1, 1, 1, 1], n)
        for lam in (upper, np.nextafter(upper, 0.0)):
            lp = LambdaParam(n, lam)
            for op in (lambda: lambda_convolve(f, f, lp), lambda: delta(f, lp),
                       lambda: pre_lift(f, lp)):
                with pytest.raises(OutOfRange):
                    op()
        # the row itself is defined there: the 1/0 table of the endpoint
        assert q_extremal(n, upper).coeffs.tolist() == [1, 0, 0, 0, 1]


class TestDelta:
    def test_extremal_maps_to_lower_extremal(self):
        for n in (3, 5, 8):
            for frac in (0.2, 0.6):
                lam = frac * 2 * math.pi / n
                lp = LambdaParam(n, lam)
                img = delta(q_extremal(n, lam), lp)
                assert img.approx_eq(q_extremal(n - 1, lam), 1e-11)

    def test_monomial(self):
        lp = LambdaParam(5, 0.4)
        img = delta(Polynomial([0, 0, 0, 0, 0, 1.0], 5), lp)
        assert img.nominal_degree == 4
        assert abs(img.coeffs[4] - 1.0) < 1e-12
        assert np.allclose(img.coeffs[:4], 0.0)

    def test_lambda_zero_is_scaled_derivative(self):
        rng = np.random.default_rng(6)
        n = 5
        lp = LambdaParam(n, 0.0)
        f = random_poly(rng, n)
        assert delta(f, lp).approx_eq(
            Polynomial(f.derivative().coeffs / n, n - 1), 1e-12)

    def test_quotient_definition(self):
        # (F(e^{i lam/2} z) - F(e^{-i lam/2} z)) / (2 i z sin(n lam / 2))
        rng = np.random.default_rng(7)
        n, lam = 6, 0.5
        lp = LambdaParam(n, lam)
        f = random_poly(rng, n)
        img = delta(f, lp)
        for z in rng.normal(size=10) + 1j * rng.normal(size=10):
            num = f(z * cmath.exp(1j * lam / 2)) - f(z * cmath.exp(-1j * lam / 2))
            den = 2j * z * math.sin(n * lam / 2)
            assert abs(img(z) - num / den) < 1e-10 * max(1.0, abs(num / den))


class TestPreLift:
    def test_lift_of_all_ones_is_extremal(self):
        n, lam = 5, 0.8
        lp = LambdaParam(n, lam)
        f = Polynomial(np.ones(n + 1), n)
        assert pre_lift(f, lp).approx_eq(q_extremal(n, lam), 1e-12)
