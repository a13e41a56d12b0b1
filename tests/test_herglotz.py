"""Kernel-combination approximation of positive-real-part disk functions."""

import math
import warnings

import numpy as np
import pytest

from polyconv.errors import (
    HypothesisViolated,
    OutOfDomain,
    OutOfRange,
    PositivityLost,
)
from polyconv.poly import LambdaParam, Polynomial
from polyconv.herglotz import (
    LIMIT_RADIUS,
    HerglotzApproximant,
    build_approximant,
    default_schedule,
    disk_limit_check,
    evaluate_approximant_many,
    folded_polynomial,
)


def geometric_coeffs(b, count):
    # f(z) = (1 + bz)/(1 - bz) = 1 + 2 sum_{k>=1} b^k z^k has Re f > 0
    return [1.0] + [2.0 * b ** k for k in range(1, count)]


def reference_approximant(coeffs, k, r):
    """(m, weights, nodes) by the first formulas: np.roll of the 4m-point
    grid, nodes by np.exp on every build; PositivityLost as build raises."""
    m = 2 * k
    s = np.asarray(coeffs, dtype=complex)[: k + 1] * r ** np.arange(k + 1)
    v = np.fft.ifft(s, 4 * m).real * (4 * m)
    if float(np.min(v)) <= 0.0:
        raise PositivityLost("reference: Re S_k(rz) not positive")
    weights = np.roll(v[::4], -1) / m
    nodes = np.conj(np.exp(2j * np.pi * np.arange(1, m + 1) / m))
    return m, tuple(float(w) for w in weights), tuple(complex(w) for w in nodes)


def reference_values(weights, nodes, zs):
    """The combination at zs by the first evaluation, two np.outer calls."""
    zs = np.asarray(zs, dtype=complex)
    w, s = np.asarray(nodes), np.asarray(weights)
    return np.sum(s * (1.0 + np.outer(zs, w)) / (1.0 - np.outer(zs, w)), axis=1)


def measure_coeffs(weights, points, count):
    """Taylor coefficients of sum_j weights[j] (1 + points[j] z)/(1 - points[j] z)."""
    powers = points[None, :] ** np.arange(1, count)[:, None]
    return np.concatenate([[1.0 + 0.0j], 2.0 * powers @ weights])


class TestBuild:
    def test_constant_function_uniform_weights(self):
        h = build_approximant([1.0, 0.0, 0.0, 0.0, 0.0], k=4, r=0.5)
        assert h.m == 8
        assert np.allclose(h.weights, 1.0 / 8.0)

    def test_weights_positive_sum_one(self):
        h = build_approximant(geometric_coeffs(0.6, 20), k=16, r=0.9)
        assert all(w > 0 for w in h.weights)
        assert abs(sum(h.weights) - 1.0) < 1e-10

    def test_nodes_are_roots_of_unity(self):
        h = build_approximant(geometric_coeffs(0.5, 10), k=8, r=0.8)
        assert np.allclose(np.abs(h.nodes), 1.0)
        assert np.allclose(sorted(np.angle(np.array(h.nodes) ** h.m)), 0.0,
                           atol=1e-9)

    def test_folded_polynomial_values_on_grid(self):
        # P at each m-th root of unity is real and the weights sum to
        # P-values / (2m); total value sum is 2m by the weight normalization
        k, r = 8, 0.8
        c = geometric_coeffs(0.4j, 12)
        P = folded_polynomial(c, k, r)
        m = 2 * k
        w = np.exp(2j * np.pi * np.arange(1, m + 1) / m)
        vals = P.eval_many(w)
        assert float(np.max(np.abs(vals.imag))) < 1e-10
        assert abs(float(np.sum(vals.real)) - 2 * m) < 1e-9

    def test_partial_fraction_identity(self):
        # the combination reproduces P(z)/(1 - z^m) exactly
        k, r = 6, 0.7
        c = geometric_coeffs(0.5 * np.exp(0.9j), 10)
        h = build_approximant(c, k, r)
        P = folded_polynomial(c, k, r)
        m = 2 * k
        rng = np.random.default_rng(2)
        for _ in range(20):
            z = rng.uniform(0, 0.9) * np.exp(2j * np.pi * rng.uniform())
            lhs = evaluate_approximant_many(h, [z])[0]
            rhs = P(z) / (1.0 - z ** m)
            assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))

    def test_positivity_precheck(self):
        # a truncation with Re going negative on the circle is rejected
        with pytest.raises(PositivityLost):
            build_approximant([1.0, 5.0, 0.0], k=2, r=0.9)

    def test_normalization_guard(self):
        with pytest.raises(HypothesisViolated):
            build_approximant([2.0, 0.0], k=1, r=0.5)

    def test_radius_guard(self):
        with pytest.raises(OutOfRange):
            build_approximant([1.0, 0.0], k=1, r=1.0)

    @pytest.mark.parametrize("coeffs, needle", [
        ([1.0, math.nan, 0.25], r"non-finite coefficient \(?nan.* of z\^1"),
        ([1.0, 0.5, complex(0.0, math.inf), 9.0], r"of z\^2"),
        ([math.nan, 0.5, 0.25], r"of z\^0"),
    ])
    def test_non_finite_coefficient(self, coeffs, needle):
        # the NaN used to pass the positivity test and give NaN weights
        with pytest.raises(OutOfRange, match=needle):
            build_approximant(coeffs, 2, 0.5)
        with pytest.raises(OutOfRange, match=needle):
            folded_polynomial(coeffs, 2, 0.5)

    def test_non_finite_coefficient_beyond_k_is_not_read(self):
        h = build_approximant([1.0, 0.5, 0.25, math.nan], 2, 0.5)
        assert h == build_approximant([1.0, 0.5, 0.25], 2, 0.5)

    def test_too_few_coeffs(self):
        with pytest.raises(OutOfRange):
            build_approximant([1.0], k=4, r=0.5)

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one(self, k):
        # both used to fail inside numpy on an empty grid
        with pytest.raises(OutOfRange, match="k must be >= 1"):
            build_approximant([1.0, 0.5], k=k, r=0.5)
        with pytest.raises(OutOfRange, match="k must be >= 1"):
            folded_polynomial([1.0, 0.5], k=k, r=0.5)

    def test_weights_are_the_truncation_at_the_nodes(self):
        # weight j is Re S_k(r w_j) / m at w_j = e^{2 pi i j / m}, read off
        # the inverse FFT's 4m-point grid; node j is conj(w_j)
        rng = np.random.default_rng(26)
        for k in (1, 4, 8, 16, 32, 64):
            b = rng.uniform(0.3, 0.7, 3) * np.exp(2j * np.pi * rng.uniform(size=3))
            w = rng.dirichlet(np.ones(3))
            c = [1.0] + [2.0 * complex(np.sum(w * b ** j)) for j in range(1, k + 1)]
            r = default_schedule(5)[1]
            h = build_approximant(c, k, r)
            m = 2 * k
            pts = np.exp(2j * np.pi * np.arange(1, m + 1) / m)
            s = np.asarray(c) * r ** np.arange(k + 1)
            assert np.max(np.abs(np.array(h.weights) - np.polyval(s[::-1], pts).real / m)) < 1e-15
            assert h.nodes == tuple(complex(z) for z in np.conj(pts))


class TestBitExact:
    # the cached nodes, the concatenated grid read and the one-outer
    # evaluation give the first formulas' bits, not merely close values
    @pytest.mark.parametrize("style", ["algebra", "trial"])
    def test_matches_reference_formulas(self, style):
        rng = np.random.default_rng(27 if style == "algebra" else 28)
        compared = 0
        for k in range(1, 65):
            n = int(rng.integers(2, 6))
            w = rng.dirichlet(np.ones(n))
            if style == "algebra":
                b = rng.uniform(0.3, 0.7, n) * np.exp(2j * np.pi * rng.uniform(size=n))
                zs = 0.5 * np.exp(2j * np.pi * np.arange(48) / 48)
            else:  # point masses on the circle, as the herglotz trial draws
                b = np.exp(2j * np.pi * rng.uniform(size=n))
                zs = 0.5 * np.exp(2j * np.pi * np.linspace(0, 1, 64, endpoint=False))
            c = measure_coeffs(w, b, k + 1)
            r = float(rng.uniform(0.5, 0.97))
            try:
                m, weights, nodes = reference_approximant(c, k, r)
            except PositivityLost:
                with pytest.raises(PositivityLost):
                    build_approximant(c, k, r)
                continue
            h = build_approximant(c, k, r)
            assert h.m == m and h.weights == weights and h.nodes == nodes
            assert h == HerglotzApproximant(m, weights, nodes)
            assert repr(h) == f"HerglotzApproximant(m={m}, weights={weights!r}, nodes={nodes!r})"
            assert np.array_equal(evaluate_approximant_many(h, zs),
                                  reference_values(weights, nodes, zs))
            compared += 1
        assert compared >= 40, compared


class TestApproximantObject:
    def test_rejects_odd_m(self):
        with pytest.raises(OutOfRange):
            HerglotzApproximant(3, (0.5, 0.25, 0.25), (1.0, 1.0j, -1.0))

    def test_rejects_nonpositive_weights(self):
        with pytest.raises(PositivityLost):
            HerglotzApproximant(2, (1.5, -0.5), (1.0, -1.0))

    def test_rejects_bad_sum(self):
        with pytest.raises(PositivityLost):
            HerglotzApproximant(2, (0.6, 0.6), (1.0, -1.0))

    @pytest.mark.parametrize("weights", [(math.nan, math.nan), (math.nan, 1.0),
                                         (math.inf, 0.5)])
    def test_rejects_non_finite_weights(self, weights):
        # NaN passed both the sign test and the sum test
        with pytest.raises(PositivityLost):
            HerglotzApproximant(2, weights, (1.0, -1.0))

    @pytest.mark.parametrize("m, weights, nodes", [
        (4, (0.5, 0.5), (1.0, -1.0)),
        (2, (0.5, 0.5), (1.0,)),
        (2, (0.25, 0.25, 0.5), (1.0, -1.0)),
    ])
    def test_rejects_wrong_counts(self, m, weights, nodes):
        with pytest.raises(OutOfRange, match="needs"):
            HerglotzApproximant(m, weights, nodes)


class TestEvaluation:
    def test_outside_disk_rejected(self):
        h = build_approximant([1.0, 0.0], k=1, r=0.5)
        with pytest.raises(OutOfDomain):
            evaluate_approximant_many(h, [1.0])[0]
        with pytest.raises(OutOfDomain):
            evaluate_approximant_many(h, [0.2, 1.2])

    @pytest.mark.parametrize("z", [math.nan, complex(0.1, math.nan),
                                   complex(math.inf, 0.0)])
    def test_non_finite_point_rejected(self, z):
        # NaN gave NaN and a RuntimeWarning
        h = build_approximant([1.0, 0.5, 0.25], k=2, r=0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OutOfDomain):
                evaluate_approximant_many(h, [z])[0]
            with pytest.raises(OutOfDomain):
                evaluate_approximant_many(h, [0.2, z])


class TestConvergence:
    def test_error_decreases_along_schedule(self):
        b = 0.55 * np.exp(0.7j)
        f = lambda z: (1.0 + b * z) / (1.0 - b * z)
        zs = 0.5 * np.exp(2j * np.pi * np.arange(40) / 40)
        errs = []
        for j in (3, 4, 5, 6):
            k, r = default_schedule(j)
            h = build_approximant(geometric_coeffs(b, k + 1), k, r)
            approx = evaluate_approximant_many(h, zs)
            errs.append(float(np.max(np.abs(approx - f(zs)))))
        assert all(a > b_ for a, b_ in zip(errs, errs[1:]))

    def test_schedule_values(self):
        assert default_schedule(4) == (16, 1.0 - 2.0 ** -2.0)


class TestDiskLimit:
    def test_monomial_passes(self):
        lp = LambdaParam(4, 0.3)
        p = Polynomial([0.2, 0, 0, 0, 1.0], 4)
        v = disk_limit_check(p, lp)
        assert v.member and not v.indeterminate

    def test_leading_coefficient_guard(self):
        lp = LambdaParam(2, 0.3)
        with pytest.raises(HypothesisViolated):
            disk_limit_check(Polynomial([0.1, 0.0, 2.0], 2), lp)

    def test_constant_coefficient_guard(self):
        with pytest.raises(HypothesisViolated):
            disk_limit_check(Polynomial([1.5, 0.0, 1.0], 2), LambdaParam(2, 0.3))

    @pytest.mark.parametrize("p, n", [
        (Polynomial([0.2, 0.0, 1.0], 2), 4),  # lp.n above the degree
        (Polynomial([0.2, 0.0, 0.0, 0.0, 1.0], 4), 2),  # and below it
    ])
    def test_degree_mismatch_raises(self, p, n):
        with pytest.raises(OutOfRange, match="lambda parameter is for n="):
            disk_limit_check(p, LambdaParam(n, 0.3))

    def test_matches_dense_inner_circle(self):
        # the quotient of the definition on 65,536 points of the inner circle
        m = 65536
        angles = 2.0 * np.pi * np.arange(m) / m
        z = LIMIT_RADIUS * np.exp(1j * angles)
        zn = {n: LIMIT_RADIUS ** n * np.exp(1j * n * angles) for n in range(2, 9)}
        rng = np.random.default_rng(23)
        seen = {True: 0, False: 0}
        for _ in range(200):
            n = int(rng.integers(2, 9))
            c = np.zeros(n + 1, dtype=complex)
            c[0] = rng.uniform(0.0, 0.95) * np.exp(2j * np.pi * rng.uniform())
            c[1:n] = (10 ** rng.uniform(-1.0, 0.5) / n) * (
                rng.normal(size=n - 1) + 1j * rng.normal(size=n - 1))
            c[n] = 1.0
            p = Polynomial(c, n)
            a0bar = np.conj(c[0])
            quot = (p.n_inverse().eval_many(z) - a0bar * zn[n]) / (1.0 - a0bar * zn[n])
            least = float(np.min(quot.real)) - 0.5
            if abs(least) <= 1e-9:
                continue
            v = disk_limit_check(p, LambdaParam(n, 0.3))
            assert not v.indeterminate and v.member == (least > 0.0), (c, least, v)
            seen[v.member] += 1
        assert min(seen.values()) >= 40, seen
