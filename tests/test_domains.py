"""Region predicates: Möbius disk images, limaçons, complements."""

import math

import numpy as np
import pytest

from polyconv.errors import BadParams, OutOfRange
from polyconv.poly import Polynomial
from polyconv.domains import (
    BOUNDARY,
    IN,
    OUT,
    DomainSpec,
    boundary_polyline,
    complement,
    contains,
    counterexample_P,
    limacon_inner,
    limacon_outer,
    mobius,
    omega,
    reflected_domain,
    root_set_in,
)
from polyconv.qconv import grace_szego


class TestContains:
    def test_unit_disk(self):
        d = DomainSpec("UNIT_DISK_OPEN")
        assert contains(d, 0.3 + 0.4j) == IN
        assert contains(d, 2.0) == OUT
        assert contains(d, 1.0) == BOUNDARY

    def test_unit_circle(self):
        d = DomainSpec("UNIT_CIRCLE")
        assert contains(d, np.exp(0.7j)) == IN
        assert contains(d, 0.5) == OUT

    def test_limacon_inner_gamma_zero_is_disk(self):
        assert contains(limacon_inner(0.0), 0.5) == IN
        assert contains(limacon_inner(0.0), 1.5) == OUT

    def test_limacon_inner_half(self):
        # |z| + 0.5 |1+z| < 1 holds at -0.5: 0.5 + 0.25 = 0.75
        assert contains(limacon_inner(0.5), -0.5) == IN
        assert contains(limacon_inner(0.5), 0.5) == OUT

    def test_limacon_outer(self):
        d = limacon_outer(0.25)
        assert contains(d, -5.0) == IN
        assert contains(d, 1.5) == OUT  # |z| - g|1+z| = 1.5 - 0.625 < 1
        assert contains(d, 0.0) == OUT

    def test_degenerate_segments(self):
        # gamma = 1 closed regions collapse to [-1, 0] and (-inf, -1]
        inner = limacon_inner(1.0, closed=True)
        outer = limacon_outer(1.0, closed=True)
        assert contains(inner, -0.5) == IN
        assert contains(inner, -1.0) == IN
        assert contains(inner, 0.2) == OUT
        assert contains(inner, -0.5 + 0.2j) == OUT
        assert contains(outer, -2.0) == IN
        assert contains(outer, -0.5) == OUT

    def test_gamma_one_open_rejected(self):
        with pytest.raises(OutOfRange):
            limacon_inner(1.0)

    def test_omega_matches_mobius_image(self):
        tau, gamma = 2.0j, 0.4
        d = omega(tau, gamma)
        rng = np.random.default_rng(3)
        for _ in range(512):
            u = rng.uniform(0, 0.999) * np.exp(2j * np.pi * rng.uniform())
            assert contains(d, mobius(tau, gamma, u)) in (IN, BOUNDARY)
        for t in np.linspace(0, 2 * math.pi, 64, endpoint=False):
            w = mobius(tau, gamma, 1.02 * np.exp(1j * t))
            assert contains(d, w) in (OUT, BOUNDARY)

    def test_complement_flips(self):
        d = complement(DomainSpec("UNIT_DISK_CLOSED"))
        assert contains(d, 2.0) == IN
        assert contains(d, 0.3) == OUT
        assert contains(d, 1.0) == BOUNDARY

    def test_limacon_nested_in_disk(self):
        # the inner limacon shrinks as gamma grows
        rng = np.random.default_rng(4)
        for gamma in (0.25, 0.5, 0.9):
            d = limacon_inner(gamma)
            for _ in range(200):
                z = rng.uniform(-1.6, 1.6) + 1j * rng.uniform(-1.6, 1.6)
                if contains(d, z) == IN:
                    assert abs(z) < 1.0


class TestRootSetIn:
    def test_closed_accepts_boundary_roots(self):
        p = Polynomial.from_roots([0.5, 1.0])
        ok_closed, _ = root_set_in(p, DomainSpec("UNIT_DISK_CLOSED"))
        ok_open, witness = root_set_in(p, DomainSpec("UNIT_DISK_OPEN"))
        assert ok_closed
        assert not ok_open
        assert abs(witness - 1.0) < 1e-8

    def test_binomial_power_vs_closed_inner_limacon(self):
        # (1+z)^n has the n-fold root -1, on the closed segment for gamma = 1
        p = Polynomial.from_roots([-1.0] * 4)
        ok, _ = root_set_in(p, limacon_inner(1.0, closed=True))
        assert ok
        ok_open, _ = root_set_in(p, limacon_inner(0.5))
        assert not ok_open

    def test_complement_region(self):
        p = Polynomial.from_roots([2.0, -3.0])
        ok, _ = root_set_in(p, complement(DomainSpec("UNIT_DISK_CLOSED")))
        assert ok


class TestCounterexample:
    def test_convolution_composes_argument(self):
        # binomial-weighted convolution with (1 - z/alpha)^n evaluates the
        # partner at -z/alpha
        rng = np.random.default_rng(9)
        n, alpha = 5, 1.3 - 0.4j
        P = counterexample_P(alpha, n)
        Q = Polynomial(rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1), n)
        conv = grace_szego(P, Q)
        want = Q.scale_argument(-1.0 / alpha)
        assert float(np.max(np.abs(conv.coeffs - want.coeffs))) < 1e-11

    def test_zero_alpha_rejected(self):
        with pytest.raises(BadParams):
            counterexample_P(0.0, 3)


class TestBoundaryAndReflection:
    def test_polyline_sits_on_zero_defect(self):
        d = limacon_inner(0.5)
        pts = boundary_polyline(d, samples=64)
        z = pts[:, 0] + 1j * pts[:, 1]
        defect = 1.0 - np.abs(z) - 0.5 * np.abs(1.0 + z)
        assert float(np.max(np.abs(defect))) < 1e-9

    def test_omega_polyline(self):
        tau, gamma = 2.0j, 0.4
        pts = boundary_polyline(omega(tau, gamma), samples=64)
        z = pts[:, 0] + 1j * pts[:, 1]
        defect = np.abs(tau - gamma * z) - np.abs(z)
        assert float(np.max(np.abs(defect))) < 1e-9

    def test_reflected_domain_parameters(self):
        d = omega(2.0j, 0.4)
        r = reflected_domain(d)
        assert r.kind == "OMEGA_CLOSED"
        assert abs(r.tau - (0.4 ** 2 - 1.0) / np.conj(2.0j)) < 1e-15
        with pytest.raises(OutOfRange):
            reflected_domain(omega(1.0, 1.0))

    def test_reflection_contains_inverted_exterior(self):
        # 1/conj(w) for w outside Omega lands in the reflected region
        tau, gamma = 1.5 + 0.5j, 0.6
        d = omega(tau, gamma)
        r = reflected_domain(d)
        rng = np.random.default_rng(12)
        for _ in range(200):
            z = rng.uniform(-4, 4) + 1j * rng.uniform(-4, 4)
            if z != 0 and contains(d, z) == OUT:
                assert contains(r, 1.0 / np.conj(z)) in (IN, BOUNDARY)


class TestSpecGuards:
    def test_bad_kind(self):
        with pytest.raises(BadParams):
            DomainSpec("PENTAGON")

    def test_omega_needs_tau(self):
        with pytest.raises(BadParams):
            DomainSpec("OMEGA", tau=0.0, gamma=0.5)

    @pytest.mark.parametrize("tau", [complex(math.nan, 0.0), complex(math.inf, 0.0),
                                     complex(1.0, -math.inf)])
    def test_omega_needs_finite_tau(self, tau):
        with pytest.raises(BadParams):
            DomainSpec("OMEGA_CLOSED", tau=tau, gamma=0.5)

    def test_complement_needs_inner(self):
        with pytest.raises(BadParams):
            DomainSpec("COMPLEMENT")
