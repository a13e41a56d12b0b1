"""Region predicates: Möbius disk images, limaçons, complements."""

import math

import numpy as np
import pytest

from polyconv.errors import BadParams, OutOfRange
from polyconv.poly import Polynomial
from polyconv.domains import (
    _FAR,
    _defect,
    _ray_anchor,
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
        # a Python complex tau keeps _defect on Python floats, not numpy scalars
        assert type(r.tau) is complex
        assert type(_defect(r, 0.3 + 0.2j)) is float

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


def reference_polyline(d, samples):
    """boundary_polyline as a scalar loop: per ray, doubling to the first t
    with defect <= 0 (rays of every region still inside at 1e6 dropped),
    then 80 bisection steps.  The reference that the vectorized ray solve
    must match."""
    if d.kind == "COMPLEMENT":
        return reference_polyline(d.inner, samples)
    if d.kind in {"OMEGA", "OMEGA_CLOSED"}:
        center = mobius(d.tau, d.gamma, 0.0)
    elif d.kind in {"LIMACON_O", "LIMACON_O_CLOSED"}:
        center = complex(-(3.0 + d.gamma))
    else:
        center = 0.0 + 0.0j
    pts = []
    for t in np.linspace(0.0, 2.0 * math.pi, samples, endpoint=False):
        u = complex(math.cos(t), math.sin(t))
        lo, hi = 0.0, 1.0
        while _defect(d, center + hi * u) > 0 and hi < 1e6:
            lo, hi = hi, hi * 2.0
        if _defect(d, center + hi * u) > 0:
            continue
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if _defect(d, center + mid * u) > 0:
                lo = mid
            else:
                hi = mid
        z = center + 0.5 * (lo + hi) * u
        pts.append([z.real, z.imag])
    return np.array(pts).reshape(-1, 2)


def rounding_band(d, z):
    """How far along its ray a boundary point z can move while the defect
    stays within its rounding, 8 eps max(1, |z|), at the defect's slope
    there: negligible where the boundary crosses the ray at an angle, wide
    where the defect is flat, as on the far side of OMEGA with gamma near 1
    (slope 1 - gamma) and on half-plane rays nearly parallel to its edge."""
    if d.kind == "COMPLEMENT":
        d = d.inner
    center = _ray_anchor(d)[0]
    u = (z - center) / np.abs(z - center)
    h = 1e-6 * np.abs(z - center)
    slope = np.abs(_defect(d, z + h * u) - _defect(d, z - h * u)) / (2.0 * h)
    return 8.0 * np.finfo(float).eps * np.maximum(1.0, np.abs(z)) / slope


#: the algebra benchmark's regions, then far and unbounded OMEGA and
#: limaçons at gamma = 0 and 0.9
EQUIVALENCE_REGIONS = [
    DomainSpec("UNIT_DISK_OPEN"), DomainSpec("UNIT_DISK_CLOSED"),
    omega(1.0, 0.5), omega(2.0j, 0.25, closed=True), omega(0.5 - 1.0j, 0.9),
    limacon_inner(0.25), limacon_inner(0.5, closed=True), limacon_inner(0.9),
    limacon_outer(0.25), limacon_outer(0.5, closed=True), complement(omega(1.0, 0.5)),
    omega(1.0, 0.99999), omega(0.5 - 1.0j, 0.99999, closed=True),
    omega(1.0, 1.0), omega(0.5 - 1.0j, 1.0),
    limacon_inner(0.0), limacon_outer(0.0), limacon_outer(0.9, closed=True),
]


class TestBoundaryRaySolve:
    @pytest.mark.parametrize("samples", [1, 7, 32, 256])
    def test_matches_scalar_bisection(self, samples):
        for d in EQUIVALENCE_REGIONS:
            got = boundary_polyline(d, samples)
            want = reference_polyline(d, samples)
            assert got.shape == want.shape, d
            z = got[:, 0] + 1j * got[:, 1]
            w = want[:, 0] + 1j * want[:, 1]
            tol = 1e-12 * np.maximum(1.0, np.abs(w)) + rounding_band(d, w)
            assert np.all(np.abs(z - w) <= tol), d

    def test_defect_scalar_path_stays_python_float(self):
        # contains calls _defect on one Python complex; that path must stay
        # in Python floats, which cost less per operation than numpy scalars
        for d in [DomainSpec("UNIT_DISK_OPEN"), DomainSpec("UNIT_DISK_CLOSED"),
                  omega(1.0 - 0.5j, 0.3), omega(2.0j, 1.0, closed=True),
                  limacon_inner(0.4), limacon_inner(1.0, closed=True),
                  limacon_outer(0.4), limacon_outer(1.0, closed=True)]:
            assert type(_defect(d, 0.3 - 0.2j)) is float, d.kind

    def test_far_bounded_boundary_keeps_every_ray(self):
        # the boundary reaches |z| = 1/(1 - gamma) = 1e7, past the 1e6 that
        # marks an unbounded ray; 17 of 32 points came back
        d = omega(1.0, 0.9999999)
        pts = boundary_polyline(d, samples=32)
        assert pts.shape == (32, 2)
        z = pts[:, 0] + 1j * pts[:, 1]
        assert np.max(np.abs(z)) > _FAR
        assert np.all(np.abs(_defect(d, z)) <= 1e-12 * np.maximum(1.0, np.abs(z)))

    def test_boundary_beyond_float_range_rejected(self):
        with pytest.raises(OutOfRange):
            boundary_polyline(omega(1e308, 0.5), samples=4)

    @pytest.mark.parametrize("d", [limacon_inner(1.0, closed=True),
                                   limacon_outer(1.0, closed=True)])
    def test_degenerate_segments_rejected(self, d):
        # the segments [-1, 0] and (-inf, -1] have no interior; the anchor
        # came back once per ray
        with pytest.raises(BadParams):
            boundary_polyline(d, samples=4)

    def test_no_crossing_ray_gives_empty_rows(self):
        # the one ray points away from tau = -1 into the half-plane
        pts = boundary_polyline(omega(-1.0, 1.0), samples=1)
        assert pts.shape == (0, 2)
        assert pts[:, 0].size == 0


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
