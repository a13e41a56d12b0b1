"""Root finder, multiplicity clustering, circle tags, interspersion."""

import cmath
import math

import mpmath
import numpy as np
import pytest

from polyconv.classes import build_char_polys, extremal_family
from polyconv.errors import NoConvergence, NotOnCircle
from polyconv.poly import LambdaParam, Polynomial
from polyconv.qconv import q_extremal
from polyconv.roots import (
    ON,
    RootSet,
    _components,
    arg_separation,
    find_roots,
    interspersed,
)


class TestFindRoots:
    def test_simple_real_roots(self):
        rs = find_roots(Polynomial.from_roots([0.5, -2.0, 3.0]))
        locs = sorted(z.real for z, _ in rs.roots)
        assert np.allclose(locs, [-2.0, 0.5, 3.0], atol=1e-10)
        assert all(m == 1 for _, m in rs.roots)

    def test_origin_zeros_exact(self):
        p = Polynomial([0, 0, 0, 1.0, 1.0], 4)  # z^3 (1 + z)
        rs = find_roots(p)
        by_mult = {m: z for z, m in rs.roots}
        assert by_mult[3] == 0.0
        assert abs(by_mult[1] + 1.0) < 1e-12

    def test_sevenfold_circle_root(self):
        p = Polynomial.from_roots([np.exp(0.4j)] * 7)
        rs = find_roots(p)
        assert len(rs.roots) == 1
        z, m = rs.roots[0]
        assert m == 7
        assert abs(z - np.exp(0.4j)) < 1e-8

    def test_fivefold_plus_simple(self):
        w = np.exp(1.1j)
        p = Polynomial.from_roots([w] * 5 + [0.3, -2.5])
        rs = find_roots(p)
        mults = sorted(m for _, m in rs.roots)
        assert mults == [1, 1, 5]
        five = next(z for z, m in rs.roots if m == 5)
        assert abs(five - w) < 1e-8

    def test_close_distinct_pair_not_merged(self):
        # 1e-3 apart is far beyond double-root scatter; must stay simple
        p = Polynomial.from_roots([1.0, 1.0 + 1e-3])
        rs = find_roots(p)
        assert sorted(m for _, m in rs.roots) == [1, 1]

    def test_true_double_root(self):
        p = Polynomial.from_roots([0.7 + 0.2j] * 2)
        rs = find_roots(p)
        assert rs.roots[0][1] == 2

    def test_high_degree_reconstruction(self):
        rng = np.random.default_rng(11)
        roots = rng.normal(size=24) + 1j * rng.normal(size=24)
        rs = find_roots(Polynomial.from_roots(roots, leading=1.5))
        got = sorted(
            (z for z, m in rs.roots for _ in range(m)),
            key=lambda z: (z.real, z.imag))
        want = sorted(roots, key=lambda z: (z.real, z.imag))
        assert max(abs(a - b) for a, b in zip(got, want)) < 1e-6

    def test_nonconvergence_raised(self):
        # sqrt(1e-40) = 1e-20 lies below any float residual of this stiff
        # real-rooted polynomial, so the residual gate must fire
        p = Polynomial.from_roots(np.arange(1.0, 13.0))
        with pytest.raises(NoConvergence):
            find_roots(p, tol=1e-40)

    def test_rejects_constant(self):
        with pytest.raises(ValueError):
            find_roots(Polynomial([3.0], 0))

    def test_rejects_nan_coefficient(self):
        with pytest.raises(ValueError, match="non-finite coefficient.*z\\^1"):
            find_roots(Polynomial([1.0, math.nan, 1.0], 2))

    def test_rejects_nan_leading_coefficient(self):
        # exact_degree would read a NaN leading coefficient as zero
        with pytest.raises(ValueError, match="non-finite coefficient.*z\\^2"):
            find_roots(Polynomial([1.0, 2.0, complex(math.nan, 0.0)], 2))

    def test_rejects_inf_coefficient(self):
        with pytest.raises(ValueError, match="non-finite coefficient.*z\\^0"):
            find_roots(Polynomial([complex(0.0, math.inf), 1.0, 1.0], 2))


def link_reference(points, radius):
    """Single-linkage groups by pairwise loops: the reference for _components."""
    groups = [[i] for i in range(len(points))]
    merged = True
    while merged:
        merged = False
        for a in range(len(groups)):
            for b in range(a + 1, len(groups)):
                if any(abs(points[i] - points[j]) < radius
                       for i in groups[a] for j in groups[b]):
                    groups[a] += groups.pop(b)
                    merged = True
                    break
            if merged:
                break
    return sorted(sorted(g) for g in groups)


def test_components_match_single_linkage():
    rng = np.random.default_rng(3)
    for _ in range(200):
        k = int(rng.integers(1, 17))
        pts = rng.normal(size=k) + 1j * rng.normal(size=k)
        radius = float(rng.uniform(0.05, 1.0))
        adj = np.abs(pts[:, None] - pts[None, :]) < radius
        np.fill_diagonal(adj, False)
        got = sorted(sorted(int(i) for i in g) for g in _components(adj))
        assert got == link_reference(pts, radius)


def expanded(rs):
    """The roots of a RootSet, each repeated by its multiplicity."""
    return [z for z, m in rs.roots for _ in range(m)]


def match(got, want):
    """Pair each wanted root with a distinct nearest computed one."""
    left = list(got)
    pairs = []
    for w in want:
        i = min(range(len(left)), key=lambda k: abs(left[k] - w))
        pairs.append((left.pop(i), w))
    return pairs


class TestAgainstOracle:
    """The eigenvalue solve checked against mpmath and against known roots."""

    def test_random_polys_match_mpmath(self):
        rng = np.random.default_rng(20141405)
        for d in range(2, 17):
            for _ in range(3):
                c = rng.normal(size=d + 1) + 1j * rng.normal(size=d + 1)
                rs = find_roots(Polynomial(c, d))
                assert all(m == 1 for _, m in rs.roots)
                with mpmath.workdps(50):
                    want = mpmath.polyroots(
                        [mpmath.mpc(z.real, z.imag) for z in c[::-1]],
                        maxsteps=200, extraprec=100)
                    want = [complex(w) for w in want]
                pairs = match(expanded(rs), want)
                assert max(abs(g - w) for g, w in pairs) < 1e-8

    def check_known(self, roots_with_mult):
        """find_roots recovers the roots a polynomial was built from, with
        their multiplicities, and tags every root clear of the circle."""
        flat = [z for z, m in roots_with_mult for _ in range(m)]
        rs = find_roots(Polynomial.from_roots(flat, leading=0.7 - 0.2j))
        assert sorted(m for _, m in rs.roots) == sorted(m for _, m in roots_with_mult)
        got = [(z, m, t) for (z, m), t in zip(rs.roots, rs.tags())]
        for w, m in roots_with_mult:
            z, gm, t = min(got, key=lambda g: abs(g[0] - w))
            assert gm == m
            assert abs(z - w) < 1e-7
            if abs(abs(w) - 1.0) >= 1e-6:
                assert t == ("INSIDE" if abs(w) < 1.0 else "OUTSIDE")
            else:
                assert t == ON

    @pytest.mark.parametrize("m", range(2, 8))
    def test_multiple_circle_root_beside_simple_ones(self, m):
        w = cmath.exp(0.7j)
        self.check_known([(w, m), (0.3 * cmath.exp(2.5j), 1),
                          (2.2 * cmath.exp(-2.0j), 1), (cmath.exp(-1.9j), 1)])

    def reflected_pairs(self, r):
        pairs = []
        for theta in (0.4, 2.1, -1.3):
            e = cmath.exp(1j * theta)
            pairs += [(r * e, 1), (e / r, 1)]
        self.check_known(pairs + [(cmath.exp(3.0j), 2), (0.5j, 1)])

    @pytest.mark.parametrize("r", [1.0 - 1e-3, 1.0 + 1e-3])
    def test_reflected_pairs_stay_simple(self, r):
        self.reflected_pairs(r)

    @pytest.mark.xfail(strict=True, reason=(
        "a pair 2e-4 apart lies inside the m = 2 clustering radius "
        "3 * sqrt(CLUSTER_TOL) = 3e-4, and _is_multiple's relative test "
        "(MULTIPLE_REL_TOL = 1e-7) accepts it as one double zero tagged ON"))
    @pytest.mark.parametrize("r", [1.0 - 1e-4, 1.0 + 1e-4])
    def test_reflected_pairs_inside_cluster_radius(self, r):
        self.reflected_pairs(r)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_boundary_family_unimodular_zeros_are_even(self, n):
        # below about 0.32 * 2 pi / n, T's double zeros come out split off
        # the circle for n >= 5 (with Aberth iteration as well)
        for frac in (0.5, 0.85):
            lam = frac * 2.0 * math.pi / n
            F = extremal_family(n, lam, -1.0, 0.3, cmath.exp(0.9j)) - q_extremal(n, lam)
            rs = find_roots(build_char_polys(F, LambdaParam(n, lam)).T)
            on = [m for (_, m), t in zip(rs.roots, rs.tags()) if t == ON]
            assert on and all(m % 2 == 0 for m in on)
            assert sum(on) == 2 * (n - 1)


class TestTags:
    def test_circle_classification(self):
        rs = find_roots(Polynomial.from_roots([0.5, np.exp(0.3j), 2.0]))
        assert sorted(rs.tags()) == ["INSIDE", "ON", "OUTSIDE"]
        assert not rs.all_on_circle()
        assert not rs.all_inside()
        assert not rs.all_in_closed_disk()

    def test_disk_predicates(self):
        rs = find_roots(Polynomial.from_roots([0.2, 0.5j]))
        assert rs.all_inside()
        assert rs.all_in_closed_disk()
        assert rs.min_boundary_margin() == pytest.approx(0.5)

    def test_csv_format(self):
        rs = RootSet(((1.0 + 0.0j, 2),), 0.0)
        line = rs.to_csv()
        assert line == "1,0,2,ON"


class TestArgSeparation:
    def test_equally_spaced(self):
        roots = np.exp(2j * np.pi * np.arange(5) / 5)
        rs = find_roots(Polynomial.from_roots(roots))
        assert arg_separation(rs) == pytest.approx(2 * math.pi / 5, abs=1e-9)

    def test_multiplicity_gives_zero(self):
        rs = find_roots(Polynomial.from_roots([np.exp(0.5j)] * 2 + [-1.0]))
        assert arg_separation(rs) == 0.0

    def test_single_root_full_circle(self):
        rs = find_roots(Polynomial.from_roots([1.0]))
        assert arg_separation(rs) == pytest.approx(2 * math.pi)

    def test_off_circle_rejected(self):
        rs = find_roots(Polynomial.from_roots([0.5, 2.0]))
        with pytest.raises(NotOnCircle):
            arg_separation(rs)


def circle_poly(angles):
    return find_roots(Polynomial.from_roots(np.exp(1j * np.asarray(angles))))


class TestInterspersed:
    def test_alternating(self):
        p = circle_poly([0.0, 2.0, 4.0])
        q = circle_poly([1.0, 3.0, 5.0])
        assert interspersed(p, q)
        assert interspersed(p, q, strict=True)

    def test_not_alternating(self):
        p = circle_poly([0.0, 0.5, 4.0])
        q = circle_poly([1.0, 3.0, 5.0])
        assert not interspersed(p, q)

    def test_count_mismatch(self):
        assert not interspersed(circle_poly([0.0, 2.0]), circle_poly([1.0]))

    def test_coincident_pair_nonstrict_only(self):
        p = circle_poly([0.0, 2.0, 4.0])
        q = circle_poly([0.0, 3.0, 5.0])
        assert interspersed(p, q)
        assert not interspersed(p, q, strict=True)

    def test_double_zero_breaks_alternation(self):
        p = circle_poly([0.0, 0.0, 4.0])
        q = circle_poly([1.0, 3.0, 5.0])
        assert not interspersed(p, q)
