"""Root finder, inclusion-disk multiplicities, circle tags, interspersion."""

import ast
import cmath
import math
from pathlib import Path

import mpmath
import numpy as np
import pytest

import polyconv
from conftest import stress_draw
from polyconv.classes import build_char_polys, extremal_family
from polyconv.errors import NoConvergence, NotOnCircle
from polyconv.harness import run_gauss_lucas_trial
from polyconv.poly import LambdaParam, Polynomial
from polyconv.qconv import q_extremal
from polyconv.roots import (
    CIRCLE_TOL,
    NEWTON_STEPS,
    ON,
    OUTSIDE,
    RootSet,
    _circle_sign,
    _companion_roots,
    _components,
    _inclusion_radii,
    _refine_multiple,
    all_zeros_within,
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

    def test_nonconvergence_raised(self, monkeypatch):
        # sqrt(1e-40) = 1e-20 lies below any float residual of this stiff
        # real-rooted polynomial, so the residual gate must fire
        monkeypatch.setattr(polyconv.roots, "RESIDUAL_TOL", 1e-40)
        p = Polynomial.from_roots(np.arange(1.0, 13.0))
        # a call that raises keeps no root set, so a second call raises too
        for _ in range(2):
            with pytest.raises(NoConvergence):
                find_roots(p)
        monkeypatch.undo()
        assert find_roots(p) is find_roots(p)

    def test_rejects_constant(self):
        with pytest.raises(ValueError):
            find_roots(Polynomial([3.0], 0))

    # a non-finite coefficient is refused where a polynomial is made, so
    # no root find (or convolution, or difference operator) ever sees one
    def test_rejects_nan_coefficient(self):
        with pytest.raises(ValueError, match="non-finite coefficient.*z\\^1"):
            Polynomial([1.0, math.nan, 1.0], 2)

    def test_rejects_nan_leading_coefficient(self):
        # exact_degree would read a NaN leading coefficient as zero
        with pytest.raises(ValueError, match="non-finite coefficient.*z\\^2"):
            Polynomial([1.0, 2.0, complex(math.nan, 0.0)], 2)

    def test_rejects_inf_coefficient(self):
        with pytest.raises(ValueError, match="non-finite coefficient.*z\\^0"):
            Polynomial([complex(0.0, math.inf), 1.0, 1.0], 2)

    @pytest.mark.parametrize("scale", [1e308, 1e-320, 1.5e308 + 1.5e308j])
    def test_roots_do_not_depend_on_a_common_scale(self, scale):
        # 1e308 (1 + z + z^2) came out as one double root at -0.5, and at
        # 1e-320 (subnormal coefficients) numpy's eigensolver raised; a
        # finite coefficient whose modulus overflows must scale down too
        rs = find_roots(Polynomial([scale] * 3, 2))
        want = np.exp(2j * np.pi * np.array([-1.0, 1.0]) / 3.0)
        assert [m for _, m in rs.roots] == [1, 1]
        assert np.allclose([z for z, _ in rs.roots], want, atol=1e-12)
        assert rs.residual < 1e-15


def link_reference(size, linked):
    """Single-linkage groups of range(size) under the pair predicate linked,
    by pairwise loops: the reference for _components."""
    groups = [[i] for i in range(size)]
    merged = True
    while merged:
        merged = False
        for a in range(len(groups)):
            for b in range(a + 1, len(groups)):
                if any(linked(i, j) for i in groups[a] for j in groups[b]):
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
        assert got == link_reference(k, lambda i, j: abs(pts[i] - pts[j]) < radius)


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

    @pytest.mark.parametrize("r", [1.0 - 1e-4, 1.0 + 1e-4])
    def test_reflected_pairs_inside_cluster_radius(self, r):
        self.reflected_pairs(r)

    def test_crowded_unimodular_zeros_stay_simple(self, crowded_split):
        # second-route split halves, whose zeros mpmath puts on the circle to
        # 60 digits (tests/test_classes.py): three of Q's in draw 1036, 1.0e-3
        # and 3.2e-3 apart in angle, once came out as a triple zero 1.2e-5
        # inside; P's and Q's in draw 3129 as triple zeros; four of Q's in
        # draw 3782 as a 4-fold zero 1.3e-3 inside
        _, _, P, Q = stress_draw(3129)
        for half in (crowded_split[3], P, Q, stress_draw(3782)[3]):
            rs = find_roots(half)
            assert rs.all_on_circle() and all(m == 1 for _, m in rs.roots)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_boundary_family_unimodular_zeros_are_even(self, n):
        # below about 0.32 * 2 pi / n, T's double zeros come out split off
        # the circle for n >= 5 (with Aberth iteration as well)
        for frac in (0.5, 0.85):
            lam = frac * 2.0 * math.pi / n
            F = extremal_family(n, lam, -1.0, 0.3, cmath.exp(0.9j)) - q_extremal(n, lam)
            rs = find_roots(build_char_polys(F, LambdaParam(n, lam)))
            on = [m for (_, m), t in zip(rs.roots, rs.tags()) if t == ON]
            assert on and all(m % 2 == 0 for m in on)
            assert sum(on) == 2 * (n - 1)


#: an n = 8 convolution of a main-theorem trial (perfbench `trials` input,
#: seed 1): eight simple zeros, which a radius-ladder multiplicity rule read
#: as a 5-fold zero at |z| = 0.0236 beside three simple ones
MAIN_TRIAL_CONVOLUTION = [
    -3.5809311879713587e-09 + 8.313322018694459e-08j,
    1.775249274320201e-07 - 1.31839440059988e-06j,
    -8.316355647635714e-06 + 8.74205365990948e-06j,
    4.226418770786768e-05 + 1.5010907131320075e-05j,
    -1.630591058922451e-05 - 6.197109597475766e-05j,
    0.000638583505618231 + 0.0013989909080835215j,
    -0.023905064377695528 + 0.002074183888236283j,
    0.02084361679363053 - 0.46861600740084497j,
    6.075673497372658 + 8.242168505550595j,
]

#: the lambda = 0 difference-operator image of the first draw of
#: run_gauss_lucas_trial(8, 0.0, 3, 1764631490): a 5-fold and a simple
#: unimodular zero, and a simple zero at |z| = 0.911, 0.09 from the circle
GAUSS_LUCAS_IMAGE = [
    0.8791864984291833 - 0.2398346100579126j,
    3.1147862120703147 - 5.0818759050749795j,
    -3.340903677882298 - 16.835771422611494j,
    -22.74958806735303 - 16.69733591453489j,
    -28.438278861587015 + 3.1001716439623106j,
    -11.742947245618264 + 13.485154531557702j,
    0.24342972943998709 + 6.374537582265316j,
    0.7222920929201546 + 0.6915881234557333j,
]


def mp_zeros(c, dps=60):
    """The zeros of the ascending coefficients c, by mpmath at dps digits."""
    with mpmath.workdps(dps):
        want = mpmath.polyroots([mpmath.mpc(z.real, z.imag) for z in np.asarray(c)[::-1]],
                                maxsteps=500, extraprec=4 * dps)
        return [complex(w) for w in want]


def clustered_coeffs(rng, d):
    """A degree-d polynomial whose zeros come in clusters of up to four,
    10^-7 to 10^-2 across, some of them exact repeats."""
    zeros = []
    while len(zeros) < d:
        centre = rng.uniform(0.2, 1.8) * np.exp(2j * np.pi * rng.uniform())
        k = min(d - len(zeros), int(rng.integers(1, 5)))
        spread = 10 ** rng.uniform(-7, -2) * (rng.random() < 0.8)
        zeros += list(centre + spread * np.exp(2j * np.pi * rng.uniform(size=k)))
    return Polynomial.from_roots(zeros, leading=0.7 - 0.2j).coeffs


class TestInclusionDisks:
    """Multiplicities decided by overlapping inclusion disks."""

    def test_disk_groups_hold_their_count_of_zeros(self):
        # Neumaier's theorem: a connected group of k overlapping disks about
        # the eigenvalues holds exactly k zeros.  At the zeros of the
        # Chebyshev polynomial T_d, p(z_k) cancels to rounding level, and the
        # disks of T_9 and T_11 miss zeros without the rounding term e_k
        rng = np.random.default_rng(2003)
        for d in range(2, 17):
            cheb = np.polynomial.chebyshev.cheb2poly([0] * d + [1]).astype(complex)
            for c in (rng.normal(size=d + 1) + 1j * rng.normal(size=d + 1),
                      clustered_coeffs(rng, d), clustered_coeffs(rng, d), cheb):
                z = _companion_roots(c)
                r = _inclusion_radii(c, z, np.ones(d))
                assert np.all(np.isfinite(r))
                overlap = ~(np.abs(np.subtract.outer(z, z)) > np.add.outer(r, r))
                np.fill_diagonal(overlap, False)
                want = mp_zeros(c)
                held = 0
                for g in _components(overlap):
                    inside = sum(bool(np.any(np.abs(w - z[g]) <= r[g])) for w in want)
                    assert inside == g.size
                    held += inside
                assert held == d

    def test_main_trial_convolution_zeros_stay_simple(self):
        rs = find_roots(Polynomial(MAIN_TRIAL_CONVOLUTION))
        assert [m for _, m in rs.roots] == [1] * 8
        pairs = match(expanded(rs), mp_zeros(MAIN_TRIAL_CONVOLUTION))
        assert max(abs(g - w) for g, w in pairs) < 1e-12

    def test_close_zeros_need_the_polished_disks(self):
        # stress draw 3998: two zeros of F 3.1e-4 apart, whose disks overlap
        # at the raw eigenvalues and not at the polished points
        rs = find_roots(stress_draw(3998)[0])
        assert [m for _, m in rs.roots] == [1] * 15

    def test_distant_zero_needs_the_eigenvalue_disks(self):
        # at the polished points alone the disks of all seven zeros overlap,
        # and one 7-fold zero at |z| = 0.911 would hide the unimodular ones
        rs = find_roots(Polynomial(GAUSS_LUCAS_IMAGE))
        assert sorted(m for _, m in rs.roots) == [1, 1, 5]
        assert sorted(rs.tags()) == ["INSIDE", ON, ON]
        assert run_gauss_lucas_trial(8, 0.0, 3, 1764631490).worst_margin == CIRCLE_TOL

    def test_multiple_zero_centre_is_refined(self):
        # stress draw 2954: P's two zeros 9e-5 apart on the circle overlap
        # as one double zero; the centroid of its two eigenvalues lies
        # 1.16e-7 outside the circle, Newton on P' brings it within 1e-8
        rs = find_roots(stress_draw(2954)[2])
        assert sorted(m for _, m in rs.roots) == [1] * 12 + [2]
        assert rs.all_on_circle()
        double = next(z for z, m in rs.roots if m == 2)
        assert abs(abs(double) - 1.0) < 1e-8


#: the radii the routes certify at: the open-tag band 1 - 2 CIRCLE_TOL,
#: the ON band's inner edge and the circle itself
BAND_RADII = (1.0 - 2.0 * CIRCLE_TOL, 1.0 - CIRCLE_TOL, 1.0)


def mp_outermost(c, dps=50):
    """The largest modulus among mpmath's zeros of the ascending
    coefficients c, at dps digits (an mpf, not rounded to a double)."""
    with mpmath.workdps(dps):
        zs = mpmath.polyroots([mpmath.mpc(z.real, z.imag) for z in np.asarray(c)[::-1]],
                              maxsteps=600, extraprec=4 * dps)
        return max(abs(z) for z in zs)


def near_band_draws():
    """(p, r): degree 1 to 16, one zero of multiplicity 1, 2 or 3 at
    1e-9 to 1e-5 inside or outside r, the others at modulus 0.05 to 0.95 r."""
    rng = np.random.default_rng(1917)
    for d in range(1, 17):
        mult = min(d, 1 + d % 3)
        for r in BAND_RADII:
            for side in (-1.0, 1.0):
                near = (r + side * 10 ** rng.uniform(-9, -5)) * cmath.exp(
                    2j * math.pi * rng.uniform())
                rest = rng.uniform(0.05, 0.95, d - mult) * r * np.exp(
                    2j * math.pi * rng.uniform(size=d - mult))
                lead = cmath.exp(2j * math.pi * rng.uniform())
                yield Polynomial.from_roots([near] * mult + list(rest), leading=lead), r


class TestAllZerosWithin:
    """The Schur-Cohn certificate against find_roots and mpmath."""

    def check(self, p, r):
        """all_zeros_within(p, r); a True answer is checked against mpmath
        (every zero below r) and against find_roots' tags (all INSIDE at
        r = 1 - 2 CIRCLE_TOL, none OUTSIDE at any r <= 1)."""
        ok = all_zeros_within(p, r)
        if ok:
            assert mp_outermost(p.coeffs) < r, (p, r)
            tags = find_roots(p).tags()
            assert OUTSIDE not in tags
            if r == BAND_RADII[0]:
                assert tags == ["INSIDE"] * len(tags)
        return ok

    def test_near_band_zeros_against_mpmath_and_find_roots(self):
        # 18 of the 48 draws with the near zero inside certify (none outside can)
        assert sum(self.check(p, r) for p, r in near_band_draws()) >= 15

    def test_true_means_every_mpmath_zero_below_r(self):
        # every zero 1e-9 to 1e-1 from r, almost all of them inside
        rng = np.random.default_rng(1002)
        fired = 0
        for k in range(200):
            d, r = int(rng.integers(2, 17)), BAND_RADII[k % 3]
            side = np.where(rng.uniform(size=d) < 0.97, -1.0, 1.0)
            z = (r + side * 10 ** rng.uniform(-9, -1, d)) * np.exp(
                2j * math.pi * rng.uniform(size=d))
            fired += self.check(Polynomial.from_roots(z, leading=cmath.exp(1j * k)), r)
        assert fired >= 50, fired

    def test_multiple_zeros_by_the_band(self):
        # double and triple zeros 1e-9 to 1e-5 inside and outside each radius:
        # rounding splits them by up to eps^(1/m) about their nominal place
        for d, m in ((2, 2), (3, 3), (6, 2), (9, 3), (16, 2), (16, 3)):
            for r in BAND_RADII:
                for delta in (-1e-5, -1e-7, -1e-9, 1e-9, 1e-7, 1e-5):
                    rest = 0.5 * np.exp(2j * math.pi * np.arange(d - m) / max(d - m, 1))
                    p = Polynomial.from_roots([(r + delta) * cmath.exp(0.3j)] * m + list(rest))
                    self.check(p, r)

    def test_zeros_on_the_circle_are_not_inside(self):
        for d in range(1, 17):
            p = Polynomial.from_roots(np.exp(2j * math.pi * (np.arange(d) + 0.3) / d))
            for r in BAND_RADII:
                assert not self.check(p, r)
            # |a_0| = |a_n| with zeros off the circle: their product has modulus 1
            c = np.zeros(d + 1, dtype=complex)
            c[0], c[-1] = 1j, 1.0
            c[1:-1] = 0.3 / d
            for r in BAND_RADII:
                assert not all_zeros_within(Polynomial(c, d), r)

    def test_zeros_well_inside_certify_at_every_degree(self):
        rng = np.random.default_rng(1922)
        for d in range(1, 17):
            for _ in range(3):
                z = rng.uniform(0.0, 0.9, d) * np.exp(2j * math.pi * rng.uniform(size=d))
                p = Polynomial.from_roots(z, leading=1.0 - 2.0j)
                assert find_roots(p).all_inside()
                assert all(all_zeros_within(p, r) for r in BAND_RADII), d
                # and the n-inverse, whose zeros are 1 / conj(z), never does
                assert not all_zeros_within(p.n_inverse(), 1.0)

    def test_declines_degenerate_input(self):
        assert not all_zeros_within(Polynomial([2.0], 0), 1.0)
        assert not all_zeros_within(Polynomial([0.0, 0.0], 1), 1.0)
        # a zero at the origin is inside, at any scale of the coefficients
        for scale in (1e-250, 1.0, 1e250):
            assert all_zeros_within(Polynomial([0.0, 0.5 * scale, scale], 2), 1.0)


def reference_radius(c, w, k):
    """The inclusion radius (m = 1) of w[k] as a zero of the polynomial of
    ascending coefficients c, by loops: the reference for _inclusion_radii."""
    d = len(c) - 1
    val = sum(c[j] * w[k] ** j for j in range(d + 1))
    err = 4.0 * d * np.finfo(float).eps * sum(abs(c[j]) * abs(w[k]) ** j for j in range(d + 1))
    den = abs(c[d]) * math.prod(abs(w[k] - w[j]) for j in range(len(w)) if j != k)
    return d * (abs(val) + err) / den if den > 0.0 else math.inf


def reference_find_roots(p):
    """find_roots with the polish by two np.polyval calls, the disk overlaps
    and their groups by pairwise loops, and np.angle in the sort key: the
    reference that find_roots must match bit for bit."""
    d = p.exact_degree
    c = np.array(p.coeffs[: d + 1])
    scale = float(np.max(np.abs(c)))
    k0 = 0
    while abs(c[k0]) == 0.0:
        k0 += 1
    c = c[k0:]
    eig = _companion_roots(c) if c.size > 1 else np.array([], dtype=complex)
    approx = eig
    rev = c[::-1] / c[-1]
    drev = (c[1:] * np.arange(1, c.size))[::-1] / c[-1]
    for _ in range(3):
        pv = np.polyval(rev, approx)
        dv = np.polyval(drev, approx)
        step = np.where(np.abs(dv) > 1e-300, pv / dv, 0.0)
        step = np.where(np.abs(step) < 0.1, step, 0.0)
        approx = approx - step
    # the disks of the plane that _companion_roots solved in
    flip = abs(c[0]) > abs(c[-1])
    cs = c[::-1] if flip else c
    disks = []
    for x in (eig, approx):
        w = [1.0 / z if flip else z for z in x]
        disks.append((w, [reference_radius(cs, w, k) for k in range(len(w))]))

    def overlap(i, j):
        return all(not abs(w[i] - w[j]) > r[i] + r[j] for w, r in disks)

    found = []
    for g in link_reference(approx.size, overlap):
        if len(g) == 1:
            found.append((complex(approx[g[0]]), 1))
            continue
        centroid = complex(np.mean(eig[g]))
        spread = max(abs(eig[i] - centroid) for i in g)
        found.append((_refine_multiple(np.polyder(rev, len(g) - 1), centroid, spread), len(g)))
    if k0:
        found.append((0.0 + 0.0j, k0))
    simple = [z for z, m in found if m == 1]
    residual = 0.0
    if simple:
        vals = np.abs(p.eval_many(simple))
        residual = float(np.max(vals / (scale * np.maximum(1.0, np.abs(simple)) ** d)))
    found.sort(key=lambda rm: (round(abs(rm[0]), 12), np.angle(rm[0])))
    return tuple(found), residual


def reference_cases():
    """Seeded polynomials of degree 1-16, m-fold unimodular roots for
    m = 2-8 beside simple ones, and reflected pairs about the circle."""
    rng = np.random.default_rng(1010)
    for d in range(1, 17):
        for _ in range(4):
            yield rng.normal(size=d + 1) + 1j * rng.normal(size=d + 1)
        roots = 0.95 * np.sqrt(rng.uniform(size=d)) * np.exp(2j * np.pi * rng.uniform(size=d))
        c = Polynomial.from_roots(roots).coeffs.copy()
        c[: d // 4] = 0.0  # zeros at the origin
        yield c
    for m in range(2, 9):
        for _ in range(3):
            w = cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
            others = list(rng.uniform(0.3, 1.7, size=int(rng.integers(0, 5)))
                          * np.exp(2j * np.pi * rng.uniform(size=1)))
            yield Polynomial.from_roots([w] * m + others, leading=0.7 - 0.2j).coeffs
    for r in (1.0 - 1e-3, 1.0 + 1e-3, 1.0 + 1e-4, 1.3):
        for _ in range(3):
            e = np.exp(2j * np.pi * rng.uniform(size=3))
            yield Polynomial.from_roots(list(r * e) + list(e / r) + [0.5j]).coeffs


def test_find_roots_matches_reference_bit_for_bit():
    for c in reference_cases():
        p = Polynomial(c)
        rs = find_roots(p)
        assert (rs.roots, rs.residual) == reference_find_roots(p)


def edge_reference_cases():
    """Seeded polynomials of degree 1, whose polish and residual run on one
    point, and with exactly one zero at the origin, which is a simple root,
    so the residual is taken there too, beside simple and multiple zeros."""
    rng = np.random.default_rng(1011)
    for _ in range(40):
        yield rng.normal(size=2) + 1j * rng.normal(size=2)
    for d in range(1, 17):
        for _ in range(3):
            c = rng.normal(size=d + 1) + 1j * rng.normal(size=d + 1)
            c[0] = 0.0
            yield c
        if d >= 3:
            w = cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
            others = list(rng.uniform(0.3, 1.7, size=d - 3) * np.exp(2j * np.pi * rng.uniform(size=d - 3)))
            yield Polynomial.from_roots([0.0, w, w] + others).coeffs


def test_find_roots_matches_reference_at_degree_one_and_one_zero_at_the_origin():
    seen = set()
    for c in edge_reference_cases():
        p = Polynomial(c)
        rs = find_roots(p)
        assert (rs.roots, rs.residual) == reference_find_roots(p)
        seen.add((p.exact_degree, sum(m for z, m in rs.roots if z == 0.0),
                  any(m > 1 for z, m in rs.roots if z != 0.0)))
    # degree 1 without and with the zero at the origin, and that zero beside
    # a cluster
    assert {(1, 0, False), (1, 1, False), (3, 1, True)} <= seen


class TestRootSetKept:
    """find_roots keeps the root set on the polynomial, which is immutable."""

    def test_a_second_call_returns_the_kept_root_set(self):
        p = Polynomial.from_roots([0.5, -2.0j, 1.5 + 0.1j])
        rs = find_roots(p)
        assert find_roots(p) is rs
        # an equal polynomial is another object, found again to the same roots
        q = Polynomial(p.coeffs)
        assert find_roots(q) is not rs and find_roots(q) == rs


def zoom_circle_sign(A, B, zooms=6):
    """_circle_sign with each node minimum refined on a 33-point grid zoomed
    `zooms` times by 16, as it was before Newton's method replaced the
    zooms, and oriented as it is now: it tests s >= 0.  Returns (margin,
    indeterminate, least node value)."""
    k = np.arange(len(A))
    AB = np.stack([A, B], axis=1)
    eA, eB = 4.0 * len(A) * np.finfo(float).eps * np.sum(np.abs(AB), axis=0)

    def sign(x):
        ab = np.exp(1j * np.multiply.outer(x, k)) @ AB
        a, b = ab[..., 0], ab[..., 1]
        s = np.imag(a * np.conj(b))
        den = np.abs(a) ** 2 + np.abs(b) ** 2
        g = np.divide(s, den, out=np.zeros_like(s), where=den > 0.0)
        return s, g, np.abs(a) * eB + np.abs(b) * eA + eA * eB

    m = max(64, 32 * len(A))
    x = 2.0 * np.pi * np.arange(m) / m
    s, g, err = sign(x)
    node_min = float(np.min(g))
    x = x[np.union1d(np.flatnonzero((g < np.roll(g, 1)) & (g <= np.roll(g, -1))),
                     [np.argmin(g)])]
    w = 2.0 * np.pi / m
    for _ in range(zooms):
        pts = x[:, None] + w * np.linspace(-1.0, 1.0, 33)
        x = pts[np.arange(x.size), np.argmin(sign(pts)[1], axis=1)]
        w /= 16.0
    s, g, err = sign(x)
    i = int(np.argmin(g))
    return float(g[i]), not bool(np.any(s < -err)) and not bool(np.all(s > err)), node_min


#: s, s', s'', q, q', q'' (derivatives in phi, q = |a|^2 + |b|^2) as sums of
#: w Im or w Re of x conj(y), x and y among v = (a, b, a', b', a'', b''):
#: (form, part, w, x, y)
_FORM_TERMS = (
    (0, "im", 1, 0, 1),                                          # Im a b*
    (1, "im", 1, 2, 1), (1, "im", 1, 0, 3),                      # Im(a' b* + a b'*)
    (2, "im", 1, 4, 1), (2, "im", 2, 2, 3), (2, "im", 1, 0, 5),  # Im(a'' b* + 2 a' b'* + a b''*)
    (3, "re", 1, 0, 0), (3, "re", 1, 1, 1),                      # |a|^2 + |b|^2
    (4, "re", 2, 2, 0), (4, "re", 2, 3, 1),                      # 2 Re(a' a* + b' b*)
    (5, "re", 2, 4, 0), (5, "re", 2, 5, 1),                      # 2 Re(a'' a* + b'' b*
    (5, "re", 2, 2, 2), (5, "re", 2, 3, 3),                      #      + |a'|^2 + |b'|^2)
)
_FORM_X = np.array([t[3] for t in _FORM_TERMS])
_FORM_Y = np.array([t[4] for t in _FORM_TERMS])
#: the weights w by term and form, of the imaginary and of the real parts
_FORM_IM, _FORM_RE = (
    np.array([[t[2] * (t[0] == f and t[1] == part) for f in range(6)] for t in _FORM_TERMS],
             dtype=float)
    for part in ("im", "re"))


def reference_circle_sign(A, B):
    """_circle_sign with every node minimum refined at once by stacked numpy
    Newton steps, which stop only at a step of 1e-13 for all of them, as it
    was before the scalar steps with their rounding-level stop, and oriented
    as it is now: it tests s >= 0.  Returns (margin, indeterminate, least
    node value, circle point of the margin)."""
    k = np.arange(len(A))
    AB = np.stack([A, B], axis=1)
    eA, eB = 4.0 * len(A) * np.finfo(float).eps * np.sum(np.abs(AB), axis=0)

    def sign(a, b):
        s = np.imag(a * np.conj(b))
        q = np.abs(a) ** 2 + np.abs(b) ** 2
        g = np.divide(s, q, out=np.zeros_like(s), where=q > 0.0)
        return s, g, np.abs(a) * eB + np.abs(b) * eA + eA * eB

    m = max(64, 32 * len(A))
    x = 2.0 * np.pi * np.arange(m) / m
    s0, t, err0 = sign(*(np.exp(1j * np.multiply.outer(x, k)) @ AB).T)
    tt = np.concatenate([t[-1:], t, t[:1]])
    low = (t < tt[:-2]) & (t <= tt[2:])
    low[np.argmin(t)] = True
    i = np.flatnonzero(low)
    w = x[1]
    tl, t0, tr = tt[i], t[i], tt[i + 2]
    curv = tl - 2.0 * t0 + tr
    lo, hi = x[i] - w, x[i] + w
    xs = x[i] + np.divide(0.5 * w * (tl - tr), curv, out=np.zeros_like(curv),
                          where=curv > 0.0)
    cols = np.stack([A, B, 1j * k * A, 1j * k * B, -k * k * A, -k * k * B], axis=1)
    nxt = xs
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(NEWTON_STEPS):
            xs = nxt
            v = np.exp(1j * np.multiply.outer(xs, k)) @ cols
            p = v[:, _FORM_X] * np.conj(v[:, _FORM_Y])
            s, ds, dds, q, dq, ddq = (p.imag @ _FORM_IM + p.real @ _FORM_RE).T
            dg = (ds * q - s * dq) / q**2
            ddg = (dds * q - s * ddq) / q**2 - 2.0 * dq * dg / q
            lo = np.where(dg < 0.0, xs, lo)
            hi = np.where(dg > 0.0, xs, hi)
            nxt = xs - dg / ddg
            nxt = np.where((ddg > 0.0) & (q > 0.0) & (lo <= nxt) & (nxt <= hi),
                           nxt, 0.5 * (lo + hi))
            if np.abs(nxt - xs).max() <= 1e-13:
                break
    s, g, err = sign(v[:, 0], v[:, 1])
    node = g > t0
    s = np.where(node, s0[i], s)
    g = np.where(node, t[i], g)
    err = np.where(node, err0[i], err)
    xs = np.where(node, x[i], xs)
    j = int(np.argmin(g))
    return (float(g[j]), not bool(np.any(s < -err)) and not bool(np.all(s > err)),
            float(t.min()), complex(np.exp(1j * xs[j])))


def g_rounding(A, B, z):
    """_circle_sign's rounding bound on s at z, divided by |a|^2 + |b|^2:
    how far rounding alone can move g there."""
    eA = 4.0 * len(A) * np.finfo(float).eps * np.sum(np.abs(A))
    eB = 4.0 * len(B) * np.finfo(float).eps * np.sum(np.abs(B))
    a = np.polyval(np.asarray(A)[::-1], z)
    b = np.polyval(np.asarray(B)[::-1], z)
    return (abs(a) * eB + abs(b) * eA + eA * eB) / (abs(a) ** 2 + abs(b) ** 2)


def third_route_pair(F, n, h):
    """The pair e^{-inh} F(e^{ih} z), F(e^{-ih} z) of in_D_third."""
    return cmath.exp(-1j * n * h) * F.rotate(h).coeffs, F.rotate(-h).coeffs


def random_pairs():
    """Third-route pairs, zeros of F inside and outside the disk, degree 1-16."""
    rng = np.random.default_rng(20261018)
    for t in range(200):
        n = 1 + t % 16
        radius = rng.uniform(0.3, 1.1)
        F = Polynomial.from_roots(radius * np.sqrt(rng.uniform(size=n))
                                  * np.exp(2j * np.pi * rng.uniform(size=n)))
        yield third_route_pair(F, n, 0.5 * rng.uniform(0.05, 0.95) * 2.0 * math.pi / n)


def boundary_pairs():
    """Third-route pairs of the boundary family P - Q_n at small lambda,
    degree 8-16: s touches 0 at many minima, where g is rounding noise."""
    rng = np.random.default_rng(1515)
    for t in range(18):
        n = 8 + t % 9
        lam = float(rng.uniform(0.03, 0.2)) * 2.0 * math.pi / n
        c = cmath.exp(1j * rng.uniform(0.1, math.pi - 0.1))
        F = extremal_family(n, lam, -float(rng.uniform(0.2, 2.0)), float(rng.normal()),
                            c) - q_extremal(n, lam)
        yield third_route_pair(F, n, lam / 2.0)


class TestCircleSign:
    @pytest.mark.parametrize("pairs", [random_pairs, boundary_pairs])
    def test_scalar_newton_against_stacked_reference(self, pairs):
        for A, B in pairs():
            margin, indet, z = _circle_sign(A, B)
            ref, ref_indet, node_min, ref_z = reference_circle_sign(A, B)
            assert indet == ref_indet
            assert margin <= node_min
            # where g is rounding noise the two may settle on different
            # minima: each value is good to the rounding at its own point
            assert abs(margin - ref) <= 1e-12 + max(g_rounding(A, B, z),
                                                     g_rounding(A, B, ref_z))

    def test_newton_against_zooms(self):
        for A, B in random_pairs():
            margin, indet, z = _circle_sign(A, B)
            _, zoom_indet, node_min = zoom_circle_sign(A, B)
            dense, _, _ = zoom_circle_sign(A, B, zooms=12)
            assert margin <= node_min
            assert indet == zoom_indet
            # where a and b are small against their coefficients, g is noisy
            # within its rounding bound, and the dense zoom reads the lowest
            # of its noisy samples
            assert abs(margin - dense) <= 1e-12 + g_rounding(A, B, z)

    def test_shared_zero_on_the_circle(self):
        # A = z - 1 and B = i (z - 1)^2 vanish together at z = 1, where
        # s = Im(A conj B) touches 0 and q = |A|^2 + |B|^2 is 0
        A = np.array([-1.0, 1.0, 0.0], dtype=complex)
        B = 1j * np.array([1.0, -2.0, 1.0])
        margin, indet, z = _circle_sign(A, B)
        assert not math.isnan(margin)
        assert indet
        assert abs(z - 1.0) < 1e-12


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

    def test_csv_format(self):
        rs = RootSet(((1.0 + 0.0j, 2),), 0.0)
        line = rs.to_csv()
        assert line == "1,0,2,ON"

    def test_outermost_is_the_first_of_largest_modulus(self):
        rs = RootSet(((0.5 + 0.0j, 1), (2.0j, 1), (-2.0 + 0.0j, 2), (1.0 + 0.0j, 1)), 0.0)
        assert rs.outermost() == 2.0j

    def test_only_roots_spells_the_tags(self):
        # every other module reads INSIDE / ON / OUTSIDE from roots
        tags = {"INSIDE", "ON", "OUTSIDE"}
        found = []
        for path in sorted(Path(polyconv.__file__).parent.glob("*.py")):
            if path.name == "roots.py":
                continue
            found += [f"{path.name}:{node.lineno} {node.value!r}"
                      for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                      if isinstance(node, ast.Constant) and node.value in tags]
        assert found == []


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
