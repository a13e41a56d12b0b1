"""Membership predicates: circle classes, disk classes along every route,
interspersion lemmas, half-plane criterion, the explicit boundary family."""

import cmath
import math

import numpy as np
import pytest

from polyconv.errors import (
    BadParams,
    HypothesisViolated,
    OutOfRange,
    PhaseCollision,
    PhaseMismatch,
)
from polyconv import classes
from polyconv.poly import LambdaParam, Polynomial, self_inversive_phase
from polyconv.classes import (
    ZETA_SAMPLES,
    _fold_margins,
    _route_roots,
    build_char_polys,
    eq8_oracle,
    extremal_family,
    half_plane_criterion,
    half_plane_margin,
    hermite_biehler,
    hermite_kakeya,
    in_D,
    in_D_first,
    in_D_second,
    in_D_third,
    in_T,
    is_lambda_extremal,
    pre_class_test,
)
from polyconv.qconv import delta, q_extremal
from polyconv.roots import find_roots

TP = 2 * math.pi


def cpoly(angles, lead=1.0):
    return Polynomial.from_roots(np.exp(1j * np.asarray(angles)), leading=lead)


def split(F):
    # universal self-inversive-phase split of F into P - Q
    P = (F - F.n_inverse()) * 0.5
    Q = (F + F.n_inverse()) * (-0.5)
    return P, Q


class TestInT:
    def test_extremal_closed_not_open(self):
        n, lam = 5, 0.6
        lp = LambdaParam(n, lam)
        Q = q_extremal(n, lam)
        assert in_T(Q, lp, closed=True).member
        assert not in_T(Q, lp, closed=False).member
        assert is_lambda_extremal(Q, lp)

    def test_wide_gaps_open_member(self):
        lp = LambdaParam(4, 0.5)
        p = cpoly([0.0, 1.5, 3.0, 4.6])
        assert in_T(p, lp, closed=False).member

    def test_off_circle_rejected(self):
        lp = LambdaParam(2, 0.3)
        v = in_T(Polynomial.from_roots([0.5, -1.0]), lp)
        assert not v.member
        assert v.margin < 0

    def test_degree_deficit_rejected(self):
        lp = LambdaParam(3, 0.3)
        v = in_T(Polynomial([1, 1, 0, 0], 3), lp)
        assert not v.member

    def test_margin_is_separation_gap(self):
        lp = LambdaParam(3, 0.5)
        p = cpoly([0.0, 0.8, 2.0])
        v = in_T(p, lp)
        assert v.margin == pytest.approx(0.8 - 0.5, abs=1e-8)


def gap_test_extremal(p, lp, tol=1e-7):
    """Unimodular zeros whose n-1 smallest gaps all equal lambda: the root
    test that the coefficient test replaced, kept as its reference."""
    if p.is_zero or p.exact_degree != lp.n:
        return False
    rs = find_roots(p)
    if not rs.all_on_circle():
        return False
    if any(m > 1 for _, m in rs.roots) and lp.lam > tol:
        return False
    args = sorted(math.atan2(z.imag, z.real) for z, m in rs.roots for _ in range(m))
    gaps = sorted(
        [b - a for a, b in zip(args, args[1:])] + [2.0 * math.pi + args[0] - args[-1]]
    )
    return all(abs(g - lp.lam) <= tol for g in gaps[: lp.n - 1])


class TestLambdaExtremal:
    def test_coefficient_test_matches_gap_test(self):
        rng = np.random.default_rng(23)
        seen = {True: 0, False: 0}
        for _ in range(40):
            n = int(rng.integers(1, 9))
            lp = LambdaParam(n, float(rng.uniform(0.05, 0.95)) * TP / n)
            a = complex(rng.normal(), rng.normal()) * 10 ** rng.uniform(-2, 2)
            rot = cmath.exp(1j * rng.uniform(0.0, TP))
            Q = q_extremal(n, lp.lam).scale_argument(rot) * a
            cases = [Q]
            # the zeros of Q, one of them moved along the circle by 1e-5
            # (at n = 1 every unimodular zero is extremal)
            zeros = -np.exp(-1j * (2 * np.arange(1, n + 1) - n - 1) * lp.lam / 2.0) / rot
            for k in {0, n // 2} if n > 1 else ():
                moved = zeros.copy()
                moved[k] *= cmath.exp(1e-5j)
                cases.append(Polynomial.from_roots(moved, leading=a))
            # unimodular folds of a member: Q pushed inside by r.  r - 1
            # stays above the 1e-5 to 1e-3 where the two tests part
            # (test_near_extremal_folds_are_not_extremal)
            F = q_extremal(n, lp.lam).scale_argument(rot * (1.0 + 10 ** rng.uniform(-3, -1)))
            cases += [F + cmath.exp(1j * t) * F.n_inverse() for t in rng.uniform(0, TP, 3)]
            for p in cases:
                expected = gap_test_extremal(p, lp)
                assert is_lambda_extremal(p, lp) == expected, (n, lp.lam, p)
                seen[expected] += 1
            assert is_lambda_extremal(Q, lp)
            assert not any(is_lambda_extremal(p, lp) for p in cases[1:-3])
        assert seen[True] >= 40 and seen[False] >= 80, seen

    def test_near_extremal_folds_are_not_extremal(self):
        # folds of Q_n pushed inside by 1 + e, e in [3e-5, 3e-4]: their gaps
        # miss lambda by 3e-10 to 1e-6, which the gap test's tolerance of
        # 1e-7 forgives on most of them; the coefficient test, which
        # accepts none of these folds above e = 1.3e-5, rejects every one
        rng = np.random.default_rng(31)
        forgiven = 0
        for _ in range(80):
            n = int(rng.integers(2, 9))
            lp = LambdaParam(n, float(rng.uniform(0.05, 0.95)) * TP / n)
            e = 10 ** rng.uniform(math.log10(3e-5), math.log10(3e-4))
            rot = cmath.exp(1j * rng.uniform(0.0, TP))
            F = q_extremal(n, lp.lam).scale_argument(rot * (1.0 + e))
            p = F + cmath.exp(1j * rng.uniform(0, TP)) * F.n_inverse()
            assert not is_lambda_extremal(p, lp), (n, lp.lam, e)
            forgiven += gap_test_extremal(p, lp)
        assert forgiven >= 20, forgiven

    def test_endpoints(self):
        for n in (1, 2, 5):
            for lam in (0.0, TP / n):
                lp = LambdaParam(n, lam)
                Q = q_extremal(n, lam).scale_argument(cmath.exp(0.4j)) * (1 - 2j)
                assert is_lambda_extremal(Q, lp)
                assert not is_lambda_extremal(Q.scale_argument(1.01), lp)


class TestDiskRoutes:
    n, lam = 5, 0.6

    def member(self):
        return q_extremal(self.n, self.lam).scale_argument(1.2)

    def non_member(self):
        return Polynomial.from_roots([2.0, 0.5j, -0.3, 1.5j, 0.9])

    def test_routes_agree_on_member(self):
        lp = LambdaParam(self.n, self.lam)
        F = self.member()
        P, Q = split(F)
        assert in_D_third(F, lp, True).member
        assert in_D_first(F, lp, True).member
        assert in_D_second(P, Q, lp, True).member
        assert eq8_oracle(F, lp, True).member

    def test_third_and_oracle_reject_mixed_roots(self):
        lp = LambdaParam(self.n, self.lam)
        F = self.non_member()
        assert not in_D_third(F, lp, True).member
        assert not in_D_first(F, lp, True).member
        assert not eq8_oracle(F, lp, True).member

    def test_second_route_rejects_mixed_roots_in_preamble(self):
        # the pencil itself cannot tell F from its n-inverse, so mixed or
        # outside zero locations must be rejected before the theta scan
        lp = LambdaParam(self.n, self.lam)
        P, Q = split(self.non_member())
        v = in_D_second(P, Q, lp, True)
        assert not v.member
        assert v.method.startswith("SECOND_CHAR_GRID")

    def test_second_route_degree_one(self):
        # at n = 1 the pencil is constant and only the sign test decides
        lp = LambdaParam(1, 1.0)
        for c0 in (-0.5, 0.3 + 0.4j, -0.9j):
            F = Polynomial([c0, 1.0], 1)
            for closed in (True, False):
                v = in_D_second(*split(F), lp, closed)
                assert v.member == in_D_third(F, lp, closed).member
                assert not v.indeterminate

    def test_oracle_sees_dip_just_outside_circle(self):
        # the zero at 0.99 pushes the quotient below the real axis only for
        # |z| < 1.002, so the oracle's grid has to start nearer the circle
        lp = LambdaParam(3, 0.1 * TP / 3)
        F = Polynomial.from_roots([0.99, 0.0, 0.0])
        v = in_D_third(F, lp, True)
        assert not v.member and not v.indeterminate and v.margin < -1e-3
        assert not eq8_oracle(F, lp, True).member

    def test_open_class_contains_strict_contraction(self):
        lp = LambdaParam(self.n, self.lam)
        F = self.member()
        assert in_D_third(F, lp, closed=False).member

    def test_closed_member_on_boundary_fails_open_oracle(self):
        # an extremal polynomial sits in the closed class only
        lp = LambdaParam(self.n, self.lam)
        Q = q_extremal(self.n, self.lam)
        assert in_D(Q, lp, closed=True).member
        assert not eq8_oracle(Q, lp, closed=False).member

    def test_monomial_in_open_class(self):
        lp = LambdaParam(4, 0.7)
        zn = Polynomial([0, 0, 0, 0, 1.0], 4)
        assert in_D(zn, lp, closed=False).member
        assert in_D(zn, lp, closed=True).member


def reference_oracle_margin(F, lp, closed):
    """eq8_oracle's margin with the grid built per call and F_+ and F_-
    evaluated by Polynomial.eval_many: the reference it must match bit for
    bit."""
    h = lp.lam / 2.0
    radii = np.geomspace(1.0 + classes.CIRCLE_TOL, 8.0, classes.ORACLE_RADII)
    if not closed:
        radii = np.concatenate([[1.0], radii])
    angles = np.exp(2j * np.pi * np.arange(classes.ORACLE_ANGLES) / classes.ORACLE_ANGLES)
    z = np.outer(radii, angles).ravel()
    num = F.rotate(h).eval_many(z)
    den = F.rotate(-h).eval_many(z)
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = np.imag(cmath.exp(-1j * lp.n * h) * num / den)
    vals = vals[np.isfinite(vals)]
    return float(np.min(vals)) if vals.size else -math.inf


def test_oracle_margin_matches_reference_bit_for_bit():
    rng = np.random.default_rng(88)
    for t in range(96):
        n = 1 + t % 16
        roots = rng.uniform(0.2, 1.3) * np.sqrt(rng.uniform(size=n)) * np.exp(
            2j * np.pi * rng.uniform(size=n))
        F = Polynomial.from_roots(roots, leading=cmath.exp(1j * rng.uniform(0.0, TP)))
        lp = LambdaParam(n, rng.uniform(0.05, 0.95) * TP / n)
        closed = bool(t % 2)
        v = eq8_oracle(F, lp, closed)
        if v.method == "EQ8_GRID":
            assert v.margin == reference_oracle_margin(F, lp, closed)


def pencil_scan_margin(F, lp, thetas=720):
    """1 - max|z| over the zeros of F and of cos(t) A - sin(t) B on a grid of
    t in [0, pi), found by np.roots: the theta-grid method that the second
    route's sign test replaced, kept only as the oracle for it."""
    P, Q = split(F)
    A = self_inversive_phase(P) * delta(P, lp).coeffs
    B = self_inversive_phase(Q) * delta(Q, lp).coeffs
    worst = np.max(np.abs(np.roots(F.coeffs[::-1])))
    for t in np.linspace(0.0, math.pi, thetas, endpoint=False):
        if worst > 1.0 + 1e-6:
            break  # a decided non-member: the rest cannot change the verdict
        H = math.cos(t) * A - math.sin(t) * B
        worst = max(worst, np.max(np.abs(np.roots(H[::-1]))))
    return 1.0 - worst


class TestSecondRouteAgainstPencilScan:
    """Adversarial draws for the second route: zeros crowding the circle,
    circle polynomials with gaps just under lambda pushed inside, and
    boundary-family polynomials scaled just inside and just outside."""

    def instances(self):
        rng = np.random.default_rng(6)
        for i in range(60):
            n = int(rng.integers(3, 9))
            lam = float(rng.uniform(0.05, 0.95)) * TP / n
            if i % 3 == 0:
                radii = rng.uniform(0.3, 0.999, n)
                F = Polynomial.from_roots(radii * np.exp(1j * rng.uniform(0, TP, n)))
            elif i % 3 == 1:
                gaps = rng.uniform(0.9, 1.0, n - 1) * lam
                angles = rng.uniform(0, TP) + np.concatenate([[0.0], np.cumsum(gaps)])
                radius = 1.0 - 10 ** rng.uniform(-4, -0.5)
                F = Polynomial.from_roots(radius * np.exp(1j * angles))
            else:
                a = -float(rng.uniform(0.2, 2.0))
                c = cmath.exp(1j * rng.uniform(0.1, math.pi - 0.1))
                F = extremal_family(n, lam, a, float(rng.normal()), c) - q_extremal(n, lam)
                r = (1.0 + 10 ** rng.uniform(-4, -1)) ** (1 if i % 2 else -1)
                F = F.scale_argument(r)
            yield LambdaParam(n, lam), F

    def test_decided_verdicts_match_scan(self):
        decided = {True: 0, False: 0}
        by_sign = 0
        for lp, F in self.instances():
            ref = pencil_scan_margin(F, lp)
            if abs(ref) <= 1e-6:
                continue
            decided[ref > 0] += 1
            for closed in (True, False):
                v = in_D_second(*split(F), lp, closed)
                assert not v.indeterminate, (lp, closed, ref, v)
                assert v.member == (ref > 0), (lp, closed, ref, v)
                by_sign += "circle_point" in v.witnesses
        assert decided[True] >= 10 and decided[False] >= 10, decided
        assert by_sign >= 10


class TestBoundaryFamilyOpenClass:
    # P - Q_n of the boundary family lies in the closed class only; at these
    # low lambda a root find splits T's double zeros on the circle off it
    CASES = ((7, 0.15), (8, 0.15), (6, 0.1))

    def instances(self):
        for n, frac in self.CASES:
            lam = frac * TP / n
            F = extremal_family(n, lam, -1.0, 0.3, cmath.exp(1j)) - q_extremal(n, lam)
            yield LambdaParam(n, lam), F

    def test_second_route_never_confident_open_member(self):
        for lp, F in self.instances():
            v = in_D_second(*split(F), lp, closed=False)
            assert not v.member or v.indeterminate, (lp, v)
            assert in_D_second(*split(F), lp, closed=True).member

    def test_second_route_random_draws_stay_undecided(self):
        # the touching point of s falls between the nodes on most draws,
        # so this needs the refinement of the node minima
        rng = np.random.default_rng(61)
        for _ in range(20):
            n = int(rng.integers(3, 9))
            lam = float(rng.uniform(0.05, 0.95)) * TP / n
            c = cmath.exp(1j * rng.uniform(0.1, math.pi - 0.1))
            F = extremal_family(n, lam, -float(rng.uniform(0.2, 2.0)),
                                float(rng.normal()), c) - q_extremal(n, lam)
            lp = LambdaParam(n, lam)
            for closed in (True, False):
                v = in_D_second(*split(F), lp, closed)
                assert v.indeterminate and v.member == closed, (lp, closed, v)

    def test_third_route_never_confident_open_member(self):
        for lp, F in self.instances():
            v = in_D_third(F, lp, closed=False)
            assert not v.member or v.indeterminate, (lp, v)


def per_fold_first_route(F, lp, closed):
    """The first route with one in_T root find per sampled fold: the loop
    that the sign count replaced, kept as the reference for it."""
    label = "D_closed" if closed else "D_open"
    early, _ = _route_roots(F, lp, closed, label, "FIRST_CHAR_SAMPLED")
    if early is not None:
        return early
    Fi = F.n_inverse()
    worst = math.inf
    for j in range(ZETA_SAMPLES):
        zeta = cmath.exp(2j * math.pi * j / ZETA_SAMPLES)
        v = in_T(F + zeta * Fi, lp, closed)
        if not v.member:
            v.witnesses["zeta"] = zeta
            return v
        worst = min(worst, v.margin)
    return classes.MembershipVerdict(label, True, "FIRST_CHAR_SAMPLED", worst)


class TestFirstRouteFolds:
    """in_D_first decides its folds by a sign count on the circle and
    sends the rest to in_T; its verdicts are those of a per-fold in_T loop."""

    SHAPES = ("scaled", "rejection", "boundary", "raw")

    def instances(self):
        rng = np.random.default_rng(8)
        for i in range(60):
            shape = self.SHAPES[i % 4]
            n = 2 + (i // 4) % 7
            lam = float(rng.uniform(0.05, 0.95)) * TP / n
            if shape == "scaled":
                gaps = lam + (TP - n * lam) * rng.dirichlet(np.ones(n))
                angles = rng.uniform(0, TP) + np.cumsum(gaps)
                zeros = rng.uniform(0.6, 0.97) * np.exp(1j * angles)
            elif shape == "rejection":
                zeros = rng.uniform(0.2, 0.95) * np.sqrt(rng.uniform(0, 1, n)) * np.exp(
                    1j * rng.uniform(0, TP, n))
            elif shape == "raw":
                zeros = rng.uniform(0.3, 1.1, n) * np.exp(1j * rng.uniform(0, TP, n))
            if shape == "boundary":
                c = cmath.exp(1j * rng.uniform(0.1, math.pi - 0.1))
                F = extremal_family(n, lam, -float(rng.uniform(0.2, 2.0)),
                                    float(rng.normal()), c) - q_extremal(n, lam)
            else:
                F = Polynomial.from_roots(zeros)
            yield shape, LambdaParam(n, lam), F

    def test_matches_per_fold_in_T(self):
        members = {True: 0, False: 0}
        fast = 0
        for shape, lp, F in self.instances():
            fast += not np.all(np.isnan(_fold_margins(F, F.n_inverse(), lp)))
            for closed in (True, False):
                v = in_D_first(F, lp, closed)
                ref = per_fold_first_route(F, lp, closed)
                assert v.member == ref.member, (shape, lp, closed, v, ref)
                assert v.margin == pytest.approx(ref.margin, abs=1e-8), (shape, lp, closed)
                assert v.witnesses.keys() == ref.witnesses.keys()
                members[v.member] += 1
        assert members[True] >= 20 and members[False] >= 20, members
        assert fast >= 30

    @pytest.mark.parametrize("n", [5, 6])
    def test_member_takes_one_root_find(self, n, monkeypatch):
        # the preamble's; odd n also checks the antiperiodic wrap of w
        calls = []
        real = classes.find_roots
        monkeypatch.setattr(classes, "find_roots",
                            lambda p, *a, **k: calls.append(p) or real(p, *a, **k))
        lp = LambdaParam(n, 0.6 * TP / n)
        F = q_extremal(n, lp.lam).scale_argument(1.2)
        for closed in (True, False):
            calls.clear()
            v = in_D_first(F, lp, closed)
            assert v.member and v.margin > 0.0
            assert len(calls) == 1, (closed, len(calls))

    def test_nominal_degree_above_n(self):
        # the folds of F = z + 0.5 at nominal degree 2 have exact degree 2,
        # so in_T rejects the first one before any sign count applies
        lp = LambdaParam(1, 1.0)
        F = Polynomial([0.5, 1.0, 0.0], 2)
        v = in_D_first(F, lp, True)
        assert not v.member and v.witnesses["reason"] == "exact degree != n"
        assert v.witnesses["zeta"] == 1.0

    def test_unresolved_fold_goes_to_in_T(self):
        # F = P - Q with the zeros of P and Q interlacing on the circle has
        # its zeros inside (Hermite-Biehler); its fold at zeta = 1 is -2Q,
        # whose zeros at 1 -+ 1e-3 fall between two nodes of the sign count
        def self_inversive(angles, phase):
            p = cpoly(angles)
            return p * (self_inversive_phase(p) * phase)

        lp = LambdaParam(6, 0.5 * TP / 6)
        P = self_inversive([1.0, 2.0, 3.0, 4.2, 5.1, 6.0], 1j)
        Q = self_inversive([1.0 - 1e-3, 1.0 + 1e-3, 2.5, 3.7, 4.6, 5.6], 1.0)
        F = P - Q
        assert np.all(np.abs(np.roots(F.coeffs[::-1])) < 1.0 - 1e-7)
        assert math.isnan(_fold_margins(F, F.n_inverse(), lp)[0])
        for closed in (True, False):
            v = in_D_first(F, lp, closed)
            ref = in_T(F + 1.0 * F.n_inverse(), lp, closed)
            assert not v.member and not ref.member
            assert v.margin == ref.margin
            assert v.witnesses == {"zeta": 1.0, **ref.witnesses}


    def test_tiny_lambda(self):
        # lambda = 1e-6 asks for nodes 1.25e-7 apart; the sign count keeps
        # to FOLD_NODES_MAX of them and leaves folds whose zeros share a
        # node interval to in_T.  Here the fold at zeta = 1 is -2Q, whose
        # zeros 1e-3 apart straddle the midpoint of two nodes
        def self_inversive(angles, phase):
            p = cpoly(angles)
            return p * (self_inversive_phase(p) * phase)

        step = TP / classes.FOLD_NODES_MAX
        c = round(1.0 / step) * step
        P = self_inversive([c, 2.0, 3.0, 4.2, 5.1, 6.0], 1j)
        Q = self_inversive([c - 5e-4, c + 5e-4, 2.5, 3.7, 4.6, 5.6], 1.0)
        cases = [(LambdaParam(6, 1e-6), P - Q)]
        rng = np.random.default_rng(12)
        for n in range(2, 9):
            zeros = rng.uniform(0.3, 0.95, n) * np.exp(1j * rng.uniform(0, TP, n))
            cases.append((LambdaParam(n, 1e-6), Polynomial.from_roots(zeros)))
        for lp, F in cases:
            fast = _fold_margins(F, F.n_inverse(), lp)
            assert np.sum(np.isnan(fast)) < ZETA_SAMPLES // 2, lp
            for closed in (True, False):
                v = in_D_first(F, lp, closed)
                ref = per_fold_first_route(F, lp, closed)
                assert v.member and ref.member, (lp, closed, v, ref)
                assert v.margin == pytest.approx(ref.margin, abs=1e-8), (lp, closed)
        F = cases[0][1]
        assert math.isnan(_fold_margins(F, F.n_inverse(), cases[0][0])[0])
        fold = in_T(F + 1.0 * F.n_inverse(), cases[0][0])
        assert in_D_first(F, cases[0][0]).margin == fold.margin == pytest.approx(1e-3 - 1e-6)


class TestEndpoints:
    def test_lambda_zero_closed_is_closed_disk_roots(self):
        lp = LambdaParam(3, 0.0)
        assert in_D(Polynomial.from_roots([0.2, -0.5, 1.0]), lp, True).member
        assert not in_D(Polynomial.from_roots([0.2, -0.5, 1.2]), lp, True).member

    def test_lambda_zero_open_admits_strict_circle_polys(self):
        lp = LambdaParam(3, 0.0)
        assert in_D(Polynomial.from_roots([0.2, 0.5j, -0.1]), lp, False).member
        assert in_D(cpoly([0.0, 2.0, 4.0]), lp, False).member
        assert not in_D(cpoly([0.0, 0.0, 4.0]), lp, False).member

    def test_upper_endpoint_closed(self):
        n = 4
        lp = LambdaParam(n, TP / n)
        good = Polynomial([-0.5 + 0.1j, 0, 0, 0, 2.0], n)  # a(z^n - b), |b| < 1
        bad_b = Polynomial([-3.0, 0, 0, 0, 1.0], n)
        bad_mid = Polynomial([-0.5, 0, 1.0, 0, 2.0], n)
        assert in_D(good, lp, True).member
        assert not in_D(bad_b, lp, True).member
        assert not in_D(bad_mid, lp, True).member

    def test_upper_endpoint_open_is_empty(self):
        n = 4
        lp = LambdaParam(n, TP / n)
        good = Polynomial([-0.5, 0, 0, 0, 2.0], n)
        assert not in_D(good, lp, False).member


class TestCharPolys:
    def test_degree_and_phase_structure(self):
        n, lam = 4, 0.5
        lp = LambdaParam(n, lam)
        F = q_extremal(n, lam).scale_argument(1.3)
        P, Q = split(F)
        cp = build_char_polys(F, lp, P, Q)
        assert cp.T.nominal_degree == 2 * n
        assert cp.S.nominal_degree == 2 * n

    def test_endpoint_rejected(self):
        lp = LambdaParam(4, 0.0)
        with pytest.raises(OutOfRange):
            build_char_polys(Polynomial([1, 1, 1, 1, 1], 4), lp)

    def test_T_is_the_third_route_sign_function(self):
        # on the circle T(z) = 2i z^n s(z), s = Im(e^{-inh} F_+ conj F_-):
        # the function in_D_third signs
        rng = np.random.default_rng(5)
        for n in range(1, 9):
            lam = float(rng.uniform(0.05, 0.95)) * TP / n
            h = lam / 2.0
            F = Polynomial(rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1), n)
            z = np.exp(1j * rng.uniform(0.0, TP, 16))
            s = np.imag(cmath.exp(-1j * n * h) * F.rotate(h).eval_many(z)
                        * np.conj(F.rotate(-h).eval_many(z)))
            T = build_char_polys(F, LambdaParam(n, lam)).T
            assert np.allclose(T.eval_many(z), 2j * z ** n * s,
                               atol=1e-12 * F.norm() ** 2), n


class TestHermiteBiehler:
    # conjugate-symmetric angle sets give phase 1; the second factor keeps
    # phase i, so the pair has distinct phases as the lemma requires
    P = cpoly([0.5, 2.0, TP - 2.0, TP - 0.5])
    Q = cpoly([0.0, 1.2, math.pi, TP - 1.2])

    def test_alternating_true(self):
        assert hermite_biehler(self.P, self.Q)

    def test_clustered_false(self):
        P2 = cpoly([0.5, 1.0, TP - 1.0, TP - 0.5])
        Q2 = cpoly([2.0, 2.5, TP - 2.5, TP - 2.0])
        assert not hermite_biehler(P2, Q2 * (-1j))

    def test_equal_phase_raises(self):
        assert abs(self_inversive_phase(self.P) - 1.0) < 1e-9
        with pytest.raises(PhaseCollision):
            hermite_biehler(self.P, self.Q * (-1j))


class TestHermiteKakeya:
    # scaling by -i aligns the phases without moving any root
    P = cpoly([0.5, 2.0, TP - 2.0, TP - 0.5])
    Q = cpoly([0.0, 1.2, math.pi, TP - 1.2]) * (-1j)

    def test_alternating_true(self):
        assert hermite_kakeya(self.P, self.Q)

    def test_clustered_false(self):
        P2 = cpoly([0.5, 1.0, TP - 1.0, TP - 0.5])
        Q2 = cpoly([2.0, 2.5, TP - 2.5, TP - 2.0])
        assert not hermite_kakeya(P2, Q2)

    def test_distinct_phase_raises(self):
        with pytest.raises(PhaseMismatch):
            hermite_kakeya(self.P, self.Q * 1j)

    def test_proportional_raises(self):
        with pytest.raises(BadParams):
            hermite_kakeya(self.P, self.P * 2.0)

    @staticmethod
    def aligned(p_angles, q_angles):
        P, Q = cpoly(p_angles), cpoly(q_angles)
        return P, Q * (self_inversive_phase(Q) / self_inversive_phase(P))

    def test_shared_zero_strict_false(self):
        # the zeros alternate through the shared zero at 0.5, so every
        # combination keeps its zeros on the circle, but the one at
        # tan(t) = P1(z0) / Q1(z0) has a double zero there
        P, Q = self.aligned([0.5, 2.0, TP - 2.0, TP - 0.5], [0.0, 0.5, math.pi, 5.0])
        assert hermite_kakeya(P, Q)
        assert not hermite_kakeya(P, Q, strict=True)

    @staticmethod
    def pencil_scan(P, Q, strict, n_t=360):
        # np.roots of the pencil on a t grid: all zeros on the circle, and
        # simple for the strict variant
        for t in np.linspace(0.0, math.pi, n_t, endpoint=False):
            c = math.cos(t) * P.coeffs - math.sin(t) * Q.coeffs
            z = np.roots(c[::-1])
            if z.size != P.nominal_degree or np.max(np.abs(np.abs(z) - 1.0)) > 1e-6:
                return False
            if strict and np.min(np.diff(np.sort(np.angle(z))), initial=1.0) < 1e-6:
                return False
        return True

    def test_matches_pencil_scan(self):
        # zero sets at least 0.3 apart, half of them alternating and half
        # with one adjacent P, Q pair swapped
        rng = np.random.default_rng(17)
        for i in range(20):
            n = int(rng.integers(2, 7))
            while True:
                a = np.sort(rng.uniform(0.0, TP, 2 * n))
                if np.min(np.diff(np.r_[a, a[0] + TP])) > 0.3:
                    break
            owner = np.arange(2 * n) % 2
            if i % 2:
                k = int(rng.integers(0, 2 * n - 1))
                owner[[k, k + 1]] = owner[[k + 1, k]]
            P, Q = self.aligned(a[owner == 0], a[owner == 1])
            for strict in (False, True):
                expected = self.pencil_scan(P, Q, strict)
                assert expected == (i % 2 == 0)
                assert hermite_kakeya(P, Q, strict) == expected, (n, a, owner, strict)


class TestHalfPlane:
    def test_monomial_plus_small_constant(self):
        f = Polynomial([0.4, 0, 0, 1.0], 3)
        assert half_plane_criterion(f)
        assert half_plane_margin(f) > 0

    def test_pre_extremal_geometric(self):
        n = 5
        # |b| > 1 keeps the constant coefficient below the leading one
        b = 1.3 * cmath.exp(0.4j)
        f = Polynomial([b ** k for k in range(n + 1)], n)
        assert half_plane_criterion(f)

    def test_failing_instance(self):
        f = Polynomial([0.3, 5.0, -4.0, 1.0], 3)
        assert not half_plane_criterion(f)

    def test_hypothesis_guard(self):
        with pytest.raises(HypothesisViolated):
            half_plane_criterion(Polynomial([1.0, 0, 1.0], 2))


class TestExtremalFamily:
    n, lam = 5, 0.6

    def params(self):
        # membership needs a and Im(c) of opposite signs
        return -1.0, 0.3, cmath.exp(0.9j)

    def test_unimodular_roots(self):
        a, b, c = self.params()
        P = extremal_family(self.n, self.lam, a, b, c)
        r = np.abs(np.roots(P.coeffs[::-1]))
        assert np.allclose(r, 1.0, atol=1e-8)

    def test_member_of_closed_disk_class_only(self):
        a, b, c = self.params()
        lp = LambdaParam(self.n, self.lam)
        F = extremal_family(self.n, self.lam, a, b, c) - q_extremal(self.n, self.lam)
        assert in_D_third(F, lp, True).member
        assert not in_T(F, lp, True).member

    def test_phase_identity(self):
        a, b, c = self.params()
        F = extremal_family(self.n, self.lam, a, b, c) - q_extremal(self.n, self.lam)
        left = F - F.n_inverse() * (c * c)
        right = q_extremal(self.n, self.lam) * (c * c - 1.0)
        assert float(np.max(np.abs(left.coeffs - right.coeffs))) < 1e-10

    def test_reflected_orientation_leaves_disk(self):
        # flipping the sign of a reflects every zero across the circle
        lp = LambdaParam(self.n, self.lam)
        F = extremal_family(self.n, self.lam, 1.0, 0.3, cmath.exp(0.9j)) - \
            q_extremal(self.n, self.lam)
        assert np.min(np.abs(np.roots(F.coeffs[::-1]))) > 1.0
        assert not in_D_third(F, lp, True).member

    def test_parameter_guards(self):
        with pytest.raises(BadParams):
            extremal_family(self.n, self.lam, 0.0, 1.0, 1j)
        with pytest.raises(BadParams):
            extremal_family(self.n, self.lam, 1.0, 1.0, -1.0)
        with pytest.raises(OutOfRange):
            extremal_family(self.n, 2.0, 1.0, 1.0, 1j)


class TestPreClasses:
    def test_all_ones_lifts_to_extremal(self):
        n, lam = 4, 0.5
        lp = LambdaParam(n, lam)
        f = Polynomial(np.ones(n + 1), n)
        assert pre_class_test(f, lp, "PT_closed").member
        assert not pre_class_test(f, lp, "PT_open").member
        assert pre_class_test(f, lp, "PD_closed").member

    def test_unknown_class_rejected(self):
        with pytest.raises(ValueError):
            pre_class_test(Polynomial([1, 1], 1), LambdaParam(1, 0.5), "XX")
