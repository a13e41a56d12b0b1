"""Membership predicates: circle classes, disk classes along every route,
interspersion lemmas, half-plane criterion, the explicit boundary family."""

import cmath
import json
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

    def on_and_inside(self):
        # one zero on the circle, the others inside: no zero outside
        return Polynomial.from_roots([np.exp(0.4j), 0.5j, -0.3, 0.4, 0.2 + 0.1j])

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
        for F in (self.non_member(), self.on_and_inside()):
            assert not in_D_third(F, lp, True).member
            assert not in_D_first(F, lp, True).member
            assert not eq8_oracle(F, lp, True).member
        for route in (in_D_third, in_D_first):
            v = route(self.on_and_inside(), lp, True)
            assert v.margin == 0.0 and "mixed_root_on_circle" in v.witnesses

    def test_second_route_rejects_mixed_roots_in_preamble(self):
        # the pencil itself cannot tell F from its n-inverse, so mixed or
        # outside zero locations must be rejected before the theta scan
        lp = LambdaParam(self.n, self.lam)
        for F in (self.non_member(), self.on_and_inside()):
            v = in_D_second(*split(F), lp, True)
            assert not v.member
            assert v.method.startswith("SECOND_CHAR")
        assert "mixed_root_on_circle" in v.witnesses

    def test_degree_deficit_rejected(self):
        # exact degree 2 at nominal degree 5, on every route and at both
        # endpoints (the open class at the upper one is empty anyway)
        F = Polynomial([0.1, 0.2, 1.0, 0.0, 0.0, 0.0], self.n)
        lp = LambdaParam(self.n, self.lam)
        verdicts = [route(F, lp, closed) for closed in (True, False)
                    for route in (in_D_third, in_D_first, eq8_oracle,
                                  lambda F, lp, closed: in_D_second(*split(F), lp, closed))]
        verdicts += [in_D(F, LambdaParam(self.n, 0.0), closed) for closed in (True, False)]
        verdicts.append(in_D(F, LambdaParam(self.n, TP / self.n), True))
        for v in verdicts:
            assert not v.member and v.margin == -math.inf, v
            assert v.witnesses == {"reason": "exact degree != n"}, v

    def test_second_route_degree_one(self):
        # at n = 1 the pencil is constant and only the sign test decides;
        # the first route's single fold zero is 2 pi from itself
        lp = LambdaParam(1, 1.0)
        for c0 in (-0.5, 0.3 + 0.4j, -0.9j):
            F = Polynomial([c0, 1.0], 1)
            for closed in (True, False):
                v = in_D_second(*split(F), lp, closed)
                assert v.member == in_D_third(F, lp, closed).member
                assert not v.indeterminate
                first = in_D_first(F, lp, closed)
                assert first.member == v.member and first.margin == TP - lp.lam

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

    def test_first_route_never_confident_open_member(self):
        # the 64 sampled folds of earlier versions missed the extremal one
        # and called these members of the open class with margins up to 0.07
        for lp, F in self.instances():
            v = in_D_first(F, lp, closed=False)
            assert not v.member or v.indeterminate, (lp, v)
            assert in_D_first(F, lp, closed=True).member
            assert abs(v.margin) <= 1e-7, (lp, v)

    def test_first_route_random_draws_stay_undecided(self):
        rng = np.random.default_rng(61)
        for _ in range(20):
            n = int(rng.integers(3, 9))
            lam = float(rng.uniform(0.05, 0.95)) * TP / n
            c = cmath.exp(1j * rng.uniform(0.1, math.pi - 0.1))
            F = extremal_family(n, lam, -float(rng.uniform(0.2, 2.0)),
                                float(rng.normal()), c) - q_extremal(n, lam)
            lp = LambdaParam(n, lam)
            for closed in (True, False):
                v = in_D_first(F, lp, closed)
                assert v.indeterminate and v.member == closed, (lp, closed, v)

    def test_first_route_solves_its_levels_to_rounding(self):
        # boundary-family polynomials of the benchmark's routes inputs whose
        # margins, in 50-digit arithmetic from their zeros, are -2.0e-13 and
        # -6.6e-14: level solves stopped at a step of tol^(1/3) read -8.3e-10
        # and -3.3e-11 and called them confident non-members
        lp = LambdaParam(3, 0.2 * math.pi)
        for coeffs, exact in (
                ([-9.229817210537444 + 6.3587600128107695j,
                  -25.22174080115105 + 7.2929756092593845j,
                  -26.27950643516632 - 2.0614986213235436j,
                  -10.441908770724202 - 4.360513614782201j], -2.03e-13),
                ([-4.900430809294468 + 10.23817577989877j,
                  -18.960522316399476 + 18.57657367610056j,
                  -25.091550214548867 + 10.34925517763017j,
                  -11.925963622652196 + 0.8105076894639572j], -6.56e-14)):
            v = in_D_first(Polynomial(coeffs, 3), lp)
            assert v.indeterminate and v.member, v
            assert v.margin == pytest.approx(exact, abs=1e-13)

    def test_oracle_never_confident_open_member(self):
        # the grid's least value lies within its drop to its neighbours, or
        # below zero, where the open class rejects it anyway
        for lp, F in self.instances():
            v = eq8_oracle(F, lp, closed=False)
            assert not v.member or v.indeterminate, (lp, v)
            assert eq8_oracle(F, lp, closed=True).member


#: the folds of the sampled first route of earlier versions
ZETA_SAMPLES = 64


def per_fold_first_route(F, lp, closed):
    """The sampled first route of earlier versions, one in_T root find per
    fold F + zeta F^*n at ZETA_SAMPLES values of zeta: exact in the
    necessary direction only, kept as a reference."""
    label = "D_closed" if closed else "D_open"
    early, _ = _route_roots(F, lp, closed, label, "FIRST_CHAR")
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
    return classes.MembershipVerdict(label, True, "FIRST_CHAR", worst)


def fold_scan(F, lp, count=1024):
    """The least margin of in_T's rule over the folds F + zeta F^*n at count
    values of zeta, root-found by one batched companion eigensolve, and that
    least margin refined through in_T by golden sections in arg(zeta) about
    its zeta: a dense reference for the continuous first route."""
    Fi = F.n_inverse()
    n, step = lp.n, 2.0 * math.pi / count
    folds = F.coeffs[: n + 1] + np.exp(1j * step * np.arange(count))[:, None] * Fi.coeffs[: n + 1]
    comp = np.zeros((count, n, n), dtype=complex)
    comp[:, 1:, :-1] = np.eye(n - 1)
    comp[:, :, -1] = -folds[:, :n] / folds[:, n:]
    args = np.sort(np.angle(np.linalg.eigvals(comp)), axis=1)
    gaps = np.diff(np.concatenate([args, args[:, :1] + 2.0 * math.pi], axis=1), axis=1)
    coarse = gaps.min(axis=1) - lp.lam
    j = int(np.argmin(coarse))

    def margin(a):
        return in_T(F + cmath.exp(1j * a) * Fi, lp).margin

    lo, hi = (j - 1) * step, (j + 1) * step
    a, b = hi - 0.618 * (hi - lo), lo + 0.618 * (hi - lo)
    ma, mb = margin(a), margin(b)
    for _ in range(50):
        if ma < mb:
            hi, b, mb = b, a, ma
            a = hi - 0.618 * (hi - lo)
            ma = margin(a)
        else:
            lo, a, ma = a, b, mb
            b = lo + 0.618 * (hi - lo)
            mb = margin(b)
    return float(coarse[j]), min(margin(j * step), ma, mb)


class TestFirstRouteFolds:
    """in_D_first decides every fold at once from the least gap of the
    argument of F / F^*n; dense in_T scans of the folds are its reference."""

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

    def check_against_scans(self, lp, F):
        """Both classes against the sampled route and the dense scan; returns
        the closed-class verdict."""
        scan, refined = fold_scan(F, lp)
        for closed in (True, False):
            v = in_D_first(F, lp, closed)
            ref = per_fold_first_route(F, lp, closed)
            # never above the least fold margin of either scan
            assert v.margin <= min(ref.margin, scan) + 1e-9, (lp, closed, v, ref, scan)
            if v.indeterminate:
                assert v.member == closed and abs(v.margin) <= 1e-6, (lp, closed, v)
                continue
            if abs(scan) > 1e-6:
                assert v.member == (scan > 0.0), (lp, closed, v, scan)
                assert v.margin == pytest.approx(refined, abs=1e-8), (lp, closed, v, refined)
            if v.member:
                assert ref.member, (lp, closed, v, ref)
            else:
                assert "circle_point" in v.witnesses
        return in_D_first(F, lp, True)

    def test_matches_per_fold_in_T(self):
        members = {True: 0, False: 0}
        for shape, lp, F in self.instances():
            if _route_roots(F, lp, True, "D", "")[0] is not None:
                # the preamble decides: the same verdict as the sampled route
                for closed in (True, False):
                    v, ref = in_D_first(F, lp, closed), per_fold_first_route(F, lp, closed)
                    assert (v.member, v.margin) == (ref.member, ref.margin)
                continue
            v = self.check_against_scans(lp, F)
            # the boundary family's margin is 0: within the bound, always
            assert v.indeterminate == (shape == "boundary"), (shape, lp, v)
            if not v.indeterminate:
                members[v.member] += 1
        assert members[True] >= 15 and members[False] >= 4, members

    @pytest.mark.parametrize("n", [5, 6])
    def test_member_takes_one_root_find(self, n, monkeypatch):
        # the preamble's; the route reads the zeros it found
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
        # the route reads F's zeros, so a nominal degree above n changes
        # nothing: the verdict and its circle point are those at degree n
        lp = LambdaParam(3, 0.7 * TP / 3)
        F = Polynomial.from_roots([0.9, 0.85j, -0.5])
        padded = Polynomial(np.concatenate([F.coeffs, [0.0, 0.0]]), 5)
        for closed in (True, False):
            v = in_D_first(padded, lp, closed)
            assert not v.member and "circle_point" in v.witnesses
            assert v.as_dict() == in_D_first(F, lp, closed).as_dict()
            assert v.member == in_D_third(F, lp, closed).member

    def test_crowded_fold_witness(self):
        # F = P - Q with the zeros of P and Q interlacing on the circle has
        # its zeros inside (Hermite-Biehler); its fold at zeta = 1 is -2Q,
        # whose zeros at 1 -+ 1e-3 crowd.  The witness is the circle point of
        # the least gap: a zero of the fold through it, whose in_T margin is
        # the route's
        def self_inversive(angles, phase):
            p = cpoly(angles)
            return p * (self_inversive_phase(p) * phase)

        lp = LambdaParam(6, 0.5 * TP / 6)
        P = self_inversive([1.0, 2.0, 3.0, 4.2, 5.1, 6.0], 1j)
        Q = self_inversive([1.0 - 1e-3, 1.0 + 1e-3, 2.5, 3.7, 4.6, 5.6], 1.0)
        F = P - Q
        Fi = F.n_inverse()
        assert np.all(np.abs(np.roots(F.coeffs[::-1])) < 1.0 - 1e-7)
        for closed in (True, False):
            v = in_D_first(F, lp, closed)
            assert not v.member and not v.indeterminate
            z = v.witnesses["circle_point"]
            assert abs(abs(z) - 1.0) <= 1e-15
            zeta = -F(z) / Fi(z)
            assert abs(abs(zeta) - 1.0) <= 1e-12
            fold = F + zeta * Fi
            assert abs(fold(z)) <= 1e-12 * fold.norm()
            assert in_T(fold, lp, closed).margin == pytest.approx(v.margin, abs=1e-8)
            assert v.margin <= in_T(F + 1.0 * Fi, lp, closed).margin + 1e-12
            assert v.margin <= 2e-3 - lp.lam

    def test_zeros_by_the_circle(self):
        # zeros 1e-5 from the circle leave phi flat between them, so a short
        # node interval maps onto a long stretch: without the nodes whose gaps
        # end at nodes, a minimum near 3.93 hides inside one and the margin
        # reads 3.5e-5 too high
        lp = LambdaParam(3, 0.95 * TP / 3)
        F = Polynomial.from_roots((1.0 - np.array([6e-6, 5.2e-5, 1e-5]))
                                  * np.exp(1j * np.array([0.331, 3.9087, 3.9491])))
        v = in_D_first(F, lp)
        assert not v.member and not v.indeterminate
        assert v.margin == pytest.approx(fold_scan(F, lp)[1], abs=1e-8)

    def test_tiny_lambda(self):
        # lambda enters only the margin: at lambda = 1e-6 the route costs what
        # it costs elsewhere, and its margins are the dense scan's.  The first
        # case is the crowded fold above, whose gap of 1e-3 straddles the
        # midpoint of two nodes of a 4096-node grid
        def self_inversive(angles, phase):
            p = cpoly(angles)
            return p * (self_inversive_phase(p) * phase)

        step = TP / 4096
        c = round(1.0 / step) * step
        P = self_inversive([c, 2.0, 3.0, 4.2, 5.1, 6.0], 1j)
        Q = self_inversive([c - 5e-4, c + 5e-4, 2.5, 3.7, 4.6, 5.6], 1.0)
        cases = [(LambdaParam(6, 1e-6), P - Q)]
        rng = np.random.default_rng(12)
        for n in range(2, 9):
            zeros = rng.uniform(0.3, 0.95, n) * np.exp(1j * rng.uniform(0, TP, n))
            cases.append((LambdaParam(n, 1e-6), Polynomial.from_roots(zeros)))
        for lp, F in cases:
            v = self.check_against_scans(lp, F)
            assert v.member and not v.indeterminate, (lp, v)
        F = cases[0][1]
        fold = in_T(F + 1.0 * F.n_inverse(), cases[0][0])
        assert fold.margin == pytest.approx(1e-3 - 1e-6)
        assert in_D_first(F, cases[0][0]).margin <= fold.margin


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
        for F in (good, bad_b, bad_mid):
            v = in_D(F, lp, True)
            # plain bool and float, which json takes (numpy scalars it does not)
            assert type(v.member) is bool and type(v.margin) is float
            json.dumps(v.as_dict())

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
        assert hermite_biehler(self.P, self.Q, strict=True)

    def test_clustered_false(self):
        P2 = cpoly([0.5, 1.0, TP - 1.0, TP - 0.5])
        Q2 = cpoly([2.0, 2.5, TP - 2.5, TP - 2.0])
        assert not hermite_biehler(P2, Q2 * (-1j))
        assert not hermite_biehler(P2, Q2 * (-1j), strict=True)

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

    def test_degree_deficit_and_off_circle_false(self):
        # all three have phase 1: z has exact degree 1 < 2, and
        # z^2 - 2.5 z + 1 has its zeros at 2 and 1/2
        Q = Polynomial([1.0, 0.0, 1.0], 2)
        assert not hermite_kakeya(Polynomial([0.0, 1.0, 0.0], 2), Q)
        assert not hermite_kakeya(Polynomial([1.0, -2.5, 1.0], 2), Q)

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
