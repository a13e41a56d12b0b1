"""Membership predicates: circle classes, disk classes along every route,
interspersion lemmas, half-plane criterion, the explicit boundary family."""

import cmath
import json
import math

import mpmath
import numpy as np
import pytest

from conftest import stress_draw
from polyconv.errors import (
    BadParams,
    HypothesisViolated,
    OutOfRange,
    PhaseCollision,
    PhaseMismatch,
)
from polyconv import classes, roots
from polyconv.poly import LambdaParam, Polynomial, self_inversive_phase, trimmed
from polyconv.classes import (
    _route_roots,
    build_char_polys,
    eq8_oracle,
    extremal_family,
    half_plane_criterion,
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
from polyconv.roots import INSIDE, OUTSIDE, find_roots

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

    def test_off_circle_blames_the_farthest_zero(self):
        # 0.5 is the first zero off the circle in sort order; 3 is farthest
        v = in_T(Polynomial.from_roots([0.5, 1.1, 3.0]), LambdaParam(3, 0.5))
        assert not v.member
        assert v.witnesses["offending_root"] == pytest.approx(3.0)
        assert v.margin == pytest.approx(-2.0)

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

    def on_and_inside(self, r=1.0):
        # one zero on the circle, the others inside: no zero outside.  At
        # r = 1 - 5e-8 it is tagged ON too, and only certifying "inside" at
        # 1 - 2 CIRCLE_TOL keeps the certificate from taking it inside
        return Polynomial.from_roots([r * np.exp(0.4j), 0.5j, -0.3, 0.4, 0.2 + 0.1j])

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
            for r in (1.0, 1.0 - 5e-8):
                v = route(self.on_and_inside(r), lp, True)
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

    def test_outside_zero_blames_the_outermost(self):
        # 1 + 5e-7 is tagged OUTSIDE and sorts first, but 1.5i decides
        F = Polynomial.from_roots([1.0 + 5e-7, 1.5j, 0.2])
        lp = LambdaParam(3, 0.5)
        for method in ("third", "first", "second"):
            v = in_D(F, lp, False, method)
            assert not v.member and not v.indeterminate, method
            assert v.witnesses["offending_root"] == pytest.approx(1.5j), method
            assert v.margin == pytest.approx(-0.5), method

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


def oracle_radii(closed):
    """The radii of reference_oracle_margin's grid."""
    radii = np.geomspace(1.0 + classes.CIRCLE_TOL, 8.0, classes.ORACLE_RADII)
    return radii if closed else np.concatenate([[1.0], radii])


def oracle_nodes(closed):
    """reference_oracle_margin's grid, radii by angles, flattened."""
    angles = np.exp(2j * np.pi * np.arange(classes.ORACLE_ANGLES) / classes.ORACLE_ANGLES)
    return np.outer(oracle_radii(closed), angles).ravel()


def reference_oracle_verdict(F, lp, closed):
    """eq8_oracle's verdict dict from the values of reference_oracle_margin's
    grid: its margin, and the drop to the margin's two angular neighbours on
    its ring, where a non-finite value counts as +inf."""
    h = lp.lam / 2.0
    z = oracle_nodes(closed)
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = np.imag(cmath.exp(-1j * lp.n * h) * F.rotate(h).eval_many(z)
                       / F.rotate(-h).eval_many(z))
    vals = np.where(np.isfinite(vals), vals, math.inf)
    margin = reference_oracle_margin(F, lp, closed)
    i = int(np.argmin(vals))
    ring, k = vals.reshape(-1, classes.ORACLE_ANGLES)[i // classes.ORACLE_ANGLES], \
        i % classes.ORACLE_ANGLES
    drop = float(max(ring[k - 1], ring[(k + 1) % classes.ORACLE_ANGLES])) - margin
    indet = 0.0 <= margin <= drop
    member = closed if indet else margin > 0.0
    wit = ({"neighbour_drop": drop} if indet else {} if member
           else {"negative_imag_on_grid": True})
    return {"class": "D_closed" if closed else "D_open", "member": member,
            "method": "EQ8_GRID", "margin": margin, "witnesses": wit, "indeterminate": indet}


def zero_on_the_grid(lp, closed, ring):
    """An F of degree 1 whose F_- vanishes exactly at the node of angle 0 on
    the given ring of the oracle's grid, a real node r, where the product
    of F_-'s top coefficient and r rounds the same on every path: the
    quotient is not finite there."""
    assert lp.n == 1
    r = float(oracle_radii(closed)[ring])
    w = complex(Polynomial([0.0, 1.0]).rotate(-lp.lam / 2.0).coeffs[1])
    return Polynomial([complex(-w.real * r, -w.imag * r), 1.0])


def test_oracle_verdict_matches_reference_on_seeded_draws():
    # every verdict dict bit for bit, on 1,000 draws of degree 1 to 8, one
    # in ten with a quotient that is not finite at a node of the grid
    rng = np.random.default_rng(449)
    nonfinite = 0
    for t in range(1000):
        closed = bool(t % 2)
        if t % 10 == 3:
            lp = LambdaParam(1, rng.uniform(0.05, 0.95) * TP)
            ring = int(rng.integers(0 if closed else 1, classes.ORACLE_RADII))
            F = zero_on_the_grid(lp, closed, ring)
            with np.errstate(divide="ignore", invalid="ignore"):
                den = F.rotate(-lp.lam / 2.0).eval_many(oracle_nodes(closed))
            nonfinite += not np.all(den != 0.0)
        else:
            n = 1 + t % 8
            zs = rng.uniform(0.2, 1.3) * np.sqrt(rng.uniform(size=n)) * np.exp(
                2j * np.pi * rng.uniform(size=n))
            F = Polynomial.from_roots(zs, leading=cmath.exp(1j * rng.uniform(0.0, TP)))
            lp = LambdaParam(n, rng.uniform(0.05, 0.95) * TP / n)
        v = eq8_oracle(F, lp, closed).as_dict()
        if v["method"] == "EQ8_GRID":
            assert v == reference_oracle_verdict(F, lp, closed), (t, v)
    assert nonfinite == 100


def test_routes_take_one_root_find_per_polynomial(monkeypatch):
    # a raw instance with a zero outside, decided by the four routes in turn:
    # the third route's preamble root-finds F, the first route reads the
    # roots kept on F, the closed oracle finds none, and the second route's
    # preamble root-finds P - Q, another polynomial.  Two eigensolves, not three
    calls = []
    real = roots._companion_roots
    monkeypatch.setattr(roots, "_companion_roots", lambda c: calls.append(c.size) or real(c))
    rng = np.random.default_rng(224)
    for n in range(2, 9):
        z = rng.uniform(0.3, 1.7, n) * np.exp(2j * np.pi * rng.uniform(size=n))
        z[0] = 1.5 * z[0] / abs(z[0])
        F = Polynomial.from_roots(z)
        lp = LambdaParam(n, 0.5 * TP / n)
        calls.clear()
        verdicts = [in_D_third(F, lp), in_D_first(F, lp), eq8_oracle(F, lp),
                    in_D_second(*split(F), lp)]
        assert not any(v.member for v in verdicts), (n, verdicts)
        assert len(calls) == 2, (n, calls)


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

    def test_in_D_runs_it_on_the_canonical_split(self):
        for lp, F in self.instances():
            for closed in (True, False):
                assert (in_D(F, lp, closed, "second").as_dict()
                        == in_D_second(*split(F), lp, closed).as_dict())


def test_second_route_on_non_canonical_splits():
    # P = (F^*n - c_Q^2 F) / (c_P^2 - c_Q^2) and Q = (F^*n - c_P^2 F) /
    # (c_P^2 - c_Q^2) split F for any distinct phases; the route orients its
    # pencil by sin(b - a), c_P = e^{ia}, c_Q = e^{ib}, and both signs occur
    rng = np.random.default_rng(7)
    orient = {True: 0, False: 0}
    decided = {True: 0, False: 0}
    by_sign = 0
    for _ in range(80):
        n = int(rng.integers(2, 7))
        lp = LambdaParam(n, float(rng.uniform(0.1, 0.9)) * TP / n)
        F = Polynomial.from_roots(rng.uniform(0.2, 0.9, n) * np.exp(1j * rng.uniform(0, TP, n)))
        a, b = rng.uniform(0.0, math.pi, 2)
        if abs(a - b) < 0.2:
            continue
        cP2, cQ2 = cmath.exp(2j * a), cmath.exp(2j * b)
        P = (F.n_inverse() - F * cQ2) * (1.0 / (cP2 - cQ2))
        Q = (F.n_inverse() - F * cP2) * (1.0 / (cP2 - cQ2))
        orient[b > a] += 1
        for closed in (True, False):
            v = in_D_second(P, Q, lp, closed)
            ref = in_D_second(*split(F), lp, closed)
            assert (v.member, v.indeterminate) == (ref.member, ref.indeterminate), (lp, closed)
            assert (v.margin > 0.0) == (ref.margin > 0.0), (lp, closed, v.margin, ref.margin)
            decided[ref.member] += not ref.indeterminate
            if v.member or "circle_point" in v.witnesses:  # decided by the sign test
                by_sign += 1
                assert -0.5 <= v.margin <= 0.5
    assert min(orient.values()) >= 20, orient
    assert min(decided.values()) >= 20, decided
    assert by_sign >= 20


def test_second_route_halves_need_no_root_find(crowded_split):
    # find_roots merges three of Q's unimodular zeros into one triple zero
    # inside the circle, which the route took for NotOnCircle.  Once F's
    # zeros are strictly inside, P's and Q's are on the circle (in_D_second)
    F, lp, P, Q = crowded_split
    for closed in (True, False):
        v = in_D_second(P, Q, lp, closed)
        assert not v.indeterminate and v.margin < -1e-6, v
        assert v.member == in_D_third(F, lp, closed).member
    with mpmath.workdps(60):
        for X in (P, Q):
            zs = mpmath.polyroots([mpmath.mpc(c.real, c.imag) for c in X.coeffs[::-1]],
                                  maxsteps=400, extraprec=200)
            assert len(zs) == lp.n
            assert max(abs(abs(z) - 1) for z in zs) < mpmath.mpf(10) ** -50


def certified_inside_instances():
    """(label, lp, F): stress draws, and boundary-family, scaled and
    rejection instances, as in the benchmark's routes mix."""
    for k in range(0, 400, 10):
        F, lp, _, _ = stress_draw(k)
        yield f"stress {k}", lp, F
    rng = np.random.default_rng(20)
    for i in range(45):
        n = 2 + i % 7
        lam = float(rng.uniform(0.05, 0.95)) * TP / n
        if i % 3 == 0:
            c = cmath.exp(1j * rng.uniform(0.1, math.pi - 0.1))
            F = extremal_family(n, lam, -float(rng.uniform(0.2, 2.0)),
                                float(rng.normal()), c) - q_extremal(n, lam)
            F = F.scale_argument(1.0 + 10 ** rng.uniform(-6, -1))
        elif i % 3 == 1:
            gaps = lam + (TP - n * lam) * rng.dirichlet(np.ones(n))
            zeros = rng.uniform(0.6, 0.97) * np.exp(1j * (rng.uniform(0, TP) + np.cumsum(gaps)))
            F = Polynomial.from_roots(zeros)
        else:
            zeros = rng.uniform(0.2, 0.95) * np.sqrt(rng.uniform(0, 1, n)) * np.exp(
                1j * rng.uniform(0, TP, n))
            F = Polynomial.from_roots(zeros)
        yield ("boundary", "scaled", "rejection")[i % 3], LambdaParam(n, lam), F


def all_routes(F, lp):
    return {(method, closed): in_D(F, lp, closed, method).as_dict()
            for method in ("third", "first", "second") for closed in (True, False)}


def test_certificate_leaves_every_verdict_as_the_root_find(monkeypatch):
    # the Schur-Cohn certificate only skips root finds: with it declining
    # every polynomial, each route root-finds and must reach the same verdict
    fired, real = [], classes.all_zeros_within
    monkeypatch.setattr(classes, "all_zeros_within",
                        lambda p, r: fired.append(real(p, r)) or fired[-1])
    instances = list(certified_inside_instances())
    fast = [all_routes(F, lp) for _, lp, F in instances]
    monkeypatch.setattr(classes, "all_zeros_within", lambda p, r: False)
    for (label, lp, F), want in zip(instances, fast):
        assert all_routes(F, lp) == want, label
    assert sum(fired) >= 200, (sum(fired), len(fired))


def test_member_paths_take_no_root_find(monkeypatch):
    # F's zeros certified inside: the third and second routes never root-find
    calls = []
    real = classes.find_roots
    monkeypatch.setattr(classes, "find_roots",
                        lambda p, *a, **k: calls.append(p) or real(p, *a, **k))
    for n in (3, 5, 8):
        lp = LambdaParam(n, 0.6 * TP / n)
        F = q_extremal(n, lp.lam).scale_argument(1.2)
        for closed in (True, False):
            for method in ("third", "second"):
                v = in_D(F, lp, closed, method)
                assert v.member and not v.indeterminate, (n, closed, method, v)
    assert calls == []


def test_root_readers_take_no_certificate(monkeypatch):
    # the first route and the open class at lambda = 0 read F's zeros: their
    # preamble root-finds F once (one eigensolve; a later find_roots on F
    # returns the kept root set), certified inside (scale 1.2) or declined
    # (scale 0.8, zeros outside), and runs no Schur-Cohn certificate
    calls = []
    real_within, real_eig = classes.all_zeros_within, roots._companion_roots
    monkeypatch.setattr(classes, "all_zeros_within",
                        lambda *a, **k: calls.append("all_zeros_within") or real_within(*a, **k))
    monkeypatch.setattr(roots, "_companion_roots",
                        lambda c: calls.append("eigensolve") or real_eig(c))
    for n in (3, 5, 8):
        lp = LambdaParam(n, 0.6 * TP / n)
        for scale in (1.2, 0.8):
            for closed in (True, False):
                F = q_extremal(n, lp.lam).scale_argument(scale)
                calls.clear()
                assert in_D(F, lp, closed, "first").member == (scale > 1.0)
                assert calls == ["eigensolve"], (n, scale, closed, calls)
            F = q_extremal(n, lp.lam).scale_argument(scale)
            calls.clear()
            assert in_D(F, LambdaParam(n, 0.0), False).member == (scale > 1.0)
            assert calls == ["eigensolve"], (n, scale, calls)


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
    early = _route_roots(F, lp, closed, label, "FIRST_CHAR")
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
            if _route_roots(F, lp, True, "D", "") is not None:
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
        # the preamble's; the route reads the zeros it found, kept on F, so
        # the one eigensolve is the preamble's
        calls = []
        real = roots._companion_roots
        monkeypatch.setattr(roots, "_companion_roots", lambda c: calls.append(c) or real(c))
        lp = LambdaParam(n, 0.6 * TP / n)
        for closed in (True, False):
            F = q_extremal(n, lp.lam).scale_argument(1.2)
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
        v = in_D(cpoly([0.0, 2.0, 4.0]), lp, False)
        assert v.member and v.method == "definition/routed_T"
        assert not in_D(cpoly([0.0, 0.0, 4.0]), lp, False).member

    def test_lambda_zero_open_blames_the_outermost(self):
        v = in_D(Polynomial.from_roots([0.5, 2.0, 0.3j]), LambdaParam(3, 0.0), False)
        assert not v.member
        assert v.witnesses["offending_root"] == pytest.approx(2.0)
        assert v.margin == pytest.approx(-1.0)

    def test_lambda_zero_open_rejects_mixed_zeros(self):
        v = in_D(Polynomial.from_roots([0.5, 1j, -1j]), LambdaParam(3, 0.0), False)
        assert not v.member and v.margin == 0.0
        assert "mixed_root_on_circle" in v.witnesses

    def test_upper_endpoint_small_leading_coefficient(self):
        # exact degree 4 although |c_4| is 1e-14 of the norm: b = 5e13
        # is far outside the disk, a finite non-member margin
        lp = LambdaParam(4, TP / 4)
        v = in_D(Polynomial([-0.5, 0, 0, 0, 1e-14], 4), lp, True)
        assert not v.member and math.isfinite(v.margin) and v.margin < 0
        assert v.witnesses["b"] == pytest.approx(5e13)

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

    def test_unknown_method_rejected_at_every_lambda(self):
        # the endpoints used to return their verdict whatever the method
        F = Polynomial.from_roots([0.2, 0.3])
        for lam in (0.0, 1.0, TP / 2):
            with pytest.raises(ValueError, match="unknown method"):
                in_D(F, LambdaParam(2, lam), True, "fourth")


class TestCharPolys:
    def test_degree_and_phase_structure(self):
        n, lam = 4, 0.5
        lp = LambdaParam(n, lam)
        F = q_extremal(n, lam).scale_argument(1.3)
        assert build_char_polys(F, lp).nominal_degree == 2 * n

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
            T = build_char_polys(F, LambdaParam(n, lam))
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

    def test_constant_difference(self):
        # P - Q = e^{0.5i} - e^{2i}: F's zero is at infinity and its
        # n-inverse's at 0, so F's n-inverse has it inside (this raised
        # ValueError from the root finder)
        P = Polynomial([cmath.exp(0.5j), 1], 1)
        Q = Polynomial([cmath.exp(2j), 1], 1)
        assert hermite_biehler(P, Q)
        assert hermite_biehler(P, Q, strict=True)

    @staticmethod
    def one_sided(F):
        # the lemma's other side: every zero of F = P - Q tagged INSIDE, or
        # every one OUTSIDE, counting the degree deficit as zeros at infinity
        Ft = trimmed(F)
        tags = list(find_roots(Ft).tags()) if Ft.exact_degree >= 1 else []
        tags += [OUTSIDE] * (F.nominal_degree - Ft.exact_degree)
        return set(tags) in ({INSIDE}, {OUTSIDE})

    def test_matches_zero_location_of_difference(self):
        # zero sets at least 1e-3 apart, half of them alternating and half
        # with one adjacent P, Q pair swapped, each side with a random
        # complex leading coefficient
        rng = np.random.default_rng(23)
        for i in range(120):
            alternating = i % 2 == 0
            n = int(rng.integers(1 if alternating else 2, 8))
            while True:
                a = np.sort(rng.uniform(0.0, TP, 2 * n))
                if np.min(np.diff(np.r_[a, a[0] + TP])) >= 1e-3:
                    break
            owner = np.arange(2 * n) % 2
            if not alternating:
                k = int(rng.integers(0, 2 * n - 1))
                owner[[k, k + 1]] = owner[[k + 1, k]]
            lead = rng.normal(size=2) + 1j * rng.normal(size=2)
            P, Q = cpoly(a[owner == 0], lead[0]), cpoly(a[owner == 1], lead[1])
            expected = self.one_sided(P - Q)
            assert expected == alternating, (n, a, owner)
            for strict in (False, True):
                assert hermite_biehler(P, Q, strict) == expected, (n, a, owner, strict)

    @pytest.mark.parametrize("gap, strict_expected", [(1e-8, True), (1e-10, False)])
    def test_near_shared_zero(self, gap, strict_expected):
        # alternating zeros with one P, Q pair gap apart: at 1e-8 they are
        # distinct although P - Q has a zero within CIRCLE_TOL of the
        # circle; at 1e-10 they are within ANG_TOL and so shared; the
        # equal-phase pencil test agrees
        P = cpoly([0.5, 2.0, TP - 2.0, TP - 0.5])
        Q = cpoly([0.5 + gap, 3.0, 5.0, 6.1])
        for lead in (cmath.exp(0.7j), 1j):
            assert hermite_biehler(P, Q * lead)
            assert hermite_biehler(P, Q * lead, strict=True) == strict_expected
        Qk = Q * (self_inversive_phase(Q) / self_inversive_phase(P))
        assert hermite_kakeya(P, Qk)
        assert hermite_kakeya(P, Qk, strict=True) == strict_expected

    def test_zeros_off_the_circle_false(self):
        # a symmetric off-circle pair (0.5 and 2 at one argument) keeps P
        # self-inversive; this raised NotOnCircle, while the equal-phase
        # lemma returned False on the same zero sets
        P = Polynomial.from_roots(np.r_[0.5, 2.0, 1.0, 1.0]
                                  * np.exp(1j * np.r_[1.0, 1.0, 3.0, 4.5]))
        Q = cpoly([0.5, 2.0, 4.0, 5.5])
        for lead in (cmath.exp(0.7j), 1j):
            for strict in (False, True):
                assert not hermite_biehler(P, Q * lead, strict)
                assert not hermite_biehler(Q * lead, P, strict)
        Qk = Q * (self_inversive_phase(Q) / self_inversive_phase(P))
        assert not hermite_kakeya(P, Qk)


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
        # the equal-phase check admits every real multiple, negative ones too
        for a in (2.0, -1.0, -3.0):
            with pytest.raises(BadParams):
                hermite_kakeya(self.P, self.P * a)

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


def scaled_verdicts(F, lp):
    """repr of every route's verdict at both closures, of the half-plane
    criterion, and of F's roots (an exception's type where one is raised)."""
    calls = [lambda m=m, c=c: in_D(F, lp, c, m) for m in ("third", "first", "second", "oracle")
             for c in (True, False)]
    calls += [lambda: half_plane_criterion(F), lambda: find_roots(F)]
    out = []
    for call in calls:
        try:
            out.append(repr(call()))
        except (HypothesisViolated, ValueError) as e:
            out.append(type(e).__name__)
    return out


@pytest.mark.parametrize("k", [-900, -300, 300, 900, "top"])
def test_verdicts_do_not_depend_on_a_common_scale(k):
    # the classes are invariant under F -> cF, and a power of two c rounds
    # no coefficient, so every verdict must come out the same.  At 1e155
    # the second route and the half-plane criterion gave decided verdicts
    # with a NaN margin, and the third route a NaN margin.  "top" scales
    # each F to a largest coefficient modulus in [2^1020, 2^1021), where
    # the oracle's grid values and the first route's radii overflowed
    rng = np.random.default_rng(1024)
    instances = [(lp, F) for i, (_, lp, F) in enumerate(certified_inside_instances())
                 if i % 6 == 0]
    for _ in range(8):
        n = int(rng.integers(2, 7))
        c = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
        instances.append((LambdaParam(n, float(rng.uniform(0.1, 0.9)) * TP / n),
                          Polynomial(c, n)))
    for lp, F in instances:
        e = 1021 - math.frexp(F.norm())[1] if k == "top" else k
        G = Polynomial([complex(math.ldexp(c.real, e), math.ldexp(c.imag, e))
                        for c in F.coeffs], F.nominal_degree)
        assert scaled_verdicts(G, lp) == scaled_verdicts(F, lp), (k, F)


def test_verdicts_at_a_scale_near_overflow():
    F, lp = Polynomial([0.25, 0.5, 1.0], 2), LambdaParam(2, 0.5)
    for G in (F * 1e155, F * 1e-160):
        for m in ("third", "first", "second", "oracle"):
            got, want = in_D(G, lp, True, m), in_D(F, lp, True, m)
            assert got.member and not got.indeterminate, m
            assert got.margin == pytest.approx(want.margin, rel=1e-12), m
        v = half_plane_criterion(G)
        assert v.member and v.margin == pytest.approx(0.16216216216216, rel=1e-12)


class TestHalfPlane:
    def test_monomial_plus_small_constant(self):
        v = half_plane_criterion(Polynomial([0.4, 0, 0, 1.0], 3))
        assert v.member and not v.indeterminate
        assert 0.0 < v.margin <= 0.5

    def test_pre_extremal_geometric(self):
        n = 5
        # |b| > 1 keeps the constant coefficient below the leading one
        b = 1.3 * cmath.exp(0.4j)
        f = Polynomial([b ** k for k in range(n + 1)], n)
        assert half_plane_criterion(f).member

    def test_failing_instance(self):
        v = half_plane_criterion(Polynomial([0.3, 5.0, -4.0, 1.0], 3))
        assert not v.member and not v.indeterminate
        assert -0.5 <= v.margin < 0.0 and "circle_point" in v.witnesses

    def test_dip_between_grid_nodes(self):
        # Re((f - a_0)/(a_n z^n - a_0)) - 1/2 stays at +2.3e-7 on 256
        # equally spaced circle nodes but reaches -8.5e-7 between them
        f = Polynomial([(-0.6346534336264298 + 0.7101563117269551j),
                        (-0.012854846517861417 - 0.0019395193592322438j),
                        (-0.006696745356542426 + 0.0009809881528897778j),
                        (0.0038002408359771637 - 0.0028298862288302063j),
                        (-0.01224918473253129 - 0.012528229707653315j),
                        (-0.9871641976519347 + 0.15970863118257517j)], 5)
        z = np.exp(2j * np.pi * np.arange(65536) / 65536)
        c = f.coeffs
        assert np.min(np.real((f.eval_many(z) - c[0]) / (c[5] * z ** 5 - c[0]))) < 0.5
        v = half_plane_criterion(f)
        assert not v.member and not v.indeterminate
        assert v.margin < 0.0

    def test_hypothesis_guard(self):
        with pytest.raises(HypothesisViolated):
            half_plane_criterion(Polynomial([1.0, 0, 1.0], 2))


def dense_g(A, B, count=65536):
    """g = Im(A conj B) / (|A|^2 + |B|^2) on count equally spaced circle
    points, and half the largest second difference of g there: the grid
    minimum is above the true one by at most a quarter of that."""
    z = np.exp(2j * np.pi * np.arange(count) / count)
    a = np.polyval(np.asarray(A)[::-1], z)
    b = np.polyval(np.asarray(B)[::-1], z)
    g = (a * np.conj(b)).imag / (np.abs(a) ** 2 + np.abs(b) ** 2)
    return g, float(np.max(np.abs(np.roll(g, 1) - 2.0 * g + np.roll(g, -1)))) / 2.0


class TestSignedMinimumMargins:
    """A decided non-member's margin is the signed minimum of g on the
    circle, also where the negative extreme of g is the larger in modulus
    (the margin read -max g there when the sign test guessed orientation)."""

    def check(self, v, A, B):
        g, res = dense_g(A, B)
        assert g.min() - res <= v.margin <= g.min() + 1e-12, (v.margin, g.min(), res)
        return -g.min() > g.max()

    def test_third_route(self):
        rng = np.random.default_rng(2026)
        count = larger_negative = 0
        for _ in range(150):
            n = int(rng.integers(2, 6))
            lp = LambdaParam(n, float(rng.uniform(0.1, 0.9)) * TP / n)
            F = Polynomial.from_roots(rng.uniform(0.3, 0.95, n)
                                      * np.exp(1j * rng.uniform(0, TP, n)))
            v = in_D_third(F, lp, closed=False)
            if v.member or v.indeterminate or "circle_point" not in v.witnesses:
                continue
            h = lp.lam / 2.0
            count += 1
            larger_negative += self.check(v, cmath.exp(-1j * n * h) * F.rotate(h).coeffs,
                                          F.rotate(-h).coeffs)
        assert count >= 50 and larger_negative >= 20, (count, larger_negative)

    def test_half_plane_criterion(self):
        rng = np.random.default_rng(2026)
        count = larger_negative = 0
        for _ in range(150):
            n = int(rng.integers(2, 7))
            c = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
            c[n] = 1.0
            c[0] *= 0.9 / max(1.0, abs(c[0]))
            v = half_plane_criterion(Polynomial(c, n))
            if v.member or v.indeterminate:
                continue
            count += 1
            larger_negative += self.check(v, 1j * np.r_[c[0] / 2, c[1:n], c[n] / 2],
                                          np.r_[-c[0], np.zeros(n - 1), c[n]])
        assert count >= 50 and larger_negative >= 20, (count, larger_negative)


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
