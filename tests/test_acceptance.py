"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single PASS/FAIL line.  Tolerances and instance counts
are part of the contract and must not be loosened here.
"""

import cmath
import math
import time

import numpy as np
import pytest

from polyconv.errors import PositivityLost
from polyconv.poly import LambdaParam, Polynomial
from polyconv.qconv import (
    grace_szego,
    lambda_convolve,
    q_coefficient,
    q_extremal,
)
from polyconv.classes import (
    eq8_oracle,
    extremal_family,
    half_plane_criterion,
    in_D,
    in_D_first,
    in_D_third,
    in_T,
    pre_class_test,
)
from polyconv.harness import (
    MARGIN_TOL,
    _trial_rng,
    run_gauss_lucas_trial,
    run_limacon_trial,
    run_main_trial,
    run_suffridge_trial,
    sample_D,
    sample_T,
    standard_grid,
)
from polyconv.herglotz import (
    build_approximant,
    default_schedule,
    evaluate_approximant_many,
    folded_polynomial,
)


def report(num, label, ok, detail=""):
    line = f"CRITERION {num:2d} [{label}]: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def rand_poly(rng, n):
    return Polynomial(rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1), n)


def test_criterion_1_coefficient_identities():
    t0 = time.time()
    worst = 0.0
    for n in range(1, 17):
        for j in range(32):
            lam = j * (2 * math.pi / n) / 32
            Q = q_extremal(n, lam)
            for k in range(n + 1):
                want = q_coefficient(n, k, lam)
                err = abs(Q.coeffs[k] - want) / max(1.0, abs(want))
                worst = max(worst, err)
        assert all(
            round(q_coefficient(n, k, 0.0)) == math.comb(n, k)
            and q_coefficient(n, k, 0.0) == float(math.comb(n, k))
            for k in range(n + 1))
        endpoint = q_extremal(n, 2 * math.pi / n)
        target = np.zeros(n + 1, dtype=complex)
        target[0] = target[n] = 1.0
        worst = max(worst, float(np.max(np.abs(endpoint.coeffs - target))))
    dt = time.time() - t0
    report(1, "coefficient identities", worst <= 1e-12 and dt < 1.0,
           f"worst {worst:.2e}, {dt:.2f}s")


def test_criterion_2_algebraic_laws():
    t0 = time.time()
    rng = np.random.default_rng(1)
    ok = True
    for _ in range(200):
        n = int(rng.integers(2, 8))
        lam = float(rng.uniform(0.0, 0.9)) * 2 * math.pi / n
        lp = LambdaParam(n, lam)
        f, g, h = (rand_poly(rng, n) for _ in range(3))
        # n-inverse distributes over the weighted convolution
        ok &= lambda_convolve(f, g, lp).n_inverse().approx_eq(
            lambda_convolve(f.n_inverse(), g.n_inverse(), lp), 1e-11)
        # argument-scaling law of the n-inverse
        c = np.exp(1j * rng.uniform(0, 2 * math.pi))
        ok &= f.scale_argument(c).n_inverse().approx_eq(
            f.n_inverse().scale_argument(c) * np.conj(c) ** n, 1e-11)
        # associativity and the identity element
        ok &= lambda_convolve(lambda_convolve(f, g, lp), h, lp).approx_eq(
            lambda_convolve(f, lambda_convolve(g, h, lp), lp), 1e-10)
        ok &= lambda_convolve(q_extremal(n, lam), f, lp).approx_eq(f, 1e-11)
        # derivative via the shifted binomial kernel
        K = Polynomial(
            np.concatenate([[0.0], Polynomial.from_roots([-1.0] * (n - 1)).coeffs]), n)
        ok &= grace_szego(f, K).approx_eq(
            Polynomial(np.concatenate([[0.0], f.derivative().coeffs]) / n, n), 1e-11)
        # lambda = 0 reduction to the binomial weighting
        ok &= lambda_convolve(f, g, LambdaParam(n, 0.0)).approx_eq(
            grace_szego(f, g), 1e-11)
        if not ok:
            break
    dt = time.time() - t0
    report(2, "algebraic laws", ok and dt < 5.0, f"{dt:.2f}s")


def test_criterion_3_circle_convolution_closure():
    t0 = time.time()
    failures = indet = trials = 0
    for n, lam in standard_grid(8):
        rep = run_suffridge_trial(n, lam, trials=100, seed=3)
        failures += rep.failures
        indet += rep.indeterminate
        trials += rep.trials
    dt = time.time() - t0
    rate = indet / trials
    report(3, "circle-class convolution closure",
           failures == 0 and rate <= 0.05 and dt < 60.0,
           f"{trials} trials, {failures} failures, "
           f"indeterminate {100 * rate:.2f}%, {dt:.1f}s")


def test_criterion_4_disk_convolution_and_half_plane():
    t0 = time.time()
    failures = trials = 0
    for n, lam in standard_grid(8):
        rep = run_main_trial(n, lam, trials=100, seed=4)
        failures += rep.failures
        trials += rep.trials

    # biconditional: the half-plane test marks exactly the polynomials whose
    # weighted lift is an open-disk-class member for some lambda
    rng = np.random.default_rng(44)
    passing = failing = 0
    bad = 0
    while passing < 100 or failing < 100:
        n = int(rng.integers(2, 7))
        if passing < 100:
            c = np.zeros(n + 1, dtype=complex)
            c[n] = 1.0
            c[:n] = (0.25 / n) * (rng.normal(size=n) + 1j * rng.normal(size=n))
            f = Polynomial(c, n)
        else:
            f = rand_poly(rng, n)
            if abs(f.coeffs[0]) >= abs(f.coeffs[n]):
                continue
        v = half_plane_criterion(f)
        assert not v.indeterminate, (f.coeffs, v.margin)
        verdict = v.member
        grid = [j * (2 * math.pi / n) / 8 for j in range(8)]
        admits = any(
            pre_class_test(f, LambdaParam(n, lam), "PD_open").member
            for lam in reversed(grid))
        if verdict and passing < 100:
            passing += 1
            bad += 0 if admits else 1
        elif not verdict and failing < 100:
            failing += 1
            bad += 0 if not admits else 1
    dt = time.time() - t0
    report(4, "disk-class convolution and half-plane biconditional",
           failures == 0 and bad == 0 and dt < 120.0,
           f"{trials} grid trials, {failures} failures, "
           f"biconditional mismatches {bad}, {dt:.1f}s")


def test_criterion_5_route_agreement():
    rng = np.random.default_rng(5)
    decided = disagreements = 0
    while decided < 500:
        n = int(rng.integers(2, 9))
        lam = float(rng.uniform(0.1, 0.9)) * 2 * math.pi / n
        lp = LambdaParam(n, lam)
        if rng.random() < 0.5:
            F, _ = sample_D(n, lam, rng)
        else:
            roots = rng.uniform(0.3, 1.7, n) * np.exp(
                2j * np.pi * rng.uniform(size=n))
            F = Polynomial.from_roots(roots)
        verdicts = [in_D_third(F, lp, True), in_D_first(F, lp, True),
                    eq8_oracle(F, lp, True), in_D(F, lp, True, "second")]
        if any(v.indeterminate or abs(v.margin) <= 1e-6 for v in verdicts):
            continue
        decided += 1
        if len({v.member for v in verdicts}) != 1:
            disagreements += 1
    report(5, "four-route membership agreement", disagreements == 0,
           f"{decided} decided instances, {disagreements} disagreements")


def test_criterion_6_difference_operator_zero_mapping():
    failures = trials = 0
    for n, lam in standard_grid(8):
        rep = run_gauss_lucas_trial(n, lam, trials=60, seed=6)
        failures += rep.failures
        trials += rep.trials
    report(6, "difference-operator zero mapping (both directions)",
           failures == 0, f"{trials} trials, {failures} failures")


def test_criterion_7_boundary_family():
    rng = np.random.default_rng(7)
    bad = 0
    for _ in range(100):
        n = int(rng.integers(2, 9))
        lam = float(rng.uniform(0.05, 0.95)) * 2 * math.pi / n
        lp = LambdaParam(n, lam)
        b = float(rng.normal())
        c = cmath.exp(1j * rng.uniform(0.05, 2 * math.pi - 0.05))
        while abs(c.imag) < 1e-3:
            c = cmath.exp(1j * rng.uniform(0.05, 2 * math.pi - 0.05))
        # membership orientation: a opposite in sign to Im(c)
        a = -math.copysign(float(rng.uniform(0.2, 2.0)), c.imag)
        P = extremal_family(n, lam, a, b, c)
        Q = q_extremal(n, lam)
        F = P - Q
        roots_on = bool(np.all(np.abs(
            np.abs(np.roots(P.coeffs[::-1])) - 1.0) <= 1e-7))
        member = in_D_third(F, lp, True).member
        not_t = not in_T(F, lp, True).member
        ident = float(np.max(np.abs(
            (F - F.n_inverse() * (c * c)).coeffs - (Q * (c * c - 1.0)).coeffs)))
        if not (roots_on and member and not_t and ident <= 1e-10):
            bad += 1
    report(7, "explicit boundary family", bad == 0, f"{bad} bad instances")


def test_criterion_8_limacon_invariance():
    t0 = time.time()
    failures = trials = negatives = 0
    # 175 trials per (gamma, tau) = 25 per arm; 6 positive arms and 1
    # planted-counterexample arm, so 200 positive trials per part per
    # parameter sweep and 50 negative instances per gamma
    for gamma in (0.0, 0.25, 0.5, 0.9):
        for tau in (1.0 + 0.0j, 2.0j):
            rep = run_limacon_trial(tau, gamma, 5, trials=175, seed=8)
            failures += rep.failures
            trials += rep.trials
            negatives += 25
    dt = time.time() - t0
    report(8, "limacon region invariance", failures == 0 and dt < 120.0,
           f"{trials} trials over 8 parameter combos, "
           f"{negatives // 2} planted negatives per gamma, {dt:.1f}s")


def test_criterion_9a_kernel_approximant_structure():
    # structural guarantees: positive weights summing to one without
    # rescaling, real folded-polynomial values totalling 2m, and
    # monotone error decrease along the default schedule
    b = 0.6 * np.exp(0.8j)
    coeffs = [1.0] + [2.0 * b ** k for k in range(1, 300)]
    ok = True
    for j in (3, 4, 5):
        k, r = default_schedule(j)
        h = build_approximant(coeffs[: k + 1], k, r)
        ok &= all(w > 0 for w in h.weights)
        ok &= abs(sum(h.weights) - 1.0) <= 1e-10
        m = 2 * k
        P = folded_polynomial(coeffs[: k + 1], k, r)
        vals = P.eval_many(np.exp(2j * np.pi * np.arange(1, m + 1) / m))
        ok &= abs(float(np.sum(vals.real)) - 2 * m) / (2 * m) <= 1e-9
    zs = 0.5 * np.exp(2j * np.pi * np.arange(48) / 48)
    f = (1.0 + b * zs) / (1.0 - b * zs)
    errs = []
    for j in (3, 4, 5, 6):
        k, r = default_schedule(j)
        h = build_approximant(coeffs[: k + 1], k, r)
        errs.append(float(np.max(np.abs(evaluate_approximant_many(h, zs) - f))))
    monotone = all(a > c for a, c in zip(errs, errs[1:]))
    report(9, "kernel approximant structure and schedule",
           ok and monotone, f"errors {', '.join(f'{e:.3f}' for e in errs)}")


def test_criterion_9b_kernel_approximant_operating_point():
    # stated operating point (k=64, r=0.95) for f = (1+z)/(1-z): the
    # degree-64 truncation of f(0.95 z) has Re reaching about -1.1e-2 on the
    # circle, so the positive-weight construction's own hypothesis fails
    # there, and even with the weights computed regardless the sup error on
    # |z| <= 1/2 is about 0.19 (approximating f(0.95 z) rather than f).
    # This check is expected to fail and is kept at the stated point
    # deliberately rather than weakened.
    coeffs = [1.0] + [2.0] * 64
    try:
        h = build_approximant(coeffs, 64, 0.95)
    except PositivityLost as e:
        report(9, "kernel approximant at k=64, r=0.95", False, str(e))
    zs = 0.5 * np.exp(2j * np.pi * np.arange(48) / 48)
    err = float(np.max(np.abs(
        evaluate_approximant_many(h, zs) - (1.0 + zs) / (1.0 - zs))))
    report(9, "kernel approximant at k=64, r=0.95", err < 0.05,
           f"sup error {err:.3f}")


def test_criterion_10_dichotomy_and_monotonicity():
    rng = np.random.default_rng(10)
    # dichotomy: closed-class members never mix root locations across the
    # circle; any accepted instance has all roots ON or all in the disk
    bad = 0
    for _ in range(200):
        n = int(rng.integers(2, 8))
        lam = float(rng.uniform(0.1, 0.9)) * 2 * math.pi / n
        lp = LambdaParam(n, lam)
        roots = rng.uniform(0.5, 1.5, n) * np.exp(2j * np.pi * rng.uniform(size=n))
        radii = np.abs(roots)
        mixed = np.any(radii < 1.0 - 1e-6) and np.any(radii > 1.0 + 1e-6)
        if not mixed:
            continue
        v = in_D_third(Polynomial.from_roots(roots), lp, True)
        if v.member and abs(v.margin) > MARGIN_TOL:
            bad += 1
    # monotonicity: an open-class member at lambda stays a member at every
    # larger lambda after convolution with the wider identity element
    chain_bad = 0
    for t in range(100):
        rng2 = _trial_rng(10, t)
        n = int(rng2.integers(2, 8))
        upper = 2 * math.pi / n
        lam = float(rng2.uniform(0.1, 0.5)) * upper
        F, _ = sample_D(n, lam, rng2, strategy="scaled")
        lp = LambdaParam(n, lam)
        for frac in (0.65, 0.8, 0.92):
            mu = frac * upper
            G = lambda_convolve(F, q_extremal(n, mu), lp)
            v = in_D_third(G, LambdaParam(n, mu), closed=False)
            if not v.member and abs(v.margin) > MARGIN_TOL:
                chain_bad += 1
    report(10, "dichotomy and lambda-monotonicity",
           bad == 0 and chain_bad == 0,
           f"{bad} mixed acceptances, {chain_bad} chain violations")
