"""Randomized trial runners: samplers, reproducibility, report invariants."""

import json
import math

import numpy as np
import pytest

from polyconv import harness
from polyconv.errors import OutOfRange, SamplerExhausted
from polyconv.poly import LambdaParam
from polyconv.roots import RootSet
from polyconv.classes import _third_sign, in_D_third, in_T
from polyconv.poly import Polynomial
from polyconv.domains import IN, BOUNDARY, contains, limacon_inner, limacon_outer
from polyconv.harness import (
    TrialReport,
    run_gauss_lucas_trial,
    run_grid,
    run_herglotz_trial,
    run_limacon_trial,
    run_main_trial,
    run_suffridge_trial,
    sample_D,
    sample_T,
    sample_inner_limacon,
    sample_outer_limacon,
    standard_grid,
)


class TestSamplers:
    def test_sample_T_members(self):
        rng = np.random.default_rng(0)
        for n in (2, 4, 7):
            for frac in (0.0, 0.3, 0.7):
                lam = frac * 2 * math.pi / n
                lp = LambdaParam(n, lam)
                for _ in range(5):
                    p = sample_T(n, lam, strict=False, rng=rng)
                    assert in_T(p, lp, closed=True).member
                    q = sample_T(n, lam, strict=True, rng=rng)
                    assert in_T(q, lp, closed=False).member

    def test_sample_T_endpoint_equal_gaps(self):
        rng = np.random.default_rng(1)
        n = 5
        lam = 2 * math.pi / n
        p = sample_T(n, lam, strict=False, rng=rng)
        roots = np.sort(np.angle(np.roots(p.coeffs[::-1])))
        gaps = np.diff(roots)
        assert np.allclose(gaps, lam, atol=1e-9)

    def test_strict_at_endpoint_rejected(self):
        rng = np.random.default_rng(2)
        with pytest.raises(OutOfRange):
            sample_T(4, 2 * math.pi / 4, strict=True, rng=rng)
        # and sample_D needs the open interval; the float below the upper
        # endpoint counts as the endpoint
        for lam in (2 * math.pi / 4, np.nextafter(2 * math.pi / 4, 0.0), 2.0):
            with pytest.raises(OutOfRange):
                sample_D(4, lam, rng)

    @pytest.mark.parametrize("strategy", ["scaled", "boundary", "rejection"])
    def test_sample_D_members(self, strategy):
        rng = np.random.default_rng(3)
        n, lam = 4, 0.5
        lp = LambdaParam(n, lam)
        for _ in range(5):
            F, tag = sample_D(n, lam, rng, strategy=strategy)
            assert tag == strategy
            closed = strategy == "boundary"
            assert in_D_third(F, lp, closed=closed).member

    @pytest.mark.parametrize("n", range(2, 9))
    def test_rejection_draws_skip_the_preamble(self, n):
        # sample_D's rejection draws have every zero inside |z| < 0.95, so
        # the sign test alone gives in_D_third's verdict
        rng = np.random.default_rng(100 + n)
        for j in range(12):
            lp = LambdaParam(n, (j + 0.5) / 12 * 2 * math.pi / n)
            radius = rng.uniform(0.2, 0.95)
            F = Polynomial.from_roots(radius * np.sqrt(rng.uniform(0.0, 1.0, n)) * np.exp(
                2j * np.pi * rng.uniform(0.0, 1.0, n)))
            for closed in (False, True):
                assert _third_sign(F, lp, closed).as_dict() == \
                    in_D_third(F, lp, closed).as_dict()

    def test_sample_D_lambda_zero(self):
        rng = np.random.default_rng(4)
        F, tag = sample_D(3, 0.0, rng)
        assert tag == "disk"
        assert np.max(np.abs(np.roots(F.coeffs[::-1]))) < 1.0

    def test_limacon_samplers(self):
        rng = np.random.default_rng(5)
        for gamma in (0.0, 0.25, 0.9):
            for _ in range(20):
                z = sample_inner_limacon(gamma, rng)
                assert contains(limacon_inner(gamma), z) == IN
                w = sample_outer_limacon(gamma, rng)
                assert contains(limacon_outer(gamma), w) in (IN, BOUNDARY)

    def test_closed_limacon_sampler_hits_tip(self):
        rng = np.random.default_rng(6)
        pts = [sample_inner_limacon(0.5, rng, closed=True) for _ in range(60)]
        assert any(z == -1.0 for z in pts)


class TestReport:
    def test_record_and_skip_bookkeeping(self):
        rep = TrialReport("t", seed=7)
        rep.record(0.5)
        rep.record(-0.1, witness={"tag": "bad"})
        rep.skip()
        assert rep.trials == 3
        assert rep.failures == 1
        assert rep.indeterminate == 1
        assert rep.worst_margin == -0.1
        assert not rep.ok
        assert rep.failures == len(rep.witnesses)

    def test_judge_builds_the_witness_on_failure_only(self):
        built = []

        def witness():
            built.append(1)
            return {"tag": "bad"}

        rep = TrialReport("t")
        harness._judge(rep, 0.5, witness)
        harness._judge(rep, 1e-9, witness)
        harness._judge(rep, -0.5, witness, indeterminate=True)
        assert built == [] and rep.failures == 0
        harness._judge(rep, -0.5, witness)
        assert built == [1] and rep.witnesses == [{"tag": "bad"}]

    def test_json_round_trip(self):
        rep = TrialReport("t", seed=1)
        rep.record(0.2)
        d = json.loads(rep.to_json())
        assert d["trials"] == 1 and d["failures"] == 0 and d["seed"] == 1


class TestRunners:
    def test_suffridge_trial_passes(self):
        rep = run_suffridge_trial(4, 0.5, trials=12, seed=0)
        assert rep.ok
        assert rep.trials == 12

    def test_main_trial_passes(self):
        rep = run_main_trial(4, 0.5, trials=9, seed=0)
        assert rep.ok

    def test_gauss_lucas_trial_passes(self):
        rep = run_gauss_lucas_trial(5, 0.4, trials=9, seed=0)
        assert rep.ok

    def test_limacon_trial_passes(self):
        rep = run_limacon_trial(1.0, 0.25, 4, trials=14, seed=0)
        assert rep.ok

    def test_limacon_trial_rejects_gamma_and_n(self):
        for gamma, n in ((1.0, 4), (0.25, 0)):
            with pytest.raises(OutOfRange):
                run_limacon_trial(1.0, gamma, n, trials=1)

    def test_limacon_failure_path(self, monkeypatch):
        # every product gets the roots 0 and 5: 5 lies outside the Möbius
        # disk and the inner limaçon, 0 outside the disk's complement and
        # the outer limaçon, so each positive arm sees a root outside its
        # region
        monkeypatch.setattr(harness, "find_roots",
                            lambda p: RootSet(((0j, 1), (5 + 0j, 1)), 0.0))
        rep = run_limacon_trial(1.0, 0.25, 4, trials=6, seed=0)
        assert rep.trials == 6 and rep.failures == 6
        assert rep.worst_margin == -1.0
        assert [w["tag"] for w in rep.witnesses] == [
            "arm closed*inner", "arm open*closed-inner", "arm complement*outer",
            "arm complement-closed*outer-closed", "arm inner-self", "arm outer-self"]
        assert [w["offending_root"] for w in rep.witnesses] == [
            [5.0, 0.0], [5.0, 0.0], [0.0, 0.0], [0.0, 0.0], [5.0, 0.0], [0.0, 0.0]]
        assert all(w["trial"] == t and len(w["polys"]) == 2
                   for t, w in enumerate(rep.witnesses))

    def test_reproducible_bit_exact(self):
        runs = [
            lambda seed: run_suffridge_trial(3, 0.6, trials=8, seed=seed),
            lambda seed: run_main_trial(3, 0.6, trials=6, seed=seed),
            lambda seed: run_main_trial(3, 0.0, trials=3, seed=seed),
            lambda seed: run_gauss_lucas_trial(3, 0.6, trials=6, seed=seed),
            lambda seed: run_limacon_trial(1.0, 0.25, 3, trials=7, seed=seed),
            lambda seed: run_herglotz_trial(3, seed=seed),
        ]
        for run in runs:
            a = run(42)
            assert a.to_json() == run(42).to_json()
            assert run(43).to_json() != a.to_json()

    def test_grid_shape(self):
        grid = list(standard_grid(n_max=4))
        # 8 lambda values for each n in {2, 3, 4}
        assert len(grid) == 24
        assert all(0.0 <= lam < 2 * math.pi / n for n, lam in grid)

    def test_run_grid_dispatch(self):
        reps = run_grid("suffridge", trials=2, seed=0, n_max=3)
        assert len(reps) == 16
        assert all(r.ok for r in reps)
        with pytest.raises(ValueError):
            run_grid("nonsense", trials=1)
