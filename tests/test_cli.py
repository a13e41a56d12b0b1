"""Command line interface: subcommands, exit codes, global options."""

import cmath
import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import polyconv
from polyconv import cli, harness
from polyconv.cli import main
from polyconv.errors import NoConvergence
from polyconv.poly import Polynomial
from polyconv.qconv import q_coefficient


METHODS = ("first", "second", "third", "oracle")


def write_poly(path, p):
    path.write_text(p.to_json())
    return str(path)


@pytest.fixture
def pjson(tmp_path):
    return write_poly(tmp_path / "p.json",
                      Polynomial.from_roots([0.5, np.exp(0.3j), 2.0]))


class TestBasicCommands:
    def test_qcoef(self, capsys):
        assert main(["qcoef", "5", "2", "0"]) == 0
        assert capsys.readouterr().out.strip() == "10"

    def test_qcoef_out_of_range(self, capsys):
        assert main(["qcoef", "4", "9", "0"]) == 2

    def test_qpoly(self, capsys):
        assert main(["qpoly", "3", "0.5"]) == 0
        d = json.loads(capsys.readouterr().out)
        assert d["n"] == 3
        got = [complex(re, im) for re, im in d["coeffs"]]
        for k, c in enumerate(got):
            assert abs(c - q_coefficient(3, k, 0.5)) < 1e-12

    def test_qpoly_high_degree(self, capsys):
        assert main(["qpoly", "80", "0.07"]) == 0
        d = json.loads(capsys.readouterr().out)
        assert d["n"] == 80 and len(d["coeffs"]) == 81
        assert np.all(np.isfinite(np.array(d["coeffs"])))

    def test_convolve_modes_agree_at_lambda_zero(self, tmp_path, capsys):
        f = write_poly(tmp_path / "f.json", Polynomial([1, 2, 3], 2))
        g = write_poly(tmp_path / "g.json", Polynomial([2, 0, 1j], 2))
        assert main(["convolve", "--mode", "gs", f, g]) == 0
        gs = capsys.readouterr().out
        assert main(["convolve", "--mode", "lambda", "--lambda", "0", f, g]) == 0
        lam = capsys.readouterr().out
        a = np.array(json.loads(gs)["coeffs"])
        b = np.array(json.loads(lam)["coeffs"])
        assert np.allclose(a, b, atol=1e-12)

    def test_convolve_lambda_mode_needs_lambda(self, tmp_path):
        f = write_poly(tmp_path / "f.json", Polynomial([1, 2, 3], 2))
        assert main(["convolve", "--mode", "lambda", f, f]) == 2

    def test_roots_json_and_csv(self, pjson, capsys):
        assert main(["roots", pjson]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert sorted(r["tag"] for r in rows) == ["INSIDE", "ON", "OUTSIDE"]
        assert main(["--output-format", "csv", "roots", pjson]) == 0
        text = capsys.readouterr().out
        assert text.splitlines()[0] == "re,im,mult,tag"

    def test_inverse_round_trip(self, pjson, capsys, tmp_path):
        assert main(["inverse", pjson]) == 0
        inv = json.loads(capsys.readouterr().out)
        with open(pjson) as fh:
            orig = json.load(fh)
        a = np.array([complex(r, i) for r, i in orig["coeffs"]])
        b = np.array([complex(r, i) for r, i in inv["coeffs"]])
        assert np.allclose(b, np.conj(a[::-1]), atol=1e-15)

    def test_delta_degree_drops(self, pjson, capsys):
        assert main(["delta", "--lambda", "0.4", pjson]) == 0
        assert json.loads(capsys.readouterr().out)["n"] == 2

    def test_missing_file(self):
        assert main(["roots", "/nonexistent/q.json"]) == 2

    @pytest.mark.parametrize("argv", [
        ["qcoef", "0", "0", "0.5"],
        ["qpoly", "0", "0.5"],
        ["verify", "--theorem", "limacon", "--n", "0", "--trials", "1"],
        ["domain", "boundary", "--spec", "unit_disk", "--samples", "0"],
        ["verify", "--theorem", "herglotz", "--trials", "0"],
        ["verify", "--theorem", "suffridge", "--n", "3", "--lambda", "0.5",
         "--trials", "-2"],
        ["domain", "boundary", "--spec", "omega:nan,0,0.5"],
        ["domain", "boundary", "--spec", "omega:inf,0,0.5"],
        ["domain", "contains", "--spec", "unit_disk", "--point", "nan,0"],
        ["domain", "contains", "--spec", "unit_disk", "--point", "0,-inf"],
        ["domain", "contains", "--spec", "unit_disk", "--point", "0,0", "--tol", "nan"],
        ["domain", "contains", "--spec", "unit_disk", "--point", "0,0", "--tol=-1e-9"],
        ["domain", "contains", "--spec", "unit_disk", "--point", "0,0", "--tol", "inf"],
        ["verify", "--theorem", "herglotz", "--trials", "1",
         "--max-indeterminate-fraction", "nan"],
        ["verify", "--theorem", "herglotz", "--trials", "1",
         "--max-indeterminate-fraction", "1.5"],
        ["verify", "--theorem", "herglotz", "--trials", "1",
         "--max-indeterminate-fraction=-0.1"],
        ["domain", "boundary", "--spec", "limacon_i_closed:1", "--samples", "4"],
        ["domain", "boundary", "--spec", "limacon_o_closed:1", "--samples", "4"],
        ["domain", "boundary", "--spec", "omega:1e308,0,0.5", "--samples", "4"],
    ])
    def test_bad_input_is_usage_error(self, argv, capsys):
        # n = 0 used to divide by zero; a count of 0 ran the default or
        # nothing; a non-finite tau, point or tol printed NaN rows or a
        # verdict, and a NaN indeterminate fraction turned its gate off; the
        # gamma = 1 closed limaçons printed their anchor once per ray, and a
        # boundary past the float range printed no rows
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert err.startswith("error:") and out == ""

    def test_no_convergence_exits_three(self, pjson, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise NoConvergence("residual above tolerance")
        monkeypatch.setattr(cli, "find_roots", fail)
        assert main(["roots", pjson]) == 3
        assert capsys.readouterr().err.startswith("error: residual")

    @pytest.mark.parametrize("argv", [
        ["--circle-tol=0.9", "roots", "p.json"],
        ["--boundary-samples=4", "domain", "boundary", "--spec", "unit_disk"],
        ["--config=cfg", "qcoef", "4", "2", "0"],
        ["--show-config"],
    ], ids=["circle-tol", "boundary-samples", "config", "show-config"])
    def test_removed_global_flags_exit_two(self, argv, capsys):
        # --circle-tol tagged the zeros +-0.5i ON while every verdict read
        # roots.CIRCLE_TOL; --boundary-samples repeated domain boundary's
        # --samples with a range of its own; a --config file set only the
        # seed and the output format, each of which has its own flag
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {argv[0]}" in capsys.readouterr().err

    def test_roots_nan_coefficient_is_usage_error(self, tmp_path):
        # run as a program so that a traceback would reach stderr
        path = tmp_path / "nan.json"
        path.write_text('{"n": 2, "coeffs": [[1, 0], [NaN, 0], [1, 0]]}')
        src = os.path.dirname(os.path.dirname(polyconv.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-m", "polyconv.cli", "roots", str(path)],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")
        assert "non-finite coefficient" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize("text, needle", [
        ('{"n": 2, "coeffs": [[1, 0], ["a", 0], [1, 0]]}', "coefficient 1"),
        ('{"n": "2", "coeffs": [[1, 0], [0, 0], [1, 0]]}', '"n": <int>'),
        ('[[1, 0], [1, 0]]', '"n": <int>'),
    ])
    def test_malformed_json_is_usage_error(self, tmp_path, text, needle):
        path = tmp_path / "bad.json"
        path.write_text(text)
        src = os.path.dirname(os.path.dirname(polyconv.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-m", "polyconv.cli", "roots", str(path)],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")
        assert needle in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize("argv", [
        ["convolve", "{bad}", "{good}"],
        ["convolve", "--mode", "lambda", "--lambda", "0.5", "{good}", "{bad}"],
        ["inverse", "{bad}"],
        ["delta", "--lambda", "0.5", "{bad}"],
        ["roots", "{bad}"],
        ["domain", "roots", "--spec", "unit_disk", "{bad}"],
        *(["classify", "--class", "D", "--lambda", "0.5", "--method", m, "{bad}"]
          for m in METHODS),
        ["classify", "--class", "D", "--lambda", repr(math.pi), "{bad}"],
        ["classify", "--class", "T", "--lambda", "0.5", "{bad}"],
    ])
    def test_nan_coefficient_is_usage_error(self, tmp_path, argv, capsys):
        # convolve, inverse and delta printed NaN and exited 0; classify by
        # the oracle and at lambda = 2 pi / n returned a decided verdict
        bad = tmp_path / "nan.json"
        bad.write_text('{"n": 2, "coeffs": [[1, 0], [NaN, 0], [0.25, 0]]}')
        good = write_poly(tmp_path / "good.json", Polynomial([0.25, 0.0, 1.0], 2))
        argv = [{"{bad}": str(bad), "{good}": good}.get(a, a) for a in argv]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert err.startswith("error: non-finite coefficient 1") and out == ""

    @pytest.mark.parametrize("command", [
        ["convolve", "{big}", "{big}"],
        ["convolve", "--mode", "lambda", "--lambda", "0.5", "{big}", "{big}"],
        # C_1 = sin(3) / sin(1.5) ~ 0.14 makes the z^0 image about 7e308
        ["delta", "--lambda", "3.0", "{big}"],
    ])
    def test_overflow_is_usage_error(self, tmp_path, command, capsys):
        # these printed Infinity or NaN coefficients and exited 0
        big = write_poly(tmp_path / "big.json", Polynomial([1e308] * 3, 2))
        assert main([big if a == "{big}" else a for a in command]) == 2
        out, err = capsys.readouterr()
        assert err.startswith("error: non-finite coefficient") and out == ""
        assert err.count("\n") == 1

    def test_delta_image_in_range_near_overflow(self, tmp_path, capsys):
        # F'/2 = [5e307, 1e308]: 2e308 before the division, which refused it
        big = write_poly(tmp_path / "big.json", Polynomial([1e308] * 3, 2))
        assert main(["delta", "--lambda", "0", big]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out == {"n": 1, "coeffs": [[5e307, 0.0], [1e308, 0.0]]}

    def test_unknown_flag_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["--frobnicate"])
        assert exc.value.code == 2

    def test_no_command_usage_error(self):
        assert main([]) == 2


class TestClassify:
    def test_member_exit_zero(self, tmp_path, capsys):
        roots = np.exp(1j * np.array([0.0, 1.5, 3.0, 4.6]))
        p = write_poly(tmp_path / "t.json", Polynomial.from_roots(roots))
        assert main(["classify", "--class", "T", "--lambda", "0.5", p]) == 0
        d = json.loads(capsys.readouterr().out)
        assert d["member"] is True and d["class"] == "T_closed"

    def test_non_member_exit_one(self, pjson):
        assert main(["classify", "--class", "T", "--lambda", "0.5", pjson]) == 1

    def test_disk_routes_consistent(self, tmp_path, capsys):
        # every route at an interior lambda; at either end every --method
        # gives the definition's verdict (second used to exit 2 there)
        roots = 0.8 * np.exp(1j * np.array([0.0, 1.5, 3.0, 4.6]))
        p = write_poly(tmp_path / "d.json", Polynomial.from_roots(roots))
        for lam, code in (("0.5", 0), ("0", 0), (repr(math.pi / 2), 1)):
            out = []
            for method in METHODS:
                assert main(["classify", "--class", "D", "--lambda", lam,
                             "--method", method, p]) == code, (lam, method)
                out.append(json.loads(capsys.readouterr().out))
            if lam != "0.5":
                assert all(d == out[0] for d in out) and out[0]["method"] == "definition"

    def test_upper_endpoint_disk_class(self, tmp_path, capsys):
        # 0.1 + z^3 at lambda = 2 pi / 3 is a(z^n - b) with |b| < 1; the
        # verdict used to hold a numpy bool, which json.dumps rejects
        p = write_poly(tmp_path / "u.json", Polynomial([0.1, 0, 0, 1.0], 3))
        for method in METHODS:
            assert main(["classify", "--class", "D", "--lambda", "2.0943951023931953",
                         "--method", method, p]) == 0, method
            d = json.loads(capsys.readouterr().out)
            assert d["member"] is True and d["method"] == "definition"
            assert d["margin"] == pytest.approx(0.9)

    def test_pre_class(self, tmp_path, capsys):
        p = write_poly(tmp_path / "ones.json", Polynomial(np.ones(5), 4))
        assert main(["classify", "--class", "PT", "--lambda", "0.5", p]) == 0
        assert main(["classify", "--class", "PT", "--open",
                     "--lambda", "0.5", p]) == 1
        # the lift of 1.2^k is Q_5(0.6; 1.2 z), zeros inside the circle;
        # --method second used to run the third route here
        p = write_poly(tmp_path / "geo.json", Polynomial(1.2 ** np.arange(6), 5))
        capsys.readouterr()
        assert main(["classify", "--class", "PD", "--lambda", "0.6",
                     "--method", "second", p]) == 0
        d = json.loads(capsys.readouterr().out)
        assert d["class"] == "PD_closed" and d["method"] == "SECOND_CHAR"


class TestDomain:
    def test_contains(self, capsys):
        assert main(["domain", "contains", "--spec", "limacon_i:0.5",
                     "--point=-0.5,0"]) == 0
        assert capsys.readouterr().out.strip() == "IN"

    def test_complement_spec(self, capsys):
        assert main(["domain", "contains", "--spec",
                     "complement:unit_disk_closed", "--point", "2,0"]) == 0
        assert capsys.readouterr().out.strip() == "IN"

    def test_roots_action_exit_codes(self, tmp_path, pjson):
        inside = write_poly(tmp_path / "in.json",
                            Polynomial.from_roots([0.2, -0.5j]))
        assert main(["domain", "roots", "--spec", "unit_disk", inside]) == 0
        assert main(["domain", "roots", "--spec", "unit_disk", pjson]) == 1
        assert main(["domain", "roots", "--spec", "unit_disk", "--tol", "nan", inside]) == 2

    def test_boundary_csv(self, capsys):
        assert main(["domain", "boundary", "--spec", "omega:0,2,0.4",
                     "--samples", "32"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "re,im"
        assert len(lines) == 33

    def test_boundary_default_samples(self, capsys):
        assert main(["domain", "boundary", "--spec", "omega:0,2,0.4"]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 257

    def test_unit_circle_spec(self, pjson, capsys):
        for point, word in (("0.6,0.8", "IN"), ("0.5,0", "OUT"), ("2,0", "OUT")):
            assert main(["domain", "contains", "--spec", "unit_circle",
                         "--point", point]) == 0
            assert capsys.readouterr().out.strip() == word, point
        # pjson has the zeros 0.5, e^{0.3i} and 2: e^{0.3i} alone is on it
        assert main(["domain", "roots", "--spec", "unit_circle", pjson]) == 1
        d = json.loads(capsys.readouterr().out)
        assert d["inside"] is False and d["offending_root"] is not None
        assert main(["domain", "boundary", "--spec", "unit_circle"]) == 2
        assert "its own boundary" in capsys.readouterr().err

    def test_boundary_far_bounded_region_keeps_every_ray(self, capsys):
        # the boundary reaches |z| = 1e7; rays past 1e6 were dropped
        assert main(["domain", "boundary", "--spec", "omega:1,0,0.9999999",
                     "--samples", "32"]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 33

    def test_no_action_usage_error(self, capsys):
        assert main(["domain"]) == 2
        assert "domain needs an action" in capsys.readouterr().err

    def test_bad_spec(self):
        assert main(["domain", "contains", "--spec", "pentagon",
                     "--point", "0,0"]) == 2


class TestHerglotzCommand:
    def make_coeffs(self, tmp_path, b=0.5, count=12):
        pairs = [[1.0, 0.0]] + [[2.0 * b ** k, 0.0] for k in range(1, count)]
        f = tmp_path / "c.json"
        f.write_text(json.dumps(pairs))
        return str(f)

    def test_weights_output(self, tmp_path, capsys):
        path = self.make_coeffs(tmp_path)
        assert main(["herglotz", "--coeffs", path, "--k", "8", "--r", "0.8"]) == 0
        d = json.loads(capsys.readouterr().out)
        assert d["m"] == 16
        assert abs(sum(d["weights"]) - 1.0) < 1e-10

    def test_csv_error_profile(self, tmp_path, capsys):
        path = self.make_coeffs(tmp_path)
        assert main(["--output-format", "csv", "herglotz", "--coeffs", path,
                     "--k", "8", "--r", "0.8"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "radius,sup_error"
        assert len(lines) == 19

    @pytest.mark.parametrize("fmt, digest", [
        ("json", "066d5c81af5dbb9d99b31a55471e4116065f6f085351a6fbb1468b8a42cb7b6f"),
        ("csv", "472210d475df62997d7922d48b725415e52f57144b151089c60d9fece1d4a6d0"),
    ])
    def test_output_bytes_pinned(self, tmp_path, capsys, fmt, digest):
        # weights, nodes and the error profile must not drift between versions
        b = 0.6 * cmath.exp(0.7j)
        pairs = [[1.0, 0.0]] + [[(2 * b ** j).real, (2 * b ** j).imag]
                                for j in range(1, 13)]
        f = tmp_path / "c.json"
        f.write_text(json.dumps(pairs))
        assert main(["--output-format", fmt, "herglotz", "--coeffs", str(f),
                     "--k", "12", "--r", "0.85"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_positivity_failure_exit_two(self, tmp_path):
        f = tmp_path / "bad.json"
        f.write_text(json.dumps([[1.0, 0.0], [5.0, 0.0], [0.0, 0.0]]))
        assert main(["herglotz", "--coeffs", str(f), "--k", "2", "--r", "0.9"]) == 2

    @pytest.mark.parametrize("text, k, needle", [
        ('{"ab": 1}', 2, "list of [re, im] pairs"),
        ("5", 2, "list of [re, im] pairs"),
        ('[[1, "x"], [0.5, 0]]', 2, "coefficient 0"),
        ("[[true, 0], [0.5, 0]]", 2, "coefficient 0"),
        ("[[1, 0], [NaN, 0], [0.5, 0]]", 2, "non-finite coefficient 1"),
        ("[[1, 0], [0.5, Infinity], [0.5, 0]]", 2, "non-finite coefficient 1"),
        ("[[1, 0], [1" + "0" * 400 + ", 0], [0.5, 0]]", 2, "non-finite coefficient 1"),
        ("[[1, 0], [0.5, 0], [0.25, 0]]", 0, "k must be >= 1"),
        ("[[1, 0], [0.5, 0], [0.25, 0]]", -1, "k must be >= 1"),
    ], ids=["dict", "number", "string", "bool", "nan", "infinity", "huge-int", "k0", "k-1"])
    def test_bad_coefficients_or_k_are_usage_errors(self, tmp_path, text, k, needle, capsys):
        # the first three ended in a traceback, true read as 1, NaN and
        # Infinity gave NaN weights with exit 0, and k < 1 failed in numpy
        f = tmp_path / "bad.json"
        f.write_text(text)
        assert main(["herglotz", "--coeffs", str(f), "--k", str(k), "--r", "0.5"]) == 2
        out, err = capsys.readouterr()
        assert err.startswith("error:") and needle in err and out == ""


class TestVerify:
    def test_single_point_pass(self, capsys):
        assert main(["verify", "--theorem", "suffridge", "--n", "3",
                     "--lambda", "0.5", "--trials", "6"]) == 0
        reports = json.loads(capsys.readouterr().out)
        assert reports[0]["failures"] == 0

    def test_whole_grid(self, capsys):
        # neither --n nor --lambda: lambda = 0 and seven interior values per n
        assert main(["verify", "--theorem", "suffridge", "--trials", "1",
                     "--n-max", "2"]) == 0
        assert len(json.loads(capsys.readouterr().out)) == 8

    @pytest.mark.parametrize("theorem", ["suffridge", "main", "gausslucas"])
    @pytest.mark.parametrize("n_max", ["1", "0"])
    def test_grid_below_n_two_is_usage_error(self, theorem, n_max, capsys):
        # the grid starts at n = 2: these printed [] and exited 0 having
        # checked nothing
        assert main(["verify", "--theorem", theorem, "--n-max", n_max,
                     "--trials", "1"]) == 2
        out, err = capsys.readouterr()
        assert err.startswith("error: n_max must be >= 2") and out == ""

    @pytest.mark.parametrize("theorem", ["suffridge", "main", "gausslucas"])
    @pytest.mark.parametrize("given,missing", [(["--n", "3"], "--lambda"),
                                               (["--lambda", "0.5"], "--n")])
    def test_one_grid_option_alone_is_usage_error(self, theorem, given, missing, capsys):
        # one of --n and --lambda alone used to run the whole grid
        assert main(["verify", "--theorem", theorem, "--trials", "1", *given]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"needs {missing}" in err

    @pytest.mark.parametrize("given,missing", [(["--n", "3"], "--lambda"),
                                               (["--lambda", "0.5"], "--n")])
    def test_unpaired_grid_option_is_named_before_unread_ones(self, given, missing, capsys):
        # the mistake is the missing half of the pair, not --n-max
        assert main(["verify", "--theorem", "main", "--trials", "1", *given,
                     "--n-max", "4"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {given[0]} needs {missing}")

    @pytest.mark.parametrize("failures, indeterminate, fraction, code", [
        (1, 0, "0.5", 1),  # a failed trial
        (0, 3, "0.5", 1),  # 3 of 4 trials indeterminate, above the fraction
        (0, 3, "0.75", 0),  # ... and at it
    ])
    def test_failed_or_undecided_trials_exit_one(self, monkeypatch, capsys, failures,
                                                 indeterminate, fraction, code):
        def run(n, lam, trials, seed):
            rep = harness.TrialReport("suffridge", seed=seed)
            for t in range(trials):
                if t < indeterminate:
                    rep.skip()
                elif t < indeterminate + failures:
                    rep.record(-1.0, {"trial": t})
                else:
                    rep.record(1.0)
            return rep
        monkeypatch.setattr(harness, "run_suffridge_trial", run)
        assert main(["verify", "--theorem", "suffridge", "--n", "3", "--lambda", "0.5",
                     "--trials", "4", "--max-indeterminate-fraction", fraction]) == code
        rep, = json.loads(capsys.readouterr().out)
        assert (rep["failures"], rep["indeterminate"]) == (failures, indeterminate)

    @pytest.mark.parametrize("argv, unread", [
        (["--theorem", "herglotz", "--trials", "1", "--n-max", "0"], "--n-max"),
        (["--theorem", "herglotz", "--trials", "1", "--lambda", "0.5"], "--lambda"),
        (["--theorem", "limacon", "--n", "3", "--lambda", "0.5", "--n-max", "0",
          "--trials", "1"], "--lambda, --n-max"),
        (["--theorem", "suffridge", "--n", "3", "--lambda", "0.5", "--n-max", "0",
          "--trials", "1"], "--n-max"),
        (["--theorem", "main", "--trials", "1", "--n", "3", "--lambda", "0.5",
          "--gamma", "0.9", "--tau", "0,2"], "--tau, --gamma"),
    ], ids=["herglotz-n-max", "herglotz-lambda", "limacon", "suffridge", "main"])
    def test_option_the_theorem_does_not_read_is_usage_error(self, argv, unread, capsys):
        # each of these ran, ignored the option and exited 0
        assert main(["verify", *argv]) == 2
        out, err = capsys.readouterr()
        theorem = argv[1]
        assert err.startswith(f"error: --theorem {theorem} does not read {unread}")
        assert out == ""

    def test_limacon_point(self):
        assert main(["verify", "--theorem", "limacon", "--tau", "0,2",
                     "--gamma", "0.25", "--n", "4", "--trials", "7"]) == 0

    def test_herglotz_trials(self):
        assert main(["verify", "--theorem", "herglotz", "--trials", "3"]) == 0

    def test_seed_changes_output(self, capsys):
        main(["verify", "--theorem", "suffridge", "--n", "3",
              "--lambda", "0.5", "--trials", "4"])
        a = capsys.readouterr().out
        main(["--rng-seed", "9", "verify", "--theorem", "suffridge", "--n", "3",
              "--lambda", "0.5", "--trials", "4"])
        b = capsys.readouterr().out
        assert json.loads(a)[0]["seed"] == 0
        assert json.loads(b)[0]["seed"] == 9


class TestConfig:
    """The global options, each set on the command line alone."""

    def test_defaults(self, tmp_path, capsys):
        # seed 0 and JSON output when neither flag is given
        assert main(["verify", "--theorem", "herglotz", "--trials", "1"]) == 0
        assert json.loads(capsys.readouterr().out)[0]["seed"] == 0
        p = write_poly(tmp_path / "p.json", Polynomial([1.0, 0.0, 1.0], 2))
        assert main(["roots", p]) == 0
        assert [r["mult"] for r in json.loads(capsys.readouterr().out)] == [1, 1]

    def test_validation(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--output-format", "xml", "qcoef", "4", "2", "0"])
        assert exc.value.code == 2
        assert "invalid choice: 'xml'" in capsys.readouterr().err

    def test_out_file(self, tmp_path):
        target = tmp_path / "out.txt"
        assert main(["--out", str(target), "qcoef", "4", "2", "0"]) == 0
        assert target.read_text().strip() == "6"

    def test_parser_reuse_keeps_no_values(self, tmp_path, capsys):
        # the parser is built once per process; a second call without --out
        # or --rng-seed must see neither value of the first
        target = tmp_path / "out.json"
        argv = ["verify", "--theorem", "herglotz", "--trials", "1"]
        assert main(["--rng-seed", "5", "--out", str(target), *argv]) == 0
        assert json.loads(target.read_text())[0]["seed"] == 5
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)[0]["seed"] == 0
        assert json.loads(target.read_text())[0]["seed"] == 5
