"""Command line interface: subcommands, exit codes, config handling."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import polyconv
from polyconv import cli
from polyconv.cli import Config, main
from polyconv.errors import NoConvergence
from polyconv.poly import Polynomial
from polyconv.qconv import q_coefficient


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
    ])
    def test_bad_input_is_usage_error(self, argv, capsys):
        # n = 0 used to divide by zero; a count of 0 ran the default or nothing
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert err.startswith("error:") and out == ""

    def test_no_convergence_exits_three(self, pjson, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise NoConvergence("residual above tolerance")
        monkeypatch.setattr(cli, "find_roots", fail)
        assert main(["roots", pjson]) == 3
        assert capsys.readouterr().err.startswith("error: residual")

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_roots_non_finite_circle_tol_is_usage_error(self, pjson, tol, capsys):
        # nan tagged the unimodular zeros OUTSIDE and inf tagged 0.5 ON
        assert main(["--circle-tol", tol, "--output-format", "csv", "roots", pjson]) == 2
        assert capsys.readouterr().err.startswith("error: circle_tol")

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

    def test_disk_routes_consistent(self, tmp_path):
        roots = 0.8 * np.exp(1j * np.array([0.0, 1.5, 3.0, 4.6]))
        p = write_poly(tmp_path / "d.json", Polynomial.from_roots(roots))
        for method in ("first", "second", "third", "oracle"):
            code = main(["classify", "--class", "D", "--lambda", "0.5",
                         "--method", method, p])
            assert code == 0, method

    def test_upper_endpoint_disk_class(self, tmp_path, capsys):
        # 0.1 + z^3 at lambda = 2 pi / 3 is a(z^n - b) with |b| < 1; the
        # verdict used to hold a numpy bool, which json.dumps rejects
        p = write_poly(tmp_path / "u.json", Polynomial([0.1, 0, 0, 1.0], 3))
        assert main(["classify", "--class", "D", "--lambda", "2.0943951023931953", p]) == 0
        d = json.loads(capsys.readouterr().out)
        assert d["member"] is True and d["method"] == "definition"
        assert d["margin"] == pytest.approx(0.9)

    def test_pre_class(self, tmp_path):
        p = write_poly(tmp_path / "ones.json", Polynomial(np.ones(5), 4))
        assert main(["classify", "--class", "PT", "--lambda", "0.5", p]) == 0
        assert main(["classify", "--class", "PT", "--open",
                     "--lambda", "0.5", p]) == 1


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

    def test_boundary_csv(self, capsys):
        assert main(["domain", "boundary", "--spec", "omega:0,2,0.4",
                     "--samples", "32"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "re,im"
        assert len(lines) == 33

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

    def test_positivity_failure_exit_two(self, tmp_path):
        f = tmp_path / "bad.json"
        f.write_text(json.dumps([[1.0, 0.0], [5.0, 0.0], [0.0, 0.0]]))
        assert main(["herglotz", "--coeffs", str(f), "--k", "2", "--r", "0.9"]) == 2


class TestVerify:
    def test_single_point_pass(self, capsys):
        assert main(["verify", "--theorem", "suffridge", "--n", "3",
                     "--lambda", "0.5", "--trials", "6"]) == 0
        reports = json.loads(capsys.readouterr().out)
        assert reports[0]["failures"] == 0

    @pytest.mark.parametrize("theorem", ["suffridge", "main", "gausslucas"])
    @pytest.mark.parametrize("given,missing", [(["--n", "3"], "--lambda"),
                                               (["--lambda", "0.5"], "--n")])
    def test_one_grid_option_alone_is_usage_error(self, theorem, given, missing, capsys):
        # one of --n and --lambda alone used to run the whole grid
        assert main(["verify", "--theorem", theorem, "--trials", "1", *given]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"needs {missing}" in err

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
    def test_defaults(self):
        cfg = Config()
        assert cfg.circle_tol == 1e-7
        assert cfg.boundary_samples == 256
        assert cfg.output_format == "json"

    def test_validation(self):
        with pytest.raises(ValueError):
            Config(circle_tol=-1.0)
        with pytest.raises(ValueError):
            Config(boundary_samples=2)
        with pytest.raises(ValueError):
            Config(output_format="xml")

    def test_config_file_and_override(self, tmp_path, capsys):
        f = tmp_path / "cfg"
        f.write_text("# comment\nrng_seed = 5\noutput_format = csv\n")
        assert main(["--config", str(f), "--show-config"]) == 0
        d = json.loads(capsys.readouterr().out)
        assert d["rng_seed"] == 5 and d["output_format"] == "csv"
        assert main(["--config", str(f), "--rng-seed", "7", "--show-config"]) == 0
        d = json.loads(capsys.readouterr().out)
        assert d["rng_seed"] == 7

    def test_bad_config_key(self, tmp_path):
        f = tmp_path / "cfg"
        f.write_text("not_a_key = 3\n")
        assert main(["--config", str(f), "--show-config"]) == 2

    def test_x_grid_key_removed(self, tmp_path, capsys):
        # and the other knobs that reached no code
        f = tmp_path / "cfg"
        for line in ("x_grid=181", "coeff_tol=1e-10", "margin_tol=1e-6",
                     "zeta_count=64"):
            f.write_text(line + "\n")
            assert main(["--config", str(f), "--show-config"]) == 2, line
            assert "unknown config key" in capsys.readouterr().err, line

    def test_out_file(self, tmp_path):
        target = tmp_path / "out.txt"
        assert main(["--out", str(target), "qcoef", "4", "2", "0"]) == 0
        assert target.read_text().strip() == "6"

    def test_parser_reuse_keeps_no_values(self, tmp_path, capsys):
        # the parser is built once per process; a second call without
        # --out or --config must see neither value of the first
        cfg = tmp_path / "cfg"
        cfg.write_text("rng_seed = 5\n")
        target = tmp_path / "out.json"
        assert main(["--config", str(cfg), "--out", str(target), "--show-config"]) == 0
        assert json.loads(target.read_text())["rng_seed"] == 5
        assert main(["--show-config"]) == 0
        assert json.loads(capsys.readouterr().out)["rng_seed"] == Config().rng_seed
        assert json.loads(target.read_text())["rng_seed"] == 5
