"""Self-test of the benchmark at a tiny size.

    python3 perfbench/selftest.py

For every workload it runs run.py untraced and traced on a few ops and
checks that
- every metric BENCHMARK.json names is printed, with its unit;
- both runs report the same op count and input_digest, and the same seed
  gives the same digest while another seed gives another;
- the untraced run installs no wrappers (polyconv.classes.find_roots is
  still polyconv.roots.find_roots, unwrapped), and a traced block installs
  them and takes every one away again.
It also checks that run.py fails, printing no result, in a directory that
holds only BENCHMARK.json and this directory.  Exits 0 when all hold.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: ops per tiny run: enough to reach every op kind of the algebra cycle
TINY_OPS = {"routes": 2, "trials": 4, "algebra": 8}


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    return proc


def result_lines(proc):
    lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def check_runs(spec, workload, problems):
    ops = str(TINY_OPS[workload])
    runs = {}
    for trace in ("0", "1"):
        proc = bench("--workload", workload, "--seed", "7", "--ops", ops,
                     "--trace", trace)
        if proc.returncode != 0:
            problems.append(f"{workload} trace {trace}: exit {proc.returncode}\n"
                            f"{proc.stderr[-2000:]}")
            return
        runs[trace] = result_lines(proc)
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        report, result = runs[trace]
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            problems.append(f"{workload} trace {trace}: result keys {sorted(result)}")
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != want:
            wrong = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
            problems.append(f"{workload} trace {trace}: metrics or units differ "
                            f"from BENCHMARK.json: {wrong}")
        if not result["correct"] or result["attempted"] != int(ops):
            problems.append(f"{workload} trace {trace}: {result['attempted']} ops, "
                            f"correct={result['correct']}")
    (rep0, res0), (rep1, res1) = runs["0"], runs["1"]
    if res0["attempted"] != res1["attempted"] or rep0["ops"] != rep1["ops"]:
        problems.append(f"{workload}: op counts differ, {rep0['ops']} and {rep1['ops']}")
    if rep0["input_digest"] != rep1["input_digest"]:
        problems.append(f"{workload}: input_digest differs between traced and untraced")
    if rep0["wrappers_installed"] != 0:
        problems.append(f"{workload}: untraced run left {rep0['wrappers_installed']} wrappers")
    other = result_lines(bench("--workload", workload, "--seed", "8", "--ops", "1",
                               "--trace", "0"))[0]
    if other["input_digest"] == rep0["input_digest"]:
        problems.append(f"{workload}: seeds 7 and 8 give the same input_digest")


def check_wrappers(problems):
    sys.path.insert(0, str(HERE))
    import run
    import tracer
    import workloads

    pc = run.load_library()
    find_roots = pc.roots.find_roots
    wl = workloads.make("algebra", pc, 7, str(HERE))
    run.run_ops(wl, range(TINY_OPS["algebra"]))
    if not (pc.classes.find_roots is pc.roots.find_roots is find_roots
            and tracer.wrappers_installed(pc) == 0):
        problems.append("an untraced run installed wrappers")
    with tracer.Tracer(pc).installed():
        if pc.classes.find_roots is find_roots or tracer.wrappers_installed(pc) == 0:
            problems.append("the traced block installed no wrappers")
    if pc.classes.find_roots is not find_roots or tracer.wrappers_installed(pc):
        problems.append("the traced block left wrappers behind")


def check_bare_directory(problems):
    with tempfile.TemporaryDirectory(prefix=".selftest-", dir=HERE) as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / "perfbench",
                        ignore=shutil.ignore_patterns(".*", "__pycache__"))
        proc = bench("--workload", "algebra", "--seed", "1", "--seconds", "1",
                     cwd=bare)
        printed = [ln for ln in proc.stdout.splitlines() if '"correct"' in ln]
        if proc.returncode == 0 or printed:
            problems.append(f"bare directory: exit {proc.returncode}, printed {printed}")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for w in spec["workloads"]:
        check_runs(spec, w["name"], problems)
    check_wrappers(problems)
    check_bare_directory(problems)
    for p in problems:
        print("FAIL", p)
    print("selftest:", "ok" if not problems else f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
