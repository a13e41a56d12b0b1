"""Measure a baseline of the checkout and write it as JSON.

    python3 perfbench/baseline.py --out perfbench/baseline.json

Takes two sets of runs, one after the other.  A set runs every workload of
BENCHMARK.json untraced for its run_seconds with seeds 1..10, one run at a
time.  For each end-to-end metric it writes the median, the quartiles
(statistics.quantiles, n=4) and the spread (q3 - q1) / median, and it
lists every spread above the metric's bound (setup_s aside) and every
median of the second set worse than the first's by more than the bound.
Each workload then runs traced once with seed 1, for the per-layer
metrics.  It also times find_roots against np.roots at a few degrees, the
root-finder figures the per-layer run cannot give.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: sets of runs, and seeded runs per workload in a set
SETS = 2
RUNS = 10


def bench(workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
    if proc.returncode != 0 or len(lines) < 2:
        sys.exit(f"error: {' '.join(cmd)} exited {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def summary(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def root_finder_facts(degrees=(2, 4, 8, 16), polys=20, repeats=5):
    """Median ms per call of find_roots and np.roots on seeded random
    polynomials with standard complex normal coefficients."""
    sys.path.insert(0, str(ROOT / "src"))
    from polyconv.poly import Polynomial
    from polyconv.roots import find_roots

    rng = np.random.default_rng(2014)
    out = {}
    for d in degrees:
        cs = [rng.normal(size=d + 1) + 1j * rng.normal(size=d + 1) for _ in range(polys)]
        ps = [Polynomial(c, d) for c in cs]
        for name, call in (("find_roots", lambda: [find_roots(p) for p in ps]),
                           ("np.roots", lambda: [np.roots(c[::-1]) for c in cs])):
            times = []
            for _ in range(repeats):
                t0 = time.perf_counter()
                call()
                times.append((time.perf_counter() - t0) / polys * 1e3)
            out[f"{name}.deg{d}.ms"] = statistics.median(times)
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    result = {"run_seconds": seconds, "runs": RUNS, "sets": [], "traced": {},
              "over_bound": []}
    for k in range(SETS):
        sets = {}
        for w in names:
            runs = [bench(w, seed, seconds, 0) for seed in range(1, RUNS + 1)]
            result["environment"] = runs[0][0]["environment"]
            sets[w] = {
                "end_to_end": {m["name"]: summary([r["metrics"][m["name"]]["value"]
                                                   for _, r in runs])
                               for m in spec["end_to_end"]},
                "attempted": [r["attempted"] for _, r in runs],
                "input_digests": [rep["input_digest"] for rep, _ in runs],
                "report_figures": {f: summary([rep["figures"][f]["value"]
                                               for rep, _ in runs])
                                   for f in runs[0][0]["figures"]},
            }
            print(f"set {k + 1}", w, json.dumps(
                {m: round(v["spread"], 4) for m, v in sets[w]["end_to_end"].items()}),
                flush=True)
        result["sets"].append(sets)
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        sign = 1.0 if m["better"] == "lower" else -1.0
        for w in names:
            for k, sets in enumerate(result["sets"], 1):
                spread = sets[w]["end_to_end"][name]["spread"]
                if name != "setup_s" and spread > bound:
                    result["over_bound"].append(
                        {"set": k, "workload": w, "metric": name, "spread": spread})
            first, second = (s[w]["end_to_end"][name]["median"] for s in result["sets"])
            worse = sign * (second - first) / first
            if worse > bound:
                result["over_bound"].append(
                    {"set": 2, "workload": w, "metric": name, "median_worse": worse})
    for w in names:
        _, traced = bench(w, 1, seconds, 1)
        result["traced"][w] = {
            "ops": traced["attempted"],
            "per_layer": {f: v["value"] for f, v in traced["metrics"].items()},
        }
    result["root_finder"] = root_finder_facts()
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    print("over bound:", json.dumps(result["over_bound"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
