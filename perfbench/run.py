"""polyconv benchmark: one seeded workload, closed loop, one client.

    python3 perfbench/run.py --workload routes --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the library is imported from its
`src/`.  The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}: with --trace 0 the
end-to-end metrics of BENCHMARK.json, with --trace 1 its per-layer metrics.
The line before it is a report with the input digest, the figures the
result line does not carry and the environment.  The exit code is 0 only
when every op ran and passed its output check.

Every op starts when the previous one returns.  Ops run in whole passes
until --seconds have passed (and, untraced, at least MIN_OPS ops ran); a
traced run then runs the same ops again untraced for the tracing overhead.
--ops N runs exactly N ops instead.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: fresh interpreters timed for setup_s; the median is reported
SETUP_SAMPLES = 5
#: a timed run goes on past --seconds until this many ops, so that at
#: least ten lie beyond op_ms_p90
MIN_OPS = 100


def load_library():
    """Import polyconv from this checkout's src/, or exit with an error."""
    src = ROOT / "src"
    if not (src / "polyconv" / "__init__.py").is_file():
        sys.exit(f"error: no polyconv package under {src}")
    sys.path.insert(0, str(src))
    pc = importlib.import_module("polyconv")
    for mod in ("poly", "qconv", "roots", "classes", "domains", "herglotz",
                "harness", "cli", "errors"):
        importlib.import_module(f"polyconv.{mod}")
    if Path(pc.__file__).resolve().parent != (src / "polyconv").resolve():
        sys.exit(f"error: polyconv imported from {pc.__file__}, not {src}")
    return pc


def ready(pc, args, scratch):
    """Build the inputs and warm up.  With the import before it, this is
    the set-up that setup_s times in fresh interpreters."""
    wl = workloads.make(args.workload, pc, args.seed, scratch)
    wl.warm_up()
    return wl


def time_setup(args):
    times = []
    for _ in range(SETUP_SAMPLES):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
               "--workload", args.workload, "--seed", str(args.seed)]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=120)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            sys.exit(f"error: set-up failed:\n{proc.stderr}")
    return statistics.median(times)


def run_ops(wl, indices, deadline=None, min_ops=0):
    """Run ops in order; returns (per-op seconds, op indices run, failures).

    With a deadline, stop at the first pass boundary after it once min_ops
    have run, so that every run holds whole passes of the same composition.
    """
    times, done, failures = [], [], []
    for i in indices:
        if (deadline is not None and i % wl.pass_len == 0 and len(done) >= min_ops
                and time.perf_counter() >= deadline):
            break
        op = wl.ops[i % len(wl.ops)]
        t0 = time.perf_counter()
        try:
            out = wl.run(op)
        except Exception as e:  # an op that raises is a failed op, not a crash
            times.append(time.perf_counter() - t0)
            failures.append(f"op {i}: {type(e).__name__}: {e}")
            done.append(i)
            continue
        times.append(time.perf_counter() - t0)
        done.append(i)
        try:
            wl.check(op, out)
        except workloads.WrongOutput as e:
            failures.append(f"op {i}: {e}")
    return times, done, failures


def percentile(values, q):
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(q / 100.0 * len(s)) - 1)]


def environment(pc):
    import numpy as np

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    threads = None
    try:
        with open("/proc/self/status") as fh:
            threads = next((int(ln.split()[1]) for ln in fh
                            if ln.startswith("Threads:")), None)
    except OSError:
        pass
    blas = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except Exception:  # older numpy has no dict mode; the record stays partial
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "polyconv": pc.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "process_threads": threads,
        "processes": 1,
        "git_commit": commit,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--ops", type=int, default=None,
                    help="run exactly this many ops instead of --seconds")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    # a terminated run still removes its scratch directory and set-up child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    pc = load_library()

    with tempfile.TemporaryDirectory(prefix=".scratch-", dir=HERE) as scratch:
        if args.setup_only:
            ready(pc, args, scratch)
            return 0
        setup_s = None if args.trace else time_setup(args)
        wl = ready(pc, args, scratch)
        count = args.ops or 10**9
        deadline = None if args.ops else time.perf_counter() + args.seconds
        report = {"workload": args.workload, "seed": args.seed,
                  "input_digest": wl.input_digest}
        if args.trace:
            tr = tracer.Tracer(pc)
            with tr.installed():
                t0 = time.perf_counter()
                times, done, failures = run_ops(wl, range(count), deadline)
                traced_s = time.perf_counter() - t0
            t0 = time.perf_counter()
            _, _, again = run_ops(wl, done)
            untraced_s = time.perf_counter() - t0
            report["untraced_failures"] = again[:20]
            figures = tr.figures(len(done))
            figures["trace.overhead"] = (traced_s / untraced_s, "ratio")
            names = spec["per_layer"]
        else:
            times, done, failures = run_ops(wl, range(count), deadline,
                                            min_ops=MIN_OPS)
            report["wrappers_installed"] = tracer.wrappers_installed(pc)
        # passes share one composition, so each is a sample of the
        # throughput; the median resists a pass the machine slowed
        pass_s = [sum(times[k:k + wl.pass_len])
                  for k in range(0, len(times) - wl.pass_len + 1, wl.pass_len)]
        report["ops"] = len(done)
        report["pass_s"] = pass_s
        if not args.trace:
            wall = sum(times)
            figures = {
                "setup_s": (setup_s, "s"),
                "ops_per_s": (wl.pass_len / statistics.median(pass_s) if pass_s
                              else len(done) / wall, "ops/s"),
                "op_ms_p50": (1e3 * statistics.median(times), "ms"),
                "op_ms_p90": (1e3 * percentile(times, 90), "ms"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                                / 1024.0, "MB"),
                "error_frac": (len(failures) / len(done), "ratio"),
                **wl.figures(wall),
            }
            names = spec["end_to_end"]
        listed = {m["name"] for m in names}
        report["figures"] = {k: {"value": v, "unit": u}
                             for k, (v, u) in sorted(figures.items()) if k not in listed}
        report["failures"] = failures[:20]
        report["environment"] = environment(pc)

    metrics = {}
    for m in names:
        value, unit = figures[m["name"]]
        if unit != m["unit"]:
            sys.exit(f"error: {m['name']} measured in {unit}, BENCHMARK.json says {m['unit']}")
        metrics[m["name"]] = {"value": value, "unit": unit}
    print(json.dumps({"report": report}))
    correct = not failures and not report.get("untraced_failures")
    print(json.dumps({"correct": correct, "attempted": len(done),
                      "failed": len(failures), "metrics": metrics}))
    for f in failures[:20]:
        print(f, file=sys.stderr)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
