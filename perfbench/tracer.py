"""Per-layer spans recorded from outside the library.

`Tracer.installed()` replaces every public function of each polyconv module,
and four Polynomial methods, with a wrapper that records a span around the
call; on exit every original is put back.  Nothing under `src/` changes: the
wrappers are rebound on every module attribute that refers to an original,
which covers the `from .roots import find_roots` style of import.

Spans are folded into per-function sums as they close (calls, errors, busy
and self time), so memory stays flat however long the run.  A span's self
time is its duration minus the time of the wrapped calls it made.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time
from collections import Counter

from workloads import DECIDED_MARGIN

#: the library's modules, one layer each; `errors` holds no work
LAYERS = ("poly", "qconv", "roots", "classes", "domains", "herglotz", "harness", "cli")
METHODS = ("from_roots", "product", "eval_many", "n_inverse")
MARK = "__perfbench_span__"
#: spans whose count inside an ancestor's subtree is kept, for the ratios
COUNTED = ("roots.find_roots", "classes.in_D_third")
DEGREE_BUCKETS = ((1, 4), (5, 8), (9, 16))


class _Stat:
    __slots__ = ("calls", "errors", "busy_ns", "self_ns")

    def __init__(self):
        self.calls = self.errors = self.busy_ns = self.self_ns = 0


class Tracer:
    def __init__(self, package):
        self.pkg = package
        self.stats = {}
        self.layer_busy_ns = Counter()
        self.under = Counter()  # (ancestor span, descendant span) -> count
        self.counts = Counter()  # degree buckets, indeterminate verdicts, ...
        self._stack = []  # frames: [name, layer, start_ns, child_ns]
        self._open = Counter()  # name or layer -> frames on the stack
        self._patches = []
        self.names = []  # every wrapped span, called or not

    # -- recording -----------------------------------------------------------

    def _enter(self, name, layer):
        if name in COUNTED:
            for ancestor in {f[0] for f in self._stack}:
                self.under[ancestor, name] += 1
        self._open[name] += 1
        self._open[layer] += 1
        self._stack.append([name, layer, time.perf_counter_ns(), 0])

    def _exit(self, error, result, args):
        end = time.perf_counter_ns()
        name, layer, start, child = self._stack.pop()
        dur = end - start
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = _Stat()
        st.calls += 1
        st.self_ns += dur - child
        self._open[name] -= 1
        self._open[layer] -= 1
        if not self._open[name]:
            st.busy_ns += dur  # outermost frame only, so recursion counts once
        if not self._open[layer]:
            self.layer_busy_ns[layer] += dur
        if self._stack:
            self._stack[-1][3] += dur
        if error:
            st.errors += 1
            return
        if name == "roots.find_roots":
            d = args[0].exact_degree
            for lo, hi in DEGREE_BUCKETS:
                if lo <= d <= hi:
                    self.counts[f"deg{lo}-{hi}.calls"] += 1
                    self.counts[f"deg{lo}-{hi}.self_ns"] += dur - child
        elif name == "harness.sample_D" and result[1] == "rejection":
            self.counts["sample_D.accepted"] += 1
        elif layer == "classes" and hasattr(result, "margin"):
            # undecided by the rule the workload checks use: flagged, or
            # within DECIDED_MARGIN of the class boundary
            if ((not self._stack or self._stack[-1][1] != "classes")
                    and (result.indeterminate or abs(result.margin) <= DECIDED_MARGIN)):
                self.counts["classes.indeterminate"] += 1

    def _wrap(self, name, layer, fn):
        enter, leave = self._enter, self._exit

        @functools.wraps(fn)
        def span(*args, **kwargs):
            enter(name, layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                leave(True, None, args)
                raise
            leave(False, result, args)
            return result

        setattr(span, MARK, name)
        self.names.append(name)
        return span

    # -- installing ----------------------------------------------------------

    def _modules(self):
        return [self.pkg] + [importlib.import_module(f"{self.pkg.__name__}.{m}")
                             for m in LAYERS]

    @contextlib.contextmanager
    def installed(self):
        wrappers = {}
        for layer, mod in zip(LAYERS, self._modules()[1:]):
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__
                        and not inspect.isgeneratorfunction(obj)):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", layer, obj)
        try:
            cls = self.pkg.poly.Polynomial
            for attr in METHODS:
                raw = cls.__dict__[attr]
                name = f"poly.Polynomial.{attr}"
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, "poly", raw.__func__))
                else:
                    new = self._wrap(name, "poly", raw)
                self._patches.append((cls, attr, raw))
                setattr(cls, attr, new)
            for mod in self._modules():
                for attr, obj in list(vars(mod).items()):
                    if inspect.isfunction(obj) and obj in wrappers:
                        self._patches.append((mod, attr, obj))
                        setattr(mod, attr, wrappers[obj])
            yield self
        finally:
            for owner, attr, obj in reversed(self._patches):
                setattr(owner, attr, obj)
            self._patches.clear()

    # -- reading -------------------------------------------------------------

    def figures(self, ops):
        """Per-layer figures per op: name -> (value, unit)."""
        out = {}

        def stat(name):
            return self.stats.get(name) or _Stat()

        for name in self.names:
            st = stat(name)
            out[f"{name}.calls"] = (st.calls / ops, "calls/op")
            out[f"{name}.errors"] = (st.errors / ops, "errors/op")
            out[f"{name}.busy_ms"] = (st.busy_ns / 1e6 / ops, "ms/op")
            out[f"{name}.self_ms"] = (st.self_ns / 1e6 / ops, "ms/op")
        for layer in LAYERS:
            sts = [st for name, st in self.stats.items() if name.split(".")[0] == layer]
            out[f"layer.{layer}.calls"] = (sum(s.calls for s in sts) / ops, "calls/op")
            out[f"layer.{layer}.self_ms"] = (
                sum(s.self_ns for s in sts) / 1e6 / ops, "ms/op")
            out[f"layer.{layer}.busy_ms"] = (self.layer_busy_ns[layer] / 1e6 / ops, "ms/op")
        for lo, hi in DEGREE_BUCKETS:
            b = f"deg{lo}-{hi}"
            out[f"roots.find_roots.calls.{b}"] = (self.counts[f"{b}.calls"] / ops, "calls/op")
            out[f"roots.find_roots.self_ms.{b}"] = (
                self.counts[f"{b}.self_ns"] / 1e6 / ops, "ms/op")
        for route in ("classes.in_D_first", "classes.in_D_second"):
            calls = stat(route).calls
            finds = self.under[route, "roots.find_roots"]
            out[f"{route}.roots_per_call"] = (finds / calls if calls else 0.0, "finds/call")
        draws = self.under["harness.sample_D", "classes.in_D_third"]
        accepted = self.counts["sample_D.accepted"]
        out["harness.sample_D.accept_ratio"] = (accepted / draws if draws else 0.0, "ratio")
        out["classes.indeterminate"] = (self.counts["classes.indeterminate"] / ops,
                                        "verdicts/op")
        return out


def wrappers_installed(package):
    """Number of tracing wrappers currently bound anywhere in the package."""
    found = 0
    for mod in [package] + [importlib.import_module(f"{package.__name__}.{m}")
                            for m in LAYERS]:
        found += sum(1 for obj in vars(mod).values() if hasattr(obj, MARK))
    cls = package.poly.Polynomial
    found += sum(1 for attr in METHODS
                 if hasattr(getattr(cls.__dict__[attr], "__func__", cls.__dict__[attr]), MARK))
    return found
