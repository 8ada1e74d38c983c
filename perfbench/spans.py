"""In-memory span tracing of confspec's layers, from outside the package.

The tracer replaces a fixed list of public functions, on every confspec
module that looks them up, with wrappers that record a span (name, start,
end, parent) and a few counters.  ``numpy.linalg.eigh`` is wrapped the
same way, so the LAPACK call shows as its own layer.  Nothing under
``src/`` changes, and ``uninstall`` puts every original back.

A span's self time is its duration minus the durations of its direct
children.  Calls nest on one thread, so children never overlap and the
self times of one operation add up to its root span exactly.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

ROOT = "cli.run"

# (span name, per-layer metric for its self time, defining module, function)
LAYERS = (
    ("io.metric_from_dict", "io.metric_from_dict_s", "confspec.io", "metric_from_dict"),
    ("operators.build_dirac", "operators.build_dirac_s", "confspec.operators",
     "build_dirac"),
    ("operators.multiplication_operator", "operators.multiplication_operator_s",
     "confspec.operators", "multiplication_operator"),
    ("calculus.sign_of", "calculus.sign_of.self_s", "confspec.calculus", "sign_of"),
    ("calculus.eigendecompose", "calculus.eigendecompose.self_s", "confspec.calculus",
     "eigendecompose"),
    ("calculus.eigh", "calculus.eigh_s", "numpy.linalg", "eigh"),
    ("probes.vanishing_symbol_test", "probes.vanishing_symbol_test_s", "confspec.probes",
     "vanishing_symbol_test"),
    ("probes.probe_symbol", "probes.probe_symbol_s", "confspec.probes", "probe_symbol"),
    ("detect.detect_conformal", "detect.detect_conformal.self_s", "confspec.detect",
     "detect_conformal"),
    ("detect.recover_normalized_cometric", "detect.recover_normalized_cometric.self_s",
     "confspec.detect", "recover_normalized_cometric"),
    ("detect.connes_distance", "detect.connes_distance_s", "confspec.detect",
     "connes_distance"),
    ("io.write_probe_csv", "io.write_probe_csv_s", "confspec.io", "write_probe_csv"),
)
SELF_METRICS = {ROOT: "cli.run.self_s", **{span: metric for span, metric, _, _ in LAYERS}}
COUNTERS = ("calculus.eigendecompose.calls", "calculus.eigh.calls", "calculus.eigh.dim",
            "probes.probes", "probes.columns", "operators.build_dirac.calls")


class Tracer:
    """Records spans and counters per operation while installed."""

    def __init__(self):
        self.spans = []          # [op, name, start, end, parent index or None]
        self.counts = []         # one counter dict per operation
        self._stack = []
        self._patched = []       # (owner, attribute, original)

    # -- recording --------------------------------------------------------

    def _enter(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([len(self.counts) - 1, name, time.perf_counter(), None, parent])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _exit(self, index: int) -> None:
        self.spans[index][3] = time.perf_counter()
        self._stack.pop()

    def root(self, fn, *args, **kwargs):
        """Run ``fn`` as the root span of a new operation."""
        self.counts.append(defaultdict(float))
        index = self._enter(ROOT)
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(index)

    def _count(self, name: str, args) -> None:
        counts = self.counts[-1]
        if name == "calculus.eigendecompose":
            counts["calculus.eigendecompose.calls"] += 1
        elif name == "calculus.eigh":
            counts["calculus.eigh.calls"] += 1
            counts["calculus.eigh.dim"] = max(counts["calculus.eigh.dim"],
                                              args[0].shape[0])
        elif name == "operators.build_dirac":
            counts["operators.build_dirac.calls"] += 1
        elif name in ("probes.vanishing_symbol_test", "probes.probe_symbol"):
            op, specs = args[0], args[1]
            specs = specs if name == "probes.vanishing_symbol_test" else [specs]
            counts["probes.probes"] += len(specs)
            counts["probes.columns"] += sum(len(s.schedule) * op.rank for s in specs)

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            if name == "probes.vanishing_symbol_test":
                args = (args[0], list(args[1])) + args[2:]
            self._count(name, args)
            index = self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(index)
        traced.__wrapped__ = fn
        return traced

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        """Replace every traced function wherever confspec looks it up.

        Install only around ``root`` calls: spans and counters belong to the
        operation ``root`` opened last."""
        owners = [m for n, m in list(sys.modules.items())
                  if n == "confspec" or n.startswith("confspec.")]
        for name, _, module, attribute in LAYERS:
            home = importlib.import_module(module)
            original = getattr(home, attribute)
            wrapper = self._wrap(name, original)
            for owner in [home] + owners:
                if getattr(owner, attribute, None) is original:
                    self._patched.append((owner, attribute, original))
                    setattr(owner, attribute, wrapper)

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patched):
            setattr(owner, attribute, original)
        self._patched.clear()

    # -- analysis ---------------------------------------------------------

    def per_op(self) -> list[dict]:
        """Self seconds per layer metric and counters, one dict per op."""
        rows = [defaultdict(float, counts) for counts in self.counts]
        child_time = defaultdict(float)
        for op, name, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        for index, (op, name, start, end, _) in enumerate(self.spans):
            rows[op][SELF_METRICS[name]] += (end - start) - child_time[index]
            if name == ROOT:
                rows[op]["op_s"] += end - start
        return rows

    def dump(self) -> list[dict]:
        """Spans as JSON-ready records, times relative to the first span."""
        t0 = self.spans[0][2] if self.spans else 0.0
        return [{"op": op, "name": name, "start": start - t0, "end": end - t0,
                 "parent": parent}
                for op, name, start, end, parent in self.spans]
