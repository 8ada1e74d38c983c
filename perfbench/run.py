"""confspec benchmark: time to verdict on fixed scenario workloads.

One process, one client, closed loop: each operation is one in-process
``confspec.cli.run(parse_scenario(scenario), out_dir=<fresh dir>)``, the
work of a one-scenario CLI run minus interpreter start, which is measured
separately as ``setup_s``.  Every operation gets fresh inputs drawn from
the seeded stream of its workload and is checked against the exact answer.
The end-to-end times are scaled by a reference computation timed around
each operation and start-up (see ``Reference``), so that they follow the
program and not the momentary speed of a shared host.

    python3 perfbench/run.py --workload torus-moduli --seed 1 --seconds 22 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run; ``--smoke`` swaps in tiny grids that run in
seconds.  The last line of standard output is one JSON object with keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is the environment block.  A human-readable table goes to standard error,
and a JSON record (with the span dump when tracing) to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

# numpy, confspec and the modules beside this file that import numpy are
# imported inside functions: the BLAS thread cap must be set before numpy
# loads.

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOAD_NAMES = ("torus-moduli", "torus-conformal", "circle-distance", "circle-phase")
SETUP_SAMPLES = 7
# Times of the Reference parts at which scaled times read as wall seconds:
# about what they take on the machine this benchmark was built on (2-vCPU
# Intel Xeon VM, numpy 2.4 with OpenBLAS 0.3.31 on one thread) when that
# machine runs at its fast state.
REFERENCE_S = {"loop": 0.020, "eigh": 0.020}
# Least share of the preceding interval that each block of reference runs takes.
REFERENCE_SHARE = 0.1
# Errors below this read as this: under it a difference is rounding, not accuracy.
ACCURACY_FLOOR = 1e-6
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

UNITS = {"ops_per_s": "1/s", "peak_rss_mb": "MB", "answer_error": "ratio",
         "io.bytes_written": "bytes", "calculus.eigh.dim": "rows"}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    return "s" if name.endswith("_s") else "count"


def cap_blas_threads() -> None:
    """Run BLAS on one thread.

    The operations are one client's work on matrices of at most 1152 rows,
    many of them small products inside Python loops.  A second BLAS thread
    there mostly waits for the first, and its hand-offs make the timings
    depend on what else the host runs: on a shared 2-vCPU machine a
    ``circle-distance`` op took 0.96-1.22 s with two threads and
    0.88-0.91 s with one."""
    for var in BLAS_THREAD_VARIABLES:
        os.environ[var] = "1"


class Reference:
    """A fixed computation that uses no confspec code, timed between
    operations to read how fast the machine runs at that moment.

    The shared host this benchmark was built on switches between a fast
    and a slow state lasting from seconds to minutes; in the slow state the
    same work takes up to 1.7x as long.  Each timed interval is rescaled by
    ``REFERENCE_S`` over the reference time measured around it, so a time
    reads as seconds on a machine that runs the reference in
    ``REFERENCE_S``.  The computation has two parts, timed apart, for the
    two kinds of work the operations are made of: a Python loop of small
    matrix-vector products (as in the distance optimizer), which the slow
    state slows by about 1.7x, and a dense symmetric eigendecomposition,
    which it slows by about 1.35x.  Each workload names the parts that
    track it (``Workload.reference_parts``).
    """

    LOOP_STEPS = 1500
    EIGH_REPEATS = 2

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.small = rng.standard_normal((128, 32))
        self.start = rng.standard_normal(32)
        dense = rng.standard_normal((300, 300))
        self.dense = dense + dense.T

    def seconds(self) -> dict:
        """Wall time of each part: ``{"loop": s, "eigh": s}``."""
        import numpy as np

        started = time.perf_counter()
        u = self.start.copy()
        for _ in range(self.LOOP_STEPS):
            wu = self.small @ u
            ratio = np.abs(wu) / np.abs(wu).max()
            u = u - 1e-6 * (self.small.T @ (ratio ** 7 * np.sign(wu)))
        looped = time.perf_counter()
        for _ in range(self.EIGH_REPEATS):
            np.linalg.eigh(self.dense)
        return {"loop": looped - started, "eigh": time.perf_counter() - looped}


def time_setup() -> float:
    """Wall time of a fresh interpreter importing the CLI module.

    No timeout: with one, ``subprocess`` polls the child in sleeps of up to
    50 ms, which would quantize a 0.2 s measurement."""
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import confspec.cli"],
                   env=dict(os.environ, PYTHONPATH=str(SRC)), cwd=ROOT, check=True)
    return time.perf_counter() - started


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def environment(args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy_version,
            "blas": {"name": blas.get("name"), "version": blas.get("version"),
                     "threads": {v: os.environ[v] for v in BLAS_THREAD_VARIABLES}},
            "cpu_count": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "commit": git_commit(), "seed": args.seed, "workload": args.workload,
            "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke}


def _bytes_in(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.iterdir() if p.is_file())


def run_op(workload, scenario: dict, expected: dict, op_dir: Path, tracer=None) -> dict:
    """One timed operation, checked; failures are recorded, never retried."""
    from confspec import cli

    op_dir.mkdir(parents=True)

    def call():
        return cli.run(cli.parse_scenario(scenario), out_dir=str(op_dir))

    started = time.perf_counter()
    try:
        record = tracer.root(call) if tracer is not None else call()
    except Exception as exc:  # any error is a failed operation
        latency = time.perf_counter() - started
        result = {"latency": latency, "error": f"{type(exc).__name__}: {exc}"}
    else:
        latency = time.perf_counter() - started
        result = {"latency": latency, "bytes": _bytes_in(op_dir)}
        if record.exit_code != cli.EXIT_OK:
            result["error"] = f"exit code {record.exit_code}"
        else:
            try:
                result["error"] = workload.check(record.outputs, expected)
                if result["error"] is None:
                    result["accuracy"] = workload.accuracy(record.outputs, expected)
            except (KeyError, IndexError, TypeError, ValueError) as exc:
                result["error"] = f"malformed result: {type(exc).__name__}: {exc}"
    shutil.rmtree(op_dir)
    return result


def run_loop(workload, seed: int, seconds: float, trace: bool, work_dir: Path,
             setup_samples: int):
    """Run operations until ``seconds`` have passed and at least
    ``workload.accuracy_ops`` ran.

    ``setup_samples`` start-up timings are taken between operations, spread
    evenly over the loop, so that they see the same machine load as the
    operations; their time is left out of the loop time.  The reference
    computation runs before the first operation and after every operation
    and start-up timing, repeated until it has taken ``REFERENCE_SHARE`` of
    the interval it follows, so that a long operation gets a long sample of
    the machine's speed.  Each interval gets the mean reference time of the
    blocks just before and just after it; the reference time is left out of
    the loop time too.  When tracing, every other operation from the second
    on is traced (the first pays one-off costs such as BLAS start-up), and
    the others time the untraced path.
    """
    import numpy as np

    from spans import Tracer

    rng = np.random.default_rng(seed)
    tracer = Tracer() if trace else None
    reference = Reference()
    ops, setups, blocks = [], [], []
    loop_started = time.perf_counter()

    def elapsed():
        return (time.perf_counter() - loop_started
                - sum(sum(sum(parts.values()) for parts in block) for block in blocks)
                - sum(setup["seconds"] for setup in setups))

    def sample(seconds: float) -> None:
        block = [reference.seconds()]
        while sum(sum(parts.values()) for parts in block) < REFERENCE_SHARE * seconds:
            block.append(reference.seconds())
        blocks.append(block)

    def around(seconds: float) -> dict:
        sample(seconds)
        return {"seconds": seconds,
                "reference": {part: statistics.fmean(parts[part] for block in blocks[-2:]
                                                     for parts in block)
                              for part in blocks[-1][0]}}

    sample(0.0)

    while len(ops) < workload.accuracy_ops or elapsed() < seconds:
        scenario, expected = workload.make(rng)
        traced = trace and len(ops) % 2 == 1
        if traced:
            tracer.install()
        try:
            op = run_op(workload, scenario, expected, work_dir / f"op-{len(ops)}",
                        tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        op["traced"] = traced
        op["reference"] = around(op["latency"])["reference"]
        ops.append(op)
        if len(setups) < min(elapsed() / seconds * setup_samples, setup_samples):
            setups.append(around(time_setup()))
    while len(setups) < setup_samples:
        setups.append(around(time_setup()))
    return ops, setups, tracer


def scaled(seconds: float, reference: dict, parts=tuple(REFERENCE_S)) -> float:
    """A wall time in seconds at the speed where the reference ``parts`` take
    their REFERENCE_S."""
    return (seconds * sum(REFERENCE_S[part] for part in parts)
            / sum(reference[part] for part in parts))


def end_to_end(workload, ops, setups) -> dict:
    passed = [op for op in ops if op["error"] is None]
    first = [op["accuracy"] for op in ops[:workload.accuracy_ops] if "accuracy" in op]
    error = max(statistics.fmean(first), ACCURACY_FLOOR) if first else float("nan")
    latencies = [scaled(op["latency"], op["reference"], workload.reference_parts)
                 for op in ops]
    return {"setup_s": statistics.median(scaled(**setup) for setup in setups),
            "latency_p50_s": statistics.median(latencies),
            "ops_per_s": len(passed) / sum(latencies),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "answer_error": error}


def per_layer(ops, tracer) -> tuple[dict, float]:
    """Per-layer metrics (means per traced op) and the mean traced op time."""
    from spans import COUNTERS, SELF_METRICS

    rows = tracer.per_op()
    traced = [op for op in ops if op["traced"]]
    untraced = [op for op in ops if not op["traced"]]
    metrics = {name: statistics.fmean(row[name] for row in rows)
               for name in list(SELF_METRICS.values()) + list(COUNTERS)}
    metrics["io.bytes_written"] = statistics.fmean(op.get("bytes", 0) for op in traced)
    metrics["trace.overhead_s"] = (statistics.median(op["latency"] for op in traced)
                                   - statistics.median(op["latency"] for op in untraced))
    return metrics, statistics.fmean(row["op_s"] for row in rows)


def coverage_lines(metrics: dict, op_s: float) -> list[str]:
    """Shares of the traced op time held by layer groups."""
    self_times = {k: v for k, v in metrics.items()
                  if k.endswith("_s") and k != "trace.overhead_s"}

    def share(prefixes):
        return sum(v for k, v in self_times.items() if k.startswith(prefixes)) / op_s

    return [f"traced op time {op_s:.4f} s; all layer self times cover "
            f"{share(('',)):.1%}",
            f"calculus.* + probes.* self times cover {share(('calculus.', 'probes.')):.1%}",
            f"detect.connes_distance_s covers {share(('detect.connes_distance',)):.1%}"]


def report(args, env, ops, setups, metrics, tracer=None, op_s=None) -> dict:
    """Print the table to stderr, write the JSON record, return the result."""
    failures = [op["error"] for op in ops if op["error"] is not None]
    for error in failures:
        print(f"FAILED: {error}", file=sys.stderr)
    print(f"{args.workload}: {len(ops)} ops, fail_share {len(failures)}/{len(ops)} = "
          f"{len(failures) / len(ops):.3f}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"  {name:42s} {value:14.6g} {unit_of(name)}", file=sys.stderr)
    print(f"  unscaled median op wall time {statistics.median(op['latency'] for op in ops):.4f} s;"
          f" median reference {statistics.median(sum(op['reference'].values()) for op in ops):.4f} s"
          f" (times above are scaled to reference part times {REFERENCE_S})",
          file=sys.stderr)
    if tracer is not None:
        for line in coverage_lines(metrics, op_s):
            print(f"  {line}", file=sys.stderr)
    result = {"correct": not failures, "attempted": len(ops), "failed": len(failures),
              "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()}}
    record = {"environment": env, "result": result,
              "latencies_s": [op["latency"] for op in ops],
              "references_s": [op["reference"] for op in ops], "setups": setups}
    if tracer is not None:
        record["spans"] = tracer.dump()
    OUT.mkdir(exist_ok=True)
    kind = "trace" if tracer is not None else "result"
    name = f"{kind}-{args.workload}-seed{args.seed}{'-smoke' if args.smoke else ''}.json"
    (OUT / name).write_text(json.dumps(record) + "\n", encoding="utf-8")
    return result


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny grids (torus 8x8, circle N=32) for a quick check")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    cap_blas_threads()
    if not (SRC / "confspec" / "__init__.py").is_file():
        print(f"error: no confspec sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        import confspec.cli  # noqa: F401
    except ImportError as exc:
        print(f"error: cannot import confspec from {SRC}: {exc}", file=sys.stderr)
        return 2
    from workloads import workloads

    workload = workloads(smoke=args.smoke)[args.workload]
    env = environment(args)
    setup_samples = 0 if args.trace else 2 if args.smoke else SETUP_SAMPLES
    work_dir = OUT / f"ops-{os.getpid()}"
    try:
        ops, setups, tracer = run_loop(
            workload, args.seed, args.seconds, bool(args.trace), work_dir, setup_samples)
    finally:
        if work_dir.exists():
            shutil.rmtree(work_dir)
    if args.trace:
        metrics, op_s = per_layer(ops, tracer)
        result = report(args, env, ops, setups, metrics, tracer, op_s)
    else:
        metrics = end_to_end(workload, ops, setups)
        result = report(args, env, ops, setups, metrics)
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
