"""The benchmark's own tests, on the tiny smoke workloads.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import numpy as np  # noqa: E402

from confspec import cli, detect  # noqa: E402
from run import REFERENCE_S, WORKLOAD_NAMES, Reference, scaled  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SMOKE = workloads(smoke=True)
WRONG_DECISION = {"conformal": "not_conformal", "not_conformal": "conformal"}


def _run_bench(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_end_to_end_metrics_match_benchmark_json(workload):
    result = _run_bench(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_per_layer_metrics_match_benchmark_json():
    result = _run_bench("circle-phase", trace=1)
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == declared


def test_workload_reasons_match_benchmark_json():
    full = workloads()
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(full) == list(WORKLOAD_NAMES)
    for entry in BENCHMARK["workloads"]:
        assert entry["why"] == full[entry["name"]].why


@pytest.mark.parametrize("name", list(SMOKE))
def test_checks_accept_the_right_answer_and_reject_a_wrong_one(name, tmp_path):
    workload = SMOKE[name]
    scenario, expected = workload.make(np.random.default_rng(7))
    record = cli.run(cli.parse_scenario(scenario), out_dir=str(tmp_path))
    assert record.exit_code == cli.EXIT_OK
    assert workload.check(record.outputs, expected) is None
    if "decision" in expected:
        wrong = {**expected, "decision": WRONG_DECISION[expected["decision"]]}
    else:
        wrong = {**expected, "exact": 1.5 * expected["exact"]}
    assert workload.check(record.outputs, wrong) is not None


def test_scaled_times_read_as_wall_time_at_reference_speed():
    parts = Reference().seconds()
    assert set(parts) == {"loop", "eigh"} and all(v > 0 for v in parts.values())
    assert scaled(1.5, REFERENCE_S) == pytest.approx(1.5)
    slow = {part: 2 * seconds for part, seconds in REFERENCE_S.items()}
    assert scaled(1.5, slow) == pytest.approx(0.75)
    slow_loop = {**REFERENCE_S, "loop": 2 * REFERENCE_S["loop"]}
    assert scaled(1.5, slow_loop, ("eigh",)) == pytest.approx(1.5)


def test_seed_fixes_the_inputs():
    workload = SMOKE["torus-conformal"]
    first = workload.make(np.random.default_rng(11))
    again = workload.make(np.random.default_rng(11))
    other = workload.make(np.random.default_rng(12))
    assert first == again
    assert first != other


def test_tracer_self_times_add_up_and_originals_come_back(tmp_path):
    original = detect.sign_of
    workload = SMOKE["circle-phase"]
    scenario, _ = workload.make(np.random.default_rng(5))
    tracer = Tracer()
    tracer.install()
    try:
        tracer.root(cli.run, cli.parse_scenario(scenario), out_dir=str(tmp_path))
    finally:
        tracer.uninstall()
    assert detect.sign_of is original
    (row,) = tracer.per_op()
    layer_total = sum(v for k, v in row.items() if k.endswith("_s") and k != "op_s")
    assert layer_total == pytest.approx(row["op_s"], rel=1e-9)
    assert row["calculus.eigendecompose.calls"] == 2
    assert row["operators.build_dirac.calls"] == 2
    names = {span["name"] for span in tracer.dump()}
    assert {"cli.run", "detect.detect_conformal", "calculus.sign_of"} <= names


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "circle-phase", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert done.stdout == ""
