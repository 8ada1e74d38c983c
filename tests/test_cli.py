"""Scenario runner: configs, demos, exit codes, and serialization round-trips."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import confspec
from confspec import (
    ConfigError,
    load_metric,
    load_operator,
    make_circle_metric,
    make_torus_metric,
    metric_from_dict,
    metric_to_dict,
    save_metric,
    save_operator,
)
from confspec.cli import EXIT_ERROR, EXIT_INCONCLUSIVE, EXIT_OK, main

from conftest import circle_theta

TWO_PI = 2.0 * np.pi


def _write_config(tmp_path, data, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data, indent=2))
    return str(path)


def _circle_record(n=32, amplitude=0.0, band=1):
    theta = circle_theta(n)
    metric = make_circle_metric(TWO_PI, amplitude * np.sin(theta), band)
    return metric_to_dict(metric)


# ------------------------------------------------------------------ exit codes

def test_detect_scenario_decides_conformal(tmp_path, capsys):
    config = _write_config(tmp_path, {
        "scenario": "detect",
        "metric_a": _circle_record(amplitude=0.0, band=0),
        "metric_b": _circle_record(amplitude=0.25, band=1),
        "spin": ["antiperiodic"],
    })
    code = main(["--config", config, "--out", str(tmp_path / "out")])
    assert code == EXIT_OK
    assert "decision: conformal" in capsys.readouterr().out
    record = json.loads((tmp_path / "out" / "result.json").read_text())
    assert record["outputs"]["decision"] == "conformal"
    assert record["scenario"]["scenario"] == "detect"
    assert isinstance(record["input_hash"], str) and len(record["input_hash"]) == 64
    header = (tmp_path / "out" / "evidence.csv").read_text().splitlines()[0]
    assert header == "point_index,dir_x,dir_y,frequency,residual"


def test_bad_grid_size_names_the_field(tmp_path, capsys):
    bad = _circle_record()
    bad["N"] = 63
    bad["v_samples"] = [0.0] * 63
    config = _write_config(tmp_path, {
        "scenario": "detect",
        "metric_a": bad,
        "metric_b": _circle_record(),
    })
    code = main(["--config", config, "--out", str(tmp_path / "out")])
    assert code == EXIT_ERROR
    err = capsys.readouterr().err
    assert "config error" in err
    assert "metric_a.N" in err


def test_config_and_demo_are_exclusive(tmp_path, capsys):
    config = _write_config(tmp_path, {"scenario": "build",
                                      "metric": _circle_record()})
    assert main(["--config", config, "--demo", "projector-identity"]) == EXIT_ERROR
    assert main([]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert "exactly one of --config or --demo" in err


@pytest.mark.parametrize("argv", [["--bogus"], ["--threads", "2"], ["--seed", "x"],
                                  ["--demo", "nope"]])
def test_usage_errors_exit_with_the_error_code(argv, tmp_path, capsys):
    config = _write_config(tmp_path, {"scenario": "build",
                                      "metric": _circle_record()})
    assert main(["--config", config, "--out", str(tmp_path / "out")] + argv) == EXIT_ERROR
    assert "usage:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_help_exits_ok(capsys):
    assert main(["--help"]) == EXIT_OK
    assert "--config" in capsys.readouterr().out


def test_invalid_json_reports_location(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"scenario": "build",,}')
    assert main(["--config", str(path)]) == EXIT_ERROR
    assert "not valid JSON" in capsys.readouterr().err


def test_unknown_scenario_kind(tmp_path, capsys):
    config = _write_config(tmp_path, {"scenario": "transmogrify"})
    assert main(["--config", config]) == EXIT_ERROR
    assert "scenario" in capsys.readouterr().err


def test_probe_on_unbounded_operator_is_inconclusive(tmp_path, capsys):
    config = _write_config(tmp_path, {
        "scenario": "probe",
        "metric": _circle_record(amplitude=0.3),
        "operator": "dirac",
        "point": [0.0],
        "direction": [1],
    })
    code = main(["--config", config, "--out", str(tmp_path / "out")])
    assert code == EXIT_INCONCLUSIVE
    record = json.loads((tmp_path / "out" / "result.json").read_text())
    assert record["outputs"]["converged"] is False


def test_probe_on_sign_converges(tmp_path, capsys):
    config = _write_config(tmp_path, {
        "scenario": "probe",
        "metric": _circle_record(amplitude=0.3),
        "point": [0.0],
        "direction": [1],
    })
    code = main(["--config", config, "--out", str(tmp_path / "out")])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "converged: True" in out


def test_build_scenario_writes_artifacts(tmp_path):
    config = _write_config(tmp_path, {
        "scenario": "build",
        "metric": _circle_record(amplitude=0.3),
        "spin": ["antiperiodic"],
    })
    out = tmp_path / "out"
    assert main(["--config", config, "--out", str(out)]) == EXIT_OK
    metric = load_metric(out / "metric.json")
    operator = load_operator(out / "operator.npz")
    assert metric.dim == 1
    assert operator.size == 32
    assert operator.hermitian


def _torus_pair(n):
    record = metric_to_dict(make_torus_metric(1.0, np.zeros((n, n)), 0))
    return {"metric_a": record, "metric_b": record}


@pytest.mark.parametrize("bad", [{"tau": -1}, {"tau": float("nan")}, {"tau": "small"},
                                 {"schedule": 3}, {"points": 8.5},
                                 {"rays": 4.5, **_torus_pair(8)},
                                 {"rays": 2, **_torus_pair(8)},
                                 {"points": 99, **_torus_pair(16)}])
def test_bad_detect_thresholds_fail_before_any_operator_is_built(bad, tmp_path, capsys,
                                                                 monkeypatch):
    import confspec.cli

    def refuse(*args, **kwargs):
        raise AssertionError("an operator was built before the thresholds were checked")

    monkeypatch.setattr(confspec.cli, "build_dirac", refuse)
    config = _write_config(tmp_path, {
        "scenario": "detect",
        "metric_a": _circle_record(amplitude=0.0, band=0),
        "metric_b": _circle_record(amplitude=0.25, band=1),
        **bad,
    })
    assert main(["--config", config, "--out", str(tmp_path / "out")]) == EXIT_ERROR
    assert "config error - thresholds" in capsys.readouterr().err


def _torus_record(n, amplitude):
    theta = circle_theta(n)
    v = amplitude * (np.sin(theta)[:, None] + np.cos(theta)[None, :])
    return metric_to_dict(make_torus_metric(1.0, v, 1 if amplitude else 0))


@pytest.mark.parametrize("parities,amplitude", [(["periodic", "periodic"], 0.2),
                                                (["antiperiodic", "antiperiodic"], 0.2),
                                                (["periodic", "periodic"], 0.0)])
def test_sign_scenario_kernel_rank_matches_the_operator(parities, amplitude, tmp_path):
    from confspec import SpinStructure, build_dirac, kernel_rank
    record = _torus_record(8, amplitude)
    config = _write_config(tmp_path, {"scenario": "sign", "metric": record,
                                      "spin": parities})
    out = tmp_path / "out"
    assert main(["--config", config, "--out", str(out)]) == EXIT_OK
    outputs = json.loads((out / "result.json").read_text())["outputs"]
    dirac = build_dirac(metric_from_dict(record), SpinStructure(tuple(parities)))
    assert outputs["kernel_rank"] == kernel_rank(dirac)
    assert outputs["kernel_rank"] == (2 if parities[0] == "periodic" else 0)


def test_seed_override_changes_the_hash(tmp_path):
    config = _write_config(tmp_path, {
        "scenario": "probe",
        "metric": _circle_record(),
        "point": [0.0],
        "direction": [1],
    })
    out_a, out_b, out_c = (str(tmp_path / d) for d in ("a", "b", "c"))
    main(["--config", config, "--out", out_a])
    main(["--config", config, "--out", out_b])
    main(["--config", config, "--out", out_c, "--seed", "7"])
    read = lambda d: json.loads((tmp_path / d / "result.json").read_text())
    assert read("a")["input_hash"] == read("b")["input_hash"]
    assert read("a")["input_hash"] != read("c")["input_hash"]


def test_config_with_a_threads_key_still_runs(tmp_path):
    # the former "threads" setting is an unknown key now, and unknown keys
    # are ignored
    config = _write_config(tmp_path, {
        "scenario": "probe",
        "metric": _circle_record(),
        "point": [0.0],
        "direction": [1],
        "threads": 2,
    })
    assert main(["--config", config, "--out", str(tmp_path / "out")]) == EXIT_OK


def _distance_config(tmp_path, **extra):
    return _write_config(tmp_path, {"scenario": "distance",
                                    "metric": _circle_record(amplitude=0.3),
                                    "x": 0.3, "y": 2.0, **extra})


def test_distance_scenario_reports_a_certified_value(tmp_path, capsys):
    def value(name, *flags, **extra):
        out = tmp_path / name
        assert main(["--config", _distance_config(tmp_path, **extra),
                     "--out", str(out), *flags]) == EXIT_OK
        return json.loads((out / "result.json").read_text())["outputs"]

    outputs = value("plain")
    assert outputs["certified"] is True
    assert 0.0 <= outputs["duality_gap"] <= 1e-12 * outputs["value"]
    assert "stable" not in outputs and "restart_values" not in outputs
    assert "(certified: True)" in capsys.readouterr().out
    # the former "restarts" setting is an unknown key now, and the LP has no seed
    assert value("restarts", restarts=2)["value"] == outputs["value"]
    assert value("seeded", "--seed", "7")["value"] == outputs["value"]


@pytest.mark.parametrize("band", [0, -3, 4.5, 9])
def test_bad_distance_band_is_named(band, tmp_path, capsys):
    # N = 32, so the largest band is N/4 = 8
    config = _distance_config(tmp_path, band=band)
    assert main(["--config", config, "--out", str(tmp_path / "out")]) == EXIT_ERROR
    assert "config error - distance: band must be" in capsys.readouterr().err


def test_distance_and_detect_import_no_scipy(tmp_path):
    detect = _write_config(tmp_path, {"scenario": "detect",
                                      "metric_a": _circle_record(amplitude=0.0, band=0),
                                      "metric_b": _circle_record(amplitude=0.25)},
                           name="detect.json")
    script = ("import sys\n"
              "from confspec.cli import main\n"
              "codes = [main(['--config', path, '--out', out])\n"
              "         for path, out in zip(sys.argv[1::2], sys.argv[2::2])]\n"
              "print(codes, 'scipy' in sys.modules)\n")
    src = os.path.dirname(os.path.dirname(confspec.__file__))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run(
        [sys.executable, "-c", script, _distance_config(tmp_path), str(tmp_path / "d"),
         detect, str(tmp_path / "c")], env=env, capture_output=True, text=True,
        timeout=300)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[0, 0] False"


def test_recover_scenario(tmp_path):
    config = _write_config(tmp_path, {
        "scenario": "recover",
        "metric": _circle_record(n=64, amplitude=0.3),
        "spin": ["antiperiodic"],
        "points": [[1.5707963267948966]],
    })
    out = tmp_path / "out"
    assert main(["--config", config, "--out", str(out)]) == EXIT_OK
    record = json.loads((out / "result.json").read_text())
    recovered = record["outputs"]["recovered"][0]
    true_value = record["outputs"]["true_values"][0]
    assert recovered == pytest.approx(true_value, abs=0.01)


def test_projector_identity_demo(tmp_path, capsys):
    assert main(["--demo", "projector-identity",
                 "--out", str(tmp_path / "out")]) == EXIT_OK
    record = json.loads((tmp_path / "out" / "result.json").read_text())
    checks = record["outputs"]["checks"]
    assert checks and all(c["passed"] for c in checks)


# ------------------------------------------------------------- serialization

def test_metric_round_trip_is_bitwise(tmp_path):
    theta = circle_theta(64)
    metric = make_circle_metric(TWO_PI, 0.3 * np.sin(theta), 1)
    first = tmp_path / "m1.json"
    second = tmp_path / "m2.json"
    save_metric(metric, first)
    reloaded = load_metric(first)
    save_metric(reloaded, second)
    assert first.read_bytes() == second.read_bytes()
    assert np.array_equal(reloaded.factor.samples, metric.factor.samples)


def test_torus_metric_round_trip(tmp_path):
    xs = circle_theta(16)
    v = 0.2 * np.cos(xs)[:, None] * np.ones((1, 16))
    metric = make_torus_metric(2.0, v, 1)
    path = tmp_path / "torus.json"
    save_metric(metric, path)
    reloaded = load_metric(path)
    assert reloaded.background.modulus == 2.0
    assert np.array_equal(reloaded.factor.samples, metric.factor.samples)


def test_operator_round_trip(tmp_path, dirac_curved_s1):
    path = tmp_path / "op.npz"
    save_operator(dirac_curved_s1, path)
    reloaded = load_operator(path)
    assert np.array_equal(reloaded.matrix, dirac_curved_s1.matrix)
    assert reloaded.grid == dirac_curved_s1.grid
    assert reloaded.rank == dirac_curved_s1.rank
    assert reloaded.hermitian == dirac_curved_s1.hermitian
    assert reloaded.spin == dirac_curved_s1.spin


def test_metric_from_dict_names_missing_fields():
    with pytest.raises(ConfigError) as exc_info:
        metric_from_dict({"dim": 1}, field="metric_b")
    assert exc_info.value.field.startswith("metric_b.")


def test_metric_record_fields():
    record = metric_to_dict(make_circle_metric(TWO_PI, np.zeros(8), 0))
    assert set(record) == {"dim", "N", "period", "background",
                           "band_limit", "v_samples"}
    assert record["background"] == {"kind": "circle", "length": TWO_PI}
