"""Scenario runner: JSON configs in, JSON results and CSV evidence out.

One process runs one scenario.  Exit code 0 means the scenario ran and
decided; 2 means it ran but the outcome is inconclusive (a verdict the
thresholds cannot call, a non-converged probe, an uncertified distance,
or a failed demo check); 1 means the command line, the configuration or the
computation errored.  Scripts can therefore distinguish "not conformal" from
"cannot tell" without parsing output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from .geometry import Grid
from .operators import OperatorMatrix, SpinStructure, build_dirac, multiplication_operator
from .calculus import kernel_rank, sign_of, spectral_projector
from .probes import ProbeRow, probe_symbol, standard_probe
from .detect import (CONFORMAL, INCONCLUSIVE, NOT_CONFORMAL, DetectConfig,
                     _base_points, _detection_directions, connes_distance,
                     detect_conformal, recover_conformal_factor)
from .io import (ConfigError, canonical_hash, distance_to_dict,
                 estimate_to_dict, load_metric, metric_from_dict, save_metric,
                 save_operator, verdict_to_dict, write_probe_csv)

SCENARIO_KINDS = ("build", "sign", "probe", "detect", "distance", "recover", "demo")
DEMO_NAMES = ("circle-conformal", "torus-moduli", "distance-circle",
              "projector-identity")

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INCONCLUSIVE = 2


@dataclass(frozen=True)
class ScenarioConfig:
    """One validated scenario: kind, raw payload, effective seed."""

    kind: str
    data: dict
    seed: int = 0
    base_dir: str = "."


@dataclass(frozen=True)
class ResultRecord:
    """What a run produced: config echo, input hash, outputs, timing."""

    scenario: dict
    input_hash: str
    outputs: dict
    wall_clock_seconds: float
    exit_code: int = EXIT_OK

    def to_dict(self) -> dict:
        return {"scenario": self.scenario, "input_hash": self.input_hash,
                "outputs": self.outputs,
                "wall_clock_seconds": self.wall_clock_seconds}


def parse_scenario(data: dict, base_dir: str = ".", seed: int | None = None) -> ScenarioConfig:
    if not isinstance(data, dict):
        raise ConfigError("config", "top level must be a JSON object")
    kind = data.get("scenario")
    if kind not in SCENARIO_KINDS:
        raise ConfigError("scenario",
                          f"must be one of {', '.join(SCENARIO_KINDS)}, got {kind!r}")
    if seed is None:
        seed = data.get("seed", 0)
    if not isinstance(seed, int):
        raise ConfigError("seed", f"must be an integer, got {seed!r}")
    return ScenarioConfig(kind=kind, data=data, seed=seed, base_dir=base_dir)


def _metric_entry(config: ScenarioConfig, key: str):
    entry = config.data.get(key)
    if entry is None:
        raise ConfigError(key, "missing metric record or file path")
    if isinstance(entry, str):
        path = os.path.join(config.base_dir, entry)
        if not os.path.exists(path):
            raise ConfigError(key, f"metric file not found: {path}")
        return load_metric(path)
    return metric_from_dict(entry, field=key)


def _spin_entry(config: ScenarioConfig, metric, key: str = "spin") -> SpinStructure:
    entry = config.data.get(key)
    if entry is None:
        entry = ("antiperiodic",) * metric.dim
    if isinstance(entry, str):
        entry = (entry,)
    try:
        spin = SpinStructure(tuple(entry))
    except ValueError as exc:
        raise ConfigError(key, str(exc)) from exc
    if spin.dim != metric.dim:
        raise ConfigError(key, f"expected {metric.dim} parities, got {len(entry)}")
    return spin


def _dirac_for(config: ScenarioConfig, metric_key: str = "metric"):
    metric = _metric_entry(config, metric_key)
    spin = _spin_entry(config, metric)
    return metric, build_dirac(metric, spin)


def _point_entry(data: dict, key: str, dim: int, required: bool = True):
    entry = data.get(key)
    if entry is None:
        if required:
            raise ConfigError(key, "missing coordinates")
        return None
    pt = (float(entry),) if np.isscalar(entry) else tuple(float(c) for c in entry)
    if len(pt) != dim:
        raise ConfigError(key, f"expected {dim} coordinates, got {entry!r}")
    return pt


def _run_build(config: ScenarioConfig, out_dir: str):
    metric, dirac = _dirac_for(config)
    metric_path = os.path.join(out_dir, "metric.json")
    operator_path = os.path.join(out_dir, "operator.npz")
    save_metric(metric, metric_path)
    save_operator(dirac, operator_path)
    outputs = {"metric_path": metric_path, "operator_path": operator_path,
               "size": dirac.size, "rank": dirac.rank,
               "spin": list(dirac.spin.parities)}
    return outputs, None, EXIT_OK


def _run_sign(config: ScenarioConfig, out_dir: str):
    _, dirac = _dirac_for(config)
    tau = config.data.get("tau")
    signed = sign_of(dirac, tol=tau)
    sign_path = os.path.join(out_dir, "sign.npz")
    save_operator(signed, sign_path)
    # sign^2 = I - P_0, so the kernel rank is n - ||sign||_F^2
    rank = signed.size - round(float(np.vdot(signed.matrix, signed.matrix).real))
    outputs = {"sign_path": sign_path, "tolerance": signed.tolerance,
               "kernel_rank": rank, "size": signed.size}
    return outputs, None, EXIT_OK


def _run_probe(config: ScenarioConfig, out_dir: str):
    _, dirac = _dirac_for(config)
    data = config.data
    which = data.get("operator", "sign")
    if which not in ("sign", "dirac"):
        raise ConfigError("operator", f"must be 'sign' or 'dirac', got {which!r}")
    op = sign_of(dirac, tol=data.get("tau")) if which == "sign" else dirac
    point = _point_entry(data, "point", op.grid.dim)
    direction = data.get("direction")
    if direction is None:
        raise ConfigError("direction", "missing lattice direction")
    try:
        spec = standard_probe(op.grid.shape, point, direction,
                              band=data.get("band"),
                              schedule=data.get("schedule"),
                              tolerance=data.get("tolerance", 0.05))
        spec.validate_for(op)
    except ValueError as exc:
        raise ConfigError("probe", str(exc)) from exc
    estimate = probe_symbol(op, spec)
    rows = [ProbeRow(0, estimate.base_point, estimate.direction, m, r, leak)
            for m, r, leak in zip(estimate.frequencies, estimate.residuals,
                                  estimate.truncation_leaks)]
    code = EXIT_OK if estimate.converged else EXIT_INCONCLUSIVE
    return estimate_to_dict(estimate), rows, code


def _detect_config(config: ScenarioConfig, metric) -> DetectConfig:
    data = config.data
    kwargs = {}
    for name in ("points", "rays", "band", "cometric_band", "theta_vanish",
                 "theta_present", "probe_tolerance", "cometric_agree",
                 "cometric_distinct", "tau"):
        if name in data:
            kwargs[name] = data[name]
    try:
        if "schedule" in data:
            kwargs["schedule"] = tuple(data["schedule"])
        thresholds = DetectConfig(**kwargs)
        _detection_directions(metric.dim, thresholds.rays)
        _base_points(metric.grid, thresholds.points)
    except (TypeError, ValueError) as exc:
        raise ConfigError("thresholds", str(exc)) from exc
    return thresholds


def _intertwiner_entry(config: ScenarioConfig, grid: Grid, rank: int):
    entry = config.data.get("intertwiner")
    if entry is None or entry == {"kind": "identity"} or entry == "identity":
        return None
    if not isinstance(entry, dict) or entry.get("kind") != "phase":
        raise ConfigError("intertwiner",
                          "expected 'identity' or {'kind': 'phase', 'w_samples': [...]}")
    w = np.asarray(entry.get("w_samples"), dtype=float)
    if w.shape != grid.shape:
        raise ConfigError("intertwiner.w_samples",
                          f"shape {w.shape} does not match the grid {grid.shape}")
    return multiplication_operator(np.exp(1j * w).reshape(-1), grid, rank=rank)


def _run_detect(config: ScenarioConfig, out_dir: str):
    metric_a = _metric_entry(config, "metric_a")
    metric_b = _metric_entry(config, "metric_b")
    spin_a = _spin_entry(config, metric_a)
    spin_b = _spin_entry(config, metric_b)
    thresholds = _detect_config(config, metric_a)
    dirac_a = build_dirac(metric_a, spin_a)
    dirac_b = build_dirac(metric_b, spin_b)
    if dirac_a.grid != dirac_b.grid:
        raise ConfigError("metric_b", "the two metrics live on different grids")
    intertwiner = _intertwiner_entry(config, dirac_a.grid, dirac_a.rank)
    verdict = detect_conformal(dirac_a, dirac_b, intertwiner, thresholds)
    code = EXIT_OK if verdict.decision != INCONCLUSIVE else EXIT_INCONCLUSIVE
    return verdict_to_dict(verdict), verdict.report.rows, code


def _run_distance(config: ScenarioConfig, out_dir: str):
    _, dirac = _dirac_for(config)
    data = config.data
    if "x" not in data or "y" not in data:
        raise ConfigError("x", "distance scenarios need endpoints 'x' and 'y'")
    try:
        estimate = connes_distance(dirac, data["x"], data["y"], band=data.get("band"))
    except ValueError as exc:
        raise ConfigError("distance", str(exc)) from exc
    code = EXIT_OK if estimate.certified else EXIT_INCONCLUSIVE
    return distance_to_dict(estimate), None, code


def _run_recover(config: ScenarioConfig, out_dir: str):
    metric, dirac = _dirac_for(config)
    data = config.data
    if "points" in data:
        points = [_point_entry({"p": p}, "p", metric.dim) for p in data["points"]]
    else:
        points = list(_base_points(dirac.grid, 8))
    direction = data.get("direction")
    recovered = [recover_conformal_factor(dirac, pt, direction=direction,
                                          schedule=(tuple(data["schedule"])
                                                    if "schedule" in data else None),
                                          band=data.get("band"))
                 for pt in points]
    outputs = {"points": [list(p) for p in points], "recovered": recovered,
               "true_values": [metric.factor_at(p) for p in points]}
    return outputs, None, EXIT_OK


def _check(name: str, passed: bool, measured, expected: str):
    print(f"  {'PASS' if passed else 'FAIL'}  {name}: measured {measured}, "
          f"expected {expected}")
    return {"name": name, "passed": bool(passed), "measured": measured,
            "expected": expected}


def _demo_circle_conformal(config: ScenarioConfig):
    n = 64
    theta = 2 * np.pi * np.arange(n) / n
    flat = metric_from_dict({"dim": 1, "N": n, "period": 2 * np.pi,
                             "background": {"kind": "circle", "length": 2 * np.pi},
                             "band_limit": 0, "v_samples": [0.0] * n})
    curved = metric_from_dict({"dim": 1, "N": n, "period": 2 * np.pi,
                               "background": {"kind": "circle", "length": 2 * np.pi},
                               "band_limit": 1,
                               "v_samples": (0.3 * np.sin(theta)).tolist()})
    spin = SpinStructure(("antiperiodic",))
    verdict = detect_conformal(build_dirac(flat, spin), build_dirac(curved, spin))
    checks = [
        _check("decision", verdict.decision == CONFORMAL, verdict.decision,
               CONFORMAL),
        _check("top-frequency residuals", verdict.report.max_top_residual < 0.05,
               f"{verdict.report.max_top_residual:.3e}", "< 0.05"),
    ]
    return checks, verdict_to_dict(verdict), verdict.report.rows


def _demo_torus_moduli(config: ScenarioConfig):
    n = 32
    zeros = np.zeros((n, n)).tolist()
    base = {"dim": 2, "N": [n, n], "period": [2 * np.pi, 2 * np.pi],
            "band_limit": 0, "v_samples": zeros}
    square = metric_from_dict({**base, "background": {"kind": "torus", "modulus": 1.0}})
    oblong = metric_from_dict({**base, "background": {"kind": "torus", "modulus": 2.0}})
    spin = SpinStructure(("periodic", "periodic"))
    verdict = detect_conformal(build_dirac(square, spin), build_dirac(oblong, spin))
    target = abs(2 / np.sqrt(5) - 1 / np.sqrt(2))
    deviation = verdict.pair_deviation((1, 0), (1, 1))
    checks = [
        _check("decision", verdict.decision == NOT_CONFORMAL, verdict.decision,
               NOT_CONFORMAL),
        _check("pairing deviation at (1,1)", abs(deviation - target) <= 0.04,
               f"{deviation:.5f}", f"{target:.5f} +/- 0.04"),
    ]
    return checks, verdict_to_dict(verdict), verdict.report.rows


def _demo_distance_circle(config: ScenarioConfig):
    n, band = 128, 16
    record = {"dim": 1, "N": n, "period": 2 * np.pi,
              "background": {"kind": "circle", "length": 2 * np.pi},
              "band_limit": 0, "v_samples": [0.0] * n}
    spin = SpinStructure(("antiperiodic",))
    flat = build_dirac(metric_from_dict(record), spin)
    lifted = build_dirac(metric_from_dict({**record, "v_samples": [0.5] * n}), spin)
    est_flat = connes_distance(flat, 0.0, np.pi, band=band)
    est_lifted = connes_distance(lifted, 0.0, np.pi, band=band)
    ratio = est_lifted.value / est_flat.value
    checks = [
        _check("antipodal distance", 0.95 * np.pi <= est_flat.value <= 1.05 * np.pi,
               f"{est_flat.value / np.pi:.5f} pi", "within [0.95 pi, 1.05 pi]"),
        _check("constant-factor scaling", abs(ratio - np.e ** 0.5) <= 0.05 * np.e ** 0.5,
               f"{ratio:.5f}", f"e^0.5 = {np.e ** 0.5:.5f} +/- 5%"),
    ]
    outputs = {"flat": distance_to_dict(est_flat),
               "lifted": distance_to_dict(est_lifted), "scaling_ratio": ratio}
    return checks, outputs, None


def _demo_projector_identity(config: ScenarioConfig):
    n = 64
    record = {"dim": 1, "N": n, "period": 2 * np.pi,
              "background": {"kind": "circle", "length": 2 * np.pi},
              "band_limit": 0, "v_samples": [0.0] * n}
    dirac = build_dirac(metric_from_dict(record), SpinStructure(("periodic",)))

    def identity_gap(op):
        plus = spectral_projector(op, "plus").matrix
        zero = spectral_projector(op, "zero").matrix
        signed = sign_of(op).matrix
        eye = np.eye(op.size)
        return float(np.max(np.abs(plus - 0.5 * (signed + eye - zero))))

    gap = identity_gap(dirac)
    rank0 = kernel_rank(dirac)
    rng = np.random.default_rng(config.seed)
    worst_random = 0.0
    grid = Grid(shape=(24,), periods=(2 * np.pi,))
    for _ in range(10):
        a = rng.standard_normal((24, 24)) + 1j * rng.standard_normal((24, 24))
        h = OperatorMatrix(matrix=0.5 * (a + a.conj().T), grid=grid, hermitian=True)
        worst_random = max(worst_random, identity_gap(h))
    checks = [
        _check("projector identity (flat circle)", gap <= 1e-12, f"{gap:.3e}",
               "<= 1e-12"),
        _check("kernel rank", rank0 == 1, rank0, "1"),
        _check("projector identity (10 random Hermitians)", worst_random <= 1e-12,
               f"{worst_random:.3e}", "<= 1e-12"),
    ]
    outputs = {"flat_gap": gap, "kernel_rank": rank0,
               "worst_random_gap": worst_random}
    return checks, outputs, None


_DEMOS = {"circle-conformal": _demo_circle_conformal,
          "torus-moduli": _demo_torus_moduli,
          "distance-circle": _demo_distance_circle,
          "projector-identity": _demo_projector_identity}


def _run_demo(config: ScenarioConfig, out_dir: str):
    name = config.data.get("name")
    if name not in _DEMOS:
        raise ConfigError("name", f"unknown demo {name!r}; choose from "
                                  f"{', '.join(DEMO_NAMES)}")
    print(f"demo {name}:")
    checks, detail, rows = _DEMOS[name](config)
    passed = all(c["passed"] for c in checks)
    print(f"demo {name}: {'PASS' if passed else 'FAIL'}")
    outputs = {"name": name, "passed": passed, "checks": checks, "detail": detail}
    return outputs, rows, EXIT_OK if passed else EXIT_INCONCLUSIVE


_RUNNERS = {"build": _run_build, "sign": _run_sign, "probe": _run_probe,
            "detect": _run_detect, "distance": _run_distance,
            "recover": _run_recover, "demo": _run_demo}


def run(config: ScenarioConfig, out_dir: str = ".",
        out_format: str = "both") -> ResultRecord:
    """Execute one scenario and persist its results."""
    if out_format not in ("json", "csv", "both"):
        raise ConfigError("format", f"must be json, csv, or both, got {out_format!r}")
    os.makedirs(out_dir, exist_ok=True)
    started = time.perf_counter()
    outputs, rows, code = _RUNNERS[config.kind](config, out_dir)
    elapsed = time.perf_counter() - started
    record = ResultRecord(scenario=config.data,
                          input_hash=canonical_hash(
                              {"scenario": config.data, "seed": config.seed}),
                          outputs=outputs, wall_clock_seconds=elapsed,
                          exit_code=code)
    if out_format in ("json", "both"):
        with open(os.path.join(out_dir, "result.json"), "w", encoding="utf-8") as fh:
            json.dump(record.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    if rows is not None and out_format in ("csv", "both"):
        write_probe_csv(rows, os.path.join(out_dir, "evidence.csv"))
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="confspec",
        description="Spectral-geometry scenario runner: build Dirac operators, "
                    "probe symbols, decide conformal equivalence, and compute "
                    "spectral distances.")
    parser.add_argument("--config", metavar="PATH",
                        help="JSON scenario configuration")
    parser.add_argument("--demo", choices=DEMO_NAMES,
                        help="run a canned scenario instead of a config file")
    parser.add_argument("--out", metavar="DIR", default=".",
                        help="directory for result.json and evidence.csv")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config's random seed")
    parser.add_argument("--format", dest="out_format",
                        choices=("json", "csv", "both"), default="both",
                        help="which result files to write")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on a usage error, the code that means
        # inconclusive here; --help exits with 0
        return EXIT_OK if exc.code == 0 else EXIT_ERROR

    if (args.config is None) == (args.demo is None):
        print("error: exactly one of --config or --demo is required",
              file=sys.stderr)
        return EXIT_ERROR

    try:
        if args.demo is not None:
            data = {"scenario": "demo", "name": args.demo}
            base_dir = "."
        else:
            try:
                with open(args.config, encoding="utf-8") as fh:
                    data = json.load(fh)
            except OSError as exc:
                print(f"error: cannot read config: {exc}", file=sys.stderr)
                return EXIT_ERROR
            except json.JSONDecodeError as exc:
                print(f"error: config is not valid JSON (line {exc.lineno}, "
                      f"column {exc.colno}): {exc.msg}", file=sys.stderr)
                return EXIT_ERROR
            base_dir = os.path.dirname(os.path.abspath(args.config))
        config = parse_scenario(data, base_dir=base_dir, seed=args.seed)
        record = run(config, out_dir=args.out, out_format=args.out_format)
    except ConfigError as exc:
        print(f"config error - {exc}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR

    if config.kind == "detect":
        print(f"decision: {record.outputs['decision']}")
    elif config.kind == "distance":
        print(f"distance: {record.outputs['value']:.6f} "
              f"(certified: {record.outputs['certified']})")
    elif config.kind == "probe":
        print(f"converged: {record.outputs['converged']}, "
              f"residuals: {record.outputs['residuals']}")
    return record.exit_code


if __name__ == "__main__":
    sys.exit(main())
