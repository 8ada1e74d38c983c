"""Serialization: metric records, operator dumps, evidence tables, hashes.

Metric records are UTF-8 JSON with a fixed field set; operator dumps are
NumPy archives carrying the matrix with a small header.  Both reload to
reconstructions whose arrays match the dumped bytes exactly, so a dump,
load, dump cycle is a fixed point.
"""

from __future__ import annotations

import csv
import hashlib
import json

import numpy as np

from .geometry import Grid, Metric, make_circle_metric, make_torus_metric
from .operators import OperatorMatrix, SpinStructure

METRIC_FIELDS = ("dim", "N", "period", "background", "band_limit", "v_samples")
CSV_COLUMNS = ("point_index", "dir_x", "dir_y", "frequency", "residual")


class ConfigError(ValueError):
    """Invalid configuration or record content, naming the offending field."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


def metric_to_dict(metric: Metric) -> dict:
    """JSON-ready metric record with the fixed field set."""
    if metric.dim == 1:
        n = metric.grid.shape[0]
        period = metric.grid.periods[0]
        background = {"kind": "circle", "length": metric.background.length}
        v = metric.factor.samples.tolist()
    else:
        n = list(metric.grid.shape)
        period = list(metric.grid.periods)
        background = {"kind": "torus", "modulus": metric.background.modulus}
        v = metric.factor.samples.tolist()
    return {"dim": metric.dim, "N": n, "period": period,
            "background": background, "band_limit": metric.factor.band_limit,
            "v_samples": v}


def metric_from_dict(record: dict, field: str = "metric") -> Metric:
    """Rebuild a metric from its record, validating every field."""
    if not isinstance(record, dict):
        raise ConfigError(field, "expected a metric record object")
    for name in METRIC_FIELDS:
        if name not in record:
            raise ConfigError(f"{field}.{name}", "missing required field")
    dim = record["dim"]
    if dim not in (1, 2):
        raise ConfigError(f"{field}.dim", f"must be 1 or 2, got {dim!r}")
    n = record["N"]
    shape = tuple(n) if isinstance(n, (list, tuple)) else (n,) * dim
    if len(shape) != dim:
        raise ConfigError(f"{field}.N", f"expected {dim} grid sizes, got {n!r}")
    for size in shape:
        if not isinstance(size, int) or size <= 0 or size % 2:
            raise ConfigError(f"{field}.N", f"grid sizes must be positive even integers, got {n!r}")
    background = record["background"]
    if not isinstance(background, dict) or "kind" not in background:
        raise ConfigError(f"{field}.background", "expected an object with a 'kind'")
    band = record["band_limit"]
    if not isinstance(band, int) or band < 0:
        raise ConfigError(f"{field}.band_limit", f"must be a nonnegative integer, got {band!r}")
    v = record["v_samples"]
    if v is None:
        v = np.zeros(shape)
    v = np.asarray(v, dtype=float)
    if v.shape != shape:
        raise ConfigError(f"{field}.v_samples",
                          f"shape {v.shape} does not match N = {shape}")
    kind = background["kind"]
    try:
        if kind == "circle":
            if dim != 1:
                raise ConfigError(f"{field}.background.kind", "circle records must have dim 1")
            metric = make_circle_metric(float(background.get("length", 2 * np.pi)), v, band)
        elif kind == "torus":
            if dim != 2:
                raise ConfigError(f"{field}.background.kind", "torus records must have dim 2")
            metric = make_torus_metric(float(background.get("modulus", 1.0)), v, band)
        else:
            raise ConfigError(f"{field}.background.kind", f"unknown background {kind!r}")
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(field, str(exc)) from exc
    period = record["period"]
    periods = tuple(period) if isinstance(period, (list, tuple)) else (float(period),) * dim
    if len(periods) != dim or any(abs(p - q) > 1e-12 for p, q in
                                  zip(periods, metric.grid.periods)):
        raise ConfigError(f"{field}.period",
                          f"expected coordinate periods {metric.grid.periods}, got {period!r}")
    return metric


def save_metric(metric: Metric, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(metric_to_dict(metric), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_metric(path) -> Metric:
    with open(path, encoding="utf-8") as fh:
        return metric_from_dict(json.load(fh), field=str(path))


def save_operator(op: OperatorMatrix, path) -> None:
    """Dump an operator matrix with its header to a NumPy archive."""
    spin = np.array(list(op.spin.parities) if op.spin is not None else [], dtype=str)
    np.savez(path, matrix=op.matrix, N=np.array(op.grid.shape),
             periods=np.array(op.grid.periods), rank=op.rank,
             hermitian=op.hermitian, spin=spin, basis=np.array("fourier"))


def load_operator(path) -> OperatorMatrix:
    """Reload an operator dump.

    Metric provenance is not serialized, so loaded operators never take the
    analytic commutator or factor-recovery fast paths.
    """
    with np.load(path) as data:
        if str(data["basis"]) != "fourier":
            raise ConfigError("basis", f"unsupported operator basis {data['basis']!r}")
        grid = Grid(shape=tuple(int(n) for n in data["N"]),
                    periods=tuple(float(p) for p in data["periods"]))
        spin_flags = tuple(str(s) for s in data["spin"]) if data["spin"].size else None
        return OperatorMatrix(matrix=data["matrix"], grid=grid,
                              rank=int(data["rank"]), hermitian=bool(data["hermitian"]),
                              spin=SpinStructure(spin_flags) if spin_flags else None)


def _direction_columns(direction) -> tuple[int, int]:
    dx = int(direction[0])
    dy = int(direction[1]) if len(direction) > 1 else 0
    return dx, dy


def write_probe_csv(rows, path) -> None:
    """Evidence table with the fixed column set.

    ``rows`` holds anything with point_index, direction, frequency, and
    residual attributes (TestReport rows), written one probe per line.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            dx, dy = _direction_columns(row.direction)
            writer.writerow([row.point_index, dx, dy, row.frequency,
                             repr(row.residual)])


def estimate_to_dict(estimate) -> dict:
    """SymbolEstimate as JSON-ready data."""
    return {"sigma_real": estimate.sigma.real.tolist(),
            "sigma_imag": estimate.sigma.imag.tolist(),
            "frequencies": list(estimate.frequencies),
            "residuals": list(estimate.residuals),
            "truncation_leaks": list(estimate.truncation_leaks),
            "converged": estimate.converged,
            "base_point": list(estimate.base_point),
            "direction": list(estimate.direction)}


def report_to_dict(report) -> dict:
    """TestReport as JSON-ready data."""
    return {"decision": report.decision,
            "theta_vanish": report.theta_vanish,
            "theta_present": report.theta_present,
            "max_top_residual": report.max_top_residual,
            "rows": [{"point_index": r.point_index, "point": list(r.point),
                      "direction": list(r.direction), "frequency": r.frequency,
                      "residual": r.residual, "leak": r.leak}
                     for r in report.rows]}


def verdict_to_dict(verdict) -> dict:
    deviations = verdict.cometric_deviations
    return {"decision": verdict.decision,
            "symbol_channel": verdict.symbol_channel,
            "cometric_channel": verdict.cometric_channel,
            "max_anticommutator_deviation": verdict.max_anticommutator_deviation,
            "points": [list(p) for p in verdict.points],
            "cometric_directions": [list(d) for d in verdict.cometric_directions],
            "cometric_deviations": None if deviations is None else deviations.tolist(),
            "elapsed_seconds": verdict.elapsed_seconds,
            "report": report_to_dict(verdict.report)}


def distance_to_dict(estimate) -> dict:
    return {"value": estimate.value, "x": estimate.x, "y": estimate.y,
            "constraint_slack": estimate.constraint_slack,
            "certified": estimate.certified,
            "duality_gap": estimate.duality_gap,
            "coefficients": estimate.coefficients.tolist()}


def canonical_hash(obj) -> str:
    """SHA-256 of the canonical JSON encoding; stable across re-runs."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
