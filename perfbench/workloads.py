"""Seeded scenario generators and answer checks, one per workload.

A workload turns a random stream into confspec scenario dicts, the JSON a
user would pass with ``confspec --config``, together with the exact answer
the result is checked against.  Generation runs outside the timed region:
the program only ever receives the scenario dict.  Grid sizes and probe
counts are fixed per workload; the seed only moves the geometry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``make(rng)`` returns ``(scenario, expected)``.  ``check(outputs,
    expected)`` returns None for a right answer and a reason otherwise.
    ``accuracy(outputs, expected)`` is the error of a right answer against
    the exact one, in a unit chosen per workload so that it hardly moves
    with the drawn inputs.  The end-to-end metric ``answer_error`` averages
    it over the first ``accuracy_ops`` operations of a run, a count fixed
    so that the figure depends on the seed and not on how fast ops ran.
    ``reference_parts`` names the parts of the benchmark's reference
    computation whose time scales this workload's op times: the ones that a
    slow phase of the host slows about as much as it slows the op.
    """

    name: str
    why: str
    make: Callable[[np.random.Generator], tuple[dict, dict]]
    check: Callable[[dict, dict], str | None]
    accuracy: Callable[[dict, dict], float]
    accuracy_ops: int
    reference_parts: tuple[str, ...] = ("loop", "eigh")


def _circle_record(n: int, v, band: int) -> dict:
    return {"dim": 1, "N": n, "period": TWO_PI,
            "background": {"kind": "circle", "length": TWO_PI},
            "band_limit": band, "v_samples": np.asarray(v, dtype=float).tolist()}


def _torus_record(n: int, modulus: float, v, band: int) -> dict:
    return {"dim": 2, "N": [n, n], "period": [TWO_PI, TWO_PI],
            "background": {"kind": "torus", "modulus": modulus},
            "band_limit": band, "v_samples": np.asarray(v, dtype=float).tolist()}


def _theta(n: int) -> np.ndarray:
    return TWO_PI * np.arange(n) / n


_BAND1_WAVES = ((1, 0), (0, 1), (1, 1), (1, -1))


def _band1_torus_factor(coef, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Samples and flat gradient norm of the real trigonometric polynomial
    coef[0] + sum a cos(k.x) + b sin(k.x) over the waves max|k_i| = 1."""
    x, y = np.meshgrid(_theta(n), _theta(n), indexing="ij")
    v = np.full((n, n), coef[0])
    gx, gy = np.zeros((n, n)), np.zeros((n, n))
    for i, (k1, k2) in enumerate(_BAND1_WAVES):
        phase = k1 * x + k2 * y
        a, b = coef[1 + 2 * i], coef[2 + 2 * i]
        v += a * np.cos(phase) + b * np.sin(phase)
        slope = b * np.cos(phase) - a * np.sin(phase)
        gx += k1 * slope
        gy += k2 * slope
    return v, np.hypot(gx, gy)


# --- answer checks -------------------------------------------------------

def pair_deviation(outputs: dict, xi, eta) -> float:
    """Largest cometric deviation between two probed directions, read from
    a detect result the way ``Verdict.pair_deviation`` reads it."""
    directions = [tuple(d) for d in outputs["cometric_directions"]]
    devs = np.asarray(outputs["cometric_deviations"], dtype=float)
    return float(np.max(devs[:, directions.index(xi), directions.index(eta)]))


def moduli_target(modulus: float) -> float:
    """Exact normalized-pairing gap between the square torus and modulus c
    at the directions (1,0) and (1,1)."""
    return abs(modulus / math.sqrt(1.0 + modulus ** 2) - 1.0 / math.sqrt(2.0))


def _check_moduli(outputs: dict, expected: dict) -> str | None:
    want = expected["decision"]
    got = (outputs["decision"], outputs["symbol_channel"], outputs["cometric_channel"])
    if got != (want, want, want):
        return f"decision/channels {got}, expected {want} on all three"
    deviation = pair_deviation(outputs, (1, 0), (1, 1))
    if abs(deviation - expected["pair_target"]) > 0.04:
        return (f"pair deviation {deviation:.5f}, expected "
                f"{expected['pair_target']:.5f} +/- 0.04")
    return None


def _accuracy_moduli(outputs: dict, expected: dict) -> float:
    # Absolute: the pairing is already normalized, and its error is nearly
    # flat in c_b (1.0e-5 to 1.2e-5 on 24x24) where the relative error is not.
    return abs(pair_deviation(outputs, (1, 0), (1, 1)) - expected["pair_target"])


def _check_conformal(outputs: dict, expected: dict) -> str | None:
    report = outputs["report"]
    if outputs["decision"] != expected["decision"]:
        return f"decision {outputs['decision']}, expected {expected['decision']}"
    if not report["max_top_residual"] < report["theta_vanish"]:
        return (f"max top residual {report['max_top_residual']:.3e} not below "
                f"theta_vanish {report['theta_vanish']}")
    return None


def _accuracy_conformal(outputs: dict, expected: dict) -> float:
    return float(outputs["report"]["max_top_residual"]) / expected["residual_scale"]


def _check_distance(outputs: dict, expected: dict) -> str | None:
    fraction = outputs["value"] / expected["exact"]
    if not expected["floor"] <= fraction <= 1.0:
        return (f"distance / exact = {fraction:.6f}, expected within "
                f"[{expected['floor']}, 1]")
    return None


def _accuracy_distance(outputs: dict, expected: dict) -> float:
    return 1.0 - outputs["value"] / expected["exact"]


# --- generators ----------------------------------------------------------

def torus_moduli(n: int, accuracy_ops: int, options: dict | None = None) -> Workload:
    def make(rng):
        modulus = float(rng.uniform(1.8, 2.5))
        zeros = np.zeros((n, n))
        scenario = {"scenario": "detect", "spin": ["periodic", "periodic"],
                    "metric_a": _torus_record(n, 1.0, zeros, 0),
                    "metric_b": _torus_record(n, modulus, zeros, 0), **(options or {})}
        return scenario, {"decision": "not_conformal",
                          "pair_target": moduli_target(modulus)}
    return Workload(
        name="torus-moduli",
        why=("flat square torus vs flat torus of modulus c_b in [1.8, 2.5]: the "
             "criterion-2 shape, 2x2-block-diagonal operators, eigh and probes dominate"),
        make=make, check=_check_moduli, accuracy=_accuracy_moduli,
        accuracy_ops=accuracy_ops,
        # The op is dense LAPACK/BLAS work on 1152 rows, which the host's slow
        # phase slows about 1.3x, as it does the eigh part; the loop part,
        # slowed 1.7x, over-corrects (run-to-run spread 0.13 with both parts,
        # 0.10 with eigh alone, over ten seeds).
        reference_parts=("eigh",))


def torus_conformal(n: int, accuracy_ops: int, options: dict | None = None) -> Workload:
    def make(rng):
        coef_a, coef_b = rng.uniform(-0.1, 0.1, size=(2, 1 + 2 * len(_BAND1_WAVES)))
        v_a, _ = _band1_torus_factor(coef_a, n)
        v_b, _ = _band1_torus_factor(coef_b, n)
        _, gap = _band1_torus_factor(coef_b - coef_a, n)
        scenario = {"scenario": "detect", "spin": ["antiperiodic", "antiperiodic"],
                    "metric_a": _torus_record(n, 1.0, v_a, 1),
                    "metric_b": _torus_record(n, 1.0, v_b, 1), **(options or {})}
        # The residual grows with the factor gradient gap max|grad(v_b - v_a)|;
        # dividing by it leaves the discretization error per unit of input.
        return scenario, {"decision": "conformal", "residual_scale": float(gap.max())}
    return Workload(
        name="torus-conformal",
        why=("two curved band-1 torus metrics: dense operators, so the dense build "
             "and dense eigh run and a flat-structure bypass must change nothing"),
        make=make, check=_check_conformal, accuracy=_accuracy_conformal,
        accuracy_ops=accuracy_ops)


def circle_distance(n: int, band: int, floor: float, accuracy_ops: int) -> Workload:
    def make(rng):
        v = float(rng.uniform(0.2, 0.8))
        scenario = {"scenario": "distance", "spin": "antiperiodic",
                    "metric": _circle_record(n, np.full(n, v), 0),
                    "x": 0.0, "y": math.pi, "band": band,
                    "seed": int(rng.integers(2 ** 31))}
        return scenario, {"exact": math.exp(v) * math.pi, "floor": floor}
    return Workload(
        name="circle-distance",
        why=("spectral distance across a constant-factor circle: the optimizer is "
             "the whole op, with no eigh and no probes"),
        make=make, check=_check_distance, accuracy=_accuracy_distance,
        accuracy_ops=accuracy_ops)


def circle_phase(n: int, accuracy_ops: int) -> Workload:
    def make(rng):
        theta = _theta(n)
        amplitude, shift = rng.uniform(0.2, 0.4), rng.uniform(0.0, TWO_PI)
        w_coef = rng.uniform(-0.5, 0.5, size=4)
        w = (w_coef[0] * np.cos(theta) + w_coef[1] * np.sin(theta)
             + w_coef[2] * np.cos(2 * theta) + w_coef[3] * np.sin(2 * theta))
        scenario = {"scenario": "detect", "spin": "antiperiodic",
                    "metric_a": _circle_record(n, np.zeros(n), 0),
                    "metric_b": _circle_record(n, amplitude * np.sin(theta + shift), 1),
                    "intertwiner": {"kind": "phase", "w_samples": w.tolist()}}
        return scenario, {"decision": "conformal", "residual_scale": 1.0}
    return Workload(
        name="circle-phase",
        why=("flat vs curved circle under a phase intertwiner: the only op on the "
             "extended-precision conjugation path and the rank-1 probe branch"),
        make=make, check=_check_conformal, accuracy=_accuracy_conformal,
        accuracy_ops=accuracy_ops)


def workloads(smoke: bool = False) -> dict[str, Workload]:
    """The four workloads at full size, or tiny for the smoke mode.

    On an 8x8 torus the cometric probes cannot meet the default 0.05
    convergence tolerance, so the smoke scenarios pass a looser one."""
    if smoke:
        coarse = {"probe_tolerance": 0.5}
        table = (torus_moduli(8, 2, coarse), torus_conformal(8, 2, coarse),
                 circle_distance(32, 4, 0.75, 2), circle_phase(32, 2))
    else:
        table = (torus_moduli(24, 4), torus_conformal(16, 20),
                 circle_distance(128, 16, 0.93, 3), circle_phase(256, 3))
    return {w.name: w for w in table}
