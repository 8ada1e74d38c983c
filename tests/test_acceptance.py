"""Acceptance gate: one test per criterion, each printing PASS/FAIL with the
measured values.  Criteria 6 and 9 contain clauses that honest numerics cannot
meet on this discretization; those tests assert the stated thresholds anyway
and are expected to fail, with the analysis recorded alongside the code.
"""

import time

import numpy as np
import pytest

from confspec import (
    CONFORMAL,
    NOT_CONFORMAL,
    Grid,
    OperatorMatrix,
    SpinStructure,
    build_dirac,
    clifford,
    cometric_pair,
    connes_distance,
    detect_conformal,
    extract_multiplier,
    kernel_rank,
    make_circle_metric,
    make_torus_metric,
    multiplication_operator,
    probe_symbol,
    recover_conformal_factor,
    sign_of,
    spectral_projector,
    standard_probe,
    vanishing_symbol_test,
)

from conftest import circle_theta

TWO_PI = 2.0 * np.pi


def _line(num: int, ok: bool, detail: str) -> bool:
    print(f"acceptance criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def _circle_pair(n: int):
    theta = circle_theta(n)
    spin = SpinStructure(("antiperiodic",))
    flat = build_dirac(make_circle_metric(TWO_PI, np.zeros(n), 0), spin)
    curved = build_dirac(make_circle_metric(TWO_PI, 0.3 * np.sin(theta), 1), spin)
    return flat, curved


def test_criterion_1_forward_detection():
    started = time.perf_counter()
    flat, curved = _circle_pair(64)
    difference = OperatorMatrix(
        matrix=sign_of(curved).matrix - sign_of(flat).matrix,
        grid=flat.grid, rank=1, hermitian=True)
    points = [(t,) for t in np.linspace(0.0, TWO_PI, 8, endpoint=False)]
    probes = [standard_probe((64,), p, (d,)) for p in points for d in (1, -1)]
    report = vanishing_symbol_test(difference, probes)
    elapsed = time.perf_counter() - started
    top = max(r.frequency for r in report.rows)
    worst = report.max_top_residual
    ok = (report.decision == "vanishing" and top == 16 and worst < 0.05
          and elapsed < 10.0)
    assert _line(1, ok, f"decision {report.decision}, max m={top} residual "
                        f"{worst:.3e} (< 0.05), {elapsed:.1f}s (< 10s)")


def test_criterion_2_converse_witness():
    started = time.perf_counter()
    spin = SpinStructure(("periodic", "periodic"))
    dirac_a = build_dirac(make_torus_metric(1.0, np.zeros((32, 32)), 0), spin)
    dirac_b = build_dirac(make_torus_metric(2.0, np.zeros((32, 32)), 0), spin)
    assert dirac_a.size == 2048
    verdict = detect_conformal(dirac_a, dirac_b)
    elapsed = time.perf_counter() - started
    deviation = verdict.pair_deviation((1, 0), (1, 1))
    oracle = abs(2.0 / np.sqrt(5.0) - 1.0 / np.sqrt(2.0))
    ok = (verdict.decision == NOT_CONFORMAL
          and abs(deviation - oracle) <= 0.04
          and elapsed < 60.0)
    assert _line(2, ok, f"decision {verdict.decision}, deviation at (1,1) "
                        f"{deviation:.4f} vs {oracle:.4f} +- 0.04, "
                        f"{elapsed:.1f}s (< 60s)")


def test_criterion_3_factor_recovery_vs_verdict():
    flat, curved = _circle_pair(128)
    theta = circle_theta(128)
    worst = 0.0
    for i in range(8):
        point = (theta[8 + 16 * i],)
        recovered = recover_conformal_factor(curved, point)
        worst = max(worst, abs(recovered - 0.3 * np.sin(point[0])))
    verdict = detect_conformal(flat, curved)
    ok = worst <= 0.02 * 0.3 and verdict.decision == CONFORMAL
    assert _line(3, ok, f"max factor error {worst:.2e} (<= 6.0e-03 = 2% of 0.3) "
                        f"at 8 points, verdict {verdict.decision}")


def test_criterion_4_projector_identity():
    spin = SpinStructure(("periodic",))
    dirac = build_dirac(make_circle_metric(TWO_PI, np.zeros(64), 0), spin)
    rng = np.random.default_rng(41)
    candidates = [dirac]
    for _ in range(10):
        a = rng.normal(size=(24, 24)) + 1j * rng.normal(size=(24, 24))
        candidates.append(OperatorMatrix(matrix=(a + a.conj().T) / 2.0,
                                         grid=Grid((24,), (TWO_PI,)),
                                         rank=1, hermitian=True))
    worst = 0.0
    for op in candidates:
        plus = spectral_projector(op, which="plus").matrix
        zero = spectral_projector(op, which="zero").matrix
        gap = np.max(np.abs(plus - 0.5 * (sign_of(op).matrix
                                          + np.eye(op.size) - zero)))
        worst = max(worst, gap)
    ok = worst <= 1e-12 and kernel_rank(dirac) == 1
    assert _line(4, ok, f"max identity gap {worst:.2e} (<= 1e-12), "
                        f"kernel rank {kernel_rank(dirac)} (= 1)")


def test_criterion_5_symbol_exactness():
    flat, _ = _circle_pair(64)
    signed = sign_of(flat)
    worst_sigma = 0.0
    exact = True
    for direction, expected in ((1, 1.0), (-1, -1.0)):
        estimate = probe_symbol(signed,
                                standard_probe((64,), (0.0,), (direction,)))
        worst_sigma = max(worst_sigma, abs(estimate.sigma[0, 0] - expected))
        for m, residual in zip(estimate.frequencies, estimate.residuals):
            if m > 8:  # past the bump band
                exact = exact and (residual == 0.0)
    ok = exact and worst_sigma <= 5e-15
    assert _line(5, ok, f"sigma error {worst_sigma:.1e} (machine precision), "
                        f"residuals beyond the band exactly zero: {exact}")


def test_criterion_6_connes_distance():
    started = time.perf_counter()
    spin = SpinStructure(("antiperiodic",))
    flat = build_dirac(make_circle_metric(TWO_PI, np.zeros(128), 0), spin)
    lifted = build_dirac(make_circle_metric(TWO_PI, np.full(128, 0.5), 0), spin)
    antipodal = connes_distance(flat, 0.0, np.pi, band=16)
    scaled = connes_distance(lifted, 0.0, np.pi, band=16)
    elapsed = time.perf_counter() - started
    ratio = scaled.value / antipodal.value
    in_window = 0.95 * np.pi <= antipodal.value <= 1.05 * np.pi
    ok_ratio = abs(ratio - np.exp(0.5)) <= 0.05 * np.exp(0.5)
    ok = in_window and ok_ratio and antipodal.certified and elapsed < 30.0
    assert _line(6, ok, f"d(0,pi) = {antipodal.value / np.pi:.5f}*pi "
                        f"(window [0.95, 1.05]*pi), scaling ratio {ratio:.5f} "
                        f"vs e^0.5 = {np.exp(0.5):.5f}, {elapsed:.1f}s (< 30s)")


def test_criterion_7_multiplier_extraction():
    theta = circle_theta(64)
    grid = Grid((64,), (TWO_PI,))
    character = multiplication_operator(np.exp(1j * theta), grid)
    accepted = extract_multiplier(character)
    modes = np.fft.fftfreq(64, d=1.0 / 64.0)
    dft = OperatorMatrix(matrix=np.exp(1j * np.outer(modes, theta)) / 8.0,
                         grid=grid, rank=1)
    rejected = extract_multiplier(dft)
    ok = accepted.residual <= 1e-12 and rejected.residual >= 0.5
    assert _line(7, ok, f"character residual {accepted.residual:.2e} (<= 1e-12), "
                        f"dft residual {rejected.residual:.3f} (>= 0.5)")


def test_criterion_8_clifford_relation():
    theta = circle_theta(64)
    xs = circle_theta(16)
    v2 = 0.2 * np.cos(xs)[:, None] * np.ones((1, 16))
    metrics = [
        make_circle_metric(TWO_PI, np.zeros(64), 0),
        make_circle_metric(TWO_PI, 0.3 * np.sin(theta), 1),
        make_torus_metric(2.0, np.zeros((16, 16)), 0),
        make_torus_metric(1.0, v2, 1),
    ]
    rng = np.random.default_rng(97)
    worst = 0.0
    for metric in metrics:
        points = metric.grid.points()
        for _ in range(16):
            xi = tuple(rng.normal(size=metric.dim))
            eta = tuple(rng.normal(size=metric.dim))
            for x in points:
                cx, ce = clifford(metric, x, xi), clifford(metric, x, eta)
                anti = (cx @ ce + ce @ cx
                        + 2.0 * cometric_pair(metric, x, xi, eta)
                        * np.eye(cx.shape[0]))
                worst = max(worst, float(np.max(np.abs(anti))))
    ok = worst <= 1e-12
    assert _line(8, ok, f"max Clifford relation defect {worst:.2e} (<= 1e-12) "
                        f"over 4 metrics x 16 covector pairs x all grid points")


def test_criterion_9_phase_conjugation():
    flat, curved = _circle_pair(64)
    theta = circle_theta(64)
    unitary = multiplication_operator(np.exp(1j * np.sin(theta)), flat.grid)
    plain = detect_conformal(flat, curved)
    conjugated = detect_conformal(flat, curved, unitary)
    tops_plain = np.array(plain.report.top_residuals)
    tops_phase = np.array(conjugated.report.top_residuals)
    ratio = float(np.max(tops_phase / np.maximum(tops_plain, 1e-300)))
    ok = (plain.decision == CONFORMAL and conjugated.decision == CONFORMAL
          and ratio <= 2.0)
    assert _line(9, ok, f"decisions {plain.decision}/{conjugated.decision}, "
                        f"top residuals {tops_plain.max():.2e} -> "
                        f"{tops_phase.max():.2e}, worst ratio {ratio:.3g} (<= 2)")
