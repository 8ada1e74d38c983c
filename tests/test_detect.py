"""Conformal-class detection, cometric recovery, distances, multiplier extraction."""

import numpy as np
import pytest
from scipy.optimize import linprog

import confspec.detect
from confspec import (
    CONFORMAL,
    DetectConfig,
    Grid,
    NOT_CONFORMAL,
    OperatorMatrix,
    SpinStructure,
    build_dirac,
    connes_distance,
    detect_conformal,
    extract_multiplier,
    make_circle_metric,
    multiplication_operator,
    recover_conformal_factor,
    recover_normalized_cometric,
)

from conftest import circle_theta

TWO_PI = 2.0 * np.pi


# -------------------------------------------------------------- the main verdict

def test_conformal_pair_is_detected(dirac_flat_s1, dirac_curved_s1):
    verdict = detect_conformal(dirac_flat_s1, dirac_curved_s1)
    assert verdict.decision == CONFORMAL
    assert verdict.symbol_channel == CONFORMAL
    assert verdict.cometric_channel == CONFORMAL
    assert verdict.report.max_top_residual < 0.05
    assert verdict.elapsed_seconds > 0.0


def test_identical_operators_give_zero_residuals(dirac_curved_s1):
    verdict = detect_conformal(dirac_curved_s1, dirac_curved_s1)
    assert verdict.decision == CONFORMAL
    assert verdict.report.max_top_residual == 0.0


def test_moduli_pair_is_distinguished(dirac_t2_c1, dirac_t2_c2):
    verdict = detect_conformal(dirac_t2_c1, dirac_t2_c2)
    assert verdict.decision == NOT_CONFORMAL
    assert verdict.symbol_channel == NOT_CONFORMAL
    assert verdict.cometric_channel == NOT_CONFORMAL
    # the pairing of dx with dx+dy separates the moduli: 1/sqrt(2) vs 2/sqrt(5)
    deviation = verdict.pair_deviation((1, 0), (1, 1))
    assert deviation == pytest.approx(0.1873204098133684, abs=0.04)
    # the strongest separation sits at the antidiagonal pairing
    assert verdict.pair_deviation((1, 1), (1, -1)) > deviation


def test_phase_conjugation_keeps_the_verdict(dirac_flat_s1, dirac_curved_s1,
                                             flat_circle):
    theta = circle_theta(64)
    unitary = multiplication_operator(np.exp(1j * 0.7 * np.sin(theta)),
                                      flat_circle.grid)
    verdict = detect_conformal(dirac_flat_s1, dirac_curved_s1, unitary)
    assert verdict.decision == CONFORMAL
    assert verdict.report.max_top_residual < 1e-3


def test_non_unitary_intertwiner_rejected(dirac_flat_s1, dirac_curved_s1,
                                          flat_circle):
    bad = multiplication_operator(np.full(64, 2.0), flat_circle.grid)
    with pytest.raises(ValueError, match="unitary"):
        detect_conformal(dirac_flat_s1, dirac_curved_s1, bad)


def test_random_conformal_factors_are_sound(antiperiodic, rng):
    # ten random band-limited factors, all conformally flat: every verdict
    # must come back conformal
    theta = circle_theta(64)
    flat = build_dirac(make_circle_metric(TWO_PI, np.zeros(64), 0), antiperiodic)
    for _ in range(10):
        coeffs = rng.normal(size=3) * [0.2, 0.1, 0.05]
        v = (coeffs[0] * np.sin(theta) + coeffs[1] * np.cos(2 * theta)
             + coeffs[2] * np.sin(3 * theta))
        v = 0.5 * v / max(1.0, np.max(np.abs(v)))
        curved = build_dirac(make_circle_metric(TWO_PI, v, 3), antiperiodic)
        verdict = detect_conformal(flat, curved)
        assert verdict.decision == CONFORMAL, \
            f"false rejection at coeffs {coeffs}"


def test_detect_config_validation():
    with pytest.raises(ValueError):
        DetectConfig(points=4)
    with pytest.raises(ValueError):
        DetectConfig(theta_vanish=0.3, theta_present=0.2)
    with pytest.raises(ValueError):
        DetectConfig(cometric_agree=0.2, cometric_distinct=0.1)


def test_mismatched_grids_rejected(dirac_flat_s1, dirac_t2_c1):
    with pytest.raises(ValueError):
        detect_conformal(dirac_flat_s1, dirac_t2_c1)


# ---------------------------------------------------------------- cometric Ghat

def test_cometric_recovery_square_torus(sign_t2_c1):
    estimate = recover_normalized_cometric(
        sign_t2_c1, (0.0, 0.0), ((1, 0), (0, 1), (1, 1), (1, -1)))
    matrix = estimate.matrix
    assert np.allclose(matrix, matrix.T, atol=1e-12)
    assert np.allclose(np.diag(matrix), 1.0, atol=1e-12)
    assert matrix[0, 2] == pytest.approx(1.0 / np.sqrt(2.0), abs=5e-4)
    assert abs(matrix[0, 1]) < 5e-4


def test_cometric_recovery_separates_moduli(sign_t2_c2):
    estimate = recover_normalized_cometric(
        sign_t2_c2, (0.0, 0.0), ((1, 0), (0, 1), (1, 1), (1, -1)))
    assert estimate.matrix[0, 2] == pytest.approx(2.0 / np.sqrt(5.0), abs=5e-4)
    assert estimate.off_scalar_residual < 0.05


# ------------------------------------------------------------ factor recovery

def test_recover_flat_factor(dirac_flat_s1):
    assert abs(recover_conformal_factor(dirac_flat_s1, (0.0,))) <= 1e-6


def test_recover_constant_factor(antiperiodic):
    metric = make_circle_metric(TWO_PI, np.full(64, 0.5), 0)
    dirac = build_dirac(metric, antiperiodic)
    recovered = recover_conformal_factor(dirac, (np.pi / 2,))
    assert recovered == pytest.approx(0.5, abs=1e-6)


def test_recover_curved_factor(dirac_curved_s1_128):
    theta = circle_theta(128)
    for i in range(8):
        point = (theta[8 + 16 * i],)
        recovered = recover_conformal_factor(dirac_curved_s1_128, point)
        true_value = 0.3 * np.sin(point[0])
        assert abs(recovered - true_value) <= 0.006, \
            f"factor off at {point[0]:.3f}: {recovered:.5f} vs {true_value:.5f}"


def test_recover_requires_provenance(flat_circle):
    bare = multiplication_operator(np.ones(64), flat_circle.grid)
    with pytest.raises(ValueError):
        recover_conformal_factor(bare, (0.0,))


# ------------------------------------------------------------------- distances

def test_distance_quarter_circle(dirac_flat_s1):
    estimate = connes_distance(dirac_flat_s1, 0.0, np.pi / 2, band=8)
    assert estimate.certified
    assert estimate.value == pytest.approx(np.pi / 2, rel=0.05)
    assert estimate.constraint_slack <= 1.0 + 1e-6


def test_distance_is_deterministic(dirac_flat_s1):
    first = connes_distance(dirac_flat_s1, 0.0, np.pi / 2, band=8)
    second = connes_distance(dirac_flat_s1, 0.0, np.pi / 2, band=8)
    assert first.value == second.value


def test_distance_scales_with_constant_factor(dirac_flat_s1, antiperiodic):
    lifted = build_dirac(make_circle_metric(TWO_PI, np.full(64, 0.4), 0),
                         antiperiodic)
    base = connes_distance(dirac_flat_s1, 0.0, np.pi / 2, band=8)
    moved = connes_distance(lifted, 0.0, np.pi / 2, band=8)
    assert moved.value / base.value == pytest.approx(np.exp(0.4), rel=0.05)


def test_distance_grows_with_the_factor(dirac_flat_s1, antiperiodic):
    theta = circle_theta(64)
    bumped = build_dirac(
        make_circle_metric(TWO_PI, 0.3 + 0.2 * np.cos(theta), 1), antiperiodic)
    base = connes_distance(dirac_flat_s1, 0.0, np.pi / 2, band=8)
    larger = connes_distance(bumped, 0.0, np.pi / 2, band=8)
    assert base.value <= larger.value + 1e-9


def test_distance_rejects_equal_endpoints(dirac_flat_s1):
    with pytest.raises(ValueError):
        connes_distance(dirac_flat_s1, 1.0, 1.0)


def _highs_distance(metric, x, y, band):
    """The band-limited distance LP on a circle of length 2 pi, solved by HiGHS."""
    theta = metric.grid.axis_points(0)
    ks = np.arange(1, band + 1)
    derivative = np.hstack([-ks * np.sin(np.outer(theta, ks)),
                            ks * np.cos(np.outer(theta, ks))])
    w = np.exp(-metric.factor.samples)[:, None] * derivative
    c = np.concatenate([np.cos(ks * x) - np.cos(ks * y), np.sin(ks * x) - np.sin(ks * y)])
    result = linprog(-c, A_ub=np.vstack([w, -w]), b_ub=np.ones(2 * len(theta)),
                     bounds=(None, None), method="highs")
    assert result.status == 0
    return -result.fun


def _profile_circle(n, profile):
    theta = circle_theta(n)
    v = {"flat": np.zeros(n), "constant": np.full(n, 0.5),
         "curved": 0.3 + 0.2 * np.cos(theta) + 0.1 * np.sin(2 * theta)}[profile]
    return make_circle_metric(TWO_PI, v, 2 if profile == "curved" else 0)


# n = 256, band 32 at (0.3, 2.0) is the hardest case: about 1,430 steps,
# through active bases with condition numbers up to about 1e13.
@pytest.mark.parametrize("endpoints", [(0.0, np.pi), (0.3, 2.0)])
@pytest.mark.parametrize("divisor", [16, 8, 4])
@pytest.mark.parametrize("profile", ["flat", "constant", "curved"])
@pytest.mark.parametrize("n", [64, 128, 256])
def test_distance_matches_the_highs_oracle(n, profile, divisor, endpoints, antiperiodic):
    metric = _profile_circle(n, profile)
    estimate = connes_distance(build_dirac(metric, antiperiodic), *endpoints,
                               band=n // divisor)
    oracle = _highs_distance(metric, *endpoints, n // divisor)
    assert estimate.value == pytest.approx(oracle, rel=1e-7)
    assert estimate.certified
    assert estimate.duality_gap <= 1e-12 * estimate.value
    assert estimate.constraint_slack <= 1 + 1e-9


def test_distance_is_uncertified_at_the_step_cap(antiperiodic, monkeypatch):
    dirac = build_dirac(_profile_circle(128, "flat"), antiperiodic)
    optimum = connes_distance(dirac, 0.0, np.pi, band=16)
    monkeypatch.setattr(confspec.detect, "_MAX_STEPS", 1)
    capped = connes_distance(dirac, 0.0, np.pi, band=16)
    assert not capped.certified
    assert capped.value < optimum.value
    assert capped.constraint_slack <= 1 + 1e-9


@pytest.mark.parametrize("endpoints", [(0.0, np.pi), (0.3, 2.0)])
def test_blands_rule_reaches_the_same_optimum(endpoints, antiperiodic, monkeypatch):
    dirac = build_dirac(_profile_circle(64, "curved"), antiperiodic)
    dantzig = connes_distance(dirac, *endpoints, band=8)
    monkeypatch.setattr(confspec.detect, "_BLAND_AFTER", 0)
    bland = connes_distance(dirac, *endpoints, band=8)
    assert bland.certified
    assert bland.value == pytest.approx(dantzig.value, rel=1e-12)


# ------------------------------------------------------------------ multipliers

def test_extract_character_multiplier(flat_circle):
    theta = circle_theta(64)
    op = multiplication_operator(np.exp(1j * theta), flat_circle.grid)
    extract = extract_multiplier(op)
    assert extract.residual <= 1e-12
    assert np.max(np.abs(extract.psi[:, 0, 0] - np.exp(1j * theta))) <= 1e-12
    rebuilt = extract.reassemble()
    assert np.max(np.abs(rebuilt.matrix - op.matrix)) <= 1e-12


def test_extract_matrix_multiplier_on_a_torus(rng):
    grid = Grid((8, 6), (TWO_PI, TWO_PI))
    field = rng.normal(size=(48, 2, 2)) + 1j * rng.normal(size=(48, 2, 2))
    op = multiplication_operator(field, grid, rank=2)
    extract = extract_multiplier(op)
    assert extract.residual <= 1e-12
    assert np.max(np.abs(extract.psi - field)) <= 1e-12
    rebuilt = extract.reassemble()
    assert np.max(np.abs(rebuilt.matrix - op.matrix)) <= 1e-12


def test_extract_identity_multiplier(flat_circle):
    op = OperatorMatrix(matrix=np.eye(64, dtype=complex), grid=flat_circle.grid,
                        rank=1, hermitian=True)
    extract = extract_multiplier(op)
    assert extract.residual == 0.0
    assert np.max(np.abs(extract.psi - 1.0)) <= 1e-12


def test_dft_is_not_a_multiplier(flat_circle):
    theta = circle_theta(64)
    modes = np.fft.fftfreq(64, d=1.0 / 64.0)
    dft = np.exp(1j * np.outer(modes, theta)) / 8.0
    extract = extract_multiplier(OperatorMatrix(matrix=dft,
                                                grid=flat_circle.grid, rank=1))
    assert extract.residual >= 0.5
    assert extract.residual == pytest.approx(2.0, rel=1e-6)


# ------------------------------------------- mode-block signs in detection

def _eigh_sign(op, tol=None):
    """sign(op) from the dense (or mode-block) reference eigendecomposition."""
    from confspec import eigendecompose
    decomp = eigendecompose(op)
    lam = decomp.eigenvalues
    tau = 1e-8 * decomp.scale if tol is None else tol
    weights = np.where(np.abs(lam) <= tau, 0.0, np.sign(lam))
    return OperatorMatrix(matrix=decomp.apply_function(weights), grid=op.grid,
                          rank=op.rank, hermitian=True)


def _dense_channels(dirac_a, dirac_b, config, intertwiner=None, dtype=np.complex128,
                    sign=None):
    """Both channels of detect_conformal on dense n x n signs: the
    difference OperatorMatrix(sign(b) - U sign(a) U*) through the same
    probes, and the cometric channel one point at a time.  ``sign`` is
    ``sign_of`` unless given (``_eigh_sign`` for the eigh reference).
    U sign(a) U* is formed in ``dtype`` and rounded back to complex128."""
    from confspec import (INCONCLUSIVE, NON_VANISHING, VANISHING,
                          ProbeConvergenceError, sign_of, standard_probe,
                          vanishing_symbol_test)
    from confspec.detect import _base_points, _detection_directions
    sign = sign_of if sign is None else sign
    grid, rank = dirac_a.grid, dirac_a.rank
    sign_b = sign(dirac_b, tol=config.tau)
    a = sign(dirac_a, tol=config.tau).matrix
    if intertwiner is not None:
        um = intertwiner.matrix.astype(dtype)
        conjugated = (um @ a.astype(dtype) @ um.conj().T).astype(np.complex128)
        a = 0.5 * (conjugated + conjugated.conj().T)
    sign_a = OperatorMatrix(matrix=a, grid=grid, rank=rank, hermitian=True)
    difference = OperatorMatrix(matrix=sign_b.matrix - a, grid=grid, rank=rank,
                                hermitian=True)
    points = _base_points(grid, config.points)
    probes = [standard_probe(grid.shape, pt, d, band=config.band, schedule=config.schedule,
                             tolerance=config.probe_tolerance)
              for pt in points for d in _detection_directions(grid.dim, config.rays)]
    report = vanishing_symbol_test(difference, probes, config.theta_vanish,
                                   config.theta_present)
    directions = ((1,),) if grid.dim == 1 else ((1, 0), (0, 1), (1, 1), (1, -1))
    try:
        deviations = np.stack([
            np.abs(recover_normalized_cometric(
                sign_a, pt, directions, band=config.cometric_band,
                schedule=config.schedule, tolerance=config.probe_tolerance).matrix
                   - recover_normalized_cometric(
                sign_b, pt, directions, band=config.cometric_band,
                schedule=config.schedule, tolerance=config.probe_tolerance).matrix)
            for pt in points])
        worst = float(np.max(deviations))
        cometric = (CONFORMAL if worst < config.cometric_agree else
                    NOT_CONFORMAL if worst > config.cometric_distinct else INCONCLUSIVE)
    except ProbeConvergenceError:
        deviations, cometric = None, INCONCLUSIVE
    symbol = {VANISHING: CONFORMAL, NON_VANISHING: NOT_CONFORMAL,
              INCONCLUSIVE: INCONCLUSIVE}[report.decision]
    return report, deviations, symbol, cometric


def _rows(report):
    return np.array([(r.residual, r.leak) for r in report.rows])


def _assert_same_verdict(verdict, report, deviations, symbol, cometric):
    assert verdict.report.decision == report.decision
    assert verdict.symbol_channel == symbol
    assert verdict.cometric_channel == cometric
    assert verdict.decision == (symbol if symbol == cometric else "inconclusive")
    assert [(r.point, r.direction, r.frequency) for r in verdict.report.rows] == \
        [(r.point, r.direction, r.frequency) for r in report.rows]
    assert (verdict.cometric_deviations is None) == (deviations is None)


@pytest.mark.parametrize("n", [8, 12])
@pytest.mark.parametrize("modulus", [1.0, 2.0])
@pytest.mark.parametrize("parities", [("periodic", "periodic"),
                                      ("antiperiodic", "antiperiodic"),
                                      ("antiperiodic", "periodic")])
def test_flat_torus_blocks_match_the_dense_reference(n, modulus, parities):
    from confspec import make_torus_metric
    spin = SpinStructure(parities)
    dirac_a = build_dirac(make_torus_metric(1.0, np.zeros((n, n)), 0), spin)
    dirac_b = build_dirac(make_torus_metric(modulus, np.zeros((n, n)), 0), spin)
    # the looser probe tolerance lets the cometric probes converge on
    # these small grids, so both channels are compared
    for config in (DetectConfig(), DetectConfig(probe_tolerance=0.5)):
        verdict = detect_conformal(dirac_a, dirac_b, config=config)
        report, deviations, symbol, cometric = _dense_channels(dirac_a, dirac_b, config)
        _assert_same_verdict(verdict, report, deviations, symbol, cometric)
        expected = _rows(report)
        scale = max(float(np.max(expected)), 1.0)
        assert np.max(np.abs(_rows(verdict.report) - expected)) <= 1e-13 * scale
        if deviations is not None:
            assert np.max(np.abs(verdict.cometric_deviations - deviations)) <= 1e-13
        if modulus == 1.0:
            assert verdict.report.max_top_residual == 0.0
    assert verdict.cometric_deviations is not None
    assert verdict.decision == (CONFORMAL if modulus == 1.0 else NOT_CONFORMAL)


def test_flat_circle_blocks_match_the_dense_reference():
    periodic = build_dirac(make_circle_metric(TWO_PI, np.zeros(64), 0),
                           SpinStructure(("periodic",)))
    antiperiodic = build_dirac(make_circle_metric(3.0 * np.pi, np.zeros(64), 0),
                               SpinStructure(("antiperiodic",)))
    config = DetectConfig()
    verdict = detect_conformal(periodic, antiperiodic, config=config)
    report, deviations, symbol, cometric = _dense_channels(periodic, antiperiodic, config)
    _assert_same_verdict(verdict, report, deviations, symbol, cometric)
    assert verdict.decision == CONFORMAL
    expected = _rows(report)
    assert np.max(np.abs(_rows(verdict.report) - expected)) <= 1e-13 * max(
        float(np.max(expected)), 1.0)
    assert np.max(np.abs(verdict.cometric_deviations - deviations)) <= 1e-13


def _curved_torus_dirac(n, modulus, amplitude):
    from confspec import make_torus_metric
    x, y = np.meshgrid(circle_theta(n), circle_theta(n), indexing="ij")
    v = amplitude * (np.sin(x) + 0.5 * np.cos(x + y))
    return build_dirac(make_torus_metric(modulus, v, 1),
                       SpinStructure(("periodic", "periodic")))


def test_curved_torus_pair_is_bit_identical_to_the_dense_reference():
    dirac_a = _curved_torus_dirac(8, 1.0, 0.2)
    dirac_b = _curved_torus_dirac(8, 1.0, -0.1)
    config = DetectConfig(probe_tolerance=0.5)
    verdict = detect_conformal(dirac_a, dirac_b, config=config)
    report, deviations, symbol, cometric = _dense_channels(dirac_a, dirac_b, config)
    _assert_same_verdict(verdict, report, deviations, symbol, cometric)
    assert verdict.decision == CONFORMAL
    assert np.array_equal(_rows(verdict.report), _rows(report))
    assert verdict.report.top_residuals == report.top_residuals
    assert np.max(np.abs(verdict.cometric_deviations - deviations)) <= 1e-13


def _assert_rows_and_deviations_agree(verdict, report, deviations):
    expected = _rows(report)
    assert np.all(np.abs(_rows(verdict.report) - expected)
                  <= 1e-13 * np.maximum(np.abs(expected), 1.0))
    assert (verdict.cometric_deviations is None) == (deviations is None)
    if deviations is not None:
        assert np.all(np.abs(verdict.cometric_deviations - deviations)
                      <= 1e-13 * np.maximum(deviations, 1.0))


@pytest.mark.parametrize("config", [DetectConfig(), DetectConfig(probe_tolerance=0.5)])
def test_curved_torus_pair_matches_the_eigh_reference(config):
    # detection takes the graded sign; the reference takes dense eigh
    dirac_a = _curved_torus_dirac(16, 1.0, 0.2)
    dirac_b = _curved_torus_dirac(16, 1.0, -0.1)
    verdict = detect_conformal(dirac_a, dirac_b, config=config)
    report, deviations, symbol, cometric = _dense_channels(dirac_a, dirac_b, config,
                                                           sign=_eigh_sign)
    _assert_same_verdict(verdict, report, deviations, symbol, cometric)
    _assert_rows_and_deviations_agree(verdict, report, deviations)
    assert verdict.symbol_channel == CONFORMAL


def test_curved_torus_phase_intertwiner_matches_the_eigh_reference():
    from confspec import make_torus_metric
    x, y = np.meshgrid(circle_theta(12), circle_theta(12), indexing="ij")
    spin = SpinStructure(("antiperiodic", "periodic"))
    dirac_a = build_dirac(make_torus_metric(1.0, 0.15 * np.cos(x + y), 1), spin)
    dirac_b = build_dirac(make_torus_metric(1.0, -0.1 * np.sin(y), 1), spin)
    unitary = multiplication_operator(np.exp(1j * 0.1 * np.sin(x - y)).reshape(-1),
                                      dirac_a.grid, rank=2)
    config = DetectConfig(probe_tolerance=0.5)
    verdict = detect_conformal(dirac_a, dirac_b, unitary, config)
    report, deviations, symbol, cometric = _dense_channels(dirac_a, dirac_b, config,
                                                           unitary, sign=_eigh_sign)
    _assert_same_verdict(verdict, report, deviations, symbol, cometric)
    _assert_rows_and_deviations_agree(verdict, report, deviations)
    assert verdict.decision == CONFORMAL


def test_phase_intertwiner_is_bit_identical_to_the_dense_reference(
        dirac_flat_s1, dirac_curved_s1, flat_circle):
    theta = circle_theta(64)
    unitary = multiplication_operator(np.exp(1j * np.sin(theta)), flat_circle.grid)
    config = DetectConfig()
    verdict = detect_conformal(dirac_flat_s1, dirac_curved_s1, unitary, config)
    report, deviations, symbol, cometric = _dense_channels(
        dirac_flat_s1, dirac_curved_s1, config, unitary)
    _assert_same_verdict(verdict, report, deviations, symbol, cometric)
    assert verdict.decision == CONFORMAL
    assert np.array_equal(_rows(verdict.report), _rows(report))
    assert np.max(np.abs(verdict.cometric_deviations - deviations)) <= 1e-13


@pytest.mark.parametrize("amplitude", [0.3, 1.0])
def test_phase_intertwiner_rows_match_the_long_double_conjugation(
        dirac_flat_s1, dirac_curved_s1, flat_circle, amplitude):
    # detect_conformal conjugates in working precision; the extended-precision
    # conjugation it once used moves no evidence row beyond rounding
    theta = circle_theta(64)
    unitary = multiplication_operator(np.exp(1j * amplitude * np.sin(theta)),
                                      flat_circle.grid)
    config = DetectConfig()
    verdict = detect_conformal(dirac_flat_s1, dirac_curved_s1, unitary, config)
    report, deviations, symbol, cometric = _dense_channels(
        dirac_flat_s1, dirac_curved_s1, config, unitary, dtype=np.clongdouble)
    _assert_same_verdict(verdict, report, deviations, symbol, cometric)
    assert verdict.decision == CONFORMAL
    expected = _rows(report)
    assert np.all(np.abs(_rows(verdict.report) - expected)
                  <= 1e-13 * np.maximum(expected, 1.0))
    assert np.max(np.abs(verdict.cometric_deviations - deviations)) <= 1e-13


def test_flat_torus_detection_builds_no_dense_sign(monkeypatch, dirac_t2_c1, dirac_t2_c2):
    # no sign_of, no embedding of a block stack, and no OperatorMatrix at
    # all (so neither the difference nor a copy of it) on a flat pair
    import confspec.calculus
    import confspec.detect
    made = []

    def refuse(*args, **kwargs):
        raise AssertionError("detect_conformal built an n x n sign")

    original = OperatorMatrix.__post_init__

    def record(self):
        made.append(np.shape(self.matrix))
        original(self)

    monkeypatch.setattr(confspec.calculus, "sign_of", refuse)
    monkeypatch.setattr(confspec.detect, "sign_of", refuse, raising=False)
    monkeypatch.setattr(confspec.calculus, "_embed", refuse)
    monkeypatch.setattr(confspec.detect, "_embed", refuse)
    monkeypatch.setattr(OperatorMatrix, "__post_init__", record)
    verdict = detect_conformal(dirac_t2_c1, dirac_t2_c2)
    assert verdict.decision == NOT_CONFORMAL
    assert made == []
