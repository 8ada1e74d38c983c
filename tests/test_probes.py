"""Plane-wave conjugation, symbol probing, and the vanishing-symbol test."""

import numpy as np
import pytest

from confspec import (
    OperatorMatrix,
    PAULI_X,
    PAULI_Y,
    ProbeSpec,
    analytic_sign_symbol,
    build_dirac,
    make_circle_metric,
    make_torus_metric,
    multiplication_operator,
    plane_wave_conjugate,
    probe_symbol,
    probe_symbols,
    sign_of,
    spectral_projector,
    standard_probe,
    vanishing_symbol_test,
)

from conftest import circle_theta

TWO_PI = 2.0 * np.pi


def _circle_probe_set(n=64):
    points = [(t,) for t in np.linspace(0.0, TWO_PI, 8, endpoint=False)]
    return [standard_probe((n,), p, (d,)) for p in points for d in (1, -1)]


# ------------------------------------------------------ plane-wave conjugation

def test_conjugating_identity_is_identity(flat_circle):
    op = OperatorMatrix(matrix=np.eye(64, dtype=complex), grid=flat_circle.grid,
                        rank=1, hermitian=True)
    moved = plane_wave_conjugate(op, (5,))
    assert np.array_equal(moved.matrix, np.eye(64, dtype=complex))


def test_conjugation_shifts_diagonal_symbols(antiperiodic):
    metric = make_circle_metric(TWO_PI, np.zeros(16), 0)
    signed = sign_of(build_dirac(metric, antiperiodic))
    moved = plane_wave_conjugate(signed, (3,))
    # on the finite grid the conjugation acts as the cyclic mode shift,
    # so the diagonal of signs rolls in place
    assert np.allclose(np.diag(moved.matrix), np.roll(np.diag(signed.matrix), -3),
                       atol=1e-14)


def test_conjugation_fixes_multipliers(flat_circle):
    theta = circle_theta(64)
    op = multiplication_operator(np.exp(0.2 * np.cos(theta)), flat_circle.grid)
    moved = plane_wave_conjugate(op, (7,))
    # the mode-space matrix of a multiplier is circulant up to transform
    # round-off, so the cyclic roll reproduces it to working precision
    assert np.allclose(moved.matrix, op.matrix, atol=1e-13)


def test_conjugation_round_trips(sign_curved_s1):
    back = plane_wave_conjugate(plane_wave_conjugate(sign_curved_s1, (4,)), (-4,))
    assert np.array_equal(back.matrix, sign_curved_s1.matrix)


# ------------------------------------------------------------- exact probing

def test_flat_sign_probe_is_exact(sign_flat_s1):
    # the flat symbol is constant in x, so once the shifted bump clears the
    # spectral cut the residual is not merely small, it is exactly zero
    for direction, expected in ((1, 1.0), (-1, -1.0)):
        spec = standard_probe((64,), (0.0,), (direction,))
        estimate = probe_symbol(sign_flat_s1, spec)
        assert estimate.converged
        assert abs(estimate.sigma[0, 0] - expected) <= 5e-15
        assert list(estimate.frequencies)[-2:] == [12, 16]
        assert estimate.residuals[-2] == 0.0
        assert estimate.residuals[-1] == 0.0
        assert all(leak == 0.0 for leak in estimate.truncation_leaks)


def test_curved_sign_probe_golden(sign_curved_s1):
    estimate = probe_symbol(sign_curved_s1, standard_probe((64,), (0.0,), (1,)))
    assert estimate.converged
    assert estimate.sigma[0, 0] == pytest.approx(1.0, abs=1e-12)
    golden = [0.3000876099341891, 0.00023897320440630454,
              7.176122683009832e-09, 1.5677417193580695e-14]
    assert estimate.residuals[0] == pytest.approx(golden[0], rel=1e-9)
    assert estimate.residuals[1] == pytest.approx(golden[1], rel=1e-9)
    # the tail of the decay sits at the eigensolver floor; pin its order only
    assert estimate.residuals[2] < 1e-7
    assert estimate.residuals[3] < 1e-12


def test_probe_diverges_on_unbounded_operator(dirac_curved_s1):
    estimate = probe_symbol(dirac_curved_s1, standard_probe((64,), (0.0,), (1,)))
    assert not estimate.converged
    assert min(estimate.residuals) > 1.0


# --------------------------------------------------------- analytic reference

def test_analytic_symbol_circle(flat_circle):
    assert analytic_sign_symbol(flat_circle, (0.0,), (1,))[0, 0] == pytest.approx(
        1.0, rel=1e-14)


def test_analytic_symbol_torus_diagonal(torus_c1):
    symbol = analytic_sign_symbol(torus_c1, (0.0, 0.0), (1, 1))
    assert np.allclose(symbol, (PAULI_X + PAULI_Y) / np.sqrt(2.0), atol=1e-14)
    assert np.allclose(symbol @ symbol, np.eye(2), atol=1e-14)


def test_analytic_symbol_normalizes_by_cometric(torus_c2):
    symbol = analytic_sign_symbol(torus_c2, (0.0, 0.0), (1, 1))
    expected = (PAULI_X + PAULI_Y / 2.0) / np.sqrt(1.25)
    assert np.allclose(symbol, expected, atol=1e-14)


def test_analytic_symbol_rejects_zero_covector(torus_c1):
    with pytest.raises(ValueError):
        analytic_sign_symbol(torus_c1, (0.0, 0.0), (0, 0))


def test_probe_matches_analytic_symbol(sign_t2_c2, torus_c2):
    spec = standard_probe((32, 32), (0.0, 0.0), (1, 1), band=1, schedule=(4, 8))
    estimate = probe_symbol(sign_t2_c2, spec)
    oracle = analytic_sign_symbol(torus_c2, (0.0, 0.0), (1, 1))
    assert estimate.converged
    assert np.max(np.abs(estimate.sigma - oracle)) <= 1e-3


# ------------------------------------------------------- vanishing-symbol test

def test_zero_operator_vanishes(flat_circle):
    op = OperatorMatrix(matrix=np.zeros((64, 64), dtype=complex),
                        grid=flat_circle.grid, rank=1, hermitian=True)
    report = vanishing_symbol_test(op, _circle_probe_set())
    assert report.decision == "vanishing"
    assert report.max_top_residual == 0.0


def test_kernel_projector_vanishes(periodic):
    metric = make_circle_metric(TWO_PI, np.zeros(64), 0)
    projector = spectral_projector(build_dirac(metric, periodic), which="zero")
    report = vanishing_symbol_test(projector, _circle_probe_set())
    assert report.decision == "vanishing"
    assert report.max_top_residual == 0.0


def test_moduli_gap_is_detected(sign_t2_c1, sign_t2_c2):
    difference = OperatorMatrix(matrix=sign_t2_c2.matrix - sign_t2_c1.matrix,
                                grid=sign_t2_c1.grid, rank=2, hermitian=True)
    points = [(TWO_PI * i / 8.0, TWO_PI * ((3 * i) % 8) / 8.0) for i in range(8)]
    probes = [standard_probe((32, 32), p, d)
              for p in points for d in ((1, 0), (0, 1), (1, 1), (1, -1))]
    report = vanishing_symbol_test(difference, probes)
    assert report.decision == "non-vanishing"
    # the (1,1) top-frequency residual measures the gap between the two
    # direction symbols; compare with the closed-form 2x2 spectral norm
    gap = np.linalg.norm((PAULI_X + PAULI_Y) / np.sqrt(2.0)
                         - (PAULI_X + PAULI_Y / 2.0) / np.sqrt(1.25), 2)
    top = max(r.frequency for r in report.rows)
    measured = [r.residual for r in report.rows
                if r.direction == (1, 1) and r.frequency == top]
    assert measured, "no (1,1) rows in the report"
    for value in measured:
        assert abs(value - gap) <= 0.2 * gap


def test_coverage_is_enforced(flat_circle):
    op = OperatorMatrix(matrix=np.zeros((64, 64), dtype=complex),
                        grid=flat_circle.grid, rank=1, hermitian=True)
    with pytest.raises(ValueError, match="coverage"):
        vanishing_symbol_test(op, _circle_probe_set()[:4])


def _reference_shift(cube, shifts):
    """Index shift of mode axes with the modes that leave the window
    zeroed, and the norm of what was zeroed."""
    out = np.roll(cube, shifts, axis=tuple(range(len(shifts))))
    for axis, m in enumerate(shifts):
        index = np.arange(cube.shape[axis])
        wrapped = index < m if m >= 0 else index >= cube.shape[axis] + m
        out[(slice(None),) * axis + (wrapped,)] = 0.0
    lost = np.linalg.norm(cube) ** 2 - np.linalg.norm(out) ** 2
    return out, np.sqrt(max(lost, 0.0))


@pytest.mark.parametrize("shape,rank", [((64,), 1), ((8, 8), 2)], ids=["circle", "torus"])
def test_batched_responses_match_per_column_products(rng, shape, rank):
    # more probe columns than rows, so the engine needs several products;
    # each response must equal op.matrix @ x for its own shifted bump x
    from confspec import Grid
    from confspec.probes import _polarized_bumps, _probe_responses
    grid = Grid(shape, (TWO_PI,) * len(shape))
    n = grid.sites * rank
    op = OperatorMatrix(matrix=rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)),
                        grid=grid, rank=rank)
    rays = ((1,), (-1,)) if len(shape) == 1 else ((1, 0), (0, 1), (1, 1), (1, -1))
    points = [tuple(TWO_PI * ((k * (j + 1)) % 8) / 8.0 for j in range(len(shape)))
              for k in range(12)]
    specs = [standard_probe(shape, p, d) for p in points for d in rays]
    assert sum(len(s.schedule) * rank for s in specs) > n
    results = list(_probe_responses(op, specs))
    assert len(results) == len(specs)
    for spec, (fs, responses, leaks) in zip(specs, results):
        _, expected_fs = _polarized_bumps(op, spec)
        assert np.array_equal(fs, expected_fs)
        for m in spec.schedule:
            shifts = tuple(m * d for d in spec.direction)
            dropped = 0.0
            for s in range(rank):
                moved, lost_in = _reference_shift(fs[s], shifts)
                applied = (op.matrix @ moved.reshape(-1)).reshape(shape + (rank,))
                back, lost_out = _reference_shift(applied, tuple(-x for x in shifts))
                scale = np.max(np.abs(applied))
                assert np.max(np.abs(responses[m][s] - back)) <= 1e-13 * scale
                dropped += lost_in ** 2 + lost_out ** 2
            assert leaks[m] == pytest.approx(np.sqrt(dropped / rank), rel=1e-9, abs=1e-12)


def test_probe_runs_respect_the_column_limit():
    from confspec.probes import _spec_runs
    specs = [standard_probe((64,), (0.0,), (1,), schedule=schedule)
             for schedule in ((4, 8, 12, 16), (8, 16), (16,), (2, 4, 8), (4,))]
    runs = list(_spec_runs(specs, 2, 8))
    assert [spec for run in runs for spec in run] == specs
    assert [sum(2 * len(s.schedule) for s in run) for run in runs] == [8, 6, 8]
    assert [len(run) for run in _spec_runs(specs, 2, 4)] == [1, 1, 1, 1, 1]


def test_probe_symbols_matches_single_probes(sign_t2_c2):
    specs = [standard_probe((32, 32), (0.0, 0.0), d, band=1)
             for d in ((1, 0), (0, 1), (1, 1), (1, -1))]
    batched = probe_symbols(sign_t2_c2, specs)
    for spec, estimate in zip(specs, batched):
        single = probe_symbol(sign_t2_c2, spec)
        assert np.max(np.abs(estimate.sigma - single.sigma)) <= 1e-14
        assert estimate.residuals == pytest.approx(single.residuals, abs=1e-14)
        assert estimate.truncation_leaks == single.truncation_leaks
        assert estimate.direction == spec.direction


# ----------------------------------------------------------- symbol algebra

def test_symbol_homomorphism(sign_curved_s1, flat_circle):
    theta = circle_theta(64)
    multiplier = multiplication_operator(np.exp(0.2 * np.cos(theta)),
                                         flat_circle.grid)
    product = OperatorMatrix(matrix=sign_curved_s1.matrix @ multiplier.matrix,
                             grid=flat_circle.grid, rank=1)
    spec = standard_probe((64,), (np.pi / 3,), (1,))
    parts = [probe_symbol(op, spec)
             for op in (sign_curved_s1, multiplier, product)]
    residual_budget = 3.0 * sum(p.residuals[-1] for p in parts)
    gap = abs(parts[2].sigma[0, 0] - parts[0].sigma[0, 0] * parts[1].sigma[0, 0])
    assert gap <= max(residual_budget, 1e-12)


def test_symbol_conjugation_law(sign_curved_s1, flat_circle):
    theta = circle_theta(64)
    w = multiplication_operator(np.exp(1j * 0.7 * np.sin(theta)),
                                flat_circle.grid)
    conjugated = OperatorMatrix(
        matrix=w.matrix @ sign_curved_s1.matrix @ w.matrix.conj().T,
        grid=flat_circle.grid, rank=1)
    spec = standard_probe((64,), (np.pi / 3,), (1,))
    base = probe_symbol(sign_curved_s1, spec)
    moved = probe_symbol(conjugated, spec)
    phase = np.exp(1j * 0.7 * np.sin(np.pi / 3))
    expected = phase * base.sigma[0, 0] * np.conj(phase)
    budget = 10.0 * (base.residuals[-1] + moved.residuals[-1])
    assert abs(moved.sigma[0, 0] - expected) <= max(budget, 1e-12)


def test_direction_homogeneity(sign_t2_c1):
    slow = probe_symbol(sign_t2_c1, ProbeSpec(base_point=(0.0, 0.0),
                                              direction=(1, 1),
                                              schedule=(2, 4), band=1))
    fast = probe_symbol(sign_t2_c1, ProbeSpec(base_point=(0.0, 0.0),
                                              direction=(1, 1),
                                              schedule=(3, 6), band=1))
    gap = np.max(np.abs(slow.sigma - fast.sigma))
    budget = 5.0 * (slow.residuals[-1] + fast.residuals[-1])
    assert gap <= max(budget, 1e-8)


# ------------------------------------------------------------------ validation

def test_probe_spec_rejects_zero_direction():
    with pytest.raises(ValueError):
        ProbeSpec(base_point=(0.0,), direction=(0,), schedule=(2, 4), band=2)


def test_probe_spec_rejects_unsorted_schedule():
    with pytest.raises(ValueError):
        ProbeSpec(base_point=(0.0,), direction=(1,), schedule=(4, 2), band=2)


@pytest.mark.parametrize("band,schedule", [(32, (4, 8)), (2, (8, 64))])
def test_probe_caps_enforced(sign_flat_s1, band, schedule):
    spec = ProbeSpec(base_point=(0.0,), direction=(1,), schedule=schedule,
                     band=band)
    with pytest.raises(ValueError):
        spec.validate_for(sign_flat_s1)


def test_shift_reports_dropped_mass():
    from confspec.probes import _shift_spectrum
    coeffs = np.zeros(16, dtype=complex)
    coeffs[12:16] = [1.0, 2.0, 2.0, 1.0]  # modes 4..7 in ascending order
    shifted, dropped = _shift_spectrum(coeffs, (3,))
    kept = np.linalg.norm(shifted) ** 2
    lost = dropped ** 2
    assert kept + lost == pytest.approx(np.linalg.norm(coeffs) ** 2, rel=1e-12)
    assert dropped > 0.0


def test_shift_reports_a_small_dropped_mass_beside_a_large_kept_one():
    # the dropped entries are summed directly: |cube|^2 - |kept|^2 would
    # lose 5e-9 against the kept 1.0 entirely
    from confspec.probes import _shift_spectrum
    coeffs = np.zeros(16, dtype=complex)
    coeffs[8] = 1.0
    coeffs[14:16] = [3e-9, 4e-9j]
    shifted, dropped = _shift_spectrum(coeffs, (3,))
    assert dropped == pytest.approx(5e-9, rel=1e-14)
    assert shifted[11] == 1.0
    cube = np.zeros((8, 8, 2), dtype=complex)
    cube[4, 4] = [1.0, 1.0j]
    cube[0, 7, 1] = 2e-9
    cube[7, 1, 0] = 1e-9
    # the first shift drops the [0, 7] entry, the second the [7, 1] one
    assert _shift_spectrum(cube, (-1, 1))[1] == pytest.approx(2e-9, rel=1e-14)
    assert _shift_spectrum(cube, (1, 0))[1] == pytest.approx(1e-9, rel=1e-14)
    assert _shift_spectrum(cube, (8, 0))[1] == np.linalg.norm(cube)


def test_shift_that_drops_nothing_reports_exactly_zero(rng):
    # a block-diagonal operator keeps every shifted bump inside the window,
    # so every leak is exactly 0.0, whether the probe runs alone or batched
    from confspec import Grid
    from confspec.operators import BlockDiagonalOperator
    grid = Grid((32, 32), (TWO_PI, TWO_PI))
    a = rng.normal(size=(grid.sites, 2, 2)) + 1j * rng.normal(size=(grid.sites, 2, 2))
    blocks = a + np.swapaxes(a.conj(), 1, 2)
    ops = (BlockDiagonalOperator(blocks=blocks, grid=grid, rank=2),
           OperatorMatrix(matrix=_embedded(blocks), grid=grid, rank=2, hermitian=True))
    points = [(TWO_PI * i / 8.0, TWO_PI * ((3 * i) % 8) / 8.0) for i in range(8)]
    specs = [standard_probe((32, 32), p, d)
             for p in points for d in ((1, 0), (0, 1), (1, 1), (1, -1))]
    for op in ops:
        batched = probe_symbols(op, specs)
        assert all(leak == 0.0 for e in batched for leak in e.truncation_leaks)
        for spec in specs[:4]:
            assert all(leak == 0.0 for leak in probe_symbol(op, spec).truncation_leaks)
        report = vanishing_symbol_test(op, specs)
        assert all(row.leak == 0.0 for row in report.rows)


def _embedded(blocks):
    s, r, _ = blocks.shape
    dense = np.zeros((s, r, s, r), dtype=complex)
    dense[np.arange(s), :, np.arange(s), :] = blocks
    return dense.reshape(s * r, s * r)


@pytest.mark.parametrize("shape,rank", [((64,), 1), ((8, 8), 2), ((12, 12), 2)])
def test_one_block_product_is_the_dense_product(rng, shape, rank):
    # a dense operator is the one-block case of the batched product, with
    # the same bits as the plain matrix product
    from confspec import Grid
    from confspec.operators import BlockDiagonalOperator
    from confspec.probes import _probe_responses
    grid = Grid(shape, (TWO_PI,) * len(shape))
    n = grid.sites * rank
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    x = rng.normal(size=(n, 3 * n // 2)) + 1j * rng.normal(size=(n, 3 * n // 2))
    assert np.array_equal((a[None] @ x.reshape(1, n, -1)).reshape(n, -1), a @ x)
    h = a + a.conj().T
    dense = OperatorMatrix(matrix=h, grid=grid, rank=rank, hermitian=True)
    stacked = BlockDiagonalOperator(blocks=h[None], grid=grid, rank=rank)
    rays = ((1,), (-1,)) if len(shape) == 1 else ((1, 0), (0, 1), (1, 1), (1, -1))
    specs = [standard_probe(shape, (0.0,) * len(shape), d) for d in rays]
    for (_, got, got_leaks), (_, expected, leaks) in zip(_probe_responses(stacked, specs),
                                                         _probe_responses(dense, specs)):
        assert all(np.array_equal(got[m], expected[m]) for m in expected)
        assert got_leaks == leaks
