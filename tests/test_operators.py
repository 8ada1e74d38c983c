"""Dirac assembly, Clifford actions, multiplication operators, commutators."""

import numpy as np
import pytest

from confspec import (
    Grid,
    PAULI_X,
    PAULI_Y,
    SpinStructure,
    build_dirac,
    clifford,
    commutator,
    commutator_norm,
    covector_norm,
    eigendecompose,
    flat_dirac,
    make_circle_metric,
    make_torus_metric,
    multiplication_operator,
    OperatorMatrix,
)

from conftest import circle_theta

TWO_PI = 2.0 * np.pi


# ----------------------------------------------------------------- flat spectra

def test_antiperiodic_circle_spectrum(antiperiodic):
    metric = make_circle_metric(TWO_PI, np.zeros(8), 0)
    eigenvalues = np.sort(eigendecompose(build_dirac(metric, antiperiodic)).eigenvalues)
    oracle = np.array([-3.5, -2.5, -1.5, -0.5, 0.5, 1.5, 2.5, 3.5])
    assert np.allclose(eigenvalues, oracle, atol=1e-12)


def test_periodic_circle_spectrum(periodic):
    metric = make_circle_metric(TWO_PI, np.zeros(8), 0)
    eigenvalues = np.sort(eigendecompose(build_dirac(metric, periodic)).eigenvalues)
    oracle = np.arange(-4.0, 4.0)
    assert np.allclose(eigenvalues, oracle, atol=1e-12)


def test_torus_spectrum_closed_form(periodic_2d):
    metric = make_torus_metric(2.0, np.zeros((4, 4)), 0)
    eigenvalues = np.sort(eigendecompose(build_dirac(metric, periodic_2d)).eigenvalues)
    magnitudes = [np.hypot(k1, k2 / 2.0)
                  for k1 in (-2, -1, 0, 1) for k2 in (-2, -1, 0, 1)]
    oracle = np.sort(np.array([[m, -m] for m in magnitudes]).ravel())
    assert np.allclose(eigenvalues, oracle, atol=1e-12)


def test_flat_input_reproduces_flat_assembly(flat_circle, antiperiodic):
    built = build_dirac(flat_circle, antiperiodic)
    reference = flat_dirac(flat_circle, antiperiodic)
    assert np.array_equal(built.matrix, reference.matrix)


# --------------------------------------------------- measure conjugation check

def test_measure_conjugation_circle(curved_circle, antiperiodic, flat_circle):
    # the asymmetric transformation law conjugated by the volume factor must
    # reproduce the symmetric sandwich: J B J^{-1} = E D E with J = M_{e^{v/2}}
    # and B = M_{e^{-v}} D in one dimension
    theta = circle_theta(64)
    v = 0.3 * np.sin(theta)
    grid = flat_circle.grid
    d_flat = build_dirac(flat_circle, antiperiodic).matrix
    j = multiplication_operator(np.exp(v / 2.0), grid).matrix
    j_inv = multiplication_operator(np.exp(-v / 2.0), grid).matrix
    asymmetric = multiplication_operator(np.exp(-v), grid).matrix @ d_flat
    sandwich = build_dirac(curved_circle, antiperiodic).matrix
    gap = np.max(np.abs(j @ asymmetric @ j_inv - sandwich))
    assert gap <= 1e-12 * np.max(np.abs(sandwich)), f"conjugation gap {gap:.3e}"


def test_measure_conjugation_torus(periodic_2d):
    # two dimensions: J = M_{e^{v}}, B = M_{e^{-3v/2}} D M_{e^{v/2}}
    n = 16
    xs = circle_theta(n)
    v = 0.2 * np.cos(xs)[:, None] * np.ones((1, n))
    curved = make_torus_metric(1.0, v, 1)
    flat = make_torus_metric(1.0, np.zeros((n, n)), 0)
    sandwich = build_dirac(curved, periodic_2d)
    grid = sandwich.grid
    d_flat = build_dirac(flat, periodic_2d).matrix
    j = multiplication_operator(np.exp(v), grid, rank=2).matrix
    j_inv = multiplication_operator(np.exp(-v), grid, rank=2).matrix
    asymmetric = (multiplication_operator(np.exp(-1.5 * v), grid, rank=2).matrix
                  @ d_flat
                  @ multiplication_operator(np.exp(0.5 * v), grid, rank=2).matrix)
    gap = np.max(np.abs(j @ asymmetric @ j_inv - sandwich.matrix))
    assert gap <= 1e-12 * np.max(np.abs(sandwich.matrix)), f"conjugation gap {gap:.3e}"


@pytest.mark.parametrize("n", [8, 12])
@pytest.mark.parametrize("parities", [("periodic", "periodic"),
                                      ("antiperiodic", "antiperiodic"),
                                      ("antiperiodic", "periodic")])
def test_graded_torus_build_matches_the_dense_sandwich(n, parities):
    # the reference is the rank-2 sandwich M(w) D_flat M(w), w = exp(-v/2)
    x, y = np.meshgrid(circle_theta(n), circle_theta(n), indexing="ij")
    v = 0.3 * np.sin(x) - 0.2 * np.cos(x - 2 * y)
    metric = make_torus_metric(2.0, v, 2)
    spin = SpinStructure(parities)
    built = build_dirac(metric, spin).matrix
    envelope = multiplication_operator(np.exp(-0.5 * v), metric.grid, rank=2).matrix
    sandwich = envelope @ flat_dirac(metric, spin).matrix @ envelope
    assert np.max(np.abs(built - sandwich)) <= 1e-13
    quarters = built.reshape(n * n, 2, n * n, 2)
    assert not np.any(quarters[:, 0, :, 0]) and not np.any(quarters[:, 1, :, 1])
    assert np.array_equal(built, built.conj().T)


# -------------------------------------------------------------- Clifford action

def test_clifford_circle_is_minus_i(flat_circle):
    action = clifford(flat_circle, (0.0,), (1,))
    assert action.shape == (1, 1)
    assert action[0, 0] == pytest.approx(-1j, rel=1e-14)


def test_clifford_torus_dx(torus_c1):
    action = clifford(torus_c1, (0.0, 0.0), (1, 0))
    assert np.allclose(action, -1j * PAULI_X, atol=1e-14)


def test_clifford_torus_dy_squares_to_cometric(torus_c2):
    action = clifford(torus_c2, (0.0, 0.0), (0, 1))
    assert np.allclose(action @ action, -0.25 * np.eye(2), atol=1e-14)


def _relation_metrics():
    theta = circle_theta(64)
    xs = circle_theta(16)
    v2 = 0.2 * np.cos(xs)[:, None] * np.ones((1, 16))
    return [
        make_circle_metric(TWO_PI, np.zeros(64), 0),
        make_circle_metric(TWO_PI, 0.3 * np.sin(theta), 1),
        make_torus_metric(2.0, np.zeros((16, 16)), 0),
        make_torus_metric(1.0, v2, 1),
    ]


@pytest.mark.parametrize("metric", _relation_metrics(),
                         ids=["flat-s1", "curved-s1", "torus-c2", "torus-curved"])
def test_clifford_relation(metric, rng):
    # c(xi) c(eta) + c(eta) c(xi) = -2 g(xi, eta) Id at every grid point
    from confspec import cometric_pair
    points = metric.grid.points()
    for _ in range(16):
        xi = tuple(rng.normal(size=metric.dim))
        eta = tuple(rng.normal(size=metric.dim))
        for x in points:
            cx, ce = clifford(metric, x, xi), clifford(metric, x, eta)
            pairing = cometric_pair(metric, x, xi, eta)
            anti = cx @ ce + ce @ cx + 2.0 * pairing * np.eye(cx.shape[0])
            assert np.max(np.abs(anti)) <= 1e-12


def test_clifford_skew_adjoint(curved_circle, torus_c2, rng):
    for metric in (curved_circle, torus_c2):
        xi = tuple(rng.normal(size=metric.dim))
        action = clifford(metric, metric.grid.points()[3], xi)
        assert np.max(np.abs(action + action.conj().T)) <= 1e-13


def test_covector_norm_matches_pairing(torus_c2):
    from confspec import cometric_pair
    x, xi = (0.0, 0.0), (1.0, 1.0)
    assert covector_norm(torus_c2, x, xi) == pytest.approx(
        np.sqrt(cometric_pair(torus_c2, x, xi, xi)), rel=1e-14)


# ------------------------------------------------------ multiplication operators

def test_multiply_by_one_is_identity(flat_circle):
    op = multiplication_operator(np.ones(64), flat_circle.grid)
    assert np.array_equal(op.matrix, np.eye(64))


def test_multiply_by_character_is_cyclic_shift(flat_circle):
    theta = circle_theta(64)
    op = multiplication_operator(np.exp(1j * theta), flat_circle.grid)
    shift = np.zeros((64, 64))
    for k in range(64):
        shift[(k + 1) % 64, k] = 1.0
    assert np.allclose(op.matrix, shift, atol=1e-13)


def test_multiplier_norm_is_sup_norm(flat_circle, rng):
    samples = rng.normal(size=64)
    op = multiplication_operator(samples, flat_circle.grid)
    assert op.norm() == pytest.approx(np.max(np.abs(samples)), rel=1e-12)


def test_multipliers_compose_pointwise(flat_circle, rng):
    a, b = rng.normal(size=(2, 64))
    grid = flat_circle.grid
    product = (multiplication_operator(a, grid).matrix
               @ multiplication_operator(b, grid).matrix)
    direct = multiplication_operator(a * b, grid).matrix
    assert np.allclose(product, direct, atol=1e-12)


def _dft_sandwich(field, grid, rank):
    """Reference multiplier F* diag(f) F, one rank x rank entry of the
    field at a time, with the unitary coefficient-to-sample matrix
    F[j, k] = exp(i k theta_j) / sqrt(N) over ascending modes, tensored
    over the axes."""
    dft = np.ones((1, 1))
    for n in grid.shape:
        theta = TWO_PI * np.arange(n) / n
        modes = np.arange(-(n // 2), n // 2)
        dft = np.kron(dft, np.exp(1j * np.outer(theta, modes)) / np.sqrt(n))
    s = grid.sites
    f = np.asarray(field, dtype=complex)
    if f.shape in (grid.shape, (s,)):
        f = f.reshape(s)[:, None, None] * np.eye(rank)
    f = f.reshape(s, rank, rank)
    out = np.zeros((s, rank, s, rank), dtype=complex)
    for a in range(rank):
        for b in range(rank):
            out[:, a, :, b] = dft.conj().T @ (f[:, a, b, None] * dft)
    return out.reshape(s * rank, s * rank)


@pytest.mark.parametrize("shape", [(64,), (8, 6)])
@pytest.mark.parametrize("rank", [1, 2])
@pytest.mark.parametrize("kind", ["scalar", "hermitian", "matrix"])
def test_multiplier_matches_the_dft_sandwich(shape, rank, kind, rng):
    grid = Grid(shape, (TWO_PI,) * len(shape))
    if kind == "scalar":
        field = rng.normal(size=shape)
    else:
        field = rng.normal(size=shape + (rank, rank)) \
            + 1j * rng.normal(size=shape + (rank, rank))
        if kind == "hermitian":
            field = field + np.swapaxes(field, -1, -2).conj()
    op = multiplication_operator(field, grid, rank=rank)
    assert op.hermitian == (kind != "matrix")
    assert np.max(np.abs(op.matrix - _dft_sandwich(field, grid, rank))) <= 1e-13


# ------------------------------------------------------------------ commutators

def test_commutator_with_constant_vanishes(dirac_curved_s1):
    assert commutator_norm(dirac_curved_s1, np.full(64, 2.2)) == 0.0


def test_commutator_flat_sine(dirac_flat_s1):
    theta = circle_theta(64)
    assert commutator_norm(dirac_flat_s1, np.sin(theta)) == pytest.approx(1.0,
                                                                          abs=1e-6)


def test_commutator_curved_sine(dirac_curved_s1):
    theta = circle_theta(64)
    oracle = np.max(np.abs(np.cos(theta)) * np.exp(-0.3 * np.sin(theta)))
    measured = commutator_norm(dirac_curved_s1, np.sin(theta))
    assert measured == pytest.approx(oracle, abs=1e-6)


def test_commutator_norm_matches_matrix(dirac_curved_s1):
    theta = circle_theta(64)
    bracket = commutator(dirac_curved_s1, np.sin(theta))
    assert commutator_norm(dirac_curved_s1, np.sin(theta)) == pytest.approx(
        bracket.norm(), rel=1e-10)


def test_commutator_leibniz(dirac_flat_s1, flat_circle):
    theta = circle_theta(64)
    a = np.exp(0.2 * np.cos(theta))
    b = np.sin(theta) + 2.0
    grid = flat_circle.grid
    lhs = commutator(dirac_flat_s1, a * b).matrix
    rhs = (commutator(dirac_flat_s1, a).matrix
           @ multiplication_operator(b, grid).matrix
           + multiplication_operator(a, grid).matrix
           @ commutator(dirac_flat_s1, b).matrix)
    assert np.max(np.abs(lhs - rhs)) <= 1e-10


# -------------------------------------------------------------------- invariants

@pytest.mark.parametrize("shift", [0.4, -0.25])
def test_constant_factor_scales_spectrum(antiperiodic, shift):
    flat = make_circle_metric(TWO_PI, np.zeros(32), 0)
    scaled = make_circle_metric(TWO_PI, np.full(32, shift), 0)
    base = np.sort(eigendecompose(build_dirac(flat, antiperiodic)).eigenvalues)
    moved = np.sort(eigendecompose(build_dirac(scaled, antiperiodic)).eigenvalues)
    assert np.allclose(moved, np.exp(-shift) * base, atol=1e-9)


def test_dirac_is_hermitian(dirac_curved_s1, dirac_t2_c2):
    for op in (dirac_curved_s1, dirac_t2_c2):
        assert op.hermitian
        assert np.max(np.abs(op.matrix - op.matrix.conj().T)) <= 1e-10


def test_operator_matrix_validates_hermitian_flag(flat_circle):
    lopsided = np.triu(np.ones((64, 64), dtype=complex))
    with pytest.raises(ValueError):
        OperatorMatrix(matrix=lopsided, grid=flat_circle.grid, rank=1,
                       hermitian=True)


@pytest.mark.parametrize("n", [1, 5, 128, 300])
def test_hermitian_drift_matches_full_difference(rng, n):
    from confspec.operators import _hermitian_drift
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    for candidate in (a, a + a.conj().T, np.triu(a)):
        expected = np.max(np.abs(candidate - candidate.conj().T))
        assert _hermitian_drift(candidate) == expected
    nearly = a + a.conj().T
    nearly[n - 1, 0] += 1e-9j
    assert _hermitian_drift(nearly) == np.max(np.abs(nearly - nearly.conj().T)) > 1e-10


@pytest.mark.parametrize("blocks,m", [(1, 128), (64, 2), (300, 1)])
def test_hermitian_drift_of_block_stacks_is_the_largest_block_drift(rng, blocks, m):
    from confspec.operators import _hermitian_drift
    a = rng.normal(size=(blocks, m, m)) + 1j * rng.normal(size=(blocks, m, m))
    for candidate in (a, a + np.swapaxes(a.conj(), 1, 2)):
        assert _hermitian_drift(candidate) == max(_hermitian_drift(b) for b in candidate)


@pytest.mark.parametrize("blocks,m", [(1, 128), (64, 2)], ids=["dense", "mode-blocks"])
def test_block_operator_applies_the_hermitian_bound(rng, blocks, m):
    # the same 1e-10 bound as OperatorMatrix, on the stack and on its embedding
    from confspec import Grid
    from confspec.operators import BlockDiagonalOperator
    grid = Grid((8, 8), (2.0 * np.pi, 2.0 * np.pi))
    a = rng.normal(size=(blocks, m, m)) + 1j * rng.normal(size=(blocks, m, m))
    hermitian = a + np.swapaxes(a.conj(), 1, 2)
    for bump, accepted in ((5e-11, True), (2e-10, False)):
        stack = hermitian.copy()
        stack[-1, m - 1, 0] += bump * 1j
        embedded = np.zeros((blocks, m, blocks, m), dtype=complex)
        embedded[np.arange(blocks), :, np.arange(blocks), :] = stack
        embedded = embedded.reshape(blocks * m, blocks * m)
        for build in (lambda: BlockDiagonalOperator(blocks=stack, grid=grid, rank=2),
                      lambda: OperatorMatrix(matrix=embedded, grid=grid, rank=2,
                                             hermitian=True)):
            if accepted:
                build()
            else:
                with pytest.raises(ValueError, match="hermitian"):
                    build()
    op = BlockDiagonalOperator(blocks=hermitian, grid=grid, rank=2)
    assert op.size == 128
    assert not op.blocks.flags.writeable


def test_block_operator_rejects_stacks_of_the_wrong_size():
    from confspec import Grid
    from confspec.operators import BlockDiagonalOperator
    grid = Grid((8, 8), (2.0 * np.pi, 2.0 * np.pi))
    for shape in ((64, 2, 2, 1), (32, 2, 2), (64, 2, 1)):
        with pytest.raises(ValueError, match="stack"):
            BlockDiagonalOperator(blocks=np.zeros(shape, dtype=complex), grid=grid, rank=2)


def test_spin_structure_validation():
    with pytest.raises(ValueError):
        SpinStructure(("sideways",))
    with pytest.raises(ValueError):
        SpinStructure(())
