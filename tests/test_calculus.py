"""Hermitian functional calculus: eigendecomposition, sign, spectral projectors."""

import numpy as np
import pytest

from confspec import (
    Grid,
    OperatorMatrix,
    build_dirac,
    eigendecompose,
    kernel_rank,
    make_circle_metric,
    sign_of,
    spectral_projector,
)

TWO_PI = 2.0 * np.pi


def _diag_op(values):
    n = len(values)
    return OperatorMatrix(matrix=np.diag(values).astype(complex),
                          grid=Grid((n,), (TWO_PI,)), rank=1, hermitian=True)


def _random_hermitian(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return OperatorMatrix(matrix=(a + a.conj().T) / 2.0,
                          grid=Grid((n,), (TWO_PI,)), rank=1, hermitian=True)


# ------------------------------------------------------------- eigendecompose

def test_eigendecompose_diagonal():
    decomp = eigendecompose(_diag_op([3.0, 1.0, 2.0, 4.0]))
    assert np.allclose(np.sort(decomp.eigenvalues), [1.0, 2.0, 3.0, 4.0],
                       atol=1e-14)
    gram = decomp.vectors.conj().T @ decomp.vectors
    assert np.max(np.abs(gram - np.eye(4))) <= 1e-14


def test_eigendecompose_reconstructs(rng):
    op = _random_hermitian(rng, 64)
    decomp = eigendecompose(op)
    rebuilt = (decomp.vectors * decomp.eigenvalues) @ decomp.vectors.conj().T
    assert np.max(np.abs(rebuilt - op.matrix)) <= 1e-9 * np.max(np.abs(op.matrix))


def test_eigendecompose_flat_periodic(periodic):
    metric = make_circle_metric(TWO_PI, np.zeros(8), 0)
    decomp = eigendecompose(build_dirac(metric, periodic))
    assert np.allclose(np.sort(decomp.eigenvalues), np.arange(-4.0, 4.0),
                       atol=1e-12)


# ------------------------------------------------------------------- sign(D)

def test_sign_of_diagonal():
    signed = sign_of(_diag_op([-2.0, 0.0, 5.0, -7.0]))
    assert np.array_equal(signed.matrix,
                          np.diag([-1.0, 0.0, 1.0, -1.0]).astype(complex))


def test_sign_is_hermitian(sign_curved_s1):
    assert sign_curved_s1.hermitian
    gap = np.max(np.abs(sign_curved_s1.matrix - sign_curved_s1.matrix.conj().T))
    assert gap <= 1e-12


def test_sign_squares_to_identity_without_kernel(sign_curved_s1):
    # antiperiodic circle: no zero modes, so sign(D) is an involution
    square = sign_curved_s1.matrix @ sign_curved_s1.matrix
    assert np.max(np.abs(square - np.eye(sign_curved_s1.size))) <= 1e-12


def test_sign_with_kernel(periodic):
    metric = make_circle_metric(TWO_PI, np.zeros(64), 0)
    dirac = build_dirac(metric, periodic)
    assert kernel_rank(dirac) == 1
    signed = sign_of(dirac)
    eigenvalues = np.sort(np.linalg.eigvalsh(signed.matrix))
    assert np.sum(np.abs(eigenvalues) < 0.5) == 1, "exactly one spectral zero"


def test_sign_annihilates_kernel_projector(periodic):
    metric = make_circle_metric(TWO_PI, np.zeros(64), 0)
    dirac = build_dirac(metric, periodic)
    product = sign_of(dirac).matrix @ spectral_projector(dirac, which="zero").matrix
    assert np.max(np.abs(product)) <= 1e-12


def test_sign_scale_equivariance(dirac_curved_s1):
    doubled = OperatorMatrix(matrix=2.0 * dirac_curved_s1.matrix,
                             grid=dirac_curved_s1.grid, rank=1, hermitian=True)
    assert np.allclose(sign_of(dirac_curved_s1).matrix, sign_of(doubled).matrix,
                       atol=1e-13)


# ---------------------------------------------------------------- projectors

def test_projector_plus_diagonal():
    plus = spectral_projector(_diag_op([-1.0, 2.0]), which="plus")
    assert np.allclose(plus.matrix, np.diag([0.0, 1.0]), atol=1e-14)


def test_projector_kinds_resolve_identity(rng):
    for _ in range(10):
        op = _random_hermitian(rng, 24)
        total = sum(spectral_projector(op, which=kind).matrix
                    for kind in ("plus", "minus", "zero"))
        assert np.max(np.abs(total - np.eye(24))) <= 1e-12


def test_projector_identity_with_sign(rng):
    # pi_plus = (sign + Id - pi_zero) / 2, exactly, including on a kernel
    metric = make_circle_metric(TWO_PI, np.zeros(64), 0)
    from confspec import SpinStructure
    dirac = build_dirac(metric, SpinStructure(("periodic",)))
    candidates = [dirac] + [_random_hermitian(rng, 24) for _ in range(10)]
    for op in candidates:
        plus = spectral_projector(op, which="plus").matrix
        zero = spectral_projector(op, which="zero").matrix
        synthesized = 0.5 * (sign_of(op).matrix + np.eye(op.size) - zero)
        assert np.max(np.abs(plus - synthesized)) <= 1e-12


def test_projector_rejects_unknown_kind():
    with pytest.raises(ValueError, match="which"):
        spectral_projector(_diag_op([1.0, 2.0]), which="positive")


# ---------------------------------------------------------------- invariants

def test_sign_commutes_with_operator(dirac_curved_s1, sign_curved_s1):
    bracket = (sign_curved_s1.matrix @ dirac_curved_s1.matrix
               - dirac_curved_s1.matrix @ sign_curved_s1.matrix)
    scale = np.linalg.norm(dirac_curved_s1.matrix, 2)
    assert np.max(np.abs(bracket)) <= 1e-9 * scale


def test_sign_times_operator_is_positive(dirac_curved_s1, sign_curved_s1):
    modulus = sign_curved_s1.matrix @ dirac_curved_s1.matrix
    eigenvalues = np.linalg.eigvalsh((modulus + modulus.conj().T) / 2.0)
    scale = np.max(np.abs(dirac_curved_s1.matrix))
    assert eigenvalues.min() >= -1e-9 * scale


def test_explicit_tolerance_controls_kernel():
    op = _diag_op([-1.0, 1e-6, 1.0, 2.0])
    assert kernel_rank(op) == 0
    assert kernel_rank(op, tol=1e-3) == 1
    wide = sign_of(op, tol=1e-3)
    assert wide.matrix[1, 1] == 0.0


# ------------------------------------------------------------ phase convention

def _fix_phases_loop(vectors):
    """The column-by-column phase convention the vectorized form replaces."""
    out = np.array(vectors)
    mags = np.abs(out)
    tops = mags.max(axis=0)
    tops[tops == 0.0] = 1.0
    for j in range(out.shape[1]):
        significant = np.nonzero(mags[:, j] > 1e-8 * tops[j])[0]
        lead = out[significant[0], j] if significant.size else 1.0
        mag = abs(lead)
        if mag > 0.0:
            out[:, j] *= lead.conjugate() / mag
    return out


def _block_diagonal(stack):
    s, r, _ = stack.shape
    dense = np.zeros((s, r, s, r), dtype=complex)
    dense[np.arange(s), :, np.arange(s), :] = stack
    return dense.reshape(s * r, s * r)


def _awkward_columns(a):
    # an all-zero column (with a signed zero), and a column whose leading
    # entries sit below 1e-8 of its largest magnitude
    a[..., :, 0] = 0.0
    a[..., 0, 0] = complex(-0.0, -0.0)
    if a.shape[-1] > 2:
        a[..., :2, 1] = 1e-12 * (1.0 - 1.0j)
    return a


@pytest.mark.parametrize("n", [1, 2, 3, 17, 64])
def test_fix_phases_matches_column_loop(rng, n):
    from confspec.calculus import _fix_phases
    for scale in (1e-6, 1.0, 1e6):
        a = scale * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        for candidate in (a, _awkward_columns(a.copy())):
            expected = _fix_phases_loop(candidate)
            assert _fix_phases(candidate).tobytes() == expected.tobytes()
    h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    _, vectors = np.linalg.eigh(h + h.conj().T)
    assert _fix_phases(vectors).tobytes() == _fix_phases_loop(vectors).tobytes()


@pytest.mark.parametrize("sites,r", [(1, 1), (64, 1), (5, 2), (64, 2), (7, 3)])
def test_fix_phases_on_block_stacks_matches_dense_convention(rng, sites, r):
    # each block gets exactly what the column loop does to the embedded
    # block-diagonal matrix
    from confspec.calculus import _fix_phases
    stack = rng.normal(size=(sites, r, r)) + 1j * rng.normal(size=(sites, r, r))
    for candidate in (stack, _awkward_columns(stack.copy())):
        dense = _fix_phases_loop(_block_diagonal(candidate))
        index = np.arange(sites)
        expected = dense.reshape(sites, r, sites, r)[index, :, index, :]
        assert _fix_phases(candidate).tobytes() == expected.tobytes()


# ------------------------------------------------------- eigen diagnostics

def _recomputed_diagnostics(op, decomp):
    v = decomp.vectors
    residual = np.max(np.abs(op.matrix @ v - v * decomp.eigenvalues))
    ortho = np.max(np.abs(v.conj().T @ v - np.eye(op.size)))
    return residual, ortho


def test_eigen_diagnostics_match_recomputation(rng, dirac_curved_s1, dirac_t2_c2):
    for op in (_random_hermitian(rng, 48), dirac_curved_s1, dirac_t2_c2):
        decomp = eigendecompose(op)
        residual, ortho = _recomputed_diagnostics(op, decomp)
        # dense products of the returned vectors round differently from the
        # per-block products only in the last bits of the maximum
        assert decomp.residual == pytest.approx(residual, rel=1e-2, abs=0.0)
        assert decomp.orthonormality_defect == pytest.approx(ortho, rel=1e-2, abs=0.0)
        assert decomp.residual <= 1e-9 * max(decomp.scale, 1.0)
        assert decomp.orthonormality_defect <= 1e-10


def test_eigen_diagnostics_of_diagonal_are_exact():
    decomp = eigendecompose(_diag_op([3.0, 1.0, 2.0, 4.0]))
    assert decomp.residual == 0.0
    assert decomp.orthonormality_defect == 0.0


# ------------------------------------------------------ mode-block bypass

def _dense_reference(op, weights_of):
    lam, vec = np.linalg.eigh(op.matrix)
    tau = 1e-8 * np.max(np.abs(lam))
    return (vec * weights_of(lam, tau)) @ vec.conj().T, int(np.sum(np.abs(lam) <= tau))


_REFERENCE_WEIGHTS = {
    "sign": lambda lam, tau: np.where(np.abs(lam) <= tau, 0.0, np.sign(lam)),
    "zero": lambda lam, tau: (np.abs(lam) <= tau).astype(float),
    "plus": lambda lam, tau: ((np.abs(lam) > tau) & (lam > 0)).astype(float),
    "minus": lambda lam, tau: ((np.abs(lam) > tau) & (lam < 0)).astype(float),
}


@pytest.mark.parametrize("n", [8, 12])
@pytest.mark.parametrize("modulus", [1.0, 2.0])
@pytest.mark.parametrize("parities", [("periodic", "periodic"),
                                      ("antiperiodic", "antiperiodic"),
                                      ("antiperiodic", "periodic")])
def test_block_path_matches_dense_reference(n, modulus, parities):
    from confspec import SpinStructure, make_torus_metric
    dirac = build_dirac(make_torus_metric(modulus, np.zeros((n, n)), 0),
                        SpinStructure(parities))
    for kind, weights_of in _REFERENCE_WEIGHTS.items():
        expected, kernel = _dense_reference(dirac, weights_of)
        got = (sign_of(dirac) if kind == "sign"
               else spectral_projector(dirac, which=kind)).matrix
        assert np.max(np.abs(got - expected)) <= 1e-13
    assert kernel_rank(dirac) == kernel == (2 if parities == ("periodic", "periodic") else 0)


def test_block_path_keeps_the_phase_convention(dirac_t2_c2):
    decomp = eigendecompose(dirac_t2_c2)
    assert np.all(np.diff(decomp.eigenvalues) >= 0.0)
    mags = np.abs(decomp.vectors)
    lead_rows = np.argmax(mags > 1e-8 * mags.max(axis=0), axis=0)
    lead = decomp.vectors[lead_rows, np.arange(dirac_t2_c2.size)]
    assert np.all(lead.real > 0.0)
    assert np.max(np.abs(lead.imag)) <= 1e-15


def test_block_sign_is_exactly_zero_on_the_zero_mode(dirac_t2_c1):
    signed = sign_of(dirac_t2_c1)
    site = int(np.flatnonzero(np.all(dirac_t2_c1.grid.modes() == 0, axis=1))[0])
    block = signed.matrix[2 * site:2 * site + 2, 2 * site:2 * site + 2]
    assert np.all(block == 0.0)
    assert np.all(signed.matrix[2 * site:2 * site + 2] == 0.0)


def test_flat_torus_sign_takes_no_dense_eigh(monkeypatch, dirac_t2_c2):
    shapes = []
    original = np.linalg.eigh

    def spy(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    sign_of(dirac_t2_c2)
    n = dirac_t2_c2.size
    assert shapes == [(dirac_t2_c2.grid.sites, 2, 2)]
    assert (n, n) not in shapes


def test_dense_operator_takes_dense_eigh(monkeypatch, dirac_curved_s1):
    shapes = []
    original = np.linalg.eigh

    def spy(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    sign_of(dirac_curved_s1)
    assert shapes == [(dirac_curved_s1.size, dirac_curved_s1.size)]


# --------------------------------------------------------- graded (chiral) path

_SPINS = [("periodic", "periodic"), ("antiperiodic", "antiperiodic"),
          ("antiperiodic", "periodic")]


def _curved_torus(n, modulus, parities, amplitude=0.2):
    from confspec import SpinStructure, make_torus_metric
    from conftest import circle_theta
    x, y = np.meshgrid(circle_theta(n), circle_theta(n), indexing="ij")
    v = amplitude * (np.sin(x) + 0.5 * np.cos(x + y) - 0.3 * np.sin(2 * y))
    return build_dirac(make_torus_metric(modulus, v, 2), SpinStructure(parities))


def _eigh_function(op, kind, tol=None):
    """Sign or projector from the dense reference decomposition."""
    decomp = eigendecompose(op)
    lam = decomp.eigenvalues
    tau = 1e-8 * decomp.scale if tol is None else tol
    return decomp.apply_function(_REFERENCE_WEIGHTS[kind](lam, tau)), \
        int(np.count_nonzero(np.abs(lam) <= tau))


@pytest.mark.parametrize("n", [8, 16])
@pytest.mark.parametrize("modulus", [1.0, 2.0])
@pytest.mark.parametrize("parities", _SPINS)
def test_graded_path_matches_dense_eigh(n, modulus, parities):
    dirac = _curved_torus(n, modulus, parities)
    for kind in _REFERENCE_WEIGHTS:
        expected, kernel = _eigh_function(dirac, kind)
        got = (sign_of(dirac) if kind == "sign"
               else spectral_projector(dirac, which=kind))
        assert got.hermitian
        assert np.max(np.abs(got.matrix - expected)) <= 1e-13
    assert kernel_rank(dirac) == kernel == (2 if parities == ("periodic", "periodic") else 0)


def test_graded_path_honours_an_explicit_tolerance():
    # a tolerance above the smallest singular values widens the kernel the
    # same way on both paths
    dirac = _curved_torus(8, 1.0, ("antiperiodic", "antiperiodic"))
    tol = 1.0
    expected, kernel = _eigh_function(dirac, "sign", tol)
    assert kernel == 8  # |lambda| of 0.648 and 0.745, four times each
    assert np.max(np.abs(sign_of(dirac, tol=tol).matrix - expected)) <= 1e-13
    assert kernel_rank(dirac, tol=tol) == kernel
    zero, _ = _eigh_function(dirac, "zero", tol)
    got = spectral_projector(dirac, which="zero", tol=tol).matrix
    assert np.max(np.abs(got - zero)) <= 1e-13


def test_curved_torus_takes_one_chiral_svd_and_no_eigh(monkeypatch):
    dirac = _curved_torus(8, 1.0, ("antiperiodic", "periodic"))
    calls = []
    originals = {name: getattr(np.linalg, name) for name in ("eigh", "svd")}

    def spy(name):
        def call(a, *args, **kwargs):
            calls.append((name, np.shape(a)))
            return originals[name](a, *args, **kwargs)
        return call

    for name in originals:
        monkeypatch.setattr(np.linalg, name, spy(name))
    sign_of(dirac)
    sites = dirac.grid.sites
    assert calls == [("svd", (sites, sites))]


@pytest.mark.parametrize("factor", ["w", "sigma", "vh", "kernel"])
def test_chiral_svd_gates_reject_perturbed_factors(monkeypatch, factor):
    original = np.linalg.svd

    def perturbed(a, *args, **kwargs):
        w, sigma, vh = original(a, *args, **kwargs)
        w, sigma, vh = w.copy(), sigma.copy(), vh.copy()
        if factor == "w":
            w[0, 0] += 1e-6
        elif factor == "sigma":
            sigma[0] *= 1.0 + 1e-6
        elif factor == "vh":
            vh[0, 0] += 1e-6
        else:
            # lengthen the left kernel vector: A* w_0 stays 0, so both
            # residuals pass and only the orthonormality gate can see it
            w[:, -1] *= 1.0 + 1e-6
        return w, sigma, vh

    dirac = _curved_torus(8, 1.0, ("periodic", "periodic"))
    monkeypatch.setattr(np.linalg, "svd", perturbed)
    match = "orthonormal" if factor == "kernel" else "residual"
    for call in (lambda: sign_of(dirac), lambda: kernel_rank(dirac),
                 lambda: spectral_projector(dirac, which="plus")):
        with pytest.raises(ValueError, match=match):
            call()


@pytest.mark.parametrize("tol", [-1e-3, float("nan"), float("inf")])
def test_bad_tolerance_is_rejected_on_graded_and_dense_paths(tol, dirac_curved_s1):
    graded = _curved_torus(8, 1.0, ("antiperiodic", "antiperiodic"))
    for op in (graded, dirac_curved_s1):
        for call in (lambda: sign_of(op, tol=tol), lambda: kernel_rank(op, tol=tol),
                     lambda: spectral_projector(op, which="zero", tol=tol)):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                call()


def test_flat_operators_keep_the_mode_block_path(monkeypatch, dirac_t2_c1, dirac_t2_c2,
                                                 dirac_flat_s1):
    # a flat torus is graded too, but its mode blocks are found first: its
    # sign is bit-identical to the mode-block decomposition's, and no SVD runs
    original = np.linalg.svd

    def refuse(*args, **kwargs):
        raise AssertionError("a flat operator took the graded path")

    import confspec.calculus
    scan = confspec.calculus._mode_blocks
    scans = []

    def counted(op):
        scans.append(op)
        return scan(op)

    for op in (dirac_t2_c1, dirac_t2_c2, dirac_flat_s1):
        decomp = eigendecompose(op)
        assert decomp.block_vectors.shape[1:] == (op.rank, op.rank)
        tau = 1e-8 * decomp.scale
        expected = decomp.apply_function(_REFERENCE_WEIGHTS["sign"](decomp.eigenvalues, tau))
        monkeypatch.setattr(np.linalg, "svd", refuse)
        monkeypatch.setattr(confspec.calculus, "_mode_blocks", counted)
        got = sign_of(op).matrix
        monkeypatch.setattr(np.linalg, "svd", original)
        monkeypatch.setattr(confspec.calculus, "_mode_blocks", scan)
        assert got.tobytes() == expected.tobytes()
        # the structure scan runs once: eigendecompose gets the blocks it found
        assert scans == [op]
        scans.clear()


def test_chiral_svd_diagnostics_match_recomputation():
    from confspec.calculus import _chiral_block, _graded_decompose
    dirac = _curved_torus(8, 2.0, ("antiperiodic", "periodic"))
    a = _chiral_block(dirac)
    decomp = _graded_decompose(a)
    v = decomp.vh.conj().T
    eye = np.eye(a.shape[0])
    residual = max(np.max(np.abs(a @ v - decomp.w * decomp.sigma)),
                   np.max(np.abs(a.conj().T @ decomp.w - v * decomp.sigma)))
    ortho = max(np.max(np.abs(decomp.w.conj().T @ decomp.w - eye)),
                np.max(np.abs(decomp.vh @ v - eye)))
    assert decomp.residual == residual
    assert decomp.orthonormality_defect == ortho
    assert decomp.scale == pytest.approx(np.max(np.abs(eigendecompose(dirac).eigenvalues)),
                                         rel=1e-13)
