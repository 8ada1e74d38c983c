"""Hermitian functional calculus: the matrix sign function and spectral
projectors.

The kernel of a discretized operator is never exactly zero, so a relative
threshold tau stands in for "eigenvalue equals zero"; every result records
the tau it was computed with.

One structure scan per operator picks how it is decomposed:

1. Operators whose nonzeros all sit in the rank x rank block of their own
   Fourier mode (flat Dirac operators, and any diagonal matrix) take one
   batched ``eigh`` over the (sites, rank, rank) stack, and every function
   of the operator is assembled per block.  Conformal detection keeps the
   sign as that block stack and never assembles the n x n matrix.
2. Rank-2 operators that are odd for the spinor grading, [[0, A], [A*, 0]]
   with both chiral-diagonal quarters exactly zero (every curved torus
   Dirac operator), take the SVD A = W diag(sigma) V* of the sites x sites
   chiral block.  The eigenvalues of the operator are +-sigma, so
   sign = [[0, U], [U*, 0]] with U = W' V'* the polar factor over the
   singular values above tau, P_0 = diag(I - W'W'*, I - V'V'*) and
   P_+- = (I - P_0 +- sign) / 2.  The SVD residuals and the
   orthonormality of W and V are checked as the eigen residuals are.
3. All other operators take one dense ``eigh``.

``eigendecompose`` knows only the first and last kind and is the dense
reference the graded path is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geometry import Grid
from .operators import BlockDiagonalOperator, OperatorMatrix

DEFAULT_RELATIVE_TAU = 1e-8

PROJECTOR_KINDS = ("plus", "minus", "zero")


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Checked eigendecomposition of a Hermitian operator, kept per block.

    Block b of the operator is ``V_b diag(lambda_b) V_b*`` with
    ``block_eigenvalues`` of shape (blocks, m) and ``block_vectors`` of
    shape (blocks, m, m): one rank x rank block per grid site for a
    mode-block-diagonal operator, a single n x n block otherwise.
    ``eigenvalues`` and ``vectors`` give the same decomposition in flat
    form, ascending eigenvalues (stable among equal ones) with the matching
    dense orthonormal eigenvectors.

    ``residual`` is the largest entry of ``A V - V diag(eigenvalues)`` and
    ``orthonormality_defect`` the largest entry of ``V* V - I``, both as
    measured when the decomposition was computed.
    """

    block_eigenvalues: np.ndarray
    block_vectors: np.ndarray
    grid: Grid
    rank: int
    residual: float
    orthonormality_defect: float

    def __post_init__(self):
        object.__setattr__(self, "block_eigenvalues",
                           np.asarray(self.block_eigenvalues, dtype=float))
        object.__setattr__(self, "block_vectors", np.asarray(self.block_vectors, dtype=complex))
        self.block_eigenvalues.flags.writeable = False
        self.block_vectors.flags.writeable = False

    @cached_property
    def _order(self) -> np.ndarray:
        return np.argsort(self.block_eigenvalues, axis=None, kind="stable")

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        out = self.block_eigenvalues.reshape(-1)[self._order]
        out.flags.writeable = False
        return out

    @cached_property
    def vectors(self) -> np.ndarray:
        out = _embed(self.block_vectors)[:, self._order]
        out.flags.writeable = False
        return out

    @property
    def scale(self) -> float:
        """Largest absolute eigenvalue, the spectral norm of the operator."""
        return float(np.max(np.abs(self.block_eigenvalues), initial=0.0))

    def apply_function(self, values: np.ndarray) -> np.ndarray:
        """Assemble the symmetrized V diag(values) V* for per-eigenvalue
        weights (aligned with ``eigenvalues``), block by block."""
        weights = np.empty(self.block_eigenvalues.size)
        weights[self._order] = values
        return _embed(self._function_blocks(weights.reshape(self.block_eigenvalues.shape)))

    def _function_blocks(self, weights: np.ndarray) -> np.ndarray:
        """The (blocks, m, m) stack of symmetrized V_b diag(w_b) V_b* for
        weights shaped like ``block_eigenvalues``."""
        v = self.block_vectors
        # the result is allocated before the temporaries: detection keeps
        # it, and a kept array above freed ones holds the heap up
        blocks = np.empty_like(v)
        np.matmul(v * weights[:, None, :], np.swapaxes(v.conj(), -1, -2), out=blocks)
        blocks += np.swapaxes(blocks.conj(), -1, -2)
        blocks *= 0.5
        return blocks


def _embed(blocks: np.ndarray) -> np.ndarray:
    """Block-diagonal dense matrix from a (blocks, m, m) stack."""
    b, m, _ = blocks.shape
    if b == 1:
        return blocks[0]
    out = np.zeros((b, m, b, m), dtype=blocks.dtype)
    index = np.arange(b)
    out[index, :, index, :] = blocks
    return out.reshape(b * m, b * m)


def _fix_phases(vectors: np.ndarray) -> np.ndarray:
    """Rotate each eigenvector so its first significant component is real
    and positive; makes repeated decompositions reproducible.

    Columns are eigenvectors, of one ``(n, n)`` matrix or of every block of
    an ``(S, r, r)`` stack.  A component is significant above ``1e-8`` times
    its column's largest magnitude; an all-zero column keeps its phase.
    """
    out = np.array(vectors)
    mags = np.abs(out)
    tops = mags.max(axis=-2, keepdims=True)
    tops[tops == 0.0] = 1.0
    significant = mags > 1e-8 * tops
    lead = np.take_along_axis(out, np.argmax(significant, axis=-2)[..., None, :], axis=-2)
    # hypot, not np.abs: the scalar magnitude the per-column convention used
    with np.errstate(invalid="ignore"):
        factor = lead.conj() / np.hypot(lead.real, lead.imag)
    factor[~significant.any(axis=-2, keepdims=True)] = 1.0
    out *= factor
    return out


def _mode_blocks(op: OperatorMatrix) -> np.ndarray | None:
    """The (sites, rank, rank) stack of on-site blocks, or None when some
    nonzero of the matrix lies outside them."""
    s, r = op.grid.sites, op.rank
    sites = np.arange(s)
    blocks = op.matrix.reshape(s, r, s, r)[sites, :, sites, :]
    if np.count_nonzero(blocks) != np.count_nonzero(op.matrix):
        return None
    return blocks


def eigendecompose(op: OperatorMatrix | BlockDiagonalOperator) -> SpectralDecomposition:
    """Eigendecomposition of a Hermitian operator.

    When every nonzero of the matrix lies in the rank x rank block of its
    own grid site, one batched ``eigh`` runs over the (sites, rank, rank)
    stack; on a diagonal matrix this is a permutation of the diagonal,
    computed without round-off.  Any other operator takes one dense
    ``eigh``.  A BlockDiagonalOperator is decomposed over its own block
    stack, with no scan.  Phases follow the first-significant-component
    convention.

    Raises
    ------
    ValueError
        If the operator was not built as Hermitian, or if the residual
        ``A V - V diag`` (against 1e-9 * max(scale, 1)) or the
        orthonormality defect (against 1e-10) of any block exceeds
        tolerance.
    """
    if isinstance(op, BlockDiagonalOperator):
        blocks = op.blocks
    elif not op.hermitian:
        raise ValueError("eigendecompose needs an operator built as Hermitian")
    else:
        blocks = _mode_blocks(op)
    if blocks is None:
        lam, vec = np.linalg.eigh(op.matrix)
        blocks, lam, vec = op.matrix[None], lam[None], vec[None]
    else:
        lam, vec = np.linalg.eigh(blocks)
    vec = _fix_phases(vec)
    scale = max(float(np.max(np.abs(lam), initial=0.0)), 1.0)
    residual = float(np.max(np.abs(blocks @ vec - vec * lam[:, None, :])))
    if residual > 1e-9 * scale:
        raise ValueError(f"eigendecomposition residual {residual:.3e} exceeds 1e-9 * scale")
    gram = np.swapaxes(vec.conj(), -1, -2) @ vec
    ortho = float(np.max(np.abs(gram - np.eye(vec.shape[-1]))))
    if ortho > 1e-10:
        raise ValueError(f"eigenvectors not orthonormal: defect {ortho:.3e}")
    return SpectralDecomposition(block_eigenvalues=lam, block_vectors=vec, grid=op.grid,
                                 rank=op.rank, residual=residual,
                                 orthonormality_defect=ortho)


@dataclass(frozen=True, eq=False)
class _GradedDecomposition:
    """Checked SVD A = W diag(sigma) V* of the chiral block of a graded
    operator [[0, A], [A*, 0]]; ``vh`` is V*, ``sigma`` descends.

    ``residual`` is the larger of max|A V - W Sigma| and max|A* W - V Sigma|,
    ``orthonormality_defect`` the larger of max|W* W - I| and
    max|V* V - I|.
    """

    w: np.ndarray
    sigma: np.ndarray
    vh: np.ndarray
    residual: float
    orthonormality_defect: float

    @property
    def scale(self) -> float:
        """Largest singular value, the spectral norm of the operator."""
        return float(np.max(self.sigma, initial=0.0))

    def function(self, kind: str, tau: float) -> np.ndarray:
        """The sign, or the spectral projector ``kind`` (one of
        PROJECTOR_KINDS), as one n x n matrix, spinor index fastest."""
        k = int(np.count_nonzero(self.sigma > tau))
        w, vh = self.w[:, :k], self.vh[:k]
        s = self.sigma.size
        out = np.zeros((s, 2, s, 2), dtype=complex)
        if kind == "zero":
            for chirality, vectors in ((0, w), (1, vh.conj().T)):
                image = vectors @ vectors.conj().T
                out[:, chirality, :, chirality] = np.eye(s) - 0.5 * (image + image.conj().T)
            return out.reshape(2 * s, 2 * s)
        u = w @ vh
        out[:, 0, :, 1] = u
        out[:, 1, :, 0] = u.conj().T
        sign = out.reshape(2 * s, 2 * s)
        if kind == "sign":
            return sign
        odd = sign if kind == "plus" else -sign
        return 0.5 * (np.eye(2 * s) - self.function("zero", tau) + odd)


def _chiral_block(op: OperatorMatrix) -> np.ndarray | None:
    """The sites x sites block A of a rank-2 operator [[0, A], [A*, 0]] in
    the spinor grading, or None when the operator is not of that form."""
    if op.rank != 2:
        return None
    quarters = op.matrix.reshape(op.grid.sites, 2, op.grid.sites, 2)
    if np.any(quarters[:, 0, :, 0]) or np.any(quarters[:, 1, :, 1]):
        return None
    return np.ascontiguousarray(quarters[:, 0, :, 1])


def _graded_decompose(a: np.ndarray) -> _GradedDecomposition:
    """Checked SVD of a chiral block.

    Raises
    ------
    ValueError
        If max|A V - W Sigma| or max|A* W - V Sigma| exceeds
        1e-9 * max(sigma_max, 1), or if W or V is not orthonormal within
        1e-10.
    """
    w, sigma, vh = np.linalg.svd(a)
    v = vh.conj().T
    scale = max(float(np.max(sigma, initial=0.0)), 1.0)
    residual = max(float(np.max(np.abs(a @ v - w * sigma))),
                   float(np.max(np.abs(a.conj().T @ w - v * sigma))))
    if residual > 1e-9 * scale:
        raise ValueError(f"chiral SVD residual {residual:.3e} exceeds 1e-9 * scale")
    eye = np.eye(sigma.size)
    ortho = max(float(np.max(np.abs(w.conj().T @ w - eye))),
                float(np.max(np.abs(vh @ v - eye))))
    if ortho > 1e-10:
        raise ValueError(f"singular vectors not orthonormal: defect {ortho:.3e}")
    return _GradedDecomposition(w=w, sigma=sigma, vh=vh, residual=residual,
                                orthonormality_defect=ortho)


def _decompose(op: OperatorMatrix) -> SpectralDecomposition | _GradedDecomposition:
    """Decomposition after one structure scan: mode blocks, else graded,
    else dense (see the module docstring).  Mode blocks go to
    ``eigendecompose`` as a block stack, so a flat operator is scanned once;
    a dense one is scanned again there, O(n^2) beside its O(n^3) ``eigh``."""
    if not op.hermitian:
        raise ValueError("eigendecompose needs an operator built as Hermitian")
    blocks = _mode_blocks(op)
    if blocks is not None:
        return eigendecompose(BlockDiagonalOperator(blocks=blocks, grid=op.grid, rank=op.rank))
    chiral = _chiral_block(op)
    if chiral is not None:
        return _graded_decompose(chiral)
    return eigendecompose(op)


def _resolve_tau(dec, tol) -> float:
    if tol is None:
        return DEFAULT_RELATIVE_TAU * dec.scale
    tau = float(tol)
    if tau < 0.0 or not np.isfinite(tau):
        raise ValueError(f"tolerance must be finite and nonnegative, got {tau}")
    return tau


_WEIGHTS = {
    "sign": lambda lam, kernel: np.where(kernel, 0.0, np.sign(lam)),
    "plus": lambda lam, kernel: (~kernel & (lam > 0.0)).astype(float),
    "minus": lambda lam, kernel: (~kernel & (lam < 0.0)).astype(float),
    "zero": lambda lam, kernel: kernel.astype(float),
}


def _function_stack(op: OperatorMatrix, kind: str, tol=None) -> tuple[np.ndarray, float]:
    """The sign (``kind`` "sign") or a spectral projector of op as the
    (blocks, m, m) stack of its decomposition, with the kernel threshold
    it was computed with: one block per site for mode-block operators, a
    single n x n block otherwise."""
    dec = _decompose(op)
    tau = _resolve_tau(dec, tol)
    if isinstance(dec, _GradedDecomposition):
        return dec.function(kind, tau)[None], tau
    lam = dec.block_eigenvalues
    return dec._function_blocks(_WEIGHTS[kind](lam, np.abs(lam) <= tau)), tau


def _sign_blocks(op: OperatorMatrix, tol=None) -> tuple[np.ndarray, float]:
    """sign(op) as the (blocks, m, m) stack of its decomposition, with the
    kernel threshold it was computed with (see sign_of)."""
    return _function_stack(op, "sign", tol)


def sign_of(op: OperatorMatrix, tol=None) -> OperatorMatrix:
    """Bounded sign of a Hermitian operator: +1, -1, or 0 on each
    eigenvector, with eigenvalues within ``tol`` of zero counted as kernel.

    ``tol`` may be a float, or None for the default ``1e-8 * ||D||``.  The
    result keeps grid, rank, and spin but deliberately drops metric
    provenance: a sign is no longer a Dirac operator.
    """
    blocks, tau = _sign_blocks(op, tol)
    return OperatorMatrix(matrix=_embed(blocks), grid=op.grid, rank=op.rank,
                          hermitian=True, spin=op.spin, tolerance=tau)


def spectral_projector(op: OperatorMatrix, which: str = "zero", tol=None) -> OperatorMatrix:
    """Orthogonal projector onto the positive, negative, or near-kernel
    spectral subspace of a Hermitian operator."""
    if which not in PROJECTOR_KINDS:
        raise ValueError(f"which must be one of {PROJECTOR_KINDS}, got {which!r}")
    blocks, tau = _function_stack(op, which, tol)
    return OperatorMatrix(matrix=_embed(blocks), grid=op.grid, rank=op.rank,
                          hermitian=True, spin=op.spin, tolerance=tau)


def kernel_rank(op: OperatorMatrix, tol=None) -> int:
    """Number of eigenvalues within the kernel threshold."""
    dec = _decompose(op)
    tau = _resolve_tau(dec, tol)
    if isinstance(dec, _GradedDecomposition):
        return 2 * int(np.count_nonzero(dec.sigma <= tau))
    return int(np.count_nonzero(np.abs(dec.block_eigenvalues) <= tau))
