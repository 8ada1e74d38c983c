"""Discretized Dirac and multiplication operators in the Fourier basis.

All operators act on Fourier coefficient vectors.  A rank-r spinor bundle on
a grid with S sites gives vectors of length S * r, the spinor index varying
fastest.  Multiplication operators are the exact DFT conjugation of pointwise
multiplication on the sample grid, so products and brackets of multipliers
satisfy their algebraic identities to machine precision.

The conformal Dirac operator is the symmetric sandwich

    D_g = M(exp(-v/2)) D_flat M(exp(-v/2)),

the unitary image of the curved-metric operator inside the flat-measure
Hilbert space of the background.  Spin structures enter only through the
half-integer shifts of the flat symbol.  On the torus the envelope is
scalar and the flat symbol is off-diagonal in the spinor index, so D_g is
[[0, A], [A*, 0]] in the spinor grading, with the sites x sites chiral
block A = M(exp(-v/2)) diag(p_x - i p_y) M(exp(-v/2)).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from ._basis import TAU, spectral_derivative
from .geometry import Grid, Metric, _as_point, _as_tuple

PERIODIC = "periodic"
ANTIPERIODIC = "antiperiodic"

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_X.flags.writeable = False
PAULI_Y.flags.writeable = False


@dataclass(frozen=True)
class SpinStructure:
    """Choice of spinor periodicity per generator of the torus/circle.

    ``periodic`` leaves the Fourier modes at integers, ``antiperiodic``
    shifts them by one half.
    """

    parities: tuple[str, ...]

    def __post_init__(self):
        parities = tuple(self.parities) if not isinstance(self.parities, str) \
            else (self.parities,)
        for p in parities:
            if p not in (PERIODIC, ANTIPERIODIC):
                raise ValueError(f"unknown spin parity {p!r}")
        if len(parities) not in (1, 2):
            raise ValueError("spin structures cover 1 or 2 generators")
        object.__setattr__(self, "parities", parities)

    @property
    def deltas(self) -> tuple[float, ...]:
        return tuple(0.5 if p == ANTIPERIODIC else 0.0 for p in self.parities)

    @property
    def dim(self) -> int:
        return len(self.parities)


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """Dense operator on Fourier coefficient vectors.

    ``metric`` and ``spin`` are set only when the matrix is the Dirac
    operator assembled from that metric; derived operators (sign, spectral
    projectors, brackets) drop the metric so that provenance-dependent code
    paths never misfire.
    """

    matrix: np.ndarray
    grid: Grid
    rank: int = 1
    hermitian: bool = False
    spin: SpinStructure | None = None
    metric: Metric | None = dataclasses.field(default=None, repr=False)
    tolerance: float | None = None

    def __post_init__(self):
        a = np.array(self.matrix, dtype=complex)
        n = self.grid.sites * self.rank
        if a.shape != (n, n):
            raise ValueError(f"expected a {n} x {n} matrix, got shape {a.shape}")
        if self.hermitian:
            drift = _hermitian_drift(a)
            if drift > 1e-10:
                raise ValueError(f"matrix declared hermitian but |A - A*| = {drift:.3e}")
        object.__setattr__(self, "matrix", a)
        self.matrix.flags.writeable = False

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    @property
    def blocks(self) -> np.ndarray:
        """The matrix as a one-block stack, shape (1, n, n)."""
        return self.matrix[None]

    def norm(self) -> float:
        """Spectral (operator) norm."""
        return float(np.linalg.norm(self.matrix, 2))


@dataclass(frozen=True, eq=False)
class BlockDiagonalOperator:
    """Hermitian block-diagonal operator kept as its (blocks, m, m) stack.

    Block b acts on coefficients b*m to (b+1)*m - 1.  With one block per
    grid site (m = rank) these are the on-site mode blocks of a flat
    operator; a single block is a dense operator.  The stack is checked
    for Hermitian drift against the same 1e-10 bound as OperatorMatrix and
    is never copied or embedded into an n x n matrix.
    """

    blocks: np.ndarray
    grid: Grid
    rank: int = 1

    def __post_init__(self):
        blocks = np.asarray(self.blocks, dtype=complex)
        if blocks.ndim != 3 or blocks.shape[1] != blocks.shape[2] \
                or blocks.shape[0] * blocks.shape[1] != self.grid.sites * self.rank:
            raise ValueError(f"expected a (blocks, m, m) stack covering "
                             f"{self.grid.sites * self.rank} rows, got shape {blocks.shape}")
        drift = _hermitian_drift(blocks)
        if drift > 1e-10:
            raise ValueError(f"blocks declared hermitian but |A - A*| = {drift:.3e}")
        object.__setattr__(self, "blocks", blocks)
        self.blocks.flags.writeable = False

    @property
    def size(self) -> int:
        return self.blocks.shape[0] * self.blocks.shape[1]


def _hermitian_drift(a: np.ndarray, band: int = 128) -> float:
    """Largest entry of |A - A*| over a matrix or a stack of square blocks,
    from the upper triangle one band of rows at a time, so that a dense
    n x n matrix needs no n x n temporary."""
    t = np.swapaxes(a, -1, -2)
    return max((float(np.max(np.abs(a[..., i:i + band, i:] - t[..., i:i + band, i:].conj())))
                for i in range(0, a.shape[-1], band)), default=0.0)


def _difference_index(grid: Grid) -> np.ndarray:
    """Flat mode index of k - l (mod N on each axis) for every pair of
    flat mode indices (k, l), shape (sites, sites)."""
    idx = np.zeros((1, 1), dtype=np.intp)
    for n in grid.shape:
        d = (np.arange(n)[:, None] - np.arange(n)) % n
        idx = (idx[:, None, :, None] * n + d[None, :, None, :]).reshape(idx.shape[0] * n, -1)
    return idx


def multiplication_operator(samples, grid: Grid, rank: int = 1) -> OperatorMatrix:
    """Multiplication by a function, conjugated into the Fourier basis.

    Parameters
    ----------
    samples : array_like
        Either scalar values per site, shape ``grid.shape`` or ``(sites,)``,
        or a matrix-valued field of shape ``grid.shape + (rank, rank)`` or
        ``(sites, rank, rank)``.
    grid : Grid
    rank : int
        Spinor rank of the target bundle.

    A constant scalar is represented exactly as that multiple of the
    identity.  Any other field f (a scalar one as the blocks f I) is
    block-circulant in modes, M[(k, a), (l, b)] = fftn(f)[k - l, a, b] / S
    with mode differences taken mod N on each axis, which is the full DFT
    conjugation F* diag(f) F.  Multiplication operators therefore compose
    exactly: M(f) M(g) = M(f g) to machine precision.
    """
    f = np.asarray(samples)
    s = grid.sites
    if f.shape in (grid.shape, (s,)):
        flat = f.reshape(s).astype(complex)
        if np.all(flat == flat[0]):
            return OperatorMatrix(matrix=flat[0] * np.eye(s * rank, dtype=complex),
                                  grid=grid, rank=rank,
                                  hermitian=bool(flat[0].imag == 0.0))
        f = flat[:, None, None] * np.eye(rank)
    elif f.shape not in (grid.shape + (rank, rank), (s, rank, rank)):
        raise ValueError(f"samples of shape {f.shape} match neither a scalar field "
                         f"nor a rank-{rank} matrix field")
    blocks = f.reshape(grid.shape + (rank, rank)).astype(complex)
    hermitian = bool(np.max(np.abs(blocks - np.swapaxes(blocks, -1, -2).conj())) == 0.0)
    spectrum = np.fft.fftn(blocks, axes=tuple(range(grid.dim))).reshape(s, rank, rank) / s
    spinor = np.arange(rank)
    m = spectrum[_difference_index(grid)[:, None, :, None],
                 spinor[None, :, None, None], spinor[None, None, None, :]]
    return OperatorMatrix(matrix=m.reshape(s * rank, s * rank), grid=grid, rank=rank,
                          hermitian=hermitian)


def _flat_symbol_blocks(metric: Metric, spin: SpinStructure) -> np.ndarray:
    """Flat Dirac symbol per mode: shape (sites,) for the circle, else
    (sites, 2, 2)."""
    scales = metric.background.axis_scales()
    deltas = spin.deltas
    modes = metric.grid.modes().astype(float)
    if metric.dim == 1:
        return scales[0] * (modes[:, 0] + deltas[0])
    kx = scales[0] * (modes[:, 0] + deltas[0])
    ky = scales[1] * (modes[:, 1] + deltas[1])
    return kx[:, None, None] * PAULI_X + ky[:, None, None] * PAULI_Y


def flat_dirac(metric: Metric, spin: SpinStructure) -> OperatorMatrix:
    """Dirac operator of the flat background, diagonal (circle) or
    2x2-block-diagonal (torus) in the Fourier basis."""
    if spin.dim != metric.dim:
        raise ValueError("spin structure dimension does not match the metric")
    s = metric.grid.sites
    blocks = _flat_symbol_blocks(metric, spin)
    if metric.dim == 1:
        d = np.diag(blocks.astype(complex))
    else:
        full = np.zeros((s, 2, s, 2), dtype=complex)
        full[np.arange(s), :, np.arange(s), :] = blocks
        d = full.reshape(2 * s, 2 * s)
    return OperatorMatrix(matrix=d, grid=metric.grid, rank=metric.spinor_rank,
                          hermitian=True, spin=spin, metric=metric)


def build_dirac(metric: Metric, spin: SpinStructure, grid: Grid | None = None) -> OperatorMatrix:
    """Dirac operator of ``exp(2v) g_flat`` in the flat-measure Hilbert space.

    Parameters
    ----------
    metric : Metric
    spin : SpinStructure
        One parity per generator; the count must match the dimension.
    grid : Grid, optional
        Must equal ``metric.grid`` when given; accepted for symmetry with
        the rest of the API.

    Returns
    -------
    OperatorMatrix
        Hermitian, with ``metric`` and ``spin`` provenance attached.

    Notes
    -----
    When v vanishes identically the flat operator is returned as built, with
    no numerical conjugation: multiplication by the constant 1 is exactly
    the identity.  A curved torus operator is assembled from its chiral
    block A and A*, so it is exactly Hermitian with exactly zero
    chiral-diagonal quarters; a curved circle operator is the symmetrized
    sandwich.
    """
    if grid is not None and grid != metric.grid:
        raise ValueError("explicit grid does not match the metric's grid")
    if spin.dim != metric.dim:
        raise ValueError(
            f"need {metric.dim} spin parities for a {metric.dim}-dimensional metric")
    v = metric.factor.samples
    if np.all(v == 0.0):
        return flat_dirac(metric, spin)
    envelope = multiplication_operator(np.exp(-0.5 * v), metric.grid).matrix
    if metric.dim == 1:
        d = envelope @ flat_dirac(metric, spin).matrix @ envelope
        d = 0.5 * (d + d.conj().T)
    else:
        # the scalar envelope keeps D odd for the spinor grading, so only
        # the chiral block E diag(p_x - i p_y) E is a product
        s = metric.grid.sites
        a = (envelope * _flat_symbol_blocks(metric, spin)[:, 0, 1]) @ envelope
        d = np.zeros((s, 2, s, 2), dtype=complex)
        d[:, 0, :, 1] = a
        d[:, 1, :, 0] = a.conj().T
        d = d.reshape(2 * s, 2 * s)
    return OperatorMatrix(matrix=d, grid=metric.grid, rank=metric.spinor_rank,
                          hermitian=True, spin=spin, metric=metric)


def clifford(metric: Metric, x, xi) -> np.ndarray:
    """Clifford action ``c_g(xi)`` at the point x, an anti-hermitian
    rank x rank matrix."""
    x = _as_point(x, metric.dim)
    xi = _as_tuple(xi)
    if len(xi) != metric.dim:
        raise ValueError("covector components must match the metric dimension")
    scale = np.exp(-metric.factor_at(x))
    s = metric.background.axis_scales()
    if metric.dim == 1:
        return np.array([[-1j * scale * s[0] * xi[0]]], dtype=complex)
    return -1j * scale * (s[0] * xi[0] * PAULI_X + s[1] * xi[1] * PAULI_Y)


def _clifford_derivative_field(metric: Metric, a_samples: np.ndarray):
    """Pointwise Clifford action of da on the metric's grid.

    Returns scalar samples (circle) or 2x2 blocks per site (torus), plus the
    coarse derivative arrays for reuse by the norm routine.
    """
    a = np.asarray(a_samples, dtype=float).reshape(metric.grid.shape)
    v = metric.factor.samples
    scales = metric.background.axis_scales()
    if metric.dim == 1:
        da = spectral_derivative(a, axis=0, period=TAU)
        w = -1j * scales[0] * da * np.exp(-v)
        return w, (da,)
    dax = spectral_derivative(a, axis=0, period=TAU)
    day = spectral_derivative(a, axis=1, period=TAU)
    env = np.exp(-v)
    blocks = (-1j * env)[..., None, None] * (
        scales[0] * dax[..., None, None] * PAULI_X
        + scales[1] * day[..., None, None] * PAULI_Y)
    return blocks, (dax, day)


def commutator(op: OperatorMatrix, a_samples) -> OperatorMatrix:
    """Bracket [op, M(a)] with a real scalar function a.

    For a Dirac operator carrying metric provenance the bracket is assembled
    analytically as the multiplication operator by the Clifford action of
    da, the exact first-order action with no truncation-boundary artifacts.
    For any other operator the literal matrix bracket is returned.
    """
    a = np.asarray(a_samples, dtype=float)
    if op.metric is not None:
        field, _ = _clifford_derivative_field(op.metric, a)
        return multiplication_operator(field, op.grid, rank=op.rank)
    m = multiplication_operator(a, op.grid, rank=op.rank)
    return OperatorMatrix(matrix=op.matrix @ m.matrix - m.matrix @ op.matrix,
                          grid=op.grid, rank=op.rank)


def commutator_norm(op: OperatorMatrix, a_samples) -> float:
    """Operator norm of [op, M(a)].

    For a Dirac-provenance operator the bracket is a multiplication
    operator, whose spectral norm is exactly the largest pointwise Clifford
    norm sqrt(g*(da, da)) over the grid; that maximum is returned without
    assembling the matrix.  Other operators get the dense spectral norm of
    the literal bracket.
    """
    a = np.asarray(a_samples, dtype=float)
    if op.metric is None:
        return commutator(op, a).norm()
    metric = op.metric
    _, derivs = _clifford_derivative_field(metric, a)
    scales = metric.background.axis_scales()
    flat_sq = sum((s * d) ** 2 for s, d in zip(scales, derivs))
    return float(np.max(np.exp(-metric.factor.samples) * np.sqrt(flat_sq)))
