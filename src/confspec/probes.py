"""Principal-symbol estimation by oscillatory plane-wave probes.

An order-0 operator P is probed at a covector direction d by conjugating
with lattice characters: u_m = E(-m d) P E(m d) f for a band-limited bump f
concentrated at the base point.  As the frequency m grows, u_m converges to
the fiberwise action of the principal symbol on f; the residual sequence
quantifies how far the finite grid is from that limit.

Conjugation by a character is an exact index shift of Fourier coefficients.
Modes pushed past the truncation boundary are dropped and their mass is
reported as a truncation leak, never silently wrapped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Metric, _as_tuple, covector_norm
from .operators import BlockDiagonalOperator, OperatorMatrix, clifford

DEFAULT_PROBE_TOLERANCE = 0.05
THETA_VANISH = 0.05
THETA_PRESENT = 0.25

VANISHING = "vanishing"
NON_VANISHING = "non-vanishing"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class ProbeSpec:
    """One probe: a base point, a lattice direction, a frequency schedule,
    and the bump band.

    The schedule must be increasing and capped at N/4; the bump band at
    N/8.  Both caps keep shifted bumps away from the truncation boundary.
    """

    base_point: tuple[float, ...]
    direction: tuple[int, ...]
    schedule: tuple[int, ...]
    band: int
    tolerance: float = DEFAULT_PROBE_TOLERANCE

    def __post_init__(self):
        object.__setattr__(self, "base_point", _as_tuple(self.base_point))
        direction = self.direction if not np.isscalar(self.direction) else (self.direction,)
        direction = tuple(int(d) for d in direction)
        if all(d == 0 for d in direction):
            raise ValueError("probe direction must be a nonzero lattice covector")
        if len(direction) != len(self.base_point):
            raise ValueError("direction and base point dimensions differ")
        object.__setattr__(self, "direction", direction)
        schedule = tuple(int(m) for m in self.schedule)
        if not schedule or any(m <= 0 for m in schedule) or list(schedule) != sorted(set(schedule)):
            raise ValueError("schedule must be strictly increasing positive integers")
        object.__setattr__(self, "schedule", schedule)
        if int(self.band) < 1:
            raise ValueError("bump band must be at least 1")
        object.__setattr__(self, "band", int(self.band))
        if not (0.0 < self.tolerance):
            raise ValueError("tolerance must be positive")

    def validate_for(self, op: OperatorMatrix) -> None:
        n = min(op.grid.shape)
        if len(self.direction) != op.grid.dim:
            raise ValueError("probe dimension does not match the operator grid")
        if self.schedule[-1] > n // 4:
            raise ValueError(
                f"schedule top {self.schedule[-1]} exceeds the anti-aliasing cap N/4 = {n // 4}")
        if self.band > max(1, n // 8):
            raise ValueError(f"bump band {self.band} exceeds N/8 = {n // 8}")


def standard_probe(grid_shape, point, direction, band: int | None = None,
                   schedule=None, tolerance: float = DEFAULT_PROBE_TOLERANCE) -> ProbeSpec:
    """ProbeSpec with leak-free defaults.

    The default band is N/8 and the default schedule runs in four steps up
    to N/4 divided by the largest direction component, so shifted bumps
    stay strictly inside the mode window.
    """
    n = min(grid_shape)
    direction = direction if not np.isscalar(direction) else (direction,)
    direction = tuple(int(d) for d in direction)
    if band is None:
        band = max(1, n // 8)
    if schedule is None:
        top = max(1, (n // 4) // max(abs(d) for d in direction))
        schedule = sorted({max(1, (top * i) // 4) for i in range(1, 5)})
    return ProbeSpec(base_point=point, direction=direction,
                     schedule=tuple(schedule), band=int(band), tolerance=tolerance)


@dataclass(frozen=True, eq=False)
class SymbolEstimate:
    """Fitted fiber matrix with its residual history."""

    sigma: np.ndarray
    frequencies: tuple[int, ...]
    residuals: tuple[float, ...]
    truncation_leaks: tuple[float, ...]
    converged: bool
    base_point: tuple[float, ...]
    direction: tuple[int, ...]

    def __post_init__(self):
        sigma = np.asarray(self.sigma, dtype=complex)
        object.__setattr__(self, "sigma", sigma)
        self.sigma.flags.writeable = False
        if any(r < 0 for r in self.residuals):
            raise ValueError("residuals must be nonnegative")


@dataclass(frozen=True)
class ProbeRow:
    """One (point, direction, frequency) evidence row of a TestReport."""

    point_index: int
    point: tuple[float, ...]
    direction: tuple[int, ...]
    frequency: int
    residual: float
    leak: float


@dataclass(frozen=True)
class TestReport:
    """Outcome of a vanishing-symbol test."""

    rows: tuple[ProbeRow, ...]
    decision: str
    theta_vanish: float
    theta_present: float
    top_residuals: tuple[float, ...]

    @property
    def max_top_residual(self) -> float:
        return max(self.top_residuals) if self.top_residuals else 0.0


def _bump_coefficients(shape, periods, point, band: int) -> np.ndarray:
    """Unit-norm scalar bump spectrum concentrated at ``point``: a Gaussian
    mode window (sigma = band / 2.5) hard-truncated at ``band`` per axis,
    phased to center the bump."""
    from ._basis import TAU, ascending_modes

    out = np.ones((), dtype=complex)
    for n, period, x in zip(shape, periods, point):
        k = ascending_modes(n).astype(float)
        sigma = band / 2.5
        window = np.exp(-0.5 * (k / sigma) ** 2) * (np.abs(k) <= band)
        out = np.multiply.outer(out, window * np.exp(-1j * k * (TAU / period) * x))
    return out / np.linalg.norm(out)


def _shift_spectrum(cube: np.ndarray, shifts) -> tuple[np.ndarray, float]:
    """Shift coefficient axes by integer amounts, dropping modes that leave
    the window; returns the shifted array and the norm of the dropped
    entries."""
    out = np.zeros_like(cube)
    src = [slice(None)] * cube.ndim
    dst = [slice(None)] * cube.ndim
    for axis, m in enumerate(shifts):
        n = cube.shape[axis]
        lo, hi = max(0, m), min(n, n + m)
        if hi <= lo:
            return out, float(np.linalg.norm(cube))
        dst[axis] = slice(lo, hi)
        src[axis] = slice(lo - m, hi - m)
    out[tuple(dst)] = cube[tuple(src)]
    dropped = cube.copy()
    dropped[tuple(src)] = 0.0
    return out, float(np.linalg.norm(dropped))


def plane_wave_conjugate(op: OperatorMatrix, k) -> OperatorMatrix:
    """Character conjugation M(e^{-ik.x}) op M(e^{ik.x}), exact on the grid.

    Multiplication by a lattice character is, in the coefficient basis,
    exactly the cyclic mode shift, so the conjugated matrix is an index
    roll of rows and columns with no DFT round-off.  The identity and any
    multiplication operator are fixed points; a diagonal symbol function
    has its diagonal shifted in place.

    Probe pipelines do not route band-limited inputs through this matrix;
    they shift coefficient vectors inside the truncation window and report
    dropped mass as a leak (see probe_symbol).
    """
    k = (k,) if np.isscalar(k) else tuple(k)
    shifts = tuple(int(m) for m in k)
    if len(shifts) != op.grid.dim or any(m != float(orig) for m, orig in zip(shifts, k)):
        raise ValueError("k must be an integer lattice covector of the grid dimension")
    shape = op.grid.shape
    r = op.rank
    cube = op.matrix.reshape(shape + (r,) + shape + (r,))
    row_axes = tuple(range(op.grid.dim))
    col_axes = tuple(op.grid.dim + 1 + a for a in range(op.grid.dim))
    rolled = np.roll(cube, tuple(-m for m in shifts) * 2, axis=row_axes + col_axes)
    n_total = op.grid.sites * r
    return OperatorMatrix(matrix=rolled.reshape(n_total, n_total), grid=op.grid,
                          rank=r, hermitian=op.hermitian)


def _polarized_bumps(op: OperatorMatrix, spec: ProbeSpec) -> tuple[np.ndarray, np.ndarray]:
    """Scalar bump spectrum and its spinor polarizations, shape
    (rank, *grid.shape, rank)."""
    grid = op.grid
    phi = _bump_coefficients(grid.shape, grid.periods, spec.base_point, spec.band)
    fs = np.zeros((op.rank,) + grid.shape + (op.rank,), dtype=complex)
    for s in range(op.rank):
        fs[s, ..., s] = phi
    return phi, fs


def _spec_runs(specs, rank: int, limit: int):
    """Consecutive runs of specs whose probe columns (frequencies times
    polarizations) number at most ``limit``."""
    run, width = [], 0
    for spec in specs:
        columns = len(spec.schedule) * rank
        if run and width + columns > limit:
            yield run
            run, width = [], 0
        run.append(spec)
        width += columns
    if run:
        yield run


def _probe_responses(op: OperatorMatrix | BlockDiagonalOperator, specs):
    """Conjugated responses u_{s,m} for every probe, polarization and
    frequency.

    Yields one (fs, responses, leaks) per spec, in order: fs has shape
    (rank, *shape, rank), responses maps each schedule frequency to an
    array of that same shape, and leaks maps it to the relative dropped
    mass.  The shifted bump columns of consecutive specs are stacked and
    applied with one matrix product, at most ``op.size`` columns at a time,
    so the working set stays within one operator-sized array.  The product
    runs over ``op.blocks``: one block for a dense OperatorMatrix, one per
    mode block for a BlockDiagonalOperator.
    """
    specs = list(specs)
    for spec in specs:
        spec.validate_for(op)
    r = op.rank
    blocks = op.blocks
    b, m_rows, _ = blocks.shape
    cube_shape = op.grid.shape + (r,)
    for run in _spec_runs(specs, r, op.size):
        columns = np.empty((op.size, r * sum(len(spec.schedule) for spec in run)),
                           dtype=complex)
        bumps, drops = [], []
        for spec in run:
            _, fs = _polarized_bumps(op, spec)
            bumps.append(fs)
            for m in spec.schedule:
                shifts = tuple(m * d for d in spec.direction)
                for s in range(r):
                    shifted, drop = _shift_spectrum(fs[s], shifts)
                    columns[:, len(drops)] = shifted.reshape(-1)
                    drops.append(drop)
        applied = (blocks @ columns.reshape(b, m_rows, -1)).reshape(op.size, -1)
        c = 0
        for spec, fs in zip(run, bumps):
            responses = {}
            leaks = {}
            for m in spec.schedule:
                back_shifts = tuple(-m * d for d in spec.direction)
                u_all = np.empty_like(fs)
                drop_total = sum(drop ** 2 for drop in drops[c:c + r])
                for s in range(r):
                    back, drop_back = _shift_spectrum(applied[:, c + s].reshape(cube_shape),
                                                      back_shifts)
                    u_all[s] = back
                    drop_total += drop_back ** 2
                responses[m] = u_all
                leaks[m] = float(np.sqrt(drop_total / r))
                c += r
            yield fs, responses, leaks


def _fit_symbol(spec: ProbeSpec, fs, responses, leaks) -> SymbolEstimate:
    """Least-squares fiber matrix at the top frequency, with the residual
    of that one fit at every schedule frequency."""
    r = fs.shape[0]
    top = spec.schedule[-1]
    if r == 1:
        f_vec = fs[0].reshape(-1)
        u_vec = responses[top][0].reshape(-1)
        sigma = np.array([[np.vdot(f_vec, u_vec) / np.vdot(f_vec, f_vec)]])
    else:
        f_mat = fs.reshape(-1, r)
        u_mat = responses[top].reshape(-1, r)
        gram = f_mat.conj().T @ f_mat
        cross = f_mat.conj().T @ u_mat
        sigma = np.linalg.solve(gram, cross).T
    norm_f_sq = float(sum(np.linalg.norm(fs[s]) ** 2 for s in range(r)))
    residuals = []
    for m in spec.schedule:
        total = 0.0
        for s in range(r):
            predicted = fs[s].reshape(-1, r) @ sigma.T
            diff = responses[m][s].reshape(-1, r) - predicted
            total += float(np.linalg.norm(diff) ** 2)
        residuals.append(float(np.sqrt(total / norm_f_sq)))
    tail = residuals[-2:] if len(residuals) >= 2 else residuals
    converged = all(rho <= spec.tolerance for rho in tail)
    return SymbolEstimate(sigma=sigma, frequencies=spec.schedule,
                          residuals=tuple(residuals),
                          truncation_leaks=tuple(leaks[m] for m in spec.schedule),
                          converged=converged, base_point=spec.base_point,
                          direction=spec.direction)


def probe_symbols(op: OperatorMatrix | BlockDiagonalOperator,
                  specs) -> list[SymbolEstimate]:
    """Symbol estimates for several probes of one operator, with all their
    responses computed by one batched matrix product (see probe_symbol)."""
    specs = list(specs)
    return [_fit_symbol(spec, *result)
            for spec, result in zip(specs, _probe_responses(op, specs))]


def probe_symbol(op: OperatorMatrix, spec: ProbeSpec) -> SymbolEstimate:
    """Estimate the principal symbol of an order-0 operator at one probe.

    The fiber matrix is fitted by least squares at the largest schedule
    frequency, over all spinor polarizations of the bump; the residual at
    every schedule frequency is measured against that one fit.  The probe
    converged when the residuals at the two largest frequencies are below
    the spec tolerance.

    For rank one the fit is the exact ratio of inner products, so probing
    an exactly diagonal sign operator returns residual 0.0, not merely a
    small number.
    """
    return probe_symbols(op, [spec])[0]


def analytic_sign_symbol(metric: Metric, x, xi) -> np.ndarray:
    """Closed-form principal symbol of sign(D): i c_g(xi) / ||xi||_g.

    Hermitian, involutive, and independent of the conformal factor (the
    e^{-v} in the Clifford action cancels against the covector norm).
    """
    xi = _as_tuple(xi)
    if all(c == 0.0 for c in xi):
        raise ValueError("the sign symbol is undefined at the zero covector")
    return 1j * clifford(metric, x, xi) / covector_norm(metric, x, xi)


def _raw_residuals(spec: ProbeSpec, fs, responses, leaks):
    """Residuals ||u_m|| / ||f|| against the zero symbol, with leaks."""
    r = fs.shape[0]
    norm_f_sq = float(sum(np.linalg.norm(fs[s]) ** 2 for s in range(r)))
    rows = []
    for m in spec.schedule:
        total = sum(float(np.linalg.norm(responses[m][s]) ** 2) for s in range(r))
        rows.append((m, float(np.sqrt(total / norm_f_sq)), leaks[m]))
    return rows


def vanishing_symbol_test(op: OperatorMatrix | BlockDiagonalOperator, probes,
                          theta_vanish: float = THETA_VANISH,
                          theta_present: float = THETA_PRESENT) -> TestReport:
    """Decide whether an order-0 operator has vanishing principal symbol.

    ``vanishing`` if the residual at every probe's top frequency is below
    ``theta_vanish``; ``non-vanishing`` if any exceeds ``theta_present``;
    ``inconclusive`` otherwise.  Probes must cover at least 8 base points
    and at least 4 directions on a torus (2 on a circle).  The responses of
    all probes come from one batched matrix product (see probe_symbols).
    """
    probes = list(probes)
    if not theta_vanish < theta_present:
        raise ValueError("need theta_vanish < theta_present")
    points = {p.base_point for p in probes}
    directions = {p.direction for p in probes}
    if len(points) < 8:
        raise ValueError(f"insufficient coverage: {len(points)} base points, need >= 8")
    needed = 4 if op.grid.dim == 2 else 2
    if len(directions) < needed:
        raise ValueError(
            f"insufficient coverage: {len(directions)} directions, need >= {needed}")

    point_order = []
    for p in probes:
        if p.base_point not in point_order:
            point_order.append(p.base_point)
    index_of = {pt: i for i, pt in enumerate(point_order)}

    results = [_raw_residuals(spec, *result)
               for spec, result in zip(probes, _probe_responses(op, probes))]

    rows = []
    tops = []
    for spec, triples in zip(probes, results):
        for m, residual, leak in triples:
            rows.append(ProbeRow(point_index=index_of[spec.base_point],
                                 point=spec.base_point, direction=spec.direction,
                                 frequency=m, residual=residual, leak=leak))
        tops.append(triples[-1][1])

    if all(t < theta_vanish for t in tops):
        decision = VANISHING
    elif any(t > theta_present for t in tops):
        decision = NON_VANISHING
    else:
        decision = INCONCLUSIVE
    return TestReport(rows=tuple(rows), decision=decision, theta_vanish=theta_vanish,
                      theta_present=theta_present, top_residuals=tuple(tops))
