"""Conformal-class decisions from the bounded sign operator.

The decision logic runs two independent evidence channels and only issues
a verdict when they agree:

1. Difference-symbol channel: K = sign(D_B) - U sign(D_A) U* has vanishing
   principal symbol exactly when the two sign operators agree modulo a
   compact (finite-grid: uniformly probe-small) perturbation.
2. Cometric channel: the anticommutator of probed sign symbols recovers
   the normalized cometric, a conformal invariant; the two operators must
   produce matching pairings at every probe point.

The module also recovers conformal factors from the linear frequency
growth of conjugated first-order operators, evaluates the spectral
distance as a linear program over band-limited functions, and
extracts multiplication operators from their sample-basis diagonal.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .geometry import Grid, _as_tuple
from .operators import (BlockDiagonalOperator, OperatorMatrix, _difference_index,
                        commutator_norm, multiplication_operator)
from .calculus import _embed, _sign_blocks, sign_of
from .probes import (INCONCLUSIVE, NON_VANISHING, VANISHING, SymbolEstimate,
                     TestReport, _probe_responses, probe_symbols,
                     standard_probe, vanishing_symbol_test)

CONFORMAL = "conformal"
NOT_CONFORMAL = "not_conformal"

_TORUS_RAYS = ((1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 2), (2, -1), (-1, 2),
               (3, 1), (1, 3), (3, -1), (-1, 3), (3, 2), (2, 3), (3, -2), (-2, 3))
_COMETRIC_DIRECTIONS_2D = ((1, 0), (0, 1), (1, 1), (1, -1))


class ProbeConvergenceError(RuntimeError):
    """A required probe failed to converge; carries the failing estimates."""

    def __init__(self, message: str, estimates=()):
        super().__init__(message)
        self.estimates = tuple(estimates)


class GrowthFitError(RuntimeError):
    """Conjugated-operator norms did not follow the fitted growth law."""

    def __init__(self, message: str, fit_residual: float, values=()):
        super().__init__(message)
        self.fit_residual = fit_residual
        self.values = tuple(values)


@dataclass(frozen=True, eq=False)
class CometricEstimate:
    """Normalized cometric pairings recovered at one base point.

    ``matrix[i, j]`` estimates g(d_i, d_j) / (|d_i| |d_j|) for the probed
    directions; the diagonal is normalized to exactly 1.
    """

    point: tuple[float, ...]
    directions: tuple[tuple[int, ...], ...]
    matrix: np.ndarray
    estimates: tuple[SymbolEstimate, ...]
    off_scalar_residual: float

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        object.__setattr__(self, "matrix", m)
        self.matrix.flags.writeable = False
        if not np.allclose(m, m.T):
            raise ValueError("pairing matrix must be symmetric")


def _cometric_probes(grid: Grid, points, directions, band, schedule, tolerance):
    """Probe specs for the cometric channel, point-major: every direction
    at the first point, then every direction at the next."""
    return [standard_probe(grid.shape, x, d, band=1 if band is None else band,
                           schedule=schedule, tolerance=tolerance)
            for x in points for d in directions]


def _normalized_pairings(x, directions, estimates, rank: int) -> CometricEstimate:
    """Pair the fitted sign symbols of one base point (see
    recover_normalized_cometric)."""
    bad = [e for e in estimates if not e.converged]
    if bad:
        worst = max(e.residuals[-1] for e in bad)
        raise ProbeConvergenceError(
            f"{len(bad)} of {len(directions)} direction probes did not converge "
            f"(worst top residual {worst:.3e})", estimates)
    d = len(directions)
    raw = np.empty((d, d))
    off_scalar = 0.0
    for i in range(d):
        for j in range(i, d):
            anti = 0.5 * (estimates[i].sigma @ estimates[j].sigma
                          + estimates[j].sigma @ estimates[i].sigma)
            scalar = np.trace(anti) / rank
            raw[i, j] = raw[j, i] = scalar.real
            off_scalar = max(off_scalar, float(
                np.linalg.norm(anti - scalar * np.eye(rank), 2)))
    if np.mean(np.diag(raw)) < 0:
        raw = -raw
    diag = np.diag(raw)
    if np.any(diag <= 0.5):
        raise ProbeConvergenceError(
            "sign-symbol squares are far from the identity; pairings are "
            f"unreliable (diagonal {diag})", estimates)
    matrix = raw / np.sqrt(np.outer(diag, diag))
    return CometricEstimate(point=x, directions=directions, matrix=matrix,
                            estimates=tuple(estimates), off_scalar_residual=off_scalar)


def recover_normalized_cometric(sign_op: OperatorMatrix | BlockDiagonalOperator, x,
                                directions, band: int | None = None, schedule=None,
                                tolerance: float = 0.05) -> CometricEstimate:
    """Recover normalized cometric pairings from sign-symbol anticommutators.

    Probes the sign operator at every lattice direction in one batched
    call (see probe_symbols), then pairs the fitted fiber matrices: the
    scalar part of (s_i s_j + s_j s_i)/2 is the normalized pairing of the
    two covectors, because squares of sign symbols are the identity and
    cross terms contract against the metric.
    The result is symmetrized and scaled so the diagonal is exactly 1; the
    non-scalar remainder of the anticommutator is reported as a residual.

    Raises ProbeConvergenceError when any direction fails to converge, so
    callers never consume pairings backed by drifting residual sequences.
    """
    x = _as_tuple(x)
    directions = tuple(tuple(int(c) for c in (d if not np.isscalar(d) else (d,)))
                       for d in directions)
    estimates = probe_symbols(sign_op, _cometric_probes(sign_op.grid, [x], directions,
                                                        band, schedule, tolerance))
    return _normalized_pairings(x, directions, estimates, sign_op.rank)


def recover_conformal_factor(dirac: OperatorMatrix, x, direction=None,
                             schedule=None, band: int | None = None,
                             fit_tolerance: float = 1e-6) -> float:
    """Estimate the conformal factor v(x) from probe-response growth.

    Conjugating a first-order operator by a character of frequency m adds
    m times the symbol slope, so the squared response norm is exactly
    quadratic in m.  The leading coefficient is e^{-2v(x)} times the flat
    squared covector length, which inverts to v(x).

    The quadratic fit residual is checked: on clean inputs it sits at
    rounding level, and anything above ``fit_tolerance`` means the growth
    law failed (wrapped modes, non-metric operator) and raises.
    """
    if dirac.metric is None:
        raise ValueError("factor recovery needs a Dirac operator carrying its metric")
    grid = dirac.grid
    if direction is None:
        direction = (1,) + (0,) * (grid.dim - 1)
    spec = standard_probe(grid.shape, x, direction, band=band, schedule=schedule)
    if len(spec.schedule) < 3:
        raise ValueError("need at least 3 schedule frequencies for a quadratic fit")
    _, responses, _ = next(_probe_responses(dirac, [spec]))
    r = dirac.rank
    y = np.array([sum(np.linalg.norm(responses[m][s]) ** 2 for s in range(r)) / r
                  for m in spec.schedule])
    ms = np.array(spec.schedule, dtype=float)
    vander = np.stack([np.ones_like(ms), ms, ms ** 2], axis=1)
    beta, *_ = np.linalg.lstsq(vander, y, rcond=None)
    fit_residual = float(np.linalg.norm(vander @ beta - y) / np.linalg.norm(y))
    if fit_residual > fit_tolerance:
        raise GrowthFitError(
            f"response norms are not quadratic in frequency "
            f"(relative fit residual {fit_residual:.3e})", fit_residual, y)
    alpha = float(beta[2])
    scales = dirac.metric.background.axis_scales()
    flat_sq = sum((s * d) ** 2 for s, d in zip(scales, spec.direction))
    if alpha <= 0:
        raise GrowthFitError("quadratic growth coefficient is not positive",
                             fit_residual, y)
    return float(-0.5 * np.log(alpha / flat_sq))


# Simplex steps before the leaving row is chosen by Bland's rule, which
# cannot cycle; and the step cap, past which the distance is uncertified.
_BLAND_AFTER = 5_000
_MAX_STEPS = 10_000


@dataclass(frozen=True, eq=False)
class DistanceEstimate:
    """Spectral distance value with its maximizing band-limited function.

    ``coefficients`` holds the cosine block then the sine block for modes
    1..B of the maximizer, already scaled to unit commutator norm.
    ``certified`` says that the linear program's multipliers prove the
    value optimal over the band; ``duality_gap`` is |primal - dual| there.
    """

    value: float
    coefficients: np.ndarray
    constraint_slack: float
    certified: bool
    duality_gap: float
    x: float
    y: float

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("distances are nonnegative")
        if self.constraint_slack > 1 + 1e-6:
            raise ValueError(
                f"maximizer violates the unit commutator bound: {self.constraint_slack}")
        c = np.asarray(self.coefficients, dtype=float)
        object.__setattr__(self, "coefficients", c)
        self.coefficients.flags.writeable = False


def _first_row_hit(wu, wd, excluded):
    """Signed row of |W u|_inf <= 1 that u + t d reaches first: (row, sign, t).

    Ties go to the lowest row, as Bland's rule needs.  Rows moving at under
    1e-12 of the fastest rate are numerically parallel to the move and would
    make the active system singular, so they never enter.
    """
    rate = np.abs(wd)
    slack = np.where(wd > 0, 1.0 - wu, 1.0 + wu)
    steps = np.full(wu.shape, np.inf)
    movable = rate > 1e-12 * rate.max()
    movable[excluded] = False
    steps[movable] = np.maximum(slack[movable], 0.0) / rate[movable]
    row = int(np.argmin(steps))
    return row, (1.0 if wd[row] > 0 else -1.0), steps[row]


def _chebyshev_lp(w, c):
    """max c.u subject to |W u|_inf <= 1, by a simplex over signed active rows.

    Walks from u = 0 along c, projected onto the null space of the rows hit
    so far, to a vertex with one active row per unknown.  Each step then
    solves the active system afresh, W_A u = s and W_A^T (s y) = c, and
    releases the row with the most negative multiplier y for the first row
    the move reaches.  No tableau is updated, so rounding does not build up.
    Returns u, the duality gap |c.u - sum(y)| and whether y certifies u.
    """
    k = w.shape[1]
    u = np.zeros(k)
    rows, signs = [], []
    for _ in range(k):
        null = np.linalg.svd(w[rows])[2][len(rows):]
        d = null.T @ (null @ c)
        if np.linalg.norm(d) <= 1e-12 * np.linalg.norm(c):
            d = null[0]  # c lies in the span of the rows hit: any face direction
        row, sign, t = _first_row_hit(w @ u, w @ d, rows)
        u = u + t * d
        rows.append(row)
        signs.append(sign)
    rows, signs = np.array(rows), np.array(signs)
    for step in range(_MAX_STEPS + 1):
        active = w[rows]
        u = np.linalg.solve(active, signs)
        y = signs * np.linalg.solve(active.T, c)
        negative = y < -1e-12 * y.max()
        if not negative.any() or step == _MAX_STEPS:
            break
        if step < _BLAND_AFTER:
            leave = int(np.argmin(y))
        else:
            leave = np.flatnonzero(negative)[np.argmin(rows[negative])]
        d = -signs[leave] * np.linalg.solve(active, np.eye(k)[leave])
        rows[leave], signs[leave], _ = _first_row_hit(w @ u, w @ d, np.delete(rows, leave))
    value = float(c @ u)
    gap = abs(value - float(y.sum()))
    certified = (not negative.any() and float(np.max(np.abs(w @ u))) <= 1 + 1e-12
                 and gap <= 1e-12 * value)
    return u, gap, certified


def connes_distance(dirac: OperatorMatrix, x: float, y: float,
                    band: int | None = None) -> DistanceEstimate:
    """Spectral distance sup{a(x) - a(y) : ||[D, M_a]|| <= 1} on a circle.

    The supremum is restricted to real trigonometric polynomials of degree
    at most ``band`` (an integer in [1, N/4], default N/8), which can only
    under-shoot the true distance.  For a conformally flat circle the
    commutator norm of M_a is the largest weighted derivative sample, so
    the restricted problem is the linear program max c.u subject to
    |W u|_inf <= 1 over the 2B coefficients.  It is solved exactly by a
    simplex over active sets (``_chebyshev_lp``), whose multipliers
    certify the optimum.  The maximizer is rescaled by its exactly
    evaluated commutator norm, so the reported maximizer is always feasible.
    """
    metric = dirac.metric
    if metric is None:
        raise ValueError("the spectral distance needs a Dirac operator with its metric")
    if dirac.grid.dim != 1:
        raise ValueError("the distance optimizer handles circles only")
    n = dirac.grid.shape[0]
    period = dirac.grid.periods[0]
    if band is None:
        band = max(1, n // 8)
    if (isinstance(band, bool) or not isinstance(band, (int, np.integer))
            or not 1 <= band <= n // 4):
        raise ValueError(f"band must be an integer in [1, N/4 = {n // 4}], got {band!r}")
    x = float(x) if np.isscalar(x) else float(_as_tuple(x)[0])
    y = float(y) if np.isscalar(y) else float(_as_tuple(y)[0])
    if abs((x - y) % period) < 1e-12 or abs((y - x) % period) < 1e-12:
        raise ValueError("distance endpoints must be distinct points")

    theta = dirac.grid.axis_points(0)
    scale = metric.background.axis_scales()[0]
    weights = scale * np.exp(-metric.factor.samples)
    ks = np.arange(1, band + 1, dtype=float)
    basis_deriv = np.concatenate([-ks * np.sin(np.outer(theta, ks)),
                                  ks * np.cos(np.outer(theta, ks))], axis=1)
    weighted = weights[:, None] * basis_deriv
    slice_vec = np.concatenate([np.cos(ks * x) - np.cos(ks * y),
                                np.sin(ks * x) - np.sin(ks * y)])
    if float(slice_vec @ slice_vec) < 1e-20:
        raise ValueError("endpoints are indistinguishable to the band-limited basis")

    u, gap, certified = _chebyshev_lp(weighted, slice_vec)
    samples = np.concatenate([np.cos(np.outer(theta, ks)),
                              np.sin(np.outer(theta, ks))], axis=1) @ u
    true_norm = commutator_norm(dirac, samples)
    maximizer = u / true_norm
    slack = commutator_norm(dirac, samples / true_norm)
    return DistanceEstimate(value=float(slice_vec @ maximizer), coefficients=maximizer,
                            constraint_slack=slack, certified=certified,
                            duality_gap=gap, x=x, y=y)


@dataclass(frozen=True, eq=False)
class MultiplierExtract:
    """Sample-basis block diagonal of an operator, read as a multiplier.

    ``psi[j]`` is the fiber matrix at grid site j.  ``residual`` is the
    largest commutator norm of the operator against the test multipliers;
    small residual certifies that the block diagonal reassembles the
    operator.
    """

    grid: Grid
    rank: int
    psi: np.ndarray
    residual: float

    def __post_init__(self):
        p = np.asarray(self.psi, dtype=complex)
        if p.shape != (self.grid.sites, self.rank, self.rank):
            raise ValueError("psi must hold one rank x rank block per grid site")
        object.__setattr__(self, "psi", p)
        self.psi.flags.writeable = False

    def reassemble(self) -> OperatorMatrix:
        """Multiplication operator built back from the extracted blocks."""
        return multiplication_operator(self.psi, self.grid, rank=self.rank)


def _default_test_characters(grid: Grid):
    """16 low-frequency lattice characters, sampled on the grid."""
    if grid.dim == 1:
        freqs = [(k,) for a in range(1, 9) for k in (a, -a)]
    else:
        lattice = [(k1, k2) for k1 in range(-2, 3) for k2 in range(-2, 3)
                   if (k1, k2) != (0, 0)]
        lattice.sort(key=lambda k: (max(abs(k[0]), abs(k[1])),
                                    abs(k[0]) + abs(k[1]), k))
        freqs = lattice[:16]
    points = grid.points()
    rates = np.array([[2 * np.pi * k / p for k, p in zip(f, grid.periods)]
                      for f in freqs])
    return [np.exp(1j * points @ rate) for rate in rates]


def extract_multiplier(op: OperatorMatrix, test_functions=None) -> MultiplierExtract:
    """Read an operator as a multiplication operator, with a commutation
    certificate.

    Any bounded operator commuting with every multiplication is itself a
    multiplication by a fiberwise matrix function; its sample-basis matrix
    is block diagonal and the blocks are that function.  This extracts the
    block diagonal unconditionally and reports how badly the operator
    fails to commute with a family of test multipliers (16 low-frequency
    characters by default).  A large residual means the extracted blocks
    describe the operator poorly, which is the caller's signal that it is
    not a multiplier.
    """
    grid, r, s = op.grid, op.rank, op.grid.sites
    # The sample-basis diagonal of F A F* is one inverse DFT over mode
    # differences of the sums of A along each difference k - l.
    pairs = op.matrix.reshape(s, r, s, r).transpose(0, 2, 1, 3).reshape(s * s, r, r)
    sums = np.zeros((s, r, r), dtype=complex)
    np.add.at(sums, _difference_index(grid).reshape(-1), pairs)
    psi = np.fft.ifftn(sums.reshape(grid.shape + (r, r)),
                       axes=tuple(range(grid.dim))).reshape(s, r, r)
    if test_functions is None:
        test_functions = _default_test_characters(grid)
    residual = 0.0
    for a in test_functions:
        mult = multiplication_operator(np.asarray(a).reshape(-1), grid, rank=r)
        bracket = op.matrix @ mult.matrix - mult.matrix @ op.matrix
        residual = max(residual, float(np.linalg.norm(bracket, 2)))
    return MultiplierExtract(grid=grid, rank=r, psi=psi, residual=residual)


@dataclass(frozen=True)
class DetectConfig:
    """Coverage and threshold knobs for conformal detection."""

    points: int = 8
    rays: int = 8
    band: int | None = None
    cometric_band: int | None = None
    schedule: tuple[int, ...] | None = None
    theta_vanish: float = 0.05
    theta_present: float = 0.25
    probe_tolerance: float = 0.05
    cometric_agree: float = 0.05
    cometric_distinct: float = 0.10
    tau: float | None = None

    def __post_init__(self):
        if not all(isinstance(v, (int, np.integer)) for v in (self.points, self.rays)):
            raise ValueError("points and rays must be integers")
        if self.points < 8:
            raise ValueError("detection needs at least 8 base points")
        if not self.theta_vanish < self.theta_present:
            raise ValueError("need theta_vanish < theta_present")
        if not self.cometric_agree <= self.cometric_distinct:
            raise ValueError("need cometric_agree <= cometric_distinct")
        if self.tau is not None and not (np.isfinite(self.tau) and self.tau >= 0.0):
            raise ValueError(f"tau must be finite and nonnegative, got {self.tau}")


@dataclass(frozen=True, eq=False)
class Verdict:
    """Two-channel conformal decision with its evidence."""

    decision: str
    report: TestReport
    max_anticommutator_deviation: float
    symbol_channel: str
    cometric_channel: str
    points: tuple[tuple[float, ...], ...]
    cometric_directions: tuple[tuple[int, ...], ...]
    cometric_deviations: np.ndarray | None
    elapsed_seconds: float

    def __post_init__(self):
        if self.cometric_deviations is not None:
            d = np.asarray(self.cometric_deviations, dtype=float)
            object.__setattr__(self, "cometric_deviations", d)
            self.cometric_deviations.flags.writeable = False

    def pair_deviation(self, xi, eta) -> float:
        """Largest cometric deviation between two probed directions."""
        if self.cometric_deviations is None:
            raise ValueError("cometric channel produced no deviations")
        xi = tuple(int(c) for c in (xi if not np.isscalar(xi) else (xi,)))
        eta = tuple(int(c) for c in (eta if not np.isscalar(eta) else (eta,)))
        i = self.cometric_directions.index(xi)
        j = self.cometric_directions.index(eta)
        return float(np.max(self.cometric_deviations[:, i, j]))


def _base_points(grid: Grid, count: int):
    """Distinct grid sites spread over the manifold, as coordinate tuples."""
    if grid.dim == 1:
        axis = grid.axis_points(0)
        n = grid.shape[0]
        if count > n:
            raise ValueError("more base points requested than grid sites")
        return tuple((float(axis[(i * n) // count]),) for i in range(count))
    a0, a1 = grid.axis_points(0), grid.axis_points(1)
    n0, n1 = grid.shape
    cols = 4
    pts = []
    for i in range(count):
        j0 = ((i % cols) * n0) // cols
        j1 = ((i // cols) * n1) // cols
        pts.append((float(a0[j0 % n0]), float(a1[j1 % n1])))
    if len(set(pts)) != count:
        raise ValueError("could not place that many distinct base points")
    return tuple(pts)


def _detection_directions(dim: int, rays: int):
    if dim == 1:
        return ((1,), (-1,))
    if rays < 4:
        raise ValueError("torus detection needs at least 4 rays")
    if rays > len(_TORUS_RAYS):
        raise ValueError(f"at most {len(_TORUS_RAYS)} rays are available")
    return _TORUS_RAYS[:rays]


def _check_unitary(u: OperatorMatrix, size: int) -> None:
    if u.size != size:
        raise ValueError("intertwiner size does not match the operators")
    gram = u.matrix.conj().T @ u.matrix
    drift = float(np.max(np.abs(gram - np.eye(size))))
    if drift > 1e-10:
        raise ValueError(f"intertwiner is not unitary: |U*U - I| = {drift:.3e}")


def detect_conformal(dirac_a: OperatorMatrix, dirac_b: OperatorMatrix,
                     intertwiner: OperatorMatrix | None = None,
                     config: DetectConfig | None = None) -> Verdict:
    """Decide whether two Dirac-type operators present one conformal class.

    Channel 1 probes K = sign(D_B) - U sign(D_A) U* for a vanishing
    principal symbol.  Channel 2 recovers normalized cometric pairings
    from both sign operators at every base point and compares them.  The
    verdict is issued only when the channels agree; anything else is
    inconclusive, including non-converged cometric probes.

    Both signs stay the block stacks of their decompositions.  Two flat
    operators give K as the difference of their mode blocks, so no n x n
    matrix is assembled; with an intertwiner, or when only one operator is
    flat, both signs are embedded into one dense block.  Each channel
    applies each operator with one batched probe call over all base points.
    """
    started = time.perf_counter()
    if config is None:
        config = DetectConfig()
    if dirac_a.grid != dirac_b.grid or dirac_a.rank != dirac_b.rank:
        raise ValueError("operators live on different bundles")
    if not (dirac_a.hermitian and dirac_b.hermitian):
        raise ValueError("conformal detection expects Hermitian operators")
    grid, rank = dirac_a.grid, dirac_a.rank
    if intertwiner is not None:
        _check_unitary(intertwiner, dirac_a.size)
        u = intertwiner.matrix
        conjugated = u @ sign_of(dirac_a, tol=config.tau).matrix @ u.conj().T
        conjugated = 0.5 * (conjugated + conjugated.conj().T)
        blocks_a, blocks_b = conjugated[None], sign_of(dirac_b, tol=config.tau).blocks
    else:
        blocks_a, _ = _sign_blocks(dirac_a, tol=config.tau)
        blocks_b, _ = _sign_blocks(dirac_b, tol=config.tau)
        if blocks_a.shape != blocks_b.shape:
            # a flat and a curved operator: compare them as dense matrices
            blocks_a, blocks_b = _embed(blocks_a)[None], _embed(blocks_b)[None]
    # Flat pairs stay mode-block stacks: no n x n sign, difference or copy.
    sign_a = BlockDiagonalOperator(blocks=blocks_a, grid=grid, rank=rank)
    sign_b = BlockDiagonalOperator(blocks=blocks_b, grid=grid, rank=rank)
    difference = BlockDiagonalOperator(blocks=blocks_b - blocks_a, grid=grid, rank=rank)

    points = _base_points(grid, config.points)
    directions = _detection_directions(grid.dim, config.rays)
    probes = [standard_probe(grid.shape, pt, d, band=config.band,
                             schedule=config.schedule, tolerance=config.probe_tolerance)
              for pt in points for d in directions]
    report = vanishing_symbol_test(difference, probes,
                                   theta_vanish=config.theta_vanish,
                                   theta_present=config.theta_present)
    symbol_channel = {VANISHING: CONFORMAL, NON_VANISHING: NOT_CONFORMAL,
                      INCONCLUSIVE: INCONCLUSIVE}[report.decision]

    pair_directions = (((1,),) if grid.dim == 1 else _COMETRIC_DIRECTIONS_2D)
    d = len(pair_directions)
    cometric_probes = _cometric_probes(grid, points, pair_directions, config.cometric_band,
                                       config.schedule, config.probe_tolerance)
    estimates_a = probe_symbols(sign_a, cometric_probes)
    estimates_b = probe_symbols(sign_b, cometric_probes)
    deviations = None
    try:
        devs = []
        for i, pt in enumerate(points):
            est_a, est_b = (_normalized_pairings(pt, pair_directions,
                                                 estimates[i * d:(i + 1) * d], rank)
                            for estimates in (estimates_a, estimates_b))
            devs.append(np.abs(est_a.matrix - est_b.matrix))
        deviations = np.stack(devs)
        max_deviation = float(np.max(deviations))
        if max_deviation < config.cometric_agree:
            cometric_channel = CONFORMAL
        elif max_deviation > config.cometric_distinct:
            cometric_channel = NOT_CONFORMAL
        else:
            cometric_channel = INCONCLUSIVE
    except ProbeConvergenceError:
        cometric_channel = INCONCLUSIVE
        max_deviation = float("nan")

    decision = symbol_channel if symbol_channel == cometric_channel else INCONCLUSIVE
    return Verdict(decision=decision, report=report,
                   max_anticommutator_deviation=max_deviation,
                   symbol_channel=symbol_channel, cometric_channel=cometric_channel,
                   points=points, cometric_directions=pair_directions,
                   cometric_deviations=deviations,
                   elapsed_seconds=time.perf_counter() - started)
