"""Grids, flat backgrounds, and conformally rescaled metrics on S^1 and T^2.

A metric here is always ``g = exp(2 v) g_flat`` where ``g_flat`` is either the
circle of circumference ``L`` (coordinate period ``2 pi``) or the flat torus
``dx^2 + c^2 dy^2`` with unit coordinate periods scaled to ``2 pi`` per axis
and modulus ``c > 0``.  The conformal factor ``v`` lives on the sample grid
and is band-limited by construction.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from ._basis import (
    TAU,
    ascending_modes,
    evaluate_spectrum,
    fourier_interpolate,
    samples_to_coefficients,
    coefficients_to_samples,
)

REFINE = 8


@dataclass(frozen=True)
class Grid:
    """Uniform periodic sample grid.

    Parameters
    ----------
    shape : tuple of int
        Points per axis; every entry must be even and positive.
    periods : tuple of float
        Coordinate period per axis.
    """

    shape: tuple[int, ...]
    periods: tuple[float, ...]

    def __post_init__(self):
        if len(self.shape) not in (1, 2):
            raise ValueError("only 1- and 2-dimensional grids are supported")
        if len(self.shape) != len(self.periods):
            raise ValueError("shape and periods must have equal length")
        for n in self.shape:
            if n <= 0 or n % 2:
                raise ValueError(f"grid sizes must be positive and even, got {n}")
        for p in self.periods:
            if not (p > 0 and np.isfinite(p)):
                raise ValueError(f"periods must be positive and finite, got {p}")
        object.__setattr__(self, "shape", tuple(int(n) for n in self.shape))
        object.__setattr__(self, "periods", tuple(float(p) for p in self.periods))

    @property
    def dim(self) -> int:
        return len(self.shape)

    @property
    def sites(self) -> int:
        return int(np.prod(self.shape))

    @property
    def cell_volume(self) -> float:
        return float(np.prod([p / n for p, n in zip(self.periods, self.shape)]))

    def axis_points(self, axis: int) -> np.ndarray:
        """Sample coordinates along one axis."""
        n = self.shape[axis]
        return self.periods[axis] * np.arange(n) / n

    def points(self) -> np.ndarray:
        """All sample coordinates, shape (sites, dim), site index flattened
        row-major."""
        axes = [self.axis_points(a) for a in range(self.dim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def modes(self) -> np.ndarray:
        """All integer mode vectors, shape (sites, dim), flattened row-major
        to match the operator ordering."""
        axes = [ascending_modes(n) for n in self.shape]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)


@dataclass(frozen=True)
class FlatBackground:
    """Flat reference geometry: a circle of circumference ``length`` or a
    rectangular torus with side ratio ``modulus``."""

    kind: str
    length: float = TAU
    modulus: float = 1.0

    def __post_init__(self):
        if self.kind not in ("circle", "torus"):
            raise ValueError(f"unknown background kind {self.kind!r}")
        if self.kind == "circle" and not (self.length > 0 and np.isfinite(self.length)):
            raise ValueError("circle length must be positive and finite")
        if self.kind == "torus" and not (self.modulus > 0 and np.isfinite(self.modulus)):
            raise ValueError("torus modulus must be positive and finite")

    @classmethod
    def circle(cls, length: float = TAU) -> "FlatBackground":
        return cls(kind="circle", length=float(length))

    @classmethod
    def torus(cls, modulus: float = 1.0) -> "FlatBackground":
        return cls(kind="torus", modulus=float(modulus))

    @property
    def dim(self) -> int:
        return 1 if self.kind == "circle" else 2

    @property
    def spinor_rank(self) -> int:
        return 1 if self.kind == "circle" else 2

    def coordinate_periods(self) -> tuple[float, ...]:
        return (TAU,) if self.kind == "circle" else (TAU, TAU)

    def axis_scales(self) -> tuple[float, ...]:
        """Factors turning integer modes into flat covector lengths: the flat
        Dirac eigenvalue contribution of a unit mode step per axis."""
        if self.kind == "circle":
            return (TAU / self.length,)
        return (1.0, 1.0 / self.modulus)


@dataclass(frozen=True, eq=False)
class ConformalFactor:
    """Band-limited real scalar ``v`` on a grid.

    The stored spectrum is the hard truncation of the input samples to modes
    with ``max_i |k_i| <= band_limit``; truncation happens once, at
    construction, so the spectrum above the band is exactly zero.  Samples
    that are already banded pass through verbatim (the synthesized samples
    would differ only by transform round-off, and keeping the input bit for
    bit makes serialization round trips exact).
    """

    samples: np.ndarray
    band_limit: int
    spectrum: np.ndarray = dataclasses.field(repr=False, default=None)

    def __post_init__(self):
        raw = np.asarray(self.samples, dtype=float)
        if raw.ndim not in (1, 2):
            raise ValueError("conformal factor samples must be 1- or 2-dimensional")
        if not np.all(np.isfinite(raw)):
            raise ValueError("conformal factor samples must be finite")
        band = int(self.band_limit)
        if band < 0 or 2 * band > min(raw.shape):
            raise ValueError(
                f"band limit must satisfy 0 <= band <= N/2, got {band} for shape {raw.shape}")
        spec = np.asarray(raw, dtype=complex)
        for axis in range(raw.ndim):
            spec = samples_to_coefficients(spec, axis=axis)
        for axis, n in enumerate(raw.shape):
            k = np.abs(ascending_modes(n))
            keep = (k <= band).reshape([n if a == axis else 1 for a in range(raw.ndim)])
            spec = np.where(keep, spec, 0.0)
        smooth = np.asarray(spec)
        for axis in range(raw.ndim):
            smooth = coefficients_to_samples(smooth, axis=axis)
        smooth = smooth.real
        if np.max(np.abs(smooth - raw)) <= 1e-13 * (1.0 + np.max(np.abs(raw))):
            smooth = raw.copy()
        object.__setattr__(self, "samples", smooth)
        object.__setattr__(self, "band_limit", band)
        object.__setattr__(self, "spectrum", spec)
        self.samples.flags.writeable = False
        self.spectrum.flags.writeable = False

    def value_at(self, point: tuple[float, ...], periods: tuple[float, ...]) -> float:
        """Evaluate v exactly at an arbitrary point (band-limited data makes
        the trigonometric interpolant the function itself)."""
        return evaluate_spectrum(self.spectrum, periods, point).real


@dataclass(frozen=True)
class Metric:
    """Conformally flat metric ``exp(2 v) g_flat`` sampled on a grid."""

    background: FlatBackground
    factor: ConformalFactor
    grid: Grid

    def __post_init__(self):
        if self.grid.dim != self.background.dim:
            raise ValueError("grid dimension does not match the background")
        if self.factor.samples.shape != self.grid.shape:
            raise ValueError("conformal factor shape does not match the grid")
        if self.grid.periods != self.background.coordinate_periods():
            raise ValueError("grid periods must match the background coordinates")

    @property
    def dim(self) -> int:
        return self.background.dim

    @property
    def spinor_rank(self) -> int:
        return self.background.spinor_rank

    def factor_at(self, point) -> float:
        point = _as_point(point, self.dim)
        return self.factor.value_at(point, self.grid.periods)


def _as_tuple(x) -> tuple[float, ...]:
    if np.isscalar(x):
        return (float(x),)
    return tuple(float(c) for c in x)


def _as_point(x, dim: int) -> tuple[float, ...]:
    point = _as_tuple(x)
    if len(point) != dim:
        raise ValueError(f"expected a point with {dim} coordinates, got {point}")
    return point


def make_circle_metric(length: float, v_samples, band_limit: int) -> Metric:
    """Metric ``exp(2 v) (L / 2 pi)^2 dtheta^2`` on the circle.

    Parameters
    ----------
    length : float
        Circumference of the flat background circle.
    v_samples : array_like
        Real samples of the conformal factor on the uniform theta grid;
        the grid size is inferred from the sample count.
    band_limit : int
        Hard Fourier truncation applied to ``v_samples``.
    """
    v = np.atleast_1d(np.asarray(v_samples, dtype=float))
    background = FlatBackground.circle(length)
    grid = Grid(shape=(v.shape[0],), periods=background.coordinate_periods())
    return Metric(background=background,
                  factor=ConformalFactor(v, band_limit),
                  grid=grid)


def make_torus_metric(modulus: float, v_samples, band_limit: int) -> Metric:
    """Metric ``exp(2 v) (dx^2 + c^2 dy^2)`` on the torus with modulus c.

    ``v_samples`` must be a square 2-d array; both coordinate periods are
    ``2 pi`` and the modulus carries the shape of the torus.
    """
    v = np.asarray(v_samples, dtype=float)
    if v.ndim != 2:
        raise ValueError("torus conformal factor samples must be 2-dimensional")
    background = FlatBackground.torus(modulus)
    grid = Grid(shape=v.shape, periods=background.coordinate_periods())
    return Metric(background=background,
                  factor=ConformalFactor(v, band_limit),
                  grid=grid)


def cometric_pair(metric: Metric, x, xi, eta) -> float:
    """Inverse-metric pairing ``g*_x(xi, eta)`` of two covectors at x.

    For ``g = exp(2v) g_flat`` this is ``exp(-2 v(x))`` times the flat
    pairing, which is ``(2 pi / L)^2 xi eta`` on the circle and
    ``xi_1 eta_1 + xi_2 eta_2 / c^2`` on the torus.
    """
    x = _as_point(x, metric.dim)
    xi = _as_tuple(xi)
    eta = _as_tuple(eta)
    if len(xi) != metric.dim or len(eta) != metric.dim:
        raise ValueError("covector components must match the metric dimension")
    scales = metric.background.axis_scales()
    flat = sum(s * s * a * b for s, a, b in zip(scales, xi, eta))
    return float(np.exp(-2.0 * metric.factor_at(x)) * flat)


def covector_norm(metric: Metric, x, xi) -> float:
    """Length ``sqrt(g*_x(xi, xi))`` of a covector."""
    return float(np.sqrt(cometric_pair(metric, x, xi, xi)))


def _refined_density(metric: Metric) -> np.ndarray:
    """Arc-length density exp(v) L / (2 pi) on the 8x refined circle grid."""
    v_fine = fourier_interpolate(metric.factor.samples, REFINE)
    return np.exp(v_fine) * (metric.background.length / TAU)


def _arc_integral(density: np.ndarray, a: float, b: float) -> float:
    """Integral of the piecewise-linear interpolant of a periodic density
    over the counterclockwise arc from a to b (coordinates mod 2 pi)."""
    m = density.shape[0]
    h = TAU / m
    a = float(a) % TAU
    b = float(b) % TAU
    if b < a:
        b += TAU

    def rho(idx: int) -> float:
        return float(density[idx % m])

    def lin(x: float) -> float:
        i = int(np.floor(x / h))
        t = x / h - i
        return (1.0 - t) * rho(i) + t * rho(i + 1)

    ia = int(np.ceil(a / h - 1e-12))
    ib = int(np.floor(b / h + 1e-12))
    if ib < ia:
        return 0.5 * (lin(a) + lin(b)) * (b - a)
    nodes = density[np.arange(ia, ib + 1) % m]
    total = 0.5 * (lin(a) + rho(ia)) * (ia * h - a)
    total += 0.5 * h * float(np.sum(nodes[:-1] + nodes[1:]))
    total += 0.5 * (rho(ib) + lin(b)) * (b - ib * h)
    return total


def geodesic_distance(metric: Metric, theta_a: float, theta_b: float) -> float:
    """Distance between two circle points: the shorter of the two arcs of
    ``integral exp(v) (L / 2 pi) dtheta``.

    Quadrature is the exact integral of the piecewise-linear interpolant of
    the arc density on an 8x Fourier-refined grid, so concatenating arcs is
    exactly additive.
    """
    if metric.dim != 1:
        raise ValueError("geodesic distances are implemented on the circle only")
    density = _refined_density(metric)
    forward = _arc_integral(density, theta_a, theta_b)
    backward = _arc_integral(density, theta_b, theta_a)
    return min(forward, backward)
