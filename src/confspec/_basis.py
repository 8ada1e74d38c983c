"""Fourier-basis plumbing shared by the operator-facing modules.

Conventions used throughout the package:

* modes per axis are the ascending integers ``-N/2, ..., N/2 - 1`` (N even),
* the discrete Fourier transform is unitary, ``F[j, k] = exp(i k theta_j) / sqrt(N)``
  with ``theta_j = 2 pi j / N``, mapping coefficient vectors to sample vectors,
* two-dimensional grids flatten sites as ``j = j1 * N2 + j2`` and modes as
  ``kappa = kappa1 * N2 + kappa2``; a rank-r spinor index varies fastest.
"""

from __future__ import annotations

import numpy as np

TAU = 2.0 * np.pi


def ascending_modes(n: int) -> np.ndarray:
    """Integer Fourier modes ``-n/2, ..., n/2 - 1`` in ascending order."""
    if n <= 0 or n % 2:
        raise ValueError(f"grid size must be a positive even integer, got {n}")
    return np.arange(-(n // 2), n // 2)


def samples_to_coefficients(values: np.ndarray, axis: int = -1) -> np.ndarray:
    """FFT along ``axis``, reordered to ascending modes, unitary scaling."""
    n = values.shape[axis]
    return np.fft.fftshift(np.fft.fft(values, axis=axis), axes=axis) / np.sqrt(n)


def coefficients_to_samples(coeffs: np.ndarray, axis: int = -1) -> np.ndarray:
    """Inverse of :func:`samples_to_coefficients`."""
    n = coeffs.shape[axis]
    return np.fft.ifft(np.fft.ifftshift(coeffs, axes=axis), axis=axis) * np.sqrt(n)


def _pad_spectrum_1d(coeffs: np.ndarray, factor: int, axis: int) -> np.ndarray:
    """Zero-pad an ascending-mode spectrum, splitting the Nyquist entry."""
    n = coeffs.shape[axis]
    m = factor * n
    shape = list(coeffs.shape)
    shape[axis] = m
    out = np.zeros(shape, dtype=complex)
    lo = m // 2 - n // 2
    src = [slice(None)] * coeffs.ndim
    dst = [slice(None)] * coeffs.ndim
    dst[axis] = slice(lo, lo + n)
    out[tuple(dst)] = coeffs
    # the single input entry at mode -n/2 represents cos-like content; split it
    # onto +-n/2 of the finer grid so that real inputs interpolate to real values
    nyq_src = [slice(None)] * coeffs.ndim
    nyq_src[axis] = 0
    half = coeffs[tuple(nyq_src)] / 2.0
    lo_dst = [slice(None)] * coeffs.ndim
    hi_dst = [slice(None)] * coeffs.ndim
    lo_dst[axis] = lo
    hi_dst[axis] = lo + n
    out[tuple(lo_dst)] = half
    out[tuple(hi_dst)] = half
    return out


def fourier_interpolate(values: np.ndarray, factor: int) -> np.ndarray:
    """Trigonometric interpolation of periodic samples onto a ``factor``-times
    finer grid along every axis.

    Exact for band-limited data; real input yields real output.
    """
    if factor < 1:
        raise ValueError("refinement factor must be >= 1")
    if factor == 1:
        return np.array(values)
    out = np.asarray(values, dtype=complex)
    real_in = np.isrealobj(values)
    for axis in range(out.ndim):
        n = out.shape[axis]
        coeffs = samples_to_coefficients(out, axis=axis)
        padded = _pad_spectrum_1d(coeffs, factor, axis)
        out = coefficients_to_samples(padded, axis=axis) * np.sqrt(factor)
    return out.real if real_in else out


def spectral_derivative(values: np.ndarray, axis: int, period: float) -> np.ndarray:
    """Differentiate periodic samples along ``axis`` in Fourier space.

    The unmatched Nyquist mode is dropped (its symmetric-convention derivative
    averages to zero), which keeps real inputs exactly real.
    """
    n = values.shape[axis]
    k = ascending_modes(n).astype(float)
    k[0] = 0.0
    shape = [1] * np.ndim(values)
    shape[axis] = n
    coeffs = samples_to_coefficients(np.asarray(values, dtype=complex), axis=axis)
    coeffs *= (1j * k * (TAU / period)).reshape(shape)
    out = coefficients_to_samples(coeffs, axis=axis)
    return out.real if np.isrealobj(values) else out


def evaluate_spectrum(coeffs: np.ndarray, periods: tuple[float, ...],
                      point: tuple[float, ...]) -> complex:
    """Evaluate a trigonometric polynomial with ascending-mode coefficients
    at an arbitrary point (coordinates in the fundamental domain scale)."""
    coeffs = np.asarray(coeffs)
    phases = 1.0
    for axis, (n, period, x) in enumerate(zip(coeffs.shape, periods, point)):
        k = ascending_modes(n)
        shape = [1] * coeffs.ndim
        shape[axis] = n
        phases = phases * np.exp(1j * k * (TAU / period) * x).reshape(shape)
    n_total = np.prod(coeffs.shape)
    return complex(np.sum(coeffs * phases) / np.sqrt(n_total))
