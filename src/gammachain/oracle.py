"""Independent verification of candidate periodic solutions.

The chain coordinates of a solution are recomputed directly as history
convolutions of the gamma density against phi(x, xdot), and the residual
of the original second-order equation is evaluated from sampled tracks.
The tracks are T-periodic, so each history integral is a circular
convolution of phi(x, xdot) with the kernel folded modulo T, integrated by
composite Simpson on 4096 cells per period and evaluated by FFT.  A
track is the trigonometric interpolant of its samples: it reaches that
grid by one inverse FFT of its samples' spectrum zero-padded to the
grid's, and ``PeriodicTrack.value`` sums the same interpolant at
arbitrary times.  Every derivative of a track is
``PeriodicTrack.derivative``'s central differences on its samples.
This path never reuses the cascade ODEs, so agreement with the integrated
chain coordinates is a genuine cross-check of the reduction.  The oracle
reads sample arrays only: it neither integrates nor imports the
integrator.

Tracks may hold several rows (solutions) on their leading axes; every
function here then works on all rows in one pass of array calls, and each
row's result is the value a one-row call gives.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from . import chain
from .kernel import GammaKernel, tail_horizon, gamma_eval

__all__ = ["PeriodicTrack", "history_convolution", "verify_lift",
           "direct_residual"]

TRUNCATION_MASS = 1e-12
QUAD_SUBINTERVALS = 4096  # Simpson cells per period
TEST_TIMES = 64


class PeriodicTrack:
    """T-periodic scalar signals sampled on uniform points of [0, T).

    ``samples`` has shape (..., n): one track per index of the leading
    axes, sampled along the last.  Evaluation uses the trigonometric
    interpolant of the samples (their spectrum, Nyquist bin halved);
    differentiation uses 4th-order central differences on the sample grid.
    """

    __slots__ = ("samples", "period")

    def __init__(self, samples: np.ndarray, period: float):
        self.samples = np.asarray(samples, dtype=float)
        self.period = period
        if self.samples.ndim == 0 or self.samples.shape[-1] < 16:
            raise ValueError("need tracks with at least 16 samples")
        if not self.period > 0:
            raise ValueError("period must be positive")

    def value(self, t):
        """The trigonometric interpolant of the samples at t, shape (...,
        *t.shape) for samples of shape (..., n): the real part of
        sum_k c_k z^k over the bins k = 0 .. n // 2 of the samples' rFFT
        over n, every bin below the Nyquist bin doubled for its mirror
        image, with z = exp(2 pi i t / T), summed by Horner's rule."""
        n = self.samples.shape[-1]
        # the times on one flat axis: a scalar t takes the array arithmetic
        # of many, so each row's value is the one a one-row call gives
        z = np.exp(2j * np.pi * np.reshape(np.mod(t, self.period) / self.period, -1))
        c = np.fft.rfft(self.samples) / n
        c[..., 1:(n + 1) // 2] *= 2.0
        s = 0.0
        for ck in np.moveaxis(c, -1, 0)[::-1, ..., None]:
            s = s * z + ck
        return s.real.reshape(c.shape[:-1] + np.shape(t))

    def derivative(self) -> "PeriodicTrack":
        """Track of the time derivative (4th-order central differences)."""
        x = self.samples
        h = self.period / x.shape[-1]
        # x[i - 2] .. x[i + 2] are wrapped[i] .. wrapped[i + 4]
        wrapped = np.concatenate((x[..., -2:], x, x[..., :2]), axis=-1)
        d = (-wrapped[..., 4:] + 8.0 * wrapped[..., 3:-1]
             - 8.0 * wrapped[..., 1:-3] + wrapped[..., :-4]) / (12.0 * h)
        return PeriodicTrack(d, self.period)


def _on_grid(track: PeriodicTrack) -> np.ndarray:
    """The track at the 4096 times jT/4096, shape (..., 4096) for samples
    of shape (..., n): ``PeriodicTrack.value``'s interpolant, by one
    inverse FFT of the samples' rFFT zero-padded to 2049 bins.
    ValueError unless n divides 4096, which keeps the samples on the grid
    and n even.
    """
    m = QUAD_SUBINTERVALS
    n = track.samples.shape[-1]
    if m % n:
        raise ValueError(f"need tracks whose sample count divides {m}, got {n}")
    # an explicit buffer the size of the grid's spectrum: a larger
    # temporary per call slows a fresh process's verify through malloc's
    # dynamic mmap threshold
    spectrum = np.zeros(track.samples.shape[:-1] + (m // 2 + 1,), complex)
    np.multiply(np.fft.rfft(track.samples), m / n, out=spectrum[..., :n // 2 + 1])
    if n < m:
        # the samples' Nyquist bin counts once, but irfft doubles every
        # bin below the grid's own
        spectrum[..., n // 2] *= 0.5
    return np.fft.irfft(spectrum, m)


def _simpson_weights(n: int) -> np.ndarray:
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w


@lru_cache(maxsize=4)
def _kernel_spectra(a: float, b: int, period: float) -> np.ndarray:
    """rFFT of the Simpson weights of gamma_a^i folded modulo the period,
    row i - 1 for stage i = 1 .. b, shape (b, 2049).

    The fold sums the density over the whole periods that cover the tail
    horizon of mass TRUNCATION_MASS; the weight at tau = T joins tau = 0,
    where the periodic integrand takes the same value.
    """
    n = QUAD_SUBINTERVALS
    tau = np.linspace(0.0, period, n + 1)
    spectra = np.empty((b, n // 2 + 1), complex)
    for i in range(1, b + 1):
        k = GammaKernel(a, i)
        H = tail_horizon(k, TRUNCATION_MASS)
        folded = np.zeros(n + 1)
        # one period at a time keeps the peak memory flat
        for m in range(max(1, math.ceil(H / period))):
            folded += gamma_eval(k, tau + m * period)
        w = folded * _simpson_weights(n) * (period / n / 3.0)
        w[0] += w[n]
        spectra[i - 1] = np.fft.rfft(w[:n])
    spectra.flags.writeable = False
    return spectra


def _phi_spectrum(p: chain.ProblemSpec, x: PeriodicTrack,
                  xdot: PeriodicTrack) -> np.ndarray:
    """rFFT of phi(x, xdot) at the 4096 times jT/4096, along the last
    axis; ArithmeticError where it is not finite, as it is wherever a phi
    sample is (bin 0 sums them)."""
    _, phi, _ = chain._compiled(p, vectorized=True)
    xv, vv = _on_grid(x), _on_grid(xdot)
    z = np.zeros(xv.shape)  # broadcasts a phi without variables, a scalar
    z += phi(xv, vv)
    spectrum = np.fft.rfft(z)
    if not np.all(np.isfinite(spectrum)):
        raise ArithmeticError("non-finite history convolution")
    return spectrum


def _convolutions(p: chain.ProblemSpec, x: PeriodicTrack,
                  xdot: PeriodicTrack, stages, m: int) -> np.ndarray:
    """The history convolutions of ``stages`` at the m times jT/m (m
    divides 4096), shape (..., len(stages), m) for tracks of shape (..., n).

    phi is evaluated once on the 4096-point grid jT/4096 and
    transformed once.  One stage at a time, its product with the cached
    kernel spectrum is extended to the full spectrum by symmetry and summed
    over the frequencies congruent modulo m: sampling every (4096/m)-th
    time aliases them, and at m = 4096 the sum is the identity.  One
    inverse FFT of size m then gives every stage at the m times.
    ArithmeticError if phi's spectrum or a result is not finite.
    """
    T = x.period
    n = QUAD_SUBINTERVALS
    spectrum = _phi_spectrum(p, x, xdot)
    kernels = _kernel_spectra(p.kernel.a, p.kernel.b, T)
    rows = spectrum.shape[:-1]
    full = np.empty(rows + (n,), complex)
    half, mirror = full[..., :n // 2 + 1], full[..., n // 2 + 1:]
    aliases = full.reshape(rows + (n // m, m))
    folded = np.empty(rows + (len(stages), m // 2 + 1), complex)
    for s, i in enumerate(stages):
        np.multiply(kernels[i - 1], spectrum, out=half)
        np.conj(half[..., -2:0:-1], out=mirror)
        folded[..., s, :] = aliases.sum(axis=-2)[..., :m // 2 + 1]
    y = np.fft.irfft(folded, m) / (n // m)
    if not np.all(np.isfinite(y)):
        raise ArithmeticError("non-finite history convolution")
    return y


def history_convolution(p: chain.ProblemSpec, x: PeriodicTrack,
                        xdot: PeriodicTrack) -> np.ndarray:
    """Every chain coordinate as an explicit history integral, at the
    4096 times t = jT/4096 (row i - 1 holds stage i, shape (b, 4096) for
    one-row tracks):

        y_i(t) = integral_0^T  K_i(tau) * phi(x(t - tau), xdot(t - tau)) dtau

    with the kernel folded modulo T, K_i(tau) = sum_m gamma_a^i(tau + mT),
    over the whole periods covering the tail horizon of mass 1e-12, and
    composite Simpson on 4096 cells per period.  Raises
    ValueError unless the tracks' sample count divides 4096.
    """
    return _convolutions(p, x, xdot, range(1, p.kernel.b + 1), QUAD_SUBINTERVALS)


def _max_per_row(d: np.ndarray, axes):
    worst = np.max(np.abs(d), axis=axes)
    return float(worst) if worst.ndim == 0 else worst


def verify_lift(p: chain.ProblemSpec, coords, x: PeriodicTrack,
                xdot: PeriodicTrack):
    """Max discrepancy between chain coordinates and the history
    convolutions of the (x, xdot) tracks, over all stages and 64 test
    times.

    ``coords`` holds y_1 .. y_b sampled on the tracks' grid, shape (...,
    b, n) for tracks of shape (..., n); every (n // 64)-th sample is
    compared.  For tracks of several rows, an array with the max of each.
    Raises ValueError on coordinates of another shape, and when n is not
    a multiple of 64.
    """
    b = p.kernel.b
    coords = np.asarray(coords, dtype=float)
    n = x.samples.shape[-1]
    shape = x.samples.shape[:-1] + (b, n)
    if coords.shape != shape or n % TEST_TIMES:
        raise ValueError(f"need chain coordinates of shape {shape}, with a multiple "
                         f"of {TEST_TIMES} samples, got {coords.shape}")
    conv = _convolutions(p, x, xdot, range(1, b + 1), TEST_TIMES)
    return _max_per_row(coords[..., ::n // TEST_TIMES] - conv, (-2, -1))


def direct_residual(p: chain.ProblemSpec, lam, x: PeriodicTrack):
    """Max residual of the original second-order equation over 64 times:

        | xddot - g(x, xdot, conv_b) - lam * f(t, x, xdot) |

    with xdot = x.derivative(), xddot = xdot.derivative() and conv_b the
    b-th history convolution of (x, xdot).  The times are every
    (n // 64)-th sample.  For tracks of several rows, ``lam`` holds one
    value per row, and the result is an array with the max of each.
    Raises ValueError when n is not a multiple of 64.
    """
    n = x.samples.shape[-1]
    if n % TEST_TIMES:
        raise ValueError(f"need tracks with a multiple of {TEST_TIMES} samples, got {n}")
    g, _, f = chain._compiled(p, vectorized=True)
    xdot = x.derivative()
    conv = _convolutions(p, x, xdot, (p.kernel.b,), TEST_TIMES)[..., 0, :]
    xv, vv, av = (track.samples[..., ::n // TEST_TIMES]
                  for track in (x, xdot, xdot.derivative()))
    times = np.linspace(0.0, p.T, TEST_TIMES, endpoint=False)
    lam = np.asarray(lam, dtype=float)[..., None]
    res = av - g(xv, vv, conv) - lam * f(times, xv, vv)
    return _max_per_row(res, -1)
