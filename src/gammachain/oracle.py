"""Independent verification of candidate periodic solutions.

The chain coordinates of a solution are recomputed directly as history
convolutions of the gamma density against phi(x, xdot), and the residual
of the original second-order equation is evaluated from sampled tracks.
A track is the trigonometric interpolant of its n samples of one period
T, and ``PeriodicTrack.value`` sums it at arbitrary times.  phi is
evaluated on the samples, and the history integral of stage i multiplies
each harmonic exp(2 pi i k t / T) of its interpolant by the gamma law's
Laplace transform (a / (a + 2 pi i k / T))^i (MacDonald, Time Lags in
Biological Models, 1978).  So every convolution is one rFFT of phi on the
samples, one product with those transfer functions and one inverse FFT of
size n: the tracks' own sampling is the only discretisation.  Every
derivative of a track is ``PeriodicTrack.derivative``'s central
differences on its samples.  This path never reuses the cascade ODEs, so
agreement with the integrated chain coordinates is a genuine cross-check
of the reduction.  The oracle reads sample arrays only: it neither
integrates nor imports the integrator.

Tracks may hold several rows (solutions) on their leading axes; every
function here then works on all rows in one pass of array calls, and each
row's result is the value a one-row call gives.
"""
from __future__ import annotations

import numpy as np

from . import chain
# unused here, but perfbench/tracing.py patches both names on this module
from .kernel import gamma_eval, tail_horizon

__all__ = ["PeriodicTrack", "history_convolution", "verify_lift",
           "direct_residual"]

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


def _kernel_spectra(a: float, b: int, period: float, n: int) -> np.ndarray:
    """The gamma law's transfer functions (a / (a + i w_k))^i at the rFFT
    bins w_k = 2 pi k / T, k = 0 .. n // 2, row i - 1 for stage i = 1 ..
    b, shape (b, n // 2 + 1): the cumulative product over the stages."""
    w = 2.0 * np.pi * np.arange(n // 2 + 1) / period
    return np.cumprod(np.broadcast_to(a / (a + 1j * w), (b, w.size)), axis=0)


def _convolutions(p: chain.ProblemSpec, x: PeriodicTrack,
                  xdot: PeriodicTrack, stages, m: int) -> np.ndarray:
    """The history convolutions of ``stages`` at the m times jT/m (m
    divides n), shape (..., len(stages), m) for tracks of shape (..., n).

    phi is evaluated once on the samples and transformed once; its
    spectrum times each stage's transfer function, by one inverse FFT of
    size n, gives every stage at the n sample times, of which every
    (n/m)-th is kept.  ArithmeticError if phi's spectrum or a result is
    not finite, as the spectrum is wherever a phi sample is (bin 0 sums
    them).
    """
    _, phi, _ = chain._compiled(p, vectorized=True)
    z = np.zeros(x.samples.shape)  # broadcasts a phi without variables, a scalar
    z += phi(x.samples, xdot.samples)
    spectrum = np.fft.rfft(z)
    if not np.all(np.isfinite(spectrum)):
        raise ArithmeticError("non-finite history convolution")
    n = z.shape[-1]
    kernels = _kernel_spectra(p.kernel.a, p.kernel.b, x.period, n)
    y = np.fft.irfft(spectrum[..., None, :] * kernels[[i - 1 for i in stages]], n)
    if not np.all(np.isfinite(y)):
        raise ArithmeticError("non-finite history convolution")
    return y[..., ::n // m]


def history_convolution(p: chain.ProblemSpec, x: PeriodicTrack,
                        xdot: PeriodicTrack) -> np.ndarray:
    """Every chain coordinate as an explicit history integral, at the
    tracks' n sample times t = jT/n (row i - 1 holds stage i, shape (b, n)
    for one-row tracks):

        y_i(t) = integral_0^inf  gamma_a^i(tau) * psi(t - tau) dtau

    with psi the trigonometric interpolant of phi(x, xdot) on the samples.
    Each harmonic exp(i w t) of psi, w = 2 pi k / T, comes out multiplied
    by the density's Laplace transform (a / (a + i w))^i, so the integral
    is exact to rounding: no quadrature, truncation or grid beyond the
    samples.
    """
    n = x.samples.shape[-1]
    return _convolutions(p, x, xdot, range(1, p.kernel.b + 1), n)


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
