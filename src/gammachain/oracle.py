"""Independent verification of candidate periodic solutions.

The chain coordinates of a solution are recomputed directly as history
convolutions of the gamma density against phi(x, xdot), and the residual
of the original second-order equation is evaluated from sampled tracks.
The tracks are T-periodic, so each history integral is a circular
convolution of phi(x, xdot) with the kernel folded modulo T, integrated by
composite Simpson on 4096 cells per period and evaluated by FFT.  This
path never reuses the cascade ODEs, so agreement with the integrated
chain coordinates is a genuine cross-check of the reduction.  The oracle
reads sample arrays only: it neither integrates nor imports the
integrator.

Tracks may hold several rows (solutions) on their leading axes; every
function here then works on all rows in one pass of array calls, and each
row's result is the value a one-row call gives.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import chain
from .kernel import GammaKernel, tail_horizon, gamma_eval

__all__ = ["PeriodicTrack", "history_convolution", "verify_lift",
           "direct_residual"]

TRUNCATION_MASS = 1e-12
QUAD_SUBINTERVALS = 4096  # Simpson cells per period
TEST_TIMES = 64


@dataclass(eq=False)
class PeriodicTrack:
    """T-periodic scalar signals sampled on uniform points of [0, T).

    ``samples`` has shape (..., n): one track per index of the leading
    axes, sampled along the last.  Evaluation uses the periodic cubic
    spline through the samples; differentiation uses 4th-order central
    differences on the sample grid.
    """

    samples: np.ndarray
    period: float
    _coefs: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)
        if self.samples.ndim == 0 or self.samples.shape[-1] < 16:
            raise ValueError("need tracks with at least 16 samples")
        if not self.period > 0:
            raise ValueError("period must be positive")
        # the second derivatives M solve the circulant system
        # M[i-1] + 4 M[i] + M[i+1] = 6/h^2 (y[i-1] - 2 y[i] + y[i+1]),
        # diagonal in Fourier space with eigenvalues 4 + 2 cos(2 pi k / n)
        y = self.samples
        n = y.shape[-1]
        h = self.period / n
        y_next = np.roll(y, -1, axis=-1)
        curvature = 6.0 / h**2 * (np.roll(y, 1, axis=-1) - 2.0 * y + y_next)
        eig = 4.0 + 2.0 * np.cos(2.0 * np.pi * np.arange(n // 2 + 1) / n)
        M = np.fft.irfft(np.fft.rfft(curvature) / eig, n)
        M_next = np.roll(M, -1, axis=-1)
        # on cell i, y[i] + c1 dx + c2 dx^2 + c3 dx^3 with dx = t - i h
        self._coefs = np.array([(M_next - M) / (6.0 * h), 0.5 * M,
                                (y_next - y) / h - h * (2.0 * M + M_next) / 6.0, y])

    def value(self, t):
        """Periodic evaluation at scalar or array times, shape
        (..., *t.shape) for samples of shape (..., n)."""
        n = self.samples.shape[-1]
        h = self.period / n
        tm = np.mod(t, self.period)
        i = np.minimum((tm / h).astype(int), n - 1)
        dx = tm - i * h
        # c0 + dx * (c1 + dx * (c2 + dx * c3)), one gathered coefficient at a time
        c3, c2, c1, c0 = self._coefs
        y = np.multiply(dx, np.take(c3, i, axis=-1))
        for c in (c2, c1):
            y += np.take(c, i, axis=-1)
            y *= dx
        y += np.take(c0, i, axis=-1)
        return y

    def derivative(self) -> "PeriodicTrack":
        """Track of the time derivative (4th-order central differences)."""
        x = self.samples
        h = self.period / x.shape[-1]
        d = (-np.roll(x, -2, axis=-1) + 8.0 * np.roll(x, -1, axis=-1)
             - 8.0 * np.roll(x, 1, axis=-1) + np.roll(x, 2, axis=-1)) / (12.0 * h)
        return PeriodicTrack(d, self.period)


def _simpson_weights(n: int) -> np.ndarray:
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w


@lru_cache(maxsize=128)
def _kernel_spectrum(a: float, i: int, period: float,
                     horizon: float | None) -> np.ndarray:
    """rFFT of the Simpson weights of gamma_a^i folded modulo the period.

    The fold sums the density over the whole periods that cover the tail
    horizon (or ``horizon``); the weight at tau = T joins tau = 0, where
    the periodic integrand takes the same value.
    """
    k = GammaKernel(a, i)
    H = tail_horizon(k, TRUNCATION_MASS) if horizon is None else float(horizon)
    n = QUAD_SUBINTERVALS
    periods = max(1, math.ceil(H / period))
    tau = np.linspace(0.0, period, n + 1)
    folded = np.zeros(n + 1)
    for m in range(periods):  # one period at a time keeps the peak memory flat
        folded += gamma_eval(k, tau + m * period)
    w = folded * _simpson_weights(n) * (period / n / 3.0)
    w[0] += w[n]
    spectrum = np.fft.rfft(w[:n])
    spectrum.flags.writeable = False
    return spectrum


def _phi_spectrum(p: chain.ProblemSpec, x: PeriodicTrack, xdot: PeriodicTrack,
                  ts: np.ndarray) -> np.ndarray:
    """rFFT of phi(x, xdot) at the times ts, along the last axis;
    ArithmeticError where it is not finite, as it is wherever a phi sample
    is (bin 0 sums them)."""
    _, phi, _ = chain._compiled(p, vectorized=True)
    xv = x.value(ts)
    z = np.zeros(xv.shape)  # broadcasts a phi without variables, a scalar
    z += phi(xv, xdot.value(ts))
    spectrum = np.fft.rfft(z)
    if not np.all(np.isfinite(spectrum)):
        raise ArithmeticError("non-finite history convolution")
    return spectrum


def _convolutions(p: chain.ProblemSpec, x: PeriodicTrack, xdot: PeriodicTrack,
                  stages, m: int, t: float = 0.0,
                  horizon: float | None = None) -> np.ndarray:
    """The history convolutions of ``stages`` at the m times t + jT/m (m
    divides 4096), shape (..., len(stages), m) for tracks of shape (..., n).

    phi is evaluated once on the 4096-point grid t + jT/4096 and
    transformed once.  One stage at a time, its product with the cached
    kernel spectrum is extended to the full spectrum by symmetry and summed
    over the frequencies congruent modulo m: sampling every (4096/m)-th
    time aliases them, and at m = 4096 the sum is the identity.  One
    inverse FFT of size m then gives every stage at the m times.
    ArithmeticError if phi's spectrum or a result is not finite.
    """
    T = x.period
    n = QUAD_SUBINTERVALS
    spectrum = _phi_spectrum(p, x, xdot, t + T * np.arange(n) / n)
    rows = spectrum.shape[:-1]
    full = np.empty(rows + (n,), complex)
    half, mirror = full[..., :n // 2 + 1], full[..., n // 2 + 1:]
    aliases = full.reshape(rows + (n // m, m))
    folded = np.empty(rows + (len(stages), m // 2 + 1), complex)
    for s, i in enumerate(stages):
        np.multiply(_kernel_spectrum(p.kernel.a, i, T, horizon), spectrum, out=half)
        np.conj(half[..., -2:0:-1], out=mirror)
        folded[..., s, :] = aliases.sum(axis=-2)[..., :m // 2 + 1]
    y = np.fft.irfft(folded, m) / (n // m)
    if not np.all(np.isfinite(y)):
        raise ArithmeticError("non-finite history convolution")
    return y


def history_convolution(p: chain.ProblemSpec, x: PeriodicTrack,
                        xdot: PeriodicTrack, t: float = 0.0,
                        horizon: float | None = None) -> np.ndarray:
    """Every chain coordinate as an explicit history integral, at the
    4096 times t + jT/4096 (row i - 1 holds stage i, shape (b, 4096) for
    one-row tracks):

        y_i(t) = integral_0^T  K_i(tau) * phi(x(t - tau), xdot(t - tau)) dtau

    with the kernel folded modulo T, K_i(tau) = sum_m gamma_a^i(tau + mT),
    over the whole periods covering the tail horizon of mass 1e-12 (or
    ``horizon``), and composite Simpson on 4096 cells per period.
    """
    return _convolutions(p, x, xdot, range(1, p.kernel.b + 1),
                         QUAD_SUBINTERVALS, t, horizon)


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

    with xdot, xddot from finite differences of the track and conv_b the
    b-th history convolution.  For tracks of several rows, ``lam`` holds
    one value per row, and the result is an array with the max of each.
    """
    g, _, f = chain._compiled(p, vectorized=True)
    xdot = x.derivative()
    xddot = xdot.derivative()
    conv = _convolutions(p, x, xdot, (p.kernel.b,), TEST_TIMES)[..., 0, :]
    times = np.linspace(0.0, p.T, TEST_TIMES, endpoint=False)
    xv = x.value(times)
    vv = xdot.value(times)
    lam = np.asarray(lam, dtype=float)[..., None]
    res = xddot.value(times) - g(xv, vv, conv) - lam * f(times, xv, vv)
    return _max_per_row(res, -1)
