"""Independent verification of candidate periodic solutions.

The chain coordinates of a solution are recomputed directly as history
convolutions of the gamma density against phi(x, xdot), and the residual
of the original second-order equation is evaluated from sampled tracks.
The tracks are T-periodic, so each history integral is a circular
convolution of phi(x, xdot) with the kernel folded modulo T, integrated by
composite Simpson on 4096 cells per period and evaluated by FFT.  This
path never reuses the cascade ODEs, so agreement with the integrated
chain coordinates is a genuine cross-check of the reduction.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import chain, orbit
from .kernel import GammaKernel, tail_horizon, gamma_eval

__all__ = ["PeriodicTrack", "history_convolution", "verify_lift",
           "direct_residual", "tracks_from_trajectory"]

TRUNCATION_MASS = 1e-12
QUAD_SUBINTERVALS = 4096  # Simpson cells per period
TEST_TIMES = 64


@dataclass(eq=False)
class PeriodicTrack:
    """A T-periodic scalar signal sampled on uniform points of [0, T).

    Evaluation uses the periodic cubic spline through the samples;
    differentiation uses 4th-order central differences on the sample grid.
    """

    samples: np.ndarray
    period: float
    _coefs: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)
        if self.samples.ndim != 1 or self.samples.size < 16:
            raise ValueError("need a 1-d track with at least 16 samples")
        if not self.period > 0:
            raise ValueError("period must be positive")
        # the second derivatives M solve the circulant system
        # M[i-1] + 4 M[i] + M[i+1] = 6/h^2 (y[i-1] - 2 y[i] + y[i+1]),
        # diagonal in Fourier space with eigenvalues 4 + 2 cos(2 pi k / n)
        y = self.samples
        n = y.size
        h = self.period / n
        y_next = np.roll(y, -1)
        curvature = 6.0 / h**2 * (np.roll(y, 1) - 2.0 * y + y_next)
        eig = 4.0 + 2.0 * np.cos(2.0 * np.pi * np.arange(n // 2 + 1) / n)
        M = np.fft.irfft(np.fft.rfft(curvature) / eig, n)
        M_next = np.roll(M, -1)
        # on cell i, y[i] + c1 dx + c2 dx^2 + c3 dx^3 with dx = t - i h
        self._coefs = np.array([(M_next - M) / (6.0 * h), 0.5 * M,
                                (y_next - y) / h - h * (2.0 * M + M_next) / 6.0, y])

    def value(self, t):
        """Periodic evaluation at scalar or array times."""
        n = self.samples.size
        h = self.period / n
        tm = np.mod(t, self.period)
        i = np.minimum((tm / h).astype(int), n - 1)
        dx = tm - i * h
        c3, c2, c1, c0 = self._coefs[:, i]
        return c0 + dx * (c1 + dx * (c2 + dx * c3))

    def derivative(self) -> "PeriodicTrack":
        """Track of the time derivative (4th-order central differences)."""
        x = self.samples
        h = self.period / x.size
        d = (-np.roll(x, -2) + 8.0 * np.roll(x, -1)
             - 8.0 * np.roll(x, 1) + np.roll(x, 2)) / (12.0 * h)
        return PeriodicTrack(d, self.period)


def tracks_from_trajectory(traj: orbit.Trajectory) -> tuple[PeriodicTrack, PeriodicTrack]:
    """(x, xdot) tracks from a one-period dense trajectory."""
    period = traj.t1 - traj.t0
    return (PeriodicTrack(traj.ys[:, 0], period),
            PeriodicTrack(traj.ys[:, 1], period))


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


def history_convolution(p: chain.ProblemSpec, x: PeriodicTrack,
                        xdot: PeriodicTrack, t: float = 0.0,
                        horizon: float | None = None) -> np.ndarray:
    """Every chain coordinate as an explicit history integral, at the
    4096 times t + jT/4096 (row i - 1 holds stage i, shape (b, 4096)):

        y_i(t) = integral_0^T  K_i(tau) * phi(x(t - tau), xdot(t - tau)) dtau

    with the kernel folded modulo T, K_i(tau) = sum_m gamma_a^i(tau + mT),
    over the whole periods covering the tail horizon of mass 1e-12 (or
    ``horizon``), and composite Simpson on 4096 cells per period.  phi is
    evaluated once on that grid; each stage is a product with its cached
    kernel spectrum, and one inverse FFT gives all stages at all times.
    """
    T = x.period
    n = QUAD_SUBINTERVALS
    ts = t + T * np.arange(n) / n
    _, phi, _ = chain._compiled(p, vectorized=True)
    z = phi(x.value(ts), xdot.value(ts)) + np.zeros(n)
    a = p.kernel.a
    spectra = np.array([_kernel_spectrum(a, i, T, horizon)
                        for i in range(1, p.kernel.b + 1)])
    y = np.fft.irfft(spectra * np.fft.rfft(z), n, axis=-1)
    if not np.all(np.isfinite(y)):
        raise ArithmeticError("non-finite history convolution")
    return y


def verify_lift(p: chain.ProblemSpec, traj: orbit.Trajectory,
                x: PeriodicTrack, xdot: PeriodicTrack) -> float:
    """Max discrepancy between the chain coordinates of a one-period
    trajectory and the history convolutions of its (x, xdot) tracks, over
    all stages and 64 test times."""
    times = np.linspace(0.0, p.T, TEST_TIMES, endpoint=False)
    conv = history_convolution(p, x, xdot)[:, ::QUAD_SUBINTERVALS // TEST_TIMES]
    Y = traj.at(times)
    return float(np.max(np.abs(Y[2:p.kernel.b + 2, :] - conv)))


def direct_residual(p: chain.ProblemSpec, lam: float, x: PeriodicTrack) -> float:
    """Max residual of the original second-order equation over 64 times:

        | xddot - g(x, xdot, conv_b) - lam * f(t, x, xdot) |

    with xdot, xddot from finite differences of the track and conv_b the
    b-th history convolution.
    """
    g, _, f = chain._compiled(p, vectorized=True)
    xdot = x.derivative()
    xddot = xdot.derivative()
    times = np.linspace(0.0, p.T, TEST_TIMES, endpoint=False)
    conv = history_convolution(p, x, xdot)[-1, ::QUAD_SUBINTERVALS // TEST_TIMES]
    xv = x.value(times)
    vv = xdot.value(times)
    res = xddot.value(times) - g(xv, vv, conv) - lam * f(times, xv, vv)
    return float(np.max(np.abs(res)))
