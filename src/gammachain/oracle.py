"""Independent verification of candidate periodic solutions.

The chain coordinates of a solution are recomputed directly as history
convolutions of the gamma density against phi(x, xdot) by truncated
quadrature, and the residual of the original second-order equation is
evaluated from sampled tracks.  This path never reuses the cascade ODEs,
so agreement with the integrated chain coordinates is a genuine
cross-check of the reduction.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.interpolate import CubicSpline

from . import chain, orbit
from .kernel import GammaKernel, tail_horizon, gamma_eval

__all__ = ["PeriodicTrack", "history_convolution", "verify_lift",
           "direct_residual", "tracks_from_trajectory"]

TRUNCATION_MASS = 1e-12
QUAD_SUBINTERVALS = 4096
TEST_TIMES = 64


@dataclass(eq=False)
class PeriodicTrack:
    """A T-periodic scalar signal sampled on uniform points of [0, T).

    Evaluation uses periodic cubic interpolation; differentiation uses
    4th-order central differences on the sample grid.
    """

    samples: np.ndarray
    period: float
    _spline: CubicSpline = field(init=False, repr=False)

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)
        if self.samples.ndim != 1 or self.samples.size < 16:
            raise ValueError("need a 1-d track with at least 16 samples")
        if not self.period > 0:
            raise ValueError("period must be positive")
        n = self.samples.size
        ts = np.linspace(0.0, self.period, n + 1)
        ys = np.concatenate((self.samples, self.samples[:1]))
        self._spline = CubicSpline(ts, ys, bc_type="periodic")

    def value(self, t):
        """Periodic evaluation at scalar or array times."""
        return self._spline(np.mod(t, self.period))

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


@lru_cache(maxsize=128)
def _vec_phi(p: chain.ProblemSpec):
    import gammachain.expr as expr
    return expr.compile_expr(p.phi, chain.PHI_VARS, vectorized=True)


def _simpson_weights(n: int) -> np.ndarray:
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w


def history_convolution(p: chain.ProblemSpec, x: PeriodicTrack,
                        xdot: PeriodicTrack, i: int, t: float,
                        horizon: float | None = None) -> float:
    """The i-th chain coordinate as an explicit history integral:

        integral_0^H  gamma_a^i(s) * phi(x(t - s), xdot(t - s)) ds

    truncated at H with tail mass 1e-12 and integrated by composite Simpson
    with 4096 subintervals, exploiting periodicity of the track factor.
    """
    b = p.kernel.b
    if not 1 <= i <= b:
        raise ValueError(f"need 1 <= i <= {b}, got {i}")
    k_i = GammaKernel(p.kernel.a, i)
    H_default = tail_horizon(k_i, TRUNCATION_MASS)
    step = H_default / QUAD_SUBINTERVALS  # fixed step: a longer horizon only adds panels
    if horizon is None:
        n = QUAD_SUBINTERVALS
        H = H_default
    else:
        n = int(np.ceil(float(horizon) / step))
        n += n % 2  # Simpson needs an even panel count
        H = n * step
    s = np.linspace(0.0, H, n + 1)
    gam = gamma_eval(k_i, s)
    phi = _vec_phi(p)
    z0 = phi(x.value(t - s), xdot.value(t - s)) + np.zeros_like(s)
    integrand = gam * z0
    h = H / n
    val = float(h / 3.0 * np.dot(_simpson_weights(n), integrand))
    if not np.isfinite(val):
        raise ArithmeticError("non-finite history convolution")
    return val


def verify_lift(p: chain.ProblemSpec, sp: orbit.StartingPoint,
                traj: orbit.Trajectory | None = None) -> float:
    """Max discrepancy between integrated chain coordinates and the
    history convolutions, over all stages and 64 test times."""
    fld = chain.expand(p)
    if traj is None:
        traj = orbit.integrate(fld, sp.lam, sp.xi0, 0.0, p.T)
    x, xdot = tracks_from_trajectory(traj)
    times = np.linspace(0.0, p.T, TEST_TIMES, endpoint=False)
    Y = traj.at(times)
    worst = 0.0
    for i in range(1, p.kernel.b + 1):
        conv = np.array([history_convolution(p, x, xdot, i, t) for t in times])
        worst = max(worst, float(np.max(np.abs(Y[i + 1, :] - conv))))
    return worst


def direct_residual(p: chain.ProblemSpec, lam: float, x: PeriodicTrack) -> float:
    """Max residual of the original second-order equation over 64 times:

        | xddot - g(x, xdot, conv_b) - lam * f(t, x, xdot) |

    with xdot, xddot from finite differences of the track and conv_b the
    b-th history convolution.
    """
    g, _, f = chain._compiled(p)
    xdot = x.derivative()
    xddot = xdot.derivative()
    b = p.kernel.b
    times = np.linspace(0.0, p.T, TEST_TIMES, endpoint=False)
    worst = 0.0
    for t in times:
        conv = history_convolution(p, x, xdot, b, t)
        xv = float(x.value(t))
        vv = float(xdot.value(t))
        res = float(xddot.value(t)) - g(xv, vv, conv)
        if lam != 0.0:
            res -= lam * f(t, xv, vv)
        worst = max(worst, abs(res))
    return worst
