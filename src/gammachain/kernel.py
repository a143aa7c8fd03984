"""Gamma probability density gamma_a^b and derived quantities.

The density ``a^b s^(b-1) exp(-a s) / (b-1)!`` (zero for s < 0) has mean
``b/a`` and variance ``b/a^2``.  Quadratures use composite Simpson panels
of width mean/100 with 0 always a panel endpoint, matching the
right-continuity convention at s = 0 for the shape-1 kernel.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import gammaln

__all__ = ["GammaKernel", "gamma_eval", "tail_horizon", "quadrature_mass"]

_CHUNK = 1024  # panels per vectorized block in the horizon walk


@dataclass(frozen=True)
class GammaKernel:
    """Rate a > 0 (1/time) and integer shape b >= 1."""

    a: float
    b: int

    def __post_init__(self):
        if not (isinstance(self.b, int) and not isinstance(self.b, bool)):
            raise ValueError(f"shape b must be an integer, got {self.b!r}")
        if self.b < 1:
            raise ValueError(f"shape b must be >= 1, got {self.b}")
        if not (math.isfinite(self.a) and self.a > 0):
            raise ValueError(f"rate a must be positive and finite, got {self.a!r}")

    @property
    def mean(self) -> float:
        return self.b / self.a

    @property
    def variance(self) -> float:
        return self.b / self.a**2


def gamma_eval(k: GammaKernel, s):
    """Density value(s) at ``s``; scalar in, scalar out.

    Computed in log space so large shapes do not overflow the factorial.
    At s = 0 the value is ``a`` for b = 1 (right limit) and 0 for b >= 2.
    """
    arr = np.asarray(s, dtype=float)
    out = np.zeros(arr.shape)
    pos = arr > 0
    if np.any(pos):
        sp = arr[pos]
        if k.b == 1:
            logpdf = math.log(k.a) - k.a * sp
        else:
            logpdf = (k.b * math.log(k.a) + (k.b - 1) * np.log(sp)
                      - k.a * sp - gammaln(k.b))
        out[pos] = np.exp(logpdf)
    if k.b == 1:
        out[arr == 0] = k.a
    if np.isscalar(s) or arr.ndim == 0:
        return float(out)
    return out


def _panel_masses(k: GammaKernel, start_index: int, count: int, h: float) -> np.ndarray:
    """Simpson mass of panels [i*h, (i+1)*h) for i in [start, start+count)."""
    idx = np.arange(start_index, start_index + count, dtype=float)
    s0 = idx * h
    return (h / 6.0) * (gamma_eval(k, s0)
                        + 4.0 * gamma_eval(k, s0 + 0.5 * h)
                        + gamma_eval(k, s0 + h))


def _analytic_tail_bound(k: GammaKernel, H: float) -> float:
    """Rigorous upper bound for the mass beyond H, valid for H >= 2b/a:
    s^(b-1) <= H^(b-1) exp((b-1)(s-H)/H) gives tail <= gamma(H)/(a-(b-1)/H)."""
    denom = k.a - (k.b - 1) / H
    return gamma_eval(k, H) / denom


@lru_cache(maxsize=256)
def tail_horizon(k: GammaKernel, eps: float) -> float:
    """Smallest grid value H (step mean/100) with tail mass <= eps.

    The tail mass at each grid point is the direct Simpson quadrature of
    the density from that point out to a cutoff whose remaining mass is
    analytically below eps * 1e-8; summation runs from the far tail inward
    so tiny masses are not swamped.  The tail at the returned H is
    therefore <= eps by construction.
    """
    if not (0.0 < eps < 1.0):
        raise ValueError(f"eps must be in (0, 1), got {eps!r}")
    h = k.mean / 100.0
    H_far = 2.0 * k.mean
    for _ in range(500):
        if _analytic_tail_bound(k, H_far) <= 1e-8 * eps:
            break
        H_far *= 2.0
    else:
        raise RuntimeError(f"no usable tail cutoff for {k} eps={eps}")
    n = math.ceil(H_far / h)
    panels = _panel_masses(k, 0, n, h)
    # suffix[j] = quadrature mass of [j*h, n*h]; accumulate far tail first
    suffix = np.concatenate((np.cumsum(panels[::-1])[::-1], [0.0]))
    remainder = _analytic_tail_bound(k, n * h)
    hits = np.nonzero(suffix + remainder <= eps)[0]
    return float(hits[0] * h)


def quadrature_mass(k: GammaKernel, upper: float) -> float:
    """Composite-Simpson mass of the density over [0, upper]."""
    if upper < 0:
        raise ValueError("upper must be nonnegative")
    if upper == 0:
        return 0.0
    h = k.mean / 100.0
    n = max(1, math.ceil(upper / h - 1e-12))
    w = upper / n
    idx = np.arange(n, dtype=float)
    s0 = idx * w
    panels = (w / 6.0) * (gamma_eval(k, s0)
                          + 4.0 * gamma_eval(k, s0 + 0.5 * w)
                          + gamma_eval(k, s0 + w))
    return float(np.sum(panels))
