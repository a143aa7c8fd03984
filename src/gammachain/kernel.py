"""Gamma probability density gamma_a^b and derived quantities.

The density ``a^b s^(b-1) exp(-a s) / (b-1)!`` (zero for s < 0) has mean
``b/a`` and variance ``b/a^2``.  Its mass beyond H is the regularized
upper incomplete gamma function Q(b, aH).  Quadratures use composite
Simpson panels of width mean/100 with 0 always a panel endpoint, matching
the right-continuity convention at s = 0 for the shape-1 kernel.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import gammaincc, gammainccinv, gammaln

__all__ = ["GammaKernel", "gamma_eval", "tail_horizon", "quadrature_mass"]


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


@lru_cache(maxsize=256)
def tail_horizon(k: GammaKernel, eps: float) -> float:
    """Smallest grid value H (step mean/100) with tail mass <= eps.

    The mass beyond H is the regularized upper incomplete gamma function
    Q(b, aH).  Its inverse gives the starting grid index, which is then
    corrected against Q itself in both directions.
    """
    if not (0.0 < eps < 1.0):
        raise ValueError(f"eps must be in (0, 1), got {eps!r}")
    h = k.mean / 100.0
    j = math.ceil(gammainccinv(k.b, eps) / (k.a * h))
    while j > 0 and gammaincc(k.b, k.a * ((j - 1) * h)) <= eps:
        j -= 1
    while gammaincc(k.b, k.a * (j * h)) > eps:
        j += 1
    return float(j * h)


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
