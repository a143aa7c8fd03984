"""Gamma probability density gamma_a^b and derived quantities.

The density ``a^b s^(b-1) exp(-a s) / (b-1)!`` (zero for s < 0) has mean
``b/a`` and variance ``b/a^2``.  Its mass beyond H is the regularized
upper incomplete gamma function Q(b, aH), for the integer shape b the
Erlang tail sum; tail horizons are multiples of mean/100.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = ["GammaKernel", "gamma_eval", "tail_horizon"]


class GammaKernel:
    """Rate a > 0 (1/time) and integer shape b >= 1; immutable, equal and
    hashed by value."""

    __slots__ = ("a", "b")

    def __init__(self, a: float, b: int):
        if not (isinstance(b, int) and not isinstance(b, bool)):
            raise ValueError(f"shape b must be an integer, got {b!r}")
        if b < 1:
            raise ValueError(f"shape b must be >= 1, got {b}")
        if not (math.isfinite(a) and a > 0):
            raise ValueError(f"rate a must be positive and finite, got {a!r}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: a kernel is immutable")

    def __eq__(self, other):
        if type(other) is not GammaKernel:
            return NotImplemented
        return (self.a, self.b) == (other.a, other.b)

    def __hash__(self):
        return hash((self.a, self.b))

    @property
    def mean(self) -> float:
        return self.b / self.a


def gamma_eval(k: GammaKernel, s):
    """Density value(s) at ``s``; scalar in, scalar out.

    Computed in log space so large shapes do not overflow the factorial.
    At s = 0 the value is ``a`` for b = 1 (right limit) and 0 for b >= 2;
    at s = inf it is 0, the limit, for every b.
    """
    arr = np.asarray(s, dtype=float)
    out = np.zeros(arr.shape)
    pos = (arr > 0) & (arr < math.inf)
    sp = arr[pos]
    out[pos] = np.exp(k.b * math.log(k.a) + (k.b - 1) * np.log(sp)
                      - k.a * sp - math.lgamma(k.b))
    if k.b == 1:
        out[arr == 0] = k.a
    if np.isscalar(s) or arr.ndim == 0:
        return float(out)
    return out


def _erlang_tail(b: int, x: float) -> float:
    """Q(b, x) = exp(-x) sum_{k<b} x^k / k!, the mass beyond x of the unit
    rate gamma density of integer shape b; terms in log space, summed
    exactly rounded."""
    if x <= 0.0:
        return 1.0
    log_x = math.log(x)
    return math.fsum(math.exp(k * log_x - x - math.lgamma(k + 1)) for k in range(b))


@lru_cache(maxsize=256)
def tail_horizon(k: GammaKernel, eps: float) -> float:
    """Smallest grid value H (step mean/100) with tail mass <= eps.

    The mass beyond H is the Erlang tail Q(b, aH), which decreases in H.
    The grid index doubles from the mean (index 100) until the mass is
    <= eps, then bisection finds the smallest such index.
    """
    if not (0.0 < eps < 1.0):
        raise ValueError(f"eps must be in (0, 1), got {eps!r}")
    h = k.mean / 100.0

    def above(j):
        return _erlang_tail(k.b, k.a * (j * h)) > eps

    lo, hi = 0, 100  # the mass at index 0 is 1 > eps
    while above(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if above(mid):
            lo = mid
        else:
            hi = mid
    return float(hi * h)
