"""Chain-trick expansion of the second-order gamma-delay equation.

A :class:`ProblemSpec` holds the three user maps and the kernel; ``expand``
turns it into the autonomous field G and T-periodic forcing F on
R^(b+2), with state ordered (u, v0, v1, ..., vb) = (x, xdot, chain stages).
Constant solutions of the second-order equation correspond to zeros of
G through ``lifted_zero``.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from . import expr
from .kernel import GammaKernel

__all__ = ["ProblemSpec", "ExpandedField", "expand", "columnwise", "lifted_zero",
           "as_state"]

_PERIODICITY_SEED = 0x5EED0001
_PERIODICITY_SAMPLES = 50
_PERIODICITY_TOL = 1e-9

G_VARS = ("x0", "x1", "x2")   # (x, xdot, delayed term)
PHI_VARS = ("p", "q")         # (x, xdot)
F_VARS = ("t", "x", "v")      # (time, x, xdot)


@dataclass(frozen=True)
class ProblemSpec:
    """The triple (g, phi, f) with kernel parameters and forcing period.

    g: Expr over (x0, x1, x2); phi: Expr over (p, q); f: Expr over (t, x, v),
    T-periodic in t (validated by sampling at construction).
    """

    g: expr.Expr
    phi: expr.Expr
    f: expr.Expr
    kernel: GammaKernel
    T: float

    def __post_init__(self):
        if not (np.isfinite(self.T) and self.T > 0):
            raise ValueError(f"period T must be positive and finite, got {self.T!r}")
        for tree, allowed, label in ((self.g, G_VARS, "g"),
                                     (self.phi, PHI_VARS, "phi"),
                                     (self.f, F_VARS, "f")):
            extra = expr.free_vars(tree) - set(allowed)
            if extra:
                raise ValueError(f"{label} may only use {allowed}, found {sorted(extra)}")
        self._check_periodicity()

    def _check_periodicity(self):
        rng = np.random.default_rng(_PERIODICITY_SEED)
        for _ in range(_PERIODICITY_SAMPLES):
            t = rng.uniform(0.0, self.T)
            x = rng.uniform(-5.0, 5.0)
            v = rng.uniform(-5.0, 5.0)
            try:
                f0 = expr.evaluate(self.f, {"t": t, "x": x, "v": v})
                f1 = expr.evaluate(self.f, {"t": t + self.T, "x": x, "v": v})
            except expr.EvalError as exc:
                raise ValueError(f"f could not be sampled for validation: {exc}") from exc
            if abs(f0 - f1) > _PERIODICITY_TOL:
                raise ValueError(
                    f"f is not T-periodic: |f(t)-f(t+T)| = {abs(f0 - f1):.3e} at t={t:.6g}")

    @classmethod
    def from_strings(cls, g: str, phi: str, f: str, a: float, b: int,
                     T: float) -> "ProblemSpec":
        return cls(g=expr.parse(g, G_VARS), phi=expr.parse(phi, PHI_VARS),
                   f=expr.parse(f, F_VARS), kernel=GammaKernel(a, b), T=T)


@dataclass(frozen=True, eq=False)
class ExpandedField:
    """First-order field on R^dim, dim = b+2.

    ``G`` is the autonomous part, ``F(t, xi)`` the forcing direction
    (nonzero only in the xdot component), ``G_modified`` a variant with the
    first cascade stage driven by the last one; it has the same zeros as G
    and a block-triangular Jacobian there, which makes it the convenient
    map for determinant and degree computations.  ``G_batch`` is G on
    columns: it maps a (dim, N) array of states to the (dim, N) array of
    their images, for evaluating many states in one call.
    """

    dim: int
    G: Callable[[np.ndarray], np.ndarray]
    F: Callable[[float, np.ndarray], np.ndarray]
    G_modified: Optional[Callable[[np.ndarray], np.ndarray]]
    problem: Optional[ProblemSpec]
    G_batch: Callable[[np.ndarray], np.ndarray]

    @classmethod
    def from_callables(cls, dim: int, G, F=None, problem=None) -> "ExpandedField":
        """A field from a scalar G; its ``G_batch`` maps G over the columns."""
        if F is None:
            def F(t, xi, _d=dim):
                return np.zeros(_d)
        return cls(dim=dim, G=G, F=F, G_modified=None, problem=problem,
                   G_batch=columnwise(G))


def columnwise(G: Callable[[np.ndarray], np.ndarray]):
    """Column-batched form of a map of one state: column k of the result
    is G applied to column k of the (dim, N) argument."""
    def G_batch(X):
        return np.stack([np.asarray(G(X[:, k]), dtype=float)
                         for k in range(X.shape[1])], axis=1)
    return G_batch


@lru_cache(maxsize=128)
def _compiled(p: ProblemSpec, vectorized: bool = False):
    """Compiled (g, phi, f); the vectorized ones take array arguments."""
    return (expr.compile_expr(p.g, G_VARS, vectorized),
            expr.compile_expr(p.phi, PHI_VARS, vectorized),
            expr.compile_expr(p.f, F_VARS, vectorized))


@lru_cache(maxsize=128)
def expand(p: ProblemSpec) -> ExpandedField:
    """Build the expanded field: componentwise

    (v0, g(u, v0, vb), a*(phi(u, v0) - v1), a*(v1 - v2), ..., a*(v_{b-1} - vb))
    with forcing (0, f(t, u, v0), 0, ..., 0).  ``G_modified`` replaces v1 in
    the first cascade stage by vb.  ``G_batch`` evaluates G on the columns
    of a (dim, N) array with the vectorized g and phi.
    """
    a = p.kernel.a
    b = p.kernel.b
    dim = b + 2

    def field(driver, batched=False):
        """The autonomous field whose first cascade stage is driven by
        state component ``driver``.  With ``batched`` set it maps the
        columns of a (dim, N) array, using the vectorized g and phi."""
        g, phi, _ = _compiled(p, vectorized=True) if batched else _compiled(p)

        def G(xi):
            out = np.empty(xi.shape) if batched else np.empty(dim)
            u, v0 = xi[0], xi[1]
            out[0] = v0
            out[1] = g(u, v0, xi[dim - 1])
            out[2] = a * (phi(u, v0) - xi[driver])
            if b >= 2:
                out[3:] = a * (xi[2:dim - 1] - xi[3:dim])
            return out
        return G

    _, _, f = _compiled(p)

    def F(t, xi):
        out = np.zeros(dim)
        out[1] = f(t, xi[0], xi[1])
        return out

    return ExpandedField(dim=dim, G=field(2), F=F, G_modified=field(dim - 1),
                         problem=p, G_batch=field(2, batched=True))


def as_state(xi, dim: int) -> np.ndarray:
    """Validate and copy a state vector (u, v0, ..., vb)."""
    arr = np.asarray(xi, dtype=float)
    if arr.shape != (dim,):
        raise ValueError(f"state must have shape ({dim},), got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("state entries must be finite")
    return arr.copy()


def lifted_zero(p: ProblemSpec, u: float) -> np.ndarray:
    """Lift a constant solution candidate: (u, 0, phi(u,0), ..., phi(u,0)).

    When u is a zero of the bifurcation function, this point is a zero of G.
    """
    _, phi, _ = _compiled(p)
    w = phi(float(u), 0.0)
    out = np.empty(p.kernel.b + 2)
    out[0] = u
    out[1] = 0.0
    out[2:] = w
    return out
