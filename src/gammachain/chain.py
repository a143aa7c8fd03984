"""Chain-trick expansion of the second-order gamma-delay equation.

A :class:`ProblemSpec` holds the three user maps and the kernel; ``expand``
turns it into the autonomous field G and T-periodic forcing F on
R^(b+2), with state ordered (u, v0, v1, ..., vb) = (x, xdot, chain stages).
Constant solutions of the second-order equation correspond to zeros of
G through ``lifted_zero``.  G, on a state or a block of states as
columns, is the one field of a problem; F, which no library code calls,
and the dataclass stay for the tests and the benchmark's tracer.  Every
solve, single or the stacked run of a shooting Jacobian, runs on the
float stages of ``stages(lams)``, one lambda per column: one RK45 attempt
of G + lambda F as straight-line float code, which ``rk45.float_stages``
generates from the same expression code as the compiled g, phi and f.
Where a C compiler is on PATH, ``rk45.compiled_stages`` compiles the C
that the same writer makes of the same trees to one C solve on the first
solve, which waits for it; the Python float stages are then generated
only for a solve that C replays on them.  On those, a stacked run makes
its columns' attempts at once on an array (``rk45.vector_stages``), with
the bits and the failures of the C solve.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from . import expr, rk45
from .kernel import GammaKernel

__all__ = ["ProblemSpec", "ExpandedField", "expand", "lifted_zero", "as_state"]

_PERIODICITY_SEED = 0x5EED0001
_PERIODICITY_SAMPLES = 50
_PERIODICITY_TOL = 1e-9

G_VARS = ("x0", "x1", "x2")   # (x, xdot, delayed term)
PHI_VARS = ("p", "q")         # (x, xdot)
F_VARS = ("t", "x", "v")      # (time, x, xdot)


def _nesting(e: expr.Expr) -> int:
    """The deepest parenthesis nesting of e's Python source,
    ``expr._code(e)``: at most one pair per level, so at most depth(e)."""
    level = deepest = 0
    for c in expr._code(e):
        level += (c == "(") - (c == ")")
        deepest = max(deepest, level)
    return deepest


def _too_deep(e: expr.Expr) -> str:
    """Why e is too deep to run, or "": more than ``expr.MAX_DEPTH``
    levels, or Python source nested deeper than ``expr.MAX_NESTING``
    parentheses, which only a tree of more levels than that can be."""
    levels = expr.depth(e)
    if levels > expr.MAX_DEPTH:
        return f"{levels} levels, more than {expr.MAX_DEPTH}"
    if levels > expr.MAX_NESTING and (nested := _nesting(e)) > expr.MAX_NESTING:
        return f"{nested} nested parentheses, more than {expr.MAX_NESTING}"
    return ""


class ProblemSpec:
    """The triple (g, phi, f) with kernel parameters and forcing period.

    g: Expr over (x0, x1, x2); phi: Expr over (p, q); f: Expr over (t, x, v),
    T-periodic in t (validated by sampling at construction), none of them
    too deep (``_too_deep``).  Immutable, equal and hashed by value; the
    hash, which the field caches key on, is taken once, at construction.
    """

    __slots__ = ("g", "phi", "f", "kernel", "T", "_hash")

    def __init__(self, g: expr.Expr, phi: expr.Expr, f: expr.Expr,
                 kernel: GammaKernel, T: float):
        if not (np.isfinite(T) and T > 0):
            raise ValueError(f"period T must be positive and finite, got {T!r}")
        for tree, allowed, label in ((g, G_VARS, "g"), (phi, PHI_VARS, "phi"),
                                     (f, F_VARS, "f")):
            if why := _too_deep(tree):
                raise ValueError(f"an expression is nested too deeply: {label} has {why}")
            extra = expr.free_vars(tree) - set(allowed)
            if extra:
                raise ValueError(f"{label} may only use {allowed}, found {sorted(extra)}")
        values = (g, phi, f, kernel, T)
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)
        self._check_periodicity()
        object.__setattr__(self, "_hash", hash(values))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: a problem is immutable")

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if type(other) is not ProblemSpec:
            return NotImplemented
        return self is other or (self._hash == other._hash and (
            (self.g, self.phi, self.f, self.kernel, self.T)
            == (other.g, other.phi, other.f, other.kernel, other.T)))

    def _check_periodicity(self):
        # the standard library's generator: numpy.random alone would cost
        # every command its import
        rng = random.Random(_PERIODICITY_SEED)
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

    ``G(xi)`` is the autonomous part and ``F(t, xi)`` the forcing direction
    (nonzero only in the xdot component); each maps a state of shape (dim,)
    or the columns of a (dim, N) array to images of the same shape.
    ``stages(lams)`` is the stages value of
    ``rk45.solve_ivp`` for the columns of a (dim, N) array stacked into
    one state, column after column, of G + lams[j] F in column j, at
    lams[j] = 0 too; ``(lam,)`` gives a single solve.  They are float
    stages at every dim: an ``rk45.CompiledAttempt`` where their C kernel
    is loaded, which builds the (rhs, attempt) of the Python float stages
    for a replay, and that (rhs, attempt) otherwise.  ``dim`` and
    ``jacobian_axes``, the coordinates that the Jacobian of G varies with,
    (u, v0, vb), are read from ``problem``.  Every field is built by
    ``expand``.  ``F``, which only the tests call, and the dataclass stay
    for the benchmark's tracer, which copies a field with
    ``dataclasses.replace`` to count the calls of ``G`` and ``F``.
    """

    G: Callable[[np.ndarray], np.ndarray]
    F: Callable[[float, np.ndarray], np.ndarray]
    problem: ProblemSpec
    stages: Callable[[tuple], tuple]

    @property
    def dim(self) -> int:
        return self.problem.kernel.b + 2

    @property
    def jacobian_axes(self) -> tuple:
        return (0, 1, self.dim - 1)


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
    with forcing (0, f(t, u, v0), 0, ..., 0), by the vectorized g, phi and
    f.  ``stages`` gives the float stages of G + lam F, from the Python and
    the C that ``expr._code`` writes of g, phi and f, in the same chain
    glue.  Their C kernel is built on the first call
    (``rk45.compiled_stages``: loaded from the cache, or compiled then),
    never in ``expand`` itself, and that call's answer holds for the life
    of the field.  Without a kernel the solves run on the Python float
    stages, which ``rk45.float_stages`` generates once for every lam; with
    one, they are generated only on the first replay.
    """
    a = p.kernel.a
    dim = p.kernel.b + 2
    g, phi, f = _compiled(p, vectorized=True)

    def G(xi):
        out = np.empty(xi.shape)
        u, v0 = xi[0], xi[1]
        out[0] = v0
        out[1] = g(u, v0, xi[dim - 1])
        out[2] = a * (phi(u, v0) - xi[2])
        out[3:] = a * (xi[2:dim - 1] - xi[3:dim])
        return out

    def F(t, xi):
        out = np.zeros(xi.shape)
        out[1] = f(t, xi[0], xi[1])
        return out

    def vector_field(lams):
        """G + lams[c] F on row c of a (columns, dim) array of states, for
        ``rk45.vector_stages``: the cascade rows elementwise, and rows 1
        and 2 by the scalar g, phi and f (NumPy's sin, cos and exp need not
        round as the float stages' libm does) in one loop over the columns,
        g, f and phi in each, the float stages' order, so that the first of
        them to fail is the one at which C stops."""
        g, phi, f = _compiled(p)
        def field(s, W, out):
            u, v0, vb = W[:, 0].tolist(), W[:, 1].tolist(), W[:, dim - 1].tolist()
            out[:, 0] = W[:, 1]
            out[:, 1:3] = [(g(x, v, w) + lam * f(s, x, v), phi(x, v))
                           for x, v, w, lam in zip(u, v0, vb, lams)]
            out[:, 2] = a * (out[:, 2] - W[:, 2])
            out[:, 3:] = a * (W[:, 2:dim - 1] - W[:, 3:])
        return field

    def derivatives(c):
        """The components of G + lam F over the stage state w, the stage
        time s and lam: Python expressions, or C ones with ``c`` set."""
        w = [f"w[{i}]" if c else f"w{i}" for i in range(dim)]
        g_code = expr._code(p.g, {"x0": w[0], "x1": w[1], "x2": w[-1]}, c=c)
        f_code = expr._code(p.f, {"t": "s", "x": w[0], "v": w[1]}, c=c)
        phi_code = expr._code(p.phi, {"p": w[0], "q": w[1]}, c=c)
        a_code = repr(float(a))
        return ([w[1], f"{g_code} + lam * ({f_code})", f"{a_code} * ({phi_code} - {w[2]})"]
                + [f"{a_code} * ({w[i - 1]} - {w[i]})" for i in range(3, dim)])

    @lru_cache(maxsize=None)
    def column_stages():
        return rk45.float_stages(derivatives(c=False), expr._SCALAR_NS)

    @lru_cache(maxsize=None)
    def kernel():
        return rk45.compiled_stages(derivatives(c=True))

    def python_stages(lams):
        """The Python float stages of the columns at ``lams``: a lone
        column's own, and for more, vectorized."""
        columns = [column_stages()(lam) for lam in lams]
        if len(columns) == 1:
            return columns[0]
        return rk45.vector_stages(vector_field(lams), columns, dim)

    def stages(lams):
        lams = tuple(float(lam) for lam in lams)
        compiled = kernel()
        if compiled is None:
            return python_stages(lams)
        return compiled(lams, lambda: python_stages(lams))

    return ExpandedField(G=G, F=F, problem=p, stages=stages)


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
