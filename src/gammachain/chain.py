"""Chain-trick expansion of the second-order gamma-delay equation.

A :class:`ProblemSpec` holds the three user maps and the kernel; ``expand``
turns it into the autonomous field G and T-periodic forcing F on
R^(b+2), with state ordered (u, v0, v1, ..., vb) = (x, xdot, chain stages).
Constant solutions of the second-order equation correspond to zeros of
G through ``lifted_zero``.  G is the one field of a problem: the
Lipschitz sampler and the degree cross-check read its column-batched form
``G_batch``.  Single solves and the stacked runs of the shooting
Jacobians run on the stages the field picks: for a chain of up to
``FLOAT_STAGES_MAX_DIM`` components, float stages, one RK45 attempt of G +
lambda F as straight-line float code, which ``rk45.float_stages`` generates
from the same expression code as the compiled g, phi and f, and which a
stacked run makes once per column, column after column, at the column's
lambda (``rk45.stacked_stages``); where a C compiler is on PATH,
``rk45.CompiledStages`` compiles that code to one C solve for both,
initial step and step loop (the same results, bit for bit), in the
background, so that the solves before the compile is done run on the
float stages.  Once it is loaded, the Python float stages are generated
only for a solve that C replays on them.
Above that limit, and for fields built from callables, NumPy stages: of G
+ lambda F for single solves, and of the fused field ``GF_batch``, G +
lambda F with one lambda per column, for stacked runs.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from . import expr, rk45
from .kernel import GammaKernel

__all__ = ["ProblemSpec", "ExpandedField", "expand", "lifted_zero", "as_state"]

_PERIODICITY_SEED = 0x5EED0001
_PERIODICITY_SAMPLES = 50
_PERIODICITY_TOL = 1e-9
# Largest dim run on float stages, single solves and stacked runs alike.
# The cost per step of the Python float stages grows with dim, that of the
# NumPy stages hardly at all: one period of the example field at lam = 0.1
# takes 2.0 / 27 / 210 ms on Python float stages and 8.1 / 13 / 33 ms on
# NumPy stages at dim 10 / 62 / 252 (2-vCPU x86); the two break even
# between dim 40 and 48.  Their C kernel is faster than both: from
# linspace(0.3, -0.2, dim) it takes 0.06 / 0.09 / 0.25 ms against 2.1 /
# 1.8 / 2.6 ms on NumPy stages at dim 10 / 62 / 252 (same machine).  A
# stacked run makes the float stages' attempt once per column, so its cost
# grows with dim * (dim + 2): one Jacobian run (dim + 2 columns) from
# linspace(0.3, -0.2, dim) at lam = 0.1, on the fields of the example,
# long_period and long_chain workloads at dim 4 / 6 / 10 and with b = a =
# dim - 2 at dim 16 / 28 / 40, takes 1.1 / 11 / 13 / 36 / 147 / 372 ms on
# the Python float stages, 2.6 / 14 / 7.9 / 11 / 18 / 32 ms on NumPy
# stages and 0.1 / 0.3 / 0.3 / 0.8 / 2.9 / 6.0 ms in C (2-vCPU x86,
# medians of 3-4).  Stacked runs still share the limit: without cc they
# lose to NumPy stages from dim 10 on (one `branch` of that field takes
# 0.99 / 2.56 s at dim 16 / 28 without cc, medians of 6), and with the
# library compiled C saves 11-18% of `branch` at dims 16 to 40 against
# NumPy stages.  No benchmark workload lies above dim 10 yet, so the limit
# stays until one measures the gain end to end.
FLOAT_STAGES_MAX_DIM = 40

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

    ``G`` is the autonomous part, ``F(t, xi)`` the forcing direction
    (nonzero only in the xdot component).  ``G_batch`` is G on columns: it
    maps a (dim, N) array of states to the (dim, N) array of their images,
    for evaluating many states in one call (box samples, finite-difference
    Jacobians).  ``GF_batch(t, X, lams)`` is G + lam F on the columns of X
    at the scalar time t, with one lam per column in the (N,) array lams:
    the field of a stacked run, written into one F-ordered (dim, N) array
    for a field from ``expand``.  ``stages(lam)`` is the (rhs, attempt)
    of ``rk45.solve_ivp`` for a single solve of G + lam F, at lam = 0 too:
    float stages (an ``rk45.CompiledAttempt`` where their C kernel is
    loaded, whose rhs and replay build the Python float stages when first
    called), or NumPy stages of rhs with attempt None.  ``stacked(lams)``
    is the same for a stacked run of the columns of a (dim, N) array,
    column after column, of G + lams[j] F in column j: float stages
    (``rk45.stacked_stages`` of the float stages of each column, or their
    C kernel), or NumPy stages of ``GF_batch`` with attempt None.
    ``jacobian_axes`` are the coordinates that the Jacobian of G varies
    with: (u, v0, vb) for a field from ``expand``, None (unknown) for one
    from ``from_callables``.
    """

    dim: int
    G: Callable[[np.ndarray], np.ndarray]
    F: Callable[[float, np.ndarray], np.ndarray]
    problem: Optional[ProblemSpec]
    G_batch: Callable[[np.ndarray], np.ndarray]
    GF_batch: Callable[[float, np.ndarray, np.ndarray], np.ndarray]
    stages: Callable[[float], tuple]
    stacked: Callable[[np.ndarray], tuple]

    @property
    def jacobian_axes(self) -> Optional[tuple]:
        return None

    @staticmethod
    def from_callables(dim: int, G, problem=None) -> "ExpandedField":
        """An unforced field from a G that maps either one state or the
        columns of a (dim, N) array (a matrix product, or NumPy ufuncs);
        G serves as ``G``, ``G_batch`` and, as G(X), ``GF_batch``, F is
        zero, and single solves run on NumPy stages."""
        def F(t, xi):
            return np.zeros(dim)

        def GF_batch(t, X, lams):
            return G(X)
        return ExpandedField(dim=dim, G=G, F=F, problem=problem, G_batch=G,
                             GF_batch=GF_batch,
                             stages=lambda lam: (lambda t, y: G(y) + lam * F(t, y), None),
                             stacked=lambda lams: (_batched_rhs(GF_batch, dim, lams), None))


class _ChainField(ExpandedField):
    """A field built by ``expand``, whose Jacobian reads only (u, v0, vb):
    the cascade rows are constant.  The class is the mark, so that
    ``dataclasses.replace`` keeps it and ``from_callables`` never has it."""

    @property
    def jacobian_axes(self) -> tuple:
        return (0, 1, self.dim - 1)


def _batched_rhs(GF_batch, dim, lams):
    """The right-hand side of a stacked solve on NumPy stages: ``GF_batch``
    on the (dim, len(lams)) view of the state, column after column."""
    lams = np.asarray(lams, dtype=float)

    def rhs(t, y):
        return GF_batch(t, y.reshape(dim, lams.size, order="F"), lams).ravel(order="F")
    return rhs


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
    with forcing (0, f(t, u, v0), 0, ..., 0).  ``G_batch`` and ``GF_batch``
    evaluate G and G + lam F on the columns of a (dim, N) array with the
    vectorized g, phi and f.  ``stages`` and ``stacked`` give the float
    stages of G + lam F up to ``FLOAT_STAGES_MAX_DIM``, from the scalar
    code of g, phi and f, and NumPy stages above it.  Their C kernel is
    built on the first call (``rk45.CompiledStages``: loaded from the
    cache, or compiled in the background), never in ``expand`` itself.
    While it is not loaded, the solves run on the Python float stages,
    which ``rk45.float_stages`` generates once for every lam; once it is,
    they are generated only on the first replay.
    """
    a = p.kernel.a
    b = p.kernel.b
    dim = b + 2

    def field(batched):
        """The autonomous field; with ``batched`` set it maps the columns
        of a (dim, N) array, using the vectorized g and phi.  It writes
        into ``out`` when given."""
        g, phi, _ = _compiled(p, vectorized=True) if batched else _compiled(p)

        def G(xi, out=None):
            if out is None:
                out = np.empty(xi.shape) if batched else np.empty(dim)
            u, v0 = xi[0], xi[1]
            out[0] = v0
            out[1] = g(u, v0, xi[dim - 1])
            out[2] = a * (phi(u, v0) - xi[2])
            out[3:] = a * (xi[2:dim - 1] - xi[3:dim])
            return out
        return G

    _, _, f = _compiled(p)
    _, _, f_batch = _compiled(p, vectorized=True)
    G = field(batched=False)
    G_batch = field(batched=True)

    def F(t, xi):
        out = np.zeros(dim)
        out[1] = f(t, xi[0], xi[1])
        return out

    def GF_batch(t, X, lams):
        out = G_batch(X, np.empty(X.shape, order="F"))
        out[1] += lams * f_batch(t, X[0], X[1])
        return out

    @lru_cache(maxsize=None)
    def derivatives():
        g_code = expr._code(p.g, {"x0": "w0", "x1": "w1", "x2": f"w{dim - 1}"})
        f_code = expr._code(p.f, {"t": "s", "x": "w0", "v": "w1"})
        phi_code = expr._code(p.phi, {"p": "w0", "q": "w1"})
        a_code = repr(float(a))
        cascade = ([f"{a_code} * ({phi_code} - w2)"]
                   + [f"{a_code} * (w{i - 1} - w{i})" for i in range(3, dim)])
        return ["w1", f"{g_code} + lam * {f_code}"] + cascade

    @lru_cache(maxsize=None)
    def python_stages():
        return rk45.float_stages(derivatives(), expr._SCALAR_NS)

    @lru_cache(maxsize=None)
    def kernel():
        return rk45.CompiledStages(derivatives())

    def on_kernel(lams, build):
        """(rhs, attempt): in C once the kernel is loaded, with the Python
        float stages that ``build`` makes left to its first replay, and
        ``build()`` until then."""
        compiled = kernel()()
        if compiled is None:
            return build()
        attempt = compiled(lams, build)
        return attempt.rhs, attempt

    def stages(lam):
        if dim > FLOAT_STAGES_MAX_DIM:
            return (lambda t, y: G(y) + lam * F(t, y)), None
        lam = float(lam)
        return on_kernel((lam,), lambda: python_stages()(lam))

    def stacked(lams):
        if dim > FLOAT_STAGES_MAX_DIM:
            return _batched_rhs(GF_batch, dim, lams), None
        lams = tuple(float(lam) for lam in lams)
        return on_kernel(lams, lambda: rk45.stacked_stages(
            [python_stages()(lam) for lam in lams], dim))

    return _ChainField(dim=dim, G=G, F=F, problem=p, G_batch=G_batch,
                       GF_batch=GF_batch, stages=stages, stacked=stacked)


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
