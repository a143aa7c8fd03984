"""Periodic shooting and branch continuation.

A T-periodic starting point z = (lambda, xi) solves xi(T) - xi(0) = 0.
There is one Newton (``_newton``): chord Newton on that residual bordered
by one linear equation, with a forward-difference Jacobian.  Branches of
starting points are traced with pseudo-arclength continuation (secant
predictor, border row the unit tangent), so folds in lambda are traversed;
a fixed-lambda solve (``newton_periodic``) is the same Newton with border
row e_0 (Keller 1977; Allgower & Georg, Numerical Continuation Methods,
1990).

Every integration is one call of ``solve_ivp``, the RK45 driver of
``rk45``, made through this module's own name ``orbit.solve_ivp``, which
the benchmark's tracer wraps to count solves.  A residual or ``integrate``
is one solve on the field's float stages, straight-line float code
generated by ``chain.expand`` (on NumPy stages of G and F for a field
without them: one built from callables, or a long chain).  A shooting
Jacobian is one solve of the unperturbed column, the lambda column and the
monodromy columns, stacked into one state, on NumPy stages of the
column-batched field; the first residual of each Newton solve is its
column 0.  Dense output is sampled on 512 uniform points per period.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Callable

import numpy as np

from . import chain
from .rk45 import IntegrationError, _DenseOutput, solve_ivp

__all__ = ["Trajectory", "StartingPoint", "BranchPoint", "ContinuationParams",
           "BranchTrace", "IntegrationError", "NoConvergenceError",
           "SingularJacobianError",
           "integrate", "period_map", "newton_periodic", "trace_from_zero",
           "orbit_metrics", "fold_lambdas"]

DENSE_SAMPLES = 512
MONODROMY_STEP = 1e-7
SINGULAR_TOL = 1e-6  # least singular value of a singular bordered Jacobian
SEED_LAMBDA = 1e-3  # lambda of the first corrected point next to a zero


class NoConvergenceError(RuntimeError):
    """Newton iteration did not reach the residual tolerance."""


class SingularJacobianError(RuntimeError):
    """The bordered shooting Jacobian is singular (at fixed lambda: the
    monodromy has an eigenvalue 1)."""


# the failures of one Newton solve that a trace survives
_NEWTON_FAILURES = (SingularJacobianError, NoConvergenceError, IntegrationError)


@dataclass(eq=False)
class Trajectory:
    """Dense solution of one integration; ``ys[k] = xi(ts[k])``."""

    ts: np.ndarray
    ys: np.ndarray
    y_end: np.ndarray
    t0: float
    t1: float
    _interp: Callable

    def at(self, t):
        """Evaluate the dense output; accepts scalars or arrays."""
        return np.asarray(self._interp(t))


@dataclass(frozen=True)
class StartingPoint:
    """(lambda, xi(0)) of a T-periodic solution; residual = ||xi(T)-xi(0)||_inf."""

    lam: float
    xi0: np.ndarray
    residual: float


@dataclass(frozen=True, eq=False)
class _Accepted(StartingPoint):
    """A starting point with the dense output of the solve that accepted
    it: the one-period solution from ``xi0`` at ``lam`` whose end gave
    ``residual``, from ``_shoot`` or from column 0 of a ``_linearize``
    run."""

    solution: _DenseOutput


@dataclass(frozen=True)
class BranchPoint:
    sp: StartingPoint
    sup_norm: float
    diameter: float
    arclength: float


@dataclass(frozen=True)
class ContinuationParams:
    initial_step: float = 0.01
    min_step: float = 1e-6
    max_step: float = 0.05
    max_steps: int = 600
    newton_tol: float = 1e-10
    newton_max_iter: int = 25
    step_shrink: float = 0.5
    step_grow: float = 1.3
    lambda_max: float = 1.0
    norm_max: float = 100.0

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if f.type == "int":
                if isinstance(v, bool) or not isinstance(v, int):
                    raise ValueError(f"{f.name} must be an integer, got {v!r}")
            elif (isinstance(v, bool) or not isinstance(v, (int, float))
                  or not math.isfinite(v)):
                raise ValueError(f"{f.name} must be a finite number, got {v!r}")
        if not (0 < self.min_step <= self.initial_step <= self.max_step):
            raise ValueError("need 0 < min_step <= initial_step <= max_step")
        if self.max_steps < 1 or self.newton_max_iter < 1:
            raise ValueError("iteration counts must be positive")
        if self.newton_tol <= 0:
            raise ValueError("newton_tol must be positive")
        if not (0 < self.step_shrink < 1 < self.step_grow):
            raise ValueError("need step_shrink < 1 < step_grow")
        if self.lambda_max < 0 or self.norm_max <= 0:
            raise ValueError("lambda_max must be >= 0 and norm_max > 0")


@dataclass
class BranchTrace:
    """Ordered branch points plus the two march termination statuses."""

    points: list
    status_backward: str
    status_forward: str
    reason: str = ""


def _single(field, lam, xi0, t0, t1) -> _DenseOutput:
    """One solve of xi' = G(xi) + lam*F(t, xi): on the field's float stages,
    or on NumPy stages of G and F for a field without them."""
    y0 = chain.as_state(xi0, field.dim)
    if field.float_stages is not None:
        rhs, attempt = field.float_stages(lam)
        return solve_ivp(rhs, (t0, t1), y0, attempt=attempt).dense
    G, F = field.G, field.F
    if lam:
        def fun(t, y):
            return G(y) + lam * F(t, y)
    else:
        def fun(t, y):
            return G(y)
    return solve_ivp(fun, (t0, t1), y0).dense


def _trajectory(dense: _DenseOutput, t0, t1) -> Trajectory:
    """Sample a dense solution on ``DENSE_SAMPLES`` uniform points of [t0, t1)."""
    ts = t0 + (t1 - t0) * np.arange(DENSE_SAMPLES) / DENSE_SAMPLES
    return Trajectory(ts=ts, ys=dense(ts).T, y_end=dense.y_end,
                      t0=t0, t1=t1, _interp=dense)


def integrate(field, lam: float, xi0, t0: float, t1: float) -> Trajectory:
    """Integrate xi' = G(xi) + lam*F(t, xi) over [t0, t1], t0 < t1 with a
    finite length t1 - t0, at the tolerance ``rk45.TOL``.

    Dense output is sampled on ``DENSE_SAMPLES`` uniform points of [t0, t1).
    Deterministic for fixed inputs.
    """
    if not (t0 < t1 and math.isfinite(t1 - t0)):  # an infinite step never ends
        raise ValueError(f"need t0 < t1 with t1 - t0 finite, got t0={t0!r}, t1={t1!r}")
    return _trajectory(_single(field, lam, xi0, t0, t1), t0, t1)


def _shoot(field, lam, xi0) -> _DenseOutput:
    """One period from xi0 with dense output: the solve of a shooting
    residual away from a Jacobian point (a Newton iterate), which may
    become a branch point (``_branch_point``)."""
    return _single(field, lam, xi0, 0.0, field.problem.T)


def period_map(field, lam: float, xi0) -> np.ndarray:
    """xi(T) for the solution starting at xi0; T from the field's problem."""
    return _shoot(field, lam, xi0).y_end


def _linearize(field, lam, xi):
    """The period map at (lam, xi) and its forward differences, from one
    solve of the stacked columns.

    Column 0 starts at xi; column 1 starts at xi with lambda lam +
    MONODROMY_STEP (forced also at lam = 0); then one column starts at
    xi + MONODROMY_STEP e_j for each j.  The dim + 2 columns are one state,
    column after column, integrated by one ``solve_ivp`` under one step
    control (internal numerical differentiation, Bock 1981) on NumPy
    stages, each of which evaluates ``G_batch`` and ``F_batch`` once on the
    (dim, dim + 2) view.  Returns (xi(T), the dense output of column 0, and
    the (dim, dim + 1) quotients (P_j - xi(T)) / MONODROMY_STEP of the
    other columns' maps P_j)."""
    dim = xi.size
    n = dim + 2
    X0 = np.repeat(xi[:, None], n, axis=1)
    X0[:, 2:] += MONODROMY_STEP * np.eye(dim)
    lams = np.full(n, float(lam))
    lams[1] += MONODROMY_STEP
    G, F = field.G_batch, field.F_batch

    def fun(t, y):
        X = y.reshape(dim, n, order="F")
        return (G(X) + lams * F(t, X)).ravel(order="F")

    run = solve_ivp(fun, (0.0, field.problem.T), X0.ravel(order="F"), dim=dim)
    P = run.y[:, -1].reshape(dim, n, order="F")
    base = P[:, 0]
    return base, run.dense, (P[:, 1:] - base[:, None]) / MONODROMY_STEP


def _newton(field, z_pred, tangent, params):
    """Chord Newton for z = (lam, xi) on [P(lam, xi) - xi ; tangent . (z -
    z_pred)] = 0 from ``z_pred``, for a unit ``tangent``.

    The Jacobian is one ``_linearize`` run at z_pred, whose column 0 gives
    the residual there, refreshed once if the fifth iterate stalls.  Each
    iterate is put back on the border plane (exactly for tangent e_0, so a
    fixed lambda stays bit-exact).  Acceptance: residual <= ``newton_tol``,
    or <= 1e-9 after the last of ``newton_max_iter`` iterations, times
    1 + ||z||_inf.  Returns (z, iterations, the accepted starting point).
    Raises :class:`SingularJacobianError` (least singular value of the
    bordered Jacobian <= ``SINGULAR_TOL``) or :class:`NoConvergenceError`
    (xi beyond 10 ``norm_max`` or non-finite, or nothing accepted).
    """
    dim, tol, cap = field.dim, params.newton_tol, params.newton_max_iter

    def jacobian(z):
        base, dense, D = _linearize(field, z[0], z[1:])
        J = np.vstack((D - np.eye(dim, dim + 1, 1), tangent))
        if np.linalg.svd(J, compute_uv=False)[-1] <= SINGULAR_TOL:
            raise SingularJacobianError(f"singular bordered Jacobian at lambda={z[0]}")
        return J, base, dense

    z = z_pred.copy()
    J, y_end, sol = jacobian(z)
    for it in range(cap + 1):
        R = y_end - z[1:]
        res = float(np.linalg.norm(R, np.inf))
        scale = 1.0 + float(np.linalg.norm(z, np.inf))
        if res <= tol * scale or (it == cap and res <= 1e-9 * scale):
            return z, it, _Accepted(float(z[0]), z[1:], res, sol)
        if it == cap:
            break
        if it == 5 and res > 1e3 * tol * scale:
            J = jacobian(z)[0]  # refresh a stalling Jacobian once
        try:
            delta = np.linalg.solve(J, -np.append(R, 0.0))
        except np.linalg.LinAlgError as exc:
            raise SingularJacobianError(str(exc)) from exc
        z = z + delta
        z -= (tangent @ (z - z_pred)) * tangent
        if not np.linalg.norm(z[1:], np.inf) <= 10.0 * params.norm_max:
            raise NoConvergenceError(f"Newton iterate diverged at lambda={z[0]}")
        sol = _shoot(field, z[0], z[1:])
        y_end = sol.y_end
    raise NoConvergenceError(f"no convergence at lambda={z[0]}: residual {res:.3e}")


def newton_periodic(field, lam: float, guess,
                    params: ContinuationParams = ContinuationParams()) -> StartingPoint:
    """A fixed point of the period map at fixed lambda, from ``guess``.

    This is the bordered Newton ``_newton`` with border row e_0, whose
    equation holds lambda, so it uses ``params.newton_tol``,
    ``params.newton_max_iter`` and ``params.norm_max``.  A guess beyond
    ``norm_max`` is refused.  Raises :class:`SingularJacobianError` when
    the monodromy has an eigenvalue 1, so that the bordered Jacobian, with
    determinant +-det(M - I), is singular (e.g. the autonomous phase-shift
    degeneracy on nonconstant lambda = 0 orbits), and
    :class:`NoConvergenceError` otherwise on failure.
    """
    xi = chain.as_state(guess, field.dim)
    if np.linalg.norm(xi, np.inf) > params.norm_max:
        raise NoConvergenceError(f"guess norm exceeds {params.norm_max}")
    e0 = np.eye(field.dim + 1)[0]
    return _newton(field, np.concatenate(([float(lam)], xi)), e0, params)[2]


def orbit_metrics(traj: Trajectory) -> tuple[float, float]:
    """(sup |x|, max x - min x) of the first coordinate over the period."""
    x = traj.ys[:, 0]
    return float(np.max(np.abs(x))), float(np.max(x) - np.min(x))


def _branch_point(field, acc: _Accepted) -> BranchPoint:
    """The branch point of an accepted starting point, its orbit metrics
    taken from the dense solution of the solve that accepted it."""
    sup, diam = orbit_metrics(_trajectory(acc.solution, 0.0, field.problem.T))
    return BranchPoint(sp=StartingPoint(lam=float(acc.lam),
                                        xi0=np.asarray(acc.xi0, float),
                                        residual=float(acc.residual)),
                       sup_norm=sup, diameter=diam, arclength=0.0)


def _z(bp: BranchPoint) -> np.ndarray:
    return np.concatenate(([bp.sp.lam], bp.sp.xi0))


def _land(field, xi_guess, params, points):
    """Land exactly on the trivial lambda = 0 solution if one is reachable;
    appends it to ``points`` and returns the march's final status."""
    try:
        sp = newton_periodic(field, 0.0, xi_guess, params)
    except _NEWTON_FAILURES:
        return "lambda_negative"
    points.append(_branch_point(field, sp))
    return "lambda_zero"


def _march(field, z_start, tangent, params):
    """Trace one direction; returns (points, status)."""
    points: list[BranchPoint] = []
    zs = [z_start.copy()]
    tangents = [tangent / np.linalg.norm(tangent)]
    ds = params.initial_step
    status = "max_steps"

    for _ in range(params.max_steps):
        t_hat = tangents[-1]
        z_last = zs[-1]
        z_pred = z_last + ds * t_hat
        if z_pred[0] < 0.0:
            status = _land(field, z_last[1:], params, points)
            break
        try:
            z_new, iters, acc = _newton(field, z_pred, t_hat, params)
        except _NEWTON_FAILURES:
            ds *= params.step_shrink
            if ds < params.min_step:
                status = "corrector_failure"
                break
            continue
        if z_new[0] < 0.0:
            status = _land(field, z_new[1:], params, points)
            break
        if z_new[0] > params.lambda_max:
            status = "lambda_max"
            break
        if np.linalg.norm(z_new[1:], np.inf) > params.norm_max:
            status = "norm_max"
            break
        step_vec = z_new - z_last
        new_tangent = step_vec / np.linalg.norm(step_vec)
        closed = False
        for z_old, t_old in zip(zs[:-1], tangents[:-1]):
            if (np.linalg.norm(z_new - z_old) <= 1e-6
                    and float(new_tangent @ t_old) > 0.9):
                closed = True
                break
        if closed:
            status = "closed_loop"
            break
        points.append(_branch_point(field, acc))
        zs.append(z_new)
        tangents.append(new_tangent)
        if iters <= 3:
            ds = min(ds * params.step_grow, params.max_step)
        elif iters >= 7:
            ds = max(ds * params.step_shrink, params.min_step)
    return points, status


def _with_arclengths(points: list[BranchPoint]) -> list[BranchPoint]:
    out = []
    arc = 0.0
    prev = None
    for bp in points:
        z = _z(bp)
        if prev is not None:
            arc += float(np.linalg.norm(z - prev))
        prev = z
        out.append(replace(bp, arclength=arc))
    return out


def _trace(field, seed: StartingPoint, params: ContinuationParams) -> BranchTrace:
    """Pseudo-arclength continuation from a converged starting point.

    Both tangent directions are traced and merged in traversal order
    (backward end first, then the seed, then the forward march).  When no
    second point can be corrected, the trace is the seed alone with status
    ``corrector_failure`` both ways.  The natural step to the second point
    stops at ``lambda_max``.  Only a seed already at ``lambda_max`` steps
    beyond it; that second point fixes the tangent but is not kept, and the
    forward march ends at once with status ``lambda_max``.
    """
    z0 = np.concatenate(([seed.lam], seed.xi0))
    seed_bp = _branch_point(field, seed)

    # second point by a natural lambda step fixes the initial tangent
    lam_stop = params.lambda_max if params.lambda_max > seed.lam else math.inf
    sp2 = None
    for dl in (params.initial_step, params.initial_step / 5.0,
               params.initial_step / 25.0):
        try:
            sp2 = newton_periodic(field, min(seed.lam + dl, lam_stop), seed.xi0,
                                  params)
            break
        except _NEWTON_FAILURES:
            continue
    if sp2 is None:
        return BranchTrace([seed_bp], "corrector_failure", "corrector_failure")
    z1 = np.concatenate(([sp2.lam], sp2.xi0))
    t_hat = (z1 - z0) / np.linalg.norm(z1 - z0)

    minus_points, status_minus = _march(field, z0, -t_hat, params)
    if sp2.lam > params.lambda_max:
        plus_points, status_plus = [], "lambda_max"
    else:
        bp1 = _branch_point(field, sp2)
        plus_points, status_plus = _march(field, z1, t_hat, params)
        plus_points.insert(0, bp1)

    ordered = list(reversed(minus_points)) + [seed_bp] + plus_points
    return BranchTrace(points=_with_arclengths(ordered),
                       status_backward=status_minus, status_forward=status_plus)


def trace_from_zero(field, u_bar: float, params: ContinuationParams) -> BranchTrace:
    """Seed at the lifted zero, correct at ``SEED_LAMBDA``, trace both ways.

    When the seed Newton hits a singular monodromy (the degenerate case of
    a branch confined to the lambda = 0 slice) or cannot converge, the
    result holds only the trivial point with status ``degenerate_slice``.
    """
    lifted = chain.lifted_zero(field.problem, u_bar)

    def trivial_only(status: str, reason: str = "") -> BranchTrace:
        sol = _shoot(field, 0.0, lifted)
        residual = float(np.linalg.norm(sol.y_end - lifted, np.inf))
        return BranchTrace([_branch_point(field, _Accepted(0.0, lifted, residual, sol))],
                           status, status, reason)

    if SEED_LAMBDA > params.lambda_max:
        return trivial_only("lambda_max")
    try:
        seed = newton_periodic(field, SEED_LAMBDA, lifted, params)
    except (SingularJacobianError, NoConvergenceError) as exc:
        return trivial_only("degenerate_slice", str(exc))
    return _trace(field, seed, params)


def fold_lambdas(points: list[BranchPoint]) -> list[float]:
    """Lambda values at interior turning points (local maxima or minima of
    lambda) along the traversal order."""
    lams = [bp.sp.lam for bp in points]
    return [lam for prev, lam, nxt in zip(lams, lams[1:], lams[2:])
            if lam > max(prev, nxt) or lam < min(prev, nxt)]
