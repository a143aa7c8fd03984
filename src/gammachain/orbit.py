"""Periodic shooting and branch continuation.

A T-periodic starting point z = (lambda, xi) solves xi(T) - xi(0) = 0.
There is one Newton (``_newton``) on that residual bordered by one linear
equation: a chord Newton with a forward-difference Jacobian, preceded in
the continuation by good-Broyden iterates on a Jacobian estimate carried
from point to point.  Branches of starting points are traced with
pseudo-arclength continuation (secant predictor, border row the unit
tangent, corrector started from a quadratic extrapolation of the last
three points), so folds in lambda are traversed; the shooting Jacobian is
updated along the curve and recomputed only where Broyden stalls
(predictor-corrector with Jacobian updating).  A fixed-lambda solve
(``newton_periodic``) is the chord Newton with border row e_0 (Keller
1977; Broyden 1965; Allgower & Georg, Numerical Continuation Methods,
1990, ch. 7).

Every integration is one call of ``solve_ivp``, the RK45 driver of
``rk45``, made through this module's own name ``orbit.solve_ivp``, which
the benchmark's tracer wraps to count solves, made by ``_solve`` on the
field's float stages for its columns (``field.stages(lams)``).  A residual
or ``integrate`` is one solve of one column.  A shooting Jacobian is one
solve of the unperturbed column, the lambda column and the monodromy
columns, stacked into one state; the first residual of each chord Newton
is its column 0.  Every solve is one ``rk45.Solution``, whose call is its
dense output; ``dense_samples`` samples it on 512 uniform points.
"""
from __future__ import annotations

import math

import numpy as np

from . import chain
from .rk45 import IntegrationError, Solution, solve_ivp

__all__ = ["StartingPoint", "BranchPoint", "ContinuationParams",
           "BranchTrace", "IntegrationError", "NoConvergenceError",
           "SingularJacobianError",
           "integrate", "period_map", "newton_periodic", "trace_from_zero",
           "dense_samples", "orbit_metrics", "fold_lambdas"]

DENSE_SAMPLES = 512
MONODROMY_STEP = 1e-7
SINGULAR_TOL = 1e-6  # least singular value of a singular bordered Jacobian
SEED_LAMBDA = 1e-3  # lambda of the first corrected point next to a zero
BROYDEN_MAX_ITER = 6  # iterates of a Broyden phase, at most newton_max_iter
BROYDEN_CONTRACTION = 0.3  # least residual contraction per Broyden iterate


class NoConvergenceError(RuntimeError):
    """Newton iteration did not reach the residual tolerance."""


class SingularJacobianError(RuntimeError):
    """The bordered shooting Jacobian is singular (at fixed lambda: the
    monodromy has an eigenvalue 1)."""


# the failures of one Newton solve that a trace survives
_NEWTON_FAILURES = (SingularJacobianError, NoConvergenceError, IntegrationError)


class StartingPoint:
    """(lambda, xi(0)) of a T-periodic solution; residual = ||xi(T)-xi(0)||_inf."""

    __slots__ = ("lam", "xi0", "residual")

    def __init__(self, lam: float, xi0: np.ndarray, residual: float):
        self.lam = lam
        self.xi0 = xi0
        self.residual = residual


class _Accepted(StartingPoint):
    """A starting point with the solve that accepted it: the one-period
    solution from ``xi0`` at ``lam`` whose end gave ``residual``, from
    ``_shoot`` or a ``_linearize`` run, whose column 0 it is."""

    __slots__ = ("solution",)

    def __init__(self, lam: float, xi0: np.ndarray, residual: float, solution: Solution):
        super().__init__(lam, xi0, residual)
        self.solution = solution


class BranchPoint:
    __slots__ = ("sp", "sup_norm", "diameter", "arclength")

    def __init__(self, sp: StartingPoint, sup_norm: float, diameter: float,
                 arclength: float):
        self.sp = sp
        self.sup_norm = sup_norm
        self.diameter = diameter
        self.arclength = arclength


def finite_number(v) -> bool:
    """Whether v is an int or float, not a bool, of finite float value."""
    try:
        return not isinstance(v, bool) and isinstance(v, (int, float)) and math.isfinite(v)
    except OverflowError:  # an integer beyond the float range
        return False


def shown(v, limit: int = 40) -> str:
    """repr(v) for an error message: its first ``limit`` characters and
    its length, when it is longer."""
    text = repr(v)
    return text if len(text) <= limit else f"{text[:limit]}... ({len(text)} characters)"


class ContinuationParams:
    """The continuation's settings; the keyword names are the config's
    ``continuation`` keys (``__slots__``), the two counts integers and the
    rest finite numbers."""

    __slots__ = ("initial_step", "min_step", "max_step", "max_steps", "newton_tol",
                 "newton_max_iter", "step_shrink", "step_grow", "lambda_max", "norm_max")

    def __init__(self, initial_step: float = 0.01, min_step: float = 1e-6,
                 max_step: float = 0.05, max_steps: int = 600, newton_tol: float = 1e-10,
                 newton_max_iter: int = 25, step_shrink: float = 0.5,
                 step_grow: float = 1.3, lambda_max: float = 1.0, norm_max: float = 100.0):
        values = (initial_step, min_step, max_step, max_steps, newton_tol,
                  newton_max_iter, step_shrink, step_grow, lambda_max, norm_max)
        for name, v in zip(self.__slots__, values):
            if name in ("max_steps", "newton_max_iter"):
                if isinstance(v, bool) or not isinstance(v, int):
                    raise ValueError(f"{name} must be an integer, got {shown(v)}")
            elif not finite_number(v):
                raise ValueError(f"{name} must be a finite number, got {shown(v)}")
            setattr(self, name, v)
        if not (0 < min_step <= initial_step <= max_step):
            raise ValueError("need 0 < min_step <= initial_step <= max_step")
        if max_steps < 1 or newton_max_iter < 1:
            raise ValueError("iteration counts must be positive")
        if newton_tol <= 0:
            raise ValueError("newton_tol must be positive")
        if not (0 < step_shrink < 1 < step_grow):
            raise ValueError("need step_shrink < 1 < step_grow")
        if lambda_max < 0 or norm_max <= 0:
            raise ValueError("lambda_max must be >= 0 and norm_max > 0")


class BranchTrace:
    """Ordered branch points plus the two march termination statuses."""

    __slots__ = ("points", "status_backward", "status_forward", "reason")

    def __init__(self, points: list, status_backward: str, status_forward: str,
                 reason: str = ""):
        self.points = points
        self.status_backward = status_backward
        self.status_forward = status_forward
        self.reason = reason


def _solve(field, lams, y0, t0, t1) -> Solution:
    """One solve of the columns of y0, stacked column after column, of
    xi' = G(xi) + lams[c]*F(t, xi) in column c, on the field's float
    stages for them; its dense output and ``y_end`` are column 0's."""
    return solve_ivp(field.stages(lams), (t0, t1), y0)


def integrate(field, lam: float, xi0, t0: float, t1: float) -> Solution:
    """Integrate xi' = G(xi) + lam*F(t, xi) over [t0, t1], t0 < t1 with a
    finite length t1 - t0, at the tolerance ``rk45.TOL``, from a state xi0
    of shape (dim,) with finite entries.

    Returns the solve: called, it is the dense output; ``y_end`` is
    xi(t1).  Deterministic for fixed inputs.
    """
    if not (t0 < t1 and math.isfinite(t1 - t0)):  # an infinite step never ends
        raise ValueError(f"need t0 < t1 with t1 - t0 finite, got t0={t0!r}, t1={t1!r}")
    return _solve(field, (lam,), chain.as_state(xi0, field.dim), t0, t1)


def dense_samples(sol: Solution, components=None) -> np.ndarray:
    """The solve at ``DENSE_SAMPLES`` uniform points of [t0, t1), shape
    (dim, DENSE_SAMPLES), or (components, DENSE_SAMPLES) for the first
    ``components`` components only."""
    t0, t1 = sol.t[0], sol.t[-1]
    return sol(t0 + (t1 - t0) * np.arange(DENSE_SAMPLES) / DENSE_SAMPLES, components)


def _shoot(field, lam, xi0) -> Solution:
    """One period from the finite state xi0: the solve of a shooting
    residual away from a Jacobian point (a Newton iterate), which may
    become a branch point (``_branch_point``)."""
    return _solve(field, (lam,), xi0, 0.0, field.problem.T)


def period_map(field, lam: float, xi0) -> np.ndarray:
    """xi(T) for the solution starting at xi0, a state of shape (dim,)
    with finite entries; T from the field's problem."""
    return _shoot(field, lam, chain.as_state(xi0, field.dim)).y_end


def _linearize(field, lam, xi):
    """The period map at (lam, xi) and its forward differences, from one
    solve of the stacked columns.

    Column 0 starts at xi; column 1 starts at xi with lambda lam +
    MONODROMY_STEP (forced also at lam = 0); then one column starts at
    xi + MONODROMY_STEP e_j for each j.  The dim + 2 columns are one state,
    column after column, integrated by one ``_solve`` under one step
    control (internal numerical differentiation, Bock 1981).  Returns (the
    run, whose dense output and ``y_end`` are column 0's, so ``y_end`` is
    the base map xi(T), and the (dim, dim + 1) quotients (P_j - xi(T)) /
    MONODROMY_STEP of the other columns' maps P_j)."""
    dim = xi.size
    n = dim + 2
    X0 = np.repeat(xi[:, None], n, axis=1)
    X0[:, 2:] += MONODROMY_STEP * np.eye(dim)
    lams = np.full(n, float(lam))
    lams[1] += MONODROMY_STEP
    run = _solve(field, lams, X0.ravel(order="F"), 0.0, field.problem.T)
    P = run.y[:, -1].reshape(dim, n, order="F")
    return run, (P[:, 1:] - P[:, :1]) / MONODROMY_STEP


def _newton(field, z_pred, tangent, params, start=None, A=None):
    """Newton for z = (lam, xi) on [P(lam, xi) - xi ; tangent . (z -
    z_pred)] = 0 from ``start`` (default ``z_pred``), a point of the border
    plane, for a unit ``tangent``.

    Given ``A``, an estimate of the state block [P(lam, xi) - xi]' (dim,
    dim + 1), the solve first runs ``_broyden`` from the start.  Otherwise,
    or when that phase gives up, it is a chord Newton from where that
    phase got to: the Jacobian is one ``_linearize`` run there, whose
    column 0 gives the residual there, refreshed once if the fifth iterate
    stalls.  Each iterate is put back on the border plane (exactly for
    tangent e_0, so a fixed lambda stays bit-exact).  Acceptance: residual
    <= ``newton_tol``, or (chord only) <= 1e-9 after the last of
    ``newton_max_iter`` iterations, times 1 + ||z||_inf.  Returns (z,
    iterations, the accepted starting point, A): the chord iterations, 0
    when the Broyden phase accepted, and the state block that phase
    updated or that of the chord's last Jacobian.  Raises
    :class:`SingularJacobianError` (least singular value of the bordered
    Jacobian <= ``SINGULAR_TOL``) or :class:`NoConvergenceError` (xi
    beyond 10 ``norm_max`` or non-finite, or nothing accepted).
    """
    dim, tol, cap = field.dim, params.newton_tol, params.newton_max_iter
    z = z_pred if start is None else start
    if A is not None and BROYDEN_MAX_ITER > 0:
        z, acc, A = _broyden(field, z_pred, tangent, params, z, A)
        if acc is not None:
            return z, 0, acc, A

    def jacobian(z):
        run, D = _linearize(field, z[0], z[1:])
        J = np.vstack((D - np.eye(dim, dim + 1, 1), tangent))
        if np.linalg.svd(J, compute_uv=False)[-1] <= SINGULAR_TOL:
            raise SingularJacobianError(f"singular bordered Jacobian at lambda={z[0]}")
        return J, run

    z = z.copy()
    J, sol = jacobian(z)
    for it in range(cap + 1):
        R = sol.y_end - z[1:]
        res = float(np.linalg.norm(R, np.inf))
        scale = 1.0 + float(np.linalg.norm(z, np.inf))
        if res <= tol * scale or (it == cap and res <= 1e-9 * scale):
            return z, it, _Accepted(float(z[0]), z[1:], res, sol), J[:dim]
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
    raise NoConvergenceError(f"no convergence at lambda={z[0]}: residual {res:.3e}")


def _broyden(field, z_pred, tangent, params, z, A):
    """The quasi-Newton phase of ``_newton`` from z with the state block
    estimate A: the good-Broyden method (Broyden 1965) on the bordered
    system.

    One single solve at z gives its residual R.  Each iterate solves
    [A; tangent] delta = -[R; 0], is put back on the border plane, shoots,
    and updates A += (dR - A delta) delta^T / ||delta||^2 with the step it
    took.  Returns (z, the accepted starting point, A) once a residual is
    accepted at ``newton_tol``, or (the iterate of least residual, None,
    A) to go on with the chord Newton: after an iterate that contracts the
    residual by less than ``BROYDEN_CONTRACTION``, after
    min(``BROYDEN_MAX_ITER``, ``newton_max_iter``) iterates, or on a
    singular solve, a diverged iterate or a failed integration.
    """
    tol = params.newton_tol
    try:
        sol = _shoot(field, z[0], z[1:])
    except IntegrationError:
        return z, None, A
    R = sol.y_end - z[1:]
    res = float(np.linalg.norm(R, np.inf))
    A = A.copy()
    limit = min(BROYDEN_MAX_ITER, params.newton_max_iter)
    for it in range(limit + 1):
        if res <= tol * (1.0 + float(np.linalg.norm(z, np.inf))):
            return z, _Accepted(float(z[0]), z[1:], res, sol), A
        if it == limit:
            break
        try:
            z_new = z + np.linalg.solve(np.vstack((A, tangent)), -np.append(R, 0.0))
        except np.linalg.LinAlgError:
            break
        z_new -= (tangent @ (z_new - z_pred)) * tangent
        if not np.linalg.norm(z_new[1:], np.inf) <= 10.0 * params.norm_max:
            break
        try:
            sol_new = _shoot(field, z_new[0], z_new[1:])
        except IntegrationError:
            break
        R_new = sol_new.y_end - z_new[1:]
        res_new = float(np.linalg.norm(R_new, np.inf))
        if res_new > BROYDEN_CONTRACTION * res:
            return (z_new if res_new < res else z), None, A
        delta = z_new - z
        A += np.outer(R_new - R - A @ delta, delta / (delta @ delta))
        z, R, res, sol = z_new, R_new, res_new, sol_new
    return z, None, A


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


def orbit_metrics(x) -> tuple[float, float]:
    """(sup |x|, max x - min x) of the samples x of the first coordinate
    over the period."""
    return float(np.max(np.abs(x))), float(np.max(x) - np.min(x))


def _branch_point(acc: _Accepted) -> BranchPoint:
    """The branch point of an accepted starting point, its orbit metrics
    taken from the dense samples of x of the solve that accepted it."""
    sup, diam = orbit_metrics(dense_samples(acc.solution, 1)[0])
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
    points.append(_branch_point(sp))
    return "lambda_zero"


def _extrapolate(zs, ds, z_pred, t_hat):
    """The quadratic through the three points ``zs`` in the chord-length
    parameter, at ds beyond the last, put on the border plane t_hat . (z -
    z_pred) = 0."""
    s1 = float(np.linalg.norm(zs[1] - zs[0]))
    s2 = s1 + float(np.linalg.norm(zs[2] - zs[1]))
    s = s2 + ds
    q = ((s - s1) * (s - s2) / (s1 * s2) * zs[0]
         - s * (s - s2) / (s1 * (s2 - s1)) * zs[1]
         + s * (s - s1) / (s2 * (s2 - s1)) * zs[2])
    return q - (t_hat @ (q - z_pred)) * t_hat


def _march(field, z_start, tangent, params):
    """Trace one direction; returns (points, status).

    Each step predicts z_pred = z_last + ds t_hat along the secant tangent
    t_hat and corrects on the border plane through z_pred with ``_newton``,
    started from z_pred while the march holds fewer than three points and
    from ``_extrapolate`` of the last three after that.  The first solve
    takes a full Jacobian.  Its state block A then rides along the curve
    (predictor-corrector with Jacobian updating; Allgower & Georg 1990,
    ch. 7): after each accepted step dz, A <- A - (A dz) dz^T / ||dz||^2,
    the secant condition with zero residual at both ends, and the next
    solve starts with Broyden on A.  ds grows by ``step_grow`` after a
    solve that took at most 3 chord iterations (0 when Broyden accepted
    without a fresh Jacobian), and shrinks by ``step_shrink`` after 7 or
    more, and after a failed solve.
    """
    points: list[BranchPoint] = []
    curve = np.empty((16, 2, z_start.size))  # accepted (z, tangent) rows
    curve[0] = z_start, tangent / np.linalg.norm(tangent)
    n = 1
    A = None
    ds = params.initial_step
    status = "max_steps"

    for _ in range(params.max_steps):
        z_last, t_hat = curve[n - 1]
        z_pred = z_last + ds * t_hat
        if z_pred[0] < 0.0:
            status = _land(field, z_last[1:], params, points)
            break
        start = z_pred if n < 3 else _extrapolate(curve[n - 3:n, 0], ds, z_pred, t_hat)
        try:
            z_new, iters, acc, A_new = _newton(field, z_pred, t_hat, params, start, A)
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
        earlier = curve[:n - 1]
        if np.any((np.linalg.norm(earlier[:, 0] - z_new, axis=1) <= 1e-6)
                  & (earlier[:, 1] @ new_tangent > 0.9)):
            status = "closed_loop"
            break
        points.append(_branch_point(acc))
        if n == len(curve):
            curve = np.concatenate((curve, np.empty_like(curve)))
        curve[n] = z_new, new_tangent
        n += 1
        A = A_new - np.outer(A_new @ step_vec, step_vec / (step_vec @ step_vec))
        if iters <= 3:
            ds = min(ds * params.step_grow, params.max_step)
        elif iters >= 7:
            ds = max(ds * params.step_shrink, params.min_step)
    return points, status


def _with_arclengths(points: list[BranchPoint]) -> list[BranchPoint]:
    """Sets each point's arclength, the length of the polygon in (lambda,
    xi) from the first point to it, and returns the points."""
    arc = 0.0
    prev = None
    for bp in points:
        z = _z(bp)
        if prev is not None:
            arc += float(np.linalg.norm(z - prev))
        prev = z
        bp.arclength = arc
    return points


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
    seed_bp = _branch_point(seed)

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
        bp1 = _branch_point(sp2)
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
        return BranchTrace([_branch_point(_Accepted(0.0, lifted, residual, sol))],
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
