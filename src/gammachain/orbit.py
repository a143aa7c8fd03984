"""Time integration, periodic shooting, and branch continuation.

The integrator is an adaptive embedded Runge-Kutta 4(5) pair with dense
output sampled on 512 uniform points per period.  T-periodic starting
points solve xi(T) - xi(0) = 0 by damped Newton with a finite-difference
monodromy matrix; branches of starting points in (lambda, xi) are traced
with pseudo-arclength continuation (secant predictor, bordered Newton
corrector), so folds in lambda are traversed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Callable

import numpy as np
from scipy.integrate import solve_ivp

from . import chain

__all__ = ["Trajectory", "StartingPoint", "BranchPoint", "ContinuationParams",
           "BranchTrace", "IntegrationError", "NoConvergenceError",
           "SingularJacobianError",
           "integrate", "period_map", "newton_periodic", "trace_from_zero",
           "orbit_metrics", "fold_lambdas"]

DENSE_SAMPLES = 512
DEFAULT_TOL = 1e-10
MONODROMY_STEP = 1e-7
SINGULAR_TOL = 1e-6  # |eig(M) - 1| below this flags the phase-shift degeneracy
SEED_LAMBDA = 1e-3  # lambda of the first corrected point next to a zero


class IntegrationError(RuntimeError):
    """Integration failed (step underflow, divergence); carries the time."""

    def __init__(self, time: float, message: str):
        super().__init__(f"integration failed at t={time:.6g}: {message}")
        self.time = time


class NoConvergenceError(RuntimeError):
    """Newton iteration did not reach the residual tolerance."""


class SingularJacobianError(RuntimeError):
    """Monodromy has an eigenvalue 1: periodicity Jacobian is singular."""


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
    """A starting point with the dense solution of the solve that accepted
    it: the one-period solve from ``xi0`` at ``lam`` whose end gave
    ``residual``."""

    solution: object


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


def _solve(field, lam, xi0, t0, t1, tol, dense):
    xi0 = chain.as_state(xi0, field.dim)
    G = field.G
    F = field.F
    if lam == 0.0:
        def rhs(t, y):
            return G(y)
    else:
        def rhs(t, y):
            return G(y) + lam * F(t, y)
    try:
        sol = solve_ivp(rhs, (t0, t1), xi0, method="RK45",
                        rtol=tol, atol=tol, dense_output=dense)
    except (ZeroDivisionError, OverflowError, ValueError) as exc:
        raise IntegrationError(t0, f"field evaluation failed: {exc}") from exc
    if not sol.success:
        t_fail = float(sol.t[-1]) if sol.t.size else t0
        raise IntegrationError(t_fail, sol.message)
    if not np.all(np.isfinite(sol.y[:, -1])):
        raise IntegrationError(float(sol.t[-1]), "non-finite state")
    return sol


def _trajectory(sol, t0, t1) -> Trajectory:
    """Sample a dense solution on ``DENSE_SAMPLES`` uniform points of [t0, t1)."""
    ts = t0 + (t1 - t0) * np.arange(DENSE_SAMPLES) / DENSE_SAMPLES
    ys = sol.sol(ts).T
    return Trajectory(ts=ts, ys=ys, y_end=sol.y[:, -1].copy(),
                      t0=t0, t1=t1, _interp=sol.sol)


def integrate(field, lam: float, xi0, t0: float, t1: float,
              tol: float = DEFAULT_TOL) -> Trajectory:
    """Integrate xi' = G(xi) + lam*F(t, xi) over [t0, t1].

    Dense output is sampled on ``DENSE_SAMPLES`` uniform points of [t0, t1).
    Deterministic for fixed inputs.
    """
    if not t1 > t0:
        raise ValueError("need t1 > t0")
    return _trajectory(_solve(field, lam, xi0, t0, t1, tol, dense=True), t0, t1)


def _shoot(field, lam, xi0):
    """One period from xi0 with dense output: the solve of a shooting
    residual, which may become a branch point (``_branch_point``)."""
    return _solve(field, lam, xi0, 0.0, field.problem.T, DEFAULT_TOL, dense=True)


def period_map(field, lam: float, xi0) -> np.ndarray:
    """xi(T) for the solution starting at xi0; T from the field's problem."""
    T = field.problem.T
    sol = _solve(field, lam, xi0, 0.0, T, DEFAULT_TOL, dense=False)
    return sol.y[:, -1].copy()


def _monodromy(field, lam, xi, base):
    """Forward-difference monodromy of the period map at (lam, xi), whose
    value there is ``base``; one re-integration per column."""
    n = xi.size
    M = np.empty((n, n))
    for j in range(n):
        pert = xi.copy()
        pert[j] += MONODROMY_STEP
        M[:, j] = (period_map(field, lam, pert) - base) / MONODROMY_STEP
    return M


def newton_periodic(field, lam: float, guess,
                    params: ContinuationParams = ContinuationParams()) -> StartingPoint:
    """Damped Newton for a fixed point of the period map at fixed lambda.

    Uses ``params.newton_tol``, ``params.newton_max_iter`` and
    ``params.norm_max`` (iterates beyond it are rejected).  Raises
    :class:`SingularJacobianError` when the monodromy has an eigenvalue 1
    (e.g. the autonomous phase-shift degeneracy on nonconstant lambda = 0
    orbits) and :class:`NoConvergenceError` otherwise on failure.
    """
    tol, norm_max = params.newton_tol, params.norm_max
    xi = chain.as_state(guess, field.dim)
    if np.linalg.norm(xi, np.inf) > norm_max:
        raise NoConvergenceError(f"guess norm exceeds {norm_max}")
    sol = _shoot(field, lam, xi)
    p_base = sol.y[:, -1]
    res_vec = p_base - xi
    res = float(np.linalg.norm(res_vec, np.inf))
    identity = np.eye(field.dim)

    for _ in range(params.newton_max_iter):
        scale = 1.0 + float(np.linalg.norm(xi, np.inf))
        if res <= tol * scale:
            return _Accepted(float(lam), xi, res, sol)
        M = _monodromy(field, lam, xi, p_base)
        eigs = np.linalg.eigvals(M)
        if np.min(np.abs(eigs - 1.0)) <= SINGULAR_TOL:
            raise SingularJacobianError(
                f"monodromy eigenvalue within {SINGULAR_TOL} of 1 at lambda={lam}")
        try:
            delta = np.linalg.solve(M - identity, -res_vec)
        except np.linalg.LinAlgError as exc:
            raise SingularJacobianError(str(exc)) from exc
        # backtracking: insist on residual decrease
        improved = False
        step = 1.0
        for _ in range(8):
            cand = xi + step * delta
            if np.linalg.norm(cand, np.inf) <= norm_max:
                sol_cand = _shoot(field, lam, cand)
                p_cand = sol_cand.y[:, -1]
                r_cand = p_cand - cand
                rn = float(np.linalg.norm(r_cand, np.inf))
                if rn < res:
                    xi, sol, p_base = cand, sol_cand, p_cand
                    res_vec, res = r_cand, rn
                    improved = True
                    break
            step *= 0.5
        if not improved:
            break

    scale = 1.0 + float(np.linalg.norm(xi, np.inf))
    if res <= 1e-8 * scale:
        return _Accepted(float(lam), xi, res, sol)
    raise NoConvergenceError(
        f"no convergence at lambda={lam}: residual {res:.3e}")


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


class _CorrectorFail(Exception):
    pass


def _corrector(field, z_pred, tangent, params):
    """Bordered Newton: periodicity residual plus the normal-plane equation.

    Returns (z, iterations, the accepted starting point at z)."""
    dim = field.dim

    def residual(z):
        sol = _shoot(field, z[0], z[1:])
        return sol.y[:, -1] - z[1:], sol

    z = z_pred.copy()
    try:
        R, sol = residual(z)
    except (IntegrationError, ValueError):
        raise _CorrectorFail("residual evaluation failed at predictor")
    full = np.concatenate((R, [0.0]))
    J = None
    iters_used = 0
    for it in range(10):
        iters_used = it
        scale = 1.0 + float(np.linalg.norm(z, np.inf))
        resn = float(np.linalg.norm(full, np.inf))
        if resn <= params.newton_tol * scale:
            return z, it, _Accepted(z[0], z[1:], float(np.linalg.norm(R, np.inf)),
                                    sol)
        if J is None:
            J = np.empty((dim + 1, dim + 1))
            base = R + z[1:]  # = period_map at z
            zl = z.copy()
            zl[0] += MONODROMY_STEP
            try:
                J[:dim, 0] = ((period_map(field, zl[0], zl[1:]) - zl[1:] - R)
                              / MONODROMY_STEP)
                J[:dim, 1:] = _monodromy(field, z[0], z[1:], base) - np.eye(dim)
            except (IntegrationError, ValueError):
                raise _CorrectorFail("Jacobian evaluation failed")
            J[dim, :] = tangent
        try:
            delta = np.linalg.solve(J, -full)
        except np.linalg.LinAlgError:
            raise _CorrectorFail("singular bordered Jacobian")
        z = z + delta
        if np.linalg.norm(z[1:], np.inf) > 10.0 * params.norm_max:
            raise _CorrectorFail("corrector iterate diverged")
        try:
            R, sol = residual(z)
        except (IntegrationError, ValueError):
            raise _CorrectorFail("residual evaluation failed")
        full = np.concatenate((R, [tangent @ (z - z_pred)]))
        if it == 4 and float(np.linalg.norm(full, np.inf)) > 1e3 * params.newton_tol * scale:
            J = None  # refresh a stalling Jacobian once
    scale = 1.0 + float(np.linalg.norm(z, np.inf))
    if float(np.linalg.norm(full, np.inf)) <= 1e-9 * scale:
        return z, iters_used, _Accepted(z[0], z[1:], float(np.linalg.norm(R, np.inf)),
                                        sol)
    raise _CorrectorFail("corrector did not converge")


def _land(field, xi_guess, params, points):
    """Land exactly on the trivial lambda = 0 solution if one is reachable;
    appends it to ``points`` and returns the march's final status."""
    try:
        sp = newton_periodic(field, 0.0, xi_guess, params)
    except (SingularJacobianError, NoConvergenceError, IntegrationError):
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
            z_new, iters, acc = _corrector(field, z_pred, t_hat, params)
        except _CorrectorFail:
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
        except (SingularJacobianError, NoConvergenceError, IntegrationError):
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
        residual = float(np.linalg.norm(sol.y[:, -1] - lifted, np.inf))
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
