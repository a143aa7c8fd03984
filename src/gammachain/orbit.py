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
           "SingularJacobianError", "CorrectorFailureError",
           "integrate", "period_map", "newton_periodic", "trace_from_zero",
           "orbit_metrics", "fold_lambdas"]

DENSE_SAMPLES = 512
DEFAULT_TOL = 1e-10
MONODROMY_STEP = 1e-7
SINGULAR_TOL = 1e-6  # |eig(M) - 1| below this flags the phase-shift degeneracy


class IntegrationError(RuntimeError):
    """Integration failed (step underflow, divergence); carries the time."""

    def __init__(self, time: float, message: str):
        super().__init__(f"integration failed at t={time:.6g}: {message}")
        self.time = time


class NoConvergenceError(RuntimeError):
    """Newton iteration did not reach the residual tolerance."""


class SingularJacobianError(RuntimeError):
    """Monodromy has an eigenvalue 1: periodicity Jacobian is singular."""


class CorrectorFailureError(RuntimeError):
    """Continuation corrector failed at the minimum step size."""

    def __init__(self, message: str, points: list):
        super().__init__(message)
        self.points = points


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


def integrate(field, lam: float, xi0, t0: float, t1: float,
              tol: float = DEFAULT_TOL, n_samples: int = DENSE_SAMPLES) -> Trajectory:
    """Integrate xi' = G(xi) + lam*F(t, xi) over [t0, t1].

    Dense output is sampled on ``n_samples`` uniform points of [t0, t1).
    Deterministic for fixed inputs.
    """
    if not t1 > t0:
        raise ValueError("need t1 > t0")
    sol = _solve(field, lam, xi0, t0, t1, tol, dense=True)
    ts = t0 + (t1 - t0) * np.arange(n_samples) / n_samples
    ys = sol.sol(ts).T
    return Trajectory(ts=ts, ys=ys, y_end=sol.y[:, -1].copy(),
                      t0=t0, t1=t1, _interp=sol.sol)


def period_map(field, lam: float, xi0, tol: float = DEFAULT_TOL) -> np.ndarray:
    """xi(T) for the solution starting at xi0; T from the field's problem."""
    T = field.problem.T
    sol = _solve(field, lam, xi0, 0.0, T, tol, dense=False)
    return sol.y[:, -1].copy()


def _monodromy(field, lam, xi, base, tol=DEFAULT_TOL):
    """Forward-difference monodromy of the period map at (lam, xi), whose
    value there is ``base``; one re-integration per column."""
    n = xi.size
    M = np.empty((n, n))
    for j in range(n):
        pert = xi.copy()
        pert[j] += MONODROMY_STEP
        M[:, j] = (period_map(field, lam, pert, tol) - base) / MONODROMY_STEP
    return M


def newton_periodic(field, lam: float, guess, *, tol: float = DEFAULT_TOL,
                    max_iter: int = 25, norm_max: float = 1e6,
                    int_tol: float = DEFAULT_TOL) -> StartingPoint:
    """Damped Newton for a fixed point of the period map at fixed lambda.

    Raises :class:`SingularJacobianError` when the monodromy has an
    eigenvalue 1 (e.g. the autonomous phase-shift degeneracy on nonconstant
    lambda = 0 orbits) and :class:`NoConvergenceError` otherwise on failure.
    """
    xi = chain.as_state(guess, field.dim)
    if np.linalg.norm(xi, np.inf) > norm_max:
        raise NoConvergenceError(f"guess norm exceeds {norm_max}")
    p_base = period_map(field, lam, xi, int_tol)
    res_vec = p_base - xi
    res = float(np.linalg.norm(res_vec, np.inf))
    identity = np.eye(field.dim)

    for _ in range(max_iter):
        scale = 1.0 + float(np.linalg.norm(xi, np.inf))
        if res <= tol * scale:
            return StartingPoint(lam=float(lam), xi0=xi, residual=res)
        M = _monodromy(field, lam, xi, p_base, int_tol)
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
                p_cand = period_map(field, lam, cand, int_tol)
                r_cand = p_cand - cand
                rn = float(np.linalg.norm(r_cand, np.inf))
                if rn < res:
                    xi, p_base, res_vec, res = cand, p_cand, r_cand, rn
                    improved = True
                    break
            step *= 0.5
        if not improved:
            break

    scale = 1.0 + float(np.linalg.norm(xi, np.inf))
    if res <= 1e-8 * scale:
        return StartingPoint(lam=float(lam), xi0=xi, residual=res)
    raise NoConvergenceError(
        f"no convergence at lambda={lam}: residual {res:.3e}")


def orbit_metrics(traj: Trajectory) -> tuple[float, float]:
    """(sup |x|, max x - min x) of the first coordinate over the period."""
    x = traj.ys[:, 0]
    return float(np.max(np.abs(x))), float(np.max(x) - np.min(x))


def _branch_point(field, lam, xi, residual, int_tol=DEFAULT_TOL) -> BranchPoint:
    traj = integrate(field, lam, xi, 0.0, field.problem.T, tol=int_tol)
    sup, diam = orbit_metrics(traj)
    return BranchPoint(sp=StartingPoint(lam=float(lam), xi0=np.asarray(xi, float),
                                        residual=float(residual)),
                       sup_norm=sup, diameter=diam, arclength=0.0)


def _z(bp: BranchPoint) -> np.ndarray:
    return np.concatenate(([bp.sp.lam], bp.sp.xi0))


class _CorrectorFail(Exception):
    pass


def _corrector(field, z_pred, tangent, params):
    """Bordered Newton: periodicity residual plus the normal-plane equation."""
    dim = field.dim

    def residual(z):
        return period_map(field, z[0], z[1:]) - z[1:]

    z = z_pred.copy()
    try:
        R = residual(z)
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
            return z, it, float(np.linalg.norm(R, np.inf))
        if J is None:
            J = np.empty((dim + 1, dim + 1))
            base = R + z[1:]  # = period_map at z
            zl = z.copy()
            zl[0] += MONODROMY_STEP
            try:
                J[:dim, 0] = (residual(zl) - R) / MONODROMY_STEP
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
            R = residual(z)
        except (IntegrationError, ValueError):
            raise _CorrectorFail("residual evaluation failed")
        full = np.concatenate((R, [tangent @ (z - z_pred)]))
        if it == 4 and float(np.linalg.norm(full, np.inf)) > 1e3 * params.newton_tol * scale:
            J = None  # refresh a stalling Jacobian once
    scale = 1.0 + float(np.linalg.norm(z, np.inf))
    if float(np.linalg.norm(full, np.inf)) <= 1e-9 * scale:
        return z, iters_used, float(np.linalg.norm(R, np.inf))
    raise _CorrectorFail("corrector did not converge")


def _land(field, xi_guess, params, points):
    """Land exactly on the trivial lambda = 0 solution if one is reachable;
    appends it to ``points`` and returns the march's final status."""
    try:
        sp = newton_periodic(field, 0.0, xi_guess, tol=params.newton_tol,
                             max_iter=params.newton_max_iter,
                             norm_max=params.norm_max)
    except (SingularJacobianError, NoConvergenceError, IntegrationError):
        return "lambda_negative"
    points.append(_branch_point(field, 0.0, sp.xi0, sp.residual))
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
            z_new, iters, res = _corrector(field, z_pred, t_hat, params)
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
        points.append(_branch_point(field, z_new[0], z_new[1:], res))
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
    (backward end first, then the seed, then the forward march).  Raises
    :class:`CorrectorFailureError` when no branch can be started at all.
    """
    z0 = np.concatenate(([seed.lam], seed.xi0))
    seed_bp = _branch_point(field, seed.lam, seed.xi0, seed.residual)

    # second point by a natural lambda step fixes the initial tangent
    sp2 = None
    for dl in (params.initial_step, params.initial_step / 5.0,
               params.initial_step / 25.0):
        try:
            sp2 = newton_periodic(field, seed.lam + dl, seed.xi0,
                                  tol=params.newton_tol,
                                  max_iter=params.newton_max_iter,
                                  norm_max=params.norm_max)
            break
        except (SingularJacobianError, NoConvergenceError, IntegrationError):
            continue
    if sp2 is None:
        raise CorrectorFailureError("cannot start branch from the seed", [seed_bp])
    z1 = np.concatenate(([sp2.lam], sp2.xi0))
    t_hat = (z1 - z0) / np.linalg.norm(z1 - z0)

    minus_points, status_minus = _march(field, z0, -t_hat, params)
    bp1 = _branch_point(field, sp2.lam, sp2.xi0, sp2.residual)
    plus_points, status_plus = _march(field, z1, t_hat, params)

    ordered = list(reversed(minus_points)) + [seed_bp, bp1] + plus_points
    return BranchTrace(points=_with_arclengths(ordered),
                       status_backward=status_minus, status_forward=status_plus)


def trace_from_zero(field, u_bar: float, params: ContinuationParams,
                    seed_lambda: float = 1e-3) -> BranchTrace:
    """Seed at the lifted zero, correct at a small lambda, trace both ways.

    When the seed Newton hits a singular monodromy (the degenerate case of
    a branch confined to the lambda = 0 slice) or cannot converge, the
    result holds only the trivial point with status ``degenerate_slice``.
    """
    lifted = chain.lifted_zero(field.problem, u_bar)
    trivial = _branch_point(field, 0.0, lifted,
                            float(np.linalg.norm(
                                period_map(field, 0.0, lifted) - lifted, np.inf)))
    if params.lambda_max <= 0.0 or seed_lambda > params.lambda_max:
        return BranchTrace(points=[trivial], status_backward="lambda_max",
                           status_forward="lambda_max")
    try:
        seed = newton_periodic(field, seed_lambda, lifted,
                               tol=params.newton_tol,
                               max_iter=params.newton_max_iter,
                               norm_max=params.norm_max)
    except (SingularJacobianError, NoConvergenceError) as exc:
        return BranchTrace(points=[trivial], status_backward="degenerate_slice",
                           status_forward="degenerate_slice", reason=str(exc))
    return _trace(field, seed, params)


def fold_lambdas(points: list[BranchPoint]) -> list[float]:
    """Lambda values at interior local maxima along the traversal order."""
    lams = [bp.sp.lam for bp in points]
    return [lams[i] for i in range(1, len(lams) - 1)
            if lams[i] > lams[i - 1] and lams[i] > lams[i + 1]]
