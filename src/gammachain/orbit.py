"""Time integration, periodic shooting, and branch continuation.

The integrator is an adaptive embedded Runge-Kutta 4(5) pair with dense
output sampled on 512 uniform points per period.  T-periodic starting
points solve xi(T) - xi(0) = 0 by damped Newton with a forward-difference
monodromy matrix; branches of starting points in (lambda, xi) are traced
with pseudo-arclength continuation (secant predictor, bordered Newton
corrector), so folds in lambda are traversed.

A shooting Jacobian goes through ``_period_maps``, which integrates the
unperturbed column, the monodromy columns and, in the corrector, the lambda
column in one lockstep RK45 run on the column-batched field, each column
under the step control of its own ``solve_ivp`` call.  Column 0 of the run
is the unperturbed one and carries its dense output, so the first residual
of each corrector and each Newton solve rides in its Jacobian run;
``period_map`` is the one-column case.  The later residuals and
``integrate`` are ``solve_ivp`` solves.  Both kinds of dense output are
evaluated by one vectorized quartic interpolant (``_DenseOutput``).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Callable

import numpy as np
from scipy.integrate import RK45, solve_ivp

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

# the Dormand-Prince 5(4) pair and step controller of solve_ivp's RK45
_STAGES = RK45.n_stages
_A_ROWS = [RK45.A[s, :s] for s in range(_STAGES)]
_B, _C, _E, _P = RK45.B, RK45.C, RK45.E, RK45.P
_ERROR_EXPONENT = -1 / (RK45.error_estimator_order + 1)
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0


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


@dataclass(frozen=True, eq=False)
class _DenseOutput:
    """The dense output of one RK45 solution, evaluated vectorized.

    On step k, from ``ts[k]`` to ``ts[k+1]`` with h = ts[k+1] - ts[k] and
    x = (t - ts[k]) / h, the solution is the Dormand-Prince quartic
    interpolant ``y_old[k] + h * Q[k] @ (x, x^2, x^3, x^4)``, with
    Q[k] = K^T ``RK45.P`` for the step's stages K (Hairer, Norsett & Wanner,
    Solving ODEs I, II.6).  A time on a step boundary takes the earlier
    step, and times outside [ts[0], ts[-1]] extrapolate the first or last
    step, as in ``OdeSolution``.  ``y_end`` is the state at ``ts[-1]``.
    """

    ts: np.ndarray
    Q: np.ndarray
    y_old: np.ndarray
    y_end: np.ndarray

    @classmethod
    def of(cls, sol):
        """The dense output of a ``solve_ivp(..., dense_output=True)`` result,
        from its ``RkDenseOutput`` pieces."""
        pieces = sol.sol.interpolants
        return cls(ts=np.asarray(sol.sol.ts, dtype=float),
                   Q=np.array([piece.Q for piece in pieces]),
                   y_old=np.array([piece.y_old for piece in pieces]),
                   y_end=sol.y[:, -1].copy())

    def __call__(self, t):
        """y(t): shape (dim,) for a scalar t, (dim, len(t)) for an array."""
        t = np.asarray(t, dtype=float)
        tv = t.reshape(-1)
        k = np.clip(np.searchsorted(self.ts, tv, side="left") - 1,
                    0, len(self.Q) - 1)
        t_old = self.ts[k]
        h = self.ts[k + 1] - t_old
        powers = np.cumprod(np.tile((tv - t_old) / h, (self.Q.shape[-1], 1)), axis=0)
        y = h * np.einsum("mdk,km->dm", self.Q[k], powers) + self.y_old[k].T
        return y[:, 0] if t.ndim == 0 else y


def _solve(field, lam, xi0, t0, t1, tol) -> _DenseOutput:
    xi0 = chain.as_state(xi0, field.dim)
    G = field.G
    F = field.F
    t_stage = t0  # the time of the latest field evaluation

    def rhs(t, y):
        nonlocal t_stage
        t_stage = t
        return G(y) + lam * F(t, y) if lam else G(y)

    try:
        sol = solve_ivp(rhs, (t0, t1), xi0, method="RK45",
                        rtol=tol, atol=tol, dense_output=True)
    except (ZeroDivisionError, OverflowError, ValueError) as exc:
        raise IntegrationError(float(t_stage),
                               f"field evaluation failed: {exc}") from exc
    if not sol.success:
        t_fail = float(sol.t[-1]) if sol.t.size else t0
        raise IntegrationError(t_fail, sol.message)
    if not np.all(np.isfinite(sol.y[:, -1])):
        raise IntegrationError(float(sol.t[-1]), "non-finite state")
    return _DenseOutput.of(sol)


def _trajectory(dense: _DenseOutput, t0, t1) -> Trajectory:
    """Sample a dense solution on ``DENSE_SAMPLES`` uniform points of [t0, t1)."""
    ts = t0 + (t1 - t0) * np.arange(DENSE_SAMPLES) / DENSE_SAMPLES
    return Trajectory(ts=ts, ys=dense(ts).T, y_end=dense.y_end,
                      t0=t0, t1=t1, _interp=dense)


def integrate(field, lam: float, xi0, t0: float, t1: float,
              tol: float = DEFAULT_TOL) -> Trajectory:
    """Integrate xi' = G(xi) + lam*F(t, xi) over [t0, t1].

    Dense output is sampled on ``DENSE_SAMPLES`` uniform points of [t0, t1).
    Deterministic for fixed inputs.
    """
    if not t1 > t0:
        raise ValueError("need t1 > t0")
    return _trajectory(_solve(field, lam, xi0, t0, t1, tol), t0, t1)


def _shoot(field, lam, xi0) -> _DenseOutput:
    """One period from xi0 with dense output: the solve of a shooting
    residual away from a Jacobian point (Newton iterates, backtracking
    candidates, later corrector iterates), which may become a branch point
    (``_branch_point``)."""
    return _solve(field, lam, xi0, 0.0, field.problem.T, DEFAULT_TOL)


def _rms(X):
    """RMS norm of each column, as ``solve_ivp`` measures one state."""
    return np.sqrt(np.einsum("ij,ij->j", X, X)) / X.shape[0] ** 0.5


def _period_maps(field, lams, X0):
    """xi(T) of every column of the (dim, N) array X0, column j at lambda
    ``lams[j]``, from one lockstep RK45 run over all columns, and the
    :class:`_DenseOutput` of column 0 over [0, T].

    Each column keeps its own time, step and accept/reject state under the
    Dormand-Prince 5(4) controller of ``solve_ivp(..., method="RK45",
    rtol=atol=DEFAULT_TOL)`` (Hairer, Norsett & Wanner, Solving ODEs I,
    II.4): the same initial step, tableau, error norm and step factors, so
    each column takes the steps its own ``solve_ivp`` call would.  Every
    attempt evaluates the field once per stage for all running columns,
    through ``G_batch`` and ``F_batch``; a column leaves the run when it
    reaches T.  Column 0 keeps the start, state and stages of each of its
    accepted steps, from which its dense output is built as ``solve_ivp``
    builds it.  A step below ``solve_ivp``'s minimum (also after non-finite
    stages, whose NaN error norm shrinks the step like any rejection) or a
    non-finite accepted state raises :class:`IntegrationError` at that
    column's time; a failing field evaluation raises it at the least time
    of the running columns.
    """
    T = float(field.problem.T)
    tol = DEFAULT_TOL
    lam = np.asarray(lams, dtype=float)
    Y = np.array(X0, dtype=float)
    dim, n = Y.shape
    G, F = field.G_batch, field.F_batch
    if np.any(lam):
        def rhs(t, X):
            return G(X) + lam * F(t, X)
    else:
        def rhs(t, X):
            return G(X)

    out = np.empty((dim, n))
    cols = np.arange(n)  # the running columns, in the order of Y's columns
    t = np.zeros(n)
    ts0, Q0, y0_old = [0.0], [], []  # column 0's accepted steps
    with np.errstate(all="ignore"):
        try:
            f = rhs(t, Y)
            if not np.isfinite(f).all():
                raise IntegrationError(0.0, "non-finite field at the start")
            # solve_ivp's initial step (scipy's select_initial_step)
            scale = tol + np.abs(Y) * tol
            d0, d1 = _rms(Y / scale), _rms(f / scale)
            h0 = np.fmin(np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1), T)
            d2 = _rms((rhs(h0, Y + h0 * f) - f) / scale) / h0
            h1 = np.where((d1 <= 1e-15) & (d2 <= 1e-15), np.fmax(1e-6, h0 * 1e-3),
                          (0.01 / np.fmax(d1, d2)) ** -_ERROR_EXPONENT)
            h = np.fmin(np.fmin(100 * h0, h1), T)
            fresh = np.ones(n, dtype=bool)  # the last attempt was accepted
            K = np.empty((_STAGES + 1, dim, n))
            while cols.size:
                m = cols.size
                K2 = K.reshape(_STAGES + 1, dim * m)
                min_step = 10 * np.spacing(t)
                if not (h >= min_step).all():
                    # min_step clips only a fresh step; a retried one fails
                    h = np.where(fresh & (h < min_step), min_step, h)
                    small = ~(h >= min_step)
                    if small.any():
                        raise IntegrationError(float(t[np.argmax(small)]),
                                               "Required step size is less than "
                                               "spacing between numbers.")
                t_new = np.fmin(t + h, T)
                step = t_new - t
                K[0] = f
                for s in range(1, _STAGES):
                    dy = np.dot(K2[:s].T, _A_ROWS[s]).reshape(dim, m) * step
                    K[s] = rhs(t + _C[s] * step, Y + dy)
                y_new = Y + step * np.dot(K2[:_STAGES].T, _B).reshape(dim, m)
                f_new = K[_STAGES] = rhs(t + step, y_new)
                scale = tol + np.maximum(np.abs(Y), np.abs(y_new)) * tol
                error_norm = _rms(np.dot(K2.T, _E).reshape(dim, m) * step / scale)
                factor = _SAFETY * error_norm ** _ERROR_EXPONENT
                accept = error_norm < 1
                # scipy's min/max factor clips, NaN-safe: a NaN error norm
                # rejects the step and shrinks it by MIN_FACTOR
                h = step * np.where(accept,
                                    np.fmin(np.where(fresh, _MAX_FACTOR, 1.0), factor),
                                    np.fmax(_MIN_FACTOR, factor))
                if not np.isfinite(y_new).all():
                    bad = accept & ~np.isfinite(y_new).all(axis=0)
                    if bad.any():
                        raise IntegrationError(float(t_new[np.argmax(bad)]),
                                               "non-finite state")
                fresh = accept
                if cols[0] == 0 and accept[0]:
                    ts0.append(t_new[0])
                    y0_old.append(Y[:, 0])
                    Q0.append(K[:, :, 0].T.dot(_P))
                if accept.all():
                    t, Y, f = t_new, y_new, f_new
                else:
                    t = np.where(accept, t_new, t)
                    Y = np.where(accept, y_new, Y)
                    f = np.where(accept, f_new, f)
                done = t == T
                if done.any():
                    out[:, cols[done]] = Y[:, done]
                    keep = ~done
                    cols, t, h, fresh = cols[keep], t[keep], h[keep], fresh[keep]
                    Y, f, lam = Y[:, keep], f[:, keep], lam[keep]
                    K = np.empty((_STAGES + 1, dim, cols.size))
        except (ZeroDivisionError, OverflowError, ValueError) as exc:
            raise IntegrationError(float(t.min()),
                                   f"field evaluation failed: {exc}") from exc
    return out, _DenseOutput(ts=np.array(ts0), Q=np.array(Q0),
                             y_old=np.array(y0_old), y_end=out[:, 0].copy())


def period_map(field, lam: float, xi0) -> np.ndarray:
    """xi(T) for the solution starting at xi0; T from the field's problem.

    The one-column case of the batched shooting integrator."""
    xi0 = chain.as_state(xi0, field.dim)
    return _period_maps(field, [lam], xi0[:, None])[0][:, 0]


def _linearize(field, lam, xi, lam_column):
    """The period map at (lam, xi) and its forward differences, from one
    ``_period_maps`` run.

    Column 0 of the run starts at xi; then, when ``lam_column`` is set, a
    column starts at xi with lambda lam + MONODROMY_STEP; then one starts
    at xi + MONODROMY_STEP e_j for each j.  Returns (xi(T), the dense output
    of column 0, and the (dim, lam_column + dim) quotients
    (P_j - xi(T)) / MONODROMY_STEP of the other columns' maps P_j)."""
    dim, lead = xi.size, 1 + int(lam_column)
    X0 = np.repeat(xi[:, None], lead + dim, axis=1)
    X0[:, lead:] += MONODROMY_STEP * np.eye(dim)
    lams = np.full(lead + dim, float(lam))
    lams[1:lead] += MONODROMY_STEP
    P, dense = _period_maps(field, lams, X0)
    base = P[:, 0]
    return base, dense, (P[:, 1:] - base[:, None]) / MONODROMY_STEP


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
    # the residual at the guess is the base column of its monodromy run
    p_base, sol, M = _linearize(field, lam, xi, False)
    res_vec = p_base - xi
    res = float(np.linalg.norm(res_vec, np.inf))
    identity = np.eye(field.dim)

    for _ in range(params.newton_max_iter):
        scale = 1.0 + float(np.linalg.norm(xi, np.inf))
        if res <= tol * scale:
            return _Accepted(float(lam), xi, res, sol)
        if M is None:
            M = _linearize(field, lam, xi, False)[2]
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
                r_cand = sol_cand.y_end - cand
                rn = float(np.linalg.norm(r_cand, np.inf))
                if rn < res:
                    xi, sol, M = cand, sol_cand, None
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

    def jacobian(z):
        try:
            base, dense, D = _linearize(field, z[0], z[1:], True)
        except (IntegrationError, ValueError):
            raise _CorrectorFail("Jacobian evaluation failed")
        J = np.empty((dim + 1, dim + 1))
        J[:dim] = D
        J[:dim, 1:] -= np.eye(dim)
        J[dim] = tangent
        return J, base, dense

    z = z_pred.copy()
    # the residual at the predictor is the base column of its Jacobian run
    J, base, sol = jacobian(z)
    R = base - z[1:]
    full = np.concatenate((R, [0.0]))
    iters_used = 0
    for it in range(10):
        iters_used = it
        scale = 1.0 + float(np.linalg.norm(z, np.inf))
        resn = float(np.linalg.norm(full, np.inf))
        if resn <= params.newton_tol * scale:
            return z, it, _Accepted(z[0], z[1:], float(np.linalg.norm(R, np.inf)),
                                    sol)
        if J is None:
            J = jacobian(z)[0]
        try:
            delta = np.linalg.solve(J, -full)
        except np.linalg.LinAlgError:
            raise _CorrectorFail("singular bordered Jacobian")
        z = z + delta
        if np.linalg.norm(z[1:], np.inf) > 10.0 * params.norm_max:
            raise _CorrectorFail("corrector iterate diverged")
        try:
            sol = _shoot(field, z[0], z[1:])
        except (IntegrationError, ValueError):
            raise _CorrectorFail("residual evaluation failed")
        R = sol.y_end - z[1:]
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
