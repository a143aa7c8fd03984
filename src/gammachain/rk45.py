"""The integrator: the Dormand-Prince 5(4) pair under SciPy's RK45 step
control, at rtol = atol = ``TOL``.

The tableau (Dormand & Prince 1980; Hairer, Norsett & Wanner, Solving
ODEs I, II.4-II.5) is written out with the dense-output matrix ``P`` of
Shampine (1986), as in SciPy's ``RK45``.  ``solve_ivp`` runs the step
control with one of two stage evaluators: the float stages of
``float_stages``, straight-line float code for one RK45 attempt of a field
given as one Python expression per component (``chain.expand`` compiles
them for each problem's field), or NumPy stages (``_numpy_stages``) with
SciPy's ``rk_step`` arithmetic.  The dense output of a solve is one
vectorized quartic interpolant (``_DenseOutput``).  Every failure of a
solve is an :class:`IntegrationError` at the time it happened.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["TOL", "C", "A", "B", "E", "P", "IntegrationError", "float_stages",
           "solve_ivp"]

TOL = 1e-10  # the relative and absolute tolerance of every solve

C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0)
A = ((),
     (1 / 5,),
     (3 / 40, 9 / 40),
     (44 / 45, -56 / 15, 32 / 9),
     (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
     (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656))
_A = [np.array(row) for row in A]
B = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
_B = np.array(B)
# error weights of the 7 stages, the last one being f at the new state
E = (-71 / 57600, 0.0, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525,
     1 / 40)
_E = np.array(E)
P = ((1.0, -8048581381 / 2820520608, 8663915743 / 2820520608,
      -12715105075 / 11282082432),
     (0.0, 0.0, 0.0, 0.0),
     (0.0, 131558114200 / 32700410799, -68118460800 / 10900136933,
      87487479700 / 32700410799),
     (0.0, -1754552775 / 470086768, 14199869525 / 1410260304,
      -10690763975 / 1880347072),
     (0.0, 127303824393 / 49829197408, -318862633887 / 49829197408,
      701980252875 / 199316789632),
     (0.0, -282668133 / 205662961, 2019193451 / 616988883,
      -1453857185 / 822651844),
     (0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423))
_P = np.array(P)


class IntegrationError(RuntimeError):
    """Integration failed (step underflow, divergence); carries the time."""

    def __init__(self, time: float, message: str):
        super().__init__(f"integration failed at t={time:.6g}: {message}")
        self.time = time


@dataclass(frozen=True, eq=False)
class _DenseOutput:
    """The dense output of one RK45 solution, evaluated vectorized.

    On step k, from ``ts[k]`` to ``ts[k+1]`` with h = ts[k+1] - ts[k] and
    x = (t - ts[k]) / h, the solution is the Dormand-Prince quartic
    interpolant ``y_old[k] + h * Q[k] @ (x, x^2, x^3, x^4)``, with
    Q[k] = K^T P for the step's stages K and RK45's interpolation matrix P
    (Hairer, Norsett & Wanner, Solving ODEs I, II.6).  A time on a step
    boundary takes the earlier step, and times outside [ts[0], ts[-1]]
    extrapolate the first or last step, as in ``OdeSolution``.  ``y_end``
    is the state at ``ts[-1]``.
    """

    ts: np.ndarray
    Q: np.ndarray
    y_old: np.ndarray
    y_end: np.ndarray

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


@dataclass(frozen=True, eq=False)
class _Run:
    """One solve: the accepted times ``t``, the states ``y[:, k]`` at
    ``t[k]``, the field evaluations ``nfev`` and the dense output.  A
    failed solve raises, so ``success`` is always true."""

    t: np.ndarray
    y: np.ndarray
    nfev: int
    dense: _DenseOutput
    success: bool = True


def _combination(coefs, i, zeros=False):
    """Source of sum_j coefs[j] * k<j>_<i> in stage order, over the nonzero
    coefs unless ``zeros``."""
    return " + ".join(f"{c!r} * k{j}_{i}" for j, c in enumerate(coefs) if c or zeros)


def float_stages(derivatives: list[str], namespace: dict):
    """Compile the float stages of y' = F(t, y) into a factory
    ``lam -> (rhs, attempt)``.

    ``derivatives[i]`` is a Python expression for component i of F over
    the stage state ``w0 .. w<n-1>``, the stage time ``s`` and ``lam``;
    ``namespace`` holds the functions it calls.  ``rhs(s, y)`` is the tuple
    F(s, y) for any sequence y.  ``attempt(t, y, f, h)`` takes the state y
    and f = F(t, y) as float tuples or lists and makes one RK45 attempt of
    step h with SciPy's arithmetic written out per component (sums in
    stage order; zero coefficients skipped, except that the error keeps
    0 * k1, so a non-finite stage still gives a non-finite error).  It
    returns (y_new, f_new, the 7n stages stage after stage, the RMS norm of
    the error relative to TOL + max(|y|, |y_new|) * TOL).  A field
    evaluation that raises OverflowError or ValueError raises
    :class:`IntegrationError` at its stage time; ZeroDivisionError
    propagates.
    """
    n = len(derivatives)
    w = ", ".join(f"w{i}" for i in range(n)) + ","
    lines = ["def make(lam):",
             "    def rhs(s, y):",
             f"        {w} = y",
             f"        return ({', '.join(derivatives)},)",
             "    def attempt(t, y, f, h):",
             f"        {', '.join(f'y{i}' for i in range(n))}, = y",
             f"        {', '.join(f'k0_{i}' for i in range(n))}, = f",
             "        try:"]
    for st in range(1, 7):
        if st < 6:
            lines.append(f"            s = t + {C[st]!r} * h")
            lines += [f"            w{i} = y{i} + ({_combination(A[st], i)}) * h"
                      for i in range(n)]
        else:
            lines.append("            s = t + h")
            lines += [f"            w{i} = y{i} + h * ({_combination(B, i)})"
                      for i in range(n)]
        lines += [f"            k{st}_{i} = {d}" for i, d in enumerate(derivatives)]
    lines += ["        except (OverflowError, ValueError) as exc:",
              '            raise IntegrationError(s, f"field evaluation failed: {exc}") from exc']
    for i in range(n):
        lines += [f"        a{i} = abs(y{i})",
                  f"        b{i} = abs(w{i})",
                  f"        e{i} = (({_combination(E, i, zeros=True)}) * h)"
                  f" / ({TOL!r} + (a{i} if a{i} > b{i} else b{i}) * {TOL!r})"]
    stages = ", ".join(f"k{st}_{i}" for st in range(7) for i in range(n))
    lines += [f"        return ({w}), ({', '.join(f'k6_{i}' for i in range(n))},), ({stages},), "
              f"sqrt({' + '.join(f'e{i} * e{i}' for i in range(n))}) / {n ** 0.5!r}",
              "    return rhs, attempt"]
    ns = dict(namespace, IntegrationError=IntegrationError,
              OverflowError=OverflowError, ValueError=ValueError, abs=abs,
              sqrt=math.sqrt, __builtins__={})
    exec("\n".join(lines), ns)  # codegen from our own expressions only
    return ns["make"]


def _numpy_stages(fun, dim):
    """One RK45 attempt of y' = fun(t, y) on arrays with SciPy's
    ``rk_step`` arithmetic and error norm, keeping the stages of the first
    ``dim`` components; a field evaluation that raises is an
    :class:`IntegrationError` at its stage time."""
    def attempt(t, y, f, h):
        K = np.empty((7, y.size))
        K[0] = f
        t_stage = t
        try:
            for s in range(1, 6):
                t_stage = t + C[s] * h
                K[s] = fun(t_stage, y + np.dot(K[:s].T, _A[s]) * h)
            y_new = y + h * np.dot(K[:-1].T, _B)
            t_stage = t + h
            K[6] = fun(t_stage, y_new)
        except (ZeroDivisionError, OverflowError, ValueError) as exc:
            raise IntegrationError(float(t_stage),
                                   f"field evaluation failed: {exc}") from exc
        scale = TOL + np.maximum(np.abs(y), np.abs(y_new)) * TOL
        return y_new, K[6], K[:, :dim], _rms(np.dot(K.T, _E) * h / scale)

    return attempt


def _rms(x):
    return np.linalg.norm(x) / x.size ** 0.5


def solve_ivp(fun, t_span, y0, *, attempt=None, dim=None) -> _Run:
    """SciPy's RK45 for y' = fun(t, y) from y0 over t_span = (t0, t1),
    t0 < t1, at rtol = atol = ``TOL``, with the dense output of the first
    ``dim`` components (default: all).

    ``attempt`` is a float attempt of :func:`float_stages` (float stages,
    with ``fun`` its ``rhs``); without it the stages are NumPy evaluations
    of ``fun`` (``_numpy_stages``).  The step control is SciPy's: its
    initial step, a least step of 10 ulp(t), step factors 0.9 err^(-1/5)
    within [0.2, 10] (at most 1 after a rejection), and the last step
    clipped to t1.  An error norm that is not below 1 (NaN included)
    rejects the attempt, as does a ZeroDivisionError in a float stage,
    which NumPy arithmetic would have made inf or NaN.  ``nfev`` counts as
    SciPy's: 2 + 6 per attempt.

    Floating-point warnings are off.  Raises :class:`IntegrationError` on
    a non-finite field at the start, a field evaluation that raises (at
    its stage time), a step below the least step, and a non-finite end
    state.
    """
    t0, t1 = map(float, t_span)
    y0 = np.asarray(y0, dtype=float)
    dim = y0.size if dim is None else dim
    t = t0
    with np.errstate(all="ignore"):
        try:  # SciPy's select_initial_step
            f0 = np.asarray(fun(t0, y0), dtype=float)
            if not np.isfinite(f0).all():
                raise IntegrationError(t0, "non-finite field at the start")
            scale = TOL + np.abs(y0) * TOL
            d0, d1 = _rms(y0 / scale), _rms(f0 / scale)
            h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t1 - t0)
            t = t0 + h0
            d2 = _rms((np.asarray(fun(t, y0 + h0 * f0), dtype=float) - f0) / scale) / h0
        except (ZeroDivisionError, OverflowError, ValueError) as exc:
            raise IntegrationError(t, f"field evaluation failed: {exc}") from exc
        if d1 <= 1e-15 and d2 <= 1e-15:
            h1 = max(1e-6, h0 * 1e-3)
        else:
            h1 = (0.01 / max(d1, d2)) ** 0.2
        h_abs = float(min(100 * h0, h1, t1 - t0))

        if attempt is None:
            attempt, y, f = _numpy_stages(fun, dim), y0, f0
        else:
            y, f = y0.tolist(), f0.tolist()
        t, ts, ys, stages, nfev = t0, [t0], [y], [], 2
        while t < t1:
            min_step = 10 * (math.nextafter(t, math.inf) - t)
            h_abs = max(h_abs, min_step)
            rejected = False
            while True:
                if h_abs < min_step:
                    raise IntegrationError(t, "Required step size is less than "
                                              "spacing between numbers.")
                t_new = min(t + h_abs, t1)
                h = h_abs = t_new - t
                nfev += 6
                try:
                    y_new, f_new, K, err = attempt(t, y, f, h)
                except ZeroDivisionError:
                    err = math.nan
                if err < 1:
                    factor = 10.0 if err == 0 else min(10.0, 0.9 * err ** -0.2)
                    h_abs *= min(1.0, factor) if rejected else factor
                    break
                h_abs *= max(0.2, 0.9 * err ** -0.2)
                rejected = True
            t, y, f = t_new, y_new, f_new
            ts.append(t)
            ys.append(y)
            stages.append(K)
    Y = np.array(ys)
    if not np.isfinite(Y[-1]).all():
        raise IntegrationError(t, "non-finite state")
    K = np.array(stages).reshape(len(stages), 7, -1)
    dense = _DenseOutput(ts=np.array(ts), Q=K.transpose(0, 2, 1) @ _P,
                         y_old=Y[:-1, :dim], y_end=Y[-1, :dim].copy())
    return _Run(t=dense.ts, y=Y.T, nfev=nfev, dense=dense)
