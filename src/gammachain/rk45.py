"""The integrator: the Dormand-Prince 5(4) pair under SciPy's RK45 step
control, at rtol = atol = ``TOL``.

The tableau (Dormand & Prince 1980; Hairer, Norsett & Wanner, Solving
ODEs I, II.4-II.5) is written out with the dense-output matrix ``P`` of
Shampine (1986), as in SciPy's ``RK45``.  ``solve_ivp`` runs the step
control on float stages.  The float stages of ``float_stages`` are
straight-line float code for one RK45 attempt of a field given as one
Python expression per component (``chain.expand`` compiles them for each
problem's field); ``vector_stages`` makes that attempt for many columns
stacked into one state, each at its own lam, on the array of the columns
at once, failing where the C loop stops.  Their C kernel
(:func:`compiled_stages`, a :class:`CompiledAttempt` per solve) runs a
whole solve of one column or of many, initial step and step loop, in one
call, generated from the C spelling of the same field with the same IEEE
operations in the same order, so its results are theirs bit for bit; it
is cached per user, compiled with ``cc`` by the first solve that needs
it, which waits for it, and replays a solve on the float stages wherever
Python might part from C.  ``solve_ivp`` takes either as one stages value.
A solve is one :class:`Solution`, whose call is its quartic interpolant
as fixed-order float code: in C by the library's ``gc_dense`` for the
solves of a compiled field, and otherwise by its NumPy twin, elementwise,
with the same bits and no BLAS.  Every failure of a solve is an
:class:`IntegrationError` at the time it happened.
"""
from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import os
import platform
import shutil
import stat
import tempfile
import time
import zlib
from pathlib import Path
from typing import Callable

import numpy as np

__all__ = ["TOL", "C", "A", "B", "E", "P", "IntegrationError", "Solution",
           "CompiledAttempt", "compiled_stages", "float_stages",
           "vector_stages", "solve_ivp"]

TOL = 1e-10  # the relative and absolute tolerance of every solve

C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0)
A = ((),
     (1 / 5,),
     (3 / 40, 9 / 40),
     (44 / 45, -56 / 15, 32 / 9),
     (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
     (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656))
B = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
# error weights of the 7 stages, the last one being f at the new state
E = (-71 / 57600, 0.0, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525,
     1 / 40)
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


class Solution:
    """One solve: the accepted times ``t``, the states ``y[:, k]`` at
    ``t[k]``, the field evaluations ``nfev``, and the stages ``K[k]`` (7,
    dim) of step k for the first dim components.  A failed solve raises,
    so ``success`` is always true.

    Calling it is the dense output of those components, the Dormand-Prince
    quartic interpolant (Shampine 1986; Hairer, Norsett & Wanner, Solving
    ODEs I, II.6) as fixed-order float code.  A time tau falls in step k =
    searchsorted(t, tau, 'left') - 1, clipped to the steps, so a time on a
    step boundary takes the earlier step and times outside [t[0], t[-1]]
    extrapolate the first or last step, as in ``OdeSolution``.  With h =
    t[k+1] - t[k] and x = (tau - t[k]) / h, each component is
    h * (((Q0 x + Q1 x^2) + Q2 x^3) + Q3 x^4) + y[:, k], the powers x,
    x*x, then times x twice, and Q_j = sum_s P[s][j] K[k][s] over P's
    nonzero entries in stage order, as :func:`_combination` writes sums.
    ``dense`` is the C evaluator ``gc_dense`` of the library that made a
    compiled field's solve, which forms Q_j once per step it meets; without
    it, :func:`_dense` computes the same operations elementwise in NumPy.
    Either gives the same bits, on no BLAS.
    """

    __slots__ = ("t", "y", "nfev", "K", "dense")
    success = True

    def __init__(self, t: np.ndarray, y: np.ndarray, nfev: int, K: np.ndarray,
                 dense: Callable | None = None):
        self.t = t
        self.y = y
        self.nfev = nfev
        self.K = K
        self.dense = dense

    @property
    def y_end(self) -> np.ndarray:
        """The state of the first dim components at ``t[-1]``."""
        return self.y[:self.K.shape[-1], -1]

    def __call__(self, t, components=None):
        """y(t): shape (dim,) for a scalar t, (dim, len(t)) for an array;
        only the first ``components`` components where given."""
        t = np.asarray(t, dtype=float)
        times = np.ascontiguousarray(t.reshape(-1))
        steps, _, n = self.K.shape
        dim = n if components is None else components
        if not 0 < dim <= n:
            raise ValueError(f"components must be in 1..{n}, got {components!r}")
        if self.dense is None:
            y = _dense(self.t, self.y, self.K, times, dim)
        else:
            ts, Y, K = (np.ascontiguousarray(a, dtype=float) for a in (self.t, self.y.T, self.K))
            if not steps or ts.shape != (steps + 1,) or Y.shape[0] != steps + 1 or Y.shape[1] < n:
                raise ValueError("t, y and K do not hold the same steps")
            y = np.empty((dim, times.size))
            self.dense(times.size, times.ctypes.data, steps, ts.ctypes.data, Y.ctypes.data,
                       Y.shape[1], K.ctypes.data, n, dim, y.ctypes.data)
        return y[:, 0] if t.ndim == 0 else y


def _dense(t, y, K, times, components):
    """The dense output of the first ``components`` components of a solve
    (t, y, K) at ``times``, shape (components, len(times)): the operations
    of ``gc_dense`` elementwise.  Q is formed for every step, as (4,
    components, steps) from a contiguous copy of the stages, so that the
    gathers of Q and y by step take contiguous rows; P's column 0 is stage
    0's alone, and its columns 1-3 take every stage but stage 1, in stage
    order."""
    steps = len(K)
    k = np.searchsorted(t, times, side="left") - 1
    np.clip(k, 0, steps - 1, out=k)
    t_old = t[k]
    h = t[k + 1] - t_old
    x = (times - t_old) / h
    stages = np.ascontiguousarray(K[:, :, :components].transpose(1, 2, 0))
    Q = _P[0, :, None, None] * stages[0]
    for s in range(2, 7):
        Q[1:] += _P[s, 1:, None, None] * stages[s]
    Q = Q.take(k, axis=2)
    x2 = x * x
    x3 = x2 * x
    return (h * (((Q[0] * x + Q[1] * x2) + Q[2] * x3) + Q[3] * (x3 * x))
            + y[:components].take(k, axis=1))


def _combination(coefs, stage, zeros=False):
    """Source of sum_j coefs[j] * stage j in stage order, over the nonzero
    coefs unless ``zeros``; ``stage.format(j=j)`` names stage j.  The
    float stages and their C kernel write their sums with it."""
    return " + ".join(f"{c!r} * {stage.format(j=j)}"
                      for j, c in enumerate(coefs) if c or zeros)


def float_stages(derivatives: list[str], namespace: dict):
    """Compile the float stages of y' = F(t, y) into a factory
    ``lam -> (rhs, attempt)``.

    ``derivatives[i]`` is a Python expression for component i of F over
    the stage state ``w0 .. w<n-1>``, the stage time ``s`` and ``lam``;
    ``namespace`` holds the functions it calls.  ``rhs(s, y)`` is the tuple
    F(s, y) for any sequence y.  ``attempt(t, y, f, h)`` takes the state y
    and f = F(t, y) as float tuples or lists and makes one RK45 attempt of
    step h with SciPy's arithmetic written out per component (sums in
    stage order; zero coefficients skipped, except that the error keeps 0
    * k1, so a non-finite stage still gives a non-finite error).  It
    returns (y_new, f_new, the 7n stages stage after stage, the sum of the
    squares of the error relative to TOL + max(|y|, |y_new|) * TOL, added
    one component after another), whose root ``solve_ivp``'s step loop
    takes.  A field evaluation that raises OverflowError or ValueError
    raises :class:`IntegrationError` at its stage time; ZeroDivisionError
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
            lines += [f"            w{i} = y{i} + ({_combination(A[st], f'k{{j}}_{i}')}) * h"
                      for i in range(n)]
        else:
            lines.append("            s = t + h")
            lines += [f"            w{i} = y{i} + h * ({_combination(B, f'k{{j}}_{i}')})"
                      for i in range(n)]
        lines += [f"            k{st}_{i} = {d}" for i, d in enumerate(derivatives)]
    lines += ["        except (OverflowError, ValueError) as exc:",
              '            raise IntegrationError(s, f"field evaluation failed: {exc}") from exc']
    for i in range(n):
        lines += [f"        a{i} = abs(y{i})",
                  f"        b{i} = abs(w{i})",
                  f"        e{i} = (({_combination(E, f'k{{j}}_{i}', zeros=True)}) * h)"
                  f" / ({TOL!r} + (a{i} if a{i} > b{i} else b{i}) * {TOL!r})"]
    stages = ", ".join(f"k{st}_{i}" for st in range(7) for i in range(n))
    lines += [f"        return ({w}), ({', '.join(f'k6_{i}' for i in range(n))},), ({stages},), "
              f"{' + '.join(f'e{i} * e{i}' for i in range(n))}",
              "    return rhs, attempt"]
    ns = dict(namespace, IntegrationError=IntegrationError,
              OverflowError=OverflowError, ValueError=ValueError, abs=abs,
              __builtins__={})
    exec("\n".join(lines), ns)  # codegen from our own expressions only
    return ns["make"]


# -- the float stages compiled to C ---------------------------------------

# C has no -Ofast or -ffast-math here: every operation rounds as in Python,
# no product is fused into an add, and no libm call is inlined or folded.
# -O1, not -O2: the step loop runs as fast, and compiles in 0.12-0.13 s
# instead of 0.17-0.23 s, time that a first run on a problem waits for
# (gcc 12, the benchmark workloads' fields)
_CC_FLAGS = ("-O1", "-ffp-contract=off", "-fno-fast-math", "-fno-builtin",
             "-fPIC", "-shared")
_COMPILE_TIMEOUT_S = 10.0
_CACHE_KEEP = 256       # libraries the cache keeps, about 27 KB each
_STALE_TMP_S = 3600.0   # a temporary file this old is a killed compile's
_FIRST_CAPACITY = 128  # steps a compiled solve makes room for before growing
_DONE, _FULL, _REPLAY, _UNDERFLOW = range(4)  # the return codes of gc_solve
_UNDERFLOW_MESSAGE = "Required step size is less than spacing between numbers."


def _c_source(derivatives: list[str]) -> str:
    """C source of ``gc_solve``: ``solve_ivp`` on the float stages of
    ``derivatives``, C expressions over the stage state ``w[0] ..
    w[n-1]``, the stage time ``s`` and ``lam`` as ``expr._code`` writes
    them, for a state of one or more columns: its initial step
    (:func:`_float_initial_step`) and its step loop, written with the same
    operations in the same order as the Python float stages of one column
    and :func:`vector_stages` of more, the field evaluated stage after
    stage and in each stage column after column, and the error's sum of
    squares running on from one column to the next (``min(a, b)`` as ``b <
    a ? b : a`` and ``max(a, b)`` as ``b > a ? b : a``, which keep Python's
    choice when one of them is NaN).  The field computes the expressions
    as written and returns the flag that its checks set where Python might
    part from C: a divisor of 0 (``DIVISOR``), and a sin, cos, exp or pow
    whose argument or result is not finite (``SIN``, ``COS``, ``EXP``,
    ``POW``), the only values for which Python's math functions raise or
    special-case.  A flag that is set, or a non-finite field at the
    start, returns ``_REPLAY``.  The library also holds ``gc_dense``, the
    dense output of a solve as :class:`Solution` computes it, the same
    for every problem."""
    stage = "k[{j} * n + i]"
    steps = []
    for st in range(1, 7):
        if st < 6:
            steps += [f"s = t + {C[st]!r} * h;",
                      f"for (i = 0; i < n; i++) w[i] = y[i] + ({_combination(A[st], stage)}) * h;"]
        else:
            steps += ["s = t + h;",
                      f"for (i = 0; i < n; i++) w[i] = y[i] + h * ({_combination(B, stage)});"]
        steps.append(f"for (c = 0; c < cols; c++) if (field(s, w + c * N, lams[c], "
                     f"k + {st} * n + c * N)) {{ status = {_REPLAY}; goto done; }}")
    steps = "\n            ".join(steps)
    interpolant = "\n                ".join(
        f"Q[4 * i + {j}] = {_combination(column, 'K[{j} * n + i]')};"
        for j, column in enumerate(zip(*P)))
    return f"""\
#include <math.h>
#include <stdint.h>

enum {{ N = {len(derivatives)} }};

static inline double divisor(double x, int *bad) {{ *bad |= x == 0.0; return x; }}

static inline double call(double (*f)(double), double x, int *bad)
{{
    const double y = f(x);
    *bad |= !(isfinite(x) && isfinite(y));
    return y;
}}

static inline double power(double x, double p, int *bad)
{{
    const double y = pow(x, p);
    *bad |= !(isfinite(x) && isfinite(p) && isfinite(y));
    return y;
}}

#define DIVISOR(x) divisor(x, &bad)
#define SIN(x) call(sin, x, &bad)
#define COS(x) call(cos, x, &bad)
#define EXP(x) call(exp, x, &bad)
#define POW(x, p) power(x, p, &bad)

static int field(double s, const double *w, double lam, double *out)
{{
    int bad = 0;
{chr(10).join(f"    out[{i}] = {d};" for i, d in enumerate(derivatives))}
    return bad;
}}

/* Steps the state of cols columns of N, column after column, column c at
   lams[c], from ts[m], ys[m] (m = counts[0]) with k[0] the field there,
   until t1 or until the buffers hold cap steps; k holds the 7 stages of
   the state, of which column 0's go to ks.  counts[1] is nfev and h_io[0]
   the next step size, both carried from call to call.  A call with nfev
   = 0 starts the solve at ts[0], ys[0]: it evaluates k[0] there and takes
   the initial step, with f(t0 + h0, y0 + h0 k[0]) in stage 1 and y0 + h0
   k[0] in stage 2 as scratch. */
int gc_solve(double t1, int64_t cols, const double *lams, double *h_io, int64_t *counts,
             int64_t cap, double *ts, double *ys, double *ks, double *k)
{{
    const int64_t n = N * cols;
    const double root = pow((double)n, 0.5);
    int64_t m = counts[0], nfev = counts[1], i, j, c;
    double h_abs = h_io[0];
    int status = {_DONE};
    if (nfev == 0) {{
        const double t0 = ts[0], *y = ys, span = t1 - t0;
        double *f1 = k + n, *y1 = k + 2 * n;
        double sq0 = 0.0, sq1 = 0.0, sq2 = 0.0, d0, d1, d2, h0, h1, x;
        for (c = 0; c < cols; c++) if (field(t0, y + c * N, lams[c], k + c * N)) {{
            status = {_REPLAY}; goto done;
        }}
        for (i = 0; i < n; i++) if (!isfinite(k[i])) {{ status = {_REPLAY}; goto done; }}
        for (i = 0; i < n; i++) {{
            const double scale = {TOL!r} + fabs(y[i]) * {TOL!r};
            x = y[i] / scale;
            sq0 += x * x;
            x = k[i] / scale;
            sq1 += x * x;
        }}
        d0 = sqrt(sq0) / root;
        d1 = sqrt(sq1) / root;
        h0 = d0 < 1e-05 || d1 < 1e-05 ? 1e-06 : 0.01 * d0 / d1;
        h0 = span < h0 ? span : h0;
        for (i = 0; i < n; i++) y1[i] = y[i] + h0 * k[i];
        for (c = 0; c < cols; c++) if (field(t0 + h0, y1 + c * N, lams[c], f1 + c * N)) {{
            status = {_REPLAY}; goto done;
        }}
        for (i = 0; i < n; i++) {{
            x = (f1[i] - k[i]) / ({TOL!r} + fabs(y[i]) * {TOL!r});
            sq2 += x * x;
        }}
        d2 = sqrt(sq2) / root / h0;
        if (d1 <= 1e-15 && d2 <= 1e-15) {{
            x = h0 * 0.001;
            h1 = x > 1e-06 ? x : 1e-06;
        }} else {{
            h1 = pow(0.01 / (d2 > d1 ? d2 : d1), 0.2);
        }}
        h_abs = 100.0 * h0;
        h_abs = h1 < h_abs ? h1 : h_abs;
        h_abs = span < h_abs ? span : h_abs;
        nfev = 2;
    }}
    while (ts[m] < t1) {{
        const double t = ts[m], *y = ys + m * n;
        double *w = ys + (m + 1) * n;  /* the stage state; y_new at the end */
        double min_step, t_new, h, s, x, sq, err;
        int rejected = 0;
        if (m + 1 >= cap) {{ status = {_FULL}; break; }}
        min_step = 10.0 * (nextafter(t, INFINITY) - t);
        h_abs = min_step > h_abs ? min_step : h_abs;
        for (;;) {{
            if (h_abs < min_step) {{ status = {_UNDERFLOW}; goto done; }}
            t_new = t1 < t + h_abs ? t1 : t + h_abs;
            h = h_abs = t_new - t;
            nfev += 6;
            {steps}
            sq = 0.0;
            for (i = 0; i < n; i++) {{
                double a = fabs(y[i]), b = fabs(w[i]);
                double e = (({_combination(E, stage, zeros=True)}) * h)
                           / ({TOL!r} + (a > b ? a : b) * {TOL!r});
                sq += e * e;
            }}
            err = sqrt(sq) / root;
            if (err < 1.0) {{
                x = err == 0.0 ? 10.0 : 0.9 * pow(err, -0.2);
                x = x < 10.0 ? x : 10.0;
                h_abs *= rejected ? (x < 1.0 ? x : 1.0) : x;
                break;
            }}
            x = 0.9 * pow(err, -0.2);
            h_abs *= x > 0.2 ? x : 0.2;
            rejected = 1;
        }}
        for (j = 0; j < 7; j++)
            for (i = 0; i < N; i++) ks[(m * 7 + j) * N + i] = k[j * n + i];
        m += 1;
        ts[m] = t_new;
        for (i = 0; i < n; i++) k[i] = k[6 * n + i];
    }}
done:
    counts[0] = m;
    counts[1] = nfev;
    h_io[0] = h_abs;
    return status;
}}

/* The dense output of a solve, as Solution's call computes it: the first
   components of the n components at each of the count times, into
   out[i * count + j] for component i at times[j], from the steps + 1
   times ts, the states ys (rows of size) and the stages ks (7 rows of n
   per step).  Q of a step is formed when the step changes. */
void gc_dense(int64_t count, const double *times, int64_t steps, const double *ts,
              const double *ys, int64_t size, const double *ks, int64_t n,
              int64_t components, double *out)
{{
    double Q[4 * components];
    int64_t i, j, last = -1;
    for (j = 0; j < count; j++) {{
        const double tau = times[j];
        int64_t lo = 0, hi = steps + 1, k;
        double h, x, x2, x3;
        while (lo < hi) {{  /* searchsorted(ts, tau, 'left'), a NaN after every time */
            const int64_t mid = lo + (hi - lo) / 2;
            if (ts[mid] >= tau) hi = mid; else lo = mid + 1;
        }}
        k = lo < 1 ? 0 : lo > steps ? steps - 1 : lo - 1;
        if (k != last) {{
            const double *K = ks + k * 7 * n;
            for (i = 0; i < components; i++) {{
                {interpolant}
            }}
            last = k;
        }}
        h = ts[k + 1] - ts[k];
        x = (tau - ts[k]) / h;
        x2 = x * x;
        x3 = x2 * x;
        for (i = 0; i < components; i++)
            out[i * count + j] = h * (((Q[4 * i] * x + Q[4 * i + 1] * x2) + Q[4 * i + 2] * x3)
                                      + Q[4 * i + 3] * (x3 * x)) + ys[k * size + i];
    }}
}}
"""


def _private(st: os.stat_result) -> bool:
    """Owned by this user, and no one else may write to it."""
    return st.st_uid == os.getuid() and not st.st_mode & (stat.S_IWGRP | stat.S_IWOTH)


def _cache_dir() -> Path | None:
    """``$XDG_CACHE_HOME/gammachain`` (``~/.cache/gammachain`` when that is
    unset or relative), created with mode 0700; None unless it is a
    directory of this user's that no one else may write to, and where no
    home directory can be found, as a relative base is never used."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    if not os.path.isabs(base):  # "~" unexpanded: no HOME and no passwd entry
        return None
    path = Path(base, "gammachain")
    try:
        path.mkdir(mode=0o700, parents=True, exist_ok=True)
        st = path.stat()
    except OSError:
        return None
    return path if stat.S_ISDIR(st.st_mode) and _private(st) else None


def _compile(cc: str, source: str, out: str) -> bool:
    """Compile ``source`` into the shared library ``out``: whether the
    compiler exited with 0 within ``_COMPILE_TIMEOUT_S``.  It runs in a
    session of its own, so that it is killed whole, none of its passes
    outliving it, when it runs past that time or the wait for it ends in
    an exception (a KeyboardInterrupt too).  ``os.posix_spawn``, not
    ``subprocess``, whose import alone costs a few milliseconds."""
    with tempfile.TemporaryFile() as src:  # a file, so the compiler never blocks us
        src.write(source.encode())
        src.seek(0)
        pid = os.posix_spawn(cc, [cc, *_CC_FLAGS, "-x", "c", "-", "-o", out, "-lm"],
                             os.environ, setsid=True,
                             file_actions=[(os.POSIX_SPAWN_DUP2, src.fileno(), 0),
                                           (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0),
                                           (os.POSIX_SPAWN_DUP2, 1, 2)])
    deadline = time.monotonic() + _COMPILE_TIMEOUT_S
    done = 0
    try:
        done, status = os.waitpid(pid, os.WNOHANG)
        while not done and time.monotonic() < deadline:
            time.sleep(0.01)
            done, status = os.waitpid(pid, os.WNOHANG)
    finally:
        if not done:
            import signal
            os.killpg(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return bool(done) and status == 0


def _intact(path: Path, key: bytes) -> bool:
    """Whether the library ends in the trailer :func:`_seal` gave it for
    ``key``: these very key bytes, their length, and the CRC-32 of all
    that comes before the CRC."""
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return False
    body = data[:-4]
    return (body.endswith(key + len(key).to_bytes(8, "little"))
            and zlib.crc32(body).to_bytes(4, "little") == data[-4:])


def _seal(tmp: str, path: Path, key: bytes):
    """Append to the compiled library ``tmp`` the trailer that
    :func:`_intact` checks (the loader ignores it): ``key``, its length as
    8 little-endian bytes, and the CRC-32 of the library and both, as 4.
    Then move it to ``path``, so that no process sees one half written,
    and prune the cache."""
    trailer = key + len(key).to_bytes(8, "little")
    with open(tmp, "r+b") as fh:
        fh.write(trailer + zlib.crc32(trailer, zlib.crc32(fh.read())).to_bytes(4, "little"))
    os.chmod(tmp, 0o700)
    os.replace(tmp, path)
    _prune(path.parent)


def _prune(cache: Path):
    """Keep the ``_CACHE_KEEP`` most recently used libraries of the cache
    (a load marks one used), and delete a temporary file older than
    ``_STALE_TMP_S``, which a killed process left."""
    now, libraries = time.time(), []
    for entry in os.scandir(cache):
        with contextlib.suppress(OSError):
            mtime = entry.stat().st_mtime
            if entry.name.endswith(".tmp") and now - mtime > _STALE_TMP_S:
                os.unlink(entry.path)
            elif entry.name.startswith("stages-") and entry.name.endswith(".so"):
                libraries.append((mtime, entry.path))
    for _, old in sorted(libraries, reverse=True)[_CACHE_KEEP:]:
        with contextlib.suppress(OSError):
            os.unlink(old)


def compiled_stages(derivatives: list[str]):
    """The float stages of the C expressions ``derivatives`` (as
    :func:`_c_source` takes them) compiled to C: the factory ``(lams,
    build) ->``
    :class:`CompiledAttempt`, or None wherever none can be had (not POSIX,
    no ``cc`` on PATH, no usable cache, a failed or timed-out compile or
    load, a library others may write to).

    The library is cached per user.  Its key bytes are the source, the
    flags and the machine; the file is named by their CRC-32 and Adler-32,
    and sealed with the key bytes themselves (:func:`_seal`).  One in the
    cache is loaded at once.  Otherwise ``cc`` compiles it now, and the
    call waits for it.  A library whose trailer does not hold these very
    key bytes and the CRC of the rest, as a cut-short or altered one, or
    one of other source under the same name, is compiled again, never
    loaded: mapping it can kill the process.  The checksums are ``zlib``'s,
    not ``hashlib``'s, whose import maps OpenSSL's libcrypto into each
    command (about 3.5 MB of peak RSS)."""
    cc = shutil.which("cc") if os.name == "posix" else None
    cache = _cache_dir() if cc is not None else None
    if cache is None:
        return None
    source = _c_source(derivatives)
    key = "\0".join((source, *_CC_FLAGS, platform.machine())).encode()
    path = cache / f"stages-{zlib.crc32(key):08x}{zlib.adler32(key):08x}.so"
    try:
        if not _intact(path, key):
            fd, tmp = tempfile.mkstemp(suffix=".tmp", dir=cache)
            os.close(fd)
            try:
                if not _compile(cc, source, tmp):
                    return None
                _seal(tmp, path, key)
            finally:
                with contextlib.suppress(FileNotFoundError):
                    os.unlink(tmp)
        if not _private(path.stat()):
            return None
        library = ctypes.CDLL(str(path))
        solve, dense = library.gc_solve, library.gc_dense
    # NotImplementedError: no setsid; AttributeError: a library not ours
    except (OSError, NotImplementedError, AttributeError):
        return None
    with contextlib.suppress(OSError):
        os.utime(path)  # used now, for _prune
    solve.argtypes = (ctypes.c_double, ctypes.c_int64, ctypes.c_void_p,
                      ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64,
                      ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,
                      ctypes.c_void_p)
    solve.restype = ctypes.c_int
    dense.argtypes = (ctypes.c_int64, ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p,
                      ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p, ctypes.c_int64,
                      ctypes.c_int64, ctypes.c_void_p)
    dense.restype = None
    return functools.partial(CompiledAttempt, solve, dense, len(derivatives))


class CompiledAttempt:
    """The compiled float stages for ``solve_ivp`` of a state of
    ``len(lams)`` columns of dimension ``dim``, column c at ``lams[c]``
    (one column for a single solve): its C ``solve`` runs the whole solve,
    initial step and step loop, and where it stops at a value for which
    Python might part from C, the solve replays on the Python float stages
    of the same columns, which ``build()`` makes: the (rhs, attempt) of
    the float stages of one column, or of :func:`vector_stages` of theirs
    for more, which fail at the stage, column and component at which C
    stops.  ``dense`` is the library's ``gc_dense``, the dense output of
    each of its solves, replayed or not."""

    __slots__ = ("solve", "dense", "dim", "lams", "build")

    def __init__(self, solve: Callable, dense: Callable, dim: int, lams: tuple,
                 build: Callable):
        self.solve = solve
        self.dense = dense
        self.dim = dim
        self.lams = lams
        self.build = build

    def run(self, t0, t1, y0):
        """(t, Y, K, nfev) of the solve from (t0, y0), or None to replay it.
        The buffers double whenever the C loop fills them.  Each C call
        reads the addresses of two float64 blocks: the loop state, which
        the calls carry on (the counts (m, nfev) as int64, nfev = 0 telling
        C to start the solve, the step size, lams and the 7 stages of a
        step, k[0] the field, which C advances), and the steps written (ts,
        ys, ks), which a new block replaces when it grows."""
        n, cols = self.dim, len(self.lams)
        size = n * cols
        if y0.shape != (size,):
            raise ValueError(f"state must have shape ({size},), got {y0.shape}")
        state = np.empty(3 + cols + 7 * size)
        counts = state[:2].view(np.int64)
        counts[:] = 0, 0
        state[3:3 + cols] = self.lams
        at = state.ctypes.data  # bytes: counts at 0, h at 16, lams at 24, k after them
        cap = _FIRST_CAPACITY
        block, ts, ys, ks = _steps_block(cap, size, n)
        ts[0], ys[0] = t0, y0
        while True:
            base = block.ctypes.data
            status = self.solve(t1, cols, at + 24, at + 16, at, cap, base, base + 8 * cap,
                                base + 8 * cap * (1 + size), at + 8 * (3 + cols))
            if status != _FULL:
                break
            m, cap = int(counts[0]), 2 * cap
            grown = _steps_block(cap, size, n)
            for old, new in zip((ts, ys, ks), grown[1:]):
                new[:m + 1] = old[:m + 1]
            block, ts, ys, ks = grown
        m = int(counts[0])
        if status == _REPLAY:
            return None
        if status == _UNDERFLOW:
            raise IntegrationError(float(ts[m]), _UNDERFLOW_MESSAGE)
        return ts[:m + 1], ys[:m + 1], ks[:m], int(counts[1])


def _steps_block(cap, size, n):
    """One float64 block of room for ``cap`` steps of a compiled solve of
    a state of ``size``, with its views ts (cap,), ys (cap, size) and ks
    (cap, 7, n), laid out in that order."""
    block = np.empty(cap * (1 + size + 7 * n))
    return (block, block[:cap], block[cap:cap * (1 + size)].reshape(cap, size),
            block[cap * (1 + size):].reshape(cap, 7, n))


def _vector_sum(coefs, K, zeros=False):
    """sum_j coefs[j] * K[j] of the stage arrays K[j], elementwise, as
    :func:`_combination` writes it."""
    total = None
    for j, c in enumerate(coefs):
        if c or zeros:
            total = c * K[j] if total is None else total + c * K[j]
    return total


def vector_stages(field, columns, dim):
    """(rhs, attempt) of ``solve_ivp`` for columns of ``dim`` components
    stacked into one state, column after column, column c solving y' =
    F_c(t, y) on its float stages ``columns[c]``, an (rhs, attempt) of
    :func:`float_stages`.  ``rhs`` calls each column's on its slice of the
    state.  The attempt is made on the (columns, dim) array of the state
    at once, with the results of the C loop bit for bit, and keeps column
    0's stages.  ``field(s, W, out)`` writes into the (columns, dim) array
    ``out`` the field of each row of W, at the stage time s and its
    column's lam, rounding as the float stages do, column after column and
    in each column in the float stages' component order.  The stage sums
    are :func:`_combination`'s, elementwise, and the error's squares add in
    column then component order (``np.add.accumulate``), the larger of
    |y| and |y_new| taken as ``a if a > b else b``.  The state stays an
    array from attempt to attempt.  An attempt fails where the C loop
    stops: at the first failure in stage order, then column order, then
    component order.  There, as in the float stages, an OverflowError or
    ValueError of the field raises :class:`IntegrationError` at its stage
    time, and a ZeroDivisionError propagates."""
    shape = (len(columns), dim)

    def rhs(s, y):
        out = []
        for c, (column, _) in enumerate(columns):
            out += column(s, y[c * dim:c * dim + dim])
        return out

    def attempt(t, y, f, h):
        Y = np.reshape(y, shape)
        K = np.empty((7, *shape))
        K[0] = np.reshape(f, shape)
        with np.errstate(all="ignore"):
            try:
                for st in range(1, 7):
                    if st < 6:
                        s = t + C[st] * h
                        W = Y + _vector_sum(A[st], K) * h
                    else:
                        s = t + h
                        W = Y + h * _vector_sum(B, K)
                    field(s, W, K[st])
            except (OverflowError, ValueError) as exc:
                raise IntegrationError(s, f"field evaluation failed: {exc}") from exc
            a, b = np.abs(Y), np.abs(W)
            e = (_vector_sum(E, K, zeros=True) * h) / (TOL + np.where(a > b, a, b) * TOL)
            sq = np.add.accumulate((e * e).ravel())[-1]
        return W.ravel(), K[6].ravel(), K[:, 0].ravel(), float(sq)

    return rhs, attempt


def _quotient(a, b):
    """a / b for a, b >= 0 as IEEE arithmetic rounds it, as C does: inf or
    NaN where b is 0, not the ZeroDivisionError of Python floats."""
    return a / b if b else (math.inf if a > 0 else math.nan)


def _float_rms(xs):
    """The RMS norm of the floats ``xs``, their squares summed in order."""
    sq = 0.0
    for x in xs:
        sq += x * x
    return math.sqrt(sq) / len(xs) ** 0.5


def _float_field(fun, t, y):
    """fun(t, y) of the float stages, as a list.  Where it divides by 0, it
    is evaluated again on a state of NumPy scalars, whose inf or NaN the
    initial step then reads, as SciPy's initial step reads the inf or NaN
    of NumPy arithmetic at its probes; a division by 0 of floats alone, as
    of the time, still raises."""
    try:
        return list(fun(t, y))
    except ZeroDivisionError:
        with np.errstate(all="ignore"):
            return [float(v) for v in fun(t, list(np.array(y)))]


def _float_initial_step(fun, t0, t1, y):
    """(h_abs, f0) of SciPy's initial step for the float stages, on the
    float list y: its formula, with the norms' squares summed in component
    order, as ``gc_solve`` does, so that C and Python agree bit for bit."""
    t = t0
    try:
        f = _float_field(fun, t0, y)
        if not all(map(math.isfinite, f)):
            raise IntegrationError(t0, "non-finite field at the start")
        scale = [TOL + abs(v) * TOL for v in y]
        d0 = _float_rms([v / s for v, s in zip(y, scale)])
        d1 = _float_rms([v / s for v, s in zip(f, scale)])
        h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t1 - t0)
        t = t0 + h0
        f1 = _float_field(fun, t, [v + h0 * g for v, g in zip(y, f)])
    except (ZeroDivisionError, OverflowError, ValueError) as exc:
        raise IntegrationError(t, f"field evaluation failed: {exc}") from exc
    d2 = _quotient(_float_rms([(a - b) / s for a, b, s in zip(f1, f, scale)]), h0)
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = _quotient(0.01, max(d1, d2)) ** 0.2
    return min(100 * h0, h1, t1 - t0), f


def solve_ivp(stages, t_span, y0) -> Solution:
    """SciPy's RK45 for y' = F(t, y) from y0 over t_span = (t0, t1), t0 <
    t1, at rtol = atol = ``TOL``, on the float stages ``stages`` of F.

    ``stages`` is the (rhs, attempt) of :func:`float_stages` or
    :func:`vector_stages`, or a :class:`CompiledAttempt` of them, whose C
    call runs the whole solve and which builds them to replay it where C
    stops.  The dense output is that of the stages the attempt keeps:
    every component of a single solve, column 0's of a stacked run.  Every
    attempt returns the error's sum of squares, and the step loop takes the
    RMS norm, sqrt(sq) / sqrt(n).  The step control is SciPy's: its initial step, with the
    norms' squares summed in component order (``_float_initial_step``, as
    in C), a least step of 10 ulp(t), step factors 0.9 err^(-1/5) within
    [0.2, 10] (at most 1 after a rejection), and the last step clipped to
    t1.  An error norm that is not below 1 (NaN included) rejects the
    attempt, as does a ZeroDivisionError in a float stage, which NumPy
    arithmetic would have made inf or NaN.  ``nfev`` counts as SciPy's: 2 +
    6 per attempt.

    Floating-point warnings are off.  Raises :class:`IntegrationError` on
    a non-finite field at the start, a field evaluation that raises (at
    its stage time), a step below the least step, and a non-finite end
    state.
    """
    t0, t1 = map(float, t_span)
    y0 = np.asarray(y0, dtype=float)
    compiled = isinstance(stages, CompiledAttempt)
    run = stages.run(t0, t1, y0) if compiled else None
    if run is None:
        fun, attempt = stages.build() if compiled else stages
        y = y0.tolist()
        h_abs, f0 = _float_initial_step(fun, t0, t1, y)
        run = _steps(attempt, t0, t1, h_abs, y, f0)
    t, Y, K, nfev = run
    if not np.isfinite(Y[-1]).all():
        raise IntegrationError(float(t[-1]), "non-finite state")
    return Solution(t=t, y=Y.T, nfev=nfev, K=K, dense=stages.dense if compiled else None)


def _steps(attempt, t0, t1, h_abs, y, f):
    """The step loop of ``solve_ivp`` in Python from the state y with f =
    F(t0, y): (t, Y, K, nfev), where Y[k] is the state at t[k]."""
    t, ts, ys, stages, nfev = t0, [t0], [y], [], 2
    root = len(y) ** 0.5
    while t < t1:
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise IntegrationError(t, _UNDERFLOW_MESSAGE)
            t_new = min(t + h_abs, t1)
            h = h_abs = t_new - t
            nfev += 6
            try:
                y_new, f_new, K, sq = attempt(t, y, f, h)
            except ZeroDivisionError:
                sq = math.nan
            err = math.sqrt(sq) / root
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
    return (np.array(ts), np.array(ys),
            np.array(stages).reshape(len(stages), 7, -1), nfev)
