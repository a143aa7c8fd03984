"""The integrator: the Dormand-Prince 5(4) pair under SciPy's RK45 step
control, at rtol = atol = ``TOL``.

The tableau (Dormand & Prince 1980; Hairer, Norsett & Wanner, Solving
ODEs I, II.4-II.5) is written out with the dense-output matrix ``P`` of
Shampine (1986), as in SciPy's ``RK45``.  ``solve_ivp`` runs the step
control with one of three stage evaluators.  The float stages of
``float_stages`` are straight-line float code for one RK45 attempt of a
field given as one Python expression per component (``chain.expand``
compiles them for each problem's field).  Their C kernel
(:class:`CompiledStages`, a :class:`CompiledAttempt` per lam) runs the
whole step loop of a solve with the same IEEE operations in the same
order, so its results are theirs bit for bit; it is cached per user,
compiled with ``cc`` in the background on first use while solves run on
the float stages, and replays a solve on them wherever Python might part
from C.  NumPy stages (``_numpy_stages``) have SciPy's
``rk_step`` arithmetic.  A solve is one :class:`Solution`, whose call is
its vectorized quartic interpolant.  Every failure of a solve is an
:class:`IntegrationError` at the time it happened.
"""
from __future__ import annotations

import ast
import atexit
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
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

__all__ = ["TOL", "C", "A", "B", "E", "P", "IntegrationError", "Solution",
           "CompiledAttempt", "CompiledStages", "finish_compiles", "float_stages",
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
class Solution:
    """One solve: the accepted times ``t``, the states ``y[:, k]`` at
    ``t[k]``, the field evaluations ``nfev``, and the stages ``K[k]`` (7,
    dim) of step k for the first dim components.  A failed solve raises,
    so ``success`` is always true.

    Calling it is the dense output of those components.  On step k, from
    ``t[k]`` to ``t[k+1]`` with h = t[k+1] - t[k] and x = (t - t[k]) / h,
    the solution is the Dormand-Prince quartic interpolant ``y[:dim, k] +
    h * Q[k] @ (x, x^2, x^3, x^4)`` with Q[k] = K[k]^T P (Hairer, Norsett
    & Wanner, Solving ODEs I, II.6), formed only for the span of steps a
    call evaluates.  A time on a step boundary takes the earlier step, and
    times outside [t[0], t[-1]] extrapolate the first or last step, as in
    ``OdeSolution``.
    """

    t: np.ndarray
    y: np.ndarray
    nfev: int
    K: np.ndarray
    success: bool = True

    @property
    def y_end(self) -> np.ndarray:
        """The state of the first dim components at ``t[-1]``."""
        return self.y[:self.K.shape[-1], -1]

    def __call__(self, t):
        """y(t): shape (dim,) for a scalar t, (dim, len(t)) for an array."""
        t = np.asarray(t, dtype=float)
        tv = t.reshape(-1)
        steps, _, dim = self.K.shape
        k = np.clip(np.searchsorted(self.t, tv, side="left") - 1, 0, steps - 1)
        t_old = self.t[k]
        h = self.t[k + 1] - t_old
        lo = k.min()
        Q = self.K[lo:k.max() + 1].transpose(0, 2, 1) @ _P
        powers = np.cumprod(np.tile((tv - t_old) / h, (Q.shape[-1], 1)), axis=0)
        y = h * np.einsum("mdk,km->dm", Q[k - lo], powers) + self.y[:dim, k]
        return y[:, 0] if t.ndim == 0 else y


def _combination(coefs, stage, zeros=False):
    """Source of sum_j coefs[j] * stage j in stage order, over the nonzero
    coefs unless ``zeros``; ``stage.format(j=j)`` names stage j.  The
    float stages and their C kernel both write their sums with it."""
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
              f"sqrt({' + '.join(f'e{i} * e{i}' for i in range(n))}) / {n ** 0.5!r}",
              "    return rhs, attempt"]
    ns = dict(namespace, IntegrationError=IntegrationError,
              OverflowError=OverflowError, ValueError=ValueError, abs=abs,
              sqrt=math.sqrt, __builtins__={})
    exec("\n".join(lines), ns)  # codegen from our own expressions only
    return ns["make"]


# -- the float stages compiled to C ---------------------------------------

# C has no -Ofast or -ffast-math here: every operation rounds as in Python,
# no product is fused into an add, and no libm call is inlined or folded
_CC_FLAGS = ("-O2", "-ffp-contract=off", "-fno-fast-math", "-fno-builtin",
             "-fPIC", "-shared")
_COMPILE_TIMEOUT_S = 10.0
_CACHE_KEEP = 256       # libraries the cache keeps, about 16 KB each
_STALE_TMP_S = 3600.0   # a temporary file this old is a killed compile's
_FIRST_CAPACITY = 128  # steps a compiled solve makes room for before growing
_DONE, _FULL, _REPLAY, _UNDERFLOW = range(4)  # the return codes of gc_solve
_UNDERFLOW_MESSAGE = "Required step size is less than spacing between numbers."
_C_OPS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/"}
_C_CALLS = {"sin": 1, "cos": 1, "exp": 1, "pow": 2, "abs": 1}


def _c_field(derivatives: list[str]) -> str:
    """The body of the C field ``field(s, w, lam, out)``: one temporary per
    operation of ``derivatives`` (as :func:`float_stages` takes them), in
    Python's order of evaluation.  It returns 1 where Python might part
    from C: before a division by 0, and after a sin, cos, exp or pow whose
    argument or result is not finite (the only values for which Python's
    math functions raise or special-case); ``abs`` is ``fabs``."""
    lines = []

    def temp(code):
        lines.append(f"    double t{len(lines)} = {code};")
        return f"t{len(lines) - 1}"

    def emit(node):
        if isinstance(node, ast.Constant) and type(node.value) in (int, float):
            text = repr(float(node.value))
            return f"({text})" if text.startswith("-") else text
        if isinstance(node, ast.Name):
            if node.id in ("s", "lam"):
                return node.id
            if node.id[:1] == "w" and node.id[1:].isdigit() and int(node.id[1:]) < len(derivatives):
                return f"w[{int(node.id[1:])}]"
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return temp(f"-{emit(node.operand)}")
        if isinstance(node, ast.BinOp) and type(node.op) in _C_OPS:
            left, right = emit(node.left), emit(node.right)
            if isinstance(node.op, ast.Div):
                lines.append(f"    if ({right} == 0.0) return 1;")
            return temp(f"{left} {_C_OPS[type(node.op)]} {right}")
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and len(node.args) == _C_CALLS.get(node.func.id) and not node.keywords):
            args = [emit(arg) for arg in node.args]
            if node.func.id == "abs":
                return temp(f"fabs({args[0]})")
            value = temp(f"{node.func.id}({', '.join(args)})")
            finite = " && ".join(f"isfinite({v})" for v in args + [value])
            lines.append(f"    if (!({finite})) return 1;")
            return value
        raise ValueError(f"no C for {ast.dump(node)}")

    for i, derivative in enumerate(derivatives):
        value = emit(ast.parse(derivative, mode="eval").body)
        lines.append(f"    out[{i}] = {value};")
    return "\n".join(lines)


def _c_source(derivatives: list[str]) -> str:
    """C source of ``gc_solve``: the step loop of ``solve_ivp`` on the float
    stages of ``derivatives``, written with the same operations in the same
    order (``min(a, b)`` as ``b < a ? b : a`` and ``max(a, b)`` as ``b > a ?
    b : a``, which keep Python's choice when one of them is NaN)."""
    n = len(derivatives)
    stage = "k[{j}][i]"
    steps = []
    for st in range(1, 7):
        if st < 6:
            steps += [f"s = t + {C[st]!r} * h;",
                      f"for (i = 0; i < N; i++) w[i] = y[i] + ({_combination(A[st], stage)}) * h;"]
        else:
            steps += ["s = t + h;",
                      f"for (i = 0; i < N; i++) w[i] = y[i] + h * ({_combination(B, stage)});"]
        steps.append(f"if (field(s, w, lam, k[{st}])) {{ status = {_REPLAY}; goto done; }}")
    steps = "\n            ".join(steps)
    return f"""\
#include <math.h>
#include <stdint.h>

enum {{ N = {n} }};

static int field(double s, const double *w, double lam, double *out)
{{
{_c_field(derivatives)}
    return 0;
}}

/* Steps from ts[m], ys[m] (m = counts[0]) with f the field there, until
   t1 or until the buffers hold cap steps; counts[1] is nfev and h_io[0]
   the next step size, both carried from call to call. */
int gc_solve(double t1, double lam, double *h_io, int64_t *counts, int64_t cap,
             double *ts, double *ys, double *ks, double *f)
{{
    int64_t m = counts[0], nfev = counts[1];
    double h_abs = h_io[0];
    int status = {_DONE}, i;
    while (ts[m] < t1) {{
        const double t = ts[m], *y = ys + m * N;
        double *w = ys + (m + 1) * N;  /* the stage state; y_new at the end */
        double (*k)[N] = (double (*)[N])(ks + m * 7 * N);
        double min_step, t_new, h, s, x, sq, err, e[N];
        int rejected = 0;
        if (m + 1 >= cap) {{ status = {_FULL}; break; }}
        min_step = 10.0 * (nextafter(t, INFINITY) - t);
        h_abs = min_step > h_abs ? min_step : h_abs;
        for (;;) {{
            if (h_abs < min_step) {{ status = {_UNDERFLOW}; goto done; }}
            t_new = t1 < t + h_abs ? t1 : t + h_abs;
            h = h_abs = t_new - t;
            nfev += 6;
            for (i = 0; i < N; i++) k[0][i] = f[i];
            {steps}
            for (i = 0; i < N; i++) {{
                double a = fabs(y[i]), b = fabs(w[i]);
                e[i] = (({_combination(E, stage, zeros=True)}) * h)
                       / ({TOL!r} + (a > b ? a : b) * {TOL!r});
            }}
            sq = e[0] * e[0];
            for (i = 1; i < N; i++) sq = sq + e[i] * e[i];
            err = sqrt(sq) / {n ** 0.5!r};
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
        m += 1;
        ts[m] = t_new;
        for (i = 0; i < N; i++) f[i] = k[6][i];
    }}
done:
    counts[0] = m;
    counts[1] = nfev;
    h_io[0] = h_abs;
    return status;
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


def _compile(cc: str, source: str, out: str) -> int:
    """Start compiling ``source`` into the shared library ``out``; the
    compiler's pid.  It runs in a session of its own, so that
    :meth:`CompiledStages.poll` can kill it whole, none of its passes
    outliving it.  ``os.posix_spawn``, not ``subprocess``, whose import
    alone costs a few milliseconds, which a short command would pay for a
    compile it ends before."""
    with tempfile.TemporaryFile() as src:  # a file, so the compiler never blocks us
        src.write(source.encode())
        src.seek(0)
        return os.posix_spawn(cc, [cc, *_CC_FLAGS, "-x", "c", "-", "-o", out, "-lm"],
                              os.environ, setsid=True,
                              file_actions=[(os.POSIX_SPAWN_DUP2, src.fileno(), 0),
                                            (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0),
                                            (os.POSIX_SPAWN_DUP2, 1, 2)])


def _intact(path: Path) -> bool:
    """Whether the library ends in the sha256 digest of the rest of it."""
    import hashlib
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return False
    return hashlib.sha256(data[:-32]).digest() == data[-32:]


def _seal(tmp: str, path: Path):
    """Append the sha256 of the compiled library ``tmp`` to it (the loader
    ignores them) and move it to ``path``, so that no process sees one
    half written, then prune the cache."""
    import hashlib
    with open(tmp, "r+b") as fh:
        fh.write(hashlib.sha256(fh.read()).digest())
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


_compiling: set[CompiledStages] = set()  # the builds whose compiler may still run


class CompiledStages:
    """The float stages of ``derivatives`` (as :func:`float_stages` takes
    them) compiled to C.  Called, it is the factory ``(lam, replay) ->``
    :class:`CompiledAttempt` once the kernel is loaded, and None before and
    wherever none can be had (not POSIX, no ``cc`` on PATH, no usable
    cache, a failed compile or load, a library others may write to).

    The library is cached per user, keyed by the sha256 of the source, the
    flags and the machine; one in the cache is loaded at once.  Otherwise
    ``cc`` compiles it in the background while single solves run on the
    Python float stages, whose results are the kernel's, and each call
    checks whether the compile is done; so a solve never waits for the
    compiler, and a short command pays nothing for it.  A compile still
    running after ``_COMPILE_TIMEOUT_S`` or at exit is killed.  A library
    that does not end in its own digest, as a cut-short one, is compiled
    again, never loaded: mapping it can kill the process."""

    def __init__(self, derivatives: list[str]):
        import hashlib  # here, so that analyze, which solves nothing, does not load it
        self.dim = len(derivatives)
        self.factory = None
        self.compiler = None  # the pid of the running compile
        cc = shutil.which("cc") if os.name == "posix" else None
        cache = _cache_dir() if cc is not None else None
        if cache is None:
            return
        source = _c_source(derivatives)
        key = hashlib.sha256("\0".join((source, *_CC_FLAGS, platform.machine())).encode())
        self.path = cache / f"stages-{key.hexdigest()}.so"
        try:
            if _intact(self.path):
                self._load()
                return
            fd, self.tmp = tempfile.mkstemp(suffix=".tmp", dir=cache)
            os.close(fd)
        except OSError:
            return
        try:
            self.compiler = _compile(cc, source, self.tmp)
        except (OSError, NotImplementedError):  # NotImplementedError: no setsid
            os.unlink(self.tmp)
            return
        self.deadline = time.monotonic() + _COMPILE_TIMEOUT_S
        self.pid = os.getpid()
        _compiling.add(self)

    def __call__(self):
        if self.compiler is not None:
            self.poll()
        return self.factory

    def poll(self, wait: float = 0.0):
        """Finish the build if the compiler is done, waiting for it up to
        ``wait`` seconds; past its deadline, kill it."""
        if os.getpid() != self.pid:  # a forked child: the compiler is not its own
            return
        until = min(self.deadline, time.monotonic() + wait)
        pid, status = os.waitpid(self.compiler, os.WNOHANG)
        while not pid and time.monotonic() < until:
            time.sleep(0.01)
            pid, status = os.waitpid(self.compiler, os.WNOHANG)
        if not pid:  # still running
            if time.monotonic() < self.deadline:
                return
            import signal
            os.killpg(self.compiler, signal.SIGKILL)
            os.waitpid(self.compiler, 0)
        self.compiler = None
        _compiling.discard(self)
        try:
            if pid and status == 0:  # exited with code 0
                _seal(self.tmp, self.path)
                self._load()
        except OSError:
            pass
        finally:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(self.tmp)

    def _load(self):
        if not _private(self.path.stat()):
            return
        try:
            solve = ctypes.CDLL(str(self.path)).gc_solve
        except (OSError, AttributeError):  # not a library, or not ours
            return
        with contextlib.suppress(OSError):
            os.utime(self.path)  # used now, for _prune
        solve.argtypes = (ctypes.c_double, ctypes.c_double, ctypes.c_void_p,
                          ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p,
                          ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p)
        solve.restype = ctypes.c_int
        self.factory = functools.partial(CompiledAttempt, solve, self.dim)


def finish_compiles():
    """Wait for every compile this process started to end (each until its
    timeout at most), and load what they built."""
    for build in list(_compiling):
        build.poll(_COMPILE_TIMEOUT_S)


@atexit.register
def _kill_compiles():
    """No compiler outlives the process that started it: at exit every
    compile is past its deadline, so it is used if done and killed if not."""
    for build in list(_compiling):
        build.deadline = -math.inf
        build.poll()


@dataclass(frozen=True)
class CompiledAttempt:
    """The compiled float stages at one ``lam``, for ``solve_ivp``: its C
    ``solve`` runs the whole step loop of a solve of dimension ``dim``,
    and where it stops at a value for which Python might part from C, the
    solve replays on ``replay``, the float-stage attempt of the same lam."""

    solve: Callable
    dim: int
    lam: float
    replay: Callable

    def run(self, t0, t1, h_abs, y0, f0):
        """(t, Y, K, nfev) of the solve from (t0, y0) with f0 = F(t0, y0)
        and first step ``h_abs``, or None to replay it.  The buffers double
        whenever the C loop fills them."""
        n = self.dim
        f = np.array(f0, dtype=float)  # a copy: C advances it, a replay starts from f0
        if y0.shape != (n,) or f.shape != (n,):
            raise ValueError(f"state and field must have shape ({n},), "
                             f"got {y0.shape} and {f.shape}")
        cap = _FIRST_CAPACITY
        ts, ys, ks = np.empty(cap), np.empty((cap, n)), np.empty((cap, 7, n))
        ts[0], ys[0] = t0, y0
        h, counts = np.array([h_abs]), np.array([0, 2], dtype=np.int64)
        while True:
            status = self.solve(t1, self.lam, h.ctypes.data, counts.ctypes.data, cap,
                                ts.ctypes.data, ys.ctypes.data, ks.ctypes.data, f.ctypes.data)
            if status != _FULL:
                break
            m, cap = int(counts[0]), 2 * cap
            ts, ys, ks = (np.concatenate((a[:m + 1], np.empty((cap - m - 1,) + a.shape[1:])))
                          for a in (ts, ys, ks))
        m = int(counts[0])
        if status == _REPLAY:
            return None
        if status == _UNDERFLOW:
            raise IntegrationError(float(ts[m]), _UNDERFLOW_MESSAGE)
        return ts[:m + 1], ys[:m + 1], ks[:m], int(counts[1])


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


def solve_ivp(fun, t_span, y0, *, attempt=None, dim=None) -> Solution:
    """SciPy's RK45 for y' = fun(t, y) from y0 over t_span = (t0, t1),
    t0 < t1, at rtol = atol = ``TOL``, with the dense output of the first
    ``dim`` components (default: all).

    ``attempt`` is a float attempt of :func:`float_stages` (float stages,
    with ``fun`` its ``rhs``) or a :class:`CompiledAttempt` of them, which
    runs the step loop in C and replays the solve on its float stages
    where it stops; without it the stages are NumPy evaluations of ``fun``
    (``_numpy_stages``).  The step control is SciPy's: its initial step
    (taken in Python on ``fun`` for every kind of stages), a least step of
    10 ulp(t), step factors 0.9 err^(-1/5) within [0.2, 10] (at most 1
    after a rejection), and the last step clipped to t1.  An error norm that is not below 1 (NaN included)
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

        run = None
        if isinstance(attempt, CompiledAttempt):
            run = attempt.run(t0, t1, h_abs, y0, f0)
            attempt = attempt.replay
        if run is None and attempt is None:
            run = _steps(_numpy_stages(fun, dim), t0, t1, h_abs, y0, f0)
        elif run is None:
            run = _steps(attempt, t0, t1, h_abs, y0.tolist(), f0.tolist())
    t, Y, K, nfev = run
    if not np.isfinite(Y[-1]).all():
        raise IntegrationError(float(t[-1]), "non-finite state")
    return Solution(t=t, y=Y.T, nfev=nfev, K=K)


def _steps(attempt, t0, t1, h_abs, y, f):
    """The step loop of ``solve_ivp`` in Python from the state y with f =
    F(t0, y): (t, Y, K, nfev), where Y[k] is the state at t[k]."""
    t, ts, ys, stages, nfev = t0, [t0], [y], [], 2
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
    return (np.array(ts), np.array(ys),
            np.array(stages).reshape(len(stages), 7, -1), nfev)
