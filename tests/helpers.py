"""Shared builders for the test suite: the worked example, randomized
transversal problems with known roots, a random expression generator, and
reference implementations (kernel mass quadrature, history quadrature,
per-sample Lipschitz estimate) that the library's fast paths are checked
against."""
from __future__ import annotations

import contextlib
import itertools
import math
import shutil
import signal

import numpy as np
import pytest

from gammachain import certify, chain, expr, oracle, orbit, rk45
from gammachain.analysis import FD_STEP
from gammachain.chain import ProblemSpec
from gammachain.kernel import GammaKernel, gamma_eval, tail_horizon

# the float stages are compiled wherever a C compiler is on PATH
requires_compiler = pytest.mark.skipif(shutil.which("cc") is None,
                                       reason="no C compiler on PATH")


def python_stages(stages):
    """The (rhs, attempt) of the Python float stages of the stages value
    ``stages``: a compiled one's replay, built now."""
    return stages.build() if isinstance(stages, rk45.CompiledAttempt) else stages


EXAMPLE = dict(g="-x0*(1+x2)", phi="q-p", f="1+x*sin(2*pi*t)", a=2.0, b=2, T=1.0)


def example_problem() -> ProblemSpec:
    return ProblemSpec.from_strings(**EXAMPLE)


def rotation_problem() -> ProblemSpec:
    """xddot = -x, unforced, with a two-stage chain fed by phi = 0: the
    chain field turns (u, v0) at rate 1 with period 2*pi and lets (v1, v2)
    decay, so its Jacobian has operator 2-norm 1, the rotation rate."""
    return ProblemSpec.from_strings("-x0", "0*p", "0", 0.5, 2, 2 * math.pi)


@contextlib.contextmanager
def deadline(seconds):
    """Fail a call that is still running after ``seconds`` instead of hanging."""
    def stalled(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, stalled)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def refuse_second_branch_point(monkeypatch):
    """Let only the seed's periodic Newton solve succeed, so no branch can
    be started from the seed."""
    newton = orbit.newton_periodic

    def seed_only(field, lam, guess, params=orbit.ContinuationParams()):
        if lam != orbit.SEED_LAMBDA:
            raise orbit.NoConvergenceError("second point refused")
        return newton(field, lam, guess, params)

    monkeypatch.setattr(orbit, "newton_periodic", seed_only)


def quadrature_mass(k: GammaKernel, upper: float) -> float:
    """Composite-Simpson mass of the density over [0, upper], panels of
    width at most mean/100 with 0 always a panel endpoint."""
    if upper < 0:
        raise ValueError("upper must be nonnegative")
    if upper == 0:
        return 0.0
    h = k.mean / 100.0
    n = max(1, math.ceil(upper / h - 1e-12))
    w = upper / n
    idx = np.arange(n, dtype=float)
    s0 = idx * w
    panels = (w / 6.0) * (gamma_eval(k, s0)
                          + 4.0 * gamma_eval(k, s0 + 0.5 * w)
                          + gamma_eval(k, s0 + w))
    return float(np.sum(panels))


def reference_jacobian(fun, x: np.ndarray) -> np.ndarray:
    """Central finite-difference Jacobian of a map of one state, one
    column (two calls of ``fun``) at a time."""
    x = np.asarray(x, dtype=float)
    n = x.size
    fx = np.asarray(fun(x), dtype=float)
    J = np.empty((fx.size, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = FD_STEP
        J[:, j] = (np.asarray(fun(x + e)) - np.asarray(fun(x - e))) / (2.0 * FD_STEP)
    return J


def reference_lipschitz(field: chain.ExpandedField, center, radius: float,
                        grid_per_axis: int = certify.DEFAULT_GRID) -> float:
    """The Lipschitz estimate one sample at a time with the scalar G: the
    tensor grid by ``itertools.product`` over the field's
    ``jacobian_axes``, the other coordinates at the center."""
    center = np.asarray(center, dtype=float)
    axes = list(field.jacobian_axes)
    best = 0.0
    for values in itertools.product(
            *(np.linspace(center[i] - radius, center[i] + radius, grid_per_axis)
              for i in axes)):
        pt = center.copy()
        pt[axes] = values
        J = reference_jacobian(field.G, pt)
        best = max(best, float(np.linalg.norm(J, 2)))
    return best


def reference_history_convolution(p: ProblemSpec, x, xdot, i: int,
                                  t: float) -> float:
    """Stage i of the chain at time t without folding or FFT:

        integral_0^H  gamma_a^i(s) * phi(x(t - s), xdot(t - s)) ds

    by composite Simpson with 4096 panels over [0, H], H the tail horizon
    of mass 1e-12, with the tracks evaluated at every t - s."""
    k = GammaKernel(p.kernel.a, i)
    H = tail_horizon(k, 1e-12)
    n = 4096
    s = np.linspace(0.0, H, n + 1)
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    phi = expr.compile_expr(p.phi, chain.PHI_VARS, vectorized=True)
    z = phi(x.value(t - s), xdot.value(t - s)) + np.zeros_like(s)
    return float(H / n / 3.0 * np.dot(w, gamma_eval(k, s) * z))


def sampled_tracks(sol):
    """(chain coordinates, x track, xdot track) from the dense samples of
    a one-period solve, or of a list of them over one period, one row
    each, as ``verify`` builds them: the arguments of
    ``oracle.verify_lift`` after the problem."""
    sols = sol if isinstance(sol, list) else [sol]
    Y = np.array([orbit.dense_samples(s) for s in sols])
    if not isinstance(sol, list):
        Y = Y[0]
    period = sols[0].t[-1] - sols[0].t[0]
    return (Y[..., 2:, :], oracle.PeriodicTrack(Y[..., 0, :], period),
            oracle.PeriodicTrack(Y[..., 1, :], period))


def central_fd(fun, x: float, h: float = 1e-6) -> float:
    return (fun(x + h) - fun(x - h)) / (2.0 * h)


def _poly_str(coeffs, pv: str, qv: str) -> str:
    c0, c1, c2, c3, c4 = (float(c) for c in coeffs)
    return (f"({c0!r}) + ({c1!r})*{pv} + ({c2!r})*{qv}"
            f" + ({c3!r})*{pv}^2 + ({c4!r})*{pv}*{qv}")


def make_transversal_problem(rng: np.random.Generator, b: int):
    """A problem whose bifurcation function is exactly a polynomial with
    known, well-separated transversal roots.

    g is built as target(x0) + c*(x2 - phi(x0, x1)), so composing with the
    lifted third argument cancels the phi terms identically and leaves
    Phi(u) = target(u).  Returns (problem, roots, slopes at the roots).
    """
    while True:
        n_roots = int(rng.integers(1, 4))
        roots = np.sort(rng.uniform(-2.0, 2.0, n_roots))
        if n_roots == 1 or float(np.min(np.diff(roots))) > 0.4:
            break
    s = float(rng.uniform(0.5, 2.0)) * (1.0 if rng.random() < 0.5 else -1.0)
    c = float(rng.uniform(0.5, 2.0)) * (1.0 if rng.random() < 0.5 else -1.0)
    a = float(rng.uniform(0.5, 4.0))
    phi_coeffs = rng.uniform(-1.5, 1.5, 5)

    target = f"({s!r})" + "".join(f"*(x0-({float(r)!r}))" for r in roots)
    g = f"{target} + ({c!r})*(x2 - ({_poly_str(phi_coeffs, 'x0', 'x1')}))"
    problem = ProblemSpec.from_strings(g, _poly_str(phi_coeffs, "p", "q"),
                                       "sin(2*pi*t)", a, b, 1.0)
    slopes = np.array([s * np.prod([r_i - r_j for r_j in roots if r_j != r_i])
                       for r_i in roots])
    return problem, roots, slopes


def transversal_suite(count: int = 20, seed: int = 20260808):
    """Deterministic randomized suite over shapes b in {1, 2, 3, 5}."""
    rng = np.random.default_rng(seed)
    shapes = [1, 2, 3, 5]
    suite = []
    while len(suite) < count:
        b = shapes[len(suite) % len(shapes)]
        problem, roots, slopes = make_transversal_problem(rng, b)
        if float(np.min(np.abs(slopes))) < 0.05:
            continue  # nearly tangent roots make the determinant check noisy
        suite.append((problem, roots, slopes))
    return suite


_FUNCS = ("sin", "cos", "exp", "abs")


def random_expr(rng: np.random.Generator, variables: tuple[str, ...],
                depth: int = 0) -> expr.Expr:
    """Random tree over the full grammar; power exponents stay integer."""
    if depth >= 3 or rng.random() < 0.3:
        if variables and rng.random() < 0.65:
            return expr.Var(str(rng.choice(variables)))
        return expr.Num(float(np.round(rng.uniform(-3.0, 3.0), 3)))
    roll = rng.random()
    if roll < 0.5:
        op = str(rng.choice(["+", "-", "*", "/"]))
        return expr.BinOp(op, random_expr(rng, variables, depth + 1),
                          random_expr(rng, variables, depth + 1))
    if roll < 0.6:
        return expr.BinOp("^", random_expr(rng, variables, depth + 1),
                          expr.Num(float(rng.integers(2, 4))))
    if roll < 0.7:
        return expr.Neg(random_expr(rng, variables, depth + 1))
    func = str(rng.choice(_FUNCS))
    return expr.Call(func, random_expr(rng, variables, depth + 1))


def smooth_sample_points(e: expr.Expr, variables: tuple[str, ...],
                         rng: np.random.Generator, var: str, want: int = 5,
                         tries: int = 60):
    """Bindings where the expression evaluates and looks smooth in ``var``.

    Smoothness filter: two central differences with halved steps must
    agree, which rejects kinks of abs and pole neighborhoods.
    """
    points = []
    for _ in range(tries):
        if len(points) >= want:
            break
        bindings = {v: float(rng.uniform(-2.0, 2.0)) for v in variables}

        def along(x):
            nb = dict(bindings)
            nb[var] = x
            return expr.evaluate(e, nb)

        x0 = bindings[var]
        try:
            fd1 = central_fd(along, x0, 1e-6)
            fd2 = central_fd(along, x0, 5e-7)
        except expr.EvalError:
            continue
        if abs(fd1 - fd2) > 1e-6 * (1.0 + abs(fd1)):
            continue
        points.append((bindings, fd1))
    return points
