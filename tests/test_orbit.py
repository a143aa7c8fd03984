from __future__ import annotations

import dataclasses
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

import helpers
from gammachain import chain, cli, expr, orbit, rk45
from gammachain.chain import ProblemSpec, lifted_zero
from gammachain.kernel import GammaKernel
from gammachain.orbit import (ContinuationParams, IntegrationError,
                              NoConvergenceError, SingularJacobianError,
                              fold_lambdas, integrate, newton_periodic,
                              orbit_metrics, period_map, trace_from_zero)

P1 = np.array([1.0, 0.0, -1.0, -1.0])
REFERENCE = Path(__file__).parents[1] / "perfbench" / "reference"

STATUSES = {"lambda_zero", "lambda_negative", "lambda_max", "norm_max",
            "max_steps", "corrector_failure", "closed_loop", "degenerate_slice"}


def oscillator_problem(T=1.0, forcing="sin(2*pi*t)"):
    # xddot = -x with a decoupled unit-rate chain stage
    return ProblemSpec.from_strings("-x0", "0*p", forcing, 1.0, 1, T)


def resonant_problem():
    return ProblemSpec.from_strings("-x0", "0*p", "sin(t)", 1.0, 1, 2 * math.pi)


class TestIntegrate:
    def test_equilibrium_is_exact(self, example_field):
        traj = integrate(example_field, 0.0, P1, 0.0, 1.0)
        assert np.max(np.abs(orbit.dense_samples(traj) - P1[:, None])) <= 1e-12
        assert np.max(np.abs(traj.y_end - P1)) <= 1e-12

    def test_harmonic_oscillator_closed_form(self):
        f = chain.expand(oscillator_problem())
        xi0 = np.array([1.0, 0.0, 0.0])
        Y = orbit.dense_samples(integrate(f, 0.0, xi0, 0.0, 2 * math.pi))
        ts = 2 * math.pi * np.arange(orbit.DENSE_SAMPLES) / orbit.DENSE_SAMPLES
        assert np.max(np.abs(Y[0] - np.cos(ts))) <= 1e-8
        assert np.max(np.abs(Y[1] + np.sin(ts))) <= 1e-8

    def test_dense_sampling_layout(self, example_field):
        # the samples are the dense output at 512 uniform points of
        # [t0, t1), t1 excluded
        for t0, t1 in ((0.0, 1.0), (0.5, 2.5)):
            sol = integrate(example_field, 0.1, P1, t0, t1)
            Y = orbit.dense_samples(sol)
            assert Y.shape == (4, 512) and orbit.DENSE_SAMPLES == 512
            ts = t0 + (t1 - t0) * np.arange(512) / 512
            assert np.array_equal(Y, sol(ts))
            # dense interpolant at a scalar time agrees with the samples
            assert np.allclose(sol(ts[100]), Y[:, 100], atol=1e-12)

    def test_bounded_forced_run(self, example_field):
        traj = integrate(example_field, 0.1, np.array([0.2, 0.0, -0.2, -0.2]),
                         0.0, 1.0)
        assert np.all(np.isfinite(orbit.dense_samples(traj)))

    def test_field_failure_reports_stage_time(self):
        # x0 turns negative near t = 0.0100548; the scalar x0^0.5 raises a
        # math domain error at the stage time 0.0101768
        f = chain.expand(ProblemSpec.from_strings("x0^0.5 - x2", "q-p", "1",
                                                  1.0, 1, 1.0))
        with pytest.raises(IntegrationError, match="field evaluation failed") as err:
            integrate(f, 1.0, np.array([0.01, -1.0, 0.0]), 0.0, 1.0)
        assert 0.0100 < err.value.time < 0.0103

    def test_nan_start_fails_instead_of_hanging(self):
        # x1/x1 is 0/0 = NaN at x1 = 0: solve_ivp's initial step would be
        # NaN and its step loop would never end
        f = chain.expand(ProblemSpec.from_strings("x1/x1 - x0", "q-p", "1",
                                                  1.0, 1, 1.0))
        xi0 = np.array([0.5, 0.0, 0.0])
        with helpers.deadline(5):
            with pytest.raises(IntegrationError, match="non-finite field at the start") as err:
                integrate(f, 0.0, xi0, 0.0, 1.0)
            assert err.value.time == 0.0
            # the stacked Jacobian run: column 0 starts at the NaN
            with pytest.raises(IntegrationError, match="non-finite field at the start"):
                orbit._linearize(f, 0.0, xi0)

    def test_divergence_reports_time(self):
        # xddot = x^3: blows up in finite time from a large start
        p = ProblemSpec.from_strings("x0^3", "0*p", "sin(2*pi*t)", 1.0, 1, 1.0)
        f = chain.expand(p)
        with pytest.raises(IntegrationError) as err:
            integrate(f, 0.0, np.array([20.0, 20.0, 0.0]), 0.0, 5.0)
        assert 0.0 <= err.value.time <= 5.0

    def test_rejects_bad_interval(self, example_field):
        with pytest.raises(ValueError):
            integrate(example_field, 0.0, P1, 1.0, 1.0)

    @pytest.mark.parametrize("lam", [0.0, 0.1])
    @pytest.mark.parametrize("t0, t1", [(0.0, math.inf), (-math.inf, 0.0),
                                        (0.0, math.nan), (-1e308, 1e308)])
    def test_rejects_an_infinite_interval(self, example_field, lam, t0, t1):
        # an infinite length: its steps would be rejected forever, or (at an
        # equilibrium) the samples taken at NaN times
        with helpers.deadline(5):
            with pytest.raises(ValueError, match="finite"):
                integrate(example_field, lam, np.zeros(4), t0, t1)

    def test_determinism(self, example_field):
        xi0 = np.array([0.1, 0.0, -0.1, -0.1])
        a = integrate(example_field, 0.05, xi0, 0.0, 1.0)
        b = integrate(example_field, 0.05, xi0, 0.0, 1.0)
        assert np.array_equal(a.t, b.t) and np.array_equal(a.y, b.y)
        assert np.array_equal(orbit.dense_samples(a), orbit.dense_samples(b))


class TestPeriodMap:
    def test_equilibrium_fixed_point(self, example_field):
        assert np.array_equal(period_map(example_field, 0.0, np.zeros(4)), np.zeros(4))

    def test_resonant_slice_all_fixed(self):
        f = chain.expand(resonant_problem())
        rng = np.random.default_rng(3)
        for _ in range(5):
            xi0 = np.array([rng.uniform(-2, 2), rng.uniform(-2, 2), 0.0])
            assert np.linalg.norm(period_map(f, 0.0, xi0) - xi0, np.inf) <= 1e-7

    def test_fixed_points_are_periodic_solutions(self, example_field):
        sp = newton_periodic(example_field, 0.05, np.zeros(4))
        traj = integrate(example_field, 0.05, sp.xi0, 0.0, 1.0)
        assert np.linalg.norm(traj.y_end - sp.xi0, np.inf) <= 1e-8 * (
            1 + np.linalg.norm(sp.xi0, np.inf))


@pytest.mark.parametrize("state", [np.zeros(3), np.zeros(5), np.zeros((4, 1)),
                                   np.array([0.1, np.nan, 0.0, 0.0]),
                                   np.array([0.1, 0.0, np.inf, 0.0])],
                         ids=["short", "long", "column", "nan", "inf"])
def test_states_are_checked_where_they_enter(example_field, state):
    # the library's entry points check a state once; the shooting
    # iterates inside them are finite by construction and not checked again
    with pytest.raises(ValueError, match="state"):
        integrate(example_field, 0.1, state, 0.0, 1.0)
    with pytest.raises(ValueError, match="state"):
        period_map(example_field, 0.1, state)
    with pytest.raises(ValueError, match="state"):
        newton_periodic(example_field, 0.1, state)


def reference_solve(field, lam, xi0, dense_output=False):
    """One period from xi0 by a lone solve_ivp RK45 solve on the field."""
    G, F = field.G, field.F
    return solve_ivp(lambda t, y: G(y) + lam * F(t, y), (0.0, field.problem.T),
                     xi0, method="RK45", rtol=rk45.TOL,
                     atol=rk45.TOL, dense_output=dense_output)


WORKLOAD_FIELDS = {name: chain.expand(ProblemSpec.from_strings(
    "-x0*(1+x2)", "q-p", f"1+x*sin({arg})", a, b, T))
    for name, a, b, T, arg in (("example", 2.0, 2, 1.0, "2*pi*t"),
                               ("long_chain", 8.0, 8, 1.0, "2*pi*t"),
                               ("long_period", 8.0, 4, 4.0, "2*pi*t/4"))}


def jacobian_start(lam, xi):
    """The column lams and the stacked start state of the Jacobian run of
    ``orbit._linearize`` at (lam, xi)."""
    n = xi.size + 2
    X0 = np.repeat(xi[:, None], n, axis=1)
    X0[:, 2:] += orbit.MONODROMY_STEP * np.eye(xi.size)
    lams = np.full(n, float(lam))
    lams[1] += orbit.MONODROMY_STEP
    return lams, X0.ravel(order="F")


def mid_branch_row(name):
    """(lam, xi) of the middle row of the workload's seed-0 reference CSV."""
    field = WORKLOAD_FIELDS[name]
    points = cli.read_branch_csv(REFERENCE / name / "branch_0.csv", field.problem.kernel.b)
    sp = points[len(points) // 2].sp
    return sp.lam, sp.xi0


class TestDenseOutput:
    @pytest.mark.parametrize("name", sorted(WORKLOAD_FIELDS))
    def test_matches_ode_solution(self, name):
        # the float stages take as many steps as solve_ivp, their ends
        # moved by the rounding of sums in stage order against BLAS dot
        # products, so the interpolant is checked at OdeSolution's own step
        # boundaries and midpoints to the rounding of the solve
        field = WORKLOAD_FIELDS[name]
        xi0 = np.linspace(0.3, -0.2, field.dim)
        sol = reference_solve(field, 0.1, xi0, dense_output=True)
        T = field.problem.T
        dense = orbit._shoot(field, 0.1, xi0)
        assert dense.t.size == sol.t.size
        # uniform samples, every step boundary and every step midpoint
        ts = np.concatenate((T * np.arange(orbit.DENSE_SAMPLES) / orbit.DENSE_SAMPLES,
                             sol.t, 0.5 * (sol.t[1:] + sol.t[:-1])))
        ref = sol.sol(ts)
        assert dense(ts).shape == ref.shape
        assert np.max(np.abs(dense(ts) - ref)) <= 1e-13 * (1 + np.max(np.abs(ref)))
        for t in sol.t:
            y = sol.sol(t)
            assert np.max(np.abs(dense(t) - y)) <= 1e-13 * (1 + np.max(np.abs(y)))
        assert np.max(np.abs(dense.y_end - sol.y[:, -1])) <= 1e-13 * (1 + np.max(np.abs(sol.y)))


    @staticmethod
    def float_interpolant(sol, tau, components):
        """The dense output at the scalar time tau, written out on Python
        floats: the step of searchsorted, x, the powers x, x*x, then times
        x twice, Q_j summed over P's nonzero entries in stage order, and
        h * (((Q0 x + Q1 x^2) + Q2 x^3) + Q3 x^4) + y."""
        k = min(max(int(np.searchsorted(sol.t, tau, side="left")) - 1, 0), len(sol.K) - 1)
        t_old = float(sol.t[k])
        h = float(sol.t[k + 1]) - t_old
        x = (float(tau) - t_old) / h
        x2 = x * x
        x3 = x2 * x
        powers = (x, x2, x3, x3 * x)
        out = []
        for i in range(components):
            stages = sol.K[k, :, i].tolist()
            terms = []
            for j, q in enumerate(zip(*rk45.P)):
                total = None
                for c, stage in zip(q, stages):
                    if c:
                        total = c * stage if total is None else total + c * stage
                terms.append(total * powers[j])
            out.append(h * (((terms[0] + terms[1]) + terms[2]) + terms[3]) + float(sol.y[i, k]))
        return out

    def test_interpolant_is_the_fixed_order_formula(self):
        # the dense output is the interpolant written out on floats, bit
        # for bit, and the compiled evaluator (gc_dense), which every
        # solve of a compiled field carries, is its NumPy twin, bit for
        # bit: on a solve and on a stacked run, at uniform times, at the
        # step times and at a scalar time, for x alone and every component
        field = WORKLOAD_FIELDS["example"]
        compiled = isinstance(field.stages((0.1,)), rk45.CompiledAttempt)
        xi = np.linspace(0.3, -0.2, field.dim)
        uniform = field.problem.T * np.arange(orbit.DENSE_SAMPLES) / orbit.DENSE_SAMPLES
        for sol in (orbit._shoot(field, 0.1, xi), orbit._linearize(field, 0.1, xi)[0]):
            assert (sol.dense is not None) == compiled
            twin = rk45.Solution(sol.t, sol.y, sol.nfev, sol.K)
            for ts in (uniform, sol.t, sol.t[7] + 0.3 * (sol.t[8] - sol.t[7])):
                for components in (1, None):
                    got = sol(ts, components)
                    assert np.array_equal(got, twin(ts, components))
                    columns = [self.float_interpolant(sol, tau, components or field.dim)
                               for tau in np.atleast_1d(ts)]
                    expected = np.array(columns).T
                    assert np.array_equal(got, expected if np.ndim(ts) else expected[:, 0])

    def test_a_part_of_a_call_is_that_part_of_the_whole_call(self):
        # a call on some of the times, in any order, or on the first
        # components gives the bits of the whole call there, compiled or
        # not, as Q of a step does not depend on the times that meet it
        field = WORKLOAD_FIELDS["long_chain"]
        xi = np.linspace(0.3, -0.2, field.dim)
        uniform = field.problem.T * np.arange(orbit.DENSE_SAMPLES) / orbit.DENSE_SAMPLES
        rng = np.random.default_rng(0)
        for run in (orbit._shoot(field, 0.1, xi), orbit._linearize(field, 0.1, xi)[0]):
            for sol in (run, rk45.Solution(run.t, run.y, run.nfev, run.K)):
                ts = np.concatenate((uniform, run.t))
                whole = sol(ts)
                for part in (rng.permutation(ts.size)[:37], np.arange(ts.size)[::-5],
                             [uniform.size + 3]):
                    assert np.array_equal(sol(ts[part]), whole[:, part])
                for components in (1, 3, field.dim):
                    assert np.array_equal(sol(ts, components), whole[:components])
                for j in (0, 100, uniform.size + 5):
                    assert np.array_equal(sol(ts[j], 2), whole[:2, j])
                for components in (0, field.dim + 1):
                    with pytest.raises(ValueError, match="components"):
                        sol(ts, components)


class TestPeriodMaps:
    """Failures of a stacked Jacobian run (``orbit._linearize``)."""

    def test_nan_stages_fail_instead_of_hanging(self):
        # x0 turns negative within the first steps, so x0^0.5 gives a math
        # domain error; the step must shrink to failure, not stall at a NaN
        # size
        f = chain.expand(ProblemSpec.from_strings("x0^0.5 - x2", "q-p", "1",
                                                  1.0, 1, 1.0))
        with helpers.deadline(5):
            with pytest.raises(IntegrationError):
                orbit._linearize(f, 1.0, np.array([0.01, -1.0, 0.0]))

    def test_field_failure_reports_running_time(self):
        # the failure is reported at the time of the failing stage,
        # 0.0101768, as for a lone solve
        # (TestIntegrate.test_field_failure_reports_stage_time)
        f = chain.expand(ProblemSpec.from_strings("x0^0.5 - x2", "q-p", "1",
                                                  1.0, 1, 1.0))
        with pytest.raises(IntegrationError, match="field evaluation failed") as err:
            orbit._linearize(f, 1.0, np.array([0.01, -1.0, 0.0]))
        assert 0.0100 < err.value.time < 0.0103

    def test_blow_up_fails_where_solve_ivp_does(self):
        p = ProblemSpec.from_strings("x0^3", "0*p", "sin(2*pi*t)", 1.0, 1, 1.0)
        f = chain.expand(p)
        xi0 = np.array([20.0, 20.0, 0.0])
        sol = reference_solve(f, 0.0, xi0)
        assert not sol.success
        with pytest.raises(IntegrationError) as err:
            orbit._linearize(f, 0.0, xi0)
        # the stacked run's step control differs from the lone solve's by
        # the perturbed columns: the times agree to 4.7e-9 (relative)
        assert err.value.time == pytest.approx(float(sol.t[-1]), rel=1e-8)
        assert err.value.time == pytest.approx(0.0903137, abs=1e-7)


@st.composite
def shooting_points(draw, forced=False):
    """A cubic-g problem and a point (lam, xi) of its period map, at
    lambda = 0 or in [0.05, 1]; only in [0.05, 1] when ``forced``."""
    c1, c2, c3, d, e = (draw(st.floats(lo, hi)) for lo, hi in
                        ((-2.0, 1.0), (-1.0, 1.0), (0.2, 1.0), (0.0, 1.0), (-1.0, 1.0)))
    T = draw(st.sampled_from([0.5, 1.0, 4.0]))
    p = ProblemSpec.from_strings(
        f"({c1:.3f})*x0 + ({c2:.3f})*x0^2 - {c3:.3f}*x0^3 - {d:.3f}*x1 + ({e:.3f})*x2",
        "q-p", f"1 + x*sin(2*pi*t/{T})", draw(st.floats(0.5, 8.0)),
        draw(st.integers(1, 8)), T)
    dim = p.kernel.b + 2
    lams = st.floats(0.05, 1.0)
    lam = draw(lams if forced else st.sampled_from([0.0]) | lams)
    xi = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=dim, max_size=dim)))
    return p, lam, xi


def precise_period_map(field, lam, xi0):
    sol = solve_ivp(lambda t, y: field.G(y) + lam * field.F(t, y),
                    (0.0, field.problem.T), xi0, method="DOP853",
                    rtol=1e-13, atol=1e-13)
    assert sol.success
    return sol.y[:, -1]


@settings(derandomize=True, deadline=None, max_examples=25)
@given(case=shooting_points())
def test_jacobian_quotients_match_central_differences(case):
    # reference: central differences of DOP853 solves at rtol = atol = 1e-13
    # with h = 1e-5; over these examples the stacked run's quotients agree
    # to 8.2e-5 relative to max |J| (the lambda column alone to 4.6e-5)
    p, lam, xi = case
    field = chain.expand(p)
    _, D = orbit._linearize(field, lam, xi)
    h = 1e-5
    steps = [(h, np.zeros(xi.size))] + [(0.0, h * e) for e in np.eye(xi.size)]
    J = np.array([(precise_period_map(field, lam + dl, xi + dx)
                   - precise_period_map(field, lam - dl, xi - dx)) / (2 * h)
                  for dl, dx in steps]).T
    assert D.shape == J.shape
    assert np.max(np.abs(D - J)) <= 2e-3 * np.max(np.abs(J))
    # the lambda column is forced also at lam = 0, where the forcing of
    # every other column is off
    assert np.max(np.abs(J[:, 0])) > 0.1
    assert np.max(np.abs(D[:, 0] - J[:, 0])) <= 2e-3 * np.max(np.abs(J[:, 0]))


@settings(derandomize=True, deadline=None, max_examples=25)
@given(case=shooting_points(forced=True))
def test_column_zero_dense_output_matches_solve_ivp(case):
    # column 0 is a forced random state at lambda >= 0.05, never at rest;
    # the other columns share its steps, so it matches a lone solve to the
    # solve tolerance, not to rounding: 4.4e-16 over these examples and
    # 2.5e-10 at mid-branch rows of the benchmark workloads
    p, lam, xi = case
    field = chain.expand(p)
    ref = reference_solve(field, lam, xi, dense_output=True)
    if not ref.success:
        with pytest.raises(IntegrationError):
            orbit._linearize(field, lam, xi)
        return
    run, _ = orbit._linearize(field, lam, xi)
    base = run.y_end
    ys = ref.sol(p.T * np.arange(orbit.DENSE_SAMPLES) / orbit.DENSE_SAMPLES)
    assert np.max(np.abs(orbit.dense_samples(run) - ys)) <= 1e-9 * (1.0 + np.max(np.abs(ys)))
    y_end = ref.y[:, -1]
    assert np.max(np.abs(base - y_end)) <= 1e-9 * (1.0 + np.max(np.abs(y_end)))
    # the run's end state is column 0 of the stacked columns' end states
    P = run.y[:, -1].reshape(field.dim, field.dim + 2, order="F")
    assert np.array_equal(base, P[:, 0])


@pytest.mark.parametrize("forced", [False, True], ids=["lambda0", "forced"])
@settings(derandomize=True, deadline=None, max_examples=25)
@given(data=st.data())
def test_float_stages_match_solve_ivp(forced, data):
    # the float stages sum in stage order where solve_ivp's NumPy stages
    # take BLAS dot products; that rounding moves the step ends (by up to
    # about 3e-10) but not the number of steps or the solution
    p, lam, xi = data.draw(shooting_points(forced=forced))
    lam = lam if forced else 0.0
    field = chain.expand(p)
    ref = reference_solve(field, lam, xi, dense_output=True)
    if not ref.success:
        with pytest.raises(IntegrationError):
            orbit._shoot(field, lam, xi)
        return
    dense = orbit._shoot(field, lam, xi)
    assert dense.t.size == ref.t.size
    scale = 1.0 + np.max(np.abs(ref.y))
    assert np.max(np.abs(dense.y_end - ref.y[:, -1])) <= 1e-12 * scale
    ts = np.concatenate((p.T * np.arange(orbit.DENSE_SAMPLES) / orbit.DENSE_SAMPLES, ref.t))
    assert np.max(np.abs(dense(ts) - ref.sol(ts))) <= 1e-13 * scale


@pytest.mark.parametrize("name", sorted(WORKLOAD_FIELDS))
def test_quotients_match_the_numpy_stages(name):
    # the float stages sum in stage order where the NumPy stages of
    # SciPy's RK45 take BLAS dot products, and evaluate f with math's sin,
    # not NumPy's: at the mid-branch reference rows the quotients of one
    # stacked run agree with those of solve_ivp on the same columns to
    # 3.3e-9 / 4.1e-9 / 1.3e-9 of max |D| (example / long_chain /
    # long_period)
    field = WORKLOAD_FIELDS[name]
    lam, xi = mid_branch_row(name)
    _, D = orbit._linearize(field, lam, xi)
    lams, y0 = jacobian_start(lam, xi)

    def fun(t, y):
        X = y.reshape(field.dim, lams.size, order="F")
        return (field.G(X) + lams * field.F(t, X)).ravel(order="F")

    ref = solve_ivp(fun, (0.0, field.problem.T), y0, method="RK45", rtol=rk45.TOL,
                    atol=rk45.TOL)
    P = ref.y[:, -1].reshape(field.dim, lams.size, order="F")
    D_numpy = (P[:, 1:] - P[:, :1]) / orbit.MONODROMY_STEP
    assert np.max(np.abs(D - D_numpy)) <= 1e-7 * np.max(np.abs(D_numpy))


class TestFloatStageFailures:
    """Failures in g on the float stages, against solve_ivp on the field
    with math's scalar maps, which raise as the float stages do, or with
    the field's own, whose np.float64 arithmetic turns 1/0 into inf or
    NaN."""

    def test_math_domain_error_at_the_stage_time(self):
        f = chain.expand(ProblemSpec.from_strings("x0^0.5 - x2", "q-p", "1",
                                                  1.0, 1, 1.0))
        G, F = helpers.scalar_field(f.problem)
        xi0 = np.array([0.01, -1.0, 0.0])
        for lam in (0.0, 1.0):
            stage_times = []

            def fun(t, y):
                stage_times.append(t)
                return G(y) + lam * F(t, y)

            with pytest.raises(ValueError, match="math domain error"):
                solve_ivp(fun, (0.0, 1.0), xi0, method="RK45",
                          rtol=rk45.TOL, atol=rk45.TOL)
            with pytest.raises(IntegrationError, match="field evaluation failed: "
                                                       "math domain error") as err:
                integrate(f, lam, xi0, 0.0, 1.0)
            assert err.value.time == pytest.approx(stage_times[-1], rel=1e-9)
            assert type(err.value.__cause__) is ValueError
            assert str(err.value.__cause__) == "math domain error"

    def test_division_by_zero_rejects_the_attempt(self):
        # g is 1 for x0 < 0 and 0/0 from x0 = 0 on, which x0 reaches at
        # t = sqrt(2) - 1 unforced and (sqrt(3) - 1)/2 at lambda = 1; every
        # attempt across it is rejected until the step underflows there.
        # The Python float stages raise the ZeroDivisionError that rejects
        # an attempt; compiled stages stop at the division and replay the
        # solve on them, so both end in the same error
        f = chain.expand(ProblemSpec.from_strings(
            "(x0 - abs(x0))/(x0 - abs(x0))", "q-p", "1", 1.0, 1, 1.0))
        xi0 = np.array([-0.5, 1.0, 0.0])
        divisions = []

        def counted(lams):
            rhs, attempt = helpers.python_stages(f.stages(lams))

            def counted_attempt(*args):
                try:
                    return attempt(*args)
                except ZeroDivisionError:
                    divisions.append(args[0])
                    raise
            return rhs, counted_attempt

        g = dataclasses.replace(f, stages=counted)
        for lam, t_zero in ((0.0, math.sqrt(2) - 1), (1.0, (math.sqrt(3) - 1) / 2)):
            with np.errstate(all="ignore"):
                ref = reference_solve(f, lam, xi0)
            assert not ref.success
            with pytest.raises(IntegrationError, match="Required step size") as err:
                integrate(g, lam, xi0, 0.0, 1.0)
            assert err.value.time == pytest.approx(float(ref.t[-1]), rel=1e-12)
            assert err.value.time == pytest.approx(t_zero, rel=1e-12)
            with pytest.raises(IntegrationError) as on_field_stages:
                integrate(f, lam, xi0, 0.0, 1.0)
            assert on_field_stages.value.time == err.value.time
            assert str(on_field_stages.value) == str(err.value)
        assert divisions


def row_stages(columns, dim):
    """``rk45.vector_stages`` of the float stages ``columns``, an (rhs,
    attempt) each, with a field that evaluates row c by column c's rhs."""
    def field(s, W, out):
        for c, (rhs, _) in enumerate(columns):
            out[c] = rhs(s, W[c].tolist())
    return rk45.vector_stages(field, columns, dim)


@pytest.mark.parametrize("name", sorted(WORKLOAD_FIELDS))
def test_one_stacked_column_is_the_single_solve(name):
    # a vectorized stacked run of one column makes the Python float
    # stages' own attempt on an array, so it is their single solve, bit
    # for bit
    field = WORKLOAD_FIELDS[name]
    column = helpers.python_stages(field.stages((0.1,)))
    xi0 = np.linspace(0.3, -0.2, field.dim)
    single, stacked = (rk45.solve_ivp(stages, (0.0, field.problem.T), xi0)
                       for stages in (column, row_stages([column], field.dim)))
    assert np.array_equal(stacked.t, single.t)
    assert np.array_equal(stacked.y, single.y)
    assert np.array_equal(stacked.K, single.K)
    assert stacked.nfev == single.nfev


def same_bits(a, b):
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


@st.composite
def vector_attempts(draw):
    """A chain problem of dim 3 to 64 whose g, phi and f call sin, cos and
    pow, the lams of a stacked run of 1 to 12 columns, and the time, state
    and step of one attempt."""
    c1, c2, c3, d, e, k = (draw(st.floats(-1.0, 1.0)) for _ in range(6))
    T = draw(st.sampled_from([0.5, 1.0, 4.0]))
    p = ProblemSpec.from_strings(
        f"({c1:.3f})*x0 + ({c2:.3f})*sin(x0) - ({c3:.3f})*x0^3 - ({d:.3f})*x1 + ({e:.3f})*x2",
        f"q - p + ({k:.3f})*cos(p)", f"1 + x*sin(2*pi*t/{T})",
        draw(st.floats(0.5, 8.0)), draw(st.integers(1, 62)), T)
    lams = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    y = rng.uniform(-1.0, 1.0, len(lams) * (p.kernel.b + 2))
    return p, lams, draw(st.floats(0.0, T)), y, draw(st.floats(1e-4, 0.5))


class TestVectorStages:
    """The vectorized attempt of a stacked run (``rk45.vector_stages``):
    each row is its column's float-stage attempt, bit for bit, the run is
    its C solve, and it fails where the C loop stops."""

    @settings(derandomize=True, deadline=None, max_examples=25)
    @given(case=vector_attempts())
    def test_one_attempt_is_the_column_attempts(self, case):
        # y_new and f_new row by row, and the stages kept, column 0's; the
        # sum of squares runs on from column to column, as the C parity
        # tests check
        p, lams, t, y, h = case
        field = chain.expand(p)
        dim = field.dim
        rhs, vector = helpers.python_stages(field.stages(lams))
        f = rhs(t, y.tolist())
        y_new, f_new, stages, _ = vector(t, y, np.array(f), h)
        for c, lam in enumerate(lams):
            _, column = helpers.python_stages(field.stages((lam,)))
            rows = slice(c * dim, c * dim + dim)
            w, k6, K, _ = column(t, y[rows].tolist(), f[rows], h)
            assert same_bits(y_new[rows], w)
            assert same_bits(f_new[rows], k6)
            if c == 0:
                assert same_bits(stages, K)

    @helpers.requires_compiler
    @pytest.mark.parametrize("b", [1, 2, 4, 6, 45])
    def test_stacked_runs_are_the_c_solve(self, b):
        # dims 3 to 47, dim 3's cascade slice empty: the Jacobian run from
        # linspace(0.3, -0.2, dim) at lambda = 0.1 on the Python float
        # stages is its C solve
        field = chain.expand(ProblemSpec.from_strings(
            "-x0*(1+x2)", "q-p", "1+x*sin(2*pi*t)", float(b), b, 1.0))
        lams, y0 = jacobian_start(0.1, np.linspace(0.3, -0.2, field.dim))
        python = TestCompiledStages.assert_same(field.stages(lams), (0.0, 1.0), y0)
        assert isinstance(python, rk45.Solution)

    def test_the_earlier_stage_fails_first(self):
        # three unforced columns: column 2 starts at x0 = 0 with x2 = 1, so
        # x0 turns negative and x0^0.5 fails at stage 2 (s = 0.3 h) of every
        # attempt, and f has a pole at the first step size H, where column
        # 0 divides by 0 at stage 5 (s = h) of the first attempt.  Stage
        # after stage, and column after column within a stage, as the C
        # loop goes, the root of the first attempt fails first, at 0.3 H,
        # on the Python float stages and where C stops there and replays
        y0 = np.array([1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0])
        lams = (0.0, 0.0, 0.0)
        smooth = chain.expand(ProblemSpec.from_strings("x0^0.5 - x2", "q-p", "1", 1.0, 1, 1.0))
        rhs, _ = helpers.python_stages(smooth.stages(lams))
        H, _ = rk45._float_initial_step(rhs, 0.0, 1.0, y0.tolist())
        field = chain.expand(ProblemSpec.from_strings(
            "x0^0.5 - x2", "q-p", f"1/sin(2*pi*(t - {H!r}))", 1.0, 1, 1.0))
        rhs, _ = helpers.python_stages(field.stages(lams))
        assert rk45._float_initial_step(rhs, 0.0, 1.0, y0.tolist())[0] == H
        stacked = field.stages(lams)
        errors = [TestCompiledStages.solve(stages, (0.0, 1.0), y0)
                  for stages in (helpers.python_stages(stacked), stacked)]
        for err in errors:
            assert type(err) is IntegrationError
            assert err.time == pytest.approx(0.3 * H, rel=1e-12)
            assert err.time == errors[0].time and str(err) == str(errors[0])
            assert str(err).endswith("field evaluation failed: math domain error")


# terms of g that fail on some states: a divisor of 0, exp and pow
# overflowing, and pow out of its domain
HAZARDS = ("0", "1/(x0 - x0)", "x1/(x0 - abs(x0))", "exp(1000*x0)", "(x0 - x2)^0.5",
           "exp(x1)^400", "0.001*x0^-1")


@st.composite
def random_fields(draw):
    """A chain problem of dim 3 to 6 whose g, phi and the amplitude of f
    are random trees of the whole grammar (``helpers.random_expr``), g
    with a term of HAZARDS added, the lams of a stacked run of 2 or 3
    columns, column 0's those of a single solve, and its start state."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = expr.BinOp("+", helpers.random_expr(rng, chain.G_VARS),
                   expr.parse(draw(st.sampled_from(HAZARDS)), chain.G_VARS))
    f = expr.BinOp("*", helpers.random_expr(rng, ("x", "v")),
                   expr.parse("sin(2*pi*t)", chain.F_VARS))
    kernel = GammaKernel(draw(st.floats(0.5, 4.0)), draw(st.integers(1, 4)))
    try:
        p = ProblemSpec(g, helpers.random_expr(rng, chain.PHI_VARS), f, kernel, 1.0)
    except ValueError:  # f fails or is not periodic on one of its samples
        assume(False)
    lams = draw(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=3))
    return p, lams, rng.uniform(-1.0, 1.0, len(lams) * (kernel.b + 2))


class TestCompiledStages:
    """The float stages compiled to C are the Python float stages, bit for
    bit, wherever a compiler makes them: for a single solve, and for the
    stacked run of a shooting Jacobian, whose Python float stages make
    its columns' attempts at once on an array (``rk45.vector_stages``)."""

    REPLAYS = {
        # sqrt of a negative x0: math.pow raises ValueError at a stage time
        "math_domain_error": (("x0^0.5 - x2", "q-p", "1", 1.0, 1, 1.0), [0.01, -1.0, 0.0]),
        # 0/0 from x0 = 0 on: ZeroDivisionError rejects every attempt there
        "division_by_zero": (("(x0 - abs(x0))/(x0 - abs(x0))", "q-p", "1", 1.0, 1, 1.0),
                             [-0.5, 1.0, 0.0]),
    }
    # a start of each REPLAYS field from which a solve over [0, 1] meets
    # no failure: x0 stays positive, or negative
    SAFE = {"math_domain_error": [1.0, 0.0, 0.0], "division_by_zero": [-5.0, 0.0, 0.0]}

    @staticmethod
    def solve(stages, span, y0):
        """The Solution, or the IntegrationError the solve raised."""
        try:
            return rk45.solve_ivp(stages, span, y0)
        except IntegrationError as exc:
            return exc

    @classmethod
    def assert_same(cls, stages, span, y0):
        """Compiled and Python float stages give the same solve."""
        assert isinstance(stages, rk45.CompiledAttempt)
        compiled = cls.solve(stages, span, y0)
        python = cls.solve(stages.build(), span, y0)
        if isinstance(python, IntegrationError):
            assert type(compiled) is IntegrationError
            assert compiled.time == python.time
            assert str(compiled) == str(python)
            assert type(compiled.__cause__) is type(python.__cause__)
            return python
        assert np.array_equal(compiled.t, python.t)
        assert np.array_equal(compiled.y, python.y)
        assert np.array_equal(compiled.K, python.K)
        assert compiled.nfev == python.nfev
        return python

    @helpers.requires_compiler
    @pytest.mark.parametrize("forced", [False, True], ids=["lambda0", "forced"])
    @settings(derandomize=True, deadline=None, max_examples=25)
    @given(data=st.data())
    def test_match_the_float_stages(self, forced, data):
        # a single solve, and the stacked run of the Jacobian at the point
        p, lam, xi = data.draw(shooting_points(forced=forced))
        lam = lam if forced else 0.0
        field = chain.expand(p)
        self.assert_same(field.stages((lam,)), (0.0, p.T), xi)
        lams, y0 = jacobian_start(lam, xi)
        self.assert_same(field.stages(lams), (0.0, p.T), y0)

    @helpers.requires_compiler
    def test_match_the_float_stages_at_dim_28(self):
        # shooting_points draws b <= 8: a Jacobian run of 30 columns at b
        # = a = 26, from linspace(0.3, -0.2, dim) at lambda = 0.1
        field = chain.expand(ProblemSpec.from_strings(
            "-x0*(1+x2)", "q-p", "1+x*sin(2*pi*t)", 26.0, 26, 1.0))
        lams, y0 = jacobian_start(0.1, np.linspace(0.3, -0.2, field.dim))
        python = self.assert_same(field.stages(lams), (0.0, 1.0), y0)
        assert isinstance(python, rk45.Solution)

    @helpers.requires_compiler
    @settings(derandomize=True, deadline=None, max_examples=30)
    @given(case=random_fields())
    def test_random_trees_match_the_float_stages(self, case):
        # every operator and function, C's checks firing on some states and
        # not on others: a single solve and a stacked run are the Python
        # float stages' own, or end in their failure
        p, lams, y0 = case
        field = chain.expand(p)
        self.assert_same(field.stages(lams[:1]), (0.0, 0.5), y0[:field.dim])
        self.assert_same(field.stages(lams), (0.0, 0.5), y0)

    @helpers.requires_compiler
    @pytest.mark.parametrize("name", sorted(REPLAYS))
    def test_replay_on_the_float_stages(self, name, monkeypatch):
        # C stops at the pow of a negative base and at the division by 0,
        # and the solve replays on the Python float stages, which raise
        args, xi0 = self.REPLAYS[name]
        field = chain.expand(ProblemSpec.from_strings(*args))
        replays = []
        steps = rk45._steps
        monkeypatch.setattr(rk45, "_steps", lambda *a: replays.append(1) or steps(*a))
        for lam in (0.0, 1.0):
            stages = field.stages((lam,))
            replays.clear()
            compiled = self.solve(stages, (0.0, 1.0), np.array(xi0))
            assert replays == [1]
            python = self.assert_same(stages, (0.0, 1.0), np.array(xi0))
            assert isinstance(python, IntegrationError)
            if name == "math_domain_error":
                assert str(compiled.__cause__) == "math domain error"

    @helpers.requires_compiler
    @pytest.mark.parametrize("name", sorted(REPLAYS))
    def test_stacked_replay_when_one_column_fails(self, name, monkeypatch):
        # two columns, of which only column 1 meets the failure: C stops
        # there, and the whole run replays on the Python float stages,
        # where column 1 raises; two safe columns run in C to the end
        args, xi0 = self.REPLAYS[name]
        field = chain.expand(ProblemSpec.from_strings(*args))
        safe = np.array(self.SAFE[name])
        replays = []
        steps = rk45._steps
        monkeypatch.setattr(rk45, "_steps", lambda *a: replays.append(1) or steps(*a))
        for lams in ((0.0, 0.0), (1.0, 1.0), (0.0, 1.0)):
            stages = field.stages(lams)
            replays.clear()
            assert isinstance(self.solve(stages, (0.0, 1.0), np.concatenate((safe, safe))),
                              rk45.Solution)
            assert replays == []
            y0 = np.concatenate((safe, xi0))
            compiled = self.solve(stages, (0.0, 1.0), y0)
            assert replays == [1]
            python = self.assert_same(stages, (0.0, 1.0), y0)
            assert isinstance(python, IntegrationError)
            if name == "math_domain_error":
                assert str(compiled.__cause__) == "math domain error"

    @helpers.requires_compiler
    @pytest.mark.parametrize("name", sorted(WORKLOAD_FIELDS))
    def test_resume_when_the_buffers_fill(self, name, monkeypatch):
        # room for 2 steps at first: the C loop returns at every doubling
        # and picks up where it stopped, in a single solve and a stacked run
        field = WORKLOAD_FIELDS[name]
        xi0 = np.linspace(0.3, -0.2, field.dim)
        lams, y0 = jacobian_start(0.1, xi0)
        span = (0.0, field.problem.T)
        runs = [(field.stages((0.1,)), xi0), (field.stages(lams), y0)]
        wholes = [rk45.solve_ivp(stages, span, start) for stages, start in runs]
        monkeypatch.setattr(rk45, "_FIRST_CAPACITY", 2)
        for (stages, start), whole in zip(runs, wholes):
            python = self.assert_same(stages, span, start)
            assert python.t.size == whole.t.size > 8
            assert np.array_equal(python.y, whole.y)

    @helpers.requires_compiler
    def test_python_float_stages_only_for_a_replay(self, monkeypatch):
        # with the kernel loaded, a period map and a shooting Jacobian are
        # each one C call and build no Python float stages; the first
        # replay builds them, once for the field
        args, xi0 = self.REPLAYS["math_domain_error"]
        p = ProblemSpec.from_strings(*args)
        chain.expand.__wrapped__(p).stages((0.0,))
        made = []
        float_stages = rk45.float_stages
        monkeypatch.setattr(rk45, "float_stages",
                            lambda *a: made.append(1) or float_stages(*a))
        field = chain.expand.__wrapped__(p)
        assert isinstance(field.stages((0.0,)), rk45.CompiledAttempt)
        assert isinstance(field.stages((0.0, 0.0)), rk45.CompiledAttempt)
        safe = np.array(self.SAFE["math_domain_error"])
        for lam in (0.0, 1.0):
            orbit.period_map(field, lam, safe)
            orbit._linearize(field, lam, safe)
        assert made == []
        for lam in (0.0, 1.0):
            with pytest.raises(IntegrationError, match="math domain error"):
                orbit.period_map(field, lam, np.array(xi0))
            with pytest.raises(IntegrationError, match="math domain error"):
                orbit._linearize(field, lam, np.array(xi0))
        assert made == [1]


class TestInitialStep:
    """SciPy's initial step of a compiled solve is taken in C, and on the
    Python float stages in Python floats, with the same sums in component
    order: the two agree bit for bit on each branch of its formula, for a
    single solve and for a stacked run."""

    FIELD = WORKLOAD_FIELDS["example"]
    # (lam, start, span, the initial step) on each branch
    BRANCHES = {
        # y0 = 0: d0 < 1e-5, so h0 = 1e-6 and the step is 100 h0
        "small_state": (0.1, np.zeros(4), (0.0, 1.0), 100 * 1e-6),
        # the zero P1 of G, unforced: f0 = f1 = 0, so d1 and d2 are 0 and
        # the step is h1 = max(1e-6, h0 / 1000) = 1e-6
        "equilibrium": (0.0, P1, (0.0, 1.0), 1e-6),
        # a span of 1e-9, shorter than h0: the step is the span
        "short_span": (0.1, np.linspace(0.3, -0.2, 4), (0.0, 1e-9), 1e-9),
    }

    @staticmethod
    def compiled(python, c, namespace={}):
        """The compiled stages of one and of two columns, each at lam = 0,
        of the field whose components are the Python expressions
        ``python`` (as ``rk45.float_stages`` takes them) and the same in C,
        ``c`` (as ``rk45.compiled_stages`` takes them), with its Python
        float stages as the replay."""
        make = rk45.float_stages(python, namespace)
        kernel = rk45.compiled_stages(c)
        return [kernel(lams, lambda lams=lams: row_stages(
            [make(lam) for lam in lams], len(python))) for lams in ((0.0,), (0.0, 0.0))]

    @pytest.mark.parametrize("case", sorted(BRANCHES))
    def test_branches(self, case):
        lam, xi, span, h_abs = self.BRANCHES[case]
        for columns in (1, 2):
            rhs, _ = helpers.python_stages(self.FIELD.stages((lam,) * columns))
            got, _ = rk45._float_initial_step(rhs, *span, np.tile(xi, columns).tolist())
            assert got == h_abs

    @helpers.requires_compiler
    @pytest.mark.parametrize("case", sorted(BRANCHES))
    def test_branches_match_the_float_stages(self, case):
        lam, xi, span, _ = self.BRANCHES[case]
        TestCompiledStages.assert_same(self.FIELD.stages((lam,)), span, xi)
        TestCompiledStages.assert_same(self.FIELD.stages((lam, lam)), span, np.tile(xi, 2))

    # unforced (lam = 0), f0 is 0 at (0.5, 0.5), and at t0 + h0 its first
    # component is 0 * inf = NaN: d1 = 0 and d2 is NaN, so 0.01 / max(d1,
    # d2) divides by 0, which makes h1 = inf
    ZERO_FIELD = ["lam * (s * 1e300 * 1e300)", "w0 - w1"]
    ZERO_FIELD_C = ["lam * (s * 1e300 * 1e300)", "w[0] - w[1]"]

    def test_zero_field_and_a_non_finite_second_evaluation(self):
        rhs, _ = rk45.float_stages(self.ZERO_FIELD, {})(0.0)
        h_abs, f0 = rk45._float_initial_step(rhs, 0.0, 1.0, [0.5, 0.5])
        assert f0 == [0.0, 0.0] and h_abs == 100 * 1e-6

    @helpers.requires_compiler
    def test_zero_field_matches_the_float_stages(self):
        for attempt in self.compiled(self.ZERO_FIELD, self.ZERO_FIELD_C):
            TestCompiledStages.assert_same(attempt, (0.0, 1e-3),
                                           np.tile([0.5, 0.5], len(attempt.lams)))

    @helpers.requires_compiler
    @pytest.mark.parametrize("field, c, message", [
        (["w0 / (w0 - w0)"], ["w[0] / DIVISOR(w[0] - w[0])"], "non-finite field at the start"),
        (["1.0 / (s - s) - w0"], ["1.0 / DIVISOR(s - s) - w[0]"],
         "field evaluation failed: float division by zero")],
        ids=["state", "time"])
    def test_division_by_zero_at_the_start(self, field, c, message):
        # 0/0 of the state is NaN, as in NumPy arithmetic: a non-finite
        # field at the start; 1/0 of the time alone raises, as it did
        # before the float stages; C stops at either and replays
        for attempt in self.compiled(field, c):
            python = TestCompiledStages.assert_same(attempt, (0.0, 1.0), np.ones(len(attempt.lams)))
            assert type(python) is IntegrationError and python.time == 0.0
            assert str(python).endswith(message)

    @helpers.requires_compiler
    def test_second_evaluation_at_the_end_of_a_short_span(self, monkeypatch):
        # a field defined up to s = 1e-9 only: from y0 = 1, h0 would be
        # 0.01, but clipped to the span of 1e-9 the second evaluation is
        # at t1, as is the last stage of the one step, so the solve runs in
        # C to the end and replays nothing
        attempts = self.compiled(["pow(1e-09 - s, 0.5) - w0"], ["POW(1e-09 - s, 0.5) - w[0]"],
                                 {"pow": math.pow})
        replays = []
        initial_step = rk45._float_initial_step
        monkeypatch.setattr(rk45, "_float_initial_step",
                            lambda *a: replays.append(1) or initial_step(*a))
        for attempt in attempts:
            y0 = np.ones(len(attempt.lams))
            compiled = rk45.solve_ivp(attempt, (0.0, 1e-9), y0)
            assert replays == [] and compiled.t.size == 2
            python = TestCompiledStages.assert_same(attempt, (0.0, 1e-9), y0)
            assert isinstance(python, rk45.Solution)
            replays.clear()

    @helpers.requires_compiler
    def test_replay_at_the_second_evaluation(self, monkeypatch):
        # from x0 = 0, x1 = -1, the second evaluation at t0 + h0 takes the
        # root of x0 = -h0: C stops there and replays, and the Python float
        # stages raise the math domain error at t0 + h0
        field = chain.expand(ProblemSpec.from_strings("x0^0.5 - x2", "q-p", "1", 1.0, 1, 1.0))
        xi0 = np.array([0.0, -1.0, 0.0])
        steps = []
        initial_step = rk45._float_initial_step
        monkeypatch.setattr(rk45, "_float_initial_step",
                            lambda *a: steps.append(1) or initial_step(*a))
        for lam in (0.0, 1.0):
            for stages, y0 in ((field.stages((lam,)), xi0),
                               (field.stages((lam, lam)), np.tile(xi0, 2))):
                steps.clear()
                with pytest.raises(IntegrationError, match="math domain error") as err:
                    rk45.solve_ivp(stages, (0.0, 1.0), y0)
                assert steps == [1]
                assert 0.0 < err.value.time < 0.01
                python = TestCompiledStages.assert_same(stages, (0.0, 1.0), y0)
                assert python.time == err.value.time


class TestShootingWork:
    """Each shooting Jacobian is one solve of its stacked columns."""

    @staticmethod
    def record(monkeypatch):
        """(start state, result) of every solve_ivp call."""
        solves = []
        solve = orbit.solve_ivp

        def recorded(stages, t_span, y0):
            sol = solve(stages, t_span, y0)
            solves.append((np.array(y0), sol))
            return sol

        monkeypatch.setattr(orbit, "solve_ivp", recorded)
        return solves

    @staticmethod
    def converged_point(field):
        sp = newton_periodic(field, 0.01, lifted_zero(field.problem, 0.0))
        tangent = np.zeros(field.dim + 1)
        tangent[0] = 1.0
        return np.concatenate(([sp.lam], sp.xi0)), tangent

    @staticmethod
    def state_block(field, z):
        """The state block [P - xi]' of one ``_linearize`` run at z."""
        _, D = orbit._linearize(field, z[0], z[1:])
        return D - np.eye(field.dim, field.dim + 1, 1)

    def test_corrector_jacobian_is_one_run(self, example_field, monkeypatch):
        z, tangent = self.converged_point(example_field)
        z_pred = z + 0.005 * tangent
        block = self.state_block(example_field, z_pred)
        solves = self.record(monkeypatch)
        z_new, iters, _, A = orbit._newton(example_field, z_pred,
                                           tangent, ContinuationParams())
        assert z_new[0] == pytest.approx(0.015, abs=1e-12)
        assert iters >= 1
        dim = example_field.dim
        # without a carried block the solve is the chord Newton, and the
        # block it hands on is its Jacobian's state block at z_pred
        assert A.shape == (dim, dim + 1)
        assert np.array_equal(A, block)
        # one run of dim+2 stacked columns, then one single solve per
        # iterate: the predictor's residual rode in the run
        assert [y0.size for y0, _ in solves] == [dim * (dim + 2)] + [dim] * iters
        # column after column: the unperturbed one, the lambda one at the
        # same state, then the dim monodromy columns
        X0 = solves[0][0].reshape(dim, dim + 2, order="F")
        xi = z_pred[1:]
        assert np.array_equal(X0[:, :2], np.column_stack([xi, xi]))
        assert np.array_equal(X0[:, 2:], xi[:, None] + orbit.MONODROMY_STEP * np.eye(dim))

    def test_converged_predictor_accepts_the_run_solution(self, example_field,
                                                          monkeypatch):
        z, tangent = self.converged_point(example_field)
        solves = self.record(monkeypatch)
        z_new, iters, acc, _ = orbit._newton(example_field, z, tangent,
                                             ContinuationParams())
        dim = example_field.dim
        assert iters == 0 and np.array_equal(z_new, z)
        assert [y0.size for y0, _ in solves] == [dim * (dim + 2)]
        # the accepted solution is column 0 of the run: its first dim rows
        run = solves[0][1]
        assert acc.solution is run
        assert np.array_equal(acc.solution.t, run.t)
        assert np.array_equal(acc.solution.y_end, run.y[:dim, -1])
        bp = orbit._branch_point(acc)
        x = orbit.dense_samples(integrate(example_field, z[0], z[1:], 0.0, 1.0))[0]
        fresh = orbit_metrics(x)
        assert bp.sup_norm == pytest.approx(fresh[0], abs=1e-12)
        assert bp.diameter == pytest.approx(fresh[1], abs=1e-12)

    def test_converged_start_accepts_one_single_solve(self, example_field,
                                                     monkeypatch):
        # with a carried block, a converged start is accepted on the one
        # single solve that shoots from it, which gives the accepted solution
        z, tangent = self.converged_point(example_field)
        A = self.state_block(example_field, z)
        solves = self.record(monkeypatch)
        z_new, iters, acc, A_new = orbit._newton(example_field, z + 0.01 * tangent,
                                                 tangent, ContinuationParams(), z, A)
        dim = example_field.dim
        assert iters == 0 and np.array_equal(z_new, z)
        assert [y0.size for y0, _ in solves] == [dim]
        assert np.array_equal(solves[0][0], z[1:])
        assert acc.solution is solves[0][1]
        assert np.array_equal(acc.solution.t, solves[0][1].t)
        assert np.array_equal(A_new, A)

    def test_every_single_solve_takes_the_field_stages(self, example_field,
                                                       monkeypatch):
        z, tangent = self.converged_point(example_field)
        calls = []
        stages = example_field.stages
        field = dataclasses.replace(
            example_field, stages=lambda lams: calls.append(tuple(lams)) or stages(lams))
        solves = self.record(monkeypatch)
        integrate(field, 0.1, z[1:], 0.0, 1.0)
        _, iters, _, _ = orbit._newton(field, z + 0.005 * tangent, tangent,
                                       ContinuationParams())
        dim = field.dim
        # one stacked run of dim + 2 columns, and single solves of one column else
        assert [y0.size for y0, _ in solves] == [dim, dim * (dim + 2)] + [dim] * iters
        assert [len(lams) for lams in calls] == [1, dim + 2] + [1] * iters
        assert iters >= 1
        assert calls[0] == (0.1,)

    def test_broyden_solve_takes_no_jacobian_run(self, example_field, monkeypatch):
        # a good carried block: single solves only, and the same point as
        # the chord Newton's within newton_tol
        z, tangent = self.converged_point(example_field)
        z_pred = z + 0.005 * tangent
        params = ContinuationParams()
        chord = orbit._newton(example_field, z_pred, tangent, params)[0]
        A = self.state_block(example_field, z)
        solves = self.record(monkeypatch)
        z_new, iters, acc, _ = orbit._newton(example_field, z_pred, tangent,
                                             params, z_pred, A)
        dim = example_field.dim
        assert iters == 0
        sizes = [y0.size for y0, _ in solves]
        assert 2 <= len(sizes) <= 1 + orbit.BROYDEN_MAX_ITER
        assert sizes == [dim] * len(sizes)
        assert np.array_equal(solves[-1][0], z_new[1:])
        assert acc.residual <= params.newton_tol * (1 + np.linalg.norm(z_new, np.inf))
        assert np.max(np.abs(z_new - chord)) <= params.newton_tol

    @pytest.mark.parametrize("block", ["zero", "random"])
    def test_bad_block_falls_back_to_one_jacobian_run(self, example_field,
                                                      monkeypatch, block):
        z, tangent = self.converged_point(example_field)
        z_pred = z + 0.005 * tangent
        params = ContinuationParams()
        chord = orbit._newton(example_field, z_pred, tangent, params)
        dim = example_field.dim
        A = (np.zeros((dim, dim + 1)) if block == "zero"
             else np.random.default_rng(5).normal(size=(dim, dim + 1)))
        solves = self.record(monkeypatch)
        z_new, iters, _, A_new = orbit._newton(example_field, z_pred, tangent,
                                               params, z_pred, A)
        sizes = [y0.size for y0, _ in solves]
        assert sizes.count(dim * (dim + 2)) == 1
        assert iters >= 1
        assert np.max(np.abs(z_new - chord[0])) <= params.newton_tol
        # the fresh Jacobian's state block is handed on
        stacked = sizes.index(dim * (dim + 2))
        start = solves[stacked][0][:dim]
        assert np.array_equal(A_new, self.state_block(
            example_field, np.concatenate(([z_pred[0]], start))))

    def test_newton_max_iter_bounds_each_phase(self, example_field, monkeypatch):
        # newton_max_iter = 1: one Broyden iterate after the start's solve,
        # then the chord Newton's run and its one iterate
        z, tangent = self.converged_point(example_field)
        A = self.state_block(example_field, z)
        solves = self.record(monkeypatch)
        z_pred = z + 0.005 * tangent
        try:
            orbit._newton(example_field, z_pred, tangent,
                          ContinuationParams(newton_max_iter=1), z_pred, A)
        except NoConvergenceError:
            pass
        dim = example_field.dim
        assert [y0.size for y0, _ in solves] == [dim, dim, dim * (dim + 2), dim]

    def test_example_trace_takes_few_jacobian_runs(self, example_field, monkeypatch):
        # full Jacobians: the seed, the second point, the first solve of
        # the forward march and the two landings; every other point
        # updates the carried block
        solves = self.record(monkeypatch)
        trace = trace_from_zero(example_field, 0.0, ContinuationParams())
        assert len(trace.points) == 43
        stacked = sum(y0.size > example_field.dim for y0, _ in solves)
        assert stacked <= 6

    def test_newton_monodromy_is_one_run(self, example_field, monkeypatch):
        solves = self.record(monkeypatch)
        sp = newton_periodic(example_field, 0.01, np.zeros(4))
        # one run of the unperturbed, the lambda and the dim monodromy
        # columns at the guess, in which the guess's residual rides, then
        # one single solve per chord iteration; the last one is accepted
        sizes = [y0.size for y0, _ in solves]
        assert len(sizes) >= 2
        assert sizes == [4 * 6] + [4] * (len(sizes) - 1)
        assert np.array_equal(solves[0][0][:4], np.zeros(4))
        assert np.array_equal(solves[-1][0], sp.xi0)
        # from farther, the fifth iterate stalls and its Jacobian is
        # refreshed once, by one more run from that iterate
        solves.clear()
        sp = newton_periodic(example_field, 0.05, np.zeros(4))
        sizes = [y0.size for y0, _ in solves]
        assert sizes == [4 * 6] + [4] * 5 + [4 * 6] + [4] * (len(sizes) - 7)
        assert np.array_equal(solves[6][0][:4], solves[5][0])
        assert np.array_equal(solves[-1][0], sp.xi0)

    def test_newton_max_iter_bounds_the_march_newton(self, example_field):
        z, tangent = self.converged_point(example_field)
        with pytest.raises(NoConvergenceError):
            orbit._newton(example_field, z + 0.005 * tangent, tangent,
                          ContinuationParams(newton_max_iter=1))


class TestNewtonPeriodic:
    def test_converges_to_equilibrium(self, example_field):
        sp = newton_periodic(example_field, 0.0, np.zeros(4) + 0.01)
        assert np.linalg.norm(sp.xi0, np.inf) <= 1e-8
        assert sp.residual <= 1e-8

    def test_forced_solution_has_amplitude(self, example_field):
        sp = newton_periodic(example_field, 0.05, np.zeros(4))
        assert sp.residual <= 1e-8 * (1 + np.linalg.norm(sp.xi0, np.inf))
        traj = integrate(example_field, 0.05, sp.xi0, 0.0, 1.0)
        _, diameter = orbit_metrics(orbit.dense_samples(traj)[0])
        assert diameter > 1e-4

    def test_far_guess_fails(self, example_field):
        with pytest.raises(NoConvergenceError):
            newton_periodic(example_field, 0.05, np.full(4, 1e7),
                            ContinuationParams(norm_max=1e6))

    @pytest.mark.parametrize("field,u_bar", [
        (WORKLOAD_FIELDS["example"], 0.0), (WORKLOAD_FIELDS["example"], 1.0),
        (WORKLOAD_FIELDS["long_period"], 0.0)],
        ids=["example-zero0", "example-zero1", "long_period-zero0"])
    @pytest.mark.parametrize("lam", [0.0, orbit.SEED_LAMBDA, 0.03])
    def test_fixed_lambda_is_bit_exact(self, field, u_bar, lam):
        # the bordered solve meets the border row e_0 only up to rounding
        # (on long_period by about 5e-18); lambda must not drift, or a
        # landing at lambda = 0 could end below it
        assert newton_periodic(field, lam, lifted_zero(field.problem, u_bar)).lam == lam

    def test_resonant_monodromy_detected(self):
        f = chain.expand(resonant_problem())
        with pytest.raises(SingularJacobianError):
            newton_periodic(f, 1e-3, np.zeros(3))


class TestContinuationParams:
    def test_defaults_valid(self):
        ContinuationParams()

    def test_rejects_bad_steps(self):
        with pytest.raises(ValueError):
            ContinuationParams(min_step=0.1, initial_step=0.01)
        with pytest.raises(ValueError):
            ContinuationParams(step_shrink=1.5)
        with pytest.raises(ValueError):
            ContinuationParams(norm_max=0.0)
        for tol in (0.0, -1.0):
            with pytest.raises(ValueError):
                ContinuationParams(newton_tol=tol)

    def test_keys_and_defaults(self):
        defaults = {"initial_step": 0.01, "min_step": 1e-6, "max_step": 0.05,
                    "max_steps": 600, "newton_tol": 1e-10, "newton_max_iter": 25,
                    "step_shrink": 0.5, "step_grow": 1.3, "lambda_max": 1.0,
                    "norm_max": 100.0}
        assert cli._CONTINUATION_KEYS == set(defaults)
        params = ContinuationParams()
        assert {key: getattr(params, key) for key in defaults} == defaults
        given = ContinuationParams(**{**defaults, "max_steps": 7, "lambda_max": 0.5})
        assert (given.max_steps, given.lambda_max) == (7, 0.5)

    @pytest.mark.parametrize("changes, message", [
        ({"max_steps": 1.0}, "max_steps must be an integer, got 1.0"),
        ({"newton_max_iter": True}, "newton_max_iter must be an integer, got True"),
        ({"initial_step": math.nan}, "initial_step must be a finite number, got nan"),
        ({"norm_max": "1"}, "norm_max must be a finite number, got '1'"),
        ({"lambda_max": False}, "lambda_max must be a finite number, got False"),
        ({"min_step": 0.1}, "need 0 < min_step <= initial_step <= max_step"),
        ({"max_steps": 0}, "iteration counts must be positive"),
        ({"newton_tol": 0.0}, "newton_tol must be positive"),
        ({"step_grow": 1.0}, "need step_shrink < 1 < step_grow"),
        ({"lambda_max": -1.0}, "lambda_max must be >= 0 and norm_max > 0"),
    ])
    def test_value_errors(self, changes, message):
        with pytest.raises(ValueError) as info:
            ContinuationParams(**changes)
        assert str(info.value) == message


class TestTraceFromZero:
    def test_short_branch(self, example_field):
        params = ContinuationParams(lambda_max=0.06, max_steps=60)
        trace = trace_from_zero(example_field, 0.0, params)
        lams = [bp.sp.lam for bp in trace.points]
        assert trace.status_forward == "lambda_max"
        assert max(lams) > 0.05
        assert trace.status_backward == "lambda_zero"
        # traversal starts at the trivial anchor
        assert lams[0] == 0.0
        assert np.linalg.norm(trace.points[0].sp.xi0, np.inf) <= 1e-3

    def test_branch_points_reverify_at_half_tolerance(self, example_field):
        params = ContinuationParams(lambda_max=0.05, max_steps=40)
        trace = trace_from_zero(example_field, 0.0, params)
        assert len(trace.points) >= 3
        G, F = example_field.G, example_field.F
        for bp in trace.points:
            fresh = solve_ivp(lambda t, y: G(y) + bp.sp.lam * F(t, y), (0.0, 1.0),
                              bp.sp.xi0, method="RK45", rtol=5e-11, atol=5e-11)
            res = np.linalg.norm(fresh.y[:, -1] - bp.sp.xi0, np.inf)
            assert res <= 1e-8 * (1 + np.linalg.norm(bp.sp.xi0, np.inf))

    def test_metrics_equal_a_fresh_integration(self, example_field):
        # sup_norm and diameter come from the dense output of x of the solve
        # that accepted each point; integrating it again gives the same bits,
        # and x alone is x among every component, bit for bit
        params = ContinuationParams(lambda_max=0.05, max_steps=40)
        fields = [(example_field, trace_from_zero(example_field, 0.0, params))]
        resonant = chain.expand(resonant_problem())
        fields.append((resonant, trace_from_zero(resonant, 0.0, params)))
        for field, trace in fields:
            for bp in trace.points:
                fresh = integrate(field, bp.sp.lam, bp.sp.xi0, 0.0,
                                  field.problem.T)
                x = orbit.dense_samples(fresh, 1)[0]
                assert orbit_metrics(x) == (bp.sup_norm, bp.diameter)
                assert np.array_equal(x, orbit.dense_samples(fresh)[0])

    def test_arclength_monotone(self, example_field):
        params = ContinuationParams(lambda_max=0.05, max_steps=40)
        trace = trace_from_zero(example_field, 0.0, params)
        arcs = [bp.arclength for bp in trace.points]
        assert all(b > a for a, b in zip(arcs, arcs[1:]))

    def test_diameter_bounded_by_sup(self, example_field):
        params = ContinuationParams(lambda_max=0.05, max_steps=40)
        trace = trace_from_zero(example_field, 0.0, params)
        for bp in trace.points:
            assert 0.0 <= bp.diameter <= 2.0 * bp.sup_norm + 1e-12

    def test_resonant_is_degenerate_slice(self):
        f = chain.expand(resonant_problem())
        trace = trace_from_zero(f, 0.0, ContinuationParams())
        assert trace.status_forward == "degenerate_slice"
        assert len(trace.points) == 1
        assert trace.points[0].sp.lam == 0.0

    def test_lambda_max_zero_keeps_trivial_row(self, example_field):
        trace = trace_from_zero(example_field, 0.0,
                                ContinuationParams(lambda_max=0.0))
        assert len(trace.points) == 1
        assert trace.points[0].sp.lam == 0.0
        assert trace.points[0].diameter == 0.0

    def test_second_point_past_lambda_max_not_written(self, example_field):
        # the natural step would land the second point at lambda = 0.051;
        # it stops at lambda_max instead, and the forward march ends there
        params = ContinuationParams(initial_step=0.05, max_step=0.05,
                                    lambda_max=0.03)
        trace = trace_from_zero(example_field, 0.0, params)
        assert trace.status_forward == "lambda_max"
        assert trace.status_backward == "lambda_zero"
        lams = [bp.sp.lam for bp in trace.points]
        assert max(lams) <= params.lambda_max
        assert max(lams) == params.lambda_max

    def test_unstartable_branch_is_status(self, example_field, monkeypatch):
        helpers.refuse_second_branch_point(monkeypatch)
        trace = trace_from_zero(example_field, 0.0, ContinuationParams())
        assert (trace.status_backward, trace.status_forward) == (
            "corrector_failure", "corrector_failure")
        assert trace.reason == ""
        assert len(trace.points) == 1
        assert trace.points[0].sp.lam == orbit.SEED_LAMBDA
        assert trace.points[0].arclength == 0.0


@st.composite
def continuation_params(draw):
    steps = sorted(draw(st.lists(st.floats(1e-4, 0.08), min_size=3, max_size=3)))
    return ContinuationParams(
        min_step=steps[0], initial_step=steps[1], max_step=steps[2],
        max_steps=draw(st.integers(1, 15)),
        newton_tol=draw(st.floats(1e-12, 1e-8)),
        newton_max_iter=draw(st.integers(1, 25)),
        step_shrink=draw(st.floats(0.1, 0.9)),
        step_grow=draw(st.floats(1.05, 2.0)),
        lambda_max=draw(st.floats(0.0, 0.1)),
        norm_max=draw(st.floats(0.5, 100.0)))


@settings(derandomize=True, deadline=None, max_examples=30)
@given(params=continuation_params(), u_bar=st.sampled_from([0.0, 1.0]))
def test_traces_stay_in_bounds(example_field, params, u_bar):
    trace = trace_from_zero(example_field, u_bar, params)
    assert {trace.status_backward, trace.status_forward} <= STATUSES
    lams = [bp.sp.lam for bp in trace.points]
    assert all(0.0 <= lam <= params.lambda_max for lam in lams)
    arcs = [bp.arclength for bp in trace.points]
    assert all(b >= a for a, b in zip(arcs, arcs[1:]))


def test_march_detects_a_closed_loop(monkeypatch):
    # a corrector that walks the 40 vertices of a polygon in (lam, xi):
    # the march is back at its start, in its first direction, at step 40
    k = np.arange(40)
    vertices = np.column_stack((0.5 + 0.2 * np.cos(2 * np.pi * k / 40),
                                0.5 + 0.2 * np.sin(2 * np.pi * k / 40)))
    steps = iter(vertices[1:].tolist() + [vertices[0]])

    def corrector(field, z_pred, t_hat, params, start=None, A=None):
        return np.array(next(steps)), 1, None, np.zeros((1, 2))

    monkeypatch.setattr(orbit, "_newton", corrector)
    monkeypatch.setattr(orbit, "_branch_point", lambda acc: acc)
    points, status = orbit._march(None, vertices[0], vertices[0] - vertices[-1],
                                  ContinuationParams())
    assert status == "closed_loop"
    assert len(points) == 39


def accepted(z):
    """A stand-in for the starting point a corrector accepts at z."""
    return orbit.StartingPoint(float(z[0]), z[1:], 0.0)


class TestMarchExits:
    """``_march``'s exits and step control with a stand-in corrector
    (``orbit._newton``) on a one-dimensional xi, z = (lambda, xi)."""

    @pytest.fixture(autouse=True)
    def no_metrics(self, monkeypatch):
        # a branch point is the starting point itself
        monkeypatch.setattr(orbit, "_branch_point", lambda sp: sp)

    def test_failed_correctors_shrink_the_step_until_min_step(self, monkeypatch):
        steps = []

        def corrector(field, z_pred, t_hat, params, start=None, A=None):
            steps.append(float(np.linalg.norm(z_pred - z0)))
            raise NoConvergenceError("stand-in")

        monkeypatch.setattr(orbit, "_newton", corrector)
        z0 = np.array([0.5, 0.2])
        params = ContinuationParams(initial_step=0.01, min_step=1e-3, step_shrink=0.5)
        points, status = orbit._march(None, z0, np.array([1.0, 0.0]), params)
        assert status == "corrector_failure" and points == []
        # 0.01 / 16 is below min_step: no fifth corrector
        assert steps == pytest.approx([0.01, 0.005, 0.0025, 0.00125], rel=1e-12)

    @pytest.mark.parametrize("lands", [True, False])
    def test_a_point_below_lambda_zero_lands(self, monkeypatch, lands):
        below = np.array([-0.01, 0.3])
        landings = []

        def land(field, lam, guess, params):
            landings.append((lam, guess))
            if not lands:
                raise NoConvergenceError("stand-in")
            return accepted(np.array([lam, 0.25]))

        monkeypatch.setattr(orbit, "_newton",
                            lambda *args, **kwargs: (below, 1, accepted(below), None))
        monkeypatch.setattr(orbit, "newton_periodic", land)
        points, status = orbit._march(None, np.array([0.5, 0.2]), np.array([-1.0, 0.0]),
                                      ContinuationParams())
        # the landing Newton starts from the accepted point's xi
        assert len(landings) == 1 and landings[0][0] == 0.0
        assert np.array_equal(landings[0][1], below[1:])
        if lands:
            assert status == "lambda_zero"
            assert [(sp.lam, sp.xi0[0]) for sp in points] == [(0.0, 0.25)]
        else:
            assert status == "lambda_negative" and points == []

    def test_norm_max(self, monkeypatch):
        far = np.array([0.5, 2.5])
        monkeypatch.setattr(orbit, "_newton",
                            lambda *args, **kwargs: (far, 1, accepted(far), None))
        points, status = orbit._march(None, np.array([0.5, 0.2]), np.array([0.0, 1.0]),
                                      ContinuationParams(norm_max=2.0))
        assert status == "norm_max" and points == []

    def test_slow_solves_shrink_the_step(self, monkeypatch):
        # 7 chord iterations shrink ds by step_shrink, down to min_step at
        # most; 3 grow it by step_grow
        iterations = iter([7, 7, 3, 1])
        steps = []

        def corrector(field, z_pred, t_hat, params, start=None, A=None):
            steps.append(float(z_pred[0] - z_last[0]))
            z_last[:] = z_pred
            return z_pred.copy(), next(iterations), accepted(z_pred), np.zeros((1, 2))

        monkeypatch.setattr(orbit, "_newton", corrector)
        z_last = np.array([0.5, 0.2])
        params = ContinuationParams(initial_step=0.01, min_step=0.004, step_shrink=0.5,
                                    step_grow=1.5, max_steps=4)
        points, status = orbit._march(None, z_last.copy(), np.array([1.0, 0.0]), params)
        assert status == "max_steps" and len(points) == 4
        assert steps == pytest.approx([0.01, 0.005, 0.004, 0.006], rel=1e-9)


def test_seed_at_lambda_max_traces_backward_only(example_field):
    # the second point, past lambda_max, fixes the tangent but is not
    # kept: the forward march ends at once, and the seed ends the trace
    params = ContinuationParams(lambda_max=orbit.SEED_LAMBDA)
    trace = trace_from_zero(example_field, 0.0, params)
    assert trace.status_forward == "lambda_max"
    assert trace.status_backward == "lambda_zero"
    lams = [bp.sp.lam for bp in trace.points]
    assert lams[0] == 0.0 and lams[-1] == orbit.SEED_LAMBDA
    assert all(lam <= orbit.SEED_LAMBDA for lam in lams)
    arcs = [bp.arclength for bp in trace.points]
    assert arcs[0] == 0.0 and all(b > a for a, b in zip(arcs, arcs[1:]))


class Shot:
    """A stand-in one-period solve ending at ``y_end``."""

    def __init__(self, y_end):
        self.y_end = np.array(y_end, float)


class TestBroydenHandsBack:
    """``_broyden`` gives up to the chord Newton, returning no accepted
    point, on a failed shot or a diverged iterate; z = (lambda, xi) with a
    one-dimensional xi and border row e_0."""

    z = np.array([0.1, 0.0])
    e0 = np.array([1.0, 0.0])
    A = np.array([[0.0, -0.5]])  # the state block's estimate: from R = 1, xi goes to 2

    def test_first_shot_fails(self, monkeypatch):
        def shoot(field, lam, xi):
            raise IntegrationError(0.5, "stand-in")

        monkeypatch.setattr(orbit, "_shoot", shoot)
        z, acc, A = orbit._broyden(None, self.z, self.e0, ContinuationParams(),
                                   self.z, self.A)
        assert np.array_equal(z, self.z) and acc is None
        assert np.array_equal(A, self.A)

    def test_a_later_shot_fails(self, monkeypatch):
        shots = []

        def shoot(field, lam, xi):
            shots.append(xi.copy())
            if len(shots) > 1:
                raise IntegrationError(0.5, "stand-in")
            return Shot(xi + 1.0)

        monkeypatch.setattr(orbit, "_shoot", shoot)
        z, acc, A = orbit._broyden(None, self.z, self.e0, ContinuationParams(),
                                   self.z, self.A)
        # the iterate xi = 2 was shot and failed: back to the start
        assert len(shots) == 2 and shots[1] == pytest.approx([2.0])
        assert np.array_equal(z, self.z) and acc is None
        assert np.array_equal(A, self.A)

    def test_an_iterate_leaves_ten_norm_max(self, monkeypatch):
        shots = []

        def shoot(field, lam, xi):
            shots.append(xi.copy())
            return Shot(xi + 1.0)

        monkeypatch.setattr(orbit, "_shoot", shoot)
        params = ContinuationParams(norm_max=0.1)  # the iterate xi = 2 is beyond 1
        z, acc, A = orbit._broyden(None, self.z, self.e0, params, self.z, self.A)
        assert len(shots) == 1
        assert np.array_equal(z, self.z) and acc is None
        assert np.array_equal(A, self.A)


def test_chord_iterate_beyond_ten_norm_max_raises(monkeypatch):
    # [D - (0, 1); e_0] has least singular value 1e-4, so the chord step
    # from the residual 1 takes xi to -1e4, beyond 10 norm_max = 1000
    field = mock.Mock(dim=1)
    monkeypatch.setattr(orbit, "_linearize", lambda field, lam, xi: (
        Shot(xi + 1.0), np.array([[0.0, 1.0 + 1e-4]])))
    monkeypatch.setattr(orbit, "_shoot", mock.Mock(side_effect=AssertionError))
    with pytest.raises(NoConvergenceError, match="diverged"):
        orbit._newton(field, np.array([0.1, 0.0]), np.array([1.0, 0.0]),
                      ContinuationParams())


@settings(derandomize=True, deadline=None, max_examples=20)
@given(c=st.floats(0.5, 3.0), d=st.floats(0.0, 1.0), a=st.floats(1.0, 4.0),
       b=st.integers(1, 5), T=st.floats(0.5, 3.0), u_bar=st.sampled_from([0.0, 1.0]))
def test_broyden_traces_the_chord_newton_curve(c, d, a, b, T, u_bar):
    # the march's Broyden phase against the chord Newton alone (Broyden
    # off): the same curve points, up to the Newton tolerance
    p = ProblemSpec.from_strings(f"-{c:.4f}*x0*(1+x2) - {d:.4f}*x1", "q-p",
                                 f"1+x*sin(2*pi*t/{T:.4f})", a, b, round(T, 4))
    field = chain.expand(p)
    params = ContinuationParams(lambda_max=0.1)
    trace = trace_from_zero(field, u_bar, params)
    with mock.patch.object(orbit, "BROYDEN_MAX_ITER", 0):
        chord = trace_from_zero(field, u_bar, params)
    assert (trace.status_backward, trace.status_forward) == (
        chord.status_backward, chord.status_forward)
    assert len(trace.points) == len(chord.points)
    for bp, ref in zip(trace.points, chord.points):
        assert np.max(np.abs(orbit._z(bp) - orbit._z(ref))) <= 1e-8


class TestMetrics:
    def test_constant_orbit(self, example_field):
        traj = integrate(example_field, 0.0, P1, 0.0, 1.0)
        sup, diam = orbit_metrics(orbit.dense_samples(traj)[0])
        assert sup == 1.0 and diam == 0.0

    def test_cosine_orbit(self):
        f = chain.expand(oscillator_problem())
        traj = integrate(f, 0.0, np.array([1.0, 0.0, 0.0]), 0.0, 2 * math.pi)
        sup, diam = orbit_metrics(orbit.dense_samples(traj)[0])
        assert sup == pytest.approx(1.0, abs=1e-6)
        assert diam == pytest.approx(2.0, abs=1e-4)

    def test_fold_detection(self):
        def folds(lams):
            return fold_lambdas([orbit.BranchPoint(
                orbit.StartingPoint(l, np.zeros(1), 0.0), 0.0, 0.0, 0.0)
                for l in lams])

        assert folds([0.0, 0.1, 0.2, 0.15, 0.05, 0.0]) == [0.2]
        # a turning point where lambda is least is a fold too
        assert folds([0.3, 0.2, 0.1, 0.15, 0.25, 0.2, 0.1]) == [0.1, 0.25]
