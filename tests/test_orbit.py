from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from gammachain import chain, orbit
from gammachain.chain import ExpandedField, ProblemSpec, lifted_zero
from gammachain.orbit import (ContinuationParams, IntegrationError,
                              NoConvergenceError, SingularJacobianError,
                              fold_lambdas, integrate, newton_periodic,
                              orbit_metrics, period_map, trace_from_zero)

P1 = np.array([1.0, 0.0, -1.0, -1.0])

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
        assert np.max(np.abs(traj.ys - P1)) <= 1e-12
        assert np.max(np.abs(traj.y_end - P1)) <= 1e-12

    def test_harmonic_oscillator_closed_form(self):
        f = chain.expand(oscillator_problem())
        xi0 = np.array([1.0, 0.0, 0.0])
        traj = integrate(f, 0.0, xi0, 0.0, 2 * math.pi)
        assert np.max(np.abs(traj.ys[:, 0] - np.cos(traj.ts))) <= 1e-8
        assert np.max(np.abs(traj.ys[:, 1] + np.sin(traj.ts))) <= 1e-8

    def test_dense_sampling_layout(self, example_field):
        traj = integrate(example_field, 0.1, P1, 0.0, 1.0)
        assert traj.ts.shape == (512,)
        assert traj.ys.shape == (512, 4)
        assert traj.ts[0] == 0.0 and traj.ts[-1] < 1.0
        # dense interpolant agrees with the samples
        assert np.allclose(traj.at(traj.ts[100]), traj.ys[100], atol=1e-12)

    def test_bounded_forced_run(self, example_field):
        traj = integrate(example_field, 0.1, np.array([0.2, 0.0, -0.2, -0.2]),
                         0.0, 1.0)
        assert np.all(np.isfinite(traj.ys))

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

    def test_determinism(self, example_field):
        xi0 = np.array([0.1, 0.0, -0.1, -0.1])
        a = integrate(example_field, 0.05, xi0, 0.0, 1.0)
        b = integrate(example_field, 0.05, xi0, 0.0, 1.0)
        assert np.array_equal(a.ys, b.ys)


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


class TestNewtonPeriodic:
    def test_converges_to_equilibrium(self, example_field):
        sp = newton_periodic(example_field, 0.0, np.zeros(4) + 0.01)
        assert np.linalg.norm(sp.xi0, np.inf) <= 1e-8
        assert sp.residual <= 1e-8

    def test_forced_solution_has_amplitude(self, example_field):
        sp = newton_periodic(example_field, 0.05, np.zeros(4))
        assert sp.residual <= 1e-8 * (1 + np.linalg.norm(sp.xi0, np.inf))
        traj = integrate(example_field, 0.05, sp.xi0, 0.0, 1.0)
        _, diameter = orbit_metrics(traj)
        assert diameter > 1e-4

    def test_far_guess_fails(self, example_field):
        with pytest.raises(NoConvergenceError):
            newton_periodic(example_field, 0.05, np.full(4, 1e7),
                            ContinuationParams(norm_max=1e6))

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
        for bp in trace.points:
            fresh = integrate(example_field, bp.sp.lam, bp.sp.xi0, 0.0, 1.0,
                              tol=0.5e-10)
            res = np.linalg.norm(fresh.y_end - bp.sp.xi0, np.inf)
            assert res <= 1e-8 * (1 + np.linalg.norm(bp.sp.xi0, np.inf))

    def test_metrics_equal_a_fresh_integration(self, example_field):
        # sup_norm and diameter come from the dense output of the solve
        # that accepted each point; integrating it again gives the same bits
        params = ContinuationParams(lambda_max=0.05, max_steps=40)
        fields = [(example_field, trace_from_zero(example_field, 0.0, params))]
        resonant = chain.expand(resonant_problem())
        fields.append((resonant, trace_from_zero(resonant, 0.0, params)))
        for field, trace in fields:
            for bp in trace.points:
                fresh = integrate(field, bp.sp.lam, bp.sp.xi0, 0.0,
                                  field.problem.T)
                assert orbit_metrics(fresh) == (bp.sup_norm, bp.diameter)

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


class TestMetrics:
    def test_constant_orbit(self, example_field):
        traj = integrate(example_field, 0.0, P1, 0.0, 1.0)
        sup, diam = orbit_metrics(traj)
        assert sup == 1.0 and diam == 0.0

    def test_cosine_orbit(self):
        f = chain.expand(oscillator_problem())
        traj = integrate(f, 0.0, np.array([1.0, 0.0, 0.0]), 0.0, 2 * math.pi)
        sup, diam = orbit_metrics(traj)
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
