from __future__ import annotations

import math

import numpy as np
import pytest

import helpers
from gammachain import oracle, orbit
from gammachain.chain import ProblemSpec, lifted_zero
from gammachain.kernel import GammaKernel, tail_horizon
from gammachain.oracle import (PeriodicTrack, direct_residual,
                               history_convolution, tracks_from_trajectory,
                               verify_lift)

P1 = np.array([1.0, 0.0, -1.0, -1.0])


def cosine_track(amplitude=1.0, cycles=1, n=512, T=1.0):
    ts = T * np.arange(n) / n
    return PeriodicTrack(amplitude * np.cos(2 * math.pi * cycles * ts / T), T)


@pytest.fixture()
def forced_point(example_problem, example_field):
    sp = orbit.newton_periodic(example_field, 0.05, np.zeros(4))
    traj = orbit.integrate(example_field, 0.05, sp.xi0, 0.0, 1.0)
    return sp, traj


class TestPeriodicTrack:
    def test_wraps(self):
        tr = cosine_track()
        assert tr.value(0.25 + 3.0) == pytest.approx(tr.value(0.25), abs=1e-12)

    def test_interpolation_accuracy(self):
        tr = cosine_track()
        ts = np.linspace(0, 1, 97)
        assert np.max(np.abs(tr.value(ts) - np.cos(2 * np.pi * ts))) <= 1e-9

    def test_derivative_of_cosine(self):
        tr = cosine_track()
        d = tr.derivative()
        ts = np.linspace(0, 1, 50)
        want = -2 * np.pi * np.sin(2 * np.pi * ts)
        assert np.max(np.abs(d.value(ts) - want)) <= 1e-6

    def test_validation(self):
        with pytest.raises(ValueError):
            PeriodicTrack(np.zeros(4), 1.0)
        with pytest.raises(ValueError):
            PeriodicTrack(np.zeros(64), 0.0)


class TestHistoryConvolution:
    def test_constant_history_has_unit_mass(self, example_problem):
        p = ProblemSpec.from_strings("-x0", "1+0*p", "sin(2*pi*t)", 2.0, 2, 1.0)
        x = cosine_track()
        xd = x.derivative()
        for i in (1, 2):
            for t in (0.0, 0.37, 0.9):
                assert history_convolution(p, x, xd, i, t) == pytest.approx(
                    1.0, abs=1e-9)

    def test_constant_solution_matches_lifted_coordinates(self, example_problem):
        x = PeriodicTrack(np.ones(512), 1.0)
        xd = PeriodicTrack(np.zeros(512), 1.0)
        for i in (1, 2):
            got = history_convolution(example_problem, x, xd, i, 0.3)
            assert got == pytest.approx(-1.0, abs=1e-10)

    def test_exponential_smoothing_closed_form(self):
        # phi(x, xdot) = x with x(s) = cos(omega s):
        # stage 1 is a*(a cos(omega t) + omega sin(omega t)) / (a^2 + omega^2)
        a = 2.0
        p = ProblemSpec.from_strings("-x0", "p", "sin(2*pi*t)", a, 2, 1.0)
        x = cosine_track()
        xd = x.derivative()
        w = 2 * math.pi
        for t in np.linspace(0.0, 1.0, 9):
            want = a * (a * math.cos(w * t) + w * math.sin(w * t)) / (a * a + w * w)
            got = history_convolution(p, x, xd, 1, t)
            assert got == pytest.approx(want, abs=1e-6)

    def test_stage_bounds(self, example_problem):
        x = cosine_track()
        with pytest.raises(ValueError):
            history_convolution(example_problem, x, x.derivative(), 0, 0.0)
        with pytest.raises(ValueError):
            history_convolution(example_problem, x, x.derivative(), 3, 0.0)

    def test_periodicity(self, example_problem):
        x = cosine_track(amplitude=0.4)
        xd = x.derivative()
        for t in (0.1, 0.62):
            a = history_convolution(example_problem, x, xd, 2, t)
            b = history_convolution(example_problem, x, xd, 2, t + 1.0)
            assert abs(a - b) <= 1e-8

    def test_horizon_doubling_converged(self, example_problem):
        x = cosine_track(amplitude=0.3)
        xd = x.derivative()
        H = tail_horizon(GammaKernel(2.0, 2), 1e-12)
        a = history_convolution(example_problem, x, xd, 2, 0.4)
        b = history_convolution(example_problem, x, xd, 2, 0.4, horizon=2 * H)
        assert abs(a - b) < 1e-9

    def test_chain_recurrence_closure(self, example_problem):
        # d/dt y_i = a (y_{i-1} - y_i), with y_0-level input phi(x, xdot)
        p = example_problem
        x = cosine_track(amplitude=0.3)
        xd = x.derivative()
        phi = lambda t: float(xd.value(t) - x.value(t))
        h = 1e-5
        for t in (0.15, 0.5, 0.83):
            y1 = lambda s: history_convolution(p, x, xd, 1, s)
            y2 = lambda s: history_convolution(p, x, xd, 2, s)
            d1 = (y1(t + h) - y1(t - h)) / (2 * h)
            d2 = (y2(t + h) - y2(t - h)) / (2 * h)
            assert abs(d1 - 2.0 * (phi(t) - y1(t))) <= 1e-5
            assert abs(d2 - 2.0 * (y1(t) - y2(t))) <= 1e-5


class TestVerifyLift:
    def test_trivial_origin(self, example_problem):
        sp = orbit.StartingPoint(0.0, np.zeros(4), 0.0)
        assert verify_lift(example_problem, sp) == 0.0

    def test_trivial_constant_one(self, example_problem):
        sp = orbit.StartingPoint(0.0, P1.copy(), 0.0)
        assert verify_lift(example_problem, sp) <= 1e-10

    def test_forced_point(self, example_problem, forced_point):
        sp, traj = forced_point
        assert verify_lift(example_problem, sp, traj) <= 1e-4

    def test_lift_then_project_consistency(self, example_problem, forced_point):
        sp, traj = forced_point
        x, xd = tracks_from_trajectory(traj)
        assert np.array_equal(x.samples, traj.ys[:, 0])
        assert np.array_equal(xd.samples, traj.ys[:, 1])


class TestDirectResidual:
    def test_constant_zeros_of_phi(self, example_problem):
        for u in (0.0, 1.0):
            x = PeriodicTrack(np.full(512, u), 1.0)
            assert direct_residual(example_problem, 0.0, x) <= 1e-10

    def test_constant_off_zero_value(self, example_problem):
        x = PeriodicTrack(np.full(512, 0.5), 1.0)
        # residual equals |Phi(0.5)| = 0.25 for the constant track
        assert direct_residual(example_problem, 0.0, x) == pytest.approx(
            0.25, abs=1e-9)

    def test_forced_point(self, example_problem, forced_point):
        sp, traj = forced_point
        x, _ = tracks_from_trajectory(traj)
        assert direct_residual(example_problem, sp.lam, x) <= 1e-3

    def test_perturbed_point_fails(self, example_problem, example_field):
        sp = orbit.newton_periodic(example_field, 0.05, np.zeros(4))
        bad = sp.xi0.copy()
        bad[0] += 0.1
        traj = orbit.integrate(example_field, sp.lam, bad, 0.0, 1.0)
        x, _ = tracks_from_trajectory(traj)
        assert direct_residual(example_problem, sp.lam, x) > 1e-3
