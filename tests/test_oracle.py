from __future__ import annotations

import ast
import collections
import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from gammachain import chain, oracle, orbit
from gammachain.chain import ProblemSpec, lifted_zero
from gammachain.kernel import GammaKernel, tail_horizon
from gammachain.oracle import (PeriodicTrack, direct_residual,
                               history_convolution, verify_lift)

P1 = np.array([1.0, 0.0, -1.0, -1.0])


def cosine_track(amplitude=1.0, cycles=1, n=512, T=1.0):
    ts = T * np.arange(n) / n
    return PeriodicTrack(amplitude * np.cos(2 * math.pi * cycles * ts / T), T)


def cardinal_series(y, T, ts):
    """The trigonometric interpolant of the n samples y of [0, T) at the
    times ts, as the samples times their cardinal functions: at
    s = pi (t - t_j) / T, sin(n s) / (n tan s) for even n (the Nyquist
    term halved), sin(n s) / (n sin s) for odd n.  Both have period pi in
    s, so s is taken in [-pi/2, pi/2), away from the other zero of the
    divisor.  Undefined at the sample times."""
    n = y.size
    s = np.pi * (np.mod(np.mod(ts, T)[:, None] / T - np.arange(n) / n + 0.5, 1.0) - 0.5)
    return np.sin(n * s) / (n * (np.tan(s) if n % 2 == 0 else np.sin(s))) @ y


def grid_times(T):
    """The quadrature grid's times jT/4096 at which the oracle convolves."""
    return T * np.arange(oracle.QUAD_SUBINTERVALS) / oracle.QUAD_SUBINTERVALS


def lift_of(p, sol):
    """verify_lift of a one-period solve's samples and its own (x, xdot)
    tracks."""
    return verify_lift(p, *helpers.sampled_tracks(sol))


def trivial_trajectory(p, xi0):
    return orbit.integrate(chain.expand(p), 0.0, xi0, 0.0, p.T)


@pytest.fixture()
def forced_point(example_problem, example_field):
    sp = orbit.newton_periodic(example_field, 0.05, np.zeros(4))
    traj = orbit.integrate(example_field, 0.05, sp.xi0, 0.0, 1.0)
    return sp, traj


@pytest.fixture(scope="module")
def long_period_point():
    """(problem, one-period trajectory) of a forced point with a = 8, b = 4,
    T = 4, next to the lifted zero 0."""
    p = ProblemSpec.from_strings("-x0*(1+x2)", "q-p", "1+x*sin(2*pi*t/4)",
                                 8.0, 4, 4.0)
    fld = chain.expand(p)
    sp = orbit.newton_periodic(fld, 0.05, np.zeros(6))
    return p, orbit.integrate(fld, sp.lam, sp.xi0, 0.0, p.T)


class TestPeriodicTrack:
    def test_wraps(self):
        tr = cosine_track()
        assert tr.value(0.25 + 3.0) == pytest.approx(tr.value(0.25), abs=1e-12)

    def test_interpolation_accuracy(self):
        tr = cosine_track()
        ts = np.linspace(0, 1, 97)
        assert np.max(np.abs(tr.value(ts) - np.cos(2 * np.pi * ts))) <= 1e-9

    @pytest.mark.parametrize("seed", range(8))
    def test_is_the_periodic_cubic_spline(self, seed):
        # the name is kept from the spline that the trigonometric
        # interpolant replaced; random n, even and odd
        rng = np.random.default_rng(seed)
        n = int(rng.integers(16, 300))
        T = float(rng.uniform(0.2, 8.0))
        y = rng.normal(0.0, 10.0 ** rng.uniform(-2, 2), n) + rng.uniform(-5, 5)
        self.assert_is_the_trigonometric_interpolant(y, T, rng)

    def test_trajectory_track_is_the_trigonometric_interpolant(self, example_field):
        sp = orbit.newton_periodic(example_field, 0.05, np.zeros(4))
        sol = orbit.integrate(example_field, 0.05, sp.xi0, 0.0, 1.0)
        for column in orbit.dense_samples(sol):
            self.assert_is_the_trigonometric_interpolant(column, 1.0,
                                                         np.random.default_rng(0))

    @staticmethod
    def assert_is_the_trigonometric_interpolant(y, T, rng):
        track, bound = PeriodicTrack(y, T), 1e-12 * (1 + np.max(np.abs(y)))
        ts = rng.uniform(-2 * T, 3 * T, 2000)
        assert np.max(np.abs(track.value(ts) - cardinal_series(y, T, ts))) <= bound
        samples = track.value(T * np.arange(y.size) / y.size)
        assert np.max(np.abs(samples - y)) <= bound

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
        conv = history_convolution(p, x, x.derivative())
        assert np.max(np.abs(conv - 1.0)) <= 1e-9

    def test_constant_solution_matches_lifted_coordinates(self, example_problem):
        x = PeriodicTrack(np.ones(512), 1.0)
        xd = PeriodicTrack(np.zeros(512), 1.0)
        conv = history_convolution(example_problem, x, xd)
        assert np.max(np.abs(conv + 1.0)) <= 1e-10

    def test_exponential_smoothing_closed_form(self):
        # phi(x, xdot) = x with x(s) = cos(omega s):
        # stage 1 is a*(a cos(omega t) + omega sin(omega t)) / (a^2 + omega^2)
        a = 2.0
        p = ProblemSpec.from_strings("-x0", "p", "sin(2*pi*t)", a, 2, 1.0)
        x = cosine_track()
        xd = x.derivative()
        w = 2 * math.pi
        t = grid_times(1.0)
        want = a * (a * np.cos(w * t) + w * np.sin(w * t)) / (a * a + w * w)
        got = history_convolution(p, x, xd)[0]
        assert np.max(np.abs(got - want)) <= 1e-6

    def test_every_stage_closed_form(self):
        # phi(x, xdot) = x with x(s) = cos(omega s), omega = 2 pi / T:
        # stage i is Re[(a / (a + i omega))^i exp(i omega t)]
        a, b, T = 8.0, 4, 4.0
        p = ProblemSpec.from_strings("-x0", "p", "sin(2*pi*t/4)", a, b, T)
        x = cosine_track(T=T)
        xd = x.derivative()
        w = 2 * math.pi / T
        t = grid_times(T)
        got = history_convolution(p, x, xd)
        want = [((a / (a + 1j * w)) ** i * np.exp(1j * w * t)).real
                for i in range(1, b + 1)]
        assert np.max(np.abs(got - want)) <= 1e-9

    def test_shape(self):
        x = cosine_track()
        for b in (2, 8):
            p = ProblemSpec.from_strings("-x0", "q-p", "sin(2*pi*t)", 2.0, b, 1.0)
            assert history_convolution(p, x, x.derivative()).shape == (b, 4096)

    def test_tracks_off_the_quadrature_grid(self, example_problem):
        # the grid's 4096 times hold a whole number of them per sample cell
        for n in (96, 8192):
            x = PeriodicTrack(np.zeros(n), 1.0)
            with pytest.raises(ValueError, match="divides 4096"):
                history_convolution(example_problem, x, x)

    def test_horizon_doubling_converged(self, example_problem, monkeypatch):
        # a tail mass of 1e-24 about doubles the folded horizon
        x = cosine_track(amplitude=0.3)
        xd = x.derivative()
        k = GammaKernel(2.0, 2)
        assert tail_horizon(k, 1e-24) >= 1.9 * tail_horizon(k, oracle.TRUNCATION_MASS)
        a = history_convolution(example_problem, x, xd)
        monkeypatch.setattr(oracle, "TRUNCATION_MASS", 1e-24)
        oracle._kernel_spectra.cache_clear()
        try:
            b = history_convolution(example_problem, x, xd)
        finally:
            oracle._kernel_spectra.cache_clear()
        assert np.max(np.abs(a - b)) < 1e-9

    def test_chain_recurrence_closure(self, example_problem):
        # d/dt y_i = a (y_{i-1} - y_i), with y_0-level input phi(x, xdot)
        p = example_problem
        x = cosine_track(amplitude=0.3)
        xd = x.derivative()
        t = grid_times(1.0)
        phi = xd.value(t) - x.value(t)
        y1, y2 = history_convolution(p, x, xd)
        # central differences across one grid step either side
        h = t[1]
        d1, d2 = ((np.roll(y, -1) - np.roll(y, 1)) / (2 * h) for y in (y1, y2))
        assert np.max(np.abs(d1 - 2.0 * (phi - y1))) <= 1e-5
        assert np.max(np.abs(d2 - 2.0 * (y1 - y2))) <= 1e-5

    def test_matches_unfolded_reference(self, example_problem, forced_point,
                                        long_period_point):
        _, traj = forced_point
        for p, tr in ((example_problem, traj), long_period_point):
            _, x, xd = helpers.sampled_tracks(tr)
            conv = history_convolution(p, x, xd)
            t = grid_times(p.T)
            # about the times 0, 0.23 T and 0.71 T
            for j in (0, 942, 2908):
                want = [helpers.reference_history_convolution(p, x, xd, i, t[j])
                        for i in range(1, p.kernel.b + 1)]
                assert np.max(np.abs(conv[:, j] - want)) <= 1e-9


def chunk_of_trajectories(p, rows=3):
    """One-period trajectories from the forced point at lambda = 0.05 and
    from rows - 1 perturbations of it."""
    fld = chain.expand(p)
    sp = orbit.newton_periodic(fld, 0.05, np.zeros(p.kernel.b + 2))
    return [orbit.integrate(fld, sp.lam, sp.xi0 + 0.01 * r, 0.0, p.T)
            for r in range(rows)], [sp.lam] * rows


class TestOracleWork:
    """One verify_lift or direct_residual on a chunk of rows takes each
    track to the quadrature grid by one rFFT and one inverse FFT, and
    reuses the cached kernel spectra on the next call."""

    @pytest.fixture()
    def counted(self, monkeypatch):
        work = {"grid_irffts": 0, "track_rffts": 0, "gamma_calls": 0}
        rfft, irfft, gamma_eval = np.fft.rfft, np.fft.irfft, oracle.gamma_eval

        def counted_rfft(a, *args, **kwargs):
            work["track_rffts"] += np.shape(a)[-1] == orbit.DENSE_SAMPLES
            return rfft(a, *args, **kwargs)

        def counted_irfft(a, n=None, *args, **kwargs):
            work["grid_irffts"] += n == oracle.QUAD_SUBINTERVALS
            return irfft(a, n, *args, **kwargs)

        def counted_gamma_eval(k, s):
            work["gamma_calls"] += 1
            return gamma_eval(k, s)

        monkeypatch.setattr(np.fft, "rfft", counted_rfft)
        monkeypatch.setattr(np.fft, "irfft", counted_irfft)
        monkeypatch.setattr(oracle, "gamma_eval", counted_gamma_eval)
        return work

    @pytest.mark.parametrize("b", [2, 8])
    def test_verify_lift_work(self, counted, b):
        # x and xdot: one rFFT and one inverse FFT each
        p = ProblemSpec.from_strings(**dict(helpers.EXAMPLE, b=b))
        for rows in (1, 4):
            trajs, _ = chunk_of_trajectories(p, rows)
            coords, x, xd = helpers.sampled_tracks(trajs)
            counted.update(track_rffts=0, grid_irffts=0)
            verify_lift(p, coords, x, xd)
            assert counted["track_rffts"] == 2 and counted["grid_irffts"] == 2
            counted["gamma_calls"] = 0
            verify_lift(p, coords, x, xd)
            assert counted["gamma_calls"] == 0

    def test_kernel_spectra_stay_cached_above_128_stages(self, counted):
        # every stage's spectrum is one cache entry of the problem, so a
        # walk over 150 stages does not evict the stages it comes back to
        b = 150
        p = ProblemSpec.from_strings(**dict(helpers.EXAMPLE, a=150.0, b=b))
        x = cosine_track(amplitude=0.3)
        coords = np.zeros((b, x.samples.size))
        verify_lift(p, coords, x, x.derivative())
        assert counted["gamma_calls"] >= b
        counted["gamma_calls"] = 0
        verify_lift(p, coords, x, x.derivative())
        direct_residual(p, 0.0, x)
        assert counted["gamma_calls"] == 0

    @pytest.mark.parametrize("rows", [1, 4])
    def test_direct_residual_work(self, counted, example_problem, rows):
        # x and x.derivative(): one rFFT and one inverse FFT each
        trajs, lams = chunk_of_trajectories(example_problem, rows)
        _, x, _ = helpers.sampled_tracks(trajs)
        counted.update(track_rffts=0, grid_irffts=0)
        direct_residual(example_problem, lams, x)
        assert counted["track_rffts"] == 2 and counted["grid_irffts"] == 2


@settings(derandomize=True, deadline=None, max_examples=40)
@given(rows=st.integers(1, 5), n=st.sampled_from([16, 64, 512]),
       period=st.floats(0.2, 8.0), shift=st.integers(-2 * 4096, 3 * 4096),
       seed=st.integers(0, 2**32 - 1))
def test_grid_route_is_the_trigonometric_interpolant(rows, n, period, shift, seed):
    # the grid's values rolled by ``shift`` steps are value's at the grid
    # times shifted by shift T / 4096, which wrap outside [0, T)
    rng = np.random.default_rng(seed)
    y = rng.normal(0.0, 10.0 ** rng.uniform(-2, 2), (rows, n)) + rng.uniform(-5, 5)
    track = PeriodicTrack(y, period)
    d = track.derivative()
    xv, dv = (np.roll(oracle._on_grid(tr), -shift, axis=-1) for tr in (track, d))
    ts = grid_times(period) + shift * period / oracle.QUAD_SUBINTERVALS
    bound = 1e-12 * np.max(np.abs(y))
    assert np.max(np.abs(xv - track.value(ts))) <= bound
    assert np.max(np.abs(dv - d.value(ts))) <= 1e-12 * np.max(np.abs(d.samples))
    # value goes through the samples
    assert np.max(np.abs(track.value(period * np.arange(n) / n) - y)) <= bound
    for r in range(rows):
        one = oracle._on_grid(PeriodicTrack(y[r], period))
        assert np.array_equal(np.roll(one, -shift), xv[r])
    # and reproduces harmonics below n / 2 at any time, to the rounding of
    # t times the harmonic's number
    k = rng.integers(0, n // 2, 6)
    amplitude, phase = rng.normal(size=6), rng.uniform(0.0, 2 * np.pi, 6)

    def signal(t):
        u = np.mod(t, period) / period
        return np.cos(np.multiply.outer(2 * np.pi * u, k) + phase) @ amplitude

    t = rng.uniform(-2 * period, 3 * period, 500)
    harmonics = PeriodicTrack(signal(period * np.arange(n) / n), period)
    assert (np.max(np.abs(harmonics.value(t) - signal(t)))
            <= 2e-15 * n * np.sum(np.abs(amplitude)))


class TestChunks:
    """Tracks of several rows give each row the value of a one-row call,
    bit for bit."""

    def test_track_rows(self):
        rng = np.random.default_rng(3)
        rows = rng.normal(size=(5, 64))
        batch = PeriodicTrack(rows, 2.5)
        ts = rng.uniform(-3.0, 6.0, 200)
        for r, y in enumerate(rows):
            one = PeriodicTrack(y, 2.5)
            assert np.array_equal(batch.value(ts)[r], one.value(ts))
            assert batch.value(0.7)[r] == one.value(0.7)
            assert np.array_equal(batch.derivative().samples[r], one.derivative().samples)

    def test_oracle_rows(self, long_period_point):
        p = long_period_point[0]
        trajs, lams = chunk_of_trajectories(p, 5)
        lams = np.linspace(0.03, 0.07, 5)
        coords, x, xd = helpers.sampled_tracks(trajs)
        assert x.samples.shape == (5, orbit.DENSE_SAMPLES)
        lifts = verify_lift(p, coords, x, xd)
        residuals = direct_residual(p, lams, x)
        conv = history_convolution(p, x, xd)
        assert lifts.shape == residuals.shape == (5,) and conv.shape == (5, 4, 4096)
        for r, traj in enumerate(trajs):
            coords1, x1, xd1 = helpers.sampled_tracks(traj)
            assert lifts[r] == verify_lift(p, coords1, x1, xd1)
            assert residuals[r] == direct_residual(p, lams[r], x1)
            assert np.array_equal(conv[r], history_convolution(p, x1, xd1))

    def test_test_times_are_the_full_grid_decimated(self, example_problem,
                                                    long_period_point):
        # folding the spectrum modulo 64 samples the 4096-time result
        for p, traj in ((example_problem, chunk_of_trajectories(example_problem, 1)[0][0]),
                        long_period_point):
            _, x, xd = helpers.sampled_tracks(traj)
            step = oracle.QUAD_SUBINTERVALS // oracle.TEST_TIMES
            full = history_convolution(p, x, xd)
            folded = oracle._convolutions(p, x, xd, range(1, p.kernel.b + 1),
                                          oracle.TEST_TIMES)
            assert np.max(np.abs(folded - full[:, ::step])) <= 1e-15

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_row_raises(self, example_problem, bad):
        trajs, lams = chunk_of_trajectories(example_problem, 4)
        coords, x, xd = helpers.sampled_tracks(trajs)
        x.samples[2, 100] = bad  # the third row of four
        with np.errstate(invalid="ignore"):
            x = PeriodicTrack(x.samples, x.period)
            with pytest.raises(ArithmeticError, match="non-finite"):
                verify_lift(example_problem, coords, x, xd)
            with pytest.raises(ArithmeticError, match="non-finite"):
                direct_residual(example_problem, lams, x)

    def test_overflowing_phi_raises(self, example_problem):
        # finite samples whose spectrum overflows
        x = PeriodicTrack(np.full((2, 512), 1e306), 1.0)
        xd = PeriodicTrack(np.zeros((2, 512)), 1.0)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ArithmeticError, match="non-finite"):
            history_convolution(example_problem, x, xd)


class TestVerifyLift:
    def test_trivial_origin(self, example_problem):
        traj = trivial_trajectory(example_problem, np.zeros(4))
        assert lift_of(example_problem, traj) == 0.0

    def test_trivial_constant_one(self, example_problem):
        traj = trivial_trajectory(example_problem, P1.copy())
        assert lift_of(example_problem, traj) <= 1e-10

    def test_forced_point(self, example_problem, forced_point):
        _, traj = forced_point
        assert lift_of(example_problem, traj) <= 1e-4

    def test_matches_scalar_reference(self, example_problem, forced_point,
                                      long_period_point):
        # the chain coordinates of the dense output against each stage's
        # quadrature, one of the 64 test times at a time
        for p, tr in ((example_problem, forced_point[1]), long_period_point):
            _, x, xd = helpers.sampled_tracks(tr)
            worst = max(abs(tr(t)[1 + i] - helpers.reference_history_convolution(p, x, xd, i, t))
                        for t in np.linspace(0.0, p.T, 64, endpoint=False)
                        for i in range(1, p.kernel.b + 1))
            assert abs(lift_of(p, tr) - worst) <= 1e-9

    def test_lift_then_project_consistency(self, example_problem, forced_point):
        sp, traj = forced_point
        coords, x, xd = helpers.sampled_tracks(traj)
        Y = traj(np.arange(orbit.DENSE_SAMPLES) / orbit.DENSE_SAMPLES)
        assert np.array_equal(x.samples, Y[0])
        assert np.array_equal(xd.samples, Y[1])
        assert np.array_equal(coords, Y[2:])

    def test_coordinates_off_the_track_grid(self, example_problem, forced_point):
        # the test times are every (n // 64)-th sample of coordinates on
        # the tracks' own grid of n samples, so any other grid is refused
        coords, x, xd = helpers.sampled_tracks(forced_point[1])
        for bad in (coords[:, ::2], coords[:, :-1], coords[:1], coords[None]):
            with pytest.raises(ValueError, match="chain coordinates"):
                verify_lift(example_problem, bad, x, xd)
        # tracks of 96 samples are valid, but 64 test times are not every
        # k-th of them
        flat = PeriodicTrack(np.zeros(96), 1.0)
        with pytest.raises(ValueError, match="multiple of 64"):
            verify_lift(example_problem, np.zeros((2, 96)), flat, flat)

    def test_the_oracle_never_reaches_the_integrator(self):
        # the cross-check reads sample arrays only: no solve, no cascade
        tree = ast.parse(inspect.getsource(oracle))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                imported.add(node.module or "")
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
        names = {part for name in imported for part in name.split(".")}
        assert not names & {"orbit", "rk45"}


def test_margin_on_the_worked_example(example_problem, example_field, example_traces):
    # criterion 5 passes at 1e-4 and 1e-3; on every point of the example's
    # two traces the oracle reads far below those (about 3.8e-10 and 1.1e-5)
    for trace in example_traces["traces"].values():
        trajs = [orbit.integrate(example_field, bp.sp.lam, bp.sp.xi0, 0.0, example_problem.T)
                 for bp in trace.points]
        coords, x, xd = helpers.sampled_tracks(trajs)
        lams = [bp.sp.lam for bp in trace.points]
        assert np.max(verify_lift(example_problem, coords, x, xd)) <= 1e-8
        assert np.max(direct_residual(example_problem, lams, x)) <= 1e-4


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
        _, x, _ = helpers.sampled_tracks(traj)
        assert direct_residual(example_problem, sp.lam, x) <= 1e-3

    def test_perturbed_point_fails(self, example_problem, example_field):
        sp = orbit.newton_periodic(example_field, 0.05, np.zeros(4))
        bad = sp.xi0.copy()
        bad[0] += 0.1
        traj = orbit.integrate(example_field, sp.lam, bad, 0.0, 1.0)
        _, x, _ = helpers.sampled_tracks(traj)
        assert direct_residual(example_problem, sp.lam, x) > 1e-3

    def test_samples_off_the_test_times(self, example_problem):
        # the test times are every (n // 64)-th sample, as in verify_lift
        flat = PeriodicTrack(np.zeros(96), 1.0)
        with pytest.raises(ValueError, match="multiple of 64"):
            direct_residual(example_problem, 0.0, flat)
        with pytest.raises(ValueError, match="multiple of 64"):
            verify_lift(example_problem, np.zeros((2, 96)), flat, flat)

    @pytest.mark.parametrize("lams", [[0.08], [0.02, 0.05, 0.08, 0.11]],
                             ids=["one_row", "four_rows"])
    def test_differentiates_x_once(self, example_problem, example_field, lams):
        # every xdot of the residual, the convolution's too, is
        # x.derivative(), and its derivative is xddot: bit for bit, on
        # periodic points of the example, one track row each
        p = example_problem
        trajs = []
        for lam in lams:
            sp = orbit.newton_periodic(example_field, lam, np.zeros(4))
            trajs.append(orbit.integrate(example_field, lam, sp.xi0, 0.0, p.T))
        _, x, _ = helpers.sampled_tracks(trajs if len(lams) > 1 else trajs[0])
        lam = np.array(lams if len(lams) > 1 else lams[0])
        xd = x.derivative()
        conv = oracle._convolutions(p, x, xd, (p.kernel.b,), oracle.TEST_TIMES)[..., 0, :]
        step = orbit.DENSE_SAMPLES // oracle.TEST_TIMES
        xv, vv, av = (tr.samples[..., ::step] for tr in (x, xd, xd.derivative()))
        g, _, f = chain._compiled(p, vectorized=True)
        times = np.linspace(0.0, p.T, oracle.TEST_TIMES, endpoint=False)
        res = av - g(xv, vv, conv) - lam[..., None] * f(times, xv, vv)
        assert np.array_equal(direct_residual(p, lam, x), np.max(np.abs(res), axis=-1))

    def test_matches_scalar_reference(self, example_problem, forced_point,
                                      long_period_point):
        # one time at a time with the scalar g and f; both points are at
        # lambda = 0.05
        lam = 0.05
        for p, tr in ((example_problem, forced_point[1]), long_period_point):
            g, _, f = chain._compiled(p)
            _, x, _ = helpers.sampled_tracks(tr)
            xd = x.derivative()
            xdd = xd.derivative()
            worst = 0.0
            for t in np.linspace(0.0, p.T, 64, endpoint=False):
                conv = helpers.reference_history_convolution(p, x, xd, p.kernel.b, t)
                xv, vv = float(x.value(t)), float(xd.value(t))
                res = float(xdd.value(t)) - g(xv, vv, conv) - lam * f(t, xv, vv)
                worst = max(worst, abs(res))
            assert abs(direct_residual(p, lam, x) - worst) <= 1e-9
