from __future__ import annotations

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from gammachain import analysis, certify, chain, expr, orbit
from gammachain.certify import (certify_ejecting, lipschitz_estimate,
                                multiplicity_report, yorke_check)
from gammachain.chain import ProblemSpec


def linear_problem(rng: np.random.Generator):
    """A random chain problem with linear g and phi, and the constant
    Jacobian of its field written out by hand."""
    c = rng.uniform(-2.0, 2.0, 3).tolist()
    d = rng.uniform(-2.0, 2.0, 2).tolist()
    a = float(rng.uniform(0.5, 4.0))
    b = int(rng.integers(1, 9))
    p = ProblemSpec.from_strings(f"({c[0]!r})*x0 + ({c[1]!r})*x1 + ({c[2]!r})*x2",
                                 f"({d[0]!r})*p + ({d[1]!r})*q", "0", a, b, 1.0)
    dim = b + 2
    DG = np.zeros((dim, dim))
    DG[0, 1] = 1.0
    DG[1, [0, 1]] = c[:2]
    DG[1, dim - 1] += c[2]
    DG[2, [0, 1, 2]] = a * d[0], a * d[1], -a
    for i in range(3, dim):
        DG[i, [i - 1, i]] = a, -a
    return p, DG


class TestLipschitzEstimate:
    def test_linear_field_is_exact(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            p, DG = linear_problem(rng)
            f = chain.expand(p)
            got = lipschitz_estimate(f, np.zeros(f.dim), radius=0.7)
            assert got == pytest.approx(np.linalg.norm(DG, 2), abs=1e-6)

    def test_example_boxes(self, example_problem, example_field):
        # the operator-2-norm of the Jacobian at the origin already exceeds
        # sqrt(5), so the local constant sits near 3.9 on a radius-0.1 box
        zeros = analysis.scan_zeros(example_problem, -0.5, 1.5, 200)
        for z in zeros:
            L = lipschitz_estimate(example_field, z.lifted, 0.1)
            assert 2.2 <= L <= 5.5

    def test_monotone_under_nested_grids(self):
        p = ProblemSpec.from_strings("sin(3*x0) + x1*x1 + cos(x0*x2)",
                                     "exp(-p)*q", "sin(2*pi*t)", 2.0, 2, 1.0)
        f = chain.expand(p)
        center = np.array([0.3, -0.4, 0.2, 0.1])
        estimates = [lipschitz_estimate(f, center, 0.5, g) for g in (7, 13, 25)]
        assert estimates[0] <= estimates[1] <= estimates[2]

    def test_bad_arguments(self, example_field):
        with pytest.raises(ValueError):
            lipschitz_estimate(example_field, np.zeros(4), radius=0.0)
        with pytest.raises(ValueError):
            lipschitz_estimate(example_field, np.zeros(4), 0.1, grid_per_axis=1)


class TestBatchedLipschitz:
    """The chunked, column-batched estimate against the per-sample loop."""

    def test_tensor_grid_matches_reference(self, example_problem, example_field):
        zeros = analysis.scan_zeros(example_problem, -0.5, 1.5, 200)
        for z in zeros:
            got = lipschitz_estimate(example_field, z.lifted, 0.1)
            assert got == helpers.reference_lipschitz(example_field, z.lifted, 0.1)

    def test_three_axis_grid_matches_reference_beyond_five_axes(self):
        p = ProblemSpec.from_strings("-x0*(1+x2)", "q-p", "1+x*sin(2*pi*t)",
                                     8.0, 8, 1.0)
        field = chain.expand(p)
        center = chain.lifted_zero(p, 0.0)
        got = lipschitz_estimate(field, center, 0.1)
        assert got == helpers.reference_lipschitz(field, center, 0.1)

    def test_transcendental_field_matches_reference(self):
        # np.sin and math.sin may differ in the last bit
        p = ProblemSpec.from_strings("-sin(3*x0)*(1+x2) + cos(x1*x2)",
                                     "exp(-p)*q", "sin(2*pi*t)", 2.0, 2, 1.0)
        field = chain.expand(p)
        center = np.array([0.3, -0.2, 0.5, 0.4])
        got = lipschitz_estimate(field, center, 0.4)
        want = helpers.reference_lipschitz(field, center, 0.4)
        assert got == pytest.approx(want, rel=1e-9, abs=0.0)

    def test_samples_go_through_bounded_batches(self, example_field, monkeypatch):
        # the three-axis grid of a chain field at any dim: grid_per_axis^3
        # points in batched chunks, whose block of shifted states (dim x
        # width floats) never exceeds its size at dim 40
        long_chains = [chain.expand(ProblemSpec.from_strings(
            "-x0*(1+x2)", "q-p", "1+x*sin(2*pi*t)", 8.0, b, 1.0)) for b in (45, 118)]
        assert [field.dim for field in long_chains] == [47, 120]
        jacobian_fd = analysis.jacobian_fd
        for chain_field in (example_field, *long_chains):
            calls = {"widths": [], "points": []}

            def batch_G(X):
                calls["widths"].append(X.shape[1])
                assert X.size <= 40 * 2 * 40 * certify.SAMPLE_CHUNK
                return chain_field.G(X)

            def recorded_jacobian(fun, X):
                calls["points"].append(X.shape[1])
                return jacobian_fd(fun, X)

            monkeypatch.setattr(analysis, "jacobian_fd", recorded_jacobian)
            field = dataclasses.replace(chain_field, G=batch_G)
            lipschitz_estimate(field, np.zeros(field.dim), 0.1)
            assert sum(calls["points"]) == certify.DEFAULT_GRID ** 3
            assert max(calls["points"]) <= certify.SAMPLE_CHUNK
            assert max(calls["widths"]) <= 2 * field.dim * certify.SAMPLE_CHUNK
            assert len(calls["widths"]) == len(calls["points"])

    def test_example_grid_holds_the_full_box_grid_points(self, example_problem,
                                                         example_field, monkeypatch):
        # the distinct (u, v0, vb) of the 7^4 full-box grid, each once,
        # with v1 at the center
        seen = []
        jacobian_fd = analysis.jacobian_fd

        def recorded_jacobian(fun, X):
            seen.append(X.copy())
            return jacobian_fd(fun, X)

        monkeypatch.setattr(analysis, "jacobian_fd", recorded_jacobian)
        center = chain.lifted_zero(example_problem, 1.0)
        lipschitz_estimate(example_field, center, 0.1)
        X = np.hstack(seen)
        assert np.all(X[2] == center[2])
        grid = {(u, v0, vb) for u, v0, _, vb in itertools.product(
            *(np.linspace(c - 0.1, c + 0.1, certify.DEFAULT_GRID) for c in center))}
        points = [tuple(col) for col in X[[0, 1, 3]].T]
        assert len(points) == len(set(points)) == certify.DEFAULT_GRID ** 3
        assert set(points) == grid

    def test_pole_on_grid_point_raises(self):
        # g has a pole at x2 = 0.1, the top grid value of the x2 axis of
        # the radius-0.1 box around the lifted zero u = 0
        p = ProblemSpec.from_strings("-x0*(1+x2) + x1/(x2 - 0.1)", "q-p",
                                     "1+x*sin(2*pi*t)", 2.0, 2, 1.0)
        zeros = analysis.scan_zeros(p, -0.5, 1.5, 200)
        assert zeros[0].u_bar == 0.0
        with pytest.raises(ArithmeticError):
            certify_ejecting(p, zeros[0], radius=0.1)


@st.composite
def cubic_problems(draw, max_b=8):
    c = [draw(st.floats(-2.0, 2.0)) for _ in range(6)]
    d = [draw(st.floats(-2.0, 2.0)) for _ in range(3)]
    g = (f"({c[0]!r})*x0 + ({c[1]!r})*x0^3 + ({c[2]!r})*x1"
         f" + ({c[3]!r})*x2*x0^2 + ({c[4]!r})*x1*x2 + ({c[5]!r})*x2^3")
    phi = f"({d[0]!r}) + ({d[1]!r})*p + ({d[2]!r})*q"
    return ProblemSpec.from_strings(g, phi, "sin(2*pi*t)",
                                    draw(st.floats(0.5, 8.0)),
                                    draw(st.integers(1, max_b)), 1.0)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(p=cubic_problems(), seed=st.integers(0, 2**32 - 1))
def test_batched_jacobian_matches_per_point(p, seed):
    field = chain.expand(p)
    X = np.random.default_rng(seed).uniform(-2.0, 2.0, (field.dim, 64))
    J = analysis.jacobian_fd(field.G, X)
    assert J.shape == (64, field.dim, field.dim)
    G, _ = helpers.scalar_field(p)
    for k in range(64):
        # batching changes no arithmetic: bitwise equal per point
        assert np.array_equal(J[k], helpers.reference_jacobian(field.G, X[:, k]))
        # np.power and math.pow differ in the last bit for a few percent of
        # cubes; one ulp of a term below 16, divided by 2 * FD_STEP, is
        # 1.8e-9, and g has three power terms
        want = helpers.reference_jacobian(G, X[:, k])
        assert np.max(np.abs(J[k] - want)) <= 1e-8


@settings(derandomize=True, deadline=None, max_examples=40)
@given(p=cubic_problems(max_b=6), seed=st.integers(0, 2**32 - 1))
def test_jacobian_ignores_the_inner_chain_stages(p, seed):
    # DG varies with (u, v0, vb) only: moving v1 ... v_{b-1} changes the
    # batched Jacobian by finite-difference rounding alone
    field = chain.expand(p)
    rng = np.random.default_rng(seed)
    X = rng.uniform(-2.0, 2.0, (field.dim, 32))
    moved = X.copy()
    moved[2:field.dim - 1] = rng.uniform(-2.0, 2.0, (field.dim - 3, 32))
    J, J_moved = (analysis.jacobian_fd(field.G, Y) for Y in (X, moved))
    # a cascade row is a * (x - y) with |x|, |y| <= m; rounding the step,
    # the difference and the product moves its quotients by a few
    # eps * a * m / FD_STEP
    a = p.kernel.a
    m = 2.0 + max(np.max(np.abs(field.G(Y)[2])) for Y in (X, moved)) / a
    tol = 8.0 * a * np.finfo(float).eps * m / analysis.FD_STEP
    assert np.max(np.abs(J - J_moved)) <= tol
    # the rows of v0 and g read none of the moved coordinates
    assert np.array_equal(J[:, :2], J_moved[:, :2])


@settings(derandomize=True, deadline=None, max_examples=15)
@given(p=cubic_problems(max_b=3), seed=st.integers(0, 2**32 - 1),
       radius=st.floats(0.05, 0.5))
def test_three_axis_estimate_is_the_full_box_estimate(p, seed, radius):
    # up to five axes the full-box tensor grid is affordable: the chain
    # field's three-axis estimate is the estimate over the whole box
    field = chain.expand(p)
    center = np.random.default_rng(seed).uniform(-1.0, 1.0, field.dim)
    X = np.array(list(itertools.product(
        *(np.linspace(c - radius, c + radius, certify.DEFAULT_GRID) for c in center)))).T
    J = analysis.jacobian_fd(field.G, X)
    full_box = float(np.max(np.linalg.norm(J, 2, axis=(1, 2))))
    got = lipschitz_estimate(field, center, radius)
    assert got == pytest.approx(full_box, rel=1e-8, abs=0.0)


class TestYorkeCheck:
    def test_passes_below_bound(self):
        bound, passes = yorke_check(1.99, 1.0)
        assert bound > math.pi
        assert passes

    def test_strict_inequality_at_boundary(self):
        bound, passes = yorke_check(2 * math.pi, 1.0)
        assert bound == 1.0
        assert not passes

    def test_zero_lipschitz_always_passes(self):
        for T in (0.1, 1.0, 1e6):
            _, passes = yorke_check(0.0, T)
            assert passes

    def test_scale_covariance_exact(self):
        for L in (0.3, 1.7, 9.0):
            base, _ = yorke_check(L, 1.0)
            for c in (2.0, 4.0, 0.5):
                scaled, _ = yorke_check(c * L, 1.0)
                assert scaled == base / c

    def test_validation(self):
        with pytest.raises(ValueError):
            yorke_check(-1.0, 1.0)
        with pytest.raises(ValueError):
            yorke_check(1.0, 0.0)


class TestRotationSaturation:
    def test_estimate_equals_rate_and_period_saturates(self):
        omega = 1.0
        f = chain.expand(helpers.rotation_problem())
        L = lipschitz_estimate(f, np.zeros(4), radius=0.5)
        assert L == pytest.approx(omega, abs=1e-6)
        T_rot = 2 * math.pi / omega
        xi0 = np.array([1.0, 0.0, 0.0, 0.0])
        traj = orbit.integrate(f, 0.0, xi0, 0.0, T_rot)
        assert np.linalg.norm(traj.y_end - xi0, np.inf) <= 1e-6
        # no earlier return: interior samples stay away from the start
        inner = orbit.dense_samples(traj)[:, 32:-32]
        assert np.min(np.linalg.norm(inner - xi0[:, None], axis=0)) > 0.1
        bound, _ = yorke_check(L, T_rot)
        assert bound == pytest.approx(T_rot, abs=1e-6)


class TestCertifyEjecting:
    def test_example_zeros_certified(self, example_problem):
        zeros = analysis.scan_zeros(example_problem, -0.5, 1.5, 200)
        for z in zeros:
            rep = certify_ejecting(example_problem, z, radius=0.1)
            assert rep.ejecting_certified
            assert rep.yorke_period_bound == 2 * math.pi / rep.lipschitz
            assert rep.T < rep.yorke_period_bound
            assert "lower estimate" in rep.notes

    def test_long_period_not_certified(self):
        slow = ProblemSpec.from_strings("-x0*(1+x2)", "q-p",
                                        "1+x*sin(2*pi*t/10)", 2.0, 2, 10.0)
        zeros = analysis.scan_zeros(slow, -0.5, 1.5, 200)
        for z in zeros:
            rep = certify_ejecting(slow, z, radius=0.1)
            assert not rep.ejecting_certified

    def test_default_radius_scales_with_lifted_point(self, example_problem):
        zeros = analysis.scan_zeros(example_problem, -0.5, 1.5, 200)
        rep = certify_ejecting(example_problem, zeros[1])
        assert rep.box_radius == pytest.approx(0.2, abs=1e-12)

    def test_degenerate_zero_not_certified(self):
        p = ProblemSpec.from_strings("x0^2 + 0*x2", "q-p", "sin(2*pi*t)",
                                     2.0, 2, 1.0)
        recs = analysis.scan_zeros(p, -1.0, 1.0, 100)
        rep = certify_ejecting(p, recs[0], radius=0.1)
        assert not rep.ejecting_certified


class TestMultiplicity:
    def test_example_reports_two(self, example_problem):
        degree = analysis.degree_G(example_problem, -0.5, 1.5, 200)
        rep = multiplicity_report(example_problem, degree, radius=0.1)
        assert rep.n == 2
        assert "at least 2" in rep.verdict

    def test_empty_interval(self, example_problem):
        degree = analysis.degree_G(example_problem, 0.25, 0.75, 100)
        rep = multiplicity_report(example_problem, degree, radius=0.1)
        assert rep.n == 0
        assert rep.verdict == ""
        assert rep.certified_zeros == ()
        assert (rep.alpha, rep.beta) == (0.25, 0.75)

    def test_three_sign_changes(self):
        # Phi(u) = u (1 - u^2): zeros -1, 0, 1, all transversal
        p = ProblemSpec.from_strings("x0 + x2*x0^2", "q-p", "sin(4*pi*t)",
                                     2.0, 2, 0.5)
        rep = multiplicity_report(p, analysis.degree_G(p, -1.5, 1.5, 300),
                                  radius=0.05)
        assert len(rep.certified_zeros) == 3
        assert rep.n == 3

    def test_propagates_admissibility(self, example_problem):
        # multiplicity_report takes a DegreeReport, which an interval with
        # a zero of Phi at an endpoint never yields
        with pytest.raises(analysis.AdmissibilityError):
            analysis.degree_G(example_problem, 0.0, 0.5, 100)

    def test_serializes(self, example_problem):
        import json
        degree = analysis.degree_G(example_problem, -0.5, 1.5, 200)
        rep = multiplicity_report(example_problem, degree, radius=0.1)
        doc = json.loads(json.dumps(rep.to_dict()))
        assert doc["n"] == 2


@st.composite
def transversal_problems(draw):
    """A problem of ``helpers.make_transversal_problem`` with b in {1, 2, 3}
    (so the Lipschitz grid contains the zero itself) and a period T, with
    f rebuilt to stay T-periodic."""
    seed = draw(st.integers(0, 2**32 - 1))
    b = draw(st.sampled_from([1, 2, 3]))
    T = draw(st.sampled_from([0.5, 1.0, 2.0, 4.0]))
    p, _, _ = helpers.make_transversal_problem(np.random.default_rng(seed), b)
    return chain.ProblemSpec(p.g, p.phi, expr.parse(f"sin(2*pi*t/{T!r})", chain.F_VARS),
                             p.kernel, T)


@settings(derandomize=True, deadline=None, max_examples=25)
@given(p=transversal_problems())
def test_certified_zeros_are_sound(p):
    """Degree bookkeeping and the necessary half of certification: a
    certified zero is a nondegenerate sign change whose Jacobian spectral
    radius is below 2*pi/T (every Lipschitz constant is at least that
    radius), and n counts exactly the certified zeros."""
    b = p.kernel.b
    degree = analysis.degree_G(p, -2.5, 2.5, 400)
    assert degree.deg_G == sum(int(np.sign(z.det_fd)) for z in degree.zeros)
    assert degree.deg_G == (-1) ** (b - 1) * sum(
        int(np.sign(z.phi_prime)) for z in degree.zeros)

    rep = multiplicity_report(p, degree)
    field = chain.expand(p)
    certified = [c for c in rep.certified_zeros if c.ejecting_certified]
    for c in certified:
        assert c.zero.nondegenerate and c.zero.sign_change
        J = helpers.reference_jacobian(field.G, c.zero.lifted)
        assert np.max(np.abs(np.linalg.eigvals(J))) < 2.0 * math.pi / p.T
    assert rep.n == len(certified)
