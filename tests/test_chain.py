from __future__ import annotations

import numpy as np
import pytest
import scipy.optimize

import helpers
from gammachain import analysis, expr, orbit
from gammachain.chain import ExpandedField, ProblemSpec, expand, lifted_zero

P0 = np.zeros(4)
P1 = np.array([1.0, 0.0, -1.0, -1.0])


class TestProblemSpec:
    def test_example_is_valid(self, example_problem):
        assert example_problem.T == 1.0
        assert example_problem.kernel.b == 2

    def test_rejects_zero_period(self):
        with pytest.raises(ValueError):
            ProblemSpec.from_strings("-x0", "q-p", "sin(2*pi*t)", 2.0, 2, 0.0)

    def test_rejects_aperiodic_forcing(self):
        with pytest.raises(ValueError, match="periodic"):
            ProblemSpec.from_strings("-x0", "q-p", "t", 2.0, 2, 1.0)

    def test_rejects_wrong_variables(self):
        with pytest.raises(ValueError):
            ProblemSpec(g=expr.parse("p+q", ["p", "q"]),
                        phi=expr.parse("q-p", ["p", "q"]),
                        f=expr.parse("sin(2*pi*t)", ["t", "x", "v"]),
                        kernel=helpers.example_problem().kernel, T=1.0)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            ProblemSpec.from_strings("-x0", "q-p", "sin(2*pi*t)", 2.0, 0, 1.0)

    def test_hashable(self, example_problem):
        assert hash(example_problem) == hash(helpers.example_problem())


class TestExpand:
    def test_example_field_componentwise_exact(self, example_problem, example_field):
        g = expr.compile_expr(example_problem.g, ("x0", "x1", "x2"))
        phi = expr.compile_expr(example_problem.phi, ("p", "q"))
        rng = np.random.default_rng(7)
        for _ in range(50):
            xi = rng.uniform(-3, 3, 4)
            got = example_field.G(xi)
            want = np.array([xi[1],
                             g(xi[0], xi[1], xi[3]),
                             2.0 * (phi(xi[0], xi[1]) - xi[2]),
                             2.0 * (xi[2] - xi[3])])
            assert np.array_equal(got, want)

    def test_example_zeros(self, example_field):
        assert np.all(example_field.G(P0) == 0.0)
        assert np.all(example_field.G(P1) == 0.0)

    def test_dimension(self):
        for b in (1, 2, 3, 5):
            p = ProblemSpec.from_strings("-x0", "q-p", "sin(2*pi*t)", 2.0, b, 1.0)
            assert expand(p).dim == b + 2

    def test_forcing_shape(self, example_field):
        F = example_field.F(0.25, P1)
        # f(t, x, v) = 1 + x sin(2 pi t) at x=1, t=0.25
        assert F[0] == 0.0 and np.all(F[2:] == 0.0)
        assert F[1] == pytest.approx(2.0, abs=1e-15)

    def test_shape_one_field(self):
        p = ProblemSpec.from_strings("-x0*(1+x2)", "q-p", "sin(2*pi*t)", 2.0, 1, 1.0)
        f = expand(p)
        xi = np.array([0.5, 0.2, -0.1])
        got = f.G(xi)
        assert got[0] == 0.2
        assert got[1] == -0.5 * (1.0 + -0.1)
        assert got[2] == 2.0 * ((0.2 - 0.5) - -0.1)
        # for b = 1 the modified field coincides with G
        assert np.array_equal(f.G_modified(xi), got)

    def test_modified_field_drives_first_stage_by_last(self, example_problem,
                                                       example_field):
        # b = 2: G_modified differs from G only in component 2, a*(phi - vb)
        phi = expr.compile_expr(example_problem.phi, ("p", "q"))
        rng = np.random.default_rng(11)
        for _ in range(20):
            xi = rng.uniform(-3, 3, 4)
            got = example_field.G_modified(xi)
            want = example_field.G(xi)
            want[2] = 2.0 * (phi(xi[0], xi[1]) - xi[3])
            assert np.array_equal(got, want)
            assert got[2] != example_field.G(xi)[2]


class TestLiftedZero:
    def test_example_points(self, example_problem):
        assert np.array_equal(lifted_zero(example_problem, 1.0), P1)
        assert np.array_equal(lifted_zero(example_problem, 0.0), P0)

    def test_constant_phi_structure(self):
        p = ProblemSpec.from_strings("x2-x0", "1+0*p", "sin(2*pi*t)", 3.0, 3, 1.0)
        z = lifted_zero(p, 0.25)
        assert np.array_equal(z, np.array([0.25, 0.0, 1.0, 1.0, 1.0]))

    def test_lift_evaluates_to_phi_slot(self, example_problem, example_field):
        # G(lifted(u)) = (0, Phi(u), 0, ..., 0), bit-identically
        for u in (-0.3, 0.4, 2.0):
            z = lifted_zero(example_problem, u)
            Gz = example_field.G(z)
            assert Gz[0] == 0.0
            assert np.all(Gz[2:] == 0.0)
            assert Gz[1] == analysis.phi_eval(example_problem, u)


class TestZeroCorrespondence:
    def test_phi_zero_implies_field_zero(self, example_problem, example_field):
        for rec in analysis.scan_zeros(example_problem, -0.5, 1.5, 200):
            u = rec.u_bar
            assert abs(analysis.phi_eval(example_problem, u)) <= 1e-12
            z = lifted_zero(example_problem, u)
            assert np.linalg.norm(example_field.G(z), np.inf) <= 1e-10 * (1 + abs(u))

    def test_field_zero_projects_to_phi_zero(self, example_problem, example_field):
        # independent path: generic root finding on G from random seeds
        rng = np.random.default_rng(42)
        found = 0
        for _ in range(20):
            seed = rng.uniform(-1.5, 2.0, 4)
            res = scipy.optimize.root(example_field.G, seed, tol=1e-12)
            if not res.success:
                continue
            u = res.x[0]
            assert abs(analysis.phi_eval(example_problem, u)) <= 1e-8
            found += 1
        assert found >= 10


def test_lambda_zero_is_independent_of_forcing(example_problem):
    other = ProblemSpec.from_strings(helpers.EXAMPLE["g"], helpers.EXAMPLE["phi"],
                                     "cos(2*pi*t)*exp(x)", 2.0, 2, 1.0)
    f1, f2 = expand(example_problem), expand(other)
    xi0 = np.array([0.2, -0.1, 0.05, 0.3])
    t1 = orbit.integrate(f1, 0.0, xi0, 0.0, 1.0)
    t2 = orbit.integrate(f2, 0.0, xi0, 0.0, 1.0)
    assert np.array_equal(t1.ys, t2.ys)
    assert np.array_equal(t1.y_end, t2.y_end)


class TestProject:
    def test_constant_trajectory(self, example_field):
        traj = orbit.integrate(example_field, 0.0, P1, 0.0, 1.0)
        assert np.all(traj.ys[:, 0] == 1.0)
        assert np.all(traj.ys[:, 1] == 0.0)


def test_synthetic_field_constructor():
    A = np.array([[0.0, -1.0], [1.0, 0.0]])
    f = ExpandedField.from_callables(2, lambda xi: A @ xi)
    assert f.dim == 2
    assert np.all(f.F(0.3, np.ones(2)) == 0.0)
    assert f.problem is None
