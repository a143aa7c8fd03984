from __future__ import annotations

import shutil

import numpy as np
import pytest
import scipy.integrate
import scipy.optimize

import helpers
from gammachain import analysis, chain, expr, orbit, rk45
from gammachain.chain import ProblemSpec, expand, lifted_zero

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

    def test_compares_by_value_and_refuses_assignment(self, example_problem):
        same = helpers.example_problem()
        assert same is not example_problem and same == example_problem
        assert {example_problem: 1}[same] == 1
        p = example_problem
        other = ProblemSpec(p.g, p.phi, p.f, p.kernel, 2.0)
        assert other != p and ProblemSpec(p.g, expr.parse("p-q", ["p", "q"]), p.f,
                                          p.kernel, p.T) != p
        with pytest.raises(AttributeError):
            p.T = 2.0
        with pytest.raises(AttributeError):
            p.g = p.phi

    def test_refuses_trees_deeper_than_max_depth(self):
        # -x0*(1+x2) is 3 levels deep, q-p 2, and each added term one more
        n = expr.MAX_DEPTH
        ProblemSpec.from_strings("-x0*(1+x2)" + "+0.001*x0" * (n - 3), "q-p",
                                 "sin(2*pi*t)", 2.0, 2, 1.0)
        with pytest.raises(ValueError, match="an expression is nested too deeply: "
                           f"phi has {n + 1} levels, more than {n}"):
            ProblemSpec.from_strings("-x0", "q-p" + "+0.001*p" * (n - 1), "sin(2*pi*t)",
                                     2.0, 2, 1.0)

    def test_refuses_sources_nested_deeper_than_max_nesting(self):
        # each unary minus nests the Python source one pair deeper
        n = expr.MAX_NESTING
        g, phi, f = "-x0", "-" * (n - 1) + "(q-p)", "-" * (n - 2) + "sin(2*pi*t)"
        p = ProblemSpec.from_strings(g, phi, f, 2.0, 2, 1.0)
        assert [chain._nesting(tree) for tree in (p.phi, p.f)] == [n, n]
        for args, label in (((g, "-" + phi, f), "phi"), ((g, phi, "-" + f), "f")):
            with pytest.raises(ValueError, match="an expression is nested too deeply: "
                               f"{label} has {n + 1} nested parentheses, more than {n}"):
                ProblemSpec.from_strings(*args, 2.0, 2, 1.0)


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

    @staticmethod
    def first_solves(cached, tmp_path, monkeypatch):
        """Expand a problem and solve it: with its kernel in a cache of the
        test's own if ``cached``, an empty one if not.  Expand makes
        neither the Python float stages nor their C kernel, nor starts a
        compiler: setup and analyze solve nothing.  The first solve builds
        the kernel, compiling it where a compiler is and the cache does
        not hold it, and runs in C; the Python float stages are made, once,
        only where no compiler is.  Later solves start nothing."""
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        p = ProblemSpec.from_strings("-x0*(1+x2)", "q-p", "1+x*sin(2*pi*t)", 3.0, 3, 1.0)
        if cached:
            expand.__wrapped__(p).stages((0.0,))
        made, kernels, compilers, python_runs = [], [], [], []
        float_stages, compiled_stages = rk45.float_stages, rk45.compiled_stages
        compile_c, steps = rk45._compile, rk45._steps
        monkeypatch.setattr(rk45, "float_stages",
                            lambda *args: made.append(1) or float_stages(*args))
        monkeypatch.setattr(rk45, "compiled_stages",
                            lambda *args: kernels.append(compiled_stages(*args)) or kernels[-1])
        monkeypatch.setattr(rk45, "_compile",
                            lambda *args: compilers.append(1) or compile_c(*args))
        monkeypatch.setattr(rk45, "_steps",
                            lambda *args: python_runs.append(1) or steps(*args))
        field = expand.__wrapped__(p)
        assert made == kernels == compilers == []
        cc = shutil.which("cc") is not None
        orbit.period_map(field, 0.0, np.full(5, 0.1))
        kernel, = kernels
        assert (kernel is not None) == cc
        assert len(compilers) == (cc and not cached)
        assert len(python_runs) == len(made) == (not cc)
        # one variant, G + lam F, serves every lam, 0 included
        orbit.period_map(field, 0.0, np.full(5, 0.2))
        orbit.period_map(field, 0.1, np.full(5, 0.1))
        assert len(made) == (not cc) and len(kernels) == 1
        assert len(compilers) == (cc and not cached)
        assert len(python_runs) == 3 * (not cc)

    def test_float_stages_compile_on_first_use(self, tmp_path, monkeypatch):
        self.first_solves(False, tmp_path, monkeypatch)

    def test_float_stages_of_a_cached_kernel(self, tmp_path, monkeypatch):
        self.first_solves(True, tmp_path, monkeypatch)

    def test_float_stages_take_lam_as_a_float(self, example_field):
        # Newton iterates hand stages a NumPy lam; the float stages still
        # compute in Python floats, not NumPy scalars, so a 1/0 raises as
        # the replay of the C kernel expects
        rhs, _ = helpers.python_stages(example_field.stages((np.float64(0.1),)))
        assert all(type(v) is float for v in rhs(0.5, [0.1] * example_field.dim))

    @helpers.requires_compiler
    def test_stages_are_compiled_where_a_compiler_is(self, example_field):
        for lam in (0.0, 0.1):
            attempt = example_field.stages((lam,))
            assert isinstance(attempt, rk45.CompiledAttempt)
            assert attempt.lams == (lam,) and attempt.dim == example_field.dim
            lams = [lam, lam + 1e-7]
            attempt = example_field.stages(lams)
            assert isinstance(attempt, rk45.CompiledAttempt)
            assert attempt.lams == tuple(lams) and attempt.dim == example_field.dim

    @pytest.mark.parametrize("b", [38, 39])
    def test_long_chains_solve_on_float_stages(self, b):
        # dims 40 and 41, on both sides of the dim up to which float stages
        # once ran: a single solve agrees with solve_ivp to 1e-12
        p = ProblemSpec.from_strings("-x0*(1+x2)", "q-p", "1+x*sin(2*pi*t)",
                                     float(b), b, 1.0)
        field = expand(p)
        assert field.stages((0.1,)) is not None
        xi0 = np.linspace(0.3, -0.2, field.dim)
        traj = orbit.integrate(field, 0.1, xi0, 0.0, 0.1)
        ref = scipy.integrate.solve_ivp(
            lambda t, y: field.G(y) + 0.1 * field.F(t, y), (0.0, 0.1), xi0,
            method="RK45", rtol=rk45.TOL, atol=rk45.TOL)
        assert np.max(np.abs(traj.y_end - ref.y[:, -1])) <= 1e-12

    def test_float_stages_at_every_dim(self):
        # single solves and stacked runs alike, in C wherever a compiler is
        cc = shutil.which("cc") is not None
        for b in (1, 38, 39, 60):
            field = expand(ProblemSpec.from_strings("-x0*(1+x2)", "q-p", "1+x*sin(2*pi*t)",
                                                    2.0, b, 1.0))
            lams = np.full(field.dim + 2, 0.1)
            for stages in (field.stages((0.0,)), field.stages((0.1,)), field.stages(lams)):
                assert stages is not None
                assert isinstance(stages, rk45.CompiledAttempt) == cc

    def test_determinant_check_reads_G(self):
        # the degree cross-check takes det_fd from the Jacobian of G itself,
        # whose first-row expansion is (-1)^(b-1) a^b Phi'(u) at a lifted zero
        for problem, _, _ in helpers.transversal_suite():
            a, b = problem.kernel.a, problem.kernel.b
            field = expand(problem)
            for rec in analysis.scan_zeros(problem, -2.5, 2.5, 400):
                J = analysis.jacobian_fd(field.G, rec.lifted[:, None])[0]
                assert rec.det_fd == np.linalg.det(J)
                want = (-1.0) ** (b - 1) * a**b * rec.phi_prime
                assert rec.det_formula == want
                assert abs(rec.det_fd - want) <= (analysis.DET_CHECK_TOL
                                                  * (1.0 + abs(want)))


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
    assert np.array_equal(orbit.dense_samples(t1), orbit.dense_samples(t2))
    assert np.array_equal(t1.y_end, t2.y_end)


class TestProject:
    def test_constant_trajectory(self, example_field):
        Y = orbit.dense_samples(orbit.integrate(example_field, 0.0, P1, 0.0, 1.0))
        assert np.all(Y[0] == 1.0)
        assert np.all(Y[1] == 0.0)


def test_forcing_batch_matches_scalar(example_field, monkeypatch):
    # the field of a vectorized stacked run, G + lams[c] F on row c of an
    # array of states, against the float stages' rhs of each column alone,
    # bit for bit
    fields = []
    vector_stages = rk45.vector_stages
    monkeypatch.setattr(rk45, "vector_stages",
                        lambda field, *args: fields.append(field) or vector_stages(field, *args))
    monkeypatch.setattr(chain, "VECTOR_STAGES_MIN_DIM", 0)
    rng = np.random.default_rng(7)
    lams = rng.uniform(0.0, 1.0, size=9)
    helpers.python_stages(example_field.stages(lams))
    field, = fields
    W = rng.uniform(-2.0, 2.0, size=(9, 4))
    out = np.empty_like(W)
    for t in rng.uniform(0.0, 1.0, size=3):
        field(t, W, out)
        for j in range(9):
            rhs, _ = helpers.python_stages(example_field.stages((lams[j],)))
            assert out[j].tobytes() == np.array(rhs(t, W[j].tolist())).tobytes()
            xi = W[j]
            np.testing.assert_allclose(
                out[j], example_field.G(xi) + lams[j] * example_field.F(t, xi),
                rtol=1e-14, atol=1e-15)
