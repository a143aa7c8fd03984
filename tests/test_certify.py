from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from gammachain import analysis, certify, chain, orbit
from gammachain.certify import (certify_ejecting, lipschitz_estimate,
                                multiplicity_report, yorke_check)
from gammachain.chain import ExpandedField, ProblemSpec


def linear_field(A: np.ndarray) -> ExpandedField:
    return ExpandedField.from_callables(A.shape[0], lambda xi: A @ xi)


def rotation_field(omega: float, dim: int = 4) -> ExpandedField:
    A = np.zeros((dim, dim))
    A[0, 1] = -omega
    A[1, 0] = omega
    return linear_field(A)


class TestLipschitzEstimate:
    def test_linear_field_is_exact(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            A = rng.uniform(-2, 2, (4, 4))
            f = linear_field(A)
            got = lipschitz_estimate(f, np.zeros(4), radius=0.7)
            assert got == pytest.approx(np.linalg.norm(A, 2), abs=1e-6)

    def test_zero_field(self):
        f = linear_field(np.zeros((3, 3)))
        L = lipschitz_estimate(f, np.zeros(3), radius=1.0)
        assert L == 0.0
        bound, passes = yorke_check(L, 123.0)
        assert bound == math.inf and passes

    def test_example_boxes(self, example_problem, example_field):
        # the operator-2-norm of the Jacobian at the origin already exceeds
        # sqrt(5), so the local constant sits near 3.9 on a radius-0.1 box
        zeros = analysis.scan_zeros(example_problem, -0.5, 1.5, 200)
        for z in zeros:
            L = lipschitz_estimate(example_field, z.lifted, 0.1)
            assert 2.2 <= L <= 5.5

    def test_monotone_under_nested_grids(self):
        def G(xi):
            x, y = xi
            return np.array([math.sin(3 * x) + y * y, math.cos(x * y)])
        f = ExpandedField.from_callables(2, G)
        center = np.array([0.3, -0.4])
        estimates = [lipschitz_estimate(f, center, 0.5, g) for g in (7, 13, 25)]
        assert estimates[0] <= estimates[1] <= estimates[2]

    def test_monte_carlo_beyond_five_axes(self):
        A = np.diag([1.0, 2.0, 3.0, 0.5, 0.25, 0.1, 0.7])
        f = linear_field(A)
        got = lipschitz_estimate(f, np.zeros(7), radius=0.3)
        assert got == pytest.approx(3.0, abs=1e-6)

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

    def test_monte_carlo_matches_reference(self):
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
        calls = {"G": 0, "widths": [], "points": []}

        def scalar_G(xi):
            calls["G"] += 1
            return example_field.G(xi)

        def batch_G(X):
            calls["widths"].append(X.shape[1])
            return example_field.G_batch(X)

        jacobian_fd = analysis.jacobian_fd

        def recorded_jacobian(fun, X):
            calls["points"].append(X.shape[1])
            return jacobian_fd(fun, X)

        monkeypatch.setattr(analysis, "jacobian_fd", recorded_jacobian)
        field = dataclasses.replace(example_field, G=scalar_G, G_batch=batch_G)
        lipschitz_estimate(field, np.zeros(4), 0.1)
        assert calls["G"] == 0
        assert sum(calls["points"]) == certify.DEFAULT_GRID ** 4
        assert max(calls["points"]) <= certify.SAMPLE_CHUNK
        assert max(calls["widths"]) <= 2 * 4 * certify.SAMPLE_CHUNK
        assert len(calls["widths"]) == len(calls["points"])

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
def cubic_problems(draw):
    c = [draw(st.floats(-2.0, 2.0)) for _ in range(6)]
    d = [draw(st.floats(-2.0, 2.0)) for _ in range(3)]
    g = (f"({c[0]!r})*x0 + ({c[1]!r})*x0^3 + ({c[2]!r})*x1"
         f" + ({c[3]!r})*x2*x0^2 + ({c[4]!r})*x1*x2 + ({c[5]!r})*x2^3")
    phi = f"({d[0]!r}) + ({d[1]!r})*p + ({d[2]!r})*q"
    return ProblemSpec.from_strings(g, phi, "sin(2*pi*t)",
                                    draw(st.floats(0.5, 8.0)),
                                    draw(st.integers(1, 8)), 1.0)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(p=cubic_problems(), seed=st.integers(0, 2**32 - 1))
def test_batched_jacobian_matches_per_point(p, seed):
    field = chain.expand(p)
    X = np.random.default_rng(seed).uniform(-2.0, 2.0, (field.dim, 64))
    J = analysis.jacobian_fd(field.G_batch, X)
    assert J.shape == (64, field.dim, field.dim)

    def one_column(xi):
        return field.G_batch(xi[:, None])[:, 0]

    for k in range(64):
        # batching changes no arithmetic: bitwise equal per point
        assert np.array_equal(J[k], helpers.reference_jacobian(one_column, X[:, k]))
        # np.power and math.pow differ in the last bit for a few percent of
        # cubes; one ulp of a term below 16, divided by 2 * FD_STEP, is
        # 1.8e-9, and g has three power terms
        want = helpers.reference_jacobian(field.G, X[:, k])
        assert np.max(np.abs(J[k] - want)) <= 1e-8


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
        omega = 2.0
        f = rotation_field(omega)
        L = lipschitz_estimate(f, np.zeros(4), radius=0.5)
        assert L == pytest.approx(omega, abs=1e-6)
        T_rot = 2 * math.pi / omega
        xi0 = np.array([1.0, 0.0, 0.3, -0.2])
        traj = orbit.integrate(f, 0.0, xi0, 0.0, T_rot)
        assert np.linalg.norm(traj.y_end - xi0, np.inf) <= 1e-6
        # no earlier return: interior samples stay away from the start
        inner = traj.ys[32:-32]
        assert np.min(np.linalg.norm(inner - xi0, axis=1)) > 0.1
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
        rep = multiplicity_report(example_problem, -0.5, 1.5, 200, radius=0.1)
        assert rep.n == 2
        assert "at least 2" in rep.verdict

    def test_empty_interval(self, example_problem):
        rep = multiplicity_report(example_problem, 0.25, 0.75, 100, radius=0.1)
        assert rep.n == 0
        assert rep.verdict == ""
        assert rep.certified_zeros == ()

    def test_three_sign_changes(self):
        # Phi(u) = u (1 - u^2): zeros -1, 0, 1, all transversal
        p = ProblemSpec.from_strings("x0 + x2*x0^2", "q-p", "sin(4*pi*t)",
                                     2.0, 2, 0.5)
        rep = multiplicity_report(p, -1.5, 1.5, 300, radius=0.05)
        assert len(rep.certified_zeros) == 3
        assert rep.n == 3

    def test_propagates_admissibility(self, example_problem):
        with pytest.raises(analysis.AdmissibilityError):
            multiplicity_report(example_problem, 0.0, 0.5, 100)

    def test_serializes(self, example_problem):
        import json
        rep = multiplicity_report(example_problem, -0.5, 1.5, 200, radius=0.1)
        doc = json.loads(json.dumps(rep.to_dict()))
        assert doc["n"] == 2
