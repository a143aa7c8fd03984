from __future__ import annotations

import numpy as np
import pytest

import helpers
from gammachain import analysis
from gammachain.analysis import (AdmissibilityError, DegenerateZeroError,
                                 degree_G, phi_eval, phi_prime, scan_zeros)
from gammachain.chain import ProblemSpec


class TestPhi:
    def test_example_composition(self, example_problem):
        # Phi(u) = g(u, 0, phi(u, 0)) = -u*(1 + (0 - u)) = u^2 - u
        assert phi_eval(example_problem, 0.5) == -0.25
        assert phi_eval(example_problem, 0.0) == 0.0
        assert phi_eval(example_problem, 1.0) == 0.0
        for u in np.linspace(-1, 2, 17):
            assert phi_eval(example_problem, u) == pytest.approx(u * u - u, abs=1e-14)

    def test_constant_g(self):
        p = ProblemSpec.from_strings("3+0*x0", "q-p", "sin(2*pi*t)", 2.0, 2, 1.0)
        for u in (-2.0, 0.0, 5.5):
            assert phi_eval(p, u) == 3.0

    def test_prime_symbolic(self, example_problem):
        assert phi_prime(example_problem, 0.0) == pytest.approx(-1.0, abs=1e-12)
        assert phi_prime(example_problem, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_prime_fd_fallback_at_kink(self):
        # |u| composed in: symbolic derivative errors at 0, FD takes over
        p = ProblemSpec.from_strings("x2", "abs(p)", "sin(2*pi*t)", 1.0, 1, 1.0)
        v = phi_prime(p, 0.0)
        assert abs(v) <= 1e-3  # central FD of |u| at the kink is 0

    def test_prime_fd_fallback_for_a_derivative_too_deep(self):
        # the derivative of a 500-factor product chain has about 1000
        # levels, more than expr.MAX_DEPTH, so it is not compiled
        p = ProblemSpec.from_strings("-x0*(1+x2)" + "*(1+0.0001*x0)" * 500, "q-p",
                                     "sin(2*pi*t)", 2.0, 2, 1.0)
        assert analysis._phi_prime_parts(p) is None
        assert phi_prime(p, 0.0) == pytest.approx(-1.0, abs=1e-6)

    def test_prime_fd_fallback_for_a_derivative_nested_too_deeply(self):
        # a 150-factor product chain is within expr.MAX_DEPTH, but its
        # derivative's Python source nests more than expr.MAX_NESTING pairs
        # of parentheses, which CPython would not compile
        p = ProblemSpec.from_strings("-x0*(1+x2)" + "*(1+0.0001*x0)" * 150, "q-p",
                                     "sin(2*pi*t)", 2.0, 2, 1.0)
        assert analysis._phi_prime_parts(p) is None
        assert phi_prime(p, 0.0) == pytest.approx(-1.0, abs=1e-6)


class TestScanZeros:
    def test_example_zeros(self, example_problem):
        recs = scan_zeros(example_problem, -0.5, 1.5, 200)
        assert len(recs) == 2
        z0, z1 = recs
        assert abs(z0.u_bar - 0.0) <= 1e-10
        assert abs(z1.u_bar - 1.0) <= 1e-10
        assert z0.phi_prime == pytest.approx(-1.0, abs=1e-6)
        assert z1.phi_prime == pytest.approx(1.0, abs=1e-6)
        assert all(z.nondegenerate and z.sign_change for z in recs)
        assert np.allclose(z0.lifted, [0, 0, 0, 0], atol=1e-12)
        assert np.allclose(z1.lifted, [1, 0, -1, -1], atol=1e-12)

    def test_example_determinants(self, example_problem):
        recs = scan_zeros(example_problem, -0.5, 1.5, 200)
        # (-1)^(b-1) a^b Phi' = -4 * Phi' for a=2, b=2
        assert recs[0].det_formula == pytest.approx(4.0, abs=1e-9)
        assert recs[1].det_formula == pytest.approx(-4.0, abs=1e-9)
        for z in recs:
            assert abs(z.det_fd - z.det_formula) <= 1e-4 * (1 + abs(z.det_formula))

    @pytest.mark.parametrize("a, b", [(145.0, 145), (0.01, 160)],
                             ids=["overflow", "underflow"])
    def test_determinants_beyond_float_range(self, a, b):
        # a^b over- or underflows a float: each determinant is the string of
        # its sign and log|det|, cross-checked by them, and its sign counts
        problem = ProblemSpec.from_strings("-x0*(1+x2)", "q-p", "1+x*sin(2*pi*t)", a, b, 1.0)
        recs = scan_zeros(problem, -0.5, 1.5, 200)
        assert len(recs) == 2
        for z in recs:
            sign = (-1) ** (b - 1) * int(np.sign(z.phi_prime))
            assert z.det_sign == sign
            log10 = b * np.log10(a) + np.log10(abs(z.phi_prime))
            for det in (z.det_fd, z.det_formula):
                mantissa, exponent = det.split("e")
                assert np.sign(float(mantissa)) == sign and 1 <= abs(float(mantissa)) < 10
                assert np.log10(abs(float(mantissa))) + int(exponent) == pytest.approx(log10, abs=1e-7)
        report = analysis.degree_G(problem, -0.5, 1.5, 200)
        assert report.deg_phi == 0 and report.deg_G == 0

    @pytest.mark.parametrize("factor", [2.0, -1.0], ids=["log", "sign"])
    @pytest.mark.parametrize("a, b", [(2.0, 2), (145.0, 145)], ids=["float", "beyond"])
    def test_determinant_mismatch_raises(self, monkeypatch, a, b, factor):
        # a formula off by a factor of 2 or of the wrong sign fails the
        # cross-check, within and beyond the float range alike
        problem = ProblemSpec.from_strings("-x0*(1+x2)", "q-p", "1+x*sin(2*pi*t)", a, b, 1.0)
        true_phi_prime = analysis.phi_prime
        monkeypatch.setattr(analysis, "phi_prime", lambda p, u: factor * true_phi_prime(p, u))
        with pytest.raises(analysis.CrossCheckError, match="determinant mismatch"):
            scan_zeros(problem, -0.5, 1.5, 200)

    def test_interior_without_zeros(self, example_problem):
        assert scan_zeros(example_problem, 0.25, 0.75, 100) == []

    def test_endpoint_zero_is_inadmissible(self, example_problem):
        with pytest.raises(AdmissibilityError):
            scan_zeros(example_problem, 0.0, 0.5, 100)
        with pytest.raises(AdmissibilityError):
            scan_zeros(example_problem, 0.5, 1.0, 100)

    def test_bad_arguments(self, example_problem):
        with pytest.raises(ValueError):
            scan_zeros(example_problem, 1.0, -1.0, 100)
        with pytest.raises(ValueError):
            scan_zeros(example_problem, -0.5, 1.5, 1)

    def test_degenerate_tangency_detected(self):
        # Phi(u) = u^2: double zero, no sign change
        p = ProblemSpec.from_strings("x0^2 + 0*x2", "q-p", "sin(2*pi*t)", 2.0, 2, 1.0)
        recs = scan_zeros(p, -1.0, 1.0, 100)
        assert len(recs) == 1
        assert not recs[0].nondegenerate
        assert not recs[0].sign_change
        with pytest.raises(DegenerateZeroError):
            degree_G(p, -1.0, 1.0, 100)

    def test_refinement_off_grid(self, example_problem):
        # grid chosen so neither zero lies on a grid point
        recs = scan_zeros(example_problem, -0.47, 1.51, 173)
        assert len(recs) == 2
        assert abs(recs[0].u_bar) <= 1e-10
        assert abs(recs[1].u_bar - 1.0) <= 1e-10


class TestDegrees:
    def test_example_values(self, example_problem):
        assert degree_G(example_problem, -0.5, 0.5).deg_phi == -1
        assert degree_G(example_problem, 0.5, 1.5).deg_phi == 1
        assert degree_G(example_problem, -0.5, 1.5).deg_phi == 0

    def test_example_field_degrees(self, example_problem):
        # b = 2: deg G = (-1)^(b-1) deg Phi = -deg Phi
        assert degree_G(example_problem, -0.5, 0.5).deg_G == 1
        assert degree_G(example_problem, 0.5, 1.5).deg_G == -1

    def test_nonzero_when_boundary_signs_differ(self, example_problem):
        for (a, b) in [(-0.5, 0.5), (0.5, 1.5), (-2.0, 0.3), (0.7, 3.0)]:
            if phi_eval(example_problem, a) * phi_eval(example_problem, b) < 0:
                assert degree_G(example_problem, a, b).deg_G != 0

    def test_excision(self, example_problem):
        whole = degree_G(example_problem, -0.5, 1.5).deg_phi
        parts = (degree_G(example_problem, -0.5, 0.3).deg_phi
                 + degree_G(example_problem, 0.3, 1.5).deg_phi)
        assert whole == parts

    def test_report_serializes(self, example_problem):
        import json
        rep = degree_G(example_problem, -0.5, 1.5)
        doc = json.loads(json.dumps(rep.to_dict()))
        assert doc["deg_phi"] == 0 and doc["deg_G"] == 0
        assert len(doc["zeros"]) == 2
        assert doc["admissible"] is True


@pytest.fixture(scope="module")
def suite():
    return helpers.transversal_suite(20)


class TestRandomizedSuite:
    """Polynomial problems with roots known by construction."""

    def test_determinant_formula(self, suite):
        for problem, roots, slopes in suite:
            a, b = problem.kernel.a, problem.kernel.b
            recs = scan_zeros(problem, -2.5, 2.5, 400)
            assert len(recs) == len(roots)
            for rec, root, slope in zip(recs, roots, slopes):
                assert rec.u_bar == pytest.approx(root, abs=1e-8)
                assert rec.phi_prime == pytest.approx(slope, rel=1e-6)
                want = (-1.0) ** (b - 1) * a**b * rec.phi_prime
                assert abs(rec.det_fd - want) <= 1e-4 * (1 + abs(want))

    def test_degree_product_formula(self, suite):
        for problem, roots, slopes in suite:
            b = problem.kernel.b
            expected_phi = int(np.sum(np.sign(slopes)))
            rep = degree_G(problem, -2.5, 2.5, 400)
            assert rep.deg_phi == expected_phi
            assert rep.deg_G == (-1) ** (b - 1) * expected_phi

    def test_excision_random_split(self, suite):
        rng = np.random.default_rng(17)
        for problem, roots, _ in suite[:8]:
            cut = float(rng.uniform(-2.4, 2.4))
            if np.min(np.abs(np.asarray(roots) - cut)) < 0.05:
                continue
            if abs(phi_eval(problem, cut)) <= 1e-10:
                continue
            whole = degree_G(problem, -2.5, 2.5, 400).deg_phi
            assert whole == (degree_G(problem, -2.5, cut, 200).deg_phi
                             + degree_G(problem, cut, 2.5, 200).deg_phi)
