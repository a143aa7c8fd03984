from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.special as sps

from gammachain.kernel import GammaKernel, gamma_eval, tail_horizon
from helpers import quadrature_mass

GRID = [(a, b) for a in (0.5, 1.0, 2.0, 8.0) for b in (1, 2, 3, 5, 10)]


class TestDensity:
    def test_zero_at_origin_for_shape_two(self):
        assert gamma_eval(GammaKernel(2.0, 2), 0.0) == 0.0

    def test_right_limit_for_shape_one(self):
        assert gamma_eval(GammaKernel(2.0, 1), 0.0) == 2.0

    def test_value_with_mass_oracle(self):
        k = GammaKernel(2.0, 2)
        want = 4.0 * math.exp(-2.0)
        assert gamma_eval(k, 1.0) == pytest.approx(want, rel=1e-12)
        # the same density integrates to unit mass over the far horizon
        assert quadrature_mass(k, tail_horizon(k, 1e-12)) == pytest.approx(1.0, abs=1e-8)

    def test_negative_support(self):
        assert gamma_eval(GammaKernel(1.0, 3), -0.5) == 0.0

    def test_large_shape_no_overflow(self):
        k = GammaKernel(1.0, 180)
        v = gamma_eval(k, 180.0)  # near the mode; factorial 179! would overflow
        assert np.isfinite(v) and v > 0

    def test_vectorized(self):
        k = GammaKernel(2.0, 2)
        s = np.array([-1.0, 0.0, 0.5, 1.0])
        got = gamma_eval(k, s)
        assert got.shape == (4,)
        assert got[0] == 0.0 and got[1] == 0.0
        assert got[3] == pytest.approx(4 * math.exp(-2), rel=1e-12)


class TestMoments:
    @pytest.mark.parametrize("a,b,mean,var", [
        (2.0, 2, 1.0, 0.5),
        (1.0, 1, 1.0, 1.0),
        (4.0, 2, 0.5, 0.125),
    ])
    def test_values(self, a, b, mean, var):
        k = GammaKernel(a, b)
        assert (k.mean, k.variance) == (mean, var)


class TestValidation:
    def test_bad_shape(self):
        with pytest.raises(ValueError):
            GammaKernel(1.0, 0)
        with pytest.raises(ValueError):
            GammaKernel(1.0, 2.5)  # type: ignore[arg-type]
        with pytest.raises(ValueError):
            GammaKernel(1.0, True)  # type: ignore[arg-type]

    def test_bad_rate(self):
        with pytest.raises(ValueError):
            GammaKernel(0.0, 1)
        with pytest.raises(ValueError):
            GammaKernel(-2.0, 3)

    def test_bad_eps(self):
        k = GammaKernel(1.0, 1)
        for eps in (0.0, 1.0, -0.1, 2.0):
            with pytest.raises(ValueError):
                tail_horizon(k, eps)


class TestTailHorizon:
    def test_median_region(self):
        # independent oracle: inverse regularized upper incomplete gamma
        k = GammaKernel(2.0, 2)
        h_true = sps.gammainccinv(2, 0.5) / 2.0
        got = tail_horizon(k, 0.5)
        grid = k.mean / 100.0
        assert got == pytest.approx(math.ceil(h_true / grid) * grid, abs=1e-12)
        assert abs(got - 0.84) < 1e-12

    def test_eps_close_to_one(self):
        k = GammaKernel(2.0, 2)
        assert tail_horizon(k, 1.0 - 1e-9) <= k.mean / 100.0 + 1e-15

    def test_tiny_eps_bounded(self):
        k = GammaKernel(2.0, 2)
        H = tail_horizon(k, 1e-10)
        assert H <= 20.0
        assert sps.gammaincc(2, 2.0 * H) <= 1e-10

    @pytest.mark.parametrize("a,b", GRID)
    def test_returned_tail_verified(self, a, b):
        k = GammaKernel(a, b)
        H = tail_horizon(k, 1e-6)
        assert sps.gammaincc(b, a * H) <= 1e-6
        # smallest grid value: one step back the tail exceeds eps
        step = k.mean / 100.0
        if H > step:
            assert sps.gammaincc(b, a * (H - step)) > 1e-6

    @pytest.mark.parametrize("eps", [1e-6, 1e-3])
    @pytest.mark.parametrize("a,b", GRID)
    def test_quadrature_tail_brackets_eps(self, a, b, eps):
        # oracle independent of gammaincc: the Simpson mass of the density
        k = GammaKernel(a, b)
        H = tail_horizon(k, eps)
        step = k.mean / 100.0
        assert 1.0 - quadrature_mass(k, H) <= eps
        if H > step:
            assert 1.0 - quadrature_mass(k, H - step) > eps


@pytest.mark.parametrize("a,b", GRID)
def test_unit_mass(a, b):
    k = GammaKernel(a, b)
    H = tail_horizon(k, 1e-12)
    assert quadrature_mass(k, H) == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("a", [0.5, 2.0])
@pytest.mark.parametrize("i", [2, 3, 5])
def test_chain_recurrence_of_densities(a, i):
    # d/ds gamma_a^i = a * (gamma_a^(i-1) - gamma_a^i) for i >= 2
    ki = GammaKernel(a, i)
    km = GammaKernel(a, i - 1)
    h = 1e-6
    for s in np.linspace(0.05, 4.0 / a + i / a, 25):
        fd = (gamma_eval(ki, s + h) - gamma_eval(ki, s - h)) / (2 * h)
        want = a * (gamma_eval(km, s) - gamma_eval(ki, s))
        assert abs(fd - want) <= 1e-6 * (1.0 + abs(want))
