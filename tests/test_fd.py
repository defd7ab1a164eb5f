"""Unit tests for the finite-difference delta oracle."""

import math

import numpy as np
import pytest
from scipy.stats import norm

from roughdelta.bel import make_payoff
from roughdelta.fbm import GridSpec
from roughdelta.fd import fd_delta, gaussian_digital_delta, sde_payoff_runner
from roughdelta.frac_core import HurstParam
from roughdelta.sde import RegimeSwitchDrift, ZeroDrift, mollify

H01 = HurstParam(0.1)


class TestGaussianReference:
    def test_digital_delta_is_normal_density(self):
        # X_T ~ N(x, T^{2H}); d/dx P(X_T > K) = pdf((K-x)/T^H)/T^H
        x, strike, T = 0.1, 0.3, 1.0
        sd = T**H01.h
        expected = norm.pdf((strike - x) / sd) / sd
        assert gaussian_digital_delta(x, strike, T, H01) == pytest.approx(
            expected, rel=1e-12
        )

    def test_horizon_validation(self):
        with pytest.raises(ValueError):
            gaussian_digital_delta(0.0, 0.0, 0.0, H01)


class TestFDDelta:
    def test_linear_model_exact(self):
        # payoff linear in x: FD is exact and paired noise cancels entirely
        runner = lambda x, seed, start, count: np.full(count, 2.0) * x[0]
        est = fd_delta(runner, 1.0, 0.01, 100, 0)
        assert est.value[0] == pytest.approx(2.0, rel=1e-10)
        assert est.stderr[0] == pytest.approx(0.0, abs=1e-12)

    def test_pairing_beats_unpaired(self):
        # identity payoff on the zero-drift model: noise cancels exactly in
        # the paired differences, while unpaired estimates would carry the
        # full path variance
        grid = GridSpec(1.0, 64)
        m = mollify(ZeroDrift(), 0.05)
        runner = sde_payoff_runner(m, make_payoff("identity"), H01, grid)
        est = fd_delta(runner, 0.0, 0.05, 2000, 5)
        assert est.value[0] == pytest.approx(1.0, abs=1e-10)
        assert est.stderr[0] < 1e-10

    def test_digital_matches_closed_form(self):
        grid = GridSpec(1.0, 128)
        m = mollify(ZeroDrift(), 0.05)
        runner = sde_payoff_runner(m, make_payoff("digital", 0.3), H01, grid)
        est = fd_delta(runner, 0.1, 0.05, 40000, 5)
        target = gaussian_digital_delta(0.1, 0.3, 1.0, H01)
        # central FD carries O(bump^2) bias on the smooth Gaussian cdf
        assert abs(est.value[0] - target) <= 3 * est.stderr[0] + 0.01 * target

    def test_validation(self):
        runner = lambda x, seed, start, count: np.zeros(count)
        with pytest.raises(ValueError):
            fd_delta(runner, 0.0, 0.0, 100, 0)
        with pytest.raises(ValueError):
            fd_delta(runner, 0.0, 0.1, 1, 0)

    def test_multidimensional_bumps(self):
        runner = lambda x, seed, start, count: np.full(count, x[0] + 3.0 * x[1])
        est = fd_delta(runner, np.array([1.0, 2.0]), 0.01, 50, 0)
        np.testing.assert_allclose(est.value, [1.0, 3.0], rtol=1e-9)

    def test_batch_size_does_not_change_result(self):
        grid = GridSpec(1.0, 64)
        m = mollify(RegimeSwitchDrift(1.0, -1.0), 0.05)
        runner = sde_payoff_runner(m, make_payoff("call", 0.1), H01, grid)
        e1, *rest = [
            fd_delta(runner, 0.0, 0.05, 3000, 7, batch_size=b) for b in (500, 1024, 3000)
        ]
        assert e1.stderr[0] > 0.0
        for e in rest:
            np.testing.assert_array_equal(e.value, e1.value)
            np.testing.assert_array_equal(e.stderr, e1.stderr)
