"""Unit tests for the finite-difference delta oracle."""

import math

import numpy as np
import pytest
from scipy.stats import norm

from roughdelta import bel
from roughdelta.bel import make_payoff
from roughdelta.fbm import GridSpec
from roughdelta.fd import fd_delta, gaussian_digital_delta, rv_payoff_runner, sde_payoff_runner
from roughdelta.frac_core import HurstParam
from roughdelta.sde import RegimeSwitchDrift, ZeroDrift, mollify
from test_rough_vol import _FAULT_GRID, _REPLAY, _fault_message

H01 = HurstParam(0.1)


class TestGaussianReference:
    @pytest.mark.parametrize("T", [1.0, 2.0])
    def test_digital_delta_is_normal_density(self, T):
        # X_T ~ N(x, T^{2H}); d/dx P(X_T > K) = pdf(K; x, T^H)
        x, strike = 0.1, 0.3
        expected = norm.pdf(strike, loc=x, scale=T**H01.h)
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

    def test_batch_size_does_not_change_result(self, monkeypatch):
        grid = GridSpec(1.0, 64)
        m = mollify(RegimeSwitchDrift(1.0, -1.0), 0.05)
        runner = sde_payoff_runner(m, make_payoff("call", 0.1), H01, grid)

        def run(batch):
            monkeypatch.setattr(bel, "DEFAULT_BATCH", batch)
            return fd_delta(runner, 0.0, 0.05, 3000, 7)

        e1, *rest = [run(b) for b in (500, 1024, 3000)]
        assert e1.stderr[0] > 0.0
        for e in rest:
            np.testing.assert_array_equal(e.value, e1.value)
            np.testing.assert_array_equal(e.stderr, e1.stderr)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow past the fault
class TestReplayableErrors:
    @pytest.mark.parametrize("case", ["kernel", "stock"])
    def test_errors_name_seed_and_first_path(self, monkeypatch, case):
        # kernel: the SDE runner on the vol factor's own equation from x2;
        # stock: the two-factor runner.  The bump is too small to move the
        # fault, so the up side, which runs first, meets it on the same path.
        seed, cfg, path, msg = _fault_message(case)
        if case == "kernel":
            runner = sde_payoff_runner(cfg.vol_drift, make_payoff("identity"), H01, _FAULT_GRID)
            x = np.array([cfg.x2])
        else:
            runner = rv_payoff_runner(cfg, lambda s, sigma: s, _FAULT_GRID)
            x = np.array([cfg.x1, cfg.x2])
        first = (msg + _REPLAY).format(row=path - 32, seed=seed, start=32)
        monkeypatch.setattr(bel, "DEFAULT_BATCH", 32)
        with pytest.raises(FloatingPointError, match=first):
            fd_delta(runner, x, 1e-9, 64, seed)
        with pytest.raises(FloatingPointError, match=msg.format(row=0) + "$"):
            runner(x, seed, path, 1)
