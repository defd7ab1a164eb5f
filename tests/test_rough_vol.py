"""Unit tests for the rough stochastic volatility model and its delta weights."""

import math

import numpy as np
import pytest

from roughdelta.bel import WeightFn
from roughdelta.fbm import GridSpec, PathSeed
from roughdelta.frac_core import HurstParam
from roughdelta.rough_vol import RVConfig, VolMap, sbel_delta, simulate_rv
from roughdelta.sde import RegimeSwitchDrift, ZeroDrift, mollify

H01 = HurstParam(0.1)


def _cfg(gamma=0.0, alpha=0.2, mu=0.05, x1=1.0, x2=0.0):
    drift = mollify(RegimeSwitchDrift(1.0, -1.0), 0.05)
    return RVConfig(mu=mu, g=VolMap(alpha, gamma), vol_drift=drift, x1=x1, x2=x2, h=H01)


class TestVolMap:
    def test_validation(self):
        with pytest.raises(ValueError):
            VolMap(0.0, 0.1)
        with pytest.raises(ValueError):
            VolMap(0.2, -0.1)

    def test_bounds(self):
        g = VolMap(0.2, 0.3)
        z = np.array([-50.0, 0.0, 50.0])
        v = g(z)
        assert np.all(v > 0.2 - 1e-15)
        assert np.all(v < 0.5 + 1e-15)
        assert g(np.array([0.0]))[0] == pytest.approx(0.35)

    def test_derivative_matches_fd(self):
        g = VolMap(0.2, 0.3)
        z = np.linspace(-3, 3, 13)
        d = 1e-6
        fd = (g(z + d) - g(z - d)) / (2 * d)
        np.testing.assert_allclose(g.deriv(z), fd, atol=1e-9)

    def test_constant_when_gamma_zero(self):
        g = VolMap(0.2, 0.0)
        z = np.linspace(-5, 5, 7)
        np.testing.assert_array_equal(g(z), 0.2)
        np.testing.assert_array_equal(g.deriv(z), 0.0)


class TestRVConfig:
    def test_positive_price(self):
        with pytest.raises(ValueError):
            _cfg(x1=0.0)


class TestSimulate:
    def test_stock_positive(self):
        cfg = _cfg(gamma=0.3)
        p = simulate_rv(cfg, GridSpec(1.0, 64), PathSeed(5, 2))
        assert np.all(p.s > 0)
        assert p.s[0] == 1.0

    def test_dx1_is_relative_price(self):
        cfg = _cfg(gamma=0.3, x1=2.0)
        p = simulate_rv(cfg, GridSpec(1.0, 64), PathSeed(5, 2))
        np.testing.assert_allclose(p.dS_dx1, p.s / 2.0, rtol=1e-14)

    def test_dx2_zero_when_gamma_zero(self):
        p = simulate_rv(_cfg(gamma=0.0), GridSpec(1.0, 64), PathSeed(5, 2))
        np.testing.assert_array_equal(p.dS_dx2, 0.0)

    def test_dx2_matches_pathwise_fd(self):
        # exact derivative of the discrete recursion vs central differences
        grid = GridSpec(1.0, 128)
        seed = PathSeed(9, 4)
        bump = 1e-5
        base = _cfg(gamma=0.3, x2=0.1)
        up = simulate_rv(_cfg(gamma=0.3, x2=0.1 + bump), grid, seed)
        dn = simulate_rv(_cfg(gamma=0.3, x2=0.1 - bump), grid, seed)
        mid = simulate_rv(base, grid, seed)
        fd = (up.s[-1] - dn.s[-1]) / (2 * bump)
        assert mid.dS_dx2[-1] == pytest.approx(fd, rel=1e-3, abs=1e-6)

    def test_gbm_mean_when_gamma_zero(self):
        # constant volatility: E[S_T] = x1 e^{mu T}
        cfg = _cfg(gamma=0.0)
        grid = GridSpec(1.0, 64)
        from roughdelta.rough_vol import _simulate_batch

        s, *_ = _simulate_batch(cfg, grid, 31, 0, 8000)
        m = s[:, -1].mean()
        se = s[:, -1].std(ddof=1) / math.sqrt(8000)
        assert abs(m - math.exp(0.05)) <= 4 * se


class TestSbelDelta:
    def test_identity_payoff_delta_x1(self):
        cfg = _cfg(gamma=0.3, x2=0.0)
        est = sbel_delta(
            cfg, lambda s, sig: s, WeightFn(1.0), GridSpec(1.0, 128), 20000, 11
        )
        assert abs(est.mean[0] - math.exp(0.05)) <= 3 * est.stderr[0]

    def test_delta_x2_zero_when_gamma_zero(self):
        cfg = _cfg(gamma=0.0)
        est = sbel_delta(
            cfg, lambda s, sig: s, WeightFn(1.0), GridSpec(1.0, 128), 10000, 11
        )
        assert abs(est.mean[1]) <= 3 * est.stderr[1]

    def test_reproducible(self):
        cfg = _cfg(gamma=0.3)
        kw = dict(batch_size=2000)
        a = WeightFn(1.0)
        g = GridSpec(1.0, 64)
        e1 = sbel_delta(cfg, lambda s, sig: s, a, g, 4000, 3, **kw)
        e2 = sbel_delta(cfg, lambda s, sig: s, a, g, 4000, 3, **kw)
        np.testing.assert_array_equal(e1.mean, e2.mean)

    def test_batch_size_does_not_change_result(self):
        cfg = _cfg(gamma=0.3)
        a = WeightFn(1.0)
        g = GridSpec(1.0, 64)
        e1, *rest = [
            sbel_delta(cfg, lambda s, sig: s, a, g, 3000, 3, batch_size=b)
            for b in (500, 1024, 3000)
        ]
        for e in rest:
            np.testing.assert_array_equal(e.mean, e1.mean)
            np.testing.assert_array_equal(e.stderr, e1.stderr)
