"""Unit tests for the Malliavin-weight delta estimator."""

import numpy as np
import pytest

from roughdelta.bel import (
    WeightFn,
    estimate_delta,
    make_payoff,
    malliavin_weight,
    weight_profile,
)
from roughdelta.fbm import GridSpec, PathSeed, sample_joint_path
from roughdelta.frac_core import HurstParam, SampledFunction
from roughdelta.sde import ZeroDrift, euler_solve, flow_derivative, mollify

H01 = HurstParam(0.1)


class TestWeightFn:
    def test_uniform(self):
        a = WeightFn(2.0)
        np.testing.assert_allclose(a.values(np.array([0.0, 1.0, 2.0])), 0.5)

    def test_custom_must_normalize(self):
        g = np.linspace(0.0, 1.0, 11)
        with pytest.raises(ValueError):
            WeightFn(1.0, "custom", SampledFunction(g, 2.0 * np.ones_like(g)))
        a = WeightFn(1.0, "custom", SampledFunction(g, np.ones_like(g)))
        assert a.values(np.array([0.5]))[0] == 1.0

    def test_custom_needs_samples(self):
        with pytest.raises(ValueError):
            WeightFn(1.0, "custom")

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            WeightFn(1.0, "spline")


class TestPayoffRegistry:
    def test_all_names(self):
        x = np.array([-1.0, 0.5, 2.0])
        np.testing.assert_array_equal(make_payoff("identity")(x), x)
        np.testing.assert_array_equal(make_payoff("call", 1.0)(x), [0.0, 0.0, 1.0])
        np.testing.assert_array_equal(make_payoff("put", 1.0)(x), [2.0, 0.5, 0.0])
        np.testing.assert_array_equal(make_payoff("digital", 0.0)(x), [0.0, 1.0, 1.0])

    def test_unknown(self):
        with pytest.raises(ValueError):
            make_payoff("lookback")


class TestWeightProfile:
    def test_starts_at_zero(self):
        grid = GridSpec(1.0, 32)
        path = sample_joint_path(grid, H01, 1, PathSeed(1, 0))
        m = mollify(ZeroDrift(), 0.05)
        flow = flow_derivative(m, euler_solve(m, 0.0, path))
        g = weight_profile(H01, WeightFn(1.0), flow, grid)
        assert g.shape == (33, 1, 1)
        assert g[0, 0, 0] == 0.0
        assert np.all(np.isfinite(g))

    def test_positive_for_identity_flow(self):
        grid = GridSpec(1.0, 32)
        path = sample_joint_path(grid, H01, 1, PathSeed(1, 0))
        m = mollify(ZeroDrift(), 0.05)
        flow = flow_derivative(m, euler_solve(m, 0.0, path))
        g = weight_profile(H01, WeightFn(1.0), flow, grid)
        assert np.all(g[1:, 0, 0] > 0.0)

    def test_grid_mismatch(self):
        grid = GridSpec(1.0, 32)
        path = sample_joint_path(grid, H01, 1, PathSeed(1, 0))
        m = mollify(ZeroDrift(), 0.05)
        flow = flow_derivative(m, euler_solve(m, 0.0, path))
        with pytest.raises(ValueError):
            weight_profile(H01, WeightFn(1.0), flow, GridSpec(1.0, 16))


class TestMalliavinWeight:
    def test_zero_mean(self):
        # pi is an Ito integral, so its average over paths is near 0
        grid = GridSpec(1.0, 64)
        m = mollify(ZeroDrift(), 0.05)
        a = WeightFn(1.0)
        vals = []
        for p in range(400):
            path = sample_joint_path(grid, H01, 1, PathSeed(21, p))
            flow = flow_derivative(m, euler_solve(m, 0.0, path))
            vals.append(malliavin_weight(H01, a, flow, path).pi[0])
        vals = np.array(vals)
        assert abs(vals.mean()) < 4 * vals.std(ddof=1) / np.sqrt(len(vals))


class TestEstimateDelta:
    def test_identity_delta_zero_drift(self):
        grid = GridSpec(1.0, 128)
        m = mollify(ZeroDrift(), 0.05)
        est = estimate_delta(
            m, 0.0, make_payoff("identity"), H01, WeightFn(1.0), grid, 20000, 42
        )
        assert abs(est.mean[0] - 1.0) <= 3 * est.stderr[0]

    def test_reproducible(self):
        grid = GridSpec(1.0, 64)
        m = mollify(ZeroDrift(), 0.05)
        kw = dict(batch_size=1000)
        e1 = estimate_delta(
            m, 0.0, make_payoff("identity"), H01, WeightFn(1.0), grid, 3000, 7, **kw
        )
        e2 = estimate_delta(
            m, 0.0, make_payoff("identity"), H01, WeightFn(1.0), grid, 3000, 7, **kw
        )
        assert e1.mean[0] == e2.mean[0]
        assert e1.stderr[0] == e2.stderr[0]
        assert e1.config_digest == e2.config_digest

    def test_batch_size_does_not_change_result(self):
        grid = GridSpec(1.0, 64)
        m = mollify(ZeroDrift(), 0.05)
        e1, *rest = [
            estimate_delta(
                m, 0.0, make_payoff("identity"), H01, WeightFn(1.0), grid, 3000, 7,
                batch_size=b,
            )
            for b in (500, 1024, 3000)
        ]
        for e in rest:
            assert e.mean[0] == e1.mean[0]
            assert e.stderr[0] == e1.stderr[0]

    def test_nan_payoff_aborts(self):
        grid = GridSpec(1.0, 16)
        m = mollify(ZeroDrift(), 0.05)
        bad = lambda x: np.where(np.asarray(x) > 0, np.nan, 1.0)
        with pytest.raises(FloatingPointError):
            estimate_delta(m, 0.0, bad, H01, WeightFn(1.0), grid, 100, 1)

    def test_path_count_validation(self):
        grid = GridSpec(1.0, 16)
        m = mollify(ZeroDrift(), 0.05)
        with pytest.raises(ValueError):
            estimate_delta(m, 0.0, make_payoff("identity"), H01, WeightFn(1.0), grid, 1, 1)
