"""Unit tests for the fBm samplers and the reproducible path RNG."""

import numpy as np
import pytest

from roughdelta.fbm import (
    GridSpec,
    PathSeed,
    covariance_report,
    sample_cholesky,
    sample_cholesky_batch,
    sample_joint_batch,
    sample_joint_path,
    volterra_weights,
    wiener_increment_batch,
)
from roughdelta.frac_core import HurstParam, cov_rh

H01 = HurstParam(0.1)


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(0.0, 10)
        with pytest.raises(ValueError):
            GridSpec(1.0, 0)

    def test_times(self):
        g = GridSpec(2.0, 4)
        np.testing.assert_allclose(g.times, [0.0, 0.5, 1.0, 1.5, 2.0])
        assert g.dt == 0.5


class TestPathSeed:
    def test_validation(self):
        with pytest.raises(ValueError):
            PathSeed(-1, 0)
        with pytest.raises(ValueError):
            PathSeed(2**64, 0)
        with pytest.raises(ValueError):
            PathSeed(0, -1)

    def test_streams_are_disjoint(self):
        s = PathSeed(42, 7)
        a = s.generator(stream=0).standard_normal(8)
        b = s.generator(stream=1).standard_normal(8)
        assert not np.allclose(a, b)

    def test_reproducible(self):
        a = PathSeed(42, 7).generator().standard_normal(8)
        b = PathSeed(42, 7).generator().standard_normal(8)
        np.testing.assert_array_equal(a, b)

    def test_distinct_paths(self):
        a = PathSeed(42, 7).generator().standard_normal(8)
        b = PathSeed(42, 8).generator().standard_normal(8)
        assert not np.allclose(a, b)


class TestVolterraSampler:
    def test_batch_matches_single(self):
        grid = GridSpec(1.0, 32)
        p = sample_joint_path(grid, H01, 1, PathSeed(9, 3))
        dW, bh = sample_joint_batch(grid, H01, 1, 9, 3, 1)
        np.testing.assert_array_equal(p.dW, dW[0])
        # single path uses a vector product, the batch a matrix product; the
        # two reduction orders agree to rounding
        np.testing.assert_allclose(p.bh, bh[0], atol=1e-14)

    def test_starts_at_zero(self):
        grid = GridSpec(1.0, 16)
        _, bh = sample_joint_batch(grid, H01, 2, 1, 0, 4)
        np.testing.assert_array_equal(bh[:, 0], 0.0)

    def test_terminal_variance(self):
        grid = GridSpec(1.0, 256)
        _, bh = sample_joint_batch(grid, H01, 1, 5, 0, 8000)
        v = np.var(bh[:, -1, 0], ddof=1)
        # sd of a sample variance of 8000 Gaussians is about 1.6% of the mean
        assert abs(v - 1.0) < 0.06

    def test_components_independent(self):
        grid = GridSpec(1.0, 64)
        _, bh = sample_joint_batch(grid, H01, 2, 5, 0, 4000)
        corr = np.corrcoef(bh[:, -1, 0], bh[:, -1, 1])[0, 1]
        assert abs(corr) < 0.06

    def test_weights_l2_match_variance(self):
        # sum of squared weights for B(t_k) must equal t_k^{2H} closely
        grid = GridSpec(1.0, 512)
        for h in (HurstParam(0.05), HurstParam(0.1)):
            w = volterra_weights(grid, h)
            var = np.sum(w[1:] ** 2, axis=1) * grid.dt
            target = grid.times[1:] ** (2 * h.h)
            rel = np.abs(var - target) / target
            assert rel[-1] < 0.02


class TestCholeskySampler:
    def test_exact_covariance_small_grid(self):
        grid = GridSpec(1.0, 64)
        vals = sample_cholesky_batch(grid, H01, 11, 0, 20000)
        rep = covariance_report(vals[:, 1:], grid.times[1:], H01)
        assert rep.max_deviation_se <= 5.0
        assert not rep.degenerate

    def test_single_matches_batch(self):
        grid = GridSpec(1.0, 16)
        f = sample_cholesky(grid, H01, PathSeed(3, 2))
        b = sample_cholesky_batch(grid, H01, 3, 2, 1)
        np.testing.assert_array_equal(f.values, b[0])

    def test_size_guard(self):
        with pytest.raises(ValueError):
            sample_cholesky(GridSpec(1.0, 5000), H01, PathSeed(0, 0))

    def test_batch_sampler_size_guard(self):
        with pytest.raises(ValueError, match="not supported"):
            sample_cholesky_batch(GridSpec(1.0, 5000), H01, 0, 0, 1)


class TestWienerBatch:
    def test_moments(self):
        grid = GridSpec(1.0, 64)
        dW = wiener_increment_batch(grid, 13, 0, 8000, stream=1)
        assert abs(dW.mean()) < 3e-3
        assert abs(dW.var() - grid.dt) < 5e-4

    def test_stream_separation(self):
        grid = GridSpec(1.0, 8)
        a = wiener_increment_batch(grid, 13, 0, 4, stream=0)
        b = wiener_increment_batch(grid, 13, 0, 4, stream=1)
        assert not np.allclose(a, b)


class TestCovarianceReport:
    def test_flags_degenerate(self):
        vals = np.zeros((100, 4))
        rep = covariance_report(vals, np.linspace(0.25, 1.0, 4), H01)
        assert rep.degenerate

    def test_detects_wrong_scale(self):
        grid = GridSpec(1.0, 32)
        vals = 2.0 * sample_cholesky_batch(grid, H01, 17, 0, 4000)
        rep = covariance_report(vals[:, 1:], grid.times[1:], H01)
        assert rep.max_deviation_se > 5.0
