"""Unit tests for the drift-removal density."""

import math

import numpy as np
import pytest
from scipy.stats import norm

from roughdelta.fbm import GridSpec, sample_joint_batch
from roughdelta.frac_core import HurstParam
from roughdelta.girsanov import girsanov_xi_batch, reweighted_expectation
from roughdelta.sde import (
    RegimeSwitchDrift,
    ZeroDrift,
    mollify,
    solve_batch,
)

H01 = HurstParam(0.1)


class TestXi:
    def test_zero_drift_gives_unit_density(self):
        grid = GridSpec(1.0, 32)
        dW, bh = sample_joint_batch(grid, H01, 1, 1, 0, 1)
        lx = girsanov_xi_batch(H01, ZeroDrift(), bh[:, :, 0], dW[:, :, 0], grid, 0.0)
        assert lx.shape == (1,)
        assert math.exp(lx[0]) == pytest.approx(1.0, abs=1e-14)
        assert lx[0] == pytest.approx(0.0, abs=1e-14)

    def test_single_matches_batch(self):
        # a path alone matches its row in a larger batch; u @ Kinv.T is a
        # BLAS product, so only to rounding
        grid = GridSpec(1.0, 32)
        dW, bh = sample_joint_batch(grid, H01, 1, 1, 0, 8)
        drift = RegimeSwitchDrift(0.5, -0.5)
        many = girsanov_xi_batch(H01, drift, bh[:, :, 0], dW[:, :, 0], grid, 0.2)
        one = girsanov_xi_batch(H01, drift, bh[5:6, :, 0], dW[5:6, :, 0], grid, 0.2)
        assert one[0] == pytest.approx(float(many[5]), abs=1e-14)

    def test_dimension_guard(self):
        grid = GridSpec(1.0, 16)
        dW, bh = sample_joint_batch(grid, H01, 2, 1, 0, 1)
        with pytest.raises(ValueError, match="one-dimensional"):
            girsanov_xi_batch(H01, ZeroDrift(), bh, dW, grid, 0.0)
        with pytest.raises(ValueError, match="one-dimensional"):
            girsanov_xi_batch(H01, ZeroDrift(), bh[0, :, 0], dW[0, :, 0], grid, 0.0)

    def test_unit_mean(self):
        grid = GridSpec(1.0, 128)
        dW, bh = sample_joint_batch(grid, H01, 1, 7, 0, 20000)
        lx = girsanov_xi_batch(
            H01, RegimeSwitchDrift(0.5, -0.5), bh[:, :, 0], dW[:, :, 0], grid, 0.0
        )
        xi = np.exp(lx)
        se = xi.std(ddof=1) / math.sqrt(len(xi))
        assert abs(xi.mean() - 1.0) <= 3 * se


class TestReweighting:
    def test_constant_drift_exact(self):
        # constant drift has a closed-form reweighted call value
        c, x0, strike = 0.5, 0.3, 0.2
        m = x0 + c - strike
        exact = m * norm.cdf(m) + norm.pdf(m)
        grid = GridSpec(1.0, 256)
        dW, bh = sample_joint_batch(grid, H01, 1, 7, 0, 20000)
        drift = mollify(RegimeSwitchDrift(c, c), 0.05)
        f = lambda x: np.maximum(x - strike, 0.0)
        xi, xif = reweighted_expectation(
            H01, drift, f, bh[:, :, 0], dW[:, :, 0], grid, x0
        )
        se = xif.std(ddof=1) / math.sqrt(len(xif))
        assert abs(xif.mean() - exact) <= 4 * se

    def test_matches_direct_simulation(self):
        grid = GridSpec(1.0, 256)
        drift = mollify(RegimeSwitchDrift(0.5, -0.5), 0.05)
        dW, bh = sample_joint_batch(grid, H01, 1, 7, 0, 20000)
        f = lambda x: np.maximum(x - 0.2, 0.0)
        xi, xif = reweighted_expectation(
            H01, drift, f, bh[:, :, 0], dW[:, :, 0], grid, 0.3
        )
        _, ends, _ = solve_batch(drift, [[0.3]], bh, grid)
        xt = ends[0, :, 0]
        direct = f(xt)
        gap = abs(xif.mean() - direct.mean())
        combined = math.hypot(
            xif.std(ddof=1) / math.sqrt(len(xif)),
            direct.std(ddof=1) / math.sqrt(len(direct)),
        )
        assert gap <= 3 * combined
