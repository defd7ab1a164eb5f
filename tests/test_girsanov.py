"""Unit tests for the drift-removal density."""

import math

from dataclasses import dataclass

import numpy as np
import pytest
from scipy.stats import norm

from roughdelta.fbm import GridSpec, sample_joint_batch
from roughdelta.frac_core import HurstParam, _kh_inverse_rows
from roughdelta.girsanov import girsanov_xi_batch, reweighted_expectation
from roughdelta.sde import (
    DriftSpec,
    RegimeSwitchDrift,
    ZeroDrift,
    mollify,
    solve_batch,
)
from test_frac_core import assert_matches_dense, kh_inverse_matrix

H01 = HurstParam(0.1)


@dataclass(frozen=True, eq=False)
class _MaskedDrift(DriftSpec):
    """base's value, NaN where mask (the shape of the path batch) is set."""

    base: DriftSpec
    mask: np.ndarray

    def value(self, t, x):
        return np.where(self.mask[: len(x), : np.shape(x)[1]], np.nan, self.base.value(t, x))


class TestXi:
    def test_zero_drift_gives_unit_density(self):
        grid = GridSpec(1.0, 32)
        dW, bh = sample_joint_batch(grid, H01, 1, 1, 0, 1)
        lx = girsanov_xi_batch(H01, ZeroDrift(), bh[:, :, 0], dW[:, :, 0], grid, 0.0)
        assert lx.shape == (1,)
        assert math.exp(lx[0]) == pytest.approx(1.0, abs=1e-14)
        assert lx[0] == pytest.approx(0.0, abs=1e-14)

    def test_single_matches_batch(self):
        # a path alone matches its row in a larger batch bit for bit: the
        # transform is a row-wise FFT convolution
        grid = GridSpec(1.0, 32)
        dW, bh = sample_joint_batch(grid, H01, 1, 1, 0, 8)
        drift = RegimeSwitchDrift(0.5, -0.5)
        many = girsanov_xi_batch(H01, drift, bh[:, :, 0], dW[:, :, 0], grid, 0.2)
        one = girsanov_xi_batch(H01, drift, bh[5:6, :, 0], dW[5:6, :, 0], grid, 0.2)
        assert one.tobytes() == many[5:6].tobytes()

    @pytest.mark.parametrize("n", [2, 3, 128])
    @pytest.mark.parametrize("hv", [0.25, 0.1, 0.001])
    def test_matches_dense_oracle(self, n, hv):
        # q = K_H^{-1} u against the dense u @ Kinv.T, to 1e-13 max(1, |dense|),
        # and the log-density built from each
        grid = GridSpec(1.0, n)
        h = HurstParam(hv)
        dW, bh = sample_joint_batch(grid, h, 1, 3, 0, 64)
        bh, dW = bh[:, :, 0], dW[:, :, 0]
        drift = mollify(RegimeSwitchDrift(0.5, -0.5), 0.05)
        t = grid.times
        u = drift.value(t[None, :], 0.1 + bh)
        dense = u @ kh_inverse_matrix(h, t).T
        assert_matches_dense(_kh_inverse_rows(h, t, u), dense)
        q = dense[:, :n]
        ref = -np.sum(q * dW, axis=1) - 0.5 * np.sum(q**2, axis=1) * grid.dt
        assert_matches_dense(girsanov_xi_batch(h, drift, bh, dW, grid, 0.1), ref)

    def test_error_names_first_bad_row(self):
        # a drift that is NaN on rows 5 and 9 only: the error names row 5 (the
        # FFT spreads a bad input over its whole row, so only the row is exact)
        grid = GridSpec(1.0, 16)
        dW, bh = sample_joint_batch(grid, H01, 1, 1, 0, 12)
        bh, dW = bh[:, :, 0], dW[:, :, 0]
        bad = np.zeros_like(bh, dtype=bool)
        bad[[5, 9], 7] = True
        drift = _MaskedDrift(RegimeSwitchDrift(0.5, -0.5), bad)
        with pytest.raises(FloatingPointError, match=r"inverse-kernel transform at step \d+ in batch row 5$"):
            girsanov_xi_batch(H01, drift, bh, dW, grid, 0.0)
        assert np.all(np.isfinite(girsanov_xi_batch(H01, drift, bh[:5], dW[:5], grid, 0.0)))

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
        ends, _ = solve_batch(drift, [[0.3]], bh, grid)
        xt = ends[0, :, 0]
        direct = f(xt)
        gap = abs(xif.mean() - direct.mean())
        combined = math.hypot(
            xif.std(ddof=1) / math.sqrt(len(xif)),
            direct.std(ddof=1) / math.sqrt(len(direct)),
        )
        assert gap <= 3 * combined
