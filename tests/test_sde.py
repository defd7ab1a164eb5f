"""Unit tests for drift fields, mollification, the Euler solver, and the flow."""

import math
from dataclasses import dataclass

import numpy as np
import pytest

from roughdelta.fbm import GridSpec, sample_joint_batch
from roughdelta.frac_core import HurstParam
from roughdelta.sde import (
    LinearDrift,
    MollifiedDrift,
    RegimeSwitchDrift,
    RegimeSwitchOUDrift,
    ZeroDrift,
    _STEP_BLOCK,
    _solve_blocks,
    default_epsilon,
    mollify,
    solve_batch,
)

H01 = HurstParam(0.1)


def _path(grid, d, seed, index):
    """(dW, bh) of one path, as a batch of one."""
    return sample_joint_batch(grid, H01, d, seed, index, 1)


def stream_path(drift, starts, bh, grid):
    """(x, jac): the states and the flow of starts[0], each of bh's shape, from the stream."""
    x, jac = np.empty_like(bh), np.empty_like(bh)
    for k0, state, flow in _solve_blocks(drift, starts, bh, grid):
        k1 = k0 + len(flow)  # column k0 again too, which block 0 needs for the start
        x[:, k0:k1] = state[:, 0].transpose(1, 0, 2)
        jac[:, k0:k1] = flow.transpose(1, 0, 2)
    return x, jac


def _euler_reference(drift, x0, bh, grid):
    """Independent oracle: the path-major Euler loop, stepping x[:, k] of (B, n+1, d)."""
    dt = grid.dt
    t = grid.times
    x = np.empty_like(bh)
    x[:, 0] = x0
    for k in range(bh.shape[1] - 1):
        b = drift.value(t[k], x[:, k])
        x[:, k + 1] = x[:, k] + b * dt + (bh[:, k + 1] - bh[:, k])
    return x


def _flow_reference(drift, x, grid):
    """Independent oracle: the path-major flow loop J[k+1] = J[k] (1 + Db(X_k) dt)."""
    dt = grid.dt
    t = grid.times
    jac = np.empty_like(x)
    jac[:, 0] = 1.0
    for k in range(x.shape[1] - 1):
        jac[:, k + 1] = jac[:, k] * (1.0 + drift.derivative(t[k], x[:, k]) * dt)
    return jac


@dataclass(frozen=True)
class _Cliff:
    """b = 0 and Db = 0 up to `level`, (value, slope) above it: a fault the path places."""

    value_above: float
    slope_above: float
    level: float = 5.0

    def value(self, t, x):
        return np.where(x > self.level, self.value_above, 0.0)

    def derivative(self, t, x):
        return np.where(x > self.level, self.slope_above, 0.0)


def _steps_to(count, n, d, rises):
    """bh of zeros with bh[row, k:, i] = level for each (row, k, i, level) in rises."""
    bh = np.zeros((count, n + 1, d))
    for row, k, i, level in rises:
        bh[row, k:, i] = level
    return bh


class TestDrifts:
    def test_regime_switch_values(self):
        d = RegimeSwitchDrift(1.0, -1.0)
        np.testing.assert_array_equal(
            d.value(0.0, np.array([-0.5, 0.0, 0.5])), [-1.0, -1.0, 1.0]
        )

    def test_regime_ou_validation(self):
        with pytest.raises(ValueError):
            RegimeSwitchOUDrift(0.0, 1.0, 0.0, 0.0)

    def test_linear(self):
        d = LinearDrift(0.5)
        assert d.value(0.0, 2.0) == 1.0
        assert d.derivative(0.0, 2.0) == 0.5


class TestMollification:
    def test_epsilon_validation(self):
        with pytest.raises(ValueError):
            mollify(ZeroDrift(), 0.0)

    def test_transition_endpoints(self):
        m = mollify(RegimeSwitchDrift(1.0, -1.0), 0.05)
        assert m.value(0.0, np.array([-1.0]))[0] == pytest.approx(-1.0, abs=1e-12)
        assert m.value(0.0, np.array([1.0]))[0] == pytest.approx(1.0, abs=1e-12)
        assert m.value(0.0, np.array([0.0]))[0] == pytest.approx(0.0, abs=1e-12)

    def test_derivative_is_gaussian_bump(self):
        eps = 0.05
        m = mollify(RegimeSwitchDrift(1.0, -1.0), eps)
        peak = m.derivative(0.0, np.array([0.0]))[0]
        assert peak == pytest.approx(2.0 / (eps * math.sqrt(2 * math.pi)), rel=1e-12)

    def test_derivative_matches_fd(self):
        m = mollify(RegimeSwitchDrift(1.0, -1.0, 0.3), 0.1)
        x = np.linspace(-0.5, 1.0, 41)
        d = 1e-6
        fd = (m.value(0.0, x + d) - m.value(0.0, x - d)) / (2 * d)
        np.testing.assert_allclose(m.derivative(0.0, x), fd, atol=1e-5)

    def test_smooth_base_passes_through(self):
        m = mollify(LinearDrift(0.7), 0.05)
        x = np.array([-1.0, 0.0, 2.0])
        np.testing.assert_array_equal(m.value(0.0, x), 0.7 * x)
        np.testing.assert_array_equal(m.derivative(0.0, x), 0.7)

    def test_ou_mollified_derivative_matches_fd(self):
        m = mollify(RegimeSwitchOUDrift(1.0, 2.0, 0.0, 0.5), 0.1)
        x = np.linspace(-1.0, 1.0, 21)
        d = 1e-6
        fd = (m.value(0.0, x + d) - m.value(0.0, x - d)) / (2 * d)
        np.testing.assert_allclose(m.derivative(0.0, x), fd, atol=1e-5)

    @pytest.mark.parametrize("horizon", [1.0, 2.0])
    def test_default_epsilon_scale(self, horizon):
        grid = GridSpec(horizon, 256)
        assert default_epsilon(grid, H01) == pytest.approx(
            4.0 * math.sqrt(horizon / 256) * horizon**0.1, rel=1e-12
        )


class TestEulerSolver:
    def test_zero_drift_follows_noise(self):
        grid = GridSpec(1.0, 64)
        _, bh = _path(grid, 1, 1, 0)
        m = mollify(ZeroDrift(), 0.05)
        x, _ = stream_path(m, [[0.3]], bh, grid)
        ends, _ = solve_batch(m, [[0.3]], bh, grid)
        np.testing.assert_allclose(x[0, :, 0], 0.3 + bh[0, :, 0], atol=1e-14)
        assert ends[0].tobytes() == x[:, -1].tobytes()

    def test_constant_drift_linear_in_time(self):
        grid = GridSpec(1.0, 64)
        _, bh = _path(grid, 1, 1, 0)
        m = mollify(RegimeSwitchDrift(0.7, 0.7), 0.05)
        x, _ = stream_path(m, [[0.0]], bh, grid)
        np.testing.assert_allclose(
            x[0, :, 0], 0.7 * grid.times + bh[0, :, 0], atol=1e-12
        )

    def test_dimension_mismatch(self):
        # starts must have shape (m, d); a 1-element start is not broadcast over d = 2
        grid = GridSpec(1.0, 8)
        _, bh = _path(grid, 2, 1, 0)
        m = mollify(ZeroDrift(), 0.05)
        for starts in (0.0, [0.0, 0.5], [[0.0]], [[0.0, 0.5, 1.0]], [[[0.0, 0.5]]]):
            with pytest.raises(ValueError, match="d=2"):
                solve_batch(m, starts, bh, grid)
        x, jac = stream_path(m, [[0.0, 0.5]], bh, grid)
        ends, _ = solve_batch(m, [[0.0, 0.5]], bh, grid)
        assert x.shape == jac.shape == bh.shape
        assert ends.shape == (1, 1, 2)

    def test_batch_matches_single(self):
        # a path solved alone equals its row in a larger batch, bit for bit,
        # and so does the weight its dual carries
        grid = GridSpec(1.0, 32)
        _, bh = sample_joint_batch(grid, H01, 1, 4, 0, 8)
        rng = np.random.default_rng(4)
        dual = rng.normal(0.0, 1.0, (8, 32, 1))
        m = mollify(RegimeSwitchDrift(1.0, -1.0), 0.05)

        def solve(rows):
            starts = [[0.1], [0.3]]
            path = stream_path(m, starts, bh[rows], grid)
            return (*path, *solve_batch(m, starts, bh[rows], grid, dual=dual[rows]))

        batch, one = solve(slice(None)), solve(slice(6, 7))
        for whole, single, axis in zip(batch, one, (0, 0, 1, 0)):
            assert np.take(whole, [6], axis=axis).tobytes() == single.tobytes()

    @pytest.mark.parametrize("n", [2, _STEP_BLOCK - 1, _STEP_BLOCK, _STEP_BLOCK + 1, 1024])
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("m", [1, 3])
    def test_matches_path_major_loops_bitwise(self, n, d, m):
        # the time-major kernel changes the layout only: x, every start's
        # terminal state and the flow, whose factors come from one call per
        # block, have the bytes of the path-major loops
        grid = GridSpec(1.0, n)
        _, bh = sample_joint_batch(grid, H01, d, 5, 0, 6)
        drift = mollify(RegimeSwitchDrift(1.0, -1.0, 0.05), default_epsilon(grid, H01))
        starts = np.linspace(-0.2, 0.3, m * d).reshape(m, d)
        x, jac = stream_path(drift, starts, bh, grid)
        ends, pi = solve_batch(drift, starts, bh, grid)
        assert pi is None
        ref = _euler_reference(drift, starts[0], bh, grid)
        assert x.tobytes() == ref.tobytes()
        assert jac.tobytes() == _flow_reference(drift, ref, grid).tobytes()
        for i in range(m):
            assert ends[i].tobytes() == _euler_reference(drift, starts[i], bh, grid)[:, -1].tobytes()


class TestFlow:
    def test_linear_drift_exponential(self):
        lam = 0.5
        grid = GridSpec(1.0, 1024)
        _, bh = _path(grid, 1, 2, 0)
        m = mollify(LinearDrift(lam), 0.05)
        _, jac = stream_path(m, [[0.2]], bh, grid)
        assert jac[0, -1, 0] == pytest.approx(math.exp(lam), rel=1e-2)

    def test_zero_drift_identity(self):
        grid = GridSpec(1.0, 16)
        _, bh = _path(grid, 1, 2, 0)
        m = mollify(ZeroDrift(), 0.05)
        _, jac = stream_path(m, [[0.0]], bh, grid)
        np.testing.assert_array_equal(jac, 1.0)

    def test_flow_matches_pathwise_fd(self):
        # flow derivative vs a finite difference of two starts on the same path
        grid = GridSpec(1.0, 1024)
        _, bh = _path(grid, 1, 8, 1)
        m = mollify(LinearDrift(0.5), 0.05)
        bump = 1e-5
        starts = [[0.2], [0.2 + bump], [0.2 - bump]]
        _, jac = stream_path(m, starts, bh, grid)
        ends, _ = solve_batch(m, starts, bh, grid)
        fd = (ends[1, 0, 0] - ends[2, 0, 0]) / (2 * bump)
        assert abs(jac[0, -1, 0] - fd) < 1e-2

    def test_positivity_guard(self):
        # a huge negative derivative with a coarse grid flips the flow sign
        grid = GridSpec(1.0, 4)
        _, bh = _path(grid, 1, 2, 0)
        m = mollify(LinearDrift(-50.0), 0.05)
        with pytest.raises(FloatingPointError, match="step 0 in component 0"):
            solve_batch(m, [[0.0]], bh, grid)

    def test_positivity_guard_per_component(self):
        # only component 1 sits in the fast-reverting regime, so only its factor flips
        grid = GridSpec(1.0, 4)
        m = mollify(RegimeSwitchOUDrift(50.0, 0.1, 0.0, 0.0), 0.05)
        bh = np.zeros((3, 5, 2))
        with pytest.raises(FloatingPointError, match="step 0 in component 1"):
            solve_batch(m, [[-1.0, 1.0]], bh, grid)
        _, jac = stream_path(m, [[-1.0]], bh[..., :1], grid)
        assert np.all(jac > 0.0)


class TestReplayableErrors:
    def test_non_finite_state_names_start_row_and_step(self):
        # only start 1 of batch row 2 crosses the wall (at step 4), so only its
        # state turns non-finite, one step later
        grid = GridSpec(1.0, 8)
        bh = _steps_to(4, 8, 1, [(2, 4, 0, 10.0)])
        wall = _Cliff(np.inf, 0.0)
        with pytest.raises(
            FloatingPointError, match=r"non-finite state at step 5 from start 1 in batch row 2$"
        ):
            solve_batch(wall, [[-20.0], [0.0], [-20.0]], bh, grid)

    def test_flow_error_names_row_step_and_component(self):
        grid = GridSpec(1.0, 8)
        bh = _steps_to(4, 8, 2, [(1, 3, 1, 10.0)])
        cliff = _Cliff(0.0, -1e6)
        with pytest.raises(
            FloatingPointError, match="non-positive in batch row 1 at step 3 in component 1;"
        ):
            solve_batch(cliff, [[0.0, 0.0]], bh, grid)

    def test_earlier_fault_wins(self):
        # the cliff both flips the flow of starts[0] at the step it is crossed
        # and makes any state non-finite one step later; the earlier one is raised
        grid = GridSpec(1.0, 8)
        cliff = _Cliff(np.inf, -1e6)
        # start 0 crosses at step 3: its flow fault (step 3) precedes its state fault (step 4)
        bh = _steps_to(2, 8, 1, [(1, 3, 0, 10.0)])
        with pytest.raises(FloatingPointError, match="batch row 1 at step 3 in component 0"):
            solve_batch(cliff, [[0.0], [-20.0]], bh, grid)
        # start 1 crosses at step 2, start 0 at step 6: the state fault at step 3 comes first
        bh = _steps_to(2, 8, 1, [(0, 2, 0, 2.0), (0, 6, 0, 10.0)])
        with pytest.raises(FloatingPointError, match="state at step 3 from start 1 in batch row 0"):
            solve_batch(cliff, [[0.0], [4.0]], bh, grid)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow being tested
    def test_weight_fault_names_first_step_in_block(self):
        # the weight is checked once per block; the step at which a row's
        # running sum first turns non-finite is named, with the first such row
        n = 2 * _STEP_BLOCK
        grid = GridSpec(1.0, n)
        bh = np.zeros((4, n + 1, 1))
        zero = mollify(ZeroDrift(), 0.05)
        dual = np.ones((4, n, 1))
        dual[3, _STEP_BLOCK + 2] = np.inf
        dual[2, _STEP_BLOCK + 5] = -np.inf
        dual[1, _STEP_BLOCK + 5] = np.nan
        with pytest.raises(
            FloatingPointError,
            match=f"non-finite weight contribution at step {_STEP_BLOCK + 2} in batch row 3$",
        ):
            solve_batch(zero, [[0.0]], bh, grid, dual=dual)
        dual[3, _STEP_BLOCK + 2] = 1.0
        with pytest.raises(FloatingPointError, match=f"at step {_STEP_BLOCK + 5} in batch row 1$"):
            solve_batch(zero, [[0.0]], bh, grid, dual=dual)
        # finite terms whose running sum overflows at the second of them
        dual = np.ones((4, n, 1))
        dual[2, 3:5] = 1e308
        with pytest.raises(FloatingPointError, match="at step 4 in batch row 2$"):
            solve_batch(zero, [[0.0]], bh, grid, dual=dual)
