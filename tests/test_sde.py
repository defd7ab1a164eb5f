"""Unit tests for drift fields, mollification, the Euler solver, and the flow."""

import math

import numpy as np
import pytest

from roughdelta.fbm import GridSpec, PathSeed, sample_joint_path
from roughdelta.frac_core import HurstParam
from roughdelta.sde import (
    LinearDrift,
    MollifiedDrift,
    RegimeSwitchDrift,
    RegimeSwitchOUDrift,
    ZeroDrift,
    default_epsilon,
    euler_solve,
    euler_solve_batch,
    flow_derivative,
    flow_derivative_batch,
    mollify,
)

H01 = HurstParam(0.1)


class TestDrifts:
    def test_regime_switch_values(self):
        d = RegimeSwitchDrift(1.0, -1.0)
        np.testing.assert_array_equal(
            d.value(0.0, np.array([-0.5, 0.0, 0.5])), [-1.0, -1.0, 1.0]
        )
        assert d.bound == 1.0

    def test_regime_ou_validation(self):
        with pytest.raises(ValueError):
            RegimeSwitchOUDrift(0.0, 1.0, 0.0, 0.0)

    def test_linear(self):
        d = LinearDrift(0.5)
        assert d.value(0.0, 2.0) == 1.0
        assert d.derivative(0.0, 2.0) == 0.5
        assert d.smooth


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

    def test_default_epsilon_scale(self):
        grid = GridSpec(1.0, 256)
        assert default_epsilon(grid, H01) == pytest.approx(
            4.0 * math.sqrt(1.0 / 256), rel=1e-12
        )


class TestEulerSolver:
    def test_zero_drift_follows_noise(self):
        grid = GridSpec(1.0, 64)
        path = sample_joint_path(grid, H01, 1, PathSeed(1, 0))
        m = mollify(ZeroDrift(), 0.05)
        sol = euler_solve(m, 0.3, path)
        np.testing.assert_allclose(sol.x[:, 0], 0.3 + path.bh[:, 0], atol=1e-14)

    def test_constant_drift_linear_in_time(self):
        grid = GridSpec(1.0, 64)
        path = sample_joint_path(grid, H01, 1, PathSeed(1, 0))
        m = mollify(RegimeSwitchDrift(0.7, 0.7), 0.05)
        sol = euler_solve(m, 0.0, path)
        np.testing.assert_allclose(
            sol.x[:, 0], 0.7 * grid.times + path.bh[:, 0], atol=1e-12
        )

    def test_dimension_mismatch(self):
        grid = GridSpec(1.0, 8)
        path = sample_joint_path(grid, H01, 2, PathSeed(1, 0))
        with pytest.raises(ValueError):
            euler_solve(mollify(ZeroDrift(), 0.05), 0.0, path)

    def test_batch_matches_single(self):
        grid = GridSpec(1.0, 32)
        path = sample_joint_path(grid, H01, 1, PathSeed(4, 6))
        m = mollify(RegimeSwitchDrift(1.0, -1.0), 0.05)
        sol = euler_solve(m, 0.1, path)
        batch = euler_solve_batch(m, np.array([0.1]), path.bh[None], grid)
        np.testing.assert_array_equal(sol.x, batch[0])


class TestFlow:
    def test_linear_drift_exponential(self):
        lam = 0.5
        grid = GridSpec(1.0, 1024)
        path = sample_joint_path(grid, H01, 1, PathSeed(2, 0))
        m = mollify(LinearDrift(lam), 0.05)
        sol = euler_solve(m, 0.2, path)
        flow = flow_derivative(m, sol)
        assert flow.jac[-1, 0] == pytest.approx(math.exp(lam), rel=1e-2)

    def test_zero_drift_identity(self):
        grid = GridSpec(1.0, 16)
        path = sample_joint_path(grid, H01, 1, PathSeed(2, 0))
        m = mollify(ZeroDrift(), 0.05)
        flow = flow_derivative(m, euler_solve(m, 0.0, path))
        np.testing.assert_array_equal(flow.jac, 1.0)

    def test_flow_matches_pathwise_fd(self):
        # flow derivative vs a finite difference of two solves on the same path
        grid = GridSpec(1.0, 1024)
        path = sample_joint_path(grid, H01, 1, PathSeed(8, 1))
        m = mollify(LinearDrift(0.5), 0.05)
        bump = 1e-5
        up = euler_solve(m, 0.2 + bump, path).x[-1, 0]
        dn = euler_solve(m, 0.2 - bump, path).x[-1, 0]
        fd = (up - dn) / (2 * bump)
        flow = flow_derivative(m, euler_solve(m, 0.2, path))
        assert abs(flow.jac[-1, 0] - fd) < 1e-2

    def test_positivity_guard(self):
        # a huge negative derivative with a coarse grid flips the flow sign
        grid = GridSpec(1.0, 4)
        path = sample_joint_path(grid, H01, 1, PathSeed(2, 0))
        m = mollify(LinearDrift(-50.0), 0.05)
        x = euler_solve_batch(m, np.array([0.0]), path.bh[None], grid)
        with pytest.raises(FloatingPointError):
            flow_derivative_batch(m, x, grid)

    def test_positivity_guard_per_component(self):
        # only component 1 sits in the fast-reverting regime, so only its factor flips
        grid = GridSpec(1.0, 4)
        m = mollify(RegimeSwitchOUDrift(50.0, 0.1, 0.0, 0.0), 0.05)
        x = np.empty((3, 5, 2))
        x[..., 0] = -1.0
        x[..., 1] = 1.0
        with pytest.raises(FloatingPointError, match="step 0 in component 1"):
            flow_derivative_batch(m, x, grid)
        jac = flow_derivative_batch(m, x[..., :1], grid)
        assert np.all(jac > 0.0)

    def test_matrices_view(self):
        grid = GridSpec(1.0, 8)
        path = sample_joint_path(grid, H01, 2, PathSeed(2, 0))
        m = mollify(RegimeSwitchDrift(1.0, -1.0), 0.1)
        flow = flow_derivative(m, euler_solve(m, np.array([0.0, 0.5]), path))
        mats = flow.matrices()
        assert mats.shape == (9, 2, 2)
        np.testing.assert_array_equal(mats[:, 0, 1], 0.0)
        np.testing.assert_array_equal(mats[:, 0, 0], flow.jac[:, 0])
