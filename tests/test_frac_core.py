"""Unit tests for the scalar constants, kernel, and fractional operators."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from roughdelta.frac_core import (
    FracOrder,
    HurstParam,
    SampledFunction,
    big_c_h,
    c_h,
    cov_rh,
    frac_deriv_left,
    frac_int_left,
    kernel_kh,
    shuffle_check,
    _kh_inverse_rows,
)

H01 = HurstParam(0.1)


# Dense product-integration oracles: the masked n x n forms the lag
# convolutions replaced, with their arithmetic unchanged.


def _cell_coeffs_int(alpha: float, x: np.ndarray):
    """Product-integration coefficient matrices for the left fractional integral.

    For piecewise-linear data on grid x, the integral over cell [x_j, x_{j+1}]
    against the kernel (x_i - y)^{alpha-1} is exact.  Returns (W0, W1) such
    that I^alpha f(x_i) = sum_j W0[i,j] f_j + W1[i,j] f_{j+1}.
    """
    X = x[:, None]
    Y0 = x[None, :-1]
    Y1 = x[None, 1:]
    H = Y1 - Y0
    mask = X >= Y1  # cells [x_j, x_{j+1}] entirely left of the evaluation point
    A = np.where(mask, X - Y1, 1.0)
    B = np.where(mask, X - Y0, 1.0)
    P1 = (B**alpha - A**alpha) / alpha
    P2 = (B ** (alpha + 1) - A ** (alpha + 1)) / (alpha + 1)
    g = 1.0 / math.gamma(alpha)
    W0 = np.where(mask, g * (P2 - A * P1) / H, 0.0)
    W1 = np.where(mask, g * (B * P1 - P2) / H, 0.0)
    return W0, W1


def frac_int_left_matrix(alpha: FracOrder, grid: np.ndarray, a: float) -> np.ndarray:
    """Linear operator L with (I^alpha_{a+} f)(grid) = L @ f(grid)."""
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("empty grid")
    if grid[0] != a:
        raise ValueError(f"lower endpoint a={a} must equal grid start {grid[0]}")
    n = grid.size
    L = np.zeros((n, n))
    if n > 1:
        W0, W1 = _cell_coeffs_int(alpha.alpha, grid)
        L[:, :-1] += W0
        L[:, 1:] += W1
    return L


def dense_frac_deriv_left(alpha: FracOrder, f: SampledFunction, a: float) -> np.ndarray:
    """Marchaud-form D^alpha_{a+} f by masked n x n cell sums."""
    grid = f.grid
    vals = f.values
    if grid.size == 0:
        raise ValueError("empty grid")
    if grid[0] != a:
        raise ValueError(f"lower endpoint a={a} must equal grid start {grid[0]}")
    al = alpha.alpha
    if al == 1.0:
        return np.gradient(vals, grid)
    n = grid.size
    out = np.zeros(n)
    ginv = 1.0 / math.gamma(1 - al)
    X = grid[:, None]
    Y0 = grid[None, :-1]
    Y1 = grid[None, 1:]
    H = Y1 - Y0
    strict = X > Y1  # cells strictly left of x_i
    A = np.where(strict, X - Y1, 1.0)
    B = np.where(strict, X - Y0, 1.0)
    Q1 = (A ** (-al) - B ** (-al)) / al
    Qm = (B ** (1 - al) - A ** (1 - al)) / (1 - al)
    # integral of (f(x)-f(y)) u^{-alpha-1} over interior cells
    contrib = (
        vals[:, None] * Q1
        - (vals[None, :-1] * (Qm - A * Q1) + vals[None, 1:] * (B * Q1 - Qm)) / H
    )
    inner = np.sum(np.where(strict, contrib, 0.0), axis=1)
    # cell adjacent to x_i: A = 0, the f(x)-f(y) ~ slope * u cancellation is exact
    i = np.arange(1, n)
    hlast = grid[i] - grid[i - 1]
    inner[1:] += (vals[i] - vals[i - 1]) * hlast**-al / (1 - al)
    out[1:] = ginv * (vals[1:] * (grid[1:] - a) ** -al + al * inner[1:])
    out[0] = 0.0 if vals[0] == 0.0 else math.copysign(math.inf, vals[0])
    return out


def kh_inverse_matrix(h: HurstParam, grid: np.ndarray) -> np.ndarray:
    """Matrix form of the inverse kernel transform on a fixed grid (row 0 is zero)."""
    grid = np.asarray(grid, dtype=float)
    if grid[0] != 0.0:
        raise ValueError("grid must start at 0")
    hv = h.h
    L = frac_int_left_matrix(FracOrder(0.5 - hv), grid, 0.0)
    left = np.zeros_like(grid)
    left[1:] = grid[1:] ** (hv - 0.5)
    right = np.zeros_like(grid)
    right[1:] = grid[1:] ** (0.5 - hv)
    norm = 1.0 / (c_h(h) * math.gamma(hv + 0.5))
    return norm * left[:, None] * L * right[None, :]


def assert_matches_dense(new: np.ndarray, dense: np.ndarray) -> None:
    """Equal infinities, and finite entries within 1e-13 max(1, |dense|)."""
    np.testing.assert_array_equal(np.isfinite(new), np.isfinite(dense))
    np.testing.assert_array_equal(new[~np.isfinite(dense)], dense[~np.isfinite(dense)])
    fin = np.isfinite(dense)
    err = np.abs(new[fin] - dense[fin])
    assert np.all(err <= 1e-13 * np.maximum(1.0, np.abs(dense[fin]))), err.max()


# grid sizes and orders of the dense-oracle comparisons
ORACLE_POINTS = (1, 2, 3, 65, 1025)
ORACLE_ALPHAS = (0.25, 0.4, 0.499, 1.0)
NON_UNIFORM = np.linspace(0.0, 1.0, 9) ** 2


def _oracle_input(n: int) -> SampledFunction:
    # f(0) = 1, so an operator that loses the f_0 edge term is caught
    x = np.linspace(0.0, 1.0, n)
    return SampledFunction(x, np.cos(3.0 * x) + 0.5 * x)


class TestHurstParam:
    def test_range_validation(self):
        with pytest.raises(ValueError):
            HurstParam(0.5)
        with pytest.raises(ValueError):
            HurstParam(0.0)
        with pytest.raises(ValueError):
            HurstParam(-0.1)

    def test_validity_thresholds(self):
        assert HurstParam(0.1).strong_solution_valid(1)
        assert not HurstParam(0.2).strong_solution_valid(1)
        assert HurstParam(0.1).continuous_version_valid(1)
        assert not HurstParam(0.13).continuous_version_valid(1)


class TestCovariance:
    def test_variance_is_power_law(self):
        for t in (0.25, 1.0, 2.0):
            assert cov_rh(H01, t, t) == pytest.approx(t**0.2, rel=1e-14)

    def test_known_value(self):
        # R(1, 0.5) = (0.5^0.2 + 1 - 0.5^0.2) / 2 = 0.5 for any h
        assert cov_rh(H01, 1.0, 0.5) == pytest.approx(0.5, rel=1e-14)

    def test_rejects_negative_times(self):
        with pytest.raises(ValueError):
            cov_rh(H01, -1.0, 0.5)

    @settings(max_examples=50, deadline=None)
    @given(
        t=st.floats(0.01, 10.0),
        s=st.floats(0.01, 10.0),
        h=st.floats(0.02, 0.48),
    )
    def test_symmetry(self, t, s, h):
        hp = HurstParam(h)
        assert cov_rh(hp, t, s) == pytest.approx(cov_rh(hp, s, t), rel=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(
        t=st.floats(0.01, 5.0),
        s=st.floats(0.01, 5.0),
        k=st.integers(-3, 2),
        h=st.floats(0.05, 0.45),
    )
    def test_self_similarity(self, t, s, k, h):
        # a power of two scales t, s and t - s exactly; a general factor
        # rounds c t and c s, and |t - s|^{2H} amplifies that ulp when t ~ s
        c = 2.0**k
        hp = HurstParam(h)
        assert cov_rh(hp, c * t, c * s) == pytest.approx(
            c ** (2 * h) * cov_rh(hp, t, s), rel=1e-10
        )


class TestConstants:
    def test_c_h_definition(self):
        h = 0.1
        beta = math.gamma(1 - 2 * h) * math.gamma(h + 0.5) / math.gamma(1.5 - h)
        expected = math.sqrt(2 * h / ((1 - 2 * h) * beta))
        assert c_h(H01) == pytest.approx(expected, rel=1e-14)

    def test_big_c_h_definition(self):
        h = 0.1
        expected = 1.0 / (c_h(H01) * math.gamma(0.5 + h) * math.gamma(0.5 - h))
        assert big_c_h(H01) == pytest.approx(expected, rel=1e-14)


class TestKernel:
    def test_domain_validation(self):
        with pytest.raises(ValueError):
            kernel_kh(H01, 1.0, 1.0)
        with pytest.raises(ValueError):
            kernel_kh(H01, 1.0, 0.0)
        with pytest.raises(ValueError):
            kernel_kh(H01, 0.5, 0.7)

    def test_closed_form_matches_quadrature(self):
        # the betainc tail must equal the direct integral
        # int_s^t u^{H-3/2}(u-s)^{H-1/2} du term by term
        h = 0.1
        hp = HurstParam(h)
        for t, s in ((1.0, 0.4), (0.7, 0.3), (2.0, 1.9)):
            inner, _ = quad(
                lambda u: u ** (h - 1.5) * (u - s) ** (h - 0.5), s, t, limit=200
            )
            direct = c_h(hp) * (
                (t / s) ** (h - 0.5) * (t - s) ** (h - 0.5)
                + (0.5 - h) * s ** (0.5 - h) * inner
            )
            assert kernel_kh(hp, t, s) == pytest.approx(direct, rel=1e-7)

    def test_reproduces_covariance(self):
        # int_0^s K(t,u) K(s,u) du = R(t,s)
        for t, s in ((1.0, 0.5), (0.7, 0.3)):
            val, _ = quad(
                lambda u: kernel_kh(H01, t, u) * kernel_kh(H01, s, u),
                0,
                s,
                limit=300,
            )
            assert val == pytest.approx(cov_rh(H01, t, s), rel=1e-6)

    def test_scaling(self):
        # K(ct, cs) = c^{H-1/2} K(t, s)
        h = 0.1
        base = kernel_kh(H01, 1.0, 0.4)
        assert kernel_kh(H01, 2.0, 0.8) == pytest.approx(
            2.0 ** (h - 0.5) * base, rel=1e-12
        )


class TestSampledFunction:
    def test_validation(self):
        with pytest.raises(ValueError):
            SampledFunction(np.array([0.0, 1.0, 0.5]), np.zeros(3))
        with pytest.raises(ValueError):
            SampledFunction(np.array([0.0, 1.0]), np.zeros(3))
        with pytest.raises(ValueError):
            SampledFunction(np.array([]), np.array([]))


class TestFracIntegral:
    def test_constant_closed_form(self):
        x = np.linspace(0.0, 1.0, 1025)
        for alpha in (0.25, 0.4):
            out = frac_int_left(FracOrder(alpha), SampledFunction(x, np.ones_like(x)), 0.0)
            ref = x**alpha / math.gamma(1 + alpha)
            assert np.max(np.abs(out.values - ref)) < 1e-8

    def test_affine_exact(self):
        x = np.linspace(0.0, 1.0, 65)
        alpha = 0.3
        out = frac_int_left(FracOrder(alpha), SampledFunction(x, 2.0 + 3.0 * x), 0.0)
        ref = 2.0 * x**alpha / math.gamma(1 + alpha) + 3.0 * x ** (alpha + 1) / math.gamma(
            2 + alpha
        )
        assert np.max(np.abs(out.values - ref)) < 1e-13

    def test_semigroup(self):
        x = np.linspace(0.0, 1.0, 1025)
        f = SampledFunction(x, np.sin(x))
        for a, b in ((0.25, 0.4), (0.3, 0.3)):
            left = frac_int_left(
                FracOrder(b), frac_int_left(FracOrder(a), f, 0.0), 0.0
            )
            right = frac_int_left(FracOrder(a + b), f, 0.0)
            assert np.max(np.abs(left.values - right.values)) < 1e-6

    def test_order_one_is_plain_integral(self):
        x = np.linspace(0.0, 1.0, 257)
        out = frac_int_left(FracOrder(1.0), SampledFunction(x, x), 0.0)
        assert np.max(np.abs(out.values - 0.5 * x**2)) < 1e-12

    def test_grid_endpoint_validation(self):
        x = np.linspace(0.5, 1.0, 8)
        with pytest.raises(ValueError):
            frac_int_left(FracOrder(0.3), SampledFunction(x, x), 0.0)

    @pytest.mark.parametrize("n", ORACLE_POINTS)
    @pytest.mark.parametrize("alpha", ORACLE_ALPHAS)
    def test_matches_dense_oracle(self, n, alpha):
        f = _oracle_input(n)
        out = frac_int_left(FracOrder(alpha), f, 0.0)
        assert_matches_dense(out.values, frac_int_left_matrix(FracOrder(alpha), f.grid, 0.0) @ f.values)

    def test_rejects_non_uniform_grid(self):
        with pytest.raises(ValueError, match="uniform grid"):
            frac_int_left(FracOrder(0.3), SampledFunction(NON_UNIFORM, NON_UNIFORM), 0.0)


class TestFracDerivative:
    def test_inverts_integral(self):
        x = np.linspace(0.0, 1.0, 1025)
        f = SampledFunction(x, np.sin(x))
        for alpha in (0.25, 0.4):
            o = FracOrder(alpha)
            back = frac_deriv_left(o, frac_int_left(o, f, 0.0), 0.0)
            assert np.max(np.abs(back.values[1:] - f.values[1:])) < 1e-4

    def test_constant_closed_form(self):
        x = np.linspace(0.0, 1.0, 257)
        alpha = 0.3
        out = frac_deriv_left(FracOrder(alpha), SampledFunction(x, np.ones_like(x)), 0.0)
        ref = x[1:] ** -alpha / math.gamma(1 - alpha)
        assert np.max(np.abs(out.values[1:] - ref)) < 1e-12

    def test_origin_value(self):
        x = np.linspace(0.0, 1.0, 9)
        out = frac_deriv_left(FracOrder(0.3), SampledFunction(x, x), 0.0)
        assert out.values[0] == 0.0
        out = frac_deriv_left(FracOrder(0.3), SampledFunction(x, 1.0 + x), 0.0)
        assert out.values[0] == math.inf

    def test_order_one_limit(self):
        x = np.linspace(0.0, 1.0, 513)
        f = SampledFunction(x, np.sin(x))
        d1 = frac_deriv_left(FracOrder(1.0), f, 0.0)
        d99 = frac_deriv_left(FracOrder(0.999), f, 0.0)
        assert np.max(np.abs(d1.values[5:] - d99.values[5:])) < 2e-2

    @pytest.mark.parametrize("n", ORACLE_POINTS)
    @pytest.mark.parametrize("alpha", ORACLE_ALPHAS)
    def test_matches_dense_oracle(self, n, alpha):
        f = _oracle_input(n)
        if n == 1 and alpha == 1.0:
            # np.gradient needs two points: both forms raise the same error
            raised = []
            for op in (frac_deriv_left, dense_frac_deriv_left):
                with pytest.raises(Exception) as err:
                    op(FracOrder(alpha), f, 0.0)
                raised.append(err.type)
            assert raised[0] is raised[1]
            return
        out = frac_deriv_left(FracOrder(alpha), f, 0.0)
        assert_matches_dense(out.values, dense_frac_deriv_left(FracOrder(alpha), f, 0.0))

    def test_rejects_non_uniform_grid(self):
        with pytest.raises(ValueError, match="uniform grid"):
            frac_deriv_left(FracOrder(0.3), SampledFunction(NON_UNIFORM, NON_UNIFORM), 0.0)


class TestKhInverse:
    def test_linear_input_closed_form(self):
        # phi(t) = t, phi' = 1:
        # psi(s) = Gamma(3/2-H)/Gamma(2-2H) / (c_H Gamma(H+1/2)) s^{1/2-H}
        h = 0.1
        hp = HurstParam(h)
        x = np.linspace(0.0, 1.0, 513)
        out = _kh_inverse_rows(hp, x, np.ones((1, x.size)))[0]
        const = math.gamma(1.5 - h) / math.gamma(2 - 2 * h)
        const /= c_h(hp) * math.gamma(h + 0.5)
        ref = const * x ** (0.5 - h)
        # product integration loses accuracy near the s^{1/2-H} cusp at 0
        err = np.abs(out - ref)
        assert np.max(err[x >= 0.1]) < 1e-3
        assert err[-1] < 1e-4

    def test_kernel_composition_is_identity(self):
        # int_0^t K(t,s) psi(s) ds = t for psi the transform of phi(t)=t
        h = 0.1
        hp = HurstParam(h)
        const = math.gamma(1.5 - h) / math.gamma(2 - 2 * h)
        const /= c_h(hp) * math.gamma(h + 0.5)
        for t in (0.5, 1.0):
            val, _ = quad(
                lambda s: kernel_kh(hp, t, s) * const * s ** (0.5 - h),
                1e-13,
                t * (1 - 1e-12),
                limit=300,
            )
            assert val == pytest.approx(t, rel=1e-6)

    @pytest.mark.parametrize("n", ORACLE_POINTS)
    @pytest.mark.parametrize("hv", (0.25, 0.1, 0.001))  # orders 1/2 - H of ORACLE_ALPHAS
    def test_matches_dense_oracle(self, n, hv):
        f = _oracle_input(n)
        out = _kh_inverse_rows(HurstParam(hv), f.grid, f.values[None, :])[0]
        assert_matches_dense(out, kh_inverse_matrix(HurstParam(hv), f.grid) @ f.values)

    def test_is_row_of_batch_transform(self):
        # a batch of one has the bits of its row in a batch, wherever the
        # row sits in the batch
        x = np.linspace(0.0, 1.0, 129)
        rows = np.random.default_rng(3).normal(size=(300, x.size))
        batch = _kh_inverse_rows(H01, x, rows)
        for r in (0, 1, 299):
            one = _kh_inverse_rows(H01, x, rows[r][None, :])
            assert one.shape == (1, x.size)
            assert one[0].tobytes() == batch[r].tobytes()

    def test_rejects_non_uniform_grid(self):
        with pytest.raises(ValueError, match="uniform grid"):
            _kh_inverse_rows(H01, NON_UNIFORM, np.ones((1, NON_UNIFORM.size)))


class TestShuffle:
    def _grid(self, n=2048):
        return np.linspace(0.0, 1.0, n + 1)

    def test_pairs_close(self):
        x = self._grid()
        pairs = [
            (SampledFunction(x, x), SampledFunction(x, np.ones_like(x))),
            (SampledFunction(x, np.sin(x)), SampledFunction(x, np.cos(x))),
            (SampledFunction(x, np.exp(-x)), SampledFunction(x, x**2)),
        ]
        for f1, f2 in pairs:
            lhs, rhs = shuffle_check(f1, f2, 0.0, 1.0)
            assert abs(lhs - rhs) <= 1e-8

    def test_subinterval(self):
        x = self._grid(256)
        f1 = SampledFunction(x, x)
        f2 = SampledFunction(x, x**2)
        lhs, rhs = shuffle_check(f1, f2, 0.25, 0.75)
        assert abs(lhs - rhs) <= 1e-8

    def test_endpoint_validation(self):
        x = self._grid(16)
        f = SampledFunction(x, x)
        with pytest.raises(ValueError):
            shuffle_check(f, f, 0.5, 0.5)
        with pytest.raises(ValueError):
            shuffle_check(f, f, 0.33, 1.0)
