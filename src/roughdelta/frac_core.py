"""Core fractional machinery.

Scalar special-function constants, the fractional Brownian motion (fBm)
covariance and its Volterra kernel, Riemann-Liouville fractional integral and
derivative operators and the inverse kernel transform on uniform grids, and an
iterated-integral (shuffle) identity checker.

Every fractional operator is one causal FFT convolution with a lag kernel,
through _causal_conv, the primitive the fBm sampler and the Malliavin weight
profile share: on a uniform grid, product-integration coefficients depend
only on the lag i - j.

All operations are pure functions of their inputs and safe to call
concurrently.
"""

from __future__ import annotations

import math
from contextvars import ContextVar
from dataclasses import dataclass

import numpy as np
from scipy import special

__all__ = [
    "HurstParam",
    "SampledFunction",
    "FracOrder",
    "cov_rh",
    "c_h",
    "big_c_h",
    "kernel_kh",
    "frac_int_left",
    "frac_deriv_left",
    "shuffle_check",
]

# Rows _causal_conv transforms at once.  bel._mc_mean shares this budget
# between the slices of a batch that run at once on worker threads, so their
# FFT scratch together stays that of one _CONV_ROWS chunk.
_CONV_ROWS = 256
_conv_rows: ContextVar[int] = ContextVar("conv_rows", default=_CONV_ROWS)


@dataclass(frozen=True)
class HurstParam:
    """Hurst exponent restricted to the rough regime (0, 1/2).

    Parameters
    ----------
    h : float
        Roughness exponent. h = 1/2 would recover the Wiener process and is
        excluded; the kernel and constants below all assume h < 1/2.
    """

    h: float

    def __post_init__(self) -> None:
        if not 0.0 < self.h < 0.5:
            raise ValueError(f"Hurst parameter must lie in (0, 1/2), got {self.h}")

    def strong_solution_valid(self, d: int) -> bool:
        """Whether h is below the strong-solution threshold 1/(2(d+2))."""
        return self.h < 1.0 / (2 * (d + 2))

    def continuous_version_valid(self, d: int) -> bool:
        """Whether h is below the continuous-version threshold 1/(2(d+3))."""
        return self.h < 1.0 / (2 * (d + 3))


@dataclass(frozen=True)
class SampledFunction:
    """A real function sampled on a strictly increasing time grid."""

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if grid.ndim != 1 or grid.size == 0:
            raise ValueError("grid must be a non-empty 1-d array")
        if values.shape != grid.shape:
            raise ValueError("values and grid must have the same length")
        if grid.size > 1 and not np.all(np.diff(grid) > 0):
            raise ValueError("grid must be strictly increasing")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class FracOrder:
    """Order of a fractional integral/derivative, in (0, 1]."""

    alpha: float

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"fractional order must lie in (0, 1], got {self.alpha}")


def cov_rh(h: HurstParam, t, s):
    """fBm covariance R_H(t, s) = (s^2H + t^2H - |t-s|^2H) / 2.

    Accepts scalars or broadcastable arrays; symmetric in (t, s).
    """
    t = np.asarray(t, dtype=float)
    s = np.asarray(s, dtype=float)
    if np.any(t < 0) or np.any(s < 0):
        raise ValueError("times must be non-negative")
    hh = 2.0 * h.h
    out = 0.5 * (s**hh + t**hh - np.abs(t - s) ** hh)
    return float(out) if out.ndim == 0 else out


def c_h(h: HurstParam) -> float:
    """Kernel normalization sqrt(2H / ((1-2H) B(1-2H, H+1/2)))."""
    hv = h.h
    beta = math.gamma(1 - 2 * hv) * math.gamma(hv + 0.5) / math.gamma(1.5 - hv)
    return math.sqrt(2 * hv / ((1 - 2 * hv) * beta))


def big_c_h(h: HurstParam) -> float:
    """Sensitivity-representation constant 1 / (c_H Gamma(1/2+H) Gamma(1/2-H))."""
    hv = h.h
    return 1.0 / (c_h(h) * math.gamma(0.5 + hv) * math.gamma(0.5 - hv))


def _beta_tail(h: float, x):
    """B(1-2H, H+1/2) * (1 - I_x(1-2H, H+1/2)), I the regularized incomplete beta.

    Equals the inner kernel integral int_s^t u^{H-3/2} (u-s)^{H-1/2} du after
    the substitution u = s/z, with x = s/t; exact up to special-function
    rounding, which is why no quadrature is involved here.
    """
    bfull = math.gamma(1 - 2 * h) * math.gamma(h + 0.5) / math.gamma(1.5 - h)
    return bfull * (1.0 - special.betainc(1 - 2 * h, h + 0.5, x))


def _kernel_vec(h: float, t, s):
    """Volterra kernel K_H(t, s), vectorized, no argument validation."""
    t = np.asarray(t, dtype=float)
    s = np.asarray(s, dtype=float)
    ch = c_h(HurstParam(h))
    return ch * (
        (t / s) ** (h - 0.5) * (t - s) ** (h - 0.5)
        + (0.5 - h) * s ** (h - 0.5) * _beta_tail(h, s / t)
    )


def kernel_kh(h: HurstParam, t: float, s: float) -> float:
    """Volterra kernel K_H(t, s) of the fBm representation, for 0 < s < t.

    Diverges like (t-s)^{H-1/2} as s -> t and like s^{H-1/2} as s -> 0; both
    exponents are integrable, and the function is finite for every s strictly
    inside (0, t).
    """
    if s <= 0 or s >= t:
        raise ValueError(f"kernel requires 0 < s < t, got s={s}, t={t}")
    return float(_kernel_vec(h.h, t, s))


def _causal_conv(rows: np.ndarray, weight: np.ndarray, kernel_rfft: np.ndarray, n: int):
    """Yield (chunk, y) with y[:, k] = sum_{j<=k} kernel[k-j] weight[j] rows[chunk, j], k < n.

    kernel_rfft is np.fft.rfft(kernel, 2 n): zero padding to 2n makes the
    circular product causal.  The rows go through real FFTs a chunk at a time
    to bound memory: _CONV_ROWS rows, or the share of them that _conv_rows
    sets for a worker slice.  Each row is transformed on its own, so its bits
    depend neither on the chunk nor on the batch it is in.
    """
    step = _conv_rows.get()
    for r in range(0, len(rows), step):
        chunk = slice(r, r + step)
        f = np.fft.rfft(rows[chunk] * weight, 2 * n)
        f *= kernel_rfft
        yield chunk, np.fft.irfft(f, 2 * n)[:, :n]


def _uniform_step(grid: np.ndarray, a: float) -> float:
    """Step of a uniform grid that starts at a, up to the rounding of its
    points (np.linspace, GridSpec.times); ValueError for any other grid."""
    if grid.size == 0:
        raise ValueError("empty grid")
    if grid[0] != a:
        raise ValueError(f"lower endpoint a={a} must equal grid start {grid[0]}")
    if grid.size == 1:
        return 1.0  # no cell: any step gives the (zero) integral
    dx = (grid[-1] - grid[0]) / (grid.size - 1)
    steps = np.diff(grid)
    if np.abs(steps - dx).max() > 4 * np.finfo(float).eps * np.abs(grid).max():
        raise ValueError(f"fractional operators need a uniform grid; grid spacings "
                         f"range over [{steps.min()}, {steps.max()}]")
    return dx


def _int_cells(alpha: float, dx: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Product-integration coefficients (W0, W1) of I^alpha by lag m = 0..n.

    For piecewise-linear data on a uniform grid of step dx, the integral over
    cell [x_j, x_{j+1}] against the kernel (x_i - y)^{alpha-1} is exact and
    equals W0[m] f_j + W1[m] f_{j+1}, where m = i - j and A = (m-1) dx and
    B = m dx are the distances from x_i to the cell ends.  The cell at lag 0
    is not left of x_i: W0[0] = W1[0] = 0.
    """
    A = np.arange(n) * dx
    B = np.arange(1, n + 1) * dx
    P1 = (B**alpha - A**alpha) / alpha
    P2 = (B ** (alpha + 1) - A ** (alpha + 1)) / (alpha + 1)
    g = 1.0 / math.gamma(alpha)
    return np.append(0.0, g * (P2 - A * P1) / dx), np.append(0.0, g * (B * P1 - P2) / dx)


def _lag_conv(rows: np.ndarray, weight, w0: np.ndarray, w1: np.ndarray) -> np.ndarray:
    """sum_{j<=i} kappa[i-j] f_j per row, f = weight * row and kappa[m] = w0[m] + w1[m+1].

    Moving each cell's f_{j+1} term onto f_j turns the cell sum
    sum_{j<i} w0[i-j] f_j + w1[i-j] f_{j+1} into this one causal convolution,
    plus w1[i+1] f_0, the term of the cell j = -1 that does not exist; the
    caller subtracts it where f_0 is not 0.
    """
    n = rows.shape[-1]
    kernel_rfft = np.fft.rfft(w0[:n] + w1[1:], 2 * n)
    out = np.empty(rows.shape)
    for chunk, y in _causal_conv(rows, weight, kernel_rfft, n):
        out[chunk] = y
    return out


def _cell_sum(f: np.ndarray, w0: np.ndarray, w1: np.ndarray) -> np.ndarray:
    """sum_{j<i} w0[i-j] f_j + w1[i-j] f_{j+1} for every i, f sampled on n points."""
    return _lag_conv(f[None, :], 1.0, w0, w1)[0] - w1[1:] * f[0]


def frac_int_left(alpha: FracOrder, f: SampledFunction, a: float) -> SampledFunction:
    """Left-sided Riemann-Liouville fractional integral I^alpha_{a+} f on f's uniform grid.

    The sampled data is treated as piecewise linear and the power kernel is
    integrated exactly on each cell (product integration), so the result is
    exact for affine f and second-order accurate for smooth f.  The cell
    coefficients depend only on the lag, so the sum over cells is one causal
    FFT convolution, O(N log N).
    """
    dx = _uniform_step(f.grid, a)
    return SampledFunction(f.grid, _cell_sum(f.values, *_int_cells(alpha.alpha, dx, f.grid.size)))


def frac_deriv_left(alpha: FracOrder, f: SampledFunction, a: float) -> SampledFunction:
    """Left-sided Riemann-Liouville fractional derivative D^alpha_{a+} f on f's uniform grid.

    Uses the Marchaud-style representation

        D^alpha f(x) = [ f(x)/(x-a)^alpha
                         + alpha * int_a^x (f(x)-f(y)) (x-y)^{-alpha-1} dy ]
                       / Gamma(1-alpha)

    with the increment integral product-integrated against piecewise-linear
    data, as a lag convolution like frac_int_left's.  At x = a the formula
    value is 0 when f(a) = 0 (the one-sided limit) and +/-inf otherwise.
    alpha = 1 degrades to the ordinary derivative.
    """
    grid = f.grid
    vals = f.values
    dx = _uniform_step(grid, a)
    al = alpha.alpha
    if al == 1.0:
        return SampledFunction(grid, np.gradient(vals, grid))
    n = grid.size
    # cells strictly left of x_i, at lags m = i - j >= 2; lags 0 and 1 get 0
    A = np.arange(1, n) * dx
    B = np.arange(2, n + 1) * dx
    Q1 = (A ** (-al) - B ** (-al)) / al
    Qm = (B ** (1 - al) - A ** (1 - al)) / (1 - al)
    Q1, W0, W1 = (np.append([0.0, 0.0], w) for w in (Q1, (Qm - A * Q1) / dx, (B * Q1 - Qm) / dx))
    # integral of (f(x)-f(y)) u^{-alpha-1} over those cells
    inner = vals * np.cumsum(Q1[:n]) - _cell_sum(vals, W0, W1)
    # cell adjacent to x_i: A = 0, the f(x)-f(y) ~ slope * u cancellation is exact
    inner[1:] += (vals[1:] - vals[:-1]) * dx**-al / (1 - al)
    out = np.zeros(n)
    out[1:] = (vals[1:] * (grid[1:] - a) ** -al + al * inner[1:]) / math.gamma(1 - al)
    out[0] = 0.0 if vals[0] == 0.0 else math.copysign(math.inf, vals[0])
    if np.any(np.isnan(out)):
        raise FloatingPointError("NaN in fractional derivative output")
    return SampledFunction(grid, out)


def _kh_inverse_rows(h: HurstParam, grid: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Inverse kernel transform of every row, on a uniform grid from 0; rows (B, len(grid)).

    norm t^{H-1/2} I^{1/2-H}_{0+}(t^{1/2-H} row), one lag convolution per row,
    so a row's bits do not depend on its batch.  t^{1/2-H} is 0 at t = 0, so
    the f_0 edge term drops out.  With norm = 1 / (c_H Gamma(H + 1/2)) the
    composition with the kernel is the identity: integrating K_H(t, .)
    against the transform of phi' recovers phi(t) (verified for power
    functions, where both sides are closed-form).
    """
    dx = _uniform_step(grid, 0.0)
    hv = h.h
    left = np.append(0.0, grid[1:] ** (hv - 0.5) / (c_h(h) * math.gamma(hv + 0.5)))
    right = np.append(0.0, grid[1:] ** (0.5 - hv))
    return left * _lag_conv(rows, right, *_int_cells(0.5 - hv, dx, grid.size))


def _cumtrapz(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    out = np.zeros_like(y)
    out[1:] = np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(x))
    return out


def _iterated(outer: np.ndarray, inner: np.ndarray, x: np.ndarray) -> float:
    """int f_outer(s) F_inner(s) ds over [x0, xN], exact for piecewise-linear data.

    F_inner is the running integral of the piecewise-linear inner function
    (piecewise quadratic), so the outer integrand is piecewise cubic and
    Simpson's rule on each cell with the exact midpoint value is exact.
    """
    F = _cumtrapz(inner, x)
    hseg = np.diff(x)
    fmid = 0.5 * (outer[1:] + outer[:-1])
    imid = 0.5 * (inner[1:] + inner[:-1])
    Fmid = F[:-1] + 0.25 * (inner[:-1] + imid) * hseg
    cells = hseg / 6.0 * (outer[:-1] * F[:-1] + 4.0 * fmid * Fmid + outer[1:] * F[1:])
    return float(np.sum(cells))


def shuffle_check(
    f1: SampledFunction, f2: SampledFunction, theta: float, t: float
) -> tuple[float, float]:
    """Both sides of the two-factor shuffle identity over [theta, t].

    lhs is the product of the two single integrals; rhs is the sum of the two
    iterated integrals over the ordered simplex (the two shuffles of one-letter
    words).  Both sides are evaluated exactly for the piecewise-linear
    interpolants of the sampled data, so for a common grid the identity holds
    to rounding accuracy; against smooth ground truth both sides carry the
    same O(h^2) interpolation error.
    """
    if not np.array_equal(f1.grid, f2.grid):
        raise ValueError("f1 and f2 must share a grid")
    grid = f1.grid
    i0 = int(np.searchsorted(grid, theta))
    i1 = int(np.searchsorted(grid, t))
    if not (math.isclose(grid[i0], theta, abs_tol=1e-12) and math.isclose(grid[i1], t, abs_tol=1e-12)):
        raise ValueError("theta and t must be grid points")
    if i0 >= i1:
        raise ValueError("theta must precede t on the grid")
    x = grid[i0 : i1 + 1]
    v1 = f1.values[i0 : i1 + 1]
    v2 = f2.values[i0 : i1 + 1]
    int1 = float(np.trapezoid(v1, x))
    int2 = float(np.trapezoid(v2, x))
    lhs = int1 * int2
    rhs = _iterated(v1, v2, x) + _iterated(v2, v1, x)
    return lhs, rhs
