"""Joint (Wiener, fBm) path sampling via the Volterra kernel.

The sampler draws i.i.d. Wiener increments and builds the fBm path from them
with the split Molchan-Golosov kernel: one causal FFT convolution, a running
integral and O(N) corrections of the cells next to the kernel's singularities,
O(N log N) per path with O(N) precomputed tables.  So every path carries both
the driving Brownian increments and the fractional path they generate.  An
exact dense-Cholesky sampler over the grid covariance serves as a
distributional reference, and a covariance report quantifies agreement.

Randomness is counter-based (Philox): a (master_seed, path_index, stream)
triple addresses a disjoint counter block, so path generation is reproducible
and independent of scheduling.
"""

from __future__ import annotations

import math
import threading
import warnings
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy import special

from .frac_core import HurstParam, _causal_conv, _kernel_vec, c_h, cov_rh

__all__ = [
    "GridSpec",
    "CovarianceReport",
    "volterra_weights",
    "sample_joint_batch",
    "wiener_increment_batch",
    "sample_cholesky_batch",
    "covariance_report",
]

_MAX_CHOLESKY_STEPS = 4096

# The per-path reset loop of _normal_block gives up the GIL once per path; two
# such loops at once only trade it back and forth, so they take turns and a
# concurrent slice's FFT and solve work overlaps them instead.
_PHILOX_LOOP = threading.Lock()


@dataclass(frozen=True)
class GridSpec:
    """Uniform time grid t_k = k T / n on [0, T]."""

    horizon: float
    n_steps: int

    def __post_init__(self) -> None:
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        if self.n_steps < 2:
            raise ValueError("need at least 2 steps")

    @property
    def dt(self) -> float:
        return self.horizon / self.n_steps

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.n_steps + 1) * self.dt


def _normal_block(
    master_seed: int, start: int, count: int, shape: tuple, stream: int
) -> np.ndarray:
    """Standard normals for paths start .. start+count-1, shape (count, *shape).

    Path p reads the Philox counter block [0, start + p, stream, 0] under the
    key (master_seed, 0), so its numbers depend only on (master_seed, path
    index, stream) and distinct indices or streams never overlap.  One
    generator serves the whole block: before each path its state is set from
    one dict of plain ints and lists, which resets the counter and empties
    the buffer (buffer_pos 4, has_uint32 0) at a fraction of the cost of
    numpy-array state.  Each call has its own generator, so calls from several
    threads give the same numbers; their loops run one at a time.
    """
    if not 0 <= master_seed < 2**64:
        raise ValueError("master_seed must fit in 64 bits")
    if start < 0:
        raise ValueError("path index must be non-negative")
    bg = np.random.Philox(key=np.array([master_seed, 0], dtype=np.uint64))
    normal = np.random.Generator(bg).standard_normal
    counter = [0, 0, stream, 0]
    state = {
        "bit_generator": "Philox",
        "state": {"counter": counter, "key": [master_seed, 0]},
        "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }
    out = np.empty((count, *shape))
    with _PHILOX_LOOP:
        for p, row in enumerate(out, start):
            counter[1] = p
            bg.state = state
            normal(out=row)
    return out


# Per-step tables of the split sampler; see _split_tables.
_TABLE = np.dtype(
    [("lag", float), ("src", float), ("scale", float), ("step", float),
     ("diag", float), ("col", float, (2,))]
)


@lru_cache(maxsize=16)
def _split_tables(h: float, n: int, T: float) -> np.ndarray:
    """O(n) tables of bh_k = c_H [t_k^{H-1/2} Y_k + (1/2-H) I_k], one row per step.

    With e = 1/2 - H the Molchan-Golosov kernel splits as
    K(t, s) = c_H s^e [t^{-e} (t-s)^{-e} + e int_s^t u^{-e-1} (u-s)^{-e} du],
    so bh(t) = c_H [t^{-e} Y(t) + e int_0^t u^{-e-1} Y(u) du] with the one
    causal convolution Y(u) = int_0^u (u-s)^{-e} s^e dW_s.  Row k-1 holds:

    - lag: the exact cell average (1/dt) int u^{-e} du over [(k-1) dt, k dt];
      Y_k = sum_{j<k} lag[k-1-j] src[j] dW_j, with src[j] = s^e at the
      midpoint of cell j;
    - scale: c_H t_k^{-e}; step: c_H e/2 int u^{-e-1} du over cell k, the
      trapezoid weight of (Y_{k-1} + Y_k) in the running integral I.  The
      first cell of I has step 0: it sees only dW_0, whose column is set below;
    - diag, col: O(n) corrections that give the cells next to the two
      singularities the dense values: diag[k-1] multiplies dW_{k-1} and makes
      its weight the L2-matched Gauss-Jacobi value sqrt((1/dt) int_cell K^2 ds);
      col[k-1] multiplies (dW_0, dW_1) and makes the first column L2-matched
      and the second the 12-point Gauss-Legendre cell average of K.

    Plain cell averages lose the within-cell variance of the kernel, which for
    small H concentrates in the two singular cells (over 30% of the total at
    H = 0.05, N = 512); the L2-matched cells bring the terminal variance back
    to within ~0.1%.  The second column is the cell with the largest split
    error (about 1% at H = 0.1); taking it from the dense value keeps every
    row within 3e-3 relative L2 of the dense weight matrix.
    """
    dt = T / n
    t = np.arange(n + 1) * dt
    e = 0.5 - h
    ch = c_h(HurstParam(h))
    tab = np.zeros(n, _TABLE)
    lag = (t[1:] ** (1 - e) - t[:-1] ** (1 - e)) / ((1 - e) * dt)
    src = ((np.arange(n) + 0.5) * dt) ** e
    scale = ch * t[1:] ** -e
    step = np.zeros(n)
    step[1:] = 0.5 * ch * (t[1:-1] ** -e - t[2:] ** -e)

    # dense values of the corrected cells: rows k = 2..n of the first column
    # and the diagonal, rows k = 3..n of the second column
    xj0, wj0 = special.roots_jacobi(16, 0.0, 2 * h - 1.0)
    xjl, wjl = special.roots_jacobi(24, 2 * h - 1.0, 0.0)
    xg, wg = np.polynomial.legendre.leggauss(12)
    half = (dt / 2) ** (2 * h)
    tk = t[2:, None]
    s0 = (xj0 + 1) * 0.5 * dt
    first = np.sum(wj0 * _kernel_vec(h, tk, s0) ** 2 * s0 ** (1 - 2 * h), axis=1)
    sl = t[1:-1, None] + (xjl + 1) * 0.5 * dt
    last = np.sum(wjl * _kernel_vec(h, tk, sl) ** 2 * (tk - sl) ** (1 - 2 * h), axis=1)
    second = 0.5 * np.sum(wg * _kernel_vec(h, t[3:, None], t[1] + (xg + 1) * 0.5 * dt), axis=1)
    diag = np.empty(n)
    diag[0] = math.sqrt(t[1] ** (2 * h) / dt)  # row 1 is one doubly-singular cell
    diag[1:] = np.sqrt(half * last / dt)

    # subtract what the split gives those cells
    tab["diag"] = diag - (scale + step) * lag[0] * src
    pair = np.concatenate(([lag[0]], lag[:-1] + lag[1:]))
    for j, dense in ((0, np.sqrt(half * first / dt)), (1, second)):
        k = np.arange(j + 2, n + 1)
        run = np.cumsum(step[j:] * pair[: n - j])
        tab["col"][j + 1 :, j] = dense - src[j] * (scale[k - 1] * lag[k - 1 - j] + run[k - 1 - j])
    tab["lag"], tab["src"], tab["scale"], tab["step"] = lag, src, scale, step
    tab.flags.writeable = False
    return tab


def volterra_weights(grid: GridSpec, h: HurstParam) -> np.ndarray:
    """The sampler's O(N) per-step tables (a structured array); cached per config."""
    return _split_tables(h.h, grid.n_steps, grid.horizon)


def _volterra_paths(grid: GridSpec, h: HurstParam, dW: np.ndarray) -> np.ndarray:
    """fBm paths bh, shape (B, n+1, d), driven by the increments dW, shape (B, n, d).

    Per row: one causal FFT convolution for Y, a cumsum for the running
    integral, and the O(n) cell corrections, all elementwise along the row.
    """
    n = grid.n_steps
    tab = volterra_weights(grid, h)
    fk = np.fft.rfft(tab["lag"], 2 * n)
    bh = np.zeros((len(dW), n + 1, dW.shape[2]))
    for i in range(dW.shape[2]):
        x = dW[:, :, i]
        for rows, y in _causal_conv(x, tab["src"], fk, n):
            run = np.zeros_like(y)
            np.add(y[:, :-1], y[:, 1:], out=run[:, 1:])
            run *= tab["step"]
            np.cumsum(run, axis=1, out=run)
            xr = x[rows]
            # scale y + run + diag x + col0 x_0 + col1 x_1, added in this
            # order: a path's bits depend on it
            out = bh[rows, 1:, i]
            np.multiply(tab["scale"], y, out=out)
            out += run
            out += tab["diag"] * xr
            out += tab["col"][:, 0] * xr[:, :1]
            out += tab["col"][:, 1] * xr[:, 1:2]
    return bh


def sample_joint_batch(
    grid: GridSpec,
    h: HurstParam,
    d: int,
    master_seed: int,
    start_index: int,
    count: int,
    stream: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Joint (Wiener increments, fBm path) samples for consecutive path indices.

    Returns (dW, bh) of shapes (count, n, d) and (count, n+1, d), with dW
    entries ~ N(0, dt), bh[:, 0] = 0 and bh[:, k] the split Volterra sum of
    dW up to t_k (see _split_tables).  Components are independent and share
    the tables.  Path p is a pure function of (grid, h, d, master_seed,
    start_index + p, stream): one path is the batch of one,
    sample_joint_batch(..., start_index=i, count=1).
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")
    n = grid.n_steps
    dW = _normal_block(master_seed, start_index, count, (n, d), stream)
    dW *= math.sqrt(grid.dt)
    return dW, _volterra_paths(grid, h, dW)


def wiener_increment_batch(
    grid: GridSpec, master_seed: int, start_index: int, count: int, stream: int
) -> np.ndarray:
    """Plain N(0, dt) increment batch on its own stream, shape (count, n)."""
    dW = _normal_block(master_seed, start_index, count, (grid.n_steps,), stream)
    dW *= math.sqrt(grid.dt)
    return dW


class CholeskyFactorizationError(RuntimeError):
    """The dense grid covariance did not factorize, even with diagonal jitter."""

    def __init__(self, n_steps: int, h: float):
        super().__init__(
            f"fBm covariance with n_steps={n_steps}, h={h} is not numerically"
            " positive definite, even with 1e-12 diagonal jitter"
        )
        self.n_steps = n_steps
        self.h = h


@lru_cache(maxsize=8)
def _cholesky_factor(h: float, n_steps: int, horizon: float) -> np.ndarray:
    if n_steps > _MAX_CHOLESKY_STEPS:
        raise ValueError(f"n_steps > {_MAX_CHOLESKY_STEPS} not supported for dense factorization")
    dt = horizon / n_steps
    t = np.arange(1, n_steps + 1) * dt
    tt, ss = np.meshgrid(t, t, indexing="ij")
    hh = 2 * h
    R = 0.5 * (tt**hh + ss**hh - np.abs(tt - ss) ** hh)
    try:
        L = np.linalg.cholesky(R)
    except np.linalg.LinAlgError:
        warnings.warn(
            "covariance matrix numerically non-PD; retrying with 1e-12 diagonal jitter",
            RuntimeWarning,
        )
        try:
            L = np.linalg.cholesky(R + 1e-12 * np.eye(n_steps))
        except np.linalg.LinAlgError as exc:
            raise CholeskyFactorizationError(n_steps, h) from exc
    return L


def sample_cholesky_batch(
    grid: GridSpec, h: HurstParam, master_seed: int, start_index: int, count: int
) -> np.ndarray:
    """Exact Gaussian fBm samples on the grid by dense Cholesky, shape (count, n+1).

    Distributional reference only: no Wiener increments are produced, and the
    value at t_0 = 0 is exactly 0.  Path p reads stream 0 of path index
    start_index + p and is the row-wise product L z_p, so it is the same bits
    in any batch.
    """
    L = _cholesky_factor(h.h, grid.n_steps, grid.horizon)
    z = _normal_block(master_seed, start_index, count, (grid.n_steps,), 0)
    out = np.zeros((count, grid.n_steps + 1))
    out[:, 1:] = np.einsum("pj,kj->pk", z, L)
    return out


@dataclass(frozen=True)
class CovarianceReport:
    """Entrywise comparison of a sample covariance against the fBm target."""

    times: np.ndarray
    sample_cov: np.ndarray
    target: np.ndarray
    deviation_se: np.ndarray = field(repr=False)
    max_deviation_se: float = 0.0
    n_paths: int = 0


def covariance_report(
    values: np.ndarray, times: np.ndarray, h: HurstParam
) -> CovarianceReport:
    """Compare the sample covariance of path values against cov_rh.

    Parameters
    ----------
    values : array, shape (n_paths, m)
        Path values at the supplied times (one row per path).
    times : array, shape (m,)
        Grid times the columns refer to.
    h : HurstParam

    Deviations are reported in units of the asymptotic standard error of a
    Gaussian sample covariance, se_ij = sqrt((R_ii R_jj + R_ij^2) / n).
    """
    values = np.asarray(values, dtype=float)
    times = np.asarray(times, dtype=float)
    if values.ndim != 2 or values.shape[0] < 2:
        raise ValueError("need at least 2 paths")
    n_paths = values.shape[0]
    sample = values.T @ values / n_paths  # mean-zero target process
    tt, ss = np.meshgrid(times, times, indexing="ij")
    target = cov_rh(h, tt, ss)
    se = np.sqrt((np.outer(np.diag(target), np.diag(target)) + target**2) / n_paths)
    with np.errstate(divide="ignore", invalid="ignore"):
        dev = np.where(se > 0, np.abs(sample - target) / se, 0.0)
    return CovarianceReport(
        times=times,
        sample_cov=sample,
        target=target,
        deviation_se=dev,
        max_deviation_se=float(dev.max()),
        n_paths=n_paths,
    )
