"""Joint (Wiener, fBm) path sampling via the Volterra kernel.

The sampler draws i.i.d. Wiener increments and builds the fBm path as a
weighted sum against precomputed integrated-kernel weights, so every path
carries both the driving Brownian increments and the fractional path they
generate.  An exact dense-Cholesky sampler over the grid covariance serves as
a distributional reference, and a covariance report quantifies agreement.

Randomness is counter-based (Philox): a (master_seed, path_index, stream)
triple addresses a disjoint counter block, so path generation is reproducible
and independent of scheduling.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy import special

from .frac_core import HurstParam, cov_rh, _kernel_vec

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
    generator serves the whole block: its counter is reset and its buffer
    cleared before each path.
    """
    if not 0 <= master_seed < 2**64:
        raise ValueError("master_seed must fit in 64 bits")
    if start < 0:
        raise ValueError("path index must be non-negative")
    bg = np.random.Philox(key=np.array([master_seed, 0], dtype=np.uint64))
    rng = np.random.Generator(bg)
    state = bg.state  # fresh, so its buffer is empty (buffer_pos 4, has_uint32 0)
    counter = state["state"]["counter"]
    counter[2] = stream
    out = np.empty((count, *shape))
    for p in range(count):
        counter[1] = start + p
        bg.state = state
        rng.standard_normal(shape, out=out[p])
    return out


@lru_cache(maxsize=16)
def _weights_cached(h: float, n_steps: int, horizon: float) -> np.ndarray:
    return _volterra_weights_impl(h, n_steps, horizon)


def _volterra_weights_impl(h: float, n: int, T: float) -> np.ndarray:
    """Integrated-kernel weight matrix w[k, j], k = 0..n rows, j = 0..n-1.

    Interior cells carry the cell average (1/dt) int_cell K(t_k, s) ds,
    computed with 12-point Gauss-Legendre on the closed-form kernel.  The two
    singular cells of each row (s near 0 and s near t_k, where K^2 blows up
    like s^{2H-1} and (t_k - s)^{2H-1}) instead carry the cell's L2 norm
    sqrt((1/dt) int_cell K^2 ds), evaluated by Gauss-Jacobi quadrature with
    the matching weight exponent.  Plain cell averages lose the within-cell
    variance of the kernel, which for small H concentrates in exactly those
    two cells (over 30% of the total at H = 0.05, N = 512); the L2-matched
    ends bring the terminal variance back to within ~0.1% while leaving the
    off-diagonal covariance errors at coarse lags far below Monte-Carlo
    resolution.
    """
    dt = T / n
    t = np.arange(n + 1) * dt
    W = np.zeros((n + 1, n))
    xg, wg = np.polynomial.legendre.leggauss(12)
    xj0, wj0 = special.roots_jacobi(16, 0.0, 2 * h - 1.0)
    xjl, wjl = special.roots_jacobi(24, 2 * h - 1.0, 0.0)
    s0 = (xj0 + 1) * 0.5 * dt          # first-cell Jacobi nodes
    half = (dt / 2) ** (2 * h)
    for k in range(1, n + 1):
        tk = t[k]
        if k == 1:
            # the whole row is one doubly-singular cell; its L2 norm is exact
            W[k, 0] = math.sqrt(tk ** (2 * h) / dt)
            continue
        i2 = half * np.sum(wj0 * _kernel_vec(h, tk, s0) ** 2 * s0 ** (1 - 2 * h))
        W[k, 0] = math.sqrt(i2 / dt)
        sl = t[k - 1] + (xjl + 1) * 0.5 * dt
        i2l = half * np.sum(
            wjl * _kernel_vec(h, tk, sl) ** 2 * (tk - sl) ** (1 - 2 * h)
        )
        W[k, k - 1] = math.sqrt(i2l / dt)
        if k > 2:
            a = t[1 : k - 1][:, None]
            nodes = a + (xg[None, :] + 1) * 0.5 * dt
            W[k, 1 : k - 1] = 0.5 * np.sum(wg[None, :] * _kernel_vec(h, tk, nodes), axis=1)
    return W


def volterra_weights(grid: GridSpec, h: HurstParam) -> np.ndarray:
    """Weight matrix w[k, j] with bh[k] = sum_j w[k, j] dW[j]; cached per config."""
    return _weights_cached(h.h, grid.n_steps, grid.horizon)


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
    entries ~ N(0, dt), bh[:, 0] = 0 and bh[:, k] = sum_j w[k, j] dW[:, j].
    Components are independent and share the weight matrix.  Path p is a pure
    function of (grid, h, d, master_seed, start_index + p, stream): one path
    is the batch of one, sample_joint_batch(..., start_index=i, count=1).
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")
    W = volterra_weights(grid, h)
    n = grid.n_steps
    dW = _normal_block(master_seed, start_index, count, (n, d), stream)
    dW *= math.sqrt(grid.dt)
    bh = np.einsum("kj,pjd->pkd", W, dW)
    return dW, bh


def wiener_increment_batch(
    grid: GridSpec, master_seed: int, start_index: int, count: int, stream: int
) -> np.ndarray:
    """Plain N(0, dt) increment batch on its own stream, shape (count, n)."""
    dW = _normal_block(master_seed, start_index, count, (grid.n_steps,), stream)
    dW *= math.sqrt(grid.dt)
    return dW


class CholeskyFactorizationError(RuntimeError):
    """Dense covariance factorization failed; carries the failing pivot index."""

    def __init__(self, pivot: int):
        super().__init__(f"covariance factorization failed at pivot {pivot}")
        self.pivot = pivot


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
            # LAPACK reports the order of the failing leading minor
            pivot = int(str(exc).split()[-4]) if any(c.isdigit() for c in str(exc)) else -1
            raise CholeskyFactorizationError(pivot) from exc
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
    degenerate: bool = False


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
    degenerate = bool(np.all(np.var(values, axis=0) < 1e-300))
    with np.errstate(divide="ignore", invalid="ignore"):
        dev = np.where(se > 0, np.abs(sample - target) / se, 0.0)
    return CovarianceReport(
        times=times,
        sample_cov=sample,
        target=target,
        deviation_se=dev,
        max_deviation_se=float(dev.max()),
        n_paths=n_paths,
        degenerate=degenerate,
    )
