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

from .frac_core import HurstParam, SampledFunction, cov_rh, _kernel_vec

__all__ = [
    "GridSpec",
    "PathSeed",
    "JointPath",
    "CovarianceReport",
    "volterra_weights",
    "sample_joint_path",
    "sample_cholesky",
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


@dataclass(frozen=True)
class PathSeed:
    """Addresses one path's random stream: (master_seed, path_index).

    Distinct path indices map to disjoint Philox counter blocks, so streams
    never overlap regardless of how many numbers each path consumes.
    """

    master_seed: int
    path_index: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.master_seed < 2**64:
            raise ValueError("master_seed must fit in 64 bits")
        if self.path_index < 0:
            raise ValueError("path_index must be non-negative")

    def generator(self, stream: int = 0) -> np.random.Generator:
        bg = np.random.Philox(
            counter=[0, self.path_index, stream, 0], key=[self.master_seed, 0]
        )
        return np.random.Generator(bg)


@dataclass(frozen=True)
class JointPath:
    """One sample of Wiener increments plus the fBm path they generate.

    dW has shape (n_steps, d) with entries ~ N(0, dt); bh has shape
    (n_steps + 1, d) with bh[0] = 0 and bh[k] = sum_{j<k} w(k,j) dW[j].
    """

    dW: np.ndarray
    bh: np.ndarray
    dim: int
    grid: GridSpec
    h: HurstParam


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


def sample_joint_path(
    grid: GridSpec, h: HurstParam, d: int, seed: PathSeed
) -> JointPath:
    """Draw one joint (Wiener increments, fBm path) sample.

    Components are independent and share the weight matrix; the output is a
    pure function of (grid, h, d, seed).
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")
    W = volterra_weights(grid, h)
    rng = seed.generator(stream=0)
    dW = rng.standard_normal((grid.n_steps, d)) * math.sqrt(grid.dt)
    bh = W @ dW
    return JointPath(dW=dW, bh=bh, dim=d, grid=grid, h=h)


def sample_joint_batch(
    grid: GridSpec,
    h: HurstParam,
    d: int,
    master_seed: int,
    start_index: int,
    count: int,
    stream: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized form of :func:`sample_joint_path` for consecutive path indices.

    Returns (dW, bh) of shapes (count, n, d) and (count, n+1, d); path p of
    the batch is identical to sample_joint_path at path_index = start_index+p.
    """
    W = volterra_weights(grid, h)
    n = grid.n_steps
    sdt = math.sqrt(grid.dt)
    dW = np.empty((count, n, d))
    for p in range(count):
        rng = PathSeed(master_seed, start_index + p).generator(stream=stream)
        dW[p] = rng.standard_normal((n, d)) * sdt
    bh = np.einsum("kj,pjd->pkd", W, dW)
    return dW, bh


def wiener_increment_batch(
    grid: GridSpec, master_seed: int, start_index: int, count: int, stream: int
) -> np.ndarray:
    """Plain N(0, dt) increment batch on its own stream, shape (count, n)."""
    n = grid.n_steps
    sdt = math.sqrt(grid.dt)
    out = np.empty((count, n))
    for p in range(count):
        rng = PathSeed(master_seed, start_index + p).generator(stream=stream)
        out[p] = rng.standard_normal(n) * sdt
    return out


class CholeskyFactorizationError(RuntimeError):
    """Dense covariance factorization failed; carries the failing pivot index."""

    def __init__(self, pivot: int):
        super().__init__(f"covariance factorization failed at pivot {pivot}")
        self.pivot = pivot


@lru_cache(maxsize=8)
def _cholesky_factor(h: float, n_steps: int, horizon: float) -> tuple:
    if n_steps > _MAX_CHOLESKY_STEPS:
        raise ValueError(f"n_steps > {_MAX_CHOLESKY_STEPS} not supported for dense factorization")
    dt = horizon / n_steps
    t = np.arange(1, n_steps + 1) * dt
    tt, ss = np.meshgrid(t, t, indexing="ij")
    hh = 2 * h
    R = 0.5 * (tt**hh + ss**hh - np.abs(tt - ss) ** hh)
    jittered = False
    try:
        L = np.linalg.cholesky(R)
    except np.linalg.LinAlgError:
        warnings.warn(
            "covariance matrix numerically non-PD; retrying with 1e-12 diagonal jitter",
            RuntimeWarning,
        )
        jittered = True
        try:
            L = np.linalg.cholesky(R + 1e-12 * np.eye(n_steps))
        except np.linalg.LinAlgError as exc:
            # LAPACK reports the order of the failing leading minor
            pivot = int(str(exc).split()[-4]) if any(c.isdigit() for c in str(exc)) else -1
            raise CholeskyFactorizationError(pivot) from exc
    return L, jittered


def sample_cholesky(grid: GridSpec, h: HurstParam, seed: PathSeed) -> SampledFunction:
    """Exact Gaussian fBm sample on the grid via dense Cholesky factorization.

    Distributional reference only: no Wiener increments are produced.  The
    value at t_0 = 0 is exactly 0.
    """
    L, _ = _cholesky_factor(h.h, grid.n_steps, grid.horizon)
    rng = seed.generator(stream=0)
    z = rng.standard_normal(grid.n_steps)
    vals = np.concatenate(([0.0], L @ z))
    return SampledFunction(grid.times, vals)


def sample_cholesky_batch(
    grid: GridSpec, h: HurstParam, master_seed: int, start_index: int, count: int
) -> np.ndarray:
    """Batch of Cholesky samples, shape (count, n+1); matches sample_cholesky per path."""
    L, _ = _cholesky_factor(h.h, grid.n_steps, grid.horizon)
    z = np.empty((count, grid.n_steps))
    for p in range(count):
        rng = PathSeed(master_seed, start_index + p).generator(stream=0)
        z[p] = rng.standard_normal(grid.n_steps)
    out = np.zeros((count, grid.n_steps + 1))
    out[:, 1:] = z @ L.T
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
