"""Two-factor stock model with rough, regime-switching stochastic volatility.

The stock follows dS = mu S dt + g(sigma) S dW' with W' a Wiener process
independent of the fractional noise; the volatility factor sigma follows the
singular-drift SDE driven by fBm.  The delta vector in (x1, x2) = (initial
price, initial vol factor) combines two Wiener-integral weights with the
fractional Malliavin weight applied to the vol-factor flow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .frac_core import HurstParam
from .fbm import GridSpec, PathSeed, sample_joint_batch, wiener_increment_batch
from .sde import MollifiedDrift, euler_solve_batch, flow_derivative_batch
from .bel import (
    DeltaEstimate,
    WeightFn,
    _mc_mean,
    _weight_batch,
    config_digest,
)

__all__ = ["VolMap", "RVConfig", "RVPath", "simulate_rv", "sbel_delta"]

STREAM_FRACTIONAL = 0
STREAM_STOCK = 1


@dataclass(frozen=True)
class VolMap:
    """Shifted-sigmoid volatility map g(z) = alpha + gamma / (1 + e^{-z}).

    Bounded with bounded first and second derivatives, and g > alpha > 0
    everywhere, which keeps the (S g(sigma))^{-1} factor of the delta weights
    finite.
    """

    alpha: float
    gamma: float = 0.0

    def __post_init__(self) -> None:
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.gamma < 0:
            raise ValueError("gamma must be non-negative")

    def __call__(self, z):
        return self.alpha + self.gamma * _sigmoid(z)

    def deriv(self, z):
        s = _sigmoid(z)
        return self.gamma * s * (1.0 - s)


def _sigmoid(z):
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


@dataclass(frozen=True)
class RVConfig:
    """Model parameters for the two-factor stock/volatility pair."""

    mu: float
    g: VolMap
    vol_drift: MollifiedDrift
    x1: float
    x2: float
    h: HurstParam

    def __post_init__(self) -> None:
        if self.x1 <= 0:
            raise ValueError("initial stock price must be positive")


@dataclass(frozen=True)
class RVPath:
    """One simulated path with its first-variation sequences."""

    s: np.ndarray
    sigma: np.ndarray
    dS_dx1: np.ndarray
    dS_dx2: np.ndarray
    dsigma_dx2: np.ndarray
    dW_stock: np.ndarray
    dW_frac: np.ndarray
    bh: np.ndarray


def _simulate_batch(
    cfg: RVConfig, grid: GridSpec, master_seed: int, start: int, count: int
):
    """Vectorized model simulation for consecutive path indices.

    Two disjoint counter streams per path: one for the fBm-generating Wiener
    increments, one for the stock's Wiener increments.  The stock uses a
    log-Euler step (exact for constant g, positivity-preserving); its
    variation in x2 is the exact derivative of that discrete recursion, so
    gamma = 0 gives dS_dx2 identically zero.
    """
    n = grid.n_steps
    dt = grid.dt
    dW, bh = sample_joint_batch(
        grid, cfg.h, 1, master_seed, start, count, stream=STREAM_FRACTIONAL
    )
    dWp = wiener_increment_batch(grid, master_seed, start, count, stream=STREAM_STOCK)
    sigma = euler_solve_batch(cfg.vol_drift, np.array([cfg.x2]), bh, grid)[:, :, 0]
    dsig = flow_derivative_batch(cfg.vol_drift, sigma[:, :, None], grid)[:, :, 0]
    s = np.empty((count, n + 1))
    k2 = np.zeros((count, n + 1))
    s[:, 0] = cfg.x1
    for k in range(n):
        gs = cfg.g(sigma[:, k])
        gp = cfg.g.deriv(sigma[:, k])
        step = np.exp((cfg.mu - 0.5 * gs**2) * dt + gs * dWp[:, k])
        s[:, k + 1] = s[:, k] * step
        k2[:, k + 1] = k2[:, k] * step + s[:, k + 1] * gp * dsig[:, k] * (
            dWp[:, k] - gs * dt
        )
    if not np.all(np.isfinite(s)):
        raise FloatingPointError("non-finite stock value in batch")
    return s, sigma, k2, dsig, dWp, dW[:, :, 0], bh[:, :, 0]


def simulate_rv(cfg: RVConfig, grid: GridSpec, seed: PathSeed) -> RVPath:
    """Simulate one path of the stock/volatility pair with its variations."""
    s, sigma, k2, dsig, dWp, dW, bh = _simulate_batch(
        cfg, grid, seed.master_seed, seed.path_index, 1
    )
    return RVPath(
        s=s[0],
        sigma=sigma[0],
        dS_dx1=s[0] / cfg.x1,
        dS_dx2=k2[0],
        dsigma_dx2=dsig[0],
        dW_stock=dWp[0],
        dW_frac=dW[0],
        bh=bh[0],
    )


def sbel_delta(
    cfg: RVConfig,
    payoff: Callable[[np.ndarray, np.ndarray], np.ndarray],
    a: WeightFn,
    grid: GridSpec,
    n_paths: int,
    master_seed: int,
    batch_size: int = 4096,
    payoff_label: str = "",
) -> DeltaEstimate:
    """Delta vector (d/dx1, d/dx2) of E[payoff(S_T, sigma_T)].

    Per path, three weights are combined:

      w1  = sum_k a(t_k) (S_k g(sigma_k))^{-1} dS_dx1[k] dW'_k
      w2a = sum_k a(t_k) (S_k g(sigma_k))^{-1} dS_dx2[k] dW'_k
      w2b = fractional Malliavin weight with the vol-factor flow against the
            fBm-generating Wiener increments (constant included)

    and the estimate is (E[payoff * w1], E[payoff * (w2a + w2b)]).  The
    payoff is a function of the terminal pair and must have finite second
    moment under the simulated law.
    """
    t = grid.times
    n = grid.n_steps

    def block(start, count):
        s, sigma, k2, dsig, dWp, dWf, _ = _simulate_batch(
            cfg, grid, master_seed, start, count
        )
        ginv = 1.0 / (s[:, :n] * cfg.g(sigma[:, :n]))
        if not np.all(np.isfinite(ginv)):
            raise FloatingPointError("division guard tripped: S g(sigma) not positive")
        av = a.values(t[:n])[None, :]
        w1 = np.sum(av * ginv * (s[:, :n] / cfg.x1) * dWp, axis=1)
        w2a = np.sum(av * ginv * k2[:, :n] * dWp, axis=1)
        w2b = _weight_batch(cfg.h, a, dsig[:, :, None], dWf[:, :, None], grid)[:, 0]
        phi = np.asarray(payoff(s[:, -1], sigma[:, -1]), dtype=float).reshape(count)
        if np.any(np.isnan(phi)):
            raise FloatingPointError("payoff returned NaN")
        return (np.stack([phi * w1, phi * (w2a + w2b)], axis=1),)

    ((mean, stderr),) = _mc_mean(n_paths, batch_size, block)
    digest = config_digest(
        grid, cfg.h, master_seed, cfg.mu, cfg.g, cfg.x1, cfg.x2, payoff_label, a.kind, n_paths
    )
    return DeltaEstimate(mean=mean, stderr=stderr, n_paths=n_paths, config_digest=digest)
