"""Two-factor stock model with rough, regime-switching stochastic volatility.

The stock follows dS = mu S dt + g(sigma) S dW' with W' a Wiener process
independent of the fractional noise; the volatility factor sigma follows the
singular-drift SDE driven by fBm.  The delta vector in (x1, x2) = (initial
price, initial vol factor) combines two Wiener-integral weights with the
fractional Malliavin weight applied to the vol-factor flow.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .frac_core import HurstParam
from .fbm import GridSpec, sample_joint_batch, wiener_increment_batch
from .sde import _STEP_BLOCK, MollifiedDrift, solve_batch
from .bel import (
    DEFAULT_BATCH,
    DeltaEstimate,
    WeightFn,
    _dual_batch,
    _mc_mean,
    _replayable,
    config_digest,
)

__all__ = ["VolMap", "RVConfig", "sbel_delta"]

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
        return self.value_and_deriv(z)[0]

    def deriv(self, z):
        return self.value_and_deriv(z)[1]

    def value_and_deriv(self, z):
        """(g(z), g'(z)) from one sigmoid evaluation."""
        s = _sigmoid(z)
        return self.alpha + self.gamma * s, self.gamma * s * (1.0 - s)


def _sigmoid(z):
    """1 / (1 + e^{-z}) for z >= 0 and e^z / (1 + e^z) below, so exp never overflows."""
    z = np.asarray(z, dtype=float)
    pos = z >= 0
    e = np.exp(np.where(pos, -z, z))
    return np.where(pos, 1.0 / (1.0 + e), e / (1.0 + e))


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


def _simulate_batch(
    cfg: RVConfig, grid: GridSpec, master_seed: int, start: int, count: int,
    a: WeightFn | None = None,
):
    """Vectorized model simulation for consecutive path indices.

    Two disjoint counter streams per path: one for the fBm-generating Wiener
    increments, one for the stock's Wiener increments.  The stock uses a
    log-Euler step (exact for constant g, positivity-preserving); its
    variation in x2 is the exact derivative of that discrete recursion, so
    gamma = 0 gives dS_dx2 identically zero.  Returns path-major
    (s, sigma, dS_dx2, dsigma_dx2, dW', w2b, g(sigma)), the last without its
    terminal column.  w2b, the fractional weight of the vol-factor flow,
    (count, 1), is accumulated in the sigma solve when a weight function a is
    given and is None otherwise, so a caller that needs no weight pays
    nothing for it.

    The stock loop runs time-major, _STEP_BLOCK steps at a time: each block's
    elementwise terms are formed at once, S is their running product
    (multiply.accumulate multiplies in step order) and only the dS_dx2
    recursion steps in Python, so every element keeps a per-step loop's bits.
    """
    n = grid.n_steps
    dt = grid.dt
    dW, bh = sample_joint_batch(
        grid, cfg.h, 1, master_seed, start, count, stream=STREAM_FRACTIONAL
    )
    dual = None if a is None else _dual_batch(cfg.h, a, dW, grid)
    del dW
    dWp = wiener_increment_batch(grid, master_seed, start, count, stream=STREAM_STOCK)
    sigma, _, dsig, w2b = solve_batch(cfg.vol_drift, [[cfg.x2]], bh, grid, path=True, dual=dual)
    sigma, dsig = sigma[:, :, 0], dsig[:, :, 0]
    s = np.empty((count, n + 1))
    k2 = np.empty((count, n + 1))
    gsig = np.empty((count, n))
    s[:, 0] = cfg.x1
    k2[:, 0] = 0.0
    for k0 in range(0, n, _STEP_BLOCK):
        blk = slice(k0, min(k0 + _STEP_BLOCK, n))
        nxt = slice(blk.start + 1, blk.stop + 1)
        sig, dw, ds = (np.ascontiguousarray(v[:, blk].T) for v in (sigma, dWp, dsig))
        gs, dg = cfg.g.value_and_deriv(sig)
        step = np.exp((cfg.mu - 0.5 * gs**2) * dt + gs * dw)
        sk = np.multiply.accumulate(np.vstack([s[:, k0], step]), axis=0)
        drive = sk[1:] * dg * ds * (dw - gs * dt)
        kk = np.empty_like(sk)
        kk[0] = k2[:, k0]
        for j in range(len(step)):
            kk[j + 1] = kk[j] * step[j] + drive[j]
        s[:, nxt], k2[:, nxt], gsig[:, blk] = sk[1:].T, kk[1:].T, gs.T
    if not np.all(np.isfinite(s)):
        row, step = np.argwhere(~np.isfinite(s))[0]
        raise FloatingPointError(f"non-finite stock value at step {step} in batch row {row}")
    return s, sigma, k2, dsig, dWp, w2b, gsig


def _sbel_block(cfg: RVConfig, payoff, a: WeightFn, grid: GridSpec, master_seed, start, count):
    """sbel_delta's per-path (payoff * w1, payoff * (w2a + w2b)), (count, 2), as a 1-tuple.

    Kernel, stock, division-guard and weight FloatingPointErrors are re-raised
    with master_seed and start, so the batch row they name is path start + row.
    """
    n = grid.n_steps
    with _replayable(master_seed, start):
        s, sigma, k2, dsig, dWp, w2b, gsig = _simulate_batch(cfg, grid, master_seed, start, count, a)
        ginv = 1.0 / (s[:, :n] * gsig)
        if not np.all(np.isfinite(ginv)):
            row, step = np.argwhere(~np.isfinite(ginv))[0]
            raise FloatingPointError(
                f"division guard tripped: S g(sigma) not positive at step {step} in batch row {row}"
            )
        av = a.values(grid.times[:n])[None, :]
        w1 = np.sum(av * ginv * (s[:, :n] / cfg.x1) * dWp, axis=1)
        w2a = np.sum(av * ginv * k2[:, :n] * dWp, axis=1)
    phi = np.asarray(payoff(s[:, -1], sigma[:, -1]), dtype=float).reshape(count)
    if np.any(np.isnan(phi)):
        raise FloatingPointError("payoff returned NaN")
    return (np.stack([phi * w1, phi * (w2a + w2b[:, 0])], axis=1),)


def sbel_delta(
    cfg: RVConfig,
    payoff: Callable[[np.ndarray, np.ndarray], np.ndarray],
    a: WeightFn,
    grid: GridSpec,
    n_paths: int,
    master_seed: int,
    batch_size: int = DEFAULT_BATCH,
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
    moment under the simulated law.  batch_size is the number of paths in
    flight at once; it bounds memory and changes no bit of the result.  The
    slices of a batch call the payoff at once from worker threads, so it must
    be a pure, thread-safe function of its input.
    """
    block = partial(_sbel_block, cfg, payoff, a, grid, master_seed)
    ((mean, stderr),) = _mc_mean(n_paths, batch_size, block)
    digest = config_digest(
        grid, cfg.h, master_seed, cfg.mu, cfg.g, cfg.vol_drift, cfg.x1, cfg.x2,
        payoff_label, *a.digest_parts(), n_paths, unlabeled=not payoff_label,
    )
    return DeltaEstimate(mean=mean, stderr=stderr, n_paths=n_paths, config_digest=digest)
