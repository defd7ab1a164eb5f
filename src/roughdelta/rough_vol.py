"""Two-factor stock model with rough, regime-switching stochastic volatility.

The stock follows dS = mu S dt + g(sigma) S dW' with W' a Wiener process
independent of the fractional noise; the volatility factor sigma follows the
singular-drift SDE driven by fBm.  The delta vector in (x1, x2) = (initial
price, initial vol factor) combines two Wiener-integral weights with the
fractional Malliavin weight applied to the vol-factor flow, all three
averaged with a = 1/T over the grid's horizon T.  The stock price cancels
from both Wiener weights, so a batch keeps no stock path.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .frac_core import HurstParam
from .fbm import GridSpec, sample_joint_batch, wiener_increment_batch
from .sde import _STEP_BLOCK, MollifiedDrift, solve_batch
from .bel import DeltaEstimate, _dual_batch, _mc_mean, _replayable, config_digest

__all__ = ["VolMap", "RVConfig", "sbel_delta"]

STREAM_FRACTIONAL = 0
STREAM_STOCK = 1


@dataclass(frozen=True)
class VolMap:
    """Shifted-sigmoid volatility map g(z) = alpha + gamma / (1 + e^{-z}).

    Bounded with bounded first and second derivatives, and g > alpha > 0
    everywhere, which keeps the 1 / g(sigma) factor of the delta weights
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
    weights: bool = False,
):
    """Terminal values (S_T, sigma_T, dS_dx2[N], w) of consecutive path indices.

    Two disjoint counter streams per path: one for the fBm-generating Wiener
    increments, one for the stock's dW'.  The stock takes log-Euler steps
    S_{k+1} = S_k step_k (exact for constant g, positivity-preserving), whose
    exact x2-derivative is dS_dx2[k] = S_k Q_k with
    Q_k = sum_{j<k} g'(sigma_j) J_j (dW'_j - g(sigma_j) dt), J the vol flow
    (so 0 at gamma = 0).  S cancels from the Wiener weights
    w1 = sum_k dW'_k / g(sigma_k) / (T x1) and
    w2a = sum_k dW'_k / g(sigma_k) Q_k / T.  w = [w1, w2a + w2b], (count, 2),
    with w2b the flow's fractional weight from the sigma solve; None unless
    weights.

    The loop runs time-major, _STEP_BLOCK steps at a time, carrying only S,
    Q, w1 and w2a per path (see _running), so S_T keeps a per-step loop's
    bits.  A non-finite stock value names the block's first bad step and its
    first bad row, and a non-finite w its batch row.
    """
    n, dt = grid.n_steps, grid.dt
    dW, bh = sample_joint_batch(grid, cfg.h, 1, master_seed, start, count, STREAM_FRACTIONAL)
    dual = _dual_batch(cfg.h, dW, grid) if weights else None
    del dW
    sigma, _, dsig, w2b = solve_batch(cfg.vol_drift, [[cfg.x2]], bh, grid, path=True, dual=dual)
    del bh, dual  # before dW' is drawn, so the solve's peak is the batch's
    dWp = wiener_increment_batch(grid, master_seed, start, count, stream=STREAM_STOCK)
    s, q, w1, w2a = np.full(count, float(cfg.x1)), *np.zeros((3, count))
    for k0 in range(0, n, _STEP_BLOCK):
        blk = slice(k0, min(k0 + _STEP_BLOCK, n))
        gs, dg = cfg.g.value_and_deriv(np.ascontiguousarray(sigma[:, blk, 0].T))
        dw = np.ascontiguousarray(dWp[:, blk].T)
        sk = _running(np.multiply, s, np.exp((cfg.mu - 0.5 * gs**2) * dt + gs * dw))
        if not np.all(np.isfinite(sk)):
            j, row = np.argwhere(~np.isfinite(sk))[0]
            raise FloatingPointError(f"non-finite stock value at step {k0 + j} in batch row {row}")
        dg *= dsig[:, blk, 0].T
        dg *= dw - gs * dt
        qk = _running(np.add, q, dg)
        if weights:
            u = (1.0 / grid.horizon) * dw / gs
            w1 = _running(np.add, w1, u)[-1].copy()  # views would keep the block's arrays
            w2a = _running(np.add, w2a, u * qk[:-1])[-1].copy()
        s, q = sk[-1].copy(), qk[-1].copy()
    w = np.stack([w1 / cfg.x1, w2a + w2b[:, 0]], axis=1) if weights else None
    if weights and not np.all(np.isfinite(w)):
        row = np.argwhere(~np.isfinite(w))[0, 0]
        raise FloatingPointError(f"non-finite delta weight in batch row {row}")
    return s, sigma[:, -1, 0], s * q, w


def _running(ufunc, carry: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """Rows carry, then ufunc's running product or sum over the time-major terms.

    It steps one row at a time in step order for any batch width (np.add.reduce
    would sum a batch of one pairwise), so no bit of a path depends on its batch.
    """
    return ufunc.accumulate(np.vstack([carry, terms]), axis=0)


def _sbel_block(cfg: RVConfig, payoff, grid: GridSpec, master_seed, start, count):
    """sbel_delta's per-path (payoff * w1, payoff * (w2a + w2b)), (count, 2), as a 1-tuple.

    Kernel, stock and weight FloatingPointErrors are re-raised with
    master_seed and start, so the batch row they name is path start + row.
    """
    with _replayable(master_seed, start):
        s_T, sigma_T, _, w = _simulate_batch(cfg, grid, master_seed, start, count, True)
    phi = np.asarray(payoff(s_T, sigma_T), dtype=float).reshape(count)
    if np.any(np.isnan(phi)):
        raise FloatingPointError("payoff returned NaN")
    return (phi[:, None] * w,)


def sbel_delta(
    cfg: RVConfig,
    payoff: Callable[[np.ndarray, np.ndarray], np.ndarray],
    grid: GridSpec,
    n_paths: int,
    master_seed: int,
    payoff_label: str = "",
) -> DeltaEstimate:
    """Delta vector (d/dx1, d/dx2) of E[payoff(S_T, sigma_T)].

    Per path, three weights are combined:

      w1  = sum_k dW'_k / g(sigma_k) / (T x1)
      w2a = sum_k dW'_k / g(sigma_k) Q_k / T
      w2b = fractional Malliavin weight with the vol-factor flow against the
            fBm-generating Wiener increments (constant included)

    with T the grid's horizon (the averaging function a = 1/T) and Q_k from
    _simulate_batch: S cancels from the Wiener weights
    a (S g(sigma))^{-1} dS dW', so no stock path is kept.  The estimate is
    (E[payoff * w1], E[payoff * (w2a + w2b)]).  The payoff is a function of
    the terminal pair and must have finite second moment under the simulated
    law.  bel.DEFAULT_BATCH, the number of paths in flight at once, bounds
    memory and changes no bit of the result.  The slices of a batch call the
    payoff at once from worker threads, so it must be a pure, thread-safe
    function of its input.
    """
    block = partial(_sbel_block, cfg, payoff, grid, master_seed)
    ((mean, stderr),) = _mc_mean(n_paths, block)
    digest = config_digest(
        grid, cfg.h, master_seed, cfg.mu, cfg.g, cfg.vol_drift, cfg.x1, cfg.x2,
        payoff_label, n_paths, unlabeled=not payoff_label,
    )
    return DeltaEstimate(mean=mean, stderr=stderr, n_paths=n_paths, config_digest=digest)
