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
from .sde import MollifiedDrift, _add_weight, _check_block, _solve_blocks
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

    def value_and_deriv(self, z):
        """(g(z), g'(z)) from one sigmoid evaluation."""
        s = _sigmoid(z)
        return self.alpha + self.gamma * s, self.gamma * s * (1.0 - s)


def _sigmoid(z):
    """1 / (1 + e^{-z}) for z >= 0 and e^z / (1 + e^z) below, so exp never overflows."""
    z = np.asarray(z, dtype=float)
    e = np.exp(-np.abs(z))  # e^{-z} for z >= 0, e^z below, so at most 1
    return np.maximum(e, z >= 0) / (1.0 + e)  # the numerator is 1 for z >= 0, e^z below


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
    """Terminal values (S_T, sigma_T, w) of consecutive path indices.

    Two disjoint counter streams per path: one for the fBm-generating Wiener
    increments, one for the stock's dW'.  The stock takes log-Euler steps
    S_{k+1} = S_k step_k (exact for constant g, positivity-preserving), whose
    exact x2-derivative is S_k Q_k with
    Q_k = sum_{j<k} g'(sigma_j) J_j (dW'_j - g(sigma_j) dt), J the vol flow
    (so 0 at gamma = 0).  S cancels from the Wiener weights
    w1 = sum_k dW'_k / g(sigma_k) / (T x1) and
    w2a = sum_k dW'_k / g(sigma_k) Q_k / T.  w = [w1, w2a + w2b], (count, 2),
    with w2b the flow's fractional weight from the sigma solve; None unless
    weights.

    dW' is drawn before the solve, and the stock runs inside it: each block
    of the sigma stream (sde._solve_blocks) advances S, Q, w1 and w2a, (B,)
    rows carried in place, row by row in step order (see _stock_block), so
    the batch holds the dual over dW, bh and dW' and no sigma or flow path,
    and S_T keeps a per-step loop's bits.  Faults are raised in block order:
    the block's sigma state and flow factor, its flow and w2b, then its stock
    value, which names the block's first bad step and its first bad row.  A
    non-finite w names its batch row.
    """
    dW, bh = sample_joint_batch(grid, cfg.h, 1, master_seed, start, count, STREAM_FRACTIONAL)
    dual = _dual_batch(cfg.h, dW, grid) if weights else None
    del dW
    dWp = wiener_increment_batch(grid, master_seed, start, count, stream=STREAM_STOCK)
    carry = np.zeros((4, count))  # S, Q, and the running sums of w1 x1 and w2a
    carry[0] = cfg.x1
    w2b = np.zeros((count, 1)) if weights else None
    for k0, state, flow in _solve_blocks(cfg.vol_drift, [[cfg.x2]], bh, grid):
        if weights:
            w2b = _add_weight(w2b, flow, dual, k0)
        _stock_block(cfg, grid, state[:-1, 0, :, 0], flow[:-1, :, 0], dWp, k0, carry, weights)
    w = np.stack([carry[2] / cfg.x1, carry[3] + w2b[:, 0]], axis=1) if weights else None
    if weights and not np.all(np.isfinite(w)):
        row = np.argwhere(~np.isfinite(w))[0, 0]
        raise FloatingPointError(f"non-finite delta weight in batch row {row}")
    return carry[0], state[-1, 0, :, 0].copy(), w


def _stock_block(cfg: RVConfig, grid: GridSpec, sigma, jac, dWp, k0: int, carry, weights: bool):
    """Advance carry = (S, Q, w1 x1, w2a), (4, B), over the steps k0 .. k0+nb-1.

    sigma and jac are the block's time-major vol states and flow, (nb, B),
    and dWp all stock increments, (B, n).  The step factors, the Q drive and
    the weight terms are formed over the whole block; then S and Q take one
    row per step, and w1 and w2a together one (2, B) row, in step order for
    any batch width, so no bit of a path depends on its batch.
    """
    nb, B = sigma.shape
    dt = grid.dt
    gs, dg = cfg.g.value_and_deriv(sigma)
    dw = np.ascontiguousarray(dWp[:, k0 : k0 + nb].T)
    s, q = np.empty((2, nb + 1, B))  # rows of S and of Q at steps k0 .. k0+nb
    s[0], q[0] = carry[:2]
    np.exp((cfg.mu - 0.5 * gs**2) * dt + gs * dw, out=s[1:])  # step factors
    np.multiply(dg, jac, out=q[1:])  # the drive of Q
    del dg
    q[1:] *= dw - gs * dt
    if weights:
        u = np.empty((nb, 2, B))  # rows (a dW'_k / g(sigma_k), its product with Q_k)
        np.multiply(1.0 / grid.horizon, dw, out=u[:, 0])
        np.divide(u[:, 0], gs, out=u[:, 0])
    del gs, dw
    for j in range(nb):
        np.multiply(s[j], s[j + 1], out=s[j + 1])
        np.add(q[j], q[j + 1], out=q[j + 1])
    _check_block(s[1:, :, None], k0 + 1, "stock value")
    carry[0], carry[1] = s[nb], q[nb]
    if weights:
        np.multiply(u[:, 0], q[:nb], out=u[:, 1])
        w = carry[2:]
        for j in range(nb):
            np.add(w, u[j], out=w)


def _sbel_block(cfg: RVConfig, payoff, grid: GridSpec, master_seed, start, count):
    """sbel_delta's per-path (payoff * w1, payoff * (w2a + w2b)), (count, 2), as a 1-tuple.

    Kernel, stock and weight FloatingPointErrors are re-raised with
    master_seed and start, so the batch row they name is path start + row.
    """
    with _replayable(master_seed, start):
        s_T, sigma_T, w = _simulate_batch(cfg, grid, master_seed, start, count, True)
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
