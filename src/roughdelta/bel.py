"""Derivative-free Malliavin-weight delta estimator for fBm-driven SDEs.

The sensitivity of E[payoff(X_T)] to the initial state is represented as
E[payoff(X_T) * pi] where pi is a stochastic-integral weight built from the
first-variation flow and the underlying Wiener increments; no derivative of
the payoff is required.  The double time integral in the weight is collapsed
by exchanging the integration order (valid because the integrand at time s
only involves the flow up to s), so each path costs one deterministic O(N^2)
pass plus one O(N) Ito sum.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .frac_core import HurstParam, SampledFunction, big_c_h
from .fbm import GridSpec, JointPath, sample_joint_batch
from .sde import FlowPath, MollifiedDrift, euler_solve_batch, flow_derivative_batch

__all__ = [
    "WeightFn",
    "MalliavinWeight",
    "DeltaEstimate",
    "weight_profile",
    "malliavin_weight",
    "estimate_delta",
    "make_payoff",
    "PAYOFF_NAMES",
]

DEFAULT_BATCH = 4096


@dataclass(frozen=True)
class WeightFn:
    """Averaging function a on [0, T] with unit integral.

    kind 'uniform' is a = 1/T exactly; 'custom' carries sampled values whose
    trapezoidal integral must equal 1 within 1e-10.
    """

    horizon: float
    kind: str = "uniform"
    samples: Optional[SampledFunction] = None

    def __post_init__(self) -> None:
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        if self.kind not in ("uniform", "custom"):
            raise ValueError(f"unknown weight-fn kind {self.kind!r}")
        if self.kind == "custom":
            if self.samples is None:
                raise ValueError("custom weight function needs samples")
            total = float(np.trapezoid(self.samples.values, self.samples.grid))
            if abs(total - 1.0) > 1e-10:
                raise ValueError(f"weight function must integrate to 1, got {total}")

    def values(self, s: np.ndarray) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        if self.kind == "uniform":
            return np.full_like(s, 1.0 / self.horizon)
        return np.interp(s, self.samples.grid, self.samples.values)


@dataclass(frozen=True)
class MalliavinWeight:
    """The per-path sensitivity weight, one entry per state dimension."""

    pi: np.ndarray


@dataclass(frozen=True)
class DeltaEstimate:
    """Monte-Carlo delta with entrywise standard errors and run provenance."""

    mean: np.ndarray
    stderr: np.ndarray
    n_paths: int
    config_digest: str


def _profile_matrix(h: HurstParam, a: WeightFn, grid: GridSpec) -> np.ndarray:
    """Deterministic part of the collapsed weight integrand.

    Returns M of shape (n, n) with M[m-1, k-1] = cint[k-m] * c2[m], where
    cint[j] is the exact cell integral of u^{-H-1/2} over [t_j, t_{j+1}] and
    c2[m] = a(ubar) (ubar)^{1/2-H} at the cell midpoint lag ubar = (m-1/2) dt.
    The profile at s_k is then s_k^{H-1/2} * sum_m M[m-1, k-1] J[m-1].
    """
    hv = h.h
    n = grid.n_steps
    dt = grid.dt
    t = grid.times
    e = 0.5 - hv
    cint = (t[1:] ** e - t[:-1] ** e) / e  # exact power antiderivative per cell
    lag = (np.arange(1, n + 1) - 0.5) * dt
    c2 = a.values(lag) * lag**e
    M = np.zeros((n, n))
    m = np.arange(1, n + 1)
    k = np.arange(1, n + 1)
    diff = k[None, :] - m[:, None]  # index into cint where m <= k
    valid = diff >= 0
    M[valid] = cint[diff[valid]] * np.broadcast_to(c2[:, None], (n, n))[valid]
    return M


def _profile_batch(
    h: HurstParam, a: WeightFn, jac: np.ndarray, grid: GridSpec
) -> np.ndarray:
    """Profile g at grid times for a batch of diagonal flows.

    jac has shape (B, n+1, d); returns g of shape (B, n+1, d) with g[:, 0] = 0.
    The flow value attached to midpoint lag (m-1/2) dt is taken at the left
    neighbouring grid index m-1, which keeps the integrand adapted.
    """
    B, n1, d = jac.shape
    n = n1 - 1
    M = _profile_matrix(h, a, grid)
    t = grid.times
    g = np.zeros_like(jac)
    scale = t[1:] ** (h.h - 0.5)
    # g[:, k] = scale_k * sum_m M[m-1, k-1] jac[:, m-1]
    g[:, 1:] = np.einsum("mk,bmd->bkd", M, jac[:, :n]) * scale[None, :, None]
    return g


def weight_profile(
    h: HurstParam, a: WeightFn, flow: FlowPath, grid: GridSpec
) -> np.ndarray:
    """Deterministic-in-the-flow integrand g(s_k) of the collapsed weight.

    Returns an (n+1, d, d) array of diagonal matrices (the flow is diagonal
    for componentwise drifts); g(s_0) = 0 since the inner integral is empty.
    """
    jac = flow.jac
    if jac.shape[0] != grid.n_steps + 1:
        raise ValueError("flow and grid sizes do not match")
    g = _profile_batch(h, a, jac[None], grid)[0]
    n1, d = g.shape
    out = np.zeros((n1, d, d))
    idx = np.arange(d)
    out[:, idx, idx] = g
    return out


def malliavin_weight(
    h: HurstParam, a: WeightFn, flow: FlowPath, path: JointPath
) -> MalliavinWeight:
    """The sensitivity weight pi = C_H sum_{k>=1} g(s_k) dW_k for one path.

    Left-point evaluation keeps the Ito sum adapted: g(s_k) multiplies the
    Wiener increment over [t_k, t_{k+1}].
    """
    g = _profile_batch(h, a, flow.jac[None], path.grid)[0]
    n = path.grid.n_steps
    pi = big_c_h(h) * np.sum(g[1:n] * path.dW[1:n], axis=0)
    if not np.all(np.isfinite(pi)):
        bad = int(np.argmax(~np.isfinite(np.sum(g[1:n] * path.dW[1:n], axis=1))))
        raise FloatingPointError(f"non-finite weight contribution at step {bad + 1}")
    return MalliavinWeight(pi=pi)


def _weight_batch(
    h: HurstParam,
    a: WeightFn,
    jac: np.ndarray,
    dW: np.ndarray,
    grid: GridSpec,
) -> np.ndarray:
    """Batched pi, shape (B, d); same contraction as malliavin_weight."""
    g = _profile_batch(h, a, jac, grid)
    n = grid.n_steps
    pi = big_c_h(h) * np.einsum("bkd,bkd->bd", g[:, 1:n], dW[:, 1:n])
    if not np.all(np.isfinite(pi)):
        raise FloatingPointError("non-finite weight in batch")
    return pi


PAYOFF_NAMES = ("identity", "call", "put", "digital")


def make_payoff(name: str, strike: float = 0.0) -> Callable[[np.ndarray], np.ndarray]:
    """Closed payoff registry: identity, call(K), put(K), digital(K).

    The returned callable maps terminal values (any shape) elementwise;
    multi-dimensional states are reduced by their first coordinate.
    """
    if name == "identity":
        return lambda x: np.asarray(x, dtype=float)
    if name == "call":
        return lambda x: np.maximum(np.asarray(x, dtype=float) - strike, 0.0)
    if name == "put":
        return lambda x: np.maximum(strike - np.asarray(x, dtype=float), 0.0)
    if name == "digital":
        return lambda x: (np.asarray(x, dtype=float) > strike).astype(float)
    raise ValueError(f"unknown payoff {name!r}; choose from {PAYOFF_NAMES}")


def _fsum_cols(a: np.ndarray) -> np.ndarray:
    """Compensated, order-fixed column sums (math.fsum per column)."""
    return np.array([math.fsum(a[:, j]) for j in range(a.shape[1])])


def _mean_stderr(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    n = samples.shape[0]
    mean = _fsum_cols(samples) / n
    dev2 = (samples - mean) ** 2
    var = _fsum_cols(dev2) / (n - 1)
    return mean, np.sqrt(var / n)


def config_digest(*parts) -> str:
    """Stable digest of a run configuration for reproducibility metadata."""
    text = "|".join(repr(p) for p in parts)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _mc_mean(n_paths: int, batch_size: int, block):
    """(mean, stderr) of each per-path quantity, computed batch by batch.

    ``block(start, count)`` returns one (count, d_i) array per quantity for
    paths start .. start+count-1.  Each quantity is reduced over all paths at
    once, so the batch size cannot change the result.
    """
    if n_paths < 2:
        raise ValueError("need at least 2 paths")
    samples = None
    done = 0
    while done < n_paths:
        count = min(batch_size, n_paths - done)
        parts = block(done, count)
        if samples is None:
            samples = [np.empty((n_paths, q.shape[1])) for q in parts]
        for whole, q in zip(samples, parts):
            whole[done : done + count] = q
        done += count
    return [_mean_stderr(whole) for whole in samples]


def _bel_block(drift, x0: np.ndarray, payoff, h, a, grid, dW, bh) -> np.ndarray:
    """Per-path payoff(X_T) * pi, shape (B, d), on a drawn (dW, bh) batch.

    Euler state -> flow -> weight pi, as in estimate_delta; NaN payoffs abort.
    """
    d = x0.size
    x = euler_solve_batch(drift, x0, bh, grid)
    jac = flow_derivative_batch(drift, x, grid)
    pi = _weight_batch(h, a, jac, dW, grid)
    xt = x[:, -1]
    phi = np.asarray(payoff(xt[:, 0] if d == 1 else xt), dtype=float).reshape(len(xt))
    if np.any(np.isnan(phi)):
        raise FloatingPointError("payoff returned NaN")
    return phi[:, None] * pi


def estimate_delta(
    drift: MollifiedDrift,
    x0,
    payoff: Callable[[np.ndarray], np.ndarray],
    h: HurstParam,
    a: WeightFn,
    grid: GridSpec,
    n_paths: int,
    master_seed: int,
    batch_size: int = DEFAULT_BATCH,
    payoff_label: str = "",
) -> DeltaEstimate:
    """Monte-Carlo delta of E[payoff(X_T)] in the initial state.

    Per path: joint (Wiener, fBm) sample -> Euler state -> flow -> weight pi;
    the estimate is the sample mean of payoff(X_T) * pi with entrywise
    standard errors.  Accumulation is compensated and batch-order fixed, so
    the result depends only on (inputs, master_seed).

    The payoff receives the (B, d) terminal-state block and must return one
    value per path; it must be square-integrable under the simulated law
    (NaNs abort).
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))

    def block(start, count):
        dW, bh = sample_joint_batch(grid, h, x0.size, master_seed, start, count)
        return (_bel_block(drift, x0, payoff, h, a, grid, dW, bh),)

    ((mean, stderr),) = _mc_mean(n_paths, batch_size, block)
    digest = config_digest(
        grid, h, master_seed, drift, x0.tolist(), payoff_label, a.kind, n_paths
    )
    return DeltaEstimate(mean=mean, stderr=stderr, n_paths=n_paths, config_digest=digest)
