"""Drift-removal density for fBm-driven dynamics, as a consistency check.

The density reweights zero-drift fractional paths so that the shifted process
is again an fBm under the new measure; its sample mean must be 1 for bounded
drifts.  This exercises the inverse kernel transform end to end and is kept
as a validation-tier tool rather than a production importance sampler.

Sign convention: with xi built from u_r = b(r, x0 + B^H_r), reweighting
zero-drift paths by xi reproduces expectations of the SDE solution with
drift -b (the shift that the measure change removes is +b).  The
`reweighted_expectation` helper handles the bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .frac_core import HurstParam, kh_inverse_matrix
from .fbm import GridSpec
from .sde import DriftSpec

__all__ = ["girsanov_xi_batch", "reweighted_expectation"]


def girsanov_xi_batch(
    h: HurstParam,
    drift: DriftSpec,
    bh: np.ndarray,
    dW: np.ndarray,
    grid: GridSpec,
    x0: float,
) -> np.ndarray:
    """log xi per path, with u_r = b(r, x0 + B^H_r) evaluated along each path.

    bh has shape (B, n+1) and dW shape (B, n): the density check is
    one-dimensional.  The transformed integrand q = K_H^{-1}(integral of u)
    depends on the realized path, so it costs O(N^2) per path; the exponent
    is returned in log space to avoid overflow.
    """
    if np.ndim(bh) != 2 or np.ndim(dW) != 2:
        raise ValueError("density check is one-dimensional")
    t = grid.times
    dt = grid.dt
    n = grid.n_steps
    u = drift.value(t[None, :], x0 + bh)  # (B, n+1)
    Kinv = kh_inverse_matrix(h, t)
    q = u @ Kinv.T
    if not np.all(np.isfinite(q)):
        raise FloatingPointError("non-finite inverse-kernel transform")
    log_xi = -np.sum(q[:, :n] * dW, axis=1) - 0.5 * np.sum(q[:, :n] ** 2, axis=1) * dt
    return log_xi


def reweighted_expectation(
    h: HurstParam,
    drift: DriftSpec,
    f: Callable[[np.ndarray], np.ndarray],
    bh: np.ndarray,
    dW: np.ndarray,
    grid: GridSpec,
    x0: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-path xi and xi * f(terminal shifted value) for zero-drift paths.

    Uses u = -b so that the reweighted mean estimates E[f(X_T)] for the SDE
    with drift +b; returns (xi, xi * f) arrays for the caller to average.
    """
    neg = _NegatedDrift(drift)
    log_xi = girsanov_xi_batch(h, neg, bh, dW, grid, x0)
    xi = np.exp(log_xi)
    vals = np.asarray(f(x0 + bh[:, -1]), dtype=float)
    return xi, xi * vals


@dataclass(frozen=True)
class _NegatedDrift(DriftSpec):
    base: DriftSpec

    def value(self, t, x):
        return -self.base.value(t, x)
