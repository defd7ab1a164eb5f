"""Drift-removal density for fBm-driven dynamics, as a consistency check.

The density reweights zero-drift fractional paths so that the shifted process
is again an fBm under the new measure; its sample mean must be 1 for bounded
drifts.  This exercises the inverse kernel transform end to end and is kept
as a validation-tier tool rather than a production importance sampler.  The
transform is frac_core's lag convolution, applied to each path on its own, so
a path's log-density has the same bits in any batch.

Sign convention: with xi built from u_r = b(r, x0 + B^H_r), reweighting
zero-drift paths by xi reproduces expectations of the SDE solution with
drift -b (the shift that the measure change removes is +b).  The
`reweighted_expectation` helper handles the bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .frac_core import HurstParam, _kh_inverse_rows
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
    depends on the realized path; it is one causal FFT convolution per path,
    O(N log N), and each path's bits do not depend on the batch it is in.  The
    exponent is returned in log space to avoid overflow.  A non-finite q
    aborts, naming its batch row (the FFT spreads a bad input over its row).
    """
    if np.ndim(bh) != 2 or np.ndim(dW) != 2:
        raise ValueError("density check is one-dimensional")
    # the Ito sum reads q at the n left points only, and q there depends on u
    # at those points only
    t = grid.times[:-1]
    q = _kh_inverse_rows(h, t, drift.value(t[None, :], x0 + bh[:, :-1]))
    if not np.isfinite(q).all():
        row, step = np.argwhere(~np.isfinite(q))[0]
        raise FloatingPointError(
            f"non-finite inverse-kernel transform at step {step} in batch row {row}"
        )
    return -np.sum(q * dW, axis=1) - 0.5 * np.sum(q**2, axis=1) * grid.dt


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
