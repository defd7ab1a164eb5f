"""Finite-difference delta oracle with common random numbers.

Central differences with the identical random stream on both sides of each
bump, so the paired per-path differences carry far less variance than
independent runs.  The CLI's delta-sde mode draws each batch once and runs
the Malliavin estimator and both bump sides on those paths (the noise-taking
helpers below); its ``bel_fd_gap`` row still combines the two stderrs with
``hypot`` as if independent.  Closed-form Gaussian references live here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .frac_core import HurstParam
from .fbm import GridSpec, sample_joint_batch
from .sde import MollifiedDrift, euler_solve_batch
from .bel import _mc_mean

__all__ = [
    "FDEstimate",
    "fd_delta",
    "gaussian_digital_delta",
    "sde_payoff_runner",
    "rv_payoff_runner",
]

# Runner protocol: runner(x, master_seed, start_index, count) -> payoff array.
# Identical (master_seed, path index) pairs must consume identical randomness,
# which is what makes the pairing below a common-random-numbers estimator.
Runner = Callable[[np.ndarray, int, int, int], np.ndarray]


@dataclass(frozen=True)
class FDEstimate:
    """Central-difference delta; stderr comes from the paired differences."""

    value: np.ndarray
    stderr: np.ndarray
    bump: float
    n_paths: int


def fd_delta(
    model_runner: Runner,
    x,
    bump: float,
    n_paths: int,
    master_seed: int,
    batch_size: int = 4096,
) -> FDEstimate:
    """Central finite-difference delta per coordinate under shared seeds.

    For coordinate i the estimate averages
    [phi(x + bump e_i) - phi(x - bump e_i)] / (2 bump) over paths, with the
    same path seed on both sides.  The standard error is computed from the
    per-path paired differences (variance of the difference, not the
    difference of variances).
    """
    if bump <= 0:
        raise ValueError("bump must be positive")
    x = np.atleast_1d(np.asarray(x, dtype=float))

    def block(start, count):
        run = lambda y: model_runner(y, master_seed, start, count)
        return (_central_diffs(run, x, bump),)

    ((value, stderr),) = _mc_mean(n_paths, batch_size, block)
    return FDEstimate(value=value, stderr=stderr, bump=bump, n_paths=n_paths)


def _central_diffs(payoff_at, x: np.ndarray, bump: float) -> np.ndarray:
    """Per-path [payoff_at(x + bump e_i) - payoff_at(x - bump e_i)] / (2 bump), (B, d).

    payoff_at(y) returns one batch's payoffs from initial state y.
    """
    cols = []
    for i in range(x.size):
        e = np.zeros(x.size)
        e[i] = bump
        up = np.asarray(payoff_at(x + e), dtype=float)
        dn = np.asarray(payoff_at(x - e), dtype=float)
        cols.append((up - dn) / (2.0 * bump))
    return np.stack(cols, axis=1)


def gaussian_digital_delta(x: float, strike: float, horizon: float, h: HurstParam) -> float:
    """Closed-form digital delta for the zero-drift case, X_T ~ N(x, T^{2H})."""
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    sd = horizon**h.h
    z = (strike - x) / sd
    return math.exp(-0.5 * z * z) / (math.sqrt(2.0 * math.pi) * sd)


def sde_payoff_runner(
    drift: MollifiedDrift,
    payoff: Callable[[np.ndarray], np.ndarray],
    h: HurstParam,
    grid: GridSpec,
) -> Runner:
    """Runner for the singular-drift SDE: payoff of the Euler terminal state.

    The returned callable draws the same joint paths for a given
    (master_seed, index range) regardless of the initial state, as the
    common-random-numbers pairing requires.
    """

    def run(x, master_seed, start, count):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        _, bh = sample_joint_batch(grid, h, x.size, master_seed, start, count)
        return _sde_payoff(drift, payoff, x, bh, grid)

    return run


def _sde_payoff(drift, payoff, x: np.ndarray, bh: np.ndarray, grid: GridSpec):
    """Payoff of the Euler terminal state started at x on a drawn fBm batch bh."""
    xt = euler_solve_batch(drift, x, bh, grid)[:, -1]
    return payoff(xt[:, 0] if x.size == 1 else xt)


def rv_payoff_runner(base_cfg, payoff, grid: GridSpec) -> Runner:
    """Runner for the stock/volatility model over x = (x1, x2).

    `payoff` takes the terminal pair (S_T, sigma_T).  Each call rebuilds the
    model config at the bumped initial point; the random streams depend only
    on (master_seed, path index), so both sides of a bump share their noise.
    """
    from dataclasses import replace

    from .rough_vol import _simulate_batch

    def run(x, master_seed, start, count):
        cfg = replace(base_cfg, x1=float(x[0]), x2=float(x[1]))
        s, sigma, *_ = _simulate_batch(cfg, grid, master_seed, start, count)
        return payoff(s[:, -1], sigma[:, -1])

    return run
