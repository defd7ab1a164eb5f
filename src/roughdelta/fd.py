"""Finite-difference delta oracle with common random numbers.

Central differences with the identical random stream on both sides of each
bump, so the paired per-path differences carry far less variance than
independent runs.  The CLI's delta-sde mode draws each batch once and runs
the Malliavin estimator and both bump sides on those paths (the noise-taking
helpers below); its ``bel_fd_gap`` row takes its stderr from the same paired
per-path differences.  Closed-form Gaussian references live here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .frac_core import HurstParam
from .fbm import GridSpec, sample_joint_batch
from .sde import MollifiedDrift, solve_batch
from .bel import _mc_mean, _payoff_at, _replayable
from .rough_vol import _simulate_batch

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


def fd_delta(model_runner: Runner, x, bump: float, n_paths: int, master_seed: int) -> FDEstimate:
    """Central finite-difference delta per coordinate under shared seeds.

    For coordinate i the estimate averages
    [phi(x + bump e_i) - phi(x - bump e_i)] / (2 bump) over paths, with the
    same path seed on both sides.  The standard error is computed from the
    per-path paired differences (variance of the difference, not the
    difference of variances).  bel.DEFAULT_BATCH, the number of paths in
    flight at once, changes no bit.  A runner's FloatingPointError is
    re-raised with master_seed and the first path of its slice, so the batch
    row it names is path start + row.  The slices of a batch call
    model_runner at once from worker threads, so it and the payoff it
    evaluates must be thread-safe.
    """
    if bump <= 0:
        raise ValueError("bump must be positive")
    x = np.atleast_1d(np.asarray(x, dtype=float))

    def block(start, count):
        run = lambda y: model_runner(y, master_seed, start, count)
        with _replayable(master_seed, start):
            return (_central_diffs(run, x, bump),)

    ((value, stderr),) = _mc_mean(n_paths, block)
    return FDEstimate(value=value, stderr=stderr, bump=bump, n_paths=n_paths)


def _central_diffs(payoff_at, x: np.ndarray, bump: float) -> np.ndarray:
    """Per-path [payoff_at(x + bump e_i) - payoff_at(x - bump e_i)] / (2 bump), (B, d).

    payoff_at(y) returns one batch's payoffs from initial state y.
    """
    cols = []
    for i in range(x.size):
        e = np.zeros(x.size)
        e[i] = bump
        cols.append(_central(payoff_at(x + e), payoff_at(x - e), bump))
    return np.stack(cols, axis=1)


def _central(up, dn, bump: float) -> np.ndarray:
    """Per-path central difference (up - dn) / (2 bump) of two bump sides' payoffs."""
    return (np.asarray(up, dtype=float) - np.asarray(dn, dtype=float)) / (2.0 * bump)


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
        bh = sample_joint_batch(grid, h, x.size, master_seed, start, count)[1]  # dW freed now
        ends, _ = solve_batch(drift, x[None], bh, grid)  # no flow array is built
        return _payoff_at(payoff, ends[0])

    return run


def rv_payoff_runner(base_cfg, payoff, grid: GridSpec) -> Runner:
    """Runner for the stock/volatility model over x = (x1, x2).

    `payoff` takes the terminal pair (S_T, sigma_T).  Each call rebuilds the
    model config at the bumped initial point; the random streams depend only
    on (master_seed, path index), so both sides of a bump share their noise.
    """
    def run(x, master_seed, start, count):
        cfg = replace(base_cfg, x1=float(x[0]), x2=float(x[1]))
        s_T, sigma_T, *_ = _simulate_batch(cfg, grid, master_seed, start, count)
        return payoff(s_T, sigma_T)

    return run
