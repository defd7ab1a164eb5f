"""Drift fields, mollification, Euler path solver, and the first-variation flow.

Drifts act componentwise on the state, so a scalar field describes every
coordinate and the flow derivative stays diagonal.  Singular (indicator-type)
drifts are smoothed analytically with an erf transition, which keeps the
spatial derivative exact and the sup norm unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .fbm import GridSpec

__all__ = [
    "DriftSpec",
    "ZeroDrift",
    "LinearDrift",
    "RegimeSwitchDrift",
    "RegimeSwitchOUDrift",
    "MollifiedDrift",
    "mollify",
    "default_epsilon",
    "solve_batch",
]

_STEP_BLOCK = 32


@dataclass(frozen=True)
class DriftSpec:
    """Base drift field b(t, x); subclasses define the actual shape."""

    def value(self, t, x):
        raise NotImplementedError


@dataclass(frozen=True)
class ZeroDrift(DriftSpec):
    def value(self, t, x):
        return np.zeros_like(np.asarray(x, dtype=float))

    def derivative(self, t, x):
        return np.zeros_like(np.asarray(x, dtype=float))


@dataclass(frozen=True)
class LinearDrift(DriftSpec):
    """b(t, x) = lam * x; smooth, unbounded (validation and flow tests only)."""

    lam: float

    def value(self, t, x):
        return self.lam * np.asarray(x, dtype=float)

    def derivative(self, t, x):
        return np.full_like(np.asarray(x, dtype=float), self.lam)


@dataclass(frozen=True)
class RegimeSwitchDrift(DriftSpec):
    """Piecewise-constant drift b1 above the threshold, b2 at or below it."""

    b1: float
    b2: float
    threshold: float = 0.0

    def value(self, t, x):
        x = np.asarray(x, dtype=float)
        return np.where(x > self.threshold, self.b1, self.b2)


@dataclass(frozen=True)
class RegimeSwitchOUDrift(DriftSpec):
    """Mean reversion toward `level` with regime-switching rate a1 / a2."""

    a1: float
    a2: float
    threshold: float
    level: float

    def __post_init__(self) -> None:
        if self.a1 <= 0 or self.a2 <= 0:
            raise ValueError("mean reversion rates must be positive")

    def value(self, t, x):
        x = np.asarray(x, dtype=float)
        rate = np.where(x > self.threshold, self.a1, self.a2)
        return rate * (self.level - x)


_SQRT2 = math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class MollifiedDrift:
    """A drift field with an evaluable, continuous spatial derivative.

    Indicator-type bases replace the step chi_{x > R} by the erf transition
    sigma_eps(x) = (1 + erf((x - R) / (eps sqrt(2)))) / 2, whose derivative is
    a Gaussian bump of width eps.  Smooth bases pass through unchanged (their
    analytic derivative is used and eps is ignored).
    """

    base: DriftSpec
    epsilon: float

    def __post_init__(self) -> None:
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")

    def _transition(self, x):
        b = self.base
        return 0.5 * (1.0 + special.erf((x - b.threshold) / (self.epsilon * _SQRT2)))

    def _bump(self, x):
        b = self.base
        z = (x - b.threshold) / self.epsilon
        return _INV_SQRT2PI * np.exp(-0.5 * z * z) / self.epsilon

    def value(self, t, x):
        x = np.asarray(x, dtype=float)
        b = self.base
        if isinstance(b, RegimeSwitchDrift):
            return b.b2 + (b.b1 - b.b2) * self._transition(x)
        if isinstance(b, RegimeSwitchOUDrift):
            rate = b.a2 + (b.a1 - b.a2) * self._transition(x)
            return rate * (b.level - x)
        return b.value(t, x)

    def derivative(self, t, x):
        x = np.asarray(x, dtype=float)
        b = self.base
        if isinstance(b, RegimeSwitchDrift):
            return (b.b1 - b.b2) * self._bump(x)
        if isinstance(b, RegimeSwitchOUDrift):
            rate = b.a2 + (b.a1 - b.a2) * self._transition(x)
            return (b.a1 - b.a2) * self._bump(x) * (b.level - x) - rate
        return b.derivative(t, x)


def mollify(base: DriftSpec, epsilon: float) -> MollifiedDrift:
    """Smooth a drift field; see :class:`MollifiedDrift`."""
    return MollifiedDrift(base=base, epsilon=epsilon)


def default_epsilon(grid: GridSpec, h) -> float:
    """Transition-width heuristic 4 sqrt(dt) T^H coupling eps to the grid."""
    return 4.0 * math.sqrt(grid.dt) * grid.horizon**h.h


def _solve_blocks(drift: MollifiedDrift, starts, bh: np.ndarray, grid: GridSpec):
    """Explicit Euler for dX = b_eps(t, X) dt + dB^H from m starts, with the flow of the first.

    bh has shape (B, n+1, d) and starts shape (m, d); every start runs on the
    same fBm paths, and the drift is taken at the left endpoint of each step.
    The first start also carries the diagonal of its first-variation flow
    J[k+1] = J[k] (1 + Db_eps(t_k, X_k) dt), J[0] = I.  Yields
    (k0, state, flow) for each block of up to _STEP_BLOCK steps: time-major
    views of the states, (nb+1, m, B, d), and of the flow of starts[0],
    (nb+1, B, d), at steps k0 .. k0+nb.  They are overwritten once the next
    block is asked for.

    The per-step loop advances only the state, one (m, B, d) row per step.
    The block's flow factors then come from one drift.derivative call over
    starts[0]'s states, with the times as a column (so a drift must broadcast
    t against x), and the flow advances row by row.  Each element sees the
    arithmetic of a path-major loop, so no bit of a row depends on the layout
    or on the batch.

    A non-finite state names its start index, batch row and step, and a
    non-positive flow factor (the weight assumes an orientation-preserving
    flow) its batch row, step and component.  Both are checked once per
    block, before it is yielded; of step k's factor and the state at step
    k+1 the factor is raised first, so the earliest fault in step order wins.
    """
    B, n1, d = bh.shape
    starts = np.asarray(starts, dtype=float)
    if starts.ndim != 2 or starts.shape[1] != d or len(starts) == 0:
        raise ValueError(f"starts have shape {starts.shape}, need (m >= 1, d={d})")
    dt = grid.dt
    t = grid.times
    state = np.empty((_STEP_BLOCK + 1, len(starts), B, d))
    flow = np.empty((_STEP_BLOCK + 1, B, d))
    inc = np.empty((_STEP_BLOCK, B, d))
    state[0] = starts[:, None]
    flow[0] = 1.0
    for k0 in range(0, n1 - 1, _STEP_BLOCK):
        nb = min(_STEP_BLOCK, n1 - 1 - k0)
        rows = np.swapaxes(bh[:, k0 : k0 + nb + 1], 0, 1)  # time-major view
        np.subtract(rows[1:], rows[:-1], out=inc[:nb])
        for j in range(nb):
            np.add(state[j] + drift.value(t[k0 + j], state[j]) * dt, inc[j], out=state[j + 1])
        factor = 1.0 + drift.derivative(t[k0 : k0 + nb, None, None], state[:nb, 0]) * dt
        # step j's factor, then the state at step j+1: a per-step loop's order
        bad_state = ~np.all(np.isfinite(state[1 : nb + 1]), axis=(1, 2, 3))
        bad = np.stack([np.any(factor <= 0.0, axis=(1, 2)), bad_state], axis=1)
        if np.any(bad):
            j, of_state = divmod(int(np.argmax(bad)), 2)
            if of_state:
                start, row, _ = np.argwhere(~np.isfinite(state[j + 1]))[0]
                raise FloatingPointError(
                    f"non-finite state at step {k0 + j + 1} from start {start} in batch row {row}"
                )
            row, comp = np.argwhere(factor[j] <= 0.0)[0]
            raise FloatingPointError(
                f"flow factor non-positive in batch row {row} at step {k0 + j} in"
                f" component {comp}; decrease dt or epsilon"
            )
        for j in range(nb):
            np.multiply(flow[j], factor[j], out=flow[j + 1])
        del factor
        yield k0, state[: nb + 1], flow[: nb + 1]
        state[0] = state[nb]
        flow[0] = flow[nb]


def solve_batch(
    drift: MollifiedDrift, starts, bh: np.ndarray, grid: GridSpec, dual=None
) -> tuple[np.ndarray, np.ndarray | None]:
    """(ends, pi) from the blocks of _solve_blocks, keeping no path.

    See _solve_blocks for the arguments, the arithmetic and the checks.  ends
    are every start's terminal states, (m, B, d).  Given a dual of shape
    (B, n, d), pi = sum_j J[j] dual[:, j], (B, d), J the flow of starts[0],
    is added block by block (see _add_weight); else pi is None.
    """
    pi = None if dual is None else np.zeros((bh.shape[0], bh.shape[2]))
    for k0, state, flow in _solve_blocks(drift, starts, bh, grid):
        if dual is not None:
            pi = _add_weight(pi, flow, dual, k0)
    return state[-1].copy(), pi


def _add_weight(pi: np.ndarray, flow: np.ndarray, dual: np.ndarray, k0: int) -> np.ndarray:
    """pi plus the weight terms J[k] dual[:, k] of one flow block of _solve_blocks, (B, d).

    The terms are formed path-major and their sum over the block's steps,
    which reduces each row's contiguous terms on their own, is added, so no
    bit of a row depends on the batch.  The block's flow and then pi are
    checked; a non-finite flow or weight contribution names the first bad
    step in the block and its first bad row.
    """
    B, d = pi.shape
    nb = len(flow) - 1
    _check_block(flow[1:], k0 + 1, "flow")
    terms = np.empty((B, _STEP_BLOCK, d))[:, :nb]  # a short last block keeps a full one's strides
    run = np.multiply(np.swapaxes(flow[:nb], 0, 1), dual[:, k0 : k0 + nb], out=terms)
    total = pi + np.add.reduce(run, axis=1)
    if not np.all(np.isfinite(total)):  # name the step the running sum turns bad
        with np.errstate(invalid="ignore", over="ignore"):
            partial = pi[:, None] + np.cumsum(run, axis=1)
        partial[:, -1] = total  # the block's own sum may overflow where cumsum does not
        _check_block(np.swapaxes(partial, 0, 1), k0, "weight contribution")
    return total


def _check_block(block: np.ndarray, k0: int, what: str) -> None:
    """Raise on a non-finite entry of a time-major block whose row 0 is step k0.

    The first bad step is named, with its first bad batch row.
    """
    if not np.all(np.isfinite(block)):
        step, row, _ = np.argwhere(~np.isfinite(block))[0]
        raise FloatingPointError(f"non-finite {what} at step {k0 + step} in batch row {row}")
