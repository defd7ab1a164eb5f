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

from .fbm import GridSpec, JointPath

__all__ = [
    "DriftSpec",
    "ZeroDrift",
    "LinearDrift",
    "RegimeSwitchDrift",
    "RegimeSwitchOUDrift",
    "MollifiedDrift",
    "StatePath",
    "FlowPath",
    "mollify",
    "default_epsilon",
    "euler_solve",
    "flow_derivative",
]


@dataclass(frozen=True)
class DriftSpec:
    """Base drift field b(t, x); subclasses define the actual shape.

    `bound` is the sup norm of the field (inf when unbounded), carried as
    metadata.
    """

    def value(self, t, x):
        raise NotImplementedError

    @property
    def bound(self) -> float:
        raise NotImplementedError

    @property
    def smooth(self) -> bool:
        return False


@dataclass(frozen=True)
class ZeroDrift(DriftSpec):
    def value(self, t, x):
        return np.zeros_like(np.asarray(x, dtype=float))

    def derivative(self, t, x):
        return np.zeros_like(np.asarray(x, dtype=float))

    @property
    def bound(self) -> float:
        return 0.0

    @property
    def smooth(self) -> bool:
        return True


@dataclass(frozen=True)
class LinearDrift(DriftSpec):
    """b(t, x) = lam * x; smooth, unbounded (validation and flow tests only)."""

    lam: float

    def value(self, t, x):
        return self.lam * np.asarray(x, dtype=float)

    def derivative(self, t, x):
        return np.full_like(np.asarray(x, dtype=float), self.lam)

    @property
    def bound(self) -> float:
        return math.inf

    @property
    def smooth(self) -> bool:
        return True


@dataclass(frozen=True)
class RegimeSwitchDrift(DriftSpec):
    """Piecewise-constant drift b1 above the threshold, b2 at or below it."""

    b1: float
    b2: float
    threshold: float = 0.0

    def value(self, t, x):
        x = np.asarray(x, dtype=float)
        return np.where(x > self.threshold, self.b1, self.b2)

    @property
    def bound(self) -> float:
        return max(abs(self.b1), abs(self.b2))


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

    @property
    def bound(self) -> float:
        return math.inf  # linear growth; bounded only on compacts


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

    @property
    def bound(self) -> float:
        return self.base.bound


def mollify(base: DriftSpec, epsilon: float) -> MollifiedDrift:
    """Smooth a drift field; see :class:`MollifiedDrift`."""
    return MollifiedDrift(base=base, epsilon=epsilon)


def default_epsilon(grid: GridSpec, h) -> float:
    """Transition-width heuristic 4 sqrt(dt) T^H coupling eps to the grid."""
    return 4.0 * math.sqrt(grid.dt) * grid.horizon**h.h


@dataclass(frozen=True)
class StatePath:
    """Euler solution values at grid times, with the driving path by reference."""

    x: np.ndarray
    driver: JointPath


@dataclass(frozen=True)
class FlowPath:
    """First-variation (state-derivative) diagonal along one path.

    jac[k] holds the diagonal of the d x d flow matrix at t_k; drifts act
    componentwise so off-diagonal entries are identically zero.
    """

    jac: np.ndarray  # shape (n+1, d)

    def matrices(self) -> np.ndarray:
        """Full (n+1, d, d) matrix view, for callers that want the d x d shape."""
        n1, d = self.jac.shape
        out = np.zeros((n1, d, d))
        idx = np.arange(d)
        out[:, idx, idx] = self.jac
        return out


def euler_solve(drift: MollifiedDrift, x0, path: JointPath) -> StatePath:
    """Explicit Euler for dX = b_eps(t, X) dt + dB^H with left-endpoint drift."""
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.shape != (path.dim,):
        raise ValueError(f"x0 has dimension {x0.shape}, path has d={path.dim}")
    x = euler_solve_batch(drift, x0, path.bh[None], path.grid)[0]
    return StatePath(x=x, driver=path)


def euler_solve_batch(
    drift: MollifiedDrift, x0: np.ndarray, bh: np.ndarray, grid: GridSpec
) -> np.ndarray:
    """Vectorized Euler over a batch of fBm paths.

    bh has shape (B, n+1, d); returns states of the same shape.  A NaN in the
    state aborts with the first offending step index.
    """
    B, n1, d = bh.shape
    n = n1 - 1
    dt = grid.dt
    t = grid.times
    x = np.empty_like(bh)
    x[:, 0] = x0
    for k in range(n):
        b = drift.value(t[k], x[:, k])
        x[:, k + 1] = x[:, k] + b * dt + (bh[:, k + 1] - bh[:, k])
        if not np.all(np.isfinite(x[:, k + 1])):
            raise FloatingPointError(f"non-finite state at step {k + 1}")
    return x


def flow_derivative(drift: MollifiedDrift, state: StatePath) -> FlowPath:
    """First-variation flow J[k+1] = J[k] (1 + Db_eps(t_k, X_k) dt), J[0] = I.

    The flow is diagonal, so every component's factor (1 + Db dt) must stay
    positive; a non-positive factor aborts, naming the component, since the
    downstream weight assumes an orientation-preserving flow.
    """
    jac = flow_derivative_batch(drift, state.x[None], state.driver.grid)[0]
    return FlowPath(jac=jac)


def flow_derivative_batch(
    drift: MollifiedDrift, x: np.ndarray, grid: GridSpec
) -> np.ndarray:
    """Vectorized diagonal flow over a batch of states, shape (B, n+1, d)."""
    dt = grid.dt
    t = grid.times
    jac = np.empty_like(x)
    jac[:, 0] = 1.0
    for k in range(x.shape[1] - 1):
        db = drift.derivative(t[k], x[:, k])
        factor = 1.0 + db * dt
        bad = np.any(factor <= 0.0, axis=0)
        if np.any(bad):
            raise FloatingPointError(
                f"flow factor non-positive at step {k} in component"
                f" {int(np.argmax(bad))}; decrease dt or epsilon"
            )
        jac[:, k + 1] = jac[:, k] * factor
    return jac
