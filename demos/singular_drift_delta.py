"""Delta of a call option under a regime-switching drift, two ways.

The drift jumps from +1 to -1 at zero, so pathwise differentiation of the
state is hopeless; the Malliavin-weight estimator needs no derivative of
either the payoff or the drift beyond the mollified transition.  A paired
finite-difference estimate provides the independent check.  As in
``--mode delta-sde``, both run on the same paths: each batch is drawn once
and one Euler pass advances x0 and both bump sides, so the gap between the
two is judged against the standard error of the per-path differences.
"""

import numpy as np

from roughdelta import GridSpec, HurstParam, RegimeSwitchDrift, make_payoff, mollify
from roughdelta.bel import _bel_block, _mc_mean, _payoff_at, _weighted
from roughdelta.fd import _central

h = HurstParam(0.1)
grid = GridSpec(1.0, 256)
drift = mollify(RegimeSwitchDrift(1.0, -1.0, 0.0), epsilon=0.05)
payoff = make_payoff("call", strike=0.2)
x0, bump = 0.1, 0.05
n_paths, seed = 20000, 7
starts = np.array([[x0], [x0 + bump], [x0 - bump]])

print("Model: dX = b(X) dt + dB^h, b = +1 above 0 and -1 below (mollified)")
print(f"Payoff: call struck at 0.2, X_0 = {x0}, h = {h.h}, N = {grid.n_steps}\n")


def block(start, count):
    """Per-path weight estimate, central difference, and their difference."""
    pi, ends = _bel_block(drift, starts, h, grid, seed, start, count)
    bel = _weighted(payoff, ends[0], pi)
    fd = _central(_payoff_at(payoff, ends[1]), _payoff_at(payoff, ends[2]), bump)[:, None]
    return bel, fd, bel - fd


(bel, bel_se), (fd, fd_se), (gap, gap_se) = _mc_mean(n_paths, block)
print(f"Malliavin-weight delta: {bel[0]:.4f} ± {bel_se[0]:.4f}")
print(f"Finite-difference delta: {fd[0]:.4f} ± {fd_se[0]:.4f} (bump {bump})")
print(f"\nGap {abs(gap[0]):.4f} vs paired standard error {gap_se[0]:.4f}"
      f" ({abs(gap[0]) / gap_se[0]:.2f} se)")
