"""Consistency check: remove a bounded drift by reweighting zero-drift paths.

The change-of-measure density xi must average to 1, and reweighting a
zero-drift simulation must reproduce expectations under the drifted
dynamics.  Both facts exercise the inverse kernel transform end to end.
"""

import math

import numpy as np

from roughdelta import GridSpec, HurstParam, RegimeSwitchDrift, mollify
from roughdelta.fbm import sample_joint_batch
from roughdelta.girsanov import girsanov_xi_batch, reweighted_expectation
from roughdelta.sde import solve_batch

h = HurstParam(0.1)
grid = GridSpec(1.0, 128)
n_paths = 20000
drift = RegimeSwitchDrift(0.5, -0.5)

dW, bh = sample_joint_batch(grid, h, 1, master_seed=7, start_index=0, count=n_paths)

log_xi = girsanov_xi_batch(h, drift, bh[:, :, 0], dW[:, :, 0], grid, x0=0.0)
xi = np.exp(log_xi)
se = xi.std(ddof=1) / math.sqrt(n_paths)
print(f"E[xi] = {xi.mean():.4f} ± {se:.4f}  (must be 1)")

mol = mollify(drift, epsilon=0.05)
f = lambda x: np.maximum(x - 0.2, 0.0)
_, xif = reweighted_expectation(h, mol, f, bh[:, :, 0], dW[:, :, 0], grid, x0=0.3)
ends, _ = solve_batch(mol, [[0.3]], bh, grid)
direct = f(ends[0, :, 0])

print(
    f"Reweighted zero-drift value: {xif.mean():.4f}"
    f" ± {xif.std(ddof=1) / math.sqrt(n_paths):.4f}"
)
print(
    f"Direct drifted simulation:   {direct.mean():.4f}"
    f" ± {direct.std(ddof=1) / math.sqrt(n_paths):.4f}"
)
