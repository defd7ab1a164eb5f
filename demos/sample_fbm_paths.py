"""Sample rough fractional paths two ways and compare their statistics.

The Cholesky sampler matches the target covariance exactly (up to Monte-Carlo
noise) but costs O(N^2) memory per factorization; the Volterra sampler builds
each path from its Wiener increments by one FFT convolution in O(N log N)
time and O(N) memory, so it scales to long grids and also exposes the
increments that the sensitivity weights need.
"""

import numpy as np

from roughdelta import (
    GridSpec,
    HurstParam,
    covariance_report,
)
from roughdelta.fbm import sample_cholesky_batch, sample_joint_batch

h = HurstParam(0.1)
n_paths = 5000

print(f"Hurst parameter h = {h.h}: very rough paths, variance t^{{2h}} = t^0.2")

grid = GridSpec(1.0, 64)
vals = sample_cholesky_batch(grid, h, master_seed=1, start_index=0, count=n_paths)
rep = covariance_report(vals[:, 1:], grid.times[1:], h)
print(
    f"\nCholesky sampler, N=64, {n_paths} paths:"
    f" max covariance deviation {rep.max_deviation_se:.2f} standard errors"
)

grid = GridSpec(1.0, 512)
dW, bh = sample_joint_batch(grid, h, 1, master_seed=1, start_index=0, count=n_paths)
var_T = np.var(bh[:, -1, 0], ddof=1)
print(
    f"\nVolterra sampler, N=512: terminal variance {var_T:.4f}"
    f" (target {grid.horizon ** (2 * h.h):.4f})"
)
print(
    "Each path also carries its Wiener increments; first path, first five: "
    + np.array2string(dW[0, :5, 0], precision=3)
)
