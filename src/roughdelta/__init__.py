"""Monte-Carlo sensitivity engine for SDEs driven by rough fractional noise.

Estimates deltas of option payoffs for dynamics with singular
(regime-switching) drift driven by fractional Brownian motion with small
Hurst parameter, using a derivative-free Malliavin-weight representation,
with closed-form Gaussian cases and a finite-difference oracle for
validation.
"""

from .frac_core import (
    FracOrder,
    HurstParam,
    SampledFunction,
    big_c_h,
    c_h,
    cov_rh,
    frac_deriv_left,
    frac_int_left,
    kernel_kh,
    shuffle_check,
)
from .fbm import (
    CholeskyFactorizationError,
    CovarianceReport,
    GridSpec,
    covariance_report,
    sample_cholesky_batch,
    sample_joint_batch,
    volterra_weights,
    wiener_increment_batch,
)
from .sde import (
    DriftSpec,
    LinearDrift,
    MollifiedDrift,
    RegimeSwitchDrift,
    RegimeSwitchOUDrift,
    ZeroDrift,
    default_epsilon,
    mollify,
    solve_batch,
)
from .bel import (
    DeltaEstimate,
    PAYOFF_NAMES,
    estimate_delta,
    make_payoff,
)
from .rough_vol import RVConfig, VolMap, sbel_delta
from .girsanov import girsanov_xi_batch, reweighted_expectation
from .fd import FDEstimate, fd_delta, gaussian_digital_delta, sde_payoff_runner

__version__ = "0.1.0"
