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
    kh_inverse_ac,
    shuffle_check,
)
from .fbm import (
    CholeskyFactorizationError,
    CovarianceReport,
    GridSpec,
    JointPath,
    PathSeed,
    covariance_report,
    sample_cholesky,
    sample_joint_path,
    volterra_weights,
)
from .sde import (
    DriftSpec,
    FlowPath,
    LinearDrift,
    MollifiedDrift,
    RegimeSwitchDrift,
    RegimeSwitchOUDrift,
    StatePath,
    ZeroDrift,
    default_epsilon,
    euler_solve,
    flow_derivative,
    mollify,
)
from .bel import (
    DeltaEstimate,
    MalliavinWeight,
    PAYOFF_NAMES,
    WeightFn,
    estimate_delta,
    make_payoff,
    malliavin_weight,
    weight_profile,
)
from .rough_vol import RVConfig, RVPath, VolMap, sbel_delta, simulate_rv
from .girsanov import GirsanovWeight, girsanov_xi, girsanov_xi_batch, reweighted_expectation
from .fd import FDEstimate, fd_delta, gaussian_digital_delta, sde_payoff_runner

__version__ = "0.1.0"
