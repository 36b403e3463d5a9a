"""Package-wide numeric defaults and frozen calibration constants.

Every threshold used by a regression-style verdict lives here so reports can
cite the exact criterion they applied.  Finite sweeps cannot certify
asymptotic statements; the thresholds encode how much finite-sweep slack each
verdict tolerates.
"""

from dataclasses import dataclass

# Maximum derivative order a scenario config may ask for (the schema caps
# `orders`, `cascade_max_order` and the `cascade_bounds` `max_order`);
# internal machinery may differentiate further.
MAX_DIFF_ORDER = 6

# Power iteration defaults (deterministic start vector from the run seed).
POWER_ITERS = 50
POWER_RTOL = 1e-6

# RK4 stability policy: dt * sup|a| <= CFL_MARGIN, with SAFETY applied when
# the step is chosen automatically.  2.8 sits just inside the imaginary-axis
# stability limit 2*sqrt(2) of classical RK4.
CFL_MARGIN = 2.8
CFL_SAFETY = 0.9

# A solve aborts with UnstableStep once ||u||^2 exceeds this multiple of the
# Gronwall bound predicted from the measured operator norms.
INSTABILITY_FACTOR = 10.0

# Slack added to the pointwise energy inequality to absorb time-discretization
# error of the centered-difference d/dt estimate.
ENERGY_SLACK = 1e-8

# Trajectory snapshot stride (steps between stored snapshots).
TRAJECTORY_STRIDE = 8

# Energy-estimate calibration constants, one per spatial dimension: the
# semi-norm bound C * (1 + Q0(a0) + Q1(a1)) must dominate the measured
# constant 1 + skew_norm + 2 ||a0|| on a corpus of hyperbolic symbols.  C is
# the largest ratio of measured constant to case-a semi-norm sum
# 1 + Q0 + Q1 over the corpus: 0.795 (n=1) and 0.929 (n=2), frozen with a
# 1.25 safety factor.
CALIBRATED_C = {1: 1.0, 2: 1.17}


@dataclass
class Thresholds:
    """Verdict thresholds for the sweep classifiers (all documented)."""

    # classify_log_type: relative fit residual below which a c*log(1/eps)+b
    # fit counts as log-type.
    log_type_residual: float = 0.15
    # classify_slow_scale: per-power criterion is p * excess <= 1 + slack
    # where excess is the fitted power-law slope of Q minus the slope a pure
    # log(1/eps) net measures on the same sweep.
    slow_scale_slope_slack: float = 0.0
    slow_scale_p_max: int = 8
    # check_negligible: q-decay tested up to q_max with multiplicative slack
    # on the first-sweep-point normalization.
    q_max: int = 10
    negligible_slack: float = 2.0
    # check_ginf: uniform-exponent slack around p_hat.
    ginf_slack: float = 0.1
    ginf_order_cap: int = 4
    # run_sweep moderateness fit: exponents above this are reported as
    # non-moderate on the tested range.
    moderate_exponent_cap: float = 50.0
    # check_association: additive tolerance when testing non-increasing
    # residual trends near the spectral floor.
    association_trend_slack: float = 1e-10
    # Gronwall-predicted exponent must dominate the fitted one up to this
    # fit-noise slack.
    exponent_fit_slack: float = 0.05


DEFAULT_THRESHOLDS = Thresholds()
