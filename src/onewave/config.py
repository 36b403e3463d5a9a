"""Package-wide numeric defaults, frozen calibration constants and the
criteria of the sweep verdicts.

Finite sweeps cannot certify asymptotic statements; each criterion below
encodes how much finite-sweep slack its verdict tolerates, and no config
sets one.  The tolerances of the single-solve and remainder checks are
constants at the head of scenario.py, beside the checks that read them.
"""

# Maximum derivative order a scenario config may ask for: the schema caps
# `orders`, the `cascade_bounds` `max_order` and `mollification_k` (a sweep's
# cascade order derives from `orders`); internals may differentiate further.
MAX_DIFF_ORDER = 6

# Power iteration defaults (deterministic start vector from the run seed).
POWER_ITERS = 50
POWER_RTOL = 1e-6
# A row whose norm has a certified upper end stops once its estimate is
# within this fraction of it (the bracket closes).
BRACKET_WIDTH = 0.01

# RK4 stability policy: dt * sup|R| <= CFL_MARGIN, R the rest after the
# Lawson step's exact multiplier, or dt * sup|a| for a forced, t-dependent
# (max over the symbol's sample times) or dense member, with SAFETY applied
# when the step is chosen automatically.  2.8 sits just inside the
# imaginary-axis stability limit 2*sqrt(2) of classical RK4.
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

# The most RK4 steps one solve may take: the snapshot and ledger cap bounds
# a solve's memory, this its time.  The largest shipped solve takes 3,000.
MAX_STEPS = 2 ** 20

# Energy-estimate calibration constants, one per spatial dimension: the
# semi-norm bound C * (1 + Q0(a0) + Q1(a1)) must dominate the measured
# constant 1 + skew_norm + 2 ||a0|| on a corpus of hyperbolic symbols.  C is
# the largest ratio of measured constant to case-a semi-norm sum
# 1 + Q0 + Q1 over the corpus: 0.795 (n=1) and 0.929 (n=2), frozen with a
# 1.25 safety factor.
CALIBRATED_C = {1: 1.0, 2: 1.17}


# -- sweep verdict criteria --------------------------------------------------
# classify_log_type: relative fit residual below which a c*log(1/eps)+b fit
# counts as log-type.
LOG_TYPE_RESIDUAL = 0.15
# classify_slow_scale: per-power criterion is p * excess <= 1 + slack where
# excess is the fitted power-law slope of Q minus the slope a pure
# log(1/eps) net measures on the same sweep.
SLOW_SCALE_SLOPE_SLACK = 0.0
SLOW_SCALE_P_MAX = 8
# check_negligible: q-decay tested up to q_max with multiplicative slack on
# the first-sweep-point normalization.
Q_MAX = 10
NEGLIGIBLE_SLACK = 2.0
# check_ginf: uniform-exponent slack around p_hat.
GINF_SLACK = 0.1
GINF_ORDER_CAP = 4
# run_sweep moderateness fit: exponents above this are reported as
# non-moderate on the tested range.
MODERATE_EXPONENT_CAP = 50.0
# check_association: additive tolerance when testing non-increasing residual
# trends near the spectral floor.
ASSOCIATION_TREND_SLACK = 1e-10
# association: the largest terminal pairing residual it passes.
ASSOCIATION_TERMINAL_TOL = 1e-6
# Gronwall-predicted exponent must dominate the fitted one up to this
# fit-noise slack.
EXPONENT_FIT_SLACK = 0.05
