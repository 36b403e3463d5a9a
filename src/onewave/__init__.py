"""onewave: pseudo-spectral solver and verification harness for first-order
hyperbolic pseudodifferential equations with mollified (generalized) symbols
on periodic grids."""

from .grid import Grid, GridFunction
from .symbols import (GenSymbolFamily, HyperbolicSymbol, SampleBox,
                      SymbolExpr, classify_log_type, classify_slow_scale,
                      seminorm_Q, seminorm_c, seminorm_q)
from .regularization import (Mollifier, MollifiedCoefficient,
                             RoughCoefficient, RoughTransport, embed_data,
                             omega_of_eps, regularize_symbol,
                             regularized_family)
from .quantization import (PeriodicOperator, adjoint_defect_norm,
                           adjoint_symbol_remainder, check_remainder_estimate,
                           op_matrix, operator_norm, symbol_from_matrix)
from .cauchy import (CauchyProblem, EnergyLedger, Forcing, SolveResult,
                     TimeProfile, check_case_variants, check_energy_estimate,
                     derivative_cascade, solve_fixed_eps)
from .asymptotics import (DataBuilder, SweepPlan, SweepReport,
                          check_association, check_ginf, check_negligible,
                          run_sweep)

__version__ = "0.1.0"
