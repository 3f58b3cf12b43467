"""Grid-based approximate filtering for conditionally Gaussian systems.

The package splits into model definition (`model`, `registry`), state
quantization (`quantize`), likelihood evaluation and the filter recursion
(`likelihood`, `filtering`), brute-force oracles for small instances
(`filtering`), and the verification layer (`bounds`, `concentration`,
`harness`).  The `gridfilter` console script drives the same code paths from
INI configs.
"""

from .bounds import (BoundReport, adjugate_cofactor, audit_derived_constants,
                     check_adjugate_bound, check_lipschitz_suite,
                     check_product_bound, check_theta_bound, k_inv_formula,
                     matvec_difference_sides, product_difference_sides,
                     theta_bound)
from .concentration import (ConcentrationReport, TailCheck, chi2_tail_check,
                            concentration_experiment, gamma_data,
                            gamma_reference, membership_bound,
                            omega_hat_membership, tame_threshold)
from .config import RunConfig, load_config, parse_config, render_config
from .csvio import read_csv, write_csv
from .errors import (AssumptionViolationError, BudgetExceededError,
                     ChainConstructionError, ConfigError, DegenerateUpdateError,
                     DomainError, GridFilterError, ModelDefinitionError)
from .filtering import (FilterRunResult, FilterState, exact_forward_filter,
                        grid_filter_step, initial_filter_state,
                        path_sum_oracle, run_grid_filter)
from .harness import (ConvergenceCurve, KGReport, convergence_sweep,
                      kg_evaluate)
from .likelihood import (QuadFormWorkspace, log_lambda, log_lambda_hat,
                         log_lambda_hat_at_points)
from .model import (AssumptionConstants, ObservationModel, StateSpace,
                    SystemSpec, Trajectory, TransitionKernel, make_rng,
                    simulate, simulate_batch, verify_assumptions)
from .quantize import Grid, QuantizedChain, build_chain, quantize_points
from .registry import (MODEL_BUILDERS, FiniteStateKernel, build_model,
                       constant_demo, finite_chain_demo, gauss_walk_demo)

__version__ = "0.1.0"

__all__ = [
    "AssumptionConstants", "AssumptionViolationError", "BoundReport",
    "BudgetExceededError", "ChainConstructionError", "ConcentrationReport",
    "ConfigError", "ConvergenceCurve", "DegenerateUpdateError", "DomainError",
    "FilterRunResult", "FilterState", "FiniteStateKernel", "Grid",
    "GridFilterError", "KGReport", "MODEL_BUILDERS",
    "ModelDefinitionError", "ObservationModel", "QuadFormWorkspace",
    "QuantizedChain", "RunConfig", "StateSpace", "SystemSpec", "TailCheck",
    "Trajectory", "TransitionKernel", "adjugate_cofactor",
    "audit_derived_constants", "build_chain", "build_model",
    "check_adjugate_bound", "check_lipschitz_suite", "check_product_bound",
    "check_theta_bound", "chi2_tail_check", "concentration_experiment",
    "constant_demo", "convergence_sweep",
    "exact_forward_filter", "finite_chain_demo", "gamma_data",
    "gamma_reference", "gauss_walk_demo", "grid_filter_step",
    "initial_filter_state", "k_inv_formula", "kg_evaluate", "load_config",
    "log_lambda", "log_lambda_hat", "log_lambda_hat_at_points", "make_rng",
    "matvec_difference_sides", "membership_bound",
    "omega_hat_membership", "parse_config", "path_sum_oracle",
    "product_difference_sides", "quantize_points",
    "read_csv", "render_config", "run_grid_filter",
    "simulate", "simulate_batch", "tame_threshold",
    "theta_bound", "verify_assumptions", "write_csv",
]
