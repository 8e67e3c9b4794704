"""Anisotropic germ calculus on lattice windows."""

from .geometry import MultiIndex, ScaleMap, Scaling, multi_indices
from .germs import (DistGerm, Germ, Window, frozen_coefficient_germ, germ_from_text,
                    germ_to_text, jet_germ, load_germ, restrict_initial, save_germ, scale_germ)
from .discrete_ops import (DiffOperator, EllipticityReport, apply_to_field, apply_to_germ,
                           continuum_symbol, discrete_symbol, is_discretely_elliptic,
                           load_operator, make_operator, operator_from_text, operator_to_text,
                           preset_operator)
from .norms import (NormReport, TestFunctionFamily, build_default_family, lambda_grid,
                    mcshane_extend, norm_G_eta, reevaluate_report,
                    seminorm_G_eta_alpha, seminorm_G_gamma, sup_below)
from .liouville import (KernelBasis, SymbolZero, centered_rigidity_check,
                        polynomial_kernel, symbol_zero_search)
from .coeff_bounds import WeightSystem, construct_weights
from .harness import (ExperimentConfig, RatioReport, member_rng, run_probe,
                      schauder_sides, solve_poisson, summarize)

__version__ = "0.1.0"
