"""levysid: stochastic system identification for SDEs driven by Brownian
motion and asymmetric alpha-stable Levy noise.

Simulates sample-path pair datasets (Z, X) by one Euler step of

    dx(t) = b(x(t)) dt + Lambda(x(t)) dB_t + sigma dL_t

and identifies the governing law back from such data: the per-component Levy
triple (alpha, beta, sigma), the drift vector b, and the diffusion matrix
a = Lambda Lambda^T, via nonlocal Kramers-Moyal estimators.
"""

from .basis import BasisDictionary, design_matrix, example2_dictionary, polynomial_dictionary
from .errors import (
    ConditioningWarning,
    ConfigError,
    DataFormatError,
    DomainError,
    EstimationWarning,
    EvaluationDomainError,
    ExpressionSyntaxError,
    ExpressionError,
    GridSizeError,
    InsufficientDataError,
    LevysidError,
    NotPositiveSemidefiniteError,
    NonSymmetricError,
    NumericError,
    RankDeficiencyError,
    SimulationError,
    UnknownFunctionError,
    UnknownVariableError,
)
from .estimate import (
    BinCounts,
    CoefficientTable,
    EstimationConfig,
    LevyEstimate,
    bin_counts,
    component_increments,
    cube_filter,
    estimate_alpha,
    estimate_beta,
    estimate_levy,
    estimate_sigma,
    factor_diffusion,
    regression_tables,
)
from .dataio import read_dataset, read_report, write_dataset, write_report
from .expr import ExpressionTree, evaluate, evaluate_block, parse_expression, print_expression
from .models import SdeModel, builtin_config, builtin_model, model_from_config, resolve_config
from .numeric import solve_least_squares, sym_eigen
from .rng import RandomStream
from .simulate import DatasetPair, euler_pair_step, generate_grid, simulate_pairs
from .stable import (
    StableParams,
    bin_mass,
    correction_R,
    correction_S,
    k_alpha,
    kernel_W,
    sample_stable,
)

__version__ = "0.1.0"
