"""levysid: stochastic system identification for SDEs driven by Brownian
motion and asymmetric alpha-stable Levy noise.

Simulates sample-path pair datasets (Z, X) by one Euler step of

    dx(t) = b(x(t)) dt + Lambda(x(t)) dB_t + sigma dL_t

and identifies the governing law back from such data: the per-component Levy
triple (alpha, beta, sigma), the drift vector b, and the diffusion matrix
a = Lambda Lambda^T, via nonlocal Kramers-Moyal estimators.
"""

import os as _os
import sys as _sys

# This is the one place that sets the OpenBLAS thread count: levysid runs
# OpenBLAS on one thread from import on. Its worker pool is the only
# parallelism, and a long curve's product can round differently on two
# threads than on one, which would change the curve. If numpy is imported
# here first, it loads OpenBLAS with one thread, so no idle BLAS thread
# spin-waits on the pool's cores; the variable is gone again before any
# child process could inherit it. Where numpy came first, or the caller set
# OPENBLAS_NUM_THREADS, the count is lowered to one before this import
# returns, and the threads started at load stay.
if "numpy" not in _sys.modules and "OPENBLAS_NUM_THREADS" not in _os.environ:
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        __import__("numpy")
    finally:
        del _os.environ["OPENBLAS_NUM_THREADS"]
else:
    from . import simulate as _simulate

    _simulate._cap_blas_threads()

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
    cube_filter,
    estimate_alpha,
    estimate_beta,
    estimate_levy,
    estimate_sigma,
    regression_tables,
)
from .dataio import DatasetFile, Report, read_dataset, read_report, write_dataset, write_report
from .expr import ExpressionTree, evaluate_block, parse_expression
from .models import SdeModel, builtin_config, builtin_model, model_from_config, resolve_config
from .simulate import DatasetPair, generate_grid, simulate_pairs
from .stable import (
    StableParams,
    bin_mass,
    correction_R,
    correction_S,
    k_alpha,
    kernel_W,
)

__version__ = "0.1.0"
