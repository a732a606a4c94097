"""Surrogate modeling and design optimization for biomass hydrothermal carbonization.

Train decision-tree and support-vector regressors on HTC data, evaluate them,
explain them with exact Shapley values, and run a genetic algorithm over the
trained surrogates to find favorable processing conditions.
"""

__version__ = "0.1.0"

from .data import (  # noqa: F401
    Dataset,
    Scaler,
    SplitPlan,
    generate_synthetic,
    load_csv,
    split,
    van_krevelen,
    write_csv,
)
from .cart import RegressionTree, TreeParams, fit_tree  # noqa: F401
from .svr import Kernel, SvrModel, SvrParams, fit_svr, kernel_matrix  # noqa: F401
from .stats import (  # noqa: F401
    CorrelationMatrix,
    FactorResult,
    MetricsReport,
    correlation_matrix,
    factor_analysis,
    mae,
    metrics_report,
    r_squared,
    rmse,
)
from .pipeline import HyperGrid, TrainedTarget, evaluate, grid_search, train_all  # noqa: F401
from .shapley import ShapExplanation, emit_plot_data, explain  # noqa: F401
from .genetic import GaConfig, GaResult, ObjectiveProfile, optimize, run_ga, surrogate_objective  # noqa: F401
