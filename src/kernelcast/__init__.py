"""kernelcast: forecasting with NG-RC, polynomial, and Volterra kernel ridge.

The package covers the full experiment loop: simulate a benchmark process,
fit an estimator (primal NG-RC or a dual kernel model), cross-validate
hyperparameters, roll forecasts closed- or open-loop, and score them with
pointwise and climate metrics.  See the ``kernelcast`` command line entry
point for file-based experiment driving.
"""

from .datasets import (
    BekkParams,
    TimeSeries,
    load_csv,
    save_csv,
    simulate_bekk,
    simulate_lorenz,
    simulate_mackey_glass,
    split_train_test,
    unvech,
    vech,
)
from .errors import (
    CapacityError,
    ConditioningError,
    ConfigError,
    DependencyError,
    GridSearchError,
    InvalidInputError,
    KernelcastError,
    NormBoundError,
    ParseError,
    SimulationError,
)
from .estimators import Estimator, fit_estimator, fit_task
from .forecast import ForecastRun, forecast_task, open_loop, path_continue
from .kernels import (
    GramMatrix,
    KernelModel,
    NgrcKernelParams,
    PolyKernelParams,
    VolterraParams,
    fit_kernel_model,
    ngrc_kernel,
    poly_kernel,
    predict_kernel,
    volterra_gram,
    volterra_kernel_truncated,
)
from .linsolve import (
    GramRows,
    RidgeSolution,
    psd_sqrt,
    solve_ridge_gram,
    solve_ridge_primal,
)
from .metrics import (
    MetricReport,
    Periodogram,
    ValidTime,
    mae,
    mape,
    mdae,
    nmse,
    psde,
    valid_time,
    w1_1d,
    w1_nd,
    welch_psd,
)
from .ngrc import (
    ExponentTable,
    NgrcModel,
    build_exponent_table,
    delay_vectors,
    feature_dim,
    fit_ngrc,
    ngrc_features,
    predict_ngrc,
)
from .cv import FoldPlan, Grid, GridSearchResult, expanding_folds, grid_search, overlapping_folds

__version__ = "0.1.0"
