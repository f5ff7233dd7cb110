"""kernelcast: forecasting with NG-RC, polynomial, and Volterra kernel ridge.

The package covers the full experiment loop: simulate a benchmark process,
fit an estimator (primal NG-RC or a dual kernel model), cross-validate
hyperparameters, roll forecasts closed- or open-loop, and score them with
pointwise and climate metrics.  See the ``kernelcast`` command line entry
point for file-based experiment driving.

Each name below is imported from its submodule on first access (PEP 562),
so ``import kernelcast.cli`` loads only the modules a stage runs.
"""

import importlib

__version__ = "0.1.0"

# Every exported name and the submodule that defines it.
_EXPORTS = {name: module for module, names in {
    "datasets": ("BekkParams", "TimeSeries", "load_csv", "save_csv",
                 "simulate_bekk", "simulate_lorenz", "simulate_mackey_glass",
                 "split_train_test", "vech"),
    "errors": ("CapacityError", "ConditioningError", "ConfigError",
               "DependencyError", "GridSearchError", "InvalidInputError",
               "KernelcastError", "NormBoundError", "ParseError",
               "SimulationError"),
    "estimators": ("Estimator", "fit_estimator", "fit_task"),
    "forecast": ("ForecastRun", "forecast_task", "open_loop",
                 "path_continue"),
    "kernels": ("GramMatrix", "KernelModel", "NgrcKernelParams",
                "PolyKernelParams", "VolterraParams", "fit_kernel_model",
                "predict_kernel", "volterra_gram",
                "volterra_kernel_truncated"),
    "linsolve": ("GramRows", "RidgeSolution", "psd_sqrt", "solve_ridge_gram",
                 "solve_ridge_primal"),
    "metrics": ("MetricReport", "Periodogram", "ValidTime", "mae", "mape",
                "mdae", "nmse", "psde", "valid_time", "w1_1d", "w1_nd",
                "welch_psd"),
    "ngrc": ("ExponentTable", "NgrcModel", "build_exponent_table",
             "delay_vectors", "feature_dim", "fit_ngrc", "ngrc_features",
             "predict_ngrc"),
    "cv": ("FoldPlan", "Grid", "GridSearchResult", "expanding_folds",
           "grid_search", "overlapping_folds"),
}.items() for name in names}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    # An unknown name raises AttributeError, so that ``from kernelcast
    # import bench`` goes on to import the submodule.
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_EXPORTS[name]}")
    return getattr(module, name)


def __dir__():
    return sorted({*globals(), *_EXPORTS})
