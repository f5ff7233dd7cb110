"""Shipped experiment presets.

One preset per (dataset, estimator) combination used in the replication
experiments, plus a small benchmark preset.  Preset dictionaries are full
experiment configurations; command-line flags can still override the seed
and output directory.
"""

import math

# Volterra decay parameters follow the coefficient convention
# lam = coef * sqrt(1 - theta^2 M^2) with M = 1.
_LORENZ_VOLT_LAM = 0.3 * math.sqrt(1.0 - 0.09)   # 0.28618...
_MG_VOLT_LAM = 0.9 * math.sqrt(1.0 - 0.09)       # 0.85854...
_BEKK_VOLT_LAM = 0.72                            # 0.9 * sqrt(1 - 0.36)

_LORENZ_DATASET = {
    "kind": "lorenz",
    "n_points": 15001,
    "dt": 0.005,
    "initial": [0.0, 1.0, 1.05],
    "n_train": 5000,
}

_MG_DATASET = {
    "kind": "mackey-glass",
    "dt_fine": 0.02,
    "delay": 17.0,
    "n_fine": 382500,
    "splice": 50,
    "n_train": 3000,
}

# Upper-triangular C frozen for reproducibility; strong persistence
# (b = 0.92) so covariance history carries real signal.
_BEKK_C = [
    [0.32, 0.055, 0.088, 0.034, 0.093],
    [0.0, 0.29, 0.046, 0.073, 0.059],
    [0.0, 0.0, 0.35, 0.067, 0.041],
    [0.0, 0.0, 0.0, 0.27, 0.082],
    [0.0, 0.0, 0.0, 0.0, 0.31],
]

_BEKK_DATASET = {
    "kind": "bekk",
    "d": 5,
    # 3761 raw samples make 3760 (input, next-output) pairs.
    "n_points": 3761,
    "C": _BEKK_C,
    "a": 0.30,
    "b": 0.92,
    "n_train": 3007,
}

_LORENZ_TASK = {
    "mode": "path-continuation",
    "lyapunov_exponent": 0.9056,  # literature value, configuration not ground truth
}

_MG_TASK = {
    "mode": "path-continuation",
    "lyapunov_exponent": 0.006,   # literature value for delay 17
}

_BEKK_TASK = {"mode": "open-loop"}

# Fold geometry defaults; the replication experiments fix hyperparameters,
# so these only matter for the cv subcommand.
_PATH_CV = {"mode": "overlapping", "fold_len": 1500, "val_len": 400,
            "stride": 1000}
_OPEN_CV = {"mode": "expanding", "k": 4, "fixed_hyper": {}}


def _experiment(dataset, estimator, task, seed, cv):
    return {
        "schema": "kernelcast-experiment/1",
        "seed": seed,
        "dataset": dict(dataset),
        "estimator": estimator,
        "task": dict(task),
        "cv": dict(cv),
    }


PRESETS = {
    "lorenz-ngrc": _experiment(
        _LORENZ_DATASET,
        {"kind": "ngrc", "hyper": {"tau": 3, "p": 2, "lam_reg": 1e-7},
         "grid": {"taus": [2, 3], "ps": [2], "lam_regs": [1e-7, 1e-5]}},
        _LORENZ_TASK, 1, _PATH_CV),
    "lorenz-polynomial": _experiment(
        _LORENZ_DATASET,
        {"kind": "polynomial", "hyper": {"tau": 6, "p": 2, "lam_reg": 1e-6},
         "grid": {"taus": [3, 6], "ps": [2], "lam_regs": [1e-6, 1e-4]}},
        _LORENZ_TASK, 1, _PATH_CV),
    "lorenz-volterra": _experiment(
        _LORENZ_DATASET,
        {"kind": "volterra",
         "hyper": {"lam": _LORENZ_VOLT_LAM, "theta": 0.3, "lam_reg": 1e-10,
                   "washout": 100},
         "grid": {"lams": [_LORENZ_VOLT_LAM, 0.7], "thetas": [0.3, 0.6],
                  "lam_regs": [1e-10, 1e-7]}},
        _LORENZ_TASK, 1,
        {**_PATH_CV, "fixed_hyper": {"washout": 100}}),
    "mackey-glass-ngrc": _experiment(
        _MG_DATASET,
        {"kind": "ngrc", "hyper": {"tau": 4, "p": 5, "lam_reg": 1e-7},
         "grid": {"taus": [2, 4], "ps": [3, 5], "lam_regs": [1e-7]}},
        _MG_TASK, 1, _PATH_CV),
    "mackey-glass-polynomial": _experiment(
        _MG_DATASET,
        {"kind": "polynomial", "hyper": {"tau": 17, "p": 4, "lam_reg": 1e-5},
         "grid": {"taus": [4, 17], "ps": [4], "lam_regs": [1e-5]}},
        _MG_TASK, 1, _PATH_CV),
    "mackey-glass-volterra": _experiment(
        _MG_DATASET,
        {"kind": "volterra",
         "hyper": {"lam": _MG_VOLT_LAM, "theta": 0.3, "lam_reg": 1e-9,
                   "washout": 100},
         "grid": {"lams": [_MG_VOLT_LAM, 0.4], "thetas": [0.3],
                  "lam_regs": [1e-9, 1e-6]}},
        _MG_TASK, 1,
        {**_PATH_CV, "fixed_hyper": {"washout": 100}}),
    "bekk-ngrc": _experiment(
        _BEKK_DATASET,
        {"kind": "ngrc", "hyper": {"tau": 1, "p": 2, "lam_reg": 0.1},
         "grid": {"taus": [1, 2], "ps": [1, 2], "lam_regs": [0.1, 1.0]}},
        _BEKK_TASK, 20240809, _OPEN_CV),
    "bekk-polynomial": _experiment(
        _BEKK_DATASET,
        {"kind": "polynomial", "hyper": {"tau": 1, "p": 2, "lam_reg": 0.1},
         "grid": {"taus": [1, 2], "ps": [1, 2], "lam_regs": [0.1, 1.0]}},
        _BEKK_TASK, 20240809, _OPEN_CV),
    "bekk-volterra": _experiment(
        _BEKK_DATASET,
        {"kind": "volterra",
         "hyper": {"lam": _BEKK_VOLT_LAM, "theta": 0.6, "lam_reg": 1e-3,
                   "washout": 100},
         "grid": {"lams": [_BEKK_VOLT_LAM, 0.95], "thetas": [0.6],
                  "lam_regs": [1e-3, 1e-1]}},
        _BEKK_TASK, 20240809,
        {**_OPEN_CV, "fixed_hyper": {"washout": 100}}),
    "bench-default": {
        "schema": "kernelcast-experiment/1",
        "seed": 3,
        "bench": {
            "n": 2000,
            "n_doubled": 4000,
            "tau": 8,
            "d": 1,
            "gram_d": 3,
            "ps": [2, 3, 4, 5],
            "lam_reg": 1e-6,
            "volterra": {"lam": 0.6, "theta": 0.5},
            "repeats": 5,
            "prediction_steps": 50,
        },
    },
}
