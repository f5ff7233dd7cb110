"""Timings of the training and prediction primitives (``kernelcast bench``).

Each row times one primitive at one size: NG-RC training and per-step
prediction over a sweep of ``p``, the polynomial Gram and per-step
prediction, and the Volterra Gram at ``N`` and ``N_DOUBLED`` plus its
per-step prediction.  Rows carry the expected asymptotic cost, so a
``bench.csv`` can be read against the complexity claims.  The protocol is
fixed: its sizes and settings are the constants below, and only the seed of
the timed inputs is chosen per run.
"""

from __future__ import annotations

import time

import numpy as np

from .datasets import Philox
from .kernels import (
    PolyKernelParams,
    VolterraParams,
    fit_kernel_model,
    poly_gram,
    predict_kernel,
    volterra_gram,
)
from .ngrc import delay_vectors, fit_ngrc, predict_ngrc

# Rows of the timed series, and of the second Volterra Gram.
N, N_DOUBLED = 2000, 4000
# Delay taps, the series' width and the Volterra inputs' width.
TAU, D, GRAM_D = 8, 1, 3
# Monomial degrees of the NG-RC sweep; the Volterra Gram is timed across it.
PS = (2, 3, 4, 5)
LAM_REG = 1e-6
PREDICTION_STEPS = 50
VOLTERRA = VolterraParams(0.6, 0.5)
# Samples per timing; the complexity gates read the minimum of these.
REPEATS = 9

_ASYMPTOTIC = {
    "ngrc-train": "O(n*(p+tau*d)^(2*kappa) + (p+tau*d)^(3*kappa))",
    "poly-gram": "O(n^2*tau*d)",
    "volterra-gram": "O(n^2*d)",
    "ngrc-predict": "O((p+tau*d)^kappa)",
    "poly-predict": "O(n*tau*d)",
    "volterra-predict": "O(n*d)",
}


# Shortest timed sample: each closure runs enough calls per sample to last
# this long, as timeit's autorange does, so one scheduler hiccup is a small
# share of a sample.
_MIN_SAMPLE_S = 0.2


def _calls_per_sample(fn) -> int:
    """Calls of ``fn`` that last at least ``_MIN_SAMPLE_S`` together, from
    the sequence 1, 2, 5, 10, 20, 50, ...; the probing also warms ``fn`` up."""
    scale = 1
    while True:
        for number in (scale, 2 * scale, 5 * scale):
            t0 = time.perf_counter()
            for _ in range(number):
                fn()
            if time.perf_counter() - t0 >= _MIN_SAMPLE_S:
                return number
        scale *= 10


def _time_sweep(fns: dict, repeats: int) -> dict:
    """(median, min) wall-clock seconds per call of each closure, over
    ``repeats`` samples.

    A sample runs the closure as many times as it takes to last at least
    ``_MIN_SAMPLE_S``.  The calls of one round of samples are interleaved
    across the closures, so every entry sees the same phases of machine
    noise, which makes within-sweep comparisons (constant vs growing cost)
    fair.
    """
    numbers = {key: _calls_per_sample(fn) for key, fn in fns.items()}
    times = {key: [] for key in fns}
    for _ in range(repeats):
        spent = dict.fromkeys(fns, 0.0)
        for call in range(max(numbers.values(), default=0)):
            for key, fn in fns.items():
                if call < numbers[key]:
                    t0 = time.perf_counter()
                    fn()
                    spent[key] += time.perf_counter() - t0
        for key in fns:
            times[key].append(spent[key] / numbers[key])
    return {key: (float(np.median(ts)), float(np.min(ts)))
            for key, ts in times.items()}


def run_bench(seed: int) -> list[dict]:
    """One row per timed primitive, as ``kernelcast bench`` writes them,
    on inputs drawn from the Philox stream of ``seed``."""
    n, steps = N, PREDICTION_STEPS
    rng = Philox(seed)

    series = rng.uniform(-1.0, 1.0, (n + steps, D))
    targets = rng.uniform(-1.0, 1.0, (n + steps, 1))
    rows = []

    def record(op, p_val, n_val, timing, per_step=1):
        median_s, min_s = timing
        rows.append({"op": op, "n": n_val, "tau": TAU, "p": p_val,
                     "d": D if op.startswith(("ngrc", "poly")) else GRAM_D,
                     "median_s": median_s / per_step, "min_s": min_s / per_step,
                     "repeats": REPEATS, "asymptotic": _ASYMPTOTIC[op]})

    train_sweep = _time_sweep(
        {p: (lambda p=p: fit_ngrc(series[:n], targets[:n], TAU, p, LAM_REG))
         for p in PS}, REPEATS)
    for p in PS:
        record("ngrc-train", p, n, train_sweep[p])
        model = fit_ngrc(series[:n], targets[:n], TAU, p, LAM_REG)
        windows = delay_vectors(series[: n + steps], TAU)[-steps:]
        record("ngrc-predict", p, n, _time_sweep(
            {p: lambda: predict_ngrc(model, windows)}, REPEATS)[p],
            per_step=steps)

    windows_n = delay_vectors(series[:n], TAU)
    pk = PolyKernelParams(2, TAU)
    record("poly-gram", 2, n, _time_sweep(
        {2: lambda: poly_gram(windows_n, windows_n, pk)}, REPEATS)[2])
    poly_model = fit_kernel_model(series[:n], targets[:n], pk, LAM_REG)
    test_windows = delay_vectors(series[: n + steps], TAU)[-steps:]
    record("poly-predict", 2, n, _time_sweep(
        {2: lambda: predict_kernel(poly_model, test_windows)}, REPEATS)[2],
        per_step=steps)

    volt_inputs = rng.uniform(-1.0, 1.0, (N_DOUBLED + steps, GRAM_D))
    volt_inputs /= np.linalg.norm(volt_inputs, axis=1).max()
    # the Volterra Gram ignores p; timed across the sweep to expose that
    volt_sweep = _time_sweep(
        {p: (lambda: volterra_gram(volt_inputs[:n], VOLTERRA)) for p in PS},
        REPEATS)
    for p in PS:
        record("volterra-gram", p, n, volt_sweep[p])
    record("volterra-gram", 0, N_DOUBLED, _time_sweep(
        {0: lambda: volterra_gram(volt_inputs[:N_DOUBLED], VOLTERRA)},
        REPEATS)[0])
    volt_model = fit_kernel_model(volt_inputs[:n], targets[:n], VOLTERRA,
                                  LAM_REG)
    record("volterra-predict", 0, n, _time_sweep(
        {0: lambda: predict_kernel(volt_model, volt_inputs[n : n + steps])},
        REPEATS)[0], per_step=steps)
    return rows
