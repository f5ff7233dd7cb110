"""Timings of the training and prediction primitives (``kernelcast bench``).

Each row times one primitive at one size: NG-RC training and per-step
prediction over a sweep of ``p``, the polynomial Gram and per-step
prediction, and the Volterra Gram at ``n`` and ``n_doubled`` plus its
per-step prediction.  Rows carry the expected asymptotic cost, so a
``bench.csv`` can be read against the complexity claims.
"""

from __future__ import annotations

import time

import numpy as np

from .cli import _MAX_SIZE, _get
from .datasets import Philox
from .errors import ConfigError, InvalidInputError, int_in
from .kernels import (
    PolyKernelParams,
    VolterraParams,
    fit_kernel_model,
    poly_gram,
    predict_kernel,
    volterra_gram,
)
from .ngrc import delay_vectors, fit_ngrc, predict_ngrc

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


def run_bench(config: dict) -> list[dict]:
    """One row per timed primitive, as ``kernelcast bench`` writes them."""
    tau = _get(config, "bench.tau")
    n = _get(config, "bench.n", int_in(tau, _MAX_SIZE))
    n2 = _get(config, "bench.n_doubled") or 2 * n
    d, gram_d, ps, lam_reg, repeats, steps = (
        _get(config, f"bench.{name}") for name in (
            "d", "gram_d", "ps", "lam_reg", "repeats", "prediction_steps"))
    # the draws are (rows + prediction_steps, width) arrays; one that would
    # hold more values than an array can address names its largest size
    for sizes in ({"bench.n": n, "bench.prediction_steps": steps,
                   "bench.d": d},
                  {"bench.n_doubled": n2, "bench.prediction_steps": steps,
                   "bench.gram_d": gram_d}):
        length, extra, width = sizes.values()
        if (length + extra) * width > _MAX_SIZE:
            raise ConfigError(f"{length} + {extra} rows of {width} draws exceed "
                              f"the {_MAX_SIZE} values one array can address",
                              field=max(sizes, key=sizes.get))
    try:
        vp = VolterraParams(_get(config, "bench.volterra.lam"),
                            _get(config, "bench.volterra.theta"))
    except InvalidInputError as exc:  # each is positive: the joint bound
        raise ConfigError(str(exc), field="bench.volterra")
    seed = _get(config, "seed")
    rng = Philox(seed)

    series = rng.uniform(-1.0, 1.0, (n + steps, d))
    targets = rng.uniform(-1.0, 1.0, (n + steps, 1))
    rows = []

    def record(op, p_val, n_val, timing, per_step=1):
        median_s, min_s = timing
        rows.append({"op": op, "n": n_val, "tau": tau, "p": p_val,
                     "d": d if op.startswith(("ngrc", "poly")) else gram_d,
                     "median_s": median_s / per_step, "min_s": min_s / per_step,
                     "repeats": repeats, "asymptotic": _ASYMPTOTIC[op]})

    train_sweep = _time_sweep(
        {p: (lambda p=p: fit_ngrc(series[:n], targets[:n], tau, p, lam_reg))
         for p in ps}, repeats)
    for p in ps:
        record("ngrc-train", p, n, train_sweep[p])
        model = fit_ngrc(series[:n], targets[:n], tau, p, lam_reg)
        windows = delay_vectors(series[: n + steps], tau)[-steps:]
        record("ngrc-predict", p, n, _time_sweep(
            {p: lambda: predict_ngrc(model, windows)}, repeats)[p],
            per_step=steps)

    windows_n = delay_vectors(series[:n], tau)
    pk = PolyKernelParams(2, tau)
    record("poly-gram", 2, n, _time_sweep(
        {2: lambda: poly_gram(windows_n, windows_n, pk)}, repeats)[2])
    poly_model = fit_kernel_model(series[:n], targets[:n], pk, lam_reg)
    test_windows = delay_vectors(series[: n + steps], tau)[-steps:]
    record("poly-predict", 2, n, _time_sweep(
        {2: lambda: predict_kernel(poly_model, test_windows)}, repeats)[2],
        per_step=steps)

    volt_inputs = rng.uniform(-1.0, 1.0, (n2 + steps, gram_d))
    volt_inputs /= np.linalg.norm(volt_inputs, axis=1).max()
    # the Volterra Gram ignores p; timed across the sweep to expose that
    volt_sweep = _time_sweep(
        {p: (lambda: volterra_gram(volt_inputs[:n], vp)) for p in ps},
        repeats)
    for p in ps:
        record("volterra-gram", p, n, volt_sweep[p])
    record("volterra-gram", 0, n2, _time_sweep(
        {0: lambda: volterra_gram(volt_inputs[:n2], vp)}, repeats)[0])
    volt_model = fit_kernel_model(volt_inputs[:n], targets[:n], vp, lam_reg)
    record("volterra-predict", 0, n, _time_sweep(
        {0: lambda: predict_kernel(volt_model, volt_inputs[n : n + steps])},
        repeats)[0], per_step=steps)
    return rows
