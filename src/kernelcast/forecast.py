"""Closed-loop path continuation, open-loop forecasting, and ``forecast.csv``.

:func:`forecast_task` runs a task on a test span and pairs the run with
the test outputs it predicts; :func:`path_continue` and :func:`open_loop`
are its two rollouts.  A closed-loop rollout feeds each prediction back as
the next input; it is deterministic given the fitted estimator and the
seed history.  A run whose prediction turns non-finite is returned
truncated at that step instead of being padded; Volterra inputs outside
the kernel's norm ball are projected onto it and counted in
``projected``.  :meth:`ForecastRun.save_csv` and :func:`load_forecast_csv`
write and read a run; :mod:`kernelcast.metrics` scores it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datasets import read_csv, write_csv
from .errors import InvalidInputError, ParseError, doc_field


@dataclass
class ForecastRun:
    """Outcome of one forecasting task."""

    mode: str  # "path-continuation" or "open-loop"
    horizon: int
    predicted: np.ndarray
    reference: np.ndarray | None = None
    error: str | None = None
    error_step: int | None = None
    projected: int = 0  # Volterra inputs projected onto the norm ball

    @property
    def truncated(self) -> bool:
        return self.error is not None

    def save_csv(self, path, extra_meta: dict | None = None) -> None:
        """Reference, prediction, and per-step error columns, one row a step."""
        pred = np.atleast_2d(self.predicted)
        ref = None if self.reference is None else np.atleast_2d(self.reference)
        meta = {"mode": self.mode, "horizon": self.horizon}
        if self.error is not None:
            meta.update(error_step=self.error_step, error=self.error)
        meta.update(extra_meta or {})
        header = ["step"] + [f"pred{j}" for j in range(pred.shape[1])]
        if ref is None:
            rows = ([i + 1, *p] for i, p in enumerate(pred))
        else:
            header += [f"ref{j}" for j in range(pred.shape[1])] + ["err"]
            rows = ([i + 1, *p, *r, np.linalg.norm(p - r)]
                    for i, (p, r) in enumerate(zip(pred, ref, strict=True)))
        write_csv(path, header, rows, meta)


def load_forecast_csv(path) -> tuple[ForecastRun, dict]:
    """Read back a run written by :meth:`ForecastRun.save_csv`.  A missing
    ``mode`` or ``horizon`` comment raises
    :class:`~kernelcast.errors.MissingKeyError` naming ``path``; an unknown
    mode raises :class:`InvalidInputError`."""
    meta, header, data = read_csv(path, "step")
    mode = check_task(doc_field(meta, "mode", str(path)))
    horizon = doc_field(meta, "horizon", str(path))
    columns = header[1:]
    predicted = data[:, [i for i, c in enumerate(columns) if c.startswith("pred")]]
    ref_cols = [i for i, c in enumerate(columns) if c.startswith("ref")]
    try:
        horizon = int(horizon)
        error_step = int(meta["error_step"]) if "error_step" in meta else None
    except ValueError as exc:
        raise ParseError(f"bad horizon or error_step metadata: {exc}") from exc
    run = ForecastRun(
        mode,
        horizon,
        predicted,
        data[:, ref_cols] if ref_cols else None,
        meta.get("error"),
        error_step,
    )
    return run, meta


def path_continue(estimator, seed_history, horizon: int) -> ForecastRun:
    """Autoregressive rollout of ``horizon`` steps from ``seed_history``.

    ``estimator`` must provide ``start(seed) -> stepper`` with
    ``stepper.step() -> next raw prediction`` and ``stepper.projected``
    (see :mod:`kernelcast.estimators`).  The run has no reference;
    :func:`forecast_task` attaches one.
    """
    if horizon < 1:
        raise InvalidInputError("horizon must be >= 1")
    stepper = estimator.start(seed_history)
    seed = np.asarray(seed_history)  # a 1-d seed is one column
    predicted = np.empty((horizon, seed.shape[1] if seed.ndim > 1 else 1))
    error = error_step = None
    # divergence shows up as overflow before the finiteness check catches it
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(horizon):
            y = stepper.step()
            if not np.all(np.isfinite(y)):
                error, error_step = "non-finite prediction", k + 1
                predicted = predicted[:k]
                break
            predicted[k] = y
    return ForecastRun("path-continuation", horizon, predicted, None, error,
                       error_step, stepper.projected)


def open_loop(estimator, test_inputs) -> ForecastRun:
    """One prediction per test input, no feedback; the run has no
    reference."""
    ext = estimator.model.extension() if estimator.kind == "volterra" else None
    predicted = np.atleast_2d(estimator.open_loop(test_inputs, ext))
    return ForecastRun("open-loop", predicted.shape[0], predicted,
                       projected=0 if ext is None else ext.projected)


def check_task(mode: str, train=None) -> str:
    """``mode`` if it is a task that the training span ``train`` (when
    given) supports: path continuation needs a series."""
    if mode not in ("path-continuation", "open-loop"):
        raise InvalidInputError(f"unknown task mode {mode!r}; expected "
                                "path-continuation or open-loop")
    if mode == "path-continuation" and train is not None and len(train) > 1:
        raise InvalidInputError("path continuation needs a series dataset")
    return mode


def forecast_task(estimator, mode: str, train: tuple, test: tuple,
                  horizon) -> ForecastRun:
    """Task ``mode`` on the ``test`` span, for at most ``horizon`` steps.

    A span is ``(series,)`` or ``(inputs, outputs)`` of raw sample rows, and
    ``test`` continues ``train``.  Path continuation rolls out from the end
    of the training series; open loop predicts once per test input, and a
    series' inputs are its samples one step behind its outputs.  The run's
    ``reference`` is the test outputs it predicts, one row per predicted
    row (a truncated rollout keeps the rows before its failure).  A
    ``horizon`` below 1 raises :class:`InvalidInputError`.
    """
    check_task(mode, train)
    if horizon < 1:
        raise InvalidInputError("horizon must be >= 1")
    reference = test[-1][:min(horizon, len(test[-1]))]
    if mode == "path-continuation":
        run = path_continue(estimator, train[0], reference.shape[0])
    elif len(test) == 1:
        run = open_loop(estimator, np.concatenate(
            [train[0][-1:], reference])[:reference.shape[0]])
    else:
        run = open_loop(estimator, test[0][:reference.shape[0]])
    run.reference = reference[:run.predicted.shape[0]]
    return run

