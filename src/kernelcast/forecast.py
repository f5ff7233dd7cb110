"""Closed-loop path continuation, open-loop forecasting, and ``forecast.csv``.

:func:`forecast_task` runs a task on a test span and pairs the run with
the test outputs it predicts; :func:`path_continue` and :func:`open_loop`
are its two rollouts.  A closed-loop rollout feeds each prediction back as
the next input; it is deterministic given the fitted estimator and the
seed history.  Either run stops before its first prediction that is not
finite, flagged as truncated there; Volterra inputs outside the kernel's
norm ball are projected onto it and counted in ``projected``.
:meth:`ForecastRun.save_csv` and :func:`load_forecast_csv` write and read
a run, whose every value is finite; :mod:`kernelcast.metrics` scores it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .arrays import sample_rows
from .datasets import read_csv, write_csv
from .errors import InvalidInputError, ParseError, doc_field, int_in
from .linsolve import row_norms


@dataclass
class ForecastRun:
    """Outcome of one forecasting task: ``predicted`` holds one row a step,
    and stops before the first prediction that is not finite.

    ``predicted`` and ``reference`` are read as float ``(h, d)`` rows, a
    1-d array as one column and zero rows allowed (a run truncated at its
    first step); a ``reference`` holds one row per predicted row.  Any
    other shape raises :class:`InvalidInputError` naming the argument.
    """

    mode: str  # "path-continuation" or "open-loop"
    horizon: int
    predicted: np.ndarray
    reference: np.ndarray | None = None
    error: str | None = None
    error_step: int | None = None
    projected: int = 0  # Volterra inputs projected onto the norm ball

    def __post_init__(self):
        self.predicted = sample_rows(self.predicted, "predicted", empty=True)
        if self.reference is not None:
            self.reference = sample_rows(self.reference, "reference",
                                         empty=True)
            if self.reference.shape != self.predicted.shape:
                raise InvalidInputError(
                    f"reference of shape {self.reference.shape} does not "
                    f"match predicted of shape {self.predicted.shape}")
        finite = np.isfinite(self.predicted).all(axis=1)
        if not finite.all():
            self.error, self.error_step = "non-finite prediction", \
                int(finite.argmin()) + 1
            self.predicted = self.predicted[:self.error_step - 1]
            if self.reference is not None:
                self.reference = self.reference[:self.error_step - 1]

    @property
    def truncated(self) -> bool:
        return self.error is not None

    def save_csv(self, path, extra_meta: dict | None = None) -> None:
        """Reference, prediction, and per-step error columns, one row a step."""
        pred, ref = self.predicted, self.reference
        meta = {"mode": self.mode, "horizon": self.horizon}
        if self.error is not None:
            meta.update(error_step=self.error_step, error=self.error)
        meta.update(extra_meta or {})
        header = ["step"] + [f"pred{j}" for j in range(pred.shape[1])]
        if ref is None:
            rows = ([i + 1, *p] for i, p in enumerate(pred))
        else:
            header += [f"ref{j}" for j in range(pred.shape[1])] + ["err"]
            rows = ([i + 1, *p, *r, _step_error(p - r)]
                    for i, (p, r) in enumerate(zip(pred, ref, strict=True)))
        # an err whose sum of squares overflows is measured again
        with np.errstate(over="ignore"):
            write_csv(path, header, rows, meta)


def _step_error(diff: np.ndarray) -> float:
    """``np.linalg.norm(diff)``; a finite ``diff`` whose sum of squares
    overflows is measured by :func:`row_norms` instead."""
    norm = np.linalg.norm(diff)
    return row_norms(diff[None])[0] if math.isinf(norm) else norm


def _comment_int(meta: dict, key: str, path, lo: int,
                 hi: float = math.inf) -> int:
    """The comment ``key`` of the CSV at ``path`` as a whole number in
    ``[lo, hi]`` (:func:`~kernelcast.errors.int_in`), or a
    :class:`ParseError` naming it."""
    text = doc_field(meta, key, str(path))
    try:
        number = float(text)
    except ValueError:
        number = math.nan  # no whole number
    try:
        return int_in(lo, hi)(number)
    except InvalidInputError as exc:
        raise ParseError(f"{key}={text} {exc}") from None


def load_forecast_csv(path) -> tuple[ForecastRun, dict]:
    """Read back a run written by :meth:`ForecastRun.save_csv`.  A missing
    ``mode`` or ``horizon`` comment raises
    :class:`~kernelcast.errors.MissingKeyError` naming ``path``; an unknown
    mode raises :class:`InvalidInputError`, and a prediction or reference
    that is not finite a :class:`ParseError` naming its line.  The
    comments follow the rules that the run is written by, or raise a
    :class:`ParseError` naming the key: a whole ``horizon`` of at least 1
    and of at least the rows, and an ``error_step`` one past the last row,
    exactly when there is an ``error``."""
    meta, header, data = read_csv(path, "step")
    mode = check_task(doc_field(meta, "mode", str(path)))
    columns = header[1:]
    pred_cols = [i for i, c in enumerate(columns) if c.startswith("pred")]
    ref_cols = [i for i, c in enumerate(columns) if c.startswith("ref")]
    finite = np.isfinite(data[:, pred_cols + ref_cols]).all(axis=1)
    if not finite.all():  # a rollout stops before a non-finite prediction
        with open(path, "r", encoding="utf-8") as fh:
            rows = [n for n, line in enumerate(fh, 1)
                    if line.strip() and not line.startswith("#")]
        raise ParseError("a prediction or reference is not finite",
                         line=rows[finite.argmin() + 1])  # after the header
    rows = data.shape[0]
    horizon = _comment_int(meta, "horizon", path, max(rows, 1))
    error_step = None
    if "error" in meta:
        error_step = _comment_int(meta, "error_step", path, rows + 1, rows + 1)
    elif "error_step" in meta:
        raise ParseError("error_step needs an error comment")
    return ForecastRun(mode, horizon, data[:, pred_cols],
                       data[:, ref_cols] if ref_cols else None,
                       meta.get("error"), error_step), meta


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
    predicted = np.empty((horizon,
                          sample_rows(seed_history, "seed_history").shape[1]))
    # divergence shows up as overflow before the finiteness check catches it
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(horizon):
            predicted[k] = stepper.step()
            if not np.all(np.isfinite(predicted[k])):
                break
    return ForecastRun("path-continuation", horizon, predicted[:k + 1],
                       projected=stepper.projected)


def open_loop(estimator, history, test_inputs) -> ForecastRun:
    """One prediction per test input after the raw inputs ``history``, no
    feedback (see :meth:`~kernelcast.estimators.Estimator.open_loop`); the
    run has no reference."""
    ext = estimator.model.extension() if estimator.kind == "volterra" else None
    predicted = estimator.open_loop(history, test_inputs, ext)
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
    of the training series; open loop predicts once per test input, after
    the training span's inputs, and a series' inputs are its samples one
    step behind its outputs.  The run's
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
        run = open_loop(estimator, train[0][:-1], np.concatenate(
            [train[0][-1:], reference])[:reference.shape[0]])
    else:
        run = open_loop(estimator, train[0], test[0][:reference.shape[0]])
    return replace(run, reference=reference[:run.predicted.shape[0]])

