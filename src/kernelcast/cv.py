"""Fold generation and hyperparameter grid search.

Two fold geometries:

* overlapping windows for closed-loop (path continuation) tasks, so each
  fold rolls out from a different starting point of the training span,
* expanding blocks for input/output tasks: fold i trains on the first i
  equal blocks and validates on block i+1.

Grid search refits the estimator, including its preprocessing, on each
fold's training slice, scores validation MSE in the task's own mode, and
averages across folds.  Divergent rollouts score as infinity rather than
aborting the candidate, and the candidate records why.  Ties break toward
simpler models: smaller p, smaller tau, larger ridge, then first in grid
order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .datasets import write_csv
from .errors import (GridSearchError, InvalidInputError, KernelcastError,
                     sample_rows)
from .estimators import REQUIRED_HYPER, check_hyper, fit_task
from .forecast import check_task, forecast_task


@dataclass(frozen=True)
class Fold:
    train_start: int
    train_stop: int
    val_start: int
    val_stop: int


@dataclass
class FoldPlan:
    folds: list


def overlapping_folds(n_train: int, fold_len: int, val_len: int,
                      stride: int) -> FoldPlan:
    """Sliding train/validation windows stepping by ``stride``."""
    if fold_len < 1 or val_len < 1 or stride < 1:
        raise InvalidInputError("fold_len, val_len, stride must be >= 1")
    if fold_len + val_len > n_train:
        raise InvalidInputError(
            f"fold_len + val_len = {fold_len + val_len} exceeds n_train = {n_train}"
        )
    folds = []
    start = 0
    while start + fold_len + val_len <= n_train:
        folds.append(Fold(start, start + fold_len,
                          start + fold_len, start + fold_len + val_len))
        start += stride
    return FoldPlan(folds)


def expanding_folds(n_train: int, k: int) -> FoldPlan:
    """k equal blocks (remainder on the last); fold i = first i vs block i+1."""
    if k < 2:
        raise InvalidInputError("k must be >= 2")
    if n_train < k:
        raise InvalidInputError("n_train must be at least k")
    block = n_train // k
    folds = []
    for i in range(1, k):
        val_stop = (i + 1) * block if i + 1 < k else n_train
        folds.append(Fold(0, i * block, i * block, val_stop))
    return FoldPlan(folds)


# The Grid list of each required hyperparameter.
GRID_AXES = {"tau": "taus", "p": "ps", "lam": "lams", "theta": "thetas",
             "lam_reg": "lam_regs"}


@dataclass
class Grid:
    """Per-hyperparameter value lists.

    A kind's candidates are the product of the lists its
    ``REQUIRED_HYPER`` names (:data:`GRID_AXES`), in that order: ``taus``,
    ``ps``, ``lam_regs`` for the lagged estimators, ``lams``, ``thetas``,
    ``lam_regs`` for Volterra.  Volterra pairs that ``check_hyper`` rejects
    for ``M`` are pruned and reported, never evaluated.
    """

    taus: list = field(default_factory=list)
    ps: list = field(default_factory=list)
    lams: list = field(default_factory=list)
    thetas: list = field(default_factory=list)
    lam_regs: list = field(default_factory=list)
    M: float = 1.0

    def candidates(self, estimator_kind: str) -> tuple[list[dict], list[dict]]:
        """(feasible candidates in grid order, pruned candidates)."""
        if estimator_kind not in REQUIRED_HYPER:
            raise InvalidInputError(
                f"unknown estimator kind {estimator_kind!r}")
        names = REQUIRED_HYPER[estimator_kind]
        axes = [getattr(self, GRID_AXES[name]) for name in names]
        empty = [name for name, values in zip(names, axes) if not values]
        if empty:
            raise InvalidInputError(
                f"{estimator_kind} grids need non-empty values for "
                + ", ".join(empty))
        feasible = []
        pruned = []
        for values in itertools.product(*axes):
            cand = dict(zip(names, values))
            if estimator_kind == "volterra":
                cand["M"] = self.M
            try:
                check_hyper(estimator_kind, cand)
            except InvalidInputError:
                pruned.append(cand)
                continue
            feasible.append(cand)
        return feasible, pruned


@dataclass
class CandidateResult:
    """Scores of one candidate; ``failures`` names the cause of every
    infinite entry of ``fold_mse``.  ``fold_projected`` counts, per fold,
    the inputs its rollout projected onto the Volterra norm ball (``None``
    for a fold whose fit or rollout raised)."""

    params: dict
    fold_mse: list
    mean_mse: float
    failures: list = field(default_factory=list)
    fold_projected: list = field(default_factory=list)

    def describe(self) -> dict:
        """JSON form: ``fold_mse`` with ``None`` for a fold without a
        score."""
        return {"params": self.params,
                "fold_mse": [s if math.isfinite(s) else None
                             for s in self.fold_mse],
                "failures": self.failures,
                "fold_projected": self.fold_projected}


@dataclass
class GridSearchResult:
    best: dict
    table: list  # CandidateResult in grid order
    pruned: list

    def leaderboard_csv(self, path) -> None:
        keys = sorted({k for row in self.table for k in row.params})
        write_csv(path, keys + ["mean_mse"],
                  ([repr(row.params.get(k, "")) for k in keys] + [row.mean_mse]
                   for row in self.table))


def _rollout_score(run) -> tuple[float, str | None]:
    """(validation MSE against the run's reference, None), or (inf, why
    the rollout has no score)."""
    if run.truncated:
        return float("inf"), f"truncated at step {run.error_step}: {run.error}"
    return float(np.mean((run.predicted - run.reference) ** 2)), None


def _score_fold(kind, params, task_mode, span, fold: Fold):
    """(score, why it is infinite, inputs projected) of one fold: the task
    run on the fold's validation rows of every array in ``span`` by an
    estimator fitted on its training rows."""
    train = tuple(a[fold.train_start:fold.train_stop] for a in span)
    val = tuple(a[fold.val_start:fold.val_stop] for a in span)
    est = fit_task(kind, params, train)
    run = forecast_task(est, task_mode, train, val,
                        fold.val_stop - fold.val_start)
    return (*_rollout_score(run), run.projected)


def _tie_break_key(item):
    index, cand = item
    mse = cand.mean_mse
    p = cand.params.get("p", 0)
    tau = cand.params.get("tau", 0)
    reg = cand.params.get("lam_reg", 0.0)
    return (mse, p, tau, -reg, index)


def grid_search(estimator_kind: str, grid: Grid, plan: FoldPlan,
                task_mode: str, train: tuple,
                fixed_hyper: dict | None = None) -> GridSearchResult:
    """Exhaustive search over the feasible grid.

    ``train`` is the span the folds cut: ``(series,)`` or ``(inputs,
    outputs)``.  Each fold runs task ``task_mode`` as
    :func:`~kernelcast.forecast.forecast_task` does on its validation rows.
    ``fixed_hyper`` entries (for example a Volterra washout) are merged
    into every candidate before fitting.  Estimator preprocessing is refit
    inside every fold, so validation slices never contribute statistics.
    """
    check_task(task_mode, train)
    feasible, pruned = grid.candidates(estimator_kind)
    if not feasible:
        raise GridSearchError("no feasible candidates in the grid")
    span = [sample_rows(a, "train") for a in train]

    table = []
    for params in feasible:
        full = {**(fixed_hyper or {}), **params}
        fold_scores = []
        failures = []
        projected = []
        for k, fold in enumerate(plan.folds, 1):
            try:
                score, reason, count = _score_fold(
                    estimator_kind, full, task_mode, span, fold)
            except KernelcastError as exc:
                # candidate-level failure, not fatal
                score, reason, count = float("inf"), str(exc), None
            if reason is not None:
                failures.append(f"fold {k} of {len(plan.folds)}: {reason}")
            fold_scores.append(score)
            projected.append(count)
        mean = float(np.mean(fold_scores)) if fold_scores else float("inf")
        table.append(CandidateResult(params, fold_scores, mean, failures,
                                     projected))

    if all(not math.isfinite(c.mean_mse) for c in table):
        first = table[0]
        cause = "; ".join(first.failures) or first.fold_mse
        raise GridSearchError(
            "every candidate failed or diverged on at least one fold; "
            f"first: {first.params}: {cause}")
    best_idx, best = min(enumerate(table), key=_tie_break_key)
    return GridSearchResult(dict(best.params), table, pruned)
