"""Forecast metrics, and :func:`evaluate_run`, which scores every run.

Its protocol's settings are this module's constants (README, "Outputs").
Pointwise errors (NMSE, MAE, MdAE, MAPE), the Welch-periodogram power
spectral density error (PSDE), empirical Wasserstein-1 distances in one
and several dimensions, and the valid prediction time.  Conventions:

* NMSE averages per-dimension SSE / TSS ratios; dimensions with zero
  variance are excluded and flagged.
* MAE is the mean 1-norm of the error vector per step (no division by the
  dimension count); MdAE uses the lower median for even step counts.
* MAPE divides by ``max(MAPE_EPS, |y|)`` per dimension and step.
* PSDE sums ``|PSD - PSD_hat| / PSD`` over dimensions and every bin;
  zero-power bins are skipped and counted.  The Welch PSD is computed on
  ``numpy.fft`` and matches SciPy's ``welch`` (Hann window, constant
  detrend, density scaling) bit for bit, without loading SciPy's signal
  package.
* W1 for equal-size samples is the exact optimal transport cost; in one
  dimension via the sorted-CDF formula, in d dimensions via a minimum-cost
  perfect matching on the Euclidean cost matrix.  Cost matrix and matching
  are SciPy's ``cdist`` and ``linear_sum_assignment``, bit for bit, done
  on numpy; the cost is built in row panels, so it is the one k×k array.
  A longer sample is cut to :data:`W1_CAP` rows by :func:`subsample_rows`,
  whose seeded index set is numpy's ``Generator.choice``, bit for bit,
  drawn from the package's own Philox stream.
* The valid time is ``k * dt * lyapunov_exponent`` for the first step
  ``k`` (1-based; else the horizon, censored) at which the error norm over
  the reference's RMS deviation exceeds :data:`VALID_THRESHOLD`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .arrays import sample_rows
from .datasets import Philox
from .errors import InvalidInputError

# The scoring protocol: the Welch segment length (capped at the series
# length) and overlap, the largest W1 sample and the seed that subsamples
# to it, the MAPE denominator floor and the valid-time error threshold.
WELCH_NPERSEG = 1024
WELCH_OVERLAP = 0.5
W1_CAP = 512
W1_SEED = 7
MAPE_EPS = 1e-8
VALID_THRESHOLD = 0.2
# Rows of the W1 cost matrix filled per panel (see euclidean_cost).
_COST_PANEL = 64


def _pair(y, y_hat, names=("y", "y_hat")) -> tuple[np.ndarray, np.ndarray]:
    a, b = sample_rows(y, names[0]), sample_rows(y_hat, names[1])
    if a.shape != b.shape:
        raise InvalidInputError(f"shape mismatch: {a.shape} vs {b.shape}")
    return a, b


def nmse_detailed(y, y_hat) -> tuple[float, tuple]:
    """Normalized mean squared error plus the flagged zero-variance dims."""
    a, b = _pair(y, y_hat)
    sse = np.sum((a - b) ** 2, axis=0)
    tss = np.sum((a - a.mean(axis=0)) ** 2, axis=0)
    degenerate = tuple(int(j) for j in np.nonzero(tss <= 0.0)[0])
    good = tss > 0.0
    if not np.any(good):
        return float("nan"), degenerate
    return float(np.mean(sse[good] / tss[good])), degenerate


def nmse(y, y_hat) -> float:
    return nmse_detailed(y, y_hat)[0]


def mae(y, y_hat) -> float:
    a, b = _pair(y, y_hat)
    return float(np.mean(np.sum(np.abs(a - b), axis=1)))


def mdae(y, y_hat) -> float:
    """Per-dimension median absolute error, averaged over dimensions.

    Uses the lower median for even counts.
    """
    a, b = _pair(y, y_hat)
    err = np.sort(np.abs(a - b), axis=0)
    h = err.shape[0]
    lower_median = err[(h - 1) // 2]
    return float(np.mean(lower_median))


def mape(y, y_hat) -> float:
    a, b = _pair(y, y_hat)
    denom = np.maximum(MAPE_EPS, np.abs(a))
    return float(np.mean(np.abs(a - b) / denom))


@dataclass
class Periodogram:
    """One-sided Welch estimate per dimension (Hann window)."""

    frequencies: np.ndarray
    power: np.ndarray  # (n_bins, d)


def welch_psd(values, nperseg: int, *, fs: float = 1.0) -> Periodogram:
    """Welch power spectral density, Hann window, mean-detrended segments.

    ``values`` is (n,) or (n, d); densities are returned per dimension on a
    shared one-sided frequency grid.  The steps are those of SciPy's
    ``welch`` with ``noverlap = round(WELCH_OVERLAP * nperseg)``, in its
    order, so the bits agree.
    """
    x = sample_rows(values, "values")
    n = x.shape[0]
    if not 1 <= nperseg <= n:
        raise InvalidInputError(f"nperseg must lie in [1, {n}]")
    if not 0.0 < fs < np.inf:
        raise InvalidInputError("fs must be positive and finite")
    noverlap = int(round(WELCH_OVERLAP * nperseg))
    hop = nperseg - noverlap
    T = 1 / fs
    # periodic Hann window, scaled to a density the way SciPy scales it
    # (builtin sum, divided by T = 1/fs) so that the bits agree
    window = np.ones(1)
    if nperseg > 1:
        fac = np.linspace(-np.pi, np.pi, nperseg + 1)
        window = (0.5 + 0.5 * np.cos(fac))[:-1]
    window = window * (1 / np.sqrt(sum(window**2) / T))
    # (d, segments, nperseg) view of the (d, n) transpose, laid out as
    # SciPy's welch lays it out, so the segment means sum in its order
    xt = x.T if x.flags.c_contiguous else np.ascontiguousarray(x.T)
    segments = np.lib.stride_tricks.sliding_window_view(xt, nperseg, axis=1)
    segments = segments[:, : (n - noverlap) // hop * hop : hop]
    spectra = np.fft.rfft(
        (segments - segments.mean(axis=-1, keepdims=True)) * window, axis=-1)
    power = spectra.real**2 + spectra.imag**2
    power[..., 1:-1 if nperseg % 2 == 0 else None] *= 2
    # average with the segment axis contiguous (pairwise summation)
    power = np.ascontiguousarray(power.transpose(2, 0, 1)).mean(axis=-1)
    return Periodogram(np.fft.rfftfreq(nperseg, T), power)


def psde_detailed(psd_true: Periodogram,
                  psd_est: Periodogram) -> tuple[float, int]:
    """Summed relative PSD difference over every bin, plus skipped bins."""
    if psd_true.frequencies.shape != psd_est.frequencies.shape or not np.allclose(
        psd_true.frequencies, psd_est.frequencies
    ):
        raise InvalidInputError("periodograms live on different frequency grids")
    if psd_true.power.shape != psd_est.power.shape:
        raise InvalidInputError("periodogram dimensions differ")
    p, q = psd_true.power, psd_est.power
    nonzero = p > 0.0
    skipped = int(np.sum(~nonzero))
    total = float(np.sum(np.abs(p[nonzero] - q[nonzero]) / p[nonzero]))
    return total, skipped


def psde(psd_true: Periodogram, psd_est: Periodogram) -> float:
    return psde_detailed(psd_true, psd_est)[0]


def w1_1d(samples_a, samples_b) -> float:
    """Exact empirical Wasserstein-1 distance on the line.

    Integrates the absolute difference of the two empirical CDFs over the
    merged sample support.
    """
    a = np.sort(np.asarray(samples_a, dtype=np.float64).reshape(-1))
    b = np.sort(np.asarray(samples_b, dtype=np.float64).reshape(-1))
    if a.size == 0 or b.size == 0:
        raise InvalidInputError("samples must be non-empty")
    support = np.sort(np.concatenate([a, b]))
    deltas = np.diff(support)
    cdf_a = np.searchsorted(a, support[:-1], side="right") / a.size
    cdf_b = np.searchsorted(b, support[:-1], side="right") / b.size
    return float(np.sum(np.abs(cdf_a - cdf_b) * deltas))


def w1_nd(samples_a, samples_b) -> float:
    """Exact W1 between equal-size d-dimensional samples.

    Equal-weight empirical measures reduce optimal transport to a minimum
    cost perfect matching on the pairwise Euclidean cost matrix, whose
    cost grows as k³.  Sample counts above :data:`W1_CAP` are rejected;
    subsample first (seeded) if needed.
    """
    A = sample_rows(samples_a, "samples_a")
    B = sample_rows(samples_b, "samples_b")
    if A.shape[1] != B.shape[1]:
        raise InvalidInputError("samples must be (k, d) arrays of equal d")
    if A.shape[0] != B.shape[0]:
        raise InvalidInputError(
            "sample counts differ; subsample to equal sizes first"
        )
    if A.shape[0] > W1_CAP:
        raise InvalidInputError(
            f"{A.shape[0]} samples exceed the cap of {W1_CAP}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        cost = euclidean_cost(A, B)
    if not np.all(np.isfinite(cost)):
        raise InvalidInputError("cost matrix has non-finite entries")
    cols = min_cost_matching(cost)
    return float(cost[np.arange(cost.shape[0]), cols].mean())


def euclidean_cost(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Distances between the rows of ``A`` and of ``B`` as SciPy's ``cdist``
    forms them: squared differences added over the dimensions in order,
    then the square root.  The cost is filled in panels of
    :data:`_COST_PANEL` rows, so one panel of differences is the only
    temporary."""
    cost = np.zeros((A.shape[0], B.shape[0]))
    delta = np.empty((min(_COST_PANEL, A.shape[0]), B.shape[0]))
    for start in range(0, A.shape[0], _COST_PANEL):
        panel = cost[start:start + _COST_PANEL]
        work = delta[:panel.shape[0]]
        for j in range(A.shape[1]):
            np.subtract.outer(A[start:start + _COST_PANEL, j], B[:, j],
                              out=work)
            work *= work
            panel += work
    return np.sqrt(cost, out=cost)


def min_cost_matching(cost: np.ndarray) -> np.ndarray:
    """Column of each row in a minimum-cost perfect matching.

    ``cost`` is a finite square matrix.  Shortest augmenting paths with
    row and column duals (Crouse 2016), in the steps of SciPy's
    ``linear_sum_assignment``: rows join in order; each search scans the
    columns not yet reached in SciPy's order, and of equally short paths
    it takes one that ends at an unassigned column.  So the matching is
    SciPy's, ties included.  Each scan is one vectorized pass.
    """
    n = cost.shape[0]
    u = np.zeros(n)
    v = np.zeros(n)
    path = np.full(n, -1)  # the row each column's shortest path comes from
    col4row = np.full(n, -1)
    row4col = np.full(n, -1)
    for cur_row in range(n):
        # the columns not yet reached in scan order, and aligned with them
        # their shortest path length so far, the row it comes from, their
        # dual and whether they are free; the first `left` are live
        cols = np.arange(n - 1, -1, -1)
        short = np.full(n, np.inf)
        via = np.empty(n, dtype=np.intp)
        col_dual = v[cols]
        free = row4col[cols] == -1
        left = n
        min_val = 0.0
        i = cur_row
        reached = []  # (column, shortest path length) in the order reached
        while True:
            live = short[:left]
            r = cost[i].take(cols[:left])
            r += min_val
            r -= u[i]
            r -= col_dual[:left]
            better = r < live
            np.copyto(via[:left], i, where=better)
            np.copyto(live, r, where=better)
            index = int(live.argmin())
            min_val = live[index]
            ties = (live == min_val).nonzero()[0]
            if ties.size > 1:
                # the scan keeps the first shortest, then any later free one
                free_ties = ties[free[ties]]
                if free_ties.size:
                    index = int(free_ties[-1])
            j = int(cols[index])
            path[j] = via[index]
            reached.append((j, min_val))
            if free[index]:
                break
            i = int(row4col[j])
            left -= 1
            for a in (cols, short, via, col_dual, free):
                a[index] = a[left]
        # update the duals: each reached column but the sink leads to the
        # row matched to it
        u[cur_row] += min_val
        for j, length in reached[:-1]:
            u[row4col[j]] += min_val - length
        for j, length in reached:
            v[j] -= min_val - length
        # augment along the path back to the current row
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur_row:
                break
    return col4row


def subsample_rows(values, k: int, seed: int) -> np.ndarray:
    """Seeded uniform row subsample without replacement (order preserved).

    The rows are those of ``np.sort(Generator(Philox(seed)).choice(n, k,
    replace=False))`` in numpy 2.x, drawn by the package's
    :class:`~kernelcast.datasets.Philox` stream.
    """
    V = sample_rows(values, "values")
    if k >= V.shape[0]:
        return V.copy()
    return V[Philox(seed).sorted_choice(V.shape[0], k)]


@dataclass
class MetricReport:
    """One row of evaluation results plus provenance."""

    nmse: float = float("nan")
    mae: float = float("nan")
    mdae: float = float("nan")
    mape: float = float("nan")
    psde: float = float("nan")
    w1: float = float("nan")
    t_valid: float | None = None
    t_valid_censored: bool = False
    flags: dict = field(default_factory=dict)
    config: dict = field(default_factory=dict)

    SCORES = ("nmse", "mae", "mdae", "mape", "psde", "w1")
    CSV_FIELDS = SCORES + ("t_valid", "t_valid_censored")

    def csv_cells(self) -> list:
        """CSV_FIELDS values: ``None`` (no valid time) as ``nan``, booleans
        as 0/1, so that :func:`~kernelcast.datasets.read_csv` reads it back."""
        values = (getattr(self, name) for name in self.CSV_FIELDS)
        return [float("nan") if v is None
                else int(v) if isinstance(v, bool) else v for v in values]

    def to_json(self) -> str:
        doc = {name: getattr(self, name) for name in self.CSV_FIELDS}
        doc["flags"] = self.flags
        doc["config"] = self.config
        return json.dumps(doc, sort_keys=True)


@dataclass(frozen=True)
class ValidTime:
    """Valid prediction time in Lyapunov times."""

    value: float
    first_exceed_step: int | None  # 1-based; None when censored
    censored: bool


def valid_time(reference, predicted, lyapunov_exponent: float,
               dt: float) -> ValidTime:
    """Lyapunov times until the error first exceeds :data:`VALID_THRESHOLD`."""
    if not lyapunov_exponent > 0:
        raise InvalidInputError("lyapunov_exponent must be positive")
    if not dt > 0:
        raise InvalidInputError("dt must be positive")
    y, y_hat = _pair(reference, predicted, ("reference", "predicted"))
    centered = y - y.mean(axis=0)
    rms = float(np.sqrt(np.mean(np.sum(centered**2, axis=1))))
    if rms <= 0:
        raise InvalidInputError("reference series has no variation")
    err = np.linalg.norm(y_hat - y, axis=1) / rms
    exceeded = np.nonzero(err > VALID_THRESHOLD)[0]
    if exceeded.size == 0:
        return ValidTime(y.shape[0] * dt * lyapunov_exponent, None, True)
    step = int(exceeded[0]) + 1
    return ValidTime(step * dt * lyapunov_exponent, step, False)


@np.errstate(over="ignore", invalid="ignore")
def evaluate_run(reference: np.ndarray, predicted: np.ndarray, dt: float,
                 mode: str, lyap: float | None) -> MetricReport:
    """Score ``predicted`` against ``reference``, (h, d) rows ``dt``
    apart, by the fixed protocol.  A path continuation with a Lyapunov
    exponent ``lyap`` gets a valid time, which bounds its pointwise window.
    Finite rows whose squares or sums pass the float range give an inf or
    NaN score, and ``flags["overflow"]`` names each one (but the NaN that a
    degenerate ``nmse`` or ``w1`` flags)."""
    report = MetricReport(config={"mode": mode, "dt": dt})

    t_valid_steps = None
    if mode == "path-continuation" and lyap is not None:
        vt = valid_time(reference, predicted, lyap, dt)
        report.t_valid = vt.value
        report.t_valid_censored = vt.censored
        t_valid_steps = max(int(min(math.ceil(vt.value) / lyap / dt,
                                    reference.shape[0])), 1)
    y, y_hat = reference[:t_valid_steps], predicted[:t_valid_steps]

    report.nmse, degenerate = nmse_detailed(y, y_hat)
    if degenerate:
        report.flags["nmse_degenerate_dims"] = list(degenerate)
    report.mae = mae(y, y_hat)
    report.mdae = mdae(y, y_hat)
    report.mape = mape(y, y_hat)

    nperseg = min(WELCH_NPERSEG, reference.shape[0])
    report.psde, skipped = psde_detailed(
        welch_psd(reference, nperseg, fs=1.0 / dt),
        welch_psd(predicted, nperseg, fs=1.0 / dt))
    if skipped:
        report.flags["psde_skipped_bins"] = skipped

    try:
        if reference.shape[1] == 1:
            report.w1 = w1_1d(reference[:, 0], predicted[:, 0])
        else:
            k = min(W1_CAP, reference.shape[0])
            a = subsample_rows(reference, k, W1_SEED)
            b = subsample_rows(predicted, k, W1_SEED)
            report.w1 = w1_nd(a, b)
            report.flags["w1_subsampled_to"] = int(a.shape[0])
    except InvalidInputError as exc:
        report.w1 = float("nan")
        report.flags["w1_degenerate"] = str(exc)

    flagged_nan = {"nmse": len(degenerate) == y.shape[1],
                   "w1": "w1_degenerate" in report.flags}
    overflow = [name for name in report.SCORES
                if math.isinf(value := getattr(report, name))
                or math.isnan(value) and not flagged_nan.get(name, False)]
    if overflow:
        report.flags["overflow"] = overflow
    report.config.update({"t_valid_steps": t_valid_steps,
                          "welch_nperseg": nperseg})
    return report
