"""Next-generation reservoir computing: delay embedding, monomial features,
and the primal ridge estimator built on them.

A model maps the flattened window of the last ``tau`` input samples (oldest
lag first) through every monomial of total degree at most ``p`` (constant
included) and applies a linear readout fitted by ridge regression.  The
features are built degree by degree, one slice multiply per run of the
exponent table (see :class:`ExponentTable`).

:func:`lagged_pairs` cuts the windows, targets and washout of every lagged
fit, primal (:func:`fit_ngrc`) or dual (:mod:`kernelcast.kernels`).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (CapacityError, InvalidInputError, doc_error, doc_value,
                     finite_array, int_in, one_of, sample_rows)
from .linsolve import RidgeSolution, solve_ridge_primal

# Hard cap on materialized exponent-table rows; anything bigger is a config
# mistake at desk scale.
MAX_TABLE_ROWS = 1 << 22
_INT64_MAX = np.iinfo(np.int64).max


def feature_dim(tau: int, d: int, p: int) -> int:
    """Number of monomials of degree <= p in tau*d variables, constant included.

    Equals ``binomial(tau*d + p, p)``.
    """
    if tau < 1 or d < 1 or p < 1:
        raise InvalidInputError("tau, d and p must be >= 1")
    n = math.comb(tau * d + p, p)
    if n > _INT64_MAX:  # n may have more digits than int() will print
        raise CapacityError(
            f"feature dimension exceeds the int64 cap of {_INT64_MAX}")
    return n


@dataclass
class ExponentTable:
    """Monomial exponent rows in graded lexicographic order, constant first.

    ``rows[k]`` holds the exponent applied to each window component for the
    k-th feature.  The ordering is deterministic: degrees ascend, and within
    a degree rows ascend lexicographically.

    Within degree k, the monomials whose lowest variable is ``c`` form one
    run for each ``c = w-1, ..., 0``: ``x_c`` times the leading monomials of
    degree k-1.  ``runs`` holds each as ``(dst, src, n, c)``, meaning
    features ``dst:dst+n`` = features ``src:src+n`` times window entry ``c``.
    ``gathers`` holds the same products one degree at a time, as
    ``(start, stop, parents, cols)``: feature ``start + i`` = feature
    ``parents[i]`` times window entry ``cols[i]``.
    """

    tau: int
    d: int
    p: int
    rows: np.ndarray
    runs: tuple = field(repr=False, compare=False)
    gathers: tuple = field(repr=False, compare=False)

    @property
    def n_features(self) -> int:
        return self.rows.shape[0]


def build_exponent_table(tau: int, d: int, p: int) -> ExponentTable:
    """Exponent table and runs for ``feature_dim(tau, d, p)`` monomials."""
    n = feature_dim(tau, d, p)
    if n > MAX_TABLE_ROWS:
        raise CapacityError(
            f"exponent table with {n} rows exceeds the cap of {MAX_TABLE_ROWS}"
        )
    w = tau * d
    runs = []
    gathers = []
    dst = 1
    for k in range(1, p + 1):
        src = math.comb(w + k - 2, w)  # first monomial of degree k-1
        start, parents, cols = dst, [], []
        for c in range(w - 1, -1, -1):
            run = math.comb(w - c + k - 2, k - 1)
            runs.append((dst, src, run, c))
            parents.append(np.arange(src, src + run))
            cols.append(np.full(run, c))
            dst += run
        gathers.append((start, dst, np.concatenate(parents),
                        np.concatenate(cols)))
    if dst != n:
        raise CapacityError(
            f"exponent table enumerated {dst} rows, expected {n}"
        )
    rows = np.zeros((n, w), dtype=np.int64)
    for dst, src, run, c in runs:
        rows[dst:dst + run] = rows[src:src + run]
        rows[dst:dst + run, c] += 1
    return ExponentTable(tau, d, p, rows, tuple(runs), tuple(gathers))


def delay_vectors(values, tau: int) -> np.ndarray:
    """Stack each sample with its tau-1 predecessors, oldest lag first.

    Parameters
    ----------
    values : (n, d) or (n,) array
        Uniformly sampled series.
    tau : int
        Window length in samples.

    Returns
    -------
    (n - tau + 1, tau * d) array
        Row t corresponds to the window ending at sample ``t + tau - 1``.
    """
    values = sample_rows(values, "values")
    n = values.shape[0]
    if tau < 1:
        raise InvalidInputError("tau must be >= 1")
    if n < tau:
        raise InvalidInputError(f"series of length {n} is shorter than tau={tau}")
    return np.hstack([values[i : n - tau + 1 + i] for i in range(tau)])


def ngrc_features(v, table: ExponentTable) -> np.ndarray:
    """Evaluate the monomial feature vector(s) for window(s) ``v``.

    Accepts a single window of length tau*d or a matrix of windows; returns
    a vector of length ``table.n_features`` or a matrix with one feature row
    per window.  Feature 0 is the constant 1.  A batch takes one multiply
    per run of ``table.runs``, a single window (also a batch of one) one
    per degree of ``table.gathers``; both form the same products, so a
    window's features are its batch row, bit for bit.
    """
    v = np.asarray(v, dtype=np.float64)
    single = v.ndim == 1
    V = v[None, :] if single else v
    if V.shape[1] != table.rows.shape[1]:
        raise InvalidInputError(
            f"window length {V.shape[1]} does not match table width "
            f"{table.rows.shape[1]}"
        )
    if V.shape[0] == 1:
        f = np.empty(table.n_features)
        f[0] = 1.0
        for start, stop, parents, cols in table.gathers:
            np.multiply(f[parents], V[0, cols], out=f[start:stop])
        return f if single else f[None, :]
    out = np.empty((V.shape[0], table.n_features))
    out[:, 0] = 1.0
    for dst, src, n, c in table.runs:
        np.multiply(out[:, src:src + n], V[:, c, None],
                    out=out[:, dst:dst + n])
    return out


@dataclass
class NgrcModel:
    """Fitted NG-RC estimator.

    ``weights`` has one column per target dimension; row k multiplies the
    k-th monomial feature of ``table``, which also holds the lag count
    ``tau`` and the sample dimension ``d``.
    """

    table: ExponentTable
    weights: np.ndarray
    solution: RidgeSolution | None = None

    @property
    def n_targets(self) -> int:
        return self.weights.shape[1]

    def to_dict(self) -> dict:
        return {
            "schema": "ngrc-model/1",
            "tau": self.table.tau,
            "d": self.table.d,
            "p": self.table.p,
            "weights": self.weights.tolist(),
        }

    @classmethod
    def from_dict(cls, doc: dict, source: str = "model document",
                  path: str = "") -> "NgrcModel":
        """Load an ``ngrc-model/1`` document.  ``source`` and ``path`` (the
        dotted location of ``doc`` in it) name a missing key, and a bad
        value (a :class:`~kernelcast.errors.DependencyError`): the schema,
        ``tau``, ``d`` and ``p`` whole numbers >= 1 whose table fits the cap
        and ``weights`` one row per monomial."""
        def get(key, conv):
            return doc_value(doc, key, source, path, conv)

        get("schema", one_of("ngrc-model/1"))
        try:
            table = build_exponent_table(*(get(key, int_in(1))
                                           for key in ("tau", "d", "p")))
        except CapacityError as exc:  # sizes that no table can hold
            raise doc_error(source, "", path, f"cannot be loaded: {exc}")
        return cls(table, get("weights", finite_array(table.n_features,
                                                      None)))


def lagged_pairs(inputs, targets, tau: int, washout: int = 0) -> tuple[
        np.ndarray, np.ndarray]:
    """Training rows of a lagged regression: (windows, (rows, m) targets).

    Window t of ``delay_vectors(inputs, tau)`` ends at sample ``t + tau - 1``
    and is paired with that sample's target; the first ``washout`` pairs are
    dropped."""
    X = sample_rows(inputs, "inputs")
    Y = sample_rows(targets, "targets")
    if Y.shape[0] != X.shape[0]:
        raise InvalidInputError("inputs and targets must have equal length")
    if washout < 0:
        raise InvalidInputError("washout must be non-negative")
    windows = delay_vectors(X, tau)
    if washout >= windows.shape[0]:
        raise InvalidInputError("washout leaves no training rows")
    return windows[washout:], Y[tau - 1 + washout:]


def fit_ngrc(inputs, targets, tau: int, p: int, lam_reg: float,
             washout: int = 0, scale=None) -> NgrcModel:
    """Fit the primal NG-RC ridge regression.

    Parameters
    ----------
    inputs : (n, d) array
        Input samples; the first ``tau - 1`` are consumed by the embedding.
    targets : (n,) or (n, m) array
        Targets aligned with ``inputs``; rows before the first full window
        are dropped to match (see :func:`lagged_pairs`).
    tau, p : int
        Delay length and maximum monomial degree.
    lam_reg : float
        Ridge strength.
    washout : int
        Embedded rows dropped after the first window.
    scale : callable, optional
        ``scale(table)`` weights each monomial for the ridge; the stored
        weights carry it, so the model predicts from plain features.
    """
    windows, Y = lagged_pairs(inputs, targets, tau, washout)
    table = build_exponent_table(tau, windows.shape[1] // tau, p)
    X = ngrc_features(windows, table)
    if X.shape[0] < table.n_features:
        warnings.warn(
            f"only {X.shape[0]} effective rows for {table.n_features} features;"
            " the fit is underdetermined",
            stacklevel=2,
        )
    s = None if scale is None else scale(table)
    if s is not None:
        X *= s
    sol = solve_ridge_primal(X, Y, lam_reg)
    weights = sol.coefficients if s is None else s[:, None] * sol.coefficients
    return NgrcModel(table, weights, sol)


def predict_ngrc(model: NgrcModel, v) -> np.ndarray:
    """Readout for one window (returns an m-vector) or a batch of windows."""
    feats = ngrc_features(v, model.table)
    return feats @ model.weights
