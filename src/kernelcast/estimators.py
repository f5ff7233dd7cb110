"""Unified facade over the three estimators.

Bundles a fitted model with its train-fitted input/output transform chains
so that rollout and evaluation code can treat NG-RC, polynomial kernel
ridge, and Volterra kernel ridge uniformly.  All raw-data plumbing
(transform application, prediction windows, Volterra sequence extension)
lives here, and so does the one declaration of each estimator kind: its
hyperparameters (:data:`REQUIRED_HYPER`) and input transforms
(:data:`INPUT_TRANSFORMS`).  Training rows come from
:func:`kernelcast.ngrc.lagged_pairs`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import preprocess
from .errors import InvalidInputError, doc_field
from .kernels import (
    KernelModel,
    NgrcKernelParams,
    PolyKernelParams,
    VolterraParams,
    fit_kernel_model,
    predict_kernel,
)
from .ngrc import NgrcModel, delay_vectors, fit_ngrc, predict_ngrc

# Hyperparameters each kind requires, in grid order; all are numbers (see
# hyper_value).
_LAGGED_HYPER = ("tau", "p", "lam_reg")
REQUIRED_HYPER = {"ngrc": _LAGGED_HYPER, "polynomial": _LAGGED_HYPER,
                  "volterra": ("lam", "theta", "lam_reg"),
                  "ngrc-kernel": _LAGGED_HYPER}
# Input transform chain of each kind.  NG-RC runs on raw data, and its
# dot-product dual must see exactly the NG-RC inputs; the polynomial kernel
# rescales inputs into [0, 1] per dimension; the Volterra kernel demeans and
# then rescales so the largest training row norm equals the fit's
# ``headroom`` (0.95 leaves room for test excursions before they are
# projected onto the norm ball).
INPUT_TRANSFORMS = {"ngrc": [], "ngrc-kernel": [], "polynomial": ["minmax01"],
                    "volterra": ["demean", "max-norm-scale"]}
_INT_HYPER = ("tau", "p", "washout")


def hyper_value(name: str, value):
    """``value`` as hyperparameter ``name`` takes it: an int for ``tau``,
    ``p`` and ``washout``, a float otherwise.  Raises ``TypeError`` or
    ``ValueError`` for a value that is no number."""
    return int(value) if name in _INT_HYPER else float(value)


@dataclass
class Estimator:
    """A fitted estimator plus its preprocessing state."""

    kind: str
    hyper: dict
    model: NgrcModel | KernelModel
    input_specs: list = field(default_factory=list)
    output_specs: list = field(default_factory=list)
    input_tail: np.ndarray | None = None  # raw samples ending the fit inputs

    @property
    def tau(self) -> int:
        """Samples in one input window, and of raw history needed to start a
        closed-loop rollout: 1 for Volterra, whose seed is the sample that
        immediately follows the sequence stored at fit time."""
        if self.kind == "volterra":
            return 1
        return int(self.hyper["tau"])

    @property
    def route(self) -> str:
        """``"primal"`` for a model fitted on explicit features (NG-RC, and
        the polynomial kernel when its features are no more than its rows),
        ``"dual"`` for a model fitted on a Gram."""
        return "primal" if isinstance(self.model, NgrcModel) else "dual"

    @property
    def features(self) -> int | None:
        """N, the monomials spanned by a lagged kind's regression (scaled
        ones for the polynomial kernel); ``None`` for Volterra."""
        if self.kind == "volterra":
            return None
        return _n_features(self.tau, self.input_tail.shape[1],
                           int(self.hyper["p"]))

    # -- raw-space prediction paths -------------------------------------

    def _predict_windows(self, windows: np.ndarray) -> np.ndarray:
        if isinstance(self.model, NgrcModel):
            out = predict_ngrc(self.model, windows)
        else:
            out = predict_kernel(self.model, windows)
        return np.atleast_2d(out)

    def open_loop(self, test_inputs, ext=None) -> np.ndarray:
        """One raw prediction per raw test input, no feedback.

        Lagged estimators embed the test inputs as a continuation of the
        training inputs, reusing the stored raw tail for the first windows.
        A Volterra estimator steps ``ext`` (see ``predict_kernel``).
        """
        raw = np.asarray(test_inputs, dtype=np.float64)
        if raw.ndim == 1:
            raw = raw[:, None]
        transformed = preprocess.apply_pipeline(self.input_specs, raw)
        if self.kind == "volterra":
            preds = predict_kernel(self.model, transformed, ext)
        else:
            if self.tau > 1:
                if self.input_tail is None or self.input_tail.shape[0] < self.tau - 1:
                    raise InvalidInputError(
                        "missing training context for delay embedding"
                    )
                context = preprocess.apply_pipeline(
                    self.input_specs, self.input_tail[-(self.tau - 1):]
                )
                stacked = np.vstack([context, transformed])
            else:
                stacked = transformed
            windows = delay_vectors(stacked, self.tau)
            preds = self._predict_windows(windows)
        return preprocess.invert_pipeline(self.output_specs, preds)

    def start(self, seed_history) -> "_Stepper":
        """Closed-loop stepper primed with the last ``tau`` raw seed samples;
        earlier rows are ignored."""
        seed = np.asarray(seed_history, dtype=np.float64)
        if seed.ndim == 1:
            seed = seed[:, None]
        if seed.shape[0] < self.tau:
            raise InvalidInputError(
                f"seed of length {seed.shape[0]} is shorter than {self.tau}"
            )
        seed_t = preprocess.apply_pipeline(self.input_specs,
                                           seed[-self.tau:])
        if self.kind == "volterra":
            return _VolterraStepper(self, self.model.extension(), seed_t[0])
        return _LaggedStepper(self, list(seed_t))

    def _finish(self, model_output: np.ndarray) -> np.ndarray:
        return preprocess.invert_pipeline(self.output_specs, model_output)


class _LaggedStepper:
    def __init__(self, est: Estimator, window: list):
        self._est = est
        self._window = window

    def step(self) -> np.ndarray:
        v = np.concatenate(self._window)
        y_model = self._est._predict_windows(v[None, :])[0]
        y_raw = self._est._finish(y_model)
        nxt = preprocess.apply_pipeline(self._est.input_specs,
                                        y_raw[None, :])[0]
        self._window.pop(0)
        self._window.append(nxt)
        return y_raw


class _VolterraStepper:
    def __init__(self, est: Estimator, ext, pending: np.ndarray):
        self._est = est
        self._ext = ext
        self._pending = pending

    @property
    def projected(self) -> int:
        return self._ext.projected

    def step(self) -> np.ndarray:
        col = self._ext.step(self._pending)
        model = self._est.model
        y_model = col[model.washout:] @ model.alpha
        y_raw = self._est._finish(y_model)
        self._pending = preprocess.apply_pipeline(self._est.input_specs,
                                                  y_raw[None, :])[0]
        return y_raw


def fit_estimator(kind: str, hyper: dict, inputs, targets, *,
                  input_kinds=None, output_kinds=(), headroom: float = 1.0,
                  share_output_pipeline: bool = False) -> Estimator:
    """Fit one estimator with train-fitted preprocessing.

    Parameters
    ----------
    kind : str
        A key of :data:`REQUIRED_HYPER`: ``"ngrc"``, ``"polynomial"``,
        ``"volterra"``, or ``"ngrc-kernel"`` (the dot-product dual of NG-RC,
        mostly for equivalence checks).  A polynomial kernel whose N
        monomials are no more than its n embedded rows is fitted in that
        explicit feature space, as an :class:`~kernelcast.ngrc.NgrcModel`;
        otherwise, and for the other kernels, on the Gram.
    hyper : dict
        ``tau, p, lam_reg`` for the lagged estimators (plus optional ``c``
        for the polynomial kernel); ``lam, theta, lam_reg`` and optional
        ``M`` for Volterra; each value is typed by ``hyper_value``.  Every
        kind reads an optional ``washout`` (default 0): the training rows
        dropped after the first full window (Volterra: after the first
        sample).
    inputs, targets : arrays
        Raw aligned samples; targets may be the shifted inputs for
        path-continuation tasks.
    input_kinds, output_kinds
        Transform chains; ``None`` selects the kind's
        :data:`INPUT_TRANSFORMS`.
    headroom : float
        Target training norm for the Volterra max-norm rescale.
    share_output_pipeline : bool
        Reuse the fitted input transforms on the target side.  This is the
        path-continuation convention: inputs and targets are one series, so
        the regression runs entirely in the normalized space and closed-loop
        feedback needs no round trip.
    """
    if kind not in REQUIRED_HYPER:
        raise InvalidInputError(f"unknown estimator kind {kind!r}")
    hyper = {name: hyper_value(name, value) for name, value in hyper.items()}
    X_raw = np.asarray(inputs, dtype=np.float64)
    if X_raw.ndim == 1:
        X_raw = X_raw[:, None]
    Y_raw = np.asarray(targets, dtype=np.float64)
    if Y_raw.ndim == 1:
        Y_raw = Y_raw[:, None]

    if input_kinds is None:
        input_kinds = INPUT_TRANSFORMS[kind]
    input_specs = preprocess.fit_pipeline(input_kinds, X_raw,
                                          target_norm=headroom)
    if share_output_pipeline:
        if output_kinds:
            raise InvalidInputError(
                "output_kinds and share_output_pipeline are exclusive"
            )
        if Y_raw.shape[1] != X_raw.shape[1]:
            raise InvalidInputError(
                "shared pipelines need matching input/output dimensions"
            )
        output_specs = input_specs
    else:
        output_specs = preprocess.fit_pipeline(output_kinds, Y_raw)
    X = preprocess.apply_pipeline(input_specs, X_raw)
    Y = preprocess.apply_pipeline(output_specs, Y_raw)

    washout = hyper.get("washout", 0)
    kernel = None
    if kind == "polynomial":
        kernel = PolyKernelParams(hyper["p"], hyper["tau"],
                                  hyper.get("c", 1.0))
    elif kind == "ngrc-kernel":
        kernel = NgrcKernelParams(hyper["p"], hyper["tau"], X.shape[1])
    elif kind == "volterra":
        kernel = VolterraParams(hyper["lam"], hyper["theta"],
                                hyper.get("M", 1.0))
    if kind == "ngrc":
        model = fit_ngrc(X, Y, hyper["tau"], hyper["p"], hyper["lam_reg"],
                         washout)
    elif kind == "polynomial" and _n_features(
            kernel.tau, X.shape[1], kernel.p) <= (
            X.shape[0] - kernel.tau + 1 - washout):
        # The polynomial kernel is a scaled NG-RC regression: fit it in the
        # smaller space, its N monomials or its n embedded rows.
        model = fit_ngrc(X, Y, kernel.tau, kernel.p, hyper["lam_reg"],
                         washout, kernel.feature_scale)
    else:
        model = fit_kernel_model(X, Y, kernel, hyper["lam_reg"],
                                 washout=washout)

    tail_len = max(hyper.get("tau", 1), 1)
    return Estimator(kind, hyper, model, input_specs, output_specs,
                     input_tail=X_raw[-tail_len:].copy())


def _n_features(tau: int, d: int, p: int) -> int:
    """Monomials of degree <= p in tau*d variables: ``ngrc.feature_dim``
    without its int64 cap, which only the explicit features need."""
    return math.comb(tau * d + p, p)


def estimator_to_dict(est: Estimator) -> dict:
    """Serializable document for a fitted estimator (versioned schema)."""
    return {
        "schema": "estimator/1",
        "kind": est.kind,
        "hyper": dict(est.hyper),
        "model": est.model.to_dict(),
        "input_specs": preprocess.pipeline_to_dicts(est.input_specs),
        "shared_pipeline": est.output_specs is est.input_specs,
        "output_specs": None if est.output_specs is est.input_specs
        else preprocess.pipeline_to_dicts(est.output_specs),
        "input_tail": None if est.input_tail is None
        else est.input_tail.tolist(),
    }


def estimator_from_dict(doc: dict, source: str = "estimator document",
                        path: str = "") -> Estimator:
    """Load an ``estimator/1`` document.  ``source`` and ``path`` (the
    dotted location of ``doc`` in it) name a missing key."""
    def get(key):
        return doc_field(doc, key, source, path)

    schema = get("schema")
    if schema != "estimator/1":
        raise InvalidInputError(f"unknown estimator schema {schema!r}")
    model_doc = get("model")
    model_path = f"{path}.model" if path else "model"
    if get("model.schema") == "ngrc-model/1":
        model = NgrcModel.from_dict(model_doc, source, model_path)
    else:
        model = KernelModel.from_dict(model_doc, source, model_path)

    def specs(key):
        return preprocess.pipeline_from_dicts(
            get(key), source, f"{path}.{key}" if path else key)

    input_specs = specs("input_specs")
    output_specs = input_specs if get("shared_pipeline") else specs(
        "output_specs")
    tail = get("input_tail")
    return Estimator(
        get("kind"), dict(get("hyper")), model, input_specs, output_specs,
        input_tail=None if tail is None else np.asarray(tail, dtype=np.float64),
    )


def fit_path_estimator(kind: str, hyper: dict, series_values, **kw) -> tuple[
        Estimator, np.ndarray]:
    """Fit on one-step-ahead pairs of a series; return (estimator, seed).

    The seed is the raw history a closed-loop rollout starting right after
    the series needs: the last ``tau`` samples for lagged estimators, the
    final sample (the one input the fitted Volterra sequence has not seen)
    for Volterra.
    """
    V = np.asarray(series_values, dtype=np.float64)
    if V.ndim == 1:
        V = V[:, None]
    if V.shape[0] < 3:
        raise InvalidInputError("series too short to form training pairs")
    est = fit_estimator(kind, hyper, V[:-1], V[1:],
                        share_output_pipeline=True, **kw)
    seed = V[-est.tau:]
    return est, seed
