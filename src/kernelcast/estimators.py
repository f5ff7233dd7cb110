"""Unified facade over the three estimators.

Bundles a fitted model with its train-fitted input/output transform chains
so that rollout and evaluation code can treat NG-RC, polynomial kernel
ridge, and Volterra kernel ridge uniformly.  All raw-data plumbing
(transform application, prediction windows, Volterra sequence extension)
lives here, and so does the one declaration of each estimator kind: its
hyperparameters (:data:`REQUIRED_HYPER`, :data:`OPTIONAL_HYPER`) and input
transforms (:data:`INPUT_TRANSFORMS`); input/output pairs share one output
chain (:data:`PAIR_OUTPUT_TRANSFORMS`).  Training rows come from
:func:`kernelcast.ngrc.lagged_pairs`.

:func:`fit_task` fits a task's training span, a series or input/output
pairs, and is the one fit that ``fit`` and ``cv`` run;
:func:`fit_estimator` fits raw inputs, through the kind's chain, and
targets.  :func:`hyper_value` reads a hyperparameter through
:func:`~kernelcast.errors.int_in` or :func:`~kernelcast.errors.positive`:
a bool or a string is never a number.

:func:`estimator_to_dict` writes an ``estimator/3`` document that holds
only what a forecast reads (``output_specs: null`` when the targets share
the input transforms); the fit's provenance is ``fit_manifest.json``'s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import preprocess
from .arrays import sample_rows
from .errors import (InvalidInputError, doc_field, doc_value, int_in,
                     one_of, positive)
from .kernels import (
    KernelModel,
    NgrcKernelParams,
    PolyKernelParams,
    VolterraParams,
    fit_kernel_model,
    predict_kernel,
)
from .ngrc import NgrcModel, delay_vectors, fit_ngrc, predict_ngrc

# Hyperparameters each kind requires, in grid order; all are numbers within
# bounds (see hyper_value and check_hyper).
_LAGGED_HYPER = ("tau", "p", "lam_reg")
REQUIRED_HYPER = {"ngrc": _LAGGED_HYPER, "polynomial": _LAGGED_HYPER,
                  "volterra": ("lam", "theta", "lam_reg"),
                  "ngrc-kernel": _LAGGED_HYPER}
# Hyperparameters each kind reads when given: every kind a ``washout``
# (default 0), the polynomial kernel its offset ``c`` (1.0) and Volterra
# its norm bound ``M`` (1.0).
OPTIONAL_HYPER = {"ngrc": ("washout",), "polynomial": ("c", "washout"),
                  "volterra": ("M", "washout"), "ngrc-kernel": ("washout",)}
# Input transform chain of each kind.  NG-RC runs on raw data, and its
# dot-product dual must see exactly the NG-RC inputs; the polynomial kernel
# rescales inputs into [0, 1] per dimension; the Volterra kernel demeans and
# then rescales so the largest training row norm is
# :data:`kernelcast.preprocess.MAX_NORM`.
INPUT_TRANSFORMS = {"ngrc": [], "ngrc-kernel": [], "polynomial": ["minmax01"],
                    "volterra": ["demean", "max-norm-scale"]}
# Output transform chain of input/output pairs, whose outputs are BEKK
# covariances: x1000, then standardize.
PAIR_OUTPUT_TRANSFORMS = ("constant-scale", "standardize")
# The kinds that fit each model: an ngrc-model/1, or a kernel-model/3 of
# each kernel kind.
_MODEL_KINDS = {"ngrc-model/1": ("ngrc", "polynomial"),
                "polynomial": ("polynomial",), "volterra": ("volterra",),
                "ngrc": ("ngrc-kernel",)}
# The reader of each model schema.
_MODELS = {"ngrc-model/1": NgrcModel, "kernel-model/3": KernelModel}
# The integer hyperparameters and their least values; every other one is a
# positive finite float.
_INT_HYPER = {"tau": 1, "p": 1, "washout": 0}


def hyper_value(name: str, value):
    """``value`` as hyperparameter ``name`` takes it: an int no less than
    its :data:`_INT_HYPER` bound (:func:`int_in`), or a positive finite
    float (:func:`positive`).  Raises :class:`InvalidInputError` (a
    ``ValueError``) naming ``name``, or the ``TypeError`` of a value that
    is no number, no bool and no string."""
    conv = int_in(_INT_HYPER[name]) if name in _INT_HYPER else positive
    try:
        return conv(value)
    except InvalidInputError as exc:
        raise InvalidInputError(f"{name} {exc}") from None


def _read_hyper(kind: str, hyper: dict) -> dict:
    """``hyper`` as ``kind`` reads it, each value through
    :func:`hyper_value`.  A name that the kind requires and ``hyper`` lacks,
    one that it does not read, and a value that is no such number raise
    :class:`InvalidInputError`."""
    readable = (*REQUIRED_HYPER[kind], *OPTIONAL_HYPER[kind])
    for name in (*REQUIRED_HYPER[kind], *hyper):
        if name not in hyper or name not in readable:
            verb = "needs" if name not in hyper else "reads no"
            raise InvalidInputError(f"{kind} {verb} hyperparameter {name}")
    read = {}
    for name, value in hyper.items():
        try:
            read[name] = hyper_value(name, value)
        except TypeError as exc:
            raise InvalidInputError(str(exc)) from None
    return read


def check_hyper(kind: str, hyper: dict) -> None:
    """Raise :class:`InvalidInputError` if ``hyper`` breaks a bound that
    ties hyperparameters together: Volterra's on ``lam``, ``theta`` and
    ``M``."""
    if kind == "volterra":
        VolterraParams(hyper["lam"], hyper["theta"], hyper.get("M", 1.0))


@dataclass
class Estimator:
    """A fitted estimator plus its preprocessing state."""

    kind: str
    model: NgrcModel | KernelModel
    input_specs: list
    output_specs: list

    @property
    def _lags(self):
        """What holds a lagged model's ``tau`` and ``p``: its NG-RC feature
        table or its kernel; ``None`` for Volterra."""
        if isinstance(self.model, NgrcModel):
            return self.model.table
        return None if self.model.is_volterra else self.model.kernel

    @property
    def tau(self) -> int:
        """Samples in one input window, and of raw history needed to start a
        closed-loop rollout: 1 for Volterra, whose seed is the sample that
        immediately follows the sequence stored at fit time."""
        return 1 if self._lags is None else self._lags.tau

    @property
    def widths(self) -> tuple[int, int]:
        """The model's (input, output) sample dimensions."""
        return _widths(self.model)

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
        lags = self._lags
        return None if lags is None else _n_features(
            lags.tau, self.widths[0], lags.p)

    # -- raw-space prediction paths -------------------------------------

    def _predict_windows(self, windows: np.ndarray) -> np.ndarray:
        if isinstance(self.model, NgrcModel):
            return predict_ngrc(self.model, windows)
        return predict_kernel(self.model, windows)

    def _inputs(self, value, name: str) -> np.ndarray:
        """:func:`sample_rows` of the model's input width."""
        rows = sample_rows(value, name)
        if rows.shape[1] != self.widths[0]:
            raise InvalidInputError(f"{name} has {rows.shape[1]} columns, "
                                    f"the model reads {self.widths[0]}")
        return rows

    def open_loop(self, history, test_inputs, ext=None) -> np.ndarray:
        """One raw prediction per raw test input, no feedback.

        A lagged estimator starts its windows from the last ``tau - 1``
        rows of ``history``, the raw inputs before ``test_inputs``; a
        Volterra estimator reads none of it and steps ``ext`` (see
        ``predict_kernel``).  An empty argument, too short a history or
        another width than the model's raises :class:`InvalidInputError`.
        """
        history = self._inputs(history, "history")
        raw = self._inputs(test_inputs, "test_inputs")
        if history.shape[0] < self.tau - 1:
            raise InvalidInputError(f"history of length {history.shape[0]} "
                                    f"is shorter than {self.tau - 1}")
        if self.kind == "volterra":
            transformed = preprocess.apply_pipeline(self.input_specs, raw)
            preds = predict_kernel(self.model, transformed, ext)
        else:
            stacked = np.vstack([history[history.shape[0] - self.tau + 1:],
                                 raw])
            windows = delay_vectors(
                preprocess.apply_pipeline(self.input_specs, stacked),
                self.tau)
            preds = self._predict_windows(windows)
        return preprocess.invert_pipeline(self.output_specs, preds)

    def start(self, seed_history) -> "_Stepper":
        """Closed-loop stepper primed with the last ``tau`` raw seed samples;
        earlier rows are ignored."""
        seed = sample_rows(seed_history, "seed_history")
        if seed.shape[0] < self.tau:
            raise InvalidInputError(
                f"seed of length {seed.shape[0]} is shorter than {self.tau}"
            )
        seed_t = preprocess.apply_pipeline(self.input_specs,
                                           seed[-self.tau:])
        if self.kind == "volterra":
            return _VolterraStepper(self, self.model.extension(), seed_t[0])
        return _LaggedStepper(self, list(seed_t))


class _LaggedStepper:
    projected = 0  # lagged inputs are never projected

    def __init__(self, est: Estimator, window: list):
        self._est = est
        self._window = window

    def step(self) -> np.ndarray:
        v = np.concatenate(self._window)
        y_model = self._est._predict_windows(v[None, :])[0]
        y_raw = preprocess.invert_pipeline(self._est.output_specs, y_model)
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
        y_raw = preprocess.invert_pipeline(self._est.output_specs, y_model)
        self._pending = preprocess.apply_pipeline(self._est.input_specs,
                                                  y_raw[None, :])[0]
        return y_raw


def fit_estimator(kind: str, hyper: dict, inputs, targets, *,
                  outputs=()) -> Estimator:
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
        sample).  A missing required name, or a name that the kind does not
        read (:data:`OPTIONAL_HYPER`), raises :class:`InvalidInputError`.
    inputs, targets : arrays
        Raw aligned samples; targets may be the shifted inputs for
        path-continuation tasks.  The inputs go through the kind's
        :data:`INPUT_TRANSFORMS`.
    outputs : sequence of str or None
        The targets' transform chain, or ``None`` to reuse the fitted input
        transforms.  Sharing is the path-continuation convention: inputs and
        targets are one series, so the regression runs entirely in the
        normalized space and closed-loop feedback needs no round trip.
    """
    if kind not in REQUIRED_HYPER:
        raise InvalidInputError(f"unknown estimator kind {kind!r}")
    hyper = _read_hyper(kind, hyper)
    X_raw = sample_rows(inputs, "inputs")
    Y_raw = sample_rows(targets, "targets")

    input_specs = preprocess.fit_pipeline(INPUT_TRANSFORMS[kind], X_raw)
    if outputs is None:
        if Y_raw.shape[1] != X_raw.shape[1]:
            raise InvalidInputError(
                "shared pipelines need matching input/output dimensions"
            )
        output_specs = input_specs
    else:
        output_specs = preprocess.fit_pipeline(outputs, Y_raw)
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

    return Estimator(kind, model, input_specs, output_specs)


def _widths(model: NgrcModel | KernelModel) -> tuple[int, int]:
    """``model``'s (input, output) sample dimensions."""
    if isinstance(model, NgrcModel):
        return model.table.d, model.n_targets
    return model.train_inputs.shape[1], model.n_targets


def _n_features(tau: int, d: int, p: int) -> int:
    """Monomials of degree <= p in tau*d variables: ``ngrc.feature_dim``
    without its int64 cap, which only the explicit features need."""
    return math.comb(tau * d + p, p)


def estimator_to_dict(est: Estimator) -> dict:
    """Serializable ``estimator/3`` document for a fitted estimator."""
    return {
        "schema": "estimator/3",
        "kind": est.kind,
        "model": est.model.to_dict(),
        "input_specs": preprocess.pipeline_to_dicts(est.input_specs),
        "output_specs": None if est.output_specs is est.input_specs
        else preprocess.pipeline_to_dicts(est.output_specs),
    }


def estimator_from_dict(doc: dict, source: str = "estimator document",
                        path: str = "") -> Estimator:
    """Load the ``estimator/3`` document at the dotted ``path`` of
    ``source``, each field through :func:`~kernelcast.errors.doc_value`
    (a bad one raises :class:`~kernelcast.errors.DependencyError` naming
    it): ``schema`` ``estimator/3`` (older ones ask for a refit), ``model``
    a document its ``schema`` reads, ``kind`` one that fits the model
    (:data:`_MODEL_KINDS`), and the transform chains ``input_specs`` and
    ``output_specs`` of the model's widths; an ``output_specs`` of null
    shares the input transforms, where the outputs are the inputs."""
    doc_value(doc, "schema", source, path, _current_schema)
    schema = doc_value(doc, "model.schema", source, path, one_of(*_MODELS))
    model = _MODELS[schema].from_dict(doc_field(doc, "model", source, path),
                                      source, f"{path}.model".lstrip("."))
    fitted = "ngrc-model/1" if isinstance(model, NgrcModel) \
        else model.kernel.describe()["kind"]
    kind = doc_value(doc, "kind", source, path, one_of(*_MODEL_KINDS[fitted]))
    widths = _widths(model)
    inputs = preprocess.pipeline_from_dicts(doc, "input_specs", source, path,
                                            widths[0])
    outputs = preprocess.pipeline_from_dicts(
        doc, "output_specs", source, path, widths[1],
        shared=widths[1] == widths[0])
    return Estimator(kind, model, inputs, inputs if outputs is None
                     else outputs)


def _current_schema(value) -> str:
    """Converter: ``value`` if it is ``estimator/3``; any other schema asks
    for a refit."""
    if value != "estimator/3":
        raise InvalidInputError(f"must be estimator/3, not {value!r}; refit "
                                "the model")
    return value


def fit_task(kind: str, hyper: dict, train: tuple) -> Estimator:
    """Fit :func:`fit_estimator` on a task's training span.

    A series ``(values,)`` is fitted on its one-step-ahead pairs, with its
    input transforms shared by the targets (``outputs=None``);
    ``(inputs, outputs)`` are fitted as paired, with the outputs through
    :data:`PAIR_OUTPUT_TRANSFORMS`.  A closed-loop rollout after the series
    starts from it: :meth:`Estimator.start` reads its last ``tau`` rows.
    """
    if len(train) > 1:
        return fit_estimator(kind, hyper, *train,
                             outputs=PAIR_OUTPUT_TRANSFORMS)
    values = sample_rows(train[0], "values")
    if values.shape[0] < 3:
        raise InvalidInputError("series too short to form training pairs")
    return fit_estimator(kind, hyper, values[:-1], values[1:], outputs=None)
