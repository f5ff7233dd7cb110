"""Polynomial, NG-RC dot-product, and Volterra kernels with dual ridge fitting.

The polynomial kernel ``(c + u'v)^p`` acts on flattened delay windows and
spans the same monomials as the NG-RC feature map, up to multinomial
weights (:meth:`PolyKernelParams.feature_scale`).  The NG-RC kernel is the
plain dot product of NG-RC feature vectors, so kernel ridge regression with
it reproduces the primal NG-RC solution exactly.  Every Gram here is built
in float64; only the primal's normal matrices are accumulated in extended
precision (:mod:`kernelcast.linsolve`).

The Volterra kernel acts on whole left-zero-padded input sequences and
encodes every lag and every monomial degree with geometrically decaying
weights.  Gram entries follow the recursion

    K[i, j] = 1 + lam^2 * K[i-1, j-1] / (1 - theta^2 <z_i, z_j>)

with border values ``1 / (1 - theta^2)``, and extend column by column when
new samples arrive.  The equivalent series form (used as an independent
oracle) is

    K = 1 + sum_{t>=1} lam^(2t) * prod_{s<t} 1 / (1 - theta^2 <z_{-s}, z'_{-s}>).

Parameters must satisfy ``theta^2 M^2 < 1`` and ``0 < lam < sqrt(1 - theta^2 M^2)``
where ``M`` bounds the Euclidean norm of every training sample; later
samples outside that ball are projected onto it (:class:`VolterraExtension`).

A fitted :class:`KernelModel` is stored as a ``kernel-model/3`` document.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (InvalidInputError, NormBoundError, doc_error,
                     doc_value, finite_array, int_in, one_of, positive,
                     sample_rows)
from .linsolve import GramRows, RidgeSolution, row_norms, solve_ridge_gram
from .ngrc import (ExponentTable, build_exponent_table, delay_vectors,
                   lagged_pairs, ngrc_features)

# Relative slack when checking sample norms against M; guards float fuzz only.
_NORM_SLACK = 1e-12


@dataclass(frozen=True)
class PolyKernelParams:
    """Degree ``p``, offset ``c`` and lag count ``tau`` of the polynomial kernel."""

    p: int
    tau: int
    c: float = 1.0

    def __post_init__(self):
        if self.p < 1 or self.tau < 1:
            raise InvalidInputError("p and tau must be >= 1")
        if not self.c > 0:
            raise InvalidInputError("offset c must be positive")

    def feature_scale(self, table: ExponentTable) -> np.ndarray:
        """Scale ``s`` of each monomial of ``table`` (degree ``p``) such that
        ``(c + u'v)^p = (F(u) * s) @ (F(v) * s)`` for the NG-RC features
        ``F``: ``s_a^2 = p! c^(p-|a|) / ((p-|a|)! prod_i a_i!)``."""
        fact = np.array([math.factorial(i) for i in range(self.p + 1)], float)
        k = table.rows.sum(axis=1)
        s2 = fact[self.p] * self.c ** (self.p - k)
        s2 /= fact[self.p - k] * fact[table.rows].prod(axis=1)
        return np.sqrt(s2)

    def describe(self) -> dict:
        return {"kind": "polynomial", "p": self.p, "tau": self.tau, "c": self.c}


@dataclass(frozen=True)
class NgrcKernelParams:
    """Dot-product kernel of the NG-RC feature map for (tau, d, p)."""

    p: int
    tau: int
    d: int

    def __post_init__(self):
        if self.p < 1 or self.tau < 1 or self.d < 1:
            raise InvalidInputError("p, tau and d must be >= 1")

    def table(self) -> ExponentTable:
        return build_exponent_table(self.tau, self.d, self.p)

    def describe(self) -> dict:
        return {"kind": "ngrc", "p": self.p, "tau": self.tau, "d": self.d}


@dataclass(frozen=True)
class VolterraParams:
    """Volterra kernel parameters.

    ``lam`` controls the decay across lags, ``theta`` the weight of higher
    monomial degrees, and ``M`` the admissible input norm bound.
    """

    lam: float
    theta: float
    M: float = 1.0

    def __post_init__(self):
        if not self.M > 0:
            raise InvalidInputError("M must be positive")
        try:
            bound = self.theta**2 * self.M**2
        except OverflowError:  # theta or M beyond about 1e154
            bound = math.inf
        if not (self.theta > 0 and bound < 1.0):
            raise InvalidInputError("theta must satisfy theta^2 M^2 < 1")
        if not (0.0 < self.lam < math.sqrt(1.0 - bound)):
            raise InvalidInputError(
                "lam must satisfy 0 < lam < sqrt(1 - theta^2 M^2)"
            )

    @property
    def border(self) -> float:
        """Border initialization 1 / (1 - theta^2) of the Gram recursion."""
        return 1.0 / (1.0 - self.theta**2)

    @property
    def denominator_floor(self) -> float:
        return 1.0 - self.theta**2 * self.M**2

    def describe(self) -> dict:
        return {"kind": "volterra", "lam": self.lam, "theta": self.theta,
                "M": self.M}


# Kernel parameter class of each ``describe()["kind"]``.
_KERNEL_PARAMS = {"polynomial": PolyKernelParams, "ngrc": NgrcKernelParams,
                  "volterra": VolterraParams}


@dataclass
class GramMatrix:
    """Kernel evaluation table."""

    values: np.ndarray


def poly_gram(U, V, params: PolyKernelParams) -> np.ndarray:
    """Pairwise polynomial kernel between the rows of U and V.

    A self-Gram (``V is U``) is built from the rows a fit factors, so it is
    exactly symmetric and carries the fit's bits.
    """
    self_gram = V is U
    U = np.atleast_2d(np.asarray(U, dtype=np.float64))
    if self_gram:
        return _poly_rows(U, params).full()
    V = np.atleast_2d(np.asarray(V, dtype=np.float64))
    G = U @ V.T
    G += params.c
    G **= params.p
    return G


# Rows per panel of a self-Gram product.
_GRAM_PANEL_ROWS = 64


def ngrc_gram(U, V, table: ExponentTable) -> np.ndarray:
    """Pairwise NG-RC kernel between the rows of U and V.

    A self-Gram (``V is U``) is built from the rows a fit factors: the rows
    are mapped once, and the Gram is exactly symmetric.
    """
    if V is U:
        return _ngrc_rows(U, table).full()
    FU = ngrc_features(np.atleast_2d(U), table)
    FV = ngrc_features(np.atleast_2d(V), table)
    return FU @ FV.T


def _panel_rows(F: np.ndarray, finish=None) -> GramRows:
    """Lower-triangle rows of the self-Gram ``F @ F.T``, with ``finish``
    applied in place to each product panel.

    Panels of 64 rows against the rows above them go through one reused
    buffer.
    """
    n = F.shape[0]

    def rows():
        buf = np.empty(_GRAM_PANEL_ROWS * n)
        for i0 in range(0, n, _GRAM_PANEL_ROWS):
            i1 = min(i0 + _GRAM_PANEL_ROWS, n)
            block = buf[:(i1 - i0) * i1].reshape(i1 - i0, i1)
            np.matmul(F[i0:i1], F[:i1].T, out=block)
            if finish is not None:
                finish(block)
            for r, row in enumerate(block):
                yield row[:i0 + r + 1]
    return GramRows(n, rows)


def _poly_rows(W: np.ndarray, params: PolyKernelParams) -> GramRows:
    def finish(G):
        G += params.c
        G **= params.p
    return _panel_rows(W, finish)


def _ngrc_rows(W, table: ExponentTable) -> GramRows:
    return _panel_rows(ngrc_features(np.atleast_2d(W), table))


def _check_sample_norms(Z: np.ndarray, params: VolterraParams) -> None:
    norms = row_norms(Z)
    bad = np.flatnonzero(norms > params.M * (1.0 + _NORM_SLACK))
    if bad.size:
        i = int(bad[0])
        raise NormBoundError(f"sample {i} has norm {norms[i]:.6g} > M = "
                             f"{params.M:.6g}", position=i)


def volterra_gram(inputs, params: VolterraParams) -> GramMatrix:
    """Square Volterra Gram matrix over one input sequence.

    The rows of the fit's sweep, mirrored: the Gram is the only n x n array,
    it is exactly symmetric, and its lower triangle carries the fit's bits.
    """
    Z = sample_rows(inputs, "inputs", finite=True)
    return GramMatrix(GramRows(Z.shape[0],
                               VolterraExtension(Z, params).sweep).full())


class VolterraExtension:
    """The Volterra Gram recursion over training samples ``Z``, and its
    incremental rectangular extension.

    ``column`` holds the bordered row ``[border, K[t, 0], ..., K[t, n-1]]``
    of the latest sample ``t``; ``last_col``, when given, is that row of
    the last training sample without its border.  :meth:`sweep` runs the
    recursion over ``Z`` and each :meth:`step` appends a sample that
    continues the sequence, both through one in-place update: a row they
    return is a view that the next overwrites.  Every training sample must
    lie in the ball ``||z|| <= M`` where the kernel is defined
    (:class:`NormBoundError`); a stepped sample outside it becomes
    ``z * M / ||z||`` and is counted in ``projected``.  Single-writer: not
    safe for concurrent stepping.
    """

    def __init__(self, Z_train: np.ndarray, params: VolterraParams,
                 last_col: np.ndarray | None = None):
        _check_sample_norms(Z_train, params)
        n = Z_train.shape[0]
        self._Z = Z_train
        self._params = params
        self.column = np.full(n + 1, params.border)
        if last_col is not None:
            if np.shape(last_col) != (n,):
                raise InvalidInputError(
                    "last column must hold one value per training sample")
            self.column[1:] = last_col
        self._row = np.empty(n)
        self._denom = np.empty(n)
        self.projected = 0

    def _update(self, z: np.ndarray, k: int) -> np.ndarray:
        """Row of sample ``z`` against ``Z[:k]`` from the row before it,
        ``1 + lam^2 column[:k] / (1 - theta^2 Z[:k] z)``, stored back after
        the border."""
        p = self._params
        d = self._denom[:k]
        np.dot(self._Z[:k], z, out=d)
        d *= p.theta**2
        np.subtract(1.0, d, out=d)
        # Cauchy-Schwarz keeps denominators >= 1 - theta^2 M^2 > 0; a
        # violation means the norm check was bypassed.
        if d.min() < p.denominator_floor * (1.0 - 1e-9):
            raise InvalidInputError("Volterra denominator fell below its floor")
        r = self._row[:k]
        np.multiply(p.lam**2, self.column[:k], out=r)
        r /= d
        r += 1.0
        self.column[1:k + 1] = r
        return r

    def sweep(self, washout: int = 0):
        """Rows ``i >= washout`` of the Gram's lower triangle over ``Z``,
        from column ``washout`` on, for a :class:`GramRows`.  Row i reads
        only the border and what row i-1 wrote, so every run restarts from
        the border, and a finished run leaves the last row in ``column``."""
        for i in range(self._Z.shape[0]):
            r = self._update(self._Z[i], i + 1)
            if i >= washout:
                yield r[washout:]

    def step(self, z_new) -> np.ndarray:
        """Append one sample; return its kernel values against every
        training sample."""
        z = np.asarray(z_new, dtype=np.float64).reshape(-1)
        if z.shape[0] != self._Z.shape[1]:
            raise InvalidInputError("appended sample has wrong dimension")
        if not np.all(np.isfinite(z)):
            raise InvalidInputError("appended sample is non-finite")
        p = self._params
        with np.errstate(over="ignore"):
            norm = math.sqrt(z @ z)
        if norm == math.inf:  # the sum of squares overflowed
            norm = float(row_norms(z[None])[0])
        if norm > p.M * (1.0 + _NORM_SLACK):
            z = z * (p.M / norm)
            self.projected += 1
        return self._update(z, self._Z.shape[0])


def volterra_kernel_truncated(seq_a, seq_b, params: VolterraParams,
                              tau_max: int) -> tuple[float, float]:
    """Truncated series evaluation of the Volterra kernel, with tail bound.

    Sequences are aligned at their most recent sample and padded with zeros
    on the left, so inner products beyond either length vanish and the
    corresponding factors equal one.

    Returns
    -------
    (value, tail_bound)
        The series truncated after lag ``tau_max`` and the analytic bound
        ``lam^(2(tau_max+1)) / ((1-theta^2 M^2)^(tau_max+1) (1 - lam^2/(1-theta^2 M^2)))``
        on everything that was dropped.
    """
    A = sample_rows(seq_a, "seq_a", finite=True)
    B = sample_rows(seq_b, "seq_b", finite=True)
    if A.shape[1] != B.shape[1]:
        raise InvalidInputError("sequences must share the sample dimension")
    _check_sample_norms(A, params)
    _check_sample_norms(B, params)
    if tau_max < max(A.shape[0], B.shape[0]):
        raise InvalidInputError("tau_max must cover the padded sequence length")
    lam2 = params.lam**2
    theta2 = params.theta**2
    # factors[t] covers lag t (0 = most recent); 1.0 beyond either sequence.
    L = min(A.shape[0], B.shape[0])
    prods = np.einsum("ij,ij->i", A[::-1][:L], B[::-1][:L])
    factors = np.ones(tau_max)
    factors[:L] = 1.0 / (1.0 - theta2 * prods)
    value = 1.0
    weight = 1.0
    for t in range(tau_max):
        weight *= lam2 * factors[t]
        value += weight
    rho = lam2 / params.denominator_floor
    tail = rho ** (tau_max + 1) / (1.0 - rho)
    return value, tail


@dataclass
class KernelModel:
    """Fitted dual estimator for any of the three kernels.

    ``train_inputs`` is the raw input sequence as seen at fit time; the
    lagged kernels predict against its ``train_windows``, Volterra from
    ``last_col``, the Gram row of its last sample (no border).  ``alpha``
    has one row per retained (washed) training index.
    """

    kernel: PolyKernelParams | NgrcKernelParams | VolterraParams
    train_inputs: np.ndarray
    alpha: np.ndarray
    washout: int
    solution: RidgeSolution | None = None
    last_col: np.ndarray | None = field(default=None, repr=False)

    @property
    def n_targets(self) -> int:
        return self.alpha.shape[1]

    @property
    def is_volterra(self) -> bool:
        return isinstance(self.kernel, VolterraParams)

    @cached_property
    def train_windows(self) -> np.ndarray:
        return delay_vectors(self.train_inputs,
                             self.kernel.tau)[self.washout:]

    @cached_property
    def table(self) -> ExponentTable:
        return self.kernel.table()

    def extension(self) -> VolterraExtension:
        """Fresh single-writer extension starting after the training samples."""
        if not self.is_volterra:
            raise InvalidInputError("extensions exist only for Volterra models")
        return VolterraExtension(self.train_inputs, self.kernel, self.last_col)

    def to_dict(self) -> dict:
        """Schema ``kernel-model/3``: Volterra models also store the last
        Gram column (n values, no border), so loading them builds no Gram."""
        doc = {
            "schema": "kernel-model/3",
            "kernel": self.kernel.describe(),
            "train_inputs": self.train_inputs.tolist(),
            "alpha": self.alpha.tolist(),
            "washout": self.washout,
        }
        if self.is_volterra:
            doc["last_column"] = self.last_col.tolist()
        return doc

    @classmethod
    def from_dict(cls, doc: dict, source: str = "model document",
                  path: str = "") -> "KernelModel":
        """Load a ``kernel-model/3`` document.  ``source`` and ``path`` (the
        dotted location of ``doc`` in it) name a missing key, and a bad
        value (a :class:`~kernelcast.errors.DependencyError`): the schema,
        a kernel ``kind`` and parameters as :data:`_KERNEL_PARAMS` takes
        them, a whole ``washout`` that leaves training rows, arrays whose
        shapes fit the model and Volterra samples within ``M``."""
        def get(key, conv):
            return doc_value(doc, key, source, path, conv)

        get("schema", one_of("kernel-model/3"))
        kind = get("kernel.kind", one_of(*_KERNEL_PARAMS))
        params = {}
        for name in doc["kernel"]:
            if name != "kind":
                if name not in _KERNEL_PARAMS[kind].__dataclass_fields__:
                    raise doc_error(source, path, f"kernel.{name}",
                                    f"is no {kind} parameter")
                params[name] = get(f"kernel.{name}", int_in(1) if name in (
                    "p", "tau", "d") else positive)
        try:
            kernel = _KERNEL_PARAMS[kind](**params)
        except InvalidInputError as exc:  # a bound that ties values together
            raise doc_error(source, path, "kernel", str(exc)) from None
        lagged = not isinstance(kernel, VolterraParams)
        train_inputs = get("train_inputs", finite_array(
            None, kernel.d if isinstance(kernel, NgrcKernelParams) else None))
        # training rows: one per window, or per sample for Volterra
        rows = train_inputs.shape[0] - (kernel.tau - 1 if lagged else 0)
        if rows < 1:
            raise doc_error(source, path, "train_inputs",
                            f"must hold at least {kernel.tau} rows")
        washout = get("washout", int_in(0, rows - 1))
        model = cls(kernel, train_inputs,
                    get("alpha", finite_array(rows - washout, None)), washout,
                    last_col=None if lagged else get("last_column",
                                                     finite_array(rows)))
        if not lagged:
            try:
                model.extension()  # checks the samples against M
            except NormBoundError as exc:
                raise doc_error(source, path, "train_inputs",
                                str(exc)) from None
        return model


def _lagged_rows(kernel, windows: np.ndarray) -> GramRows:
    if isinstance(kernel, PolyKernelParams):
        return _poly_rows(windows, kernel)
    return _ngrc_rows(windows, kernel.table())


def fit_kernel_model(inputs, targets, kernel, lam_reg: float,
                     washout: int = 0) -> KernelModel:
    """Fit dual coefficients on the washout-trimmed Gram matrix.

    For the lagged kernels (polynomial, NG-RC) the windows and targets are
    those of :func:`~kernelcast.ngrc.lagged_pairs`: the embedding consumes
    ``tau - 1`` leading samples and ``washout`` counts additional embedded
    rows to drop.  For the Volterra kernel the Gram covers the whole
    sequence and ``washout`` rows/columns are trimmed from the solve to
    flush the zero-padding transient; the trimmed sequence is still used
    when predicting.  The Gram reaches the solver as its lower-triangle rows,
    so the solver stores it (see :mod:`kernelcast.linsolve`).
    """
    Z = sample_rows(inputs, "inputs", finite=True)
    if isinstance(kernel, VolterraParams):
        # the targets of a tau = 1 lagged fit: one per sample, less washout
        _, Y = lagged_pairs(Z, targets, 1, washout)
        ext = VolterraExtension(Z, kernel)
        sol = solve_ridge_gram(GramRows(Z.shape[0] - washout,
                                        lambda: ext.sweep(washout)),
                               Y, lam_reg)
        return KernelModel(kernel, Z, sol.coefficients, washout, sol,
                           ext.column[1:])  # the sweep's last row

    if isinstance(kernel, NgrcKernelParams) and kernel.d != Z.shape[1]:
        raise InvalidInputError("kernel d does not match the input dimension")
    windows, Y = lagged_pairs(Z, targets, kernel.tau, washout)
    sol = solve_ridge_gram(_lagged_rows(kernel, windows), Y, lam_reg)
    return KernelModel(kernel, Z, sol.coefficients, washout, sol)


def predict_kernel(model: KernelModel, new_inputs,
                   ext: VolterraExtension | None = None) -> np.ndarray:
    """Out-of-sample outputs ``sum_i alpha_i K(new, z_i)``.

    For lagged kernels ``new_inputs`` is one delay window or a batch of
    windows.  For Volterra models it is the batch of raw samples that
    continues the training sequence, consumed in order through ``ext``
    (a fresh ``model.extension()`` when ``None``).
    """
    if model.is_volterra:
        T = sample_rows(new_inputs, "new_inputs", finite=True)
        ext = model.extension() if ext is None else ext
        out = np.empty((T.shape[0], model.n_targets))
        for j in range(T.shape[0]):
            col = ext.step(T[j])
            out[j] = col[model.washout :] @ model.alpha
        return out
    v = np.asarray(new_inputs, dtype=np.float64)
    single = v.ndim == 1
    V = v[None, :] if single else v
    if isinstance(model.kernel, PolyKernelParams):
        K = poly_gram(V, model.train_windows, model.kernel)
    else:
        K = ngrc_gram(V, model.train_windows, model.table)
    out = K @ model.alpha
    return out[0] if single else out
