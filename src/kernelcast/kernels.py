"""Polynomial, NG-RC dot-product, and Volterra kernels with dual ridge fitting.

The polynomial kernel ``(c + u'v)^p`` acts on flattened delay windows and
spans the same monomials as the NG-RC feature map, up to multinomial
weights (:meth:`PolyKernelParams.feature_scale`).  The NG-RC kernel is the
plain dot product of NG-RC feature vectors, so kernel ridge regression with
it reproduces the primal NG-RC solution exactly.

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DependencyError, InvalidInputError, NormBoundError, doc_field
from .linsolve import GramRows, RidgeSolution, solve_ridge_gram
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
        if not (self.theta > 0 and self.theta**2 * self.M**2 < 1.0):
            raise InvalidInputError("theta must satisfy theta^2 M^2 < 1")
        if not (0.0 < self.lam < math.sqrt(1.0 - self.theta**2 * self.M**2)):
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


def poly_kernel(u, v, params: PolyKernelParams) -> float:
    """Evaluate ``(c + u'v)^p`` for two delay windows."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise InvalidInputError("u and v must have equal shapes")
    return float((params.c + u @ v) ** params.p)


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


def ngrc_kernel(u, v, table: ExponentTable) -> float:
    """Dot product of NG-RC feature vectors."""
    return float(ngrc_features(u, table) @ ngrc_features(v, table))


# Below this feature-matrix size the Gram is accumulated in extended
# precision, which keeps its numerical null space clean enough for the
# dual solver's pseudo-inverse cutoff.
_PRECISE_GRAM_ELEMENTS = 1 << 16
# Rows per panel of a Gram product.
_GRAM_PANEL_ROWS = 64


def ngrc_gram(U, V, table: ExponentTable) -> np.ndarray:
    """Pairwise NG-RC kernel between the rows of U and V.

    A self-Gram (``V is U``) is built from the rows a fit factors: the rows
    are mapped once, and the Gram is exactly symmetric.  The
    extended-precision product is cast to float64 one row panel at a time,
    so the output is the only n x n array; numpy's ``longdouble`` matmul
    sums each element on its own, so the panels do not change its bits.
    """
    if V is U:
        return _ngrc_rows(U, table).full()
    FU = ngrc_features(np.atleast_2d(U), table)
    FV = ngrc_features(np.atleast_2d(V), table)
    if FU.size <= _PRECISE_GRAM_ELEMENTS and FV.size <= _PRECISE_GRAM_ELEMENTS:
        FUl = FU.astype(np.longdouble)
        FVlT = FV.astype(np.longdouble).T
        K = np.empty((FU.shape[0], FV.shape[0]))
        for i in range(0, FU.shape[0], _GRAM_PANEL_ROWS):
            K[i:i + _GRAM_PANEL_ROWS] = FUl[i:i + _GRAM_PANEL_ROWS] @ FVlT
        return K
    return FU @ FV.T


def _panel_rows(F: np.ndarray, finish=None) -> GramRows:
    """Lower-triangle rows of the self-Gram ``F @ F.T``, with ``finish``
    applied in place to each product panel.

    Panels of 64 rows against the rows above them go through one reused
    buffer of ``F``'s dtype; extended-precision rows are rounded to float64
    where they are stored.
    """
    n = F.shape[0]

    def rows():
        buf = np.empty(_GRAM_PANEL_ROWS * n, F.dtype)
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
    F = ngrc_features(np.atleast_2d(W), table)
    if F.size <= _PRECISE_GRAM_ELEMENTS:
        F = F.astype(np.longdouble)
    return _panel_rows(F)


def _check_sample_norms(Z: np.ndarray, params: VolterraParams) -> None:
    norms = np.linalg.norm(Z, axis=1)
    bad = np.nonzero(norms > params.M * (1.0 + _NORM_SLACK))[0]
    if bad.size:
        i = int(bad[0])
        raise NormBoundError(
            f"sample {i} has norm {norms[i]:.6g} > M = {params.M:.6g}",
            position=i,
        )


def _as_samples(inputs) -> np.ndarray:
    Z = np.asarray(inputs, dtype=np.float64)
    if Z.ndim == 1:
        Z = Z[:, None]
    if Z.ndim != 2:
        raise InvalidInputError("inputs must be a (n, d) sample matrix")
    if not np.all(np.isfinite(Z)):
        raise InvalidInputError("inputs contain non-finite entries")
    return Z


def _volterra_rows(Z: np.ndarray, params: VolterraParams, washout: int = 0,
                   last: np.ndarray | None = None):
    """Rows ``i >= washout`` of the Volterra Gram's lower triangle, from
    column ``washout`` on.

    Row sweep of the diagonal recursion over ``j <= i``: row i is produced
    from row i-1 shifted by one column, with the border pinned at
    ``1 / (1 - theta^2)``.  Rows before the washout live only in the rolling
    bordered row.  ``last``, when given, receives the bordered final row
    ``[border, K[n-1, 0], ..., K[n-1, n-1]]``.  Each row is a view that the
    next one overwrites.
    """
    n = Z.shape[0]
    lam2 = params.lam**2
    theta2 = params.theta**2
    floor = params.denominator_floor * (1.0 - 1e-9)
    prev = np.full(n + 1, params.border)  # bordered row i - 1
    row = np.empty(n)
    denom = np.empty(n)
    for i in range(n):
        d = denom[:i + 1]
        np.dot(Z[:i + 1], Z[i], out=d)
        d *= theta2
        np.subtract(1.0, d, out=d)
        # Cauchy-Schwarz keeps denominators >= 1 - theta^2 M^2 > 0; a
        # violation means the norm check was bypassed.
        if d.min() < floor:
            raise InvalidInputError("Volterra denominator fell below its floor")
        r = row[:i + 1]
        np.multiply(lam2, prev[:i + 1], out=r)
        r /= d
        r += 1.0
        prev[1:i + 2] = r
        if last is not None and i == n - 1:
            last[...] = prev
        if i >= washout:
            yield r[washout:]


def volterra_gram(inputs, params: VolterraParams) -> GramMatrix:
    """Square Volterra Gram matrix over one input sequence.

    The rows of the fit's sweep, mirrored: the Gram is the only n x n array,
    it is exactly symmetric, and its lower triangle carries the fit's bits.
    """
    Z = _as_samples(inputs)
    _check_sample_norms(Z, params)
    return GramMatrix(GramRows(Z.shape[0],
                               lambda: _volterra_rows(Z, params)).full())


class VolterraExtension:
    """Incremental rectangular extension of a Volterra Gram matrix.

    Holds the training samples and the most recent full column (border
    entry included); each ``step`` appends one sample that continues the
    sequence and returns the kernel values against every training index.
    A sample outside the ball ``||z|| <= M``, where the kernel is defined,
    becomes ``z * M / ||z||`` and is counted in ``projected``.
    Single-writer: not safe for concurrent stepping.
    """

    def __init__(self, Z_train: np.ndarray, params: VolterraParams,
                 last_col_with_border: np.ndarray):
        self._Z = Z_train
        self._params = params
        self._col = np.asarray(last_col_with_border, dtype=np.float64).copy()
        self.projected = 0
        if self._col.shape != (Z_train.shape[0] + 1,):
            raise InvalidInputError("last column must include the border entry")

    def step(self, z_new) -> np.ndarray:
        """Append one sample; return kernel values against training samples."""
        z = np.asarray(z_new, dtype=np.float64).reshape(-1)
        if z.shape[0] != self._Z.shape[1]:
            raise InvalidInputError("appended sample has wrong dimension")
        if not np.all(np.isfinite(z)):
            raise InvalidInputError("appended sample is non-finite")
        p = self._params
        norm = math.sqrt(z @ z)
        if norm > p.M * (1.0 + _NORM_SLACK):
            z = z * (p.M / norm)
            self.projected += 1
        denom = 1.0 - p.theta**2 * (self._Z @ z)
        new = np.empty_like(self._col)
        new[0] = p.border
        new[1:] = 1.0 + p.lam**2 * self._col[:-1] / denom
        self._col = new
        return new[1:]


def volterra_gram_extend(train_inputs, test_inputs,
                         params: VolterraParams) -> GramMatrix:
    """Rectangular (n_train x n_test) Gram block for a continued sequence.

    Column j holds the kernel between every training suffix and the suffix
    ending at test sample j; the test samples are treated as continuing the
    training sequence in order.
    """
    Z = _as_samples(train_inputs)
    T = _as_samples(test_inputs)
    if T.shape[1] != Z.shape[1]:
        raise InvalidInputError("train and test sample dimensions differ")
    _check_sample_norms(Z, params)
    last = np.full(Z.shape[0] + 1, params.border)
    for _ in _volterra_rows(Z, params, last=last):
        pass
    ext = VolterraExtension(Z, params, last)
    cols = np.empty((Z.shape[0], T.shape[0]))
    for j in range(T.shape[0]):
        cols[:, j] = ext.step(T[j])
    return GramMatrix(cols)


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
    A = _as_samples(seq_a)
    B = _as_samples(seq_b)
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

    ``train_inputs`` is the raw input sequence as seen at fit time; for the
    lagged kernels the embedded windows are cached in ``train_windows``.
    ``alpha`` has one row per retained (washed) training index.
    """

    kernel: PolyKernelParams | NgrcKernelParams | VolterraParams
    train_inputs: np.ndarray
    alpha: np.ndarray
    washout: int
    lam_reg: float
    solution: RidgeSolution | None = None
    train_windows: np.ndarray | None = field(default=None, repr=False)
    _last_col: np.ndarray | None = field(default=None, repr=False)
    _table: ExponentTable | None = field(default=None, repr=False)

    @property
    def n_targets(self) -> int:
        return self.alpha.shape[1]

    @property
    def is_volterra(self) -> bool:
        return isinstance(self.kernel, VolterraParams)

    def table(self) -> ExponentTable:
        if self._table is None:
            self._table = self.kernel.table()
        return self._table

    def extension(self) -> VolterraExtension:
        """Fresh single-writer extension starting after the training samples."""
        if not self.is_volterra:
            raise InvalidInputError("extensions exist only for Volterra models")
        return VolterraExtension(self.train_inputs, self.kernel, self._last_col)

    def to_dict(self) -> dict:
        """Schema ``kernel-model/2``: Volterra models also store the bordered
        last Gram column, so loading them builds no Gram."""
        doc = {
            "schema": "kernel-model/2",
            "kernel": self.kernel.describe(),
            "train_inputs": self.train_inputs.tolist(),
            "alpha": self.alpha.tolist(),
            "washout": self.washout,
            "lam_reg": self.lam_reg,
        }
        if self.is_volterra:
            doc["last_column"] = self._last_col.tolist()
        return doc

    @classmethod
    def from_dict(cls, doc: dict, source: str = "model document",
                  path: str = "") -> "KernelModel":
        """Load a ``kernel-model/2`` document.  ``source`` and ``path`` (the
        dotted location of ``doc`` in it) name a missing key."""
        def get(key):
            return doc_field(doc, key, source, path)

        schema = get("schema")
        if schema == "kernel-model/1":
            raise DependencyError(
                f"{source}: schema kernel-model/1 is no longer read; refit "
                "the model")
        if schema != "kernel-model/2":
            raise InvalidInputError(f"unknown model schema {schema!r}")
        kind = get("kernel.kind")
        if kind not in _KERNEL_PARAMS:
            raise InvalidInputError(f"unknown kernel kind {kind!r}")
        kernel = _KERNEL_PARAMS[kind](
            **{k: v for k, v in get("kernel").items() if k != "kind"})
        train_inputs = np.asarray(get("train_inputs"), dtype=np.float64)
        washout = int(get("washout"))
        model = KernelModel(kernel, train_inputs,
                            np.asarray(get("alpha"), dtype=np.float64),
                            washout, float(get("lam_reg")))
        if model.is_volterra:
            model._last_col = np.asarray(get("last_column"), dtype=np.float64)
        else:
            windows = delay_vectors(train_inputs, kernel.tau)
            model.train_windows = windows[washout:]
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
    Z = _as_samples(inputs)
    if isinstance(kernel, VolterraParams):
        # the targets of a tau = 1 lagged fit: one per sample, less washout
        _, Y = lagged_pairs(Z, targets, 1, washout)
        _check_sample_norms(Z, kernel)
        last_col = np.empty(Z.shape[0] + 1)
        rows = GramRows(Z.shape[0] - washout, lambda: _volterra_rows(
            Z, kernel, washout, last_col))
        sol = solve_ridge_gram(rows, Y, lam_reg)
        model = KernelModel(kernel, Z, sol.coefficients, washout,
                            float(lam_reg), sol)
        model._last_col = last_col
        return model

    if isinstance(kernel, NgrcKernelParams) and kernel.d != Z.shape[1]:
        raise InvalidInputError("kernel d does not match the input dimension")
    windows, Y = lagged_pairs(Z, targets, kernel.tau, washout)
    sol = solve_ridge_gram(_lagged_rows(kernel, windows), Y, lam_reg)
    model = KernelModel(kernel, Z, sol.coefficients, washout,
                        float(lam_reg), sol)
    model.train_windows = windows
    return model


def predict_kernel(model: KernelModel, new_inputs,
                   ext: VolterraExtension | None = None) -> np.ndarray:
    """Out-of-sample outputs ``sum_i alpha_i K(new, z_i)``.

    For lagged kernels ``new_inputs`` is one delay window or a batch of
    windows.  For Volterra models it is the batch of raw samples that
    continues the training sequence, consumed in order through ``ext``
    (a fresh ``model.extension()`` when ``None``).
    """
    if model.is_volterra:
        T = _as_samples(new_inputs)
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
        K = ngrc_gram(V, model.train_windows, model.table())
    out = K @ model.alpha
    return out[0] if single else out
