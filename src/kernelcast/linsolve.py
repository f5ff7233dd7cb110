"""Dense symmetric ridge solves and matrix square roots.

Both ridge closed forms used in this package reduce to solving a symmetric
positive definite system:

* primal:  ``w = (X'X + lam I)^-1 X'Y``  (sum-of-squares loss convention,
  so ``lam`` absorbs any sample-size factor),
* dual (Gramian):  ``alpha = (K + lam I)^-1 Y``, which for nonsingular ``K``
  is algebraically identical to ``(K^2 + lam K)^-1 K Y`` but far better
  conditioned.  For singular ``K`` the minimum-norm solution of the latter
  formula is returned: eigenmodes at numerical zero carry no coefficient.

Route selection is by size.  Small systems (the regime where callers compare
primal and dual answers at tight tolerances) get extra accuracy: the normal
matrices are accumulated in extended precision and the Cholesky solve is
polished by two extended-precision refinement steps; small Gram systems are
solved through a symmetric eigendecomposition with a null-space cutoff.
Large systems use plain Cholesky with escalating diagonal jitter before a
:class:`~kernelcast.errors.ConditioningError` is raised.

A Gram reaches :func:`solve_ridge_gram` as a :class:`GramRows`, which
produces the rows of its lower triangle in order; this module alone
decides how the Gram is stored.  The Cholesky route keeps one triangle in
LAPACK's rectangular full packed (RFP) storage, n(n+1)/2 doubles (about
96 MB at n = 4899): the rows are written straight into it, and it is
factored and solved where it lies (``dpftrf``/``dpftrs``).  A jitter
retry repacks from the rows.  The eigendecomposition route (n up to
:data:`GRAM_EIGH_LIMIT`, and the fallback once every Cholesky attempt
fails) works on the full n x n array of :meth:`GramRows.full`, built after
any packed array is released, so no second copy is kept.  The analysis
Grams (``kernels.volterra_gram`` and the self-Grams of ``poly_gram`` and
``ngrc_gram``) return that full array too.  The primal normal matrices
stay in full storage (``dpotrf``).

LAPACK is SciPy's extension module ``scipy/linalg/_flapack``.  :func:`_lapack`
loads that one file at the first solve, ahead of the solve's timer, and not
the ``scipy.linalg`` package, which imports some 320 modules (about 22 MB)
for the six routines called here.  Only ``fit``, ``cv`` and the BEKK
``simulate`` solve.  The calls are those ``scipy.linalg`` makes: same bits.
"""

from __future__ import annotations

import functools
import math
import os
import sys
import time
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from importlib import machinery, util

import numpy as np

from .errors import ConditioningError, InvalidInputError

# Jitter escalation schedule: start at JITTER_REL * max|A|, multiply by 10.
JITTER_REL = 1e-12
MAX_JITTER_RETRIES = 4

# Size gates for the high-accuracy paths.
PRECISE_ROW_LIMIT = 512     # design-matrix rows
PRECISE_DIM_LIMIT = 2048    # normal-matrix dimension
GRAM_EIGH_LIMIT = 1024      # Gram dimension solved by eigendecomposition

_REFINE_STEPS = 2

# Largest asymmetry ``max|S - S'|`` accepted in a :func:`psd_sqrt`
# argument, relative to ``max|S|``.
SYMMETRY_RTOL = 1e-8
# Most negative eigenvalue a :func:`psd_sqrt` argument may have (then
# clipped to zero), relative to its largest |eigenvalue|.
PSD_NEG_RTOL = 1e-10

# Rows per panel of the triangle mirror in :meth:`GramRows.full`.
_SYM_PANEL_ROWS = 64

_FLAPACK = "scipy.linalg._flapack"

# RFP layout of the Cholesky route: TRANSR='N', UPLO='U'.  The upper
# triangle of a symmetric matrix is its lower triangle transposed, so
# column i of the stored upper triangle is row i of the lower one.
_RFP = {"transr": "N", "uplo": "U"}


@functools.cache
def _lapack():
    """SciPy's LAPACK extension module: the one ``scipy.linalg`` loaded,
    or else the file run after the package root ``scipy`` (which sets up
    SciPy's libraries).  Running it enters it in ``sys.modules``; a later
    ``import scipy.linalg`` that found it there would lack ``_flapack``."""
    module = sys.modules.get(_FLAPACK)
    if module is not None:
        return module
    import scipy
    base = os.path.join(os.path.dirname(scipy.__file__), "linalg", "_flapack")
    path = next((base + suffix for suffix in machinery.EXTENSION_SUFFIXES
                 if os.path.isfile(base + suffix)), None)
    if path is None:
        raise ImportError(f"no SciPy LAPACK extension {base}"
                          f"{{{','.join(machinery.EXTENSION_SUFFIXES)}}}")
    spec = util.spec_from_file_location(_FLAPACK, path)
    module = util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules.pop(_FLAPACK, None)
    return module


@dataclass(frozen=True)
class RidgeSolution:
    """Result of a ridge solve.

    Attributes
    ----------
    coefficients : ndarray
        Solved coefficients, one column per target column.
    smallest_pivot : float
        Smallest pivot (squared Cholesky diagonal) or eigenvalue encountered
        while factoring; a conditioning diagnostic.
    jitter : float
        Total diagonal jitter that had to be added (0.0 in the common case).
    method : str
        ``"cholesky"``, ``"cholesky-refined"``, or ``"eigh"``.
    modes_cut : int
        Eigenmodes at numerical zero that got no coefficient (``"eigh"``
        only; 0 otherwise).
    storage : str or None
        Layout of the Gram the answer came from: ``"full"`` (n x n) or
        ``"rfp"`` (one packed triangle); ``None`` for a primal solve.
    gram_bytes : int
        Bytes of that Gram array (0 for a primal solve).
    gram_s, solve_s : float
        Seconds spent producing Gram rows (retries included), and in the
        rest of the solve.
    """

    coefficients: np.ndarray
    smallest_pivot: float
    jitter: float = 0.0
    method: str = "cholesky"
    modes_cut: int = 0
    storage: str | None = None
    gram_bytes: int = 0
    gram_s: float = 0.0
    solve_s: float = 0.0


class GramRows:
    """A symmetric n x n Gram given by the rows of its lower triangle.

    ``rows()`` returns a fresh iterator over rows ``0 .. n-1``; row ``i``
    holds the entries ``(i, 0 .. i)`` and needs to stay valid only until the
    next row is requested.
    :func:`solve_ridge_gram` decides where the rows go and may run
    ``rows()`` more than once (a jitter retry, the eigendecomposition
    fallback), so every run must produce the same bits.  ``shape`` is the
    full matrix's.
    """

    def __init__(self, n: int, rows: Callable[[], Iterable[np.ndarray]]):
        self.shape = (n, n)
        self._rows = rows
        self.seconds = 0.0  # spent producing rows, over every run

    def _produce(self):
        started = time.perf_counter()
        try:
            yield from self._rows()
        finally:
            self.seconds += time.perf_counter() - started

    def full(self) -> np.ndarray:
        """The Gram as an exactly symmetric C-contiguous n x n array."""
        n = self.shape[0]
        K = np.empty((n, n))
        for i, row in enumerate(self._produce()):
            K[i, :i + 1] = row
        _mirror_lower(K)
        return K

    def packed(self) -> np.ndarray:
        """The Gram's lower triangle in RFP storage (see ``_RFP``)."""
        n = self.shape[0]
        arf = np.empty(n * (n + 1) // 2)
        for i, row in enumerate(self._produce()):
            _rfp_row(arf, n, i)[...] = row
        return arf


def _mirror_lower(K: np.ndarray) -> None:
    """Copy the strict lower triangle of ``K`` onto the strict upper one,
    in column panels."""
    n = K.shape[0]
    for j0 in range(0, n, _SYM_PANEL_ROWS):
        j1 = min(j0 + _SYM_PANEL_ROWS, n)
        K[j0:j1, j1:] = K[j1:, j0:j1].T
        block = K[j0:j1, j0:j1]
        above = np.tri(j1 - j0, k=-1, dtype=bool).T
        block[above] = block.T[above]


def _rfp_layout(n: int) -> tuple[int, int]:
    """``(n1, ld)`` of the RFP array: rows ``i >= n1`` of the lower triangle
    are columns ``i - n1`` of an ``ld``-row Fortran block; rows ``i < n1``
    are stored transposed in its rows ``n1 + 1 + i``."""
    return n // 2, n + 1 - n % 2


def _rfp_row(arf: np.ndarray, n: int, i: int) -> np.ndarray:
    """Writable view of row ``i`` (entries ``(i, 0 .. i)``) in ``arf``:
    one contiguous slice for ``i >= n // 2``, a strided one below."""
    n1, ld = _rfp_layout(n)
    if i >= n1:
        start = (i - n1) * ld
        return arf[start:start + i + 1]
    return arf[n1 + 1 + i::ld][:i + 1]


def _rfp_diagonal(n: int) -> np.ndarray:
    """Positions of the diagonal entries in an RFP array."""
    n1, ld = _rfp_layout(n)
    i = np.arange(n)
    return np.where(i >= n1, (i - n1) * ld + i, n1 + 1 + i + i * ld)


def _check_finite(name: str, arr) -> np.ndarray:
    arr = np.asarray(arr, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    return arr


def _as_targets(Y: np.ndarray) -> tuple[np.ndarray, bool]:
    """Return Y as a 2-d column block plus a flag to restore 1-d shape."""
    Y = np.asarray(Y, dtype=np.float64)
    if Y.ndim == 1:
        return Y[:, None], True
    if Y.ndim != 2:
        raise InvalidInputError("targets must be a vector or a matrix")
    return Y, False


def _factor_jittered(fill: Callable[[], np.ndarray], diag, factor
                     ) -> tuple[np.ndarray, float, float]:
    """Cholesky factor of the symmetric matrix ``fill()`` holds, retrying
    with escalating diagonal jitter.

    ``fill()`` returns a fresh work array on each call, ``diag`` indexes
    its diagonal, and ``factor(work)`` overwrites it with the factor and
    returns ``(factor, info)``.  The previous attempt's array is released
    before the next fill.  The jitter scale ``max|A|`` is only computed once
    a factorization fails.
    """
    scale = None
    jitter = 0.0
    for retry in range(MAX_JITTER_RETRIES + 1):
        work = None  # release the failed attempt before filling again
        work = fill()
        if retry:
            if scale is None:
                scale = max(float(work.max()), -float(work.min()))
            jitter = JITTER_REL * max(scale, 1e-300) * (10.0 ** (retry - 1))
            work[diag] += jitter
        work, info = factor(work)
        if info:
            continue
        smallest_pivot = float(np.min(work[diag]) ** 2) if work.size else 0.0
        return work, smallest_pivot, jitter
    del work  # the traceback of the error below must not keep it alive
    raise ConditioningError(
        f"Cholesky failed after {MAX_JITTER_RETRIES} jitter retries "
        f"(max jitter {jitter:.3e})"
    )


def solve_ridge_primal(X, Y, lam_reg: float) -> RidgeSolution:
    """Solve ``min_w |Xw - Y|^2 + lam |w|^2`` column by column.

    Parameters
    ----------
    X : (n, N) array
        Design matrix.
    Y : (n,) or (n, m) array
        Regression targets.
    lam_reg : float
        Ridge strength, must be positive.

    Returns
    -------
    RidgeSolution
        ``coefficients`` has shape (N,) or (N, m) matching ``Y``.
    """
    lapack = _lapack()
    started = time.perf_counter()
    if not (np.isscalar(lam_reg) and lam_reg > 0):
        raise InvalidInputError("lam_reg must be a positive scalar")
    X = _check_finite("X", X)
    if X.ndim != 2 or X.shape[0] < 1:
        raise InvalidInputError("X must be a 2-d matrix with at least one row")
    Y2, squeeze = _as_targets(_check_finite("Y", Y))
    if Y2.shape[0] != X.shape[0]:
        raise InvalidInputError(
            f"X has {X.shape[0]} rows but Y has {Y2.shape[0]}"
        )
    n, N = X.shape
    lam = float(lam_reg)
    precise = n <= PRECISE_ROW_LIMIT and N <= PRECISE_DIM_LIMIT
    if precise:
        Xl = X.astype(np.longdouble)
        Al = Xl.T @ Xl + np.longdouble(lam) * np.eye(N, dtype=np.longdouble)
        Bl = Xl.T @ Y2.astype(np.longdouble)
        A = Al.astype(np.float64)
        B = Bl.astype(np.float64)
    else:
        A = X.T @ X + lam * np.eye(N)
        B = X.T @ Y2
    L, pivot, jitter = _factor_jittered(
        lambda: np.array(A, order="F"), np.diag_indices(N),
        lambda work: lapack.dpotrf(work, lower=1, clean=0, overwrite_a=1))

    def cho_solve(rhs: np.ndarray) -> np.ndarray:
        x, info = lapack.dpotrs(L, rhs, lower=True, overwrite_b=False)
        if info:
            raise ConditioningError(f"dpotrs failed (info {info})")
        return x

    w = cho_solve(B)
    method = "cholesky"
    if precise and jitter == 0.0:
        for _ in range(_REFINE_STEPS):
            resid = (Bl - Al @ w.astype(np.longdouble)).astype(np.float64)
            w = w + cho_solve(resid)
        method = "cholesky-refined"
    w = np.ascontiguousarray(w)
    coef = w[:, 0] if squeeze else w
    return RidgeSolution(coef, pivot, jitter, method,
                         solve_s=time.perf_counter() - started)


def solve_ridge_gram(K: GramRows, Y, lam_reg: float) -> RidgeSolution:
    """Solve the Gramian ridge regression for dual coefficients.

    For nonsingular ``K`` the result solves ``(K + lam I) alpha = Y``; for
    singular ``K`` it is the minimum-norm solution of
    ``pinv(K^2 + lam K) K Y``.  Both produce identical predictions
    ``K alpha``.  Up to :data:`GRAM_EIGH_LIMIT` the two cases are handled
    uniformly by an eigendecomposition (modes at numerical zero, including
    any slightly negative noise modes, carry no coefficient); larger systems
    go through a packed Cholesky factorization with jitter escalation,
    falling back to the eigendecomposition on failure.

    Parameters
    ----------
    K : GramRows
        The producer of an exactly symmetric Gram's lower-triangle rows.
        Any other ``K``, a full array included, is an
        :class:`~kernelcast.errors.InvalidInputError`.
    Y : (n,) or (n, m) array
        Targets.
    lam_reg : float
        Ridge strength, must be positive.
    """
    lapack = _lapack()
    started = time.perf_counter()
    if not (np.isscalar(lam_reg) and lam_reg > 0):
        raise InvalidInputError("lam_reg must be a positive scalar")
    if not isinstance(K, GramRows):
        raise InvalidInputError(
            f"K must be a GramRows, not {type(K).__name__}")
    n = K.shape[0]
    Y2, squeeze = _as_targets(_check_finite("Y", Y))
    if Y2.shape[0] != n:
        raise InvalidInputError(f"K has {n} rows but Y has {Y2.shape[0]}")
    lam = float(lam_reg)

    def fill() -> np.ndarray:
        """``K + lam I`` in RFP storage, packed afresh."""
        arf = K.packed()
        _finite_scale("K", arf)
        arf[diag] += lam
        return arf

    jitter, cut = 0.0, 0
    factored = None
    if n > GRAM_EIGH_LIMIT:
        diag = _rfp_diagonal(n)
        try:
            factored, pivot, jitter = _factor_jittered(
                fill, diag, lambda work: lapack.dpftrf(
                    n, work, overwrite_a=1, **_RFP))
        except ConditioningError:
            pass  # every packed attempt is released before the fallback
    if factored is not None:
        alpha, _ = lapack.dpftrs(n, factored, Y2, **_RFP)
        method, storage, gram_bytes = "cholesky", "rfp", factored.nbytes
    else:
        full = K.full()
        _finite_scale("K", full)
        alpha, pivot, cut = _gram_eigh_solve(full, Y2, lam)
        method, storage, gram_bytes = "eigh", "full", full.nbytes
    alpha = np.ascontiguousarray(alpha)
    coef = alpha[:, 0] if squeeze else alpha
    return RidgeSolution(coef, pivot, jitter, method, cut, storage,
                         gram_bytes, K.seconds,
                         time.perf_counter() - started - K.seconds)


def _finite_scale(name: str, A: np.ndarray) -> float:
    """``max|A|``, raising if ``A`` has a NaN or infinite entry.

    NaN propagates through both ``max`` and ``min``, so two reductions
    check finiteness without an elementwise temporary.
    """
    if not A.size:
        return 0.0
    hi, lo = float(A.max()), float(A.min())
    if not (math.isfinite(hi) and math.isfinite(lo)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    return max(hi, -lo)


def row_norms(Z: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(Z, axis=1)``, but a finite row whose sum of squares
    overflows is measured again divided by its largest |entry|."""
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(Z, axis=1)
        redo = np.isinf(norms) & np.isfinite(Z).all(axis=1)
        top = np.abs(Z[redo]).max(axis=1, initial=0.0)
        norms[redo] = top * np.linalg.norm(Z[redo] / top[:, None], axis=1)
    return norms


def _eigh(lapack, A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``scipy.linalg.eigh(A)``: ``dsyevr`` on the lower triangle, with the
    queried workspace sizes (f2py's default ``lwork`` gives other bits)."""
    n = A.shape[0]
    if n == 0:
        return np.empty(0), np.empty((0, 0))
    lwork, liwork, info = lapack.dsyevr_lwork(n=n, lower=True)
    if not info:
        evals, vecs, _, _, info = lapack.dsyevr(
            a=A, overwrite_a=False, lower=True, compute_v=1,
            lwork=int(lwork.real), liwork=int(liwork))
    if info:
        raise ConditioningError(f"eigendecomposition failed (info {info})")
    return evals, vecs


def _gram_eigh_solve(K: np.ndarray, Y: np.ndarray,
                     lam: float) -> tuple[np.ndarray, float, int]:
    """Spectral ridge solve; returns (alpha, smallest eigenvalue, modes cut)."""
    lapack = _lapack()
    evals, vecs = _eigh(lapack, K)
    d_max = float(evals[-1]) if evals.size else 0.0
    cutoff = K.shape[0] * np.finfo(np.float64).eps * max(d_max, 0.0)
    kept = evals > cutoff
    gains = np.where(kept, 1.0 / (evals + lam), 0.0)
    alpha = vecs @ (gains[:, None] * (vecs.T @ Y))
    pivot = float(np.min(evals)) if evals.size else 0.0
    return alpha, pivot, int(kept.size - np.count_nonzero(kept))


def psd_sqrt(S) -> np.ndarray:
    """Symmetric square root of a symmetric positive semi-definite matrix.

    Eigenvalues below ``-PSD_NEG_RTOL * ||S||`` raise
    :class:`~kernelcast.errors.InvalidInputError`; small negative values
    within the tolerance are clipped to zero; a failed eigendecomposition
    raises :class:`~kernelcast.errors.ConditioningError`.
    """
    lapack = _lapack()
    S = np.asarray(S, dtype=np.float64)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise InvalidInputError("S must be a square matrix")
    scale = _finite_scale("S", S)
    asym = np.abs(S - S.T).max(initial=0.0)
    if asym > SYMMETRY_RTOL * max(scale, 1e-300):
        raise InvalidInputError("S must be symmetric")
    evals, vecs = _eigh(lapack, S)
    norm = max(float(np.max(np.abs(evals), initial=0.0)), 1e-300)
    if float(np.min(evals, initial=0.0)) < -PSD_NEG_RTOL * norm:
        raise InvalidInputError(
            f"S is indefinite (min eigenvalue {np.min(evals):.3e})"
        )
    root = vecs @ (np.sqrt(np.clip(evals, 0.0, None))[:, None] * vecs.T)
    return 0.5 * (root + root.T)
