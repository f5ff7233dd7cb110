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

The large Gram route keeps one n x n work array.  By default ``K`` is copied
once into a Fortran-ordered buffer, the ridge (and any jitter) is added to
its diagonal in place, and LAPACK factors it where it lies.  A caller that
passes ``overwrite_k=True`` hands ``K`` over, as with scipy's ``overwrite_a``:
when ``K`` is C-contiguous and exactly symmetric, ``K.T`` (the same values in
Fortran order) is the work array, and ``K`` holds the transposed Cholesky
factor in its upper triangle afterwards.  A failed attempt leaves the strict lower triangle
of ``K`` untouched, so a retry or the eigendecomposition fallback mirrors it
back and restores the saved diagonal; those see exactly the bytes of the copy
route.  The finiteness, scale and symmetry checks on ``K`` allocate no n x n
temporary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import ConditioningError, InvalidInputError

# Jitter escalation schedule: start at JITTER_REL * max|A|, multiply by 10.
JITTER_REL = 1e-12
MAX_JITTER_RETRIES = 4

# Size gates for the high-accuracy paths.
PRECISE_ROW_LIMIT = 512     # design-matrix rows
PRECISE_DIM_LIMIT = 2048    # normal-matrix dimension
GRAM_EIGH_LIMIT = 1024      # Gram dimension solved by eigendecomposition

_REFINE_STEPS = 2

# Rows per panel of the Gram symmetry check and of the triangle refill.
_SYM_PANEL_ROWS = 64


@dataclass(frozen=True)
class RidgeSolution:
    """Result of a ridge solve.

    Attributes
    ----------
    coefficients : ndarray
        Solved coefficients, one column per target column.
    regularizer : float
        The ridge strength that was used.
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
    """

    coefficients: np.ndarray
    regularizer: float
    smallest_pivot: float
    jitter: float = 0.0
    method: str = "cholesky"
    modes_cut: int = 0


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


def _cholesky_factor_jittered(A: np.ndarray, lam: float = 0.0,
                              overwrite_a: bool = False
                              ) -> tuple[np.ndarray, float, float]:
    """Lower Cholesky factor of ``A + lam I``, retrying with escalating jitter.

    ``A`` is copied once into a Fortran-ordered work array that LAPACK
    overwrites with the factor; a retry refills it from ``A``.  With
    ``overwrite_a`` the work array is ``A.T`` itself (``A`` must be
    C-contiguous and exactly symmetric): a retry mirrors its untouched
    strict upper triangle into the lower one and puts the saved diagonal
    back, and so does a final failure, which leaves ``A`` as it came.  The
    jitter scale ``max|A + lam I|`` is only computed once a factorization
    fails.
    """
    n = A.shape[0]
    if overwrite_a:
        work = A.T
        diag = A.diagonal().copy()
    else:
        work = np.empty((n, n), order="F")
    scale = None
    jitter = 0.0
    for retry in range(MAX_JITTER_RETRIES + 1):
        if not overwrite_a:
            work[...] = A
        elif retry:
            _refill_lower(work, diag)
        work.flat[:: n + 1] += lam
        if retry:
            if scale is None:
                scale = max(float(work.max()), -float(work.min()))
            jitter = JITTER_REL * max(scale, 1e-300) * (10.0 ** (retry - 1))
            work.flat[:: n + 1] += jitter
        # clean=0: LAPACK leaves the strict upper triangle alone, which the
        # in-place refill reads (scipy.linalg.cholesky zeroes it).
        L, info = scipy.linalg.lapack.dpotrf(work, lower=1, clean=0,
                                             overwrite_a=1)
        if info:
            continue
        smallest_pivot = float(np.min(np.diag(L)) ** 2) if L.size else 0.0
        return L, smallest_pivot, jitter
    if overwrite_a:
        _refill_lower(work, diag)
    raise ConditioningError(
        f"Cholesky failed after {MAX_JITTER_RETRIES} jitter retries "
        f"(max jitter {jitter:.3e})"
    )


def _refill_lower(A: np.ndarray, diag: np.ndarray) -> None:
    """Mirror the strict upper triangle of ``A`` into the strict lower one,
    in column panels, and write ``diag`` back onto the diagonal."""
    n = A.shape[0]
    for j0 in range(0, n, _SYM_PANEL_ROWS):
        j1 = min(j0 + _SYM_PANEL_ROWS, n)
        A[j1:, j0:j1] = A[j0:j1, j1:].T
        block = A[j0:j1, j0:j1]
        below = np.tri(j1 - j0, k=-1, dtype=bool)
        block[below] = block.T[below]
    A.flat[:: n + 1] = diag


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
    L, pivot, jitter = _cholesky_factor_jittered(A)
    w = scipy.linalg.cho_solve((L, True), B, check_finite=False)
    method = "cholesky"
    if precise and jitter == 0.0:
        for _ in range(_REFINE_STEPS):
            resid = (Bl - Al @ w.astype(np.longdouble)).astype(np.float64)
            w = w + scipy.linalg.cho_solve((L, True), resid, check_finite=False)
        method = "cholesky-refined"
    w = np.ascontiguousarray(w)
    coef = w[:, 0] if squeeze else w
    return RidgeSolution(coef, lam, pivot, jitter, method)


def solve_ridge_gram(K, Y, lam_reg: float, sym_tol: float = 1e-8,
                     overwrite_k: bool = False) -> RidgeSolution:
    """Solve the Gramian ridge regression for dual coefficients.

    For nonsingular ``K`` the result solves ``(K + lam I) alpha = Y``; for
    singular ``K`` it is the minimum-norm solution of
    ``pinv(K^2 + lam K) K Y``.  Both produce identical predictions
    ``K alpha``.  Up to :data:`GRAM_EIGH_LIMIT` the two cases are handled
    uniformly by an eigendecomposition (modes at numerical zero, including
    any slightly negative noise modes, carry no coefficient); larger systems
    go through Cholesky with jitter escalation, falling back to the
    eigendecomposition on failure.

    Parameters
    ----------
    K : (n, n) array
        Gram matrix, symmetric within ``sym_tol * max|K|``.
    Y : (n,) or (n, m) array
        Targets.
    lam_reg : float
        Ridge strength, must be positive.
    overwrite_k : bool
        The caller gives ``K`` up: on the Cholesky route an exactly symmetric,
        C-contiguous ``K`` is factored in place and its contents are lost.
        The answer is the same either way.
    """
    if not (np.isscalar(lam_reg) and lam_reg > 0):
        raise InvalidInputError("lam_reg must be a positive scalar")
    K = np.asarray(K, dtype=np.float64)
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise InvalidInputError("K must be a square matrix")
    scale = _finite_scale("K", K)
    asym = _max_asymmetry(K)
    if asym > sym_tol * max(scale, 1e-300):
        raise InvalidInputError(
            f"K is asymmetric beyond tolerance (|K-K'| = {asym:.3e})"
        )
    Y2, squeeze = _as_targets(_check_finite("Y", Y))
    if Y2.shape[0] != K.shape[0]:
        raise InvalidInputError(
            f"K has {K.shape[0]} rows but Y has {Y2.shape[0]}"
        )
    n = K.shape[0]
    lam = float(lam_reg)

    cut = 0
    if n <= GRAM_EIGH_LIMIT:
        alpha, pivot, cut = _gram_eigh_solve(K, Y2, lam)
        jitter, method = 0.0, "eigh"
    else:
        in_place = (overwrite_k and asym == 0.0 and K.flags.c_contiguous
                    and K.flags.writeable)
        try:
            L, pivot, jitter = _cholesky_factor_jittered(K, lam, in_place)
            alpha = scipy.linalg.cho_solve((L, True), Y2, check_finite=False)
            method = "cholesky"
        except ConditioningError:
            alpha, pivot, cut = _gram_eigh_solve(K, Y2, lam)
            jitter, method = 0.0, "eigh"
    alpha = np.ascontiguousarray(alpha)
    coef = alpha[:, 0] if squeeze else alpha
    return RidgeSolution(coef, lam, pivot, jitter, method, cut)


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


def _max_asymmetry(A: np.ndarray) -> float:
    """``max|A - A'|`` over row panels of the upper triangle.

    Each panel compares rows ``i0:i1`` right of the diagonal block with the
    matching columns below it, so every pair ``(i, j)`` is seen once and the
    temporaries stay at ``_SYM_PANEL_ROWS`` rows.
    """
    n = A.shape[0]
    asym = 0.0
    for i0 in range(0, n, _SYM_PANEL_ROWS):
        i1 = min(i0 + _SYM_PANEL_ROWS, n)
        diff = A[i0:i1, i0:] - A[i0:, i0:i1].T
        asym = max(asym, float(np.abs(diff, out=diff).max()))
    return asym


def _gram_eigh_solve(K: np.ndarray, Y: np.ndarray,
                     lam: float) -> tuple[np.ndarray, float, int]:
    """Spectral ridge solve; returns (alpha, smallest eigenvalue, modes cut)."""
    try:
        evals, vecs = scipy.linalg.eigh(K, check_finite=False)
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover
        raise ConditioningError(f"eigendecomposition failed: {exc}") from exc
    d_max = float(evals[-1]) if evals.size else 0.0
    cutoff = K.shape[0] * np.finfo(np.float64).eps * max(d_max, 0.0)
    kept = evals > cutoff
    gains = np.where(kept, 1.0 / (evals + lam), 0.0)
    alpha = vecs @ (gains[:, None] * (vecs.T @ Y))
    pivot = float(np.min(evals)) if evals.size else 0.0
    return alpha, pivot, int(kept.size - np.count_nonzero(kept))


def psd_sqrt(S, rel_tol: float = 1e-10) -> np.ndarray:
    """Symmetric square root of a symmetric positive semi-definite matrix.

    Eigenvalues below ``-rel_tol * ||S||`` raise
    :class:`~kernelcast.errors.InvalidInputError`; small negative values
    within the tolerance are clipped to zero.
    """
    S = np.asarray(S, dtype=np.float64)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise InvalidInputError("S must be a square matrix")
    scale = _finite_scale("S", S)
    if _max_asymmetry(S) > 1e-8 * max(scale, 1e-300):
        raise InvalidInputError("S must be symmetric")
    evals, vecs = scipy.linalg.eigh(S, check_finite=False)
    norm = float(np.max(np.abs(evals))) if evals.size else 0.0
    if evals.size and float(np.min(evals)) < -rel_tol * max(norm, 1e-300):
        raise InvalidInputError(
            f"S is indefinite (min eigenvalue {np.min(evals):.3e})"
        )
    root = vecs @ (np.sqrt(np.clip(evals, 0.0, None))[:, None] * vecs.T)
    return 0.5 * (root + root.T)
