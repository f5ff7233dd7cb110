import inspect
import json
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st
from scipy.linalg import lapack

from kernelcast import linsolve
from kernelcast.errors import ConditioningError, InvalidInputError
from kernelcast.linsolve import (
    GramRows,
    psd_sqrt,
    solve_ridge_gram,
    solve_ridge_primal,
)


def lu_normal_equations(X, Y, lam):
    """Independent oracle: dense LU solve of (X'X + lam I) w = X'Y."""
    A = X.T @ X + lam * np.eye(X.shape[1])
    lu, piv = scipy.linalg.lu_factor(A)
    return scipy.linalg.lu_solve((lu, piv), X.T @ Y)


class TestRidgePrimal:
    def test_scalar_least_squares_limit(self):
        sol = solve_ridge_primal(np.array([[1.0]]), np.array([2.0]), 1e-12)
        assert sol.coefficients == pytest.approx(2.0, abs=1e-9)

    def test_scalar_with_unit_ridge(self):
        sol = solve_ridge_primal(np.array([[1.0]]), np.array([2.0]), 1.0)
        assert sol.coefficients == pytest.approx(1.0, rel=1e-12)

    def test_matches_lu_oracle(self):
        rng = np.random.default_rng(42)
        X = rng.normal(size=(20, 6))
        Y = rng.normal(size=(20, 2))
        expected = lu_normal_equations(X, Y, 0.1)
        sol = solve_ridge_primal(X, Y, 0.1)
        np.testing.assert_allclose(sol.coefficients, expected, rtol=1e-10)

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(30, 5))
        Y = rng.normal(size=(30,))
        perm = rng.permutation(30)
        a = solve_ridge_primal(X, Y, 0.5).coefficients
        b = solve_ridge_primal(X[perm], Y[perm], 0.5).coefficients
        np.testing.assert_allclose(a, b, rtol=1e-10, atol=1e-12)

    def test_rejects_bad_inputs(self):
        with pytest.raises(InvalidInputError):
            solve_ridge_primal(np.array([[np.nan]]), np.array([1.0]), 1.0)
        with pytest.raises(InvalidInputError):
            solve_ridge_primal(np.eye(2), np.ones(2), 0.0)
        with pytest.raises(InvalidInputError):
            solve_ridge_primal(np.eye(2), np.ones(3), 1.0)

    def test_reports_conditioning(self):
        sol = solve_ridge_primal(np.eye(3), np.ones(3), 2.0)
        assert sol.smallest_pivot == pytest.approx(3.0)  # 1 + lam
        assert sol.jitter == 0.0


class TestRidgeGram:
    def test_scalar_gram(self, gram_rows):
        sol = solve_ridge_gram(gram_rows(np.array([[1.0]])), np.array([1.0]),
                               1.0)
        assert sol.coefficients == pytest.approx(0.5, rel=1e-12)

    def test_identity_gram_small_ridge(self, gram_rows):
        sol = solve_ridge_gram(gram_rows(np.eye(3)), np.array([1.0, 2.0, 3.0]),
                               1e-12)
        np.testing.assert_allclose(sol.coefficients, [1.0, 2.0, 3.0],
                                   rtol=1e-9)

    def test_dual_predictions_match_primal(self, gram_rows):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(15, 4))
        Y = rng.normal(size=(15,))
        K = X @ X.T
        alpha = solve_ridge_gram(gram_rows(K), Y, 0.3).coefficients
        w = solve_ridge_primal(X, Y, 0.3).coefficients
        np.testing.assert_allclose(K @ alpha, X @ w, rtol=1e-9)

    def test_singular_gram_minimum_norm(self, gram_rows):
        # rank-1 Gram; the coefficient must have no null-space component
        v = np.array([1.0, 2.0, 2.0])
        K = np.outer(v, v)
        Y = np.array([1.0, -1.0, 0.5])
        alpha = solve_ridge_gram(gram_rows(K), Y, 1e-3).coefficients
        # minimum-norm solution lies along v
        residual = alpha - v * (v @ alpha) / (v @ v)
        np.testing.assert_allclose(residual, 0.0, atol=1e-10)
        # and matches the direct formula pinv(K^2 + lam K) K Y
        expected = np.linalg.pinv(K @ K + 1e-3 * K) @ K @ Y
        np.testing.assert_allclose(alpha, expected, atol=1e-10)

    @pytest.mark.parametrize("K", [np.eye(2), [[1.0, 0.0], [0.0, 1.0]]],
                             ids=["ndarray", "list"])
    def test_full_array_rejected(self, K):
        with pytest.raises(InvalidInputError, match="must be a GramRows"):
            solve_ridge_gram(K, np.ones(2), 1.0)

    def test_indefinite_huge_gram_falls_back(self, gram_rows):
        # beyond the eigh size gate the Cholesky path runs; force a failure
        # with a matrix that stays indefinite under every jitter retry
        n = linsolve.GRAM_EIGH_LIMIT + 1
        K = -np.eye(n)
        sol = solve_ridge_gram(gram_rows(K), np.ones(n), 1e-8)
        assert sol.method == "eigh"
        # all eigenvalues negative: paper formula pinv zeroes nothing kept
        np.testing.assert_allclose(sol.coefficients, 0.0, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 50),
    cols=st.integers(1, 20),
    lam=st.floats(1e-8, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_primal_dual_duality_property(gram_rows, n, cols, lam, seed):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, size=(n, cols))
    Y = rng.uniform(-1, 1, size=(n,))
    K = (X.astype(np.longdouble) @ X.astype(np.longdouble).T).astype(np.float64)
    lhs = X @ solve_ridge_primal(X, Y, lam).coefficients
    rhs = K @ solve_ridge_gram(gram_rows(K), Y, lam).coefficients
    np.testing.assert_allclose(lhs, rhs, rtol=1e-8, atol=1e-8)


class TestPsdSqrt:
    def test_identity(self):
        np.testing.assert_allclose(psd_sqrt(np.eye(2)), np.eye(2), atol=1e-14)

    def test_diagonal(self):
        np.testing.assert_allclose(psd_sqrt(np.diag([4.0, 9.0])),
                                   np.diag([2.0, 3.0]), atol=1e-12)

    def test_reconstruction(self):
        rng = np.random.default_rng(5)
        M = rng.normal(size=(5, 5))
        S = M @ M.T
        R = psd_sqrt(S)
        scale = np.max(np.abs(S))
        assert np.max(np.abs(R @ R - S)) <= 1e-8 * scale

    def test_commutes_with_input(self):
        rng = np.random.default_rng(6)
        M = rng.normal(size=(6, 6))
        S = M @ M.T
        R = psd_sqrt(S)
        scale = np.max(np.abs(S))
        assert np.max(np.abs(R @ S - S @ R)) <= 1e-8 * scale

    def test_rejects_indefinite(self):
        with pytest.raises(InvalidInputError):
            psd_sqrt(np.diag([1.0, -0.5]))

    def test_clips_tiny_negative(self):
        S = np.diag([1.0, -1e-14])
        R = psd_sqrt(S)
        assert R[1, 1] == 0.0

    def test_asymmetry_rejected(self):
        with pytest.raises(InvalidInputError, match="symmetric"):
            psd_sqrt(np.array([[1.0, 0.5], [0.2, 1.0]]))

    def test_asymmetry_within_tolerance_accepted(self):
        S = TestGramCholeskyRoute.spd_gram(6, seed=1)
        scale = np.abs(S).max()
        S[5, 1] += 1e-10 * scale  # SYMMETRY_RTOL is 1e-8
        R = psd_sqrt(S)
        assert np.max(np.abs(R @ R - S)) <= 1e-8 * scale
        S[5, 1] += 1e-6 * scale
        with pytest.raises(InvalidInputError, match="symmetric"):
            psd_sqrt(S)


class TestGramCholeskyRoute:
    """The route above GRAM_EIGH_LIMIT: one work array, every check kept."""

    @staticmethod
    def spd_gram(n, seed=0):
        X = np.random.default_rng(seed).normal(size=(n, 2 * n))
        return X @ X.T / n

    def test_peak_memory_is_one_work_array(self, peak_bytes, gram_rows):
        n = 1500
        K = self.spd_gram(n)
        Y = np.ones((n, 3))
        peak = peak_bytes(lambda: solve_ridge_gram(gram_rows(K), Y, 1e-6))
        assert peak <= 0.6 * 8 * n * n

    @pytest.mark.parametrize("n", [5, linsolve.GRAM_EIGH_LIMIT + 1])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected_on_both_routes(self, gram_rows, n, bad):
        K = np.eye(n)
        K[n - 1, n - 2] = K[n - 2, n - 1] = bad
        with pytest.raises(InvalidInputError, match="non-finite"):
            solve_ridge_gram(gram_rows(K), np.ones(n), 1e-3)

    def test_jitter_retry_matches_direct_factorization(self):
        n = linsolve.GRAM_EIGH_LIMIT + 1
        u = np.random.default_rng(2).normal(size=(n, 3))
        K = u @ u.T  # rank 3: the unjittered factorization fails
        Y = np.random.default_rng(3).normal(size=(n, 2))
        lam = 1e-300
        runs = []

        def rows():
            runs.append(1)
            return (K[i, :i + 1] for i in range(n))

        sol = solve_ridge_gram(GramRows(n, rows), Y, lam)
        assert sol.method == "cholesky" and sol.jitter > 0
        assert len(runs) > 1  # each retry runs the row producer again
        expected = rfp_solve(K + lam * np.eye(n) + sol.jitter * np.eye(n), Y)
        assert np.array_equal(sol.coefficients, expected)


def rfp_solve(A, Y):
    """Reference: dpftrs(dpftrf(dtrttf(A))) in the solver's RFP layout."""
    n = A.shape[0]
    arf, info = lapack.dpftrf(n, lapack.dtrttf(A, transr="N", uplo="U")[0],
                              transr="N", uplo="U")
    assert info == 0
    return lapack.dpftrs(n, arf, Y, transr="N", uplo="U")[0]


class TestPackedStorage:
    """The Cholesky route keeps one triangle in RFP storage."""

    @pytest.mark.parametrize("n", list(range(1, 12)) + [64, 65])
    def test_rows_land_where_dtrttf_puts_them(self, gram_rows, n):
        K = np.arange(n * n, dtype=float).reshape(n, n)
        K = K + K.T
        rows = gram_rows(K)
        expected = lapack.dtrttf(K, transr="N", uplo="U")[0]
        assert np.array_equal(rows.packed(), expected)
        assert np.array_equal(rows.full(), K)
        assert np.array_equal(rows.packed()[linsolve._rfp_diagonal(n)],
                              np.diag(K))

    def test_packed_solve_matches_dtrttf_reference(self, gram_rows):
        K = TestGramCholeskyRoute.spd_gram(linsolve.GRAM_EIGH_LIMIT + 41)
        n = K.shape[0]
        Y = np.random.default_rng(4).normal(size=(n, 2))
        sol = solve_ridge_gram(gram_rows(K), Y, 1e-6)
        assert sol.method == "cholesky" and sol.storage == "rfp"
        assert sol.gram_bytes == 8 * n * (n + 1) // 2
        assert np.array_equal(sol.coefficients,
                              rfp_solve(K + 1e-6 * np.eye(n), Y))
        assert sol.smallest_pivot > 0

    def test_rows_source_left_untouched(self, gram_rows):
        # the rows are views of K: the solver writes into copies only
        K = TestGramCholeskyRoute.spd_gram(linsolve.GRAM_EIGH_LIMIT + 40)
        before = K.copy()
        solve_ridge_gram(gram_rows(K), np.ones(K.shape[0]), 1e-6)
        assert np.array_equal(K, before)

    def test_non_finite_rows_rejected(self, gram_rows):
        n = linsolve.GRAM_EIGH_LIMIT + 1
        K = np.eye(n)
        K[n - 1, 3] = np.nan
        with pytest.raises(InvalidInputError, match="non-finite"):
            solve_ridge_gram(gram_rows(K), np.ones(n), 1e-3)

    def test_small_gram_from_rows_is_full(self, gram_rows):
        u = np.random.default_rng(7).normal(size=(40, 3))
        sol = solve_ridge_gram(gram_rows(u @ u.T), np.ones(40), 1e-6)
        assert sol.method == "eigh" and sol.storage == "full"
        assert sol.gram_bytes == 8 * 40 * 40


class TestModesCut:
    def test_cholesky_cuts_nothing(self, gram_rows):
        K = TestGramCholeskyRoute.spd_gram(linsolve.GRAM_EIGH_LIMIT + 1)
        sol = solve_ridge_gram(gram_rows(K), np.ones(K.shape[0]), 1e-6)
        assert sol.modes_cut == 0

    def test_eigh_counts_null_modes(self, gram_rows):
        u = np.random.default_rng(7).normal(size=(40, 3))
        sol = solve_ridge_gram(gram_rows(u @ u.T), np.ones(40), 1e-6)
        assert sol.method == "eigh"
        assert sol.modes_cut == 37  # rank 3


SRC = Path(__file__).resolve().parents[1] / "src"
# Each case at the size of a shipped solve, on the route it names.  The
# reference runs the same solve with every LAPACK call made through
# scipy.linalg: its lapack functions, cho_solve and eigh.  A Gram case
# hands the solver its rows through ``lower_rows``, whose source the test
# adds to the script.
_LOADER_CASES = """
import json, sys, types
import numpy as np
from kernelcast import linsolve
from kernelcast.linsolve import GramRows

rng = np.random.default_rng(23)


def primal(n):
    X, Y = rng.standard_normal((n, 28)), rng.standard_normal((n, 3))
    return lambda: linsolve.solve_ridge_primal(X, Y, 1e-6)


def gram_jittered(n):  # K + lam I indefinite by 5e-11 max|K|
    B = rng.standard_normal((n, 40))
    K = B @ B.T
    K[np.diag_indices(n)] -= 5e-11 * np.abs(K).max()
    Y = rng.standard_normal((n, 3))
    return lambda: linsolve.solve_ridge_gram(lower_rows(K), Y, 1e-16)


def gram_eigh(n):
    Z = rng.uniform(-1.0, 1.0, (n, 3))
    K, Y = (1.0 + Z @ Z.T) ** 2, rng.standard_normal((n, 3))
    return lambda: linsolve.solve_ridge_gram(lower_rows(K), Y, 1e-6)


def sqrt(n):
    A = rng.standard_normal((n, n))
    S = A @ A.T
    return lambda: linsolve.psd_sqrt(S)


CASES = {"primal-refined": lambda: primal(400),
         "primal-plain": lambda: primal(5000),
         "gram-rfp-jittered": lambda: gram_jittered(1100),
         "gram-eigh": lambda: gram_eigh(800),
         "psd-sqrt": lambda: sqrt(15)}


def results(solve):
    out = solve()
    if isinstance(out, np.ndarray):
        return out, None
    return out.coefficients, [out.method, out.jitter, out.smallest_pivot,
                              out.modes_cut]


def through_scipy_linalg(solve):
    import scipy.linalg
    lapack = types.SimpleNamespace(
        dpotrf=scipy.linalg.lapack.dpotrf, dtrttf=scipy.linalg.lapack.dtrttf,
        dpftrf=scipy.linalg.lapack.dpftrf, dpftrs=scipy.linalg.lapack.dpftrs,
        dpotrs=lambda L, B, lower, overwrite_b: (scipy.linalg.cho_solve(
            (L, lower), B, check_finite=False), 0))
    linsolve._lapack = lambda: lapack
    linsolve._eigh = lambda _, A: scipy.linalg.eigh(A, check_finite=False)
    return results(solve)
"""


def _run_fresh(helper, body: str):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    script = _LOADER_CASES + inspect.getsource(helper) + body
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestLapackLoader:
    """``linsolve`` reaches LAPACK through SciPy's extension module alone,
    with the bits ``scipy.linalg`` gives, whichever of the two is loaded
    first."""

    @pytest.mark.parametrize("case", ["primal-refined", "primal-plain",
                                      "gram-rfp-jittered", "gram-eigh",
                                      "psd-sqrt"])
    @pytest.mark.parametrize("first", ["loader", "scipy.linalg"])
    def test_same_bits_as_scipy_linalg(self, gram_rows, case, first):
        got = _run_fresh(
            gram_rows,
            f"solve = CASES[{case!r}]()\n"
            f"if {first!r} == 'loader':\n"
            "    value, route = results(solve)\n"
            "    hidden = 'scipy.linalg' not in sys.modules\n"
            "    import scipy.linalg\n"
            "    hidden = hidden and hasattr(scipy.linalg, '_flapack')\n"
            "else:\n"
            "    import scipy.linalg\n"
            "    hidden = linsolve._lapack() is sys.modules["
            "'scipy.linalg._flapack']\n"
            "    value, route = results(solve)\n"
            "ref_value, ref_route = through_scipy_linalg(solve)\n"
            "print(json.dumps([hidden, bool(np.array_equal(value, ref_value)),"
            " route == ref_route, route]))")
        hidden, same_bits, same_route, route = got
        assert hidden and same_bits and same_route
        if route is not None:
            method, jitter = route[:2]
            assert method == {"primal-refined": "cholesky-refined",
                              "gram-eigh": "eigh"}.get(case, "cholesky")
            assert (jitter > 0.0) == (case == "gram-rfp-jittered")

    def test_failed_eigendecomposition_is_a_conditioning_error(
            self, monkeypatch, gram_rows):
        real = linsolve._lapack()
        failing = types.SimpleNamespace(
            dsyevr_lwork=real.dsyevr_lwork,
            dsyevr=lambda **kw: (*real.dsyevr(**kw)[:4], 1))
        monkeypatch.setattr(linsolve, "_lapack", lambda: failing)
        S = np.array([[2.0, 1.0], [1.0, 2.0]])
        with pytest.raises(ConditioningError, match="eigendecomposition"):
            solve_ridge_gram(gram_rows(S), np.ones(2), 1e-3)
        with pytest.raises(ConditioningError, match="eigendecomposition"):
            psd_sqrt(S)

    def test_empty_matrix_has_no_modes(self, gram_rows):
        # dsyevr itself rejects n = 0; scipy.linalg.eigh returns empty arrays
        assert psd_sqrt(np.empty((0, 0))).shape == (0, 0)
        sol = solve_ridge_gram(gram_rows(np.empty((0, 0))), np.empty(0), 1.0)
        assert sol.coefficients.shape == (0,) and sol.method == "eigh"

    def test_missing_extension_names_its_path(self, monkeypatch, tmp_path):
        import scipy

        monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
        monkeypatch.setattr(scipy, "__file__",
                            str(tmp_path / "scipy" / "__init__.py"))
        linsolve._lapack.cache_clear()
        try:
            with pytest.raises(ImportError, match=re.escape(
                    str(tmp_path / "scipy" / "linalg" / "_flapack"))):
                linsolve._lapack()
        finally:
            linsolve._lapack.cache_clear()
