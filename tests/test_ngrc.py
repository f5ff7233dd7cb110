import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kernelcast import ngrc
from kernelcast.errors import CapacityError, InvalidInputError
from kernelcast.ngrc import (
    NgrcModel,
    build_exponent_table,
    delay_vectors,
    feature_dim,
    fit_ngrc,
    lagged_pairs,
    ngrc_features,
    predict_ngrc,
)


def enumerate_multi_indices(width, max_degree):
    """Brute-force oracle: all exponent tuples with total degree <= max."""
    out = []
    for combo in itertools.product(range(max_degree + 1), repeat=width):
        if sum(combo) <= max_degree:
            out.append(combo)
    return out


class TestFeatureDim:
    def test_scalar_two_lags_degree_two(self):
        assert feature_dim(2, 1, 2) == 6

    def test_minimal(self):
        assert feature_dim(1, 1, 1) == 2

    def test_against_enumeration_oracle(self):
        assert feature_dim(3, 3, 2) == len(enumerate_multi_indices(9, 2)) == 55

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidInputError):
            feature_dim(0, 1, 1)

    def test_overflow_guard(self):
        with pytest.raises(CapacityError):
            feature_dim(100, 100, 50)

    def test_overflow_names_the_cap_not_the_count(self):
        # C(18 + 10^308, 18) has about 5500 digits, more than int() prints
        with pytest.raises(CapacityError, match=f"cap of {2**63 - 1}$"):
            feature_dim(6, 3, 10**308)


class TestExponentTable:
    def test_scalar_degree_two(self):
        table = build_exponent_table(1, 1, 2)
        assert table.rows.tolist() == [[0], [1], [2]]

    def test_two_lag_ordering(self):
        table = build_exponent_table(2, 1, 2)
        degrees = table.rows.sum(axis=1)
        assert degrees.tolist() == [0, 1, 1, 2, 2, 2]
        assert table.rows.shape == (6, 2)
        assert table.rows[0].tolist() == [0, 0]

    def test_row_count_matches_feature_dim(self):
        table = build_exponent_table(2, 2, 3)
        assert table.n_features == feature_dim(2, 2, 3) == 35

    def test_rows_match_enumeration_as_sets(self):
        table = build_exponent_table(2, 2, 3)
        got = {tuple(r) for r in table.rows.tolist()}
        assert got == set(enumerate_multi_indices(4, 3))

    def test_table_cap(self):
        with pytest.raises(CapacityError):
            build_exponent_table(6, 6, 6)

    @pytest.mark.parametrize("skew", [-1, 1])
    def test_row_count_mismatch_is_checked(self, monkeypatch, skew):
        # an explicit check, not an assert that `python -O` strips
        true_dim = feature_dim
        monkeypatch.setattr(ngrc, "feature_dim",
                            lambda tau, d, p: true_dim(tau, d, p) + skew)
        with pytest.raises(CapacityError, match="enumerated 10 rows"):
            build_exponent_table(3, 1, 2)


@settings(max_examples=30, deadline=None)
@given(tau=st.integers(1, 6), d=st.integers(1, 6), p=st.integers(1, 6))
def test_count_law(tau, d, p):
    if feature_dim(tau, d, p) > 4000:
        return
    assert build_exponent_table(tau, d, p).n_features == feature_dim(tau, d, p)


class TestDelayVectors:
    def test_scalar_series(self):
        out = delay_vectors(np.array([1.0, 2.0, 3.0]), 2)
        assert out.tolist() == [[1.0, 2.0], [2.0, 3.0]]

    def test_tau_one_is_identity(self):
        series = np.arange(12.0).reshape(4, 3)
        np.testing.assert_array_equal(delay_vectors(series, 1), series)

    def test_index_bookkeeping_oracle(self):
        series = np.arange(8.0).reshape(4, 2)
        out = delay_vectors(series, 3)
        assert out.shape == (2, 6)
        # window ending at t stacks samples t-2, t-1, t (oldest first)
        for row, t in enumerate([2, 3]):
            expected = np.concatenate([series[t - 2], series[t - 1], series[t]])
            np.testing.assert_array_equal(out[row], expected)

    def test_too_short(self):
        with pytest.raises(InvalidInputError):
            delay_vectors(np.ones((2, 1)), 3)


class TestFeatures:
    def test_zero_window_keeps_constant_only(self):
        table = build_exponent_table(2, 2, 3)
        feats = ngrc_features(np.zeros(4), table)
        assert feats[0] == 1.0
        assert np.all(feats[1:] == 0.0)

    def test_two_lag_example_values(self):
        table = build_exponent_table(2, 1, 2)
        # newest sample 2, previous 3 -> window (3, 2) oldest first
        feats = ngrc_features(np.array([3.0, 2.0]), table)
        assert feats.tolist() == [1.0, 2.0, 3.0, 4.0, 6.0, 9.0]

    def test_against_bruteforce_monomials(self):
        rng = np.random.default_rng(0)
        table = build_exponent_table(2, 2, 3)
        v = rng.normal(size=4)
        feats = ngrc_features(v, table)
        for k, row in enumerate(table.rows):
            expected = math.prod(float(v[i]) ** int(e)
                                 for i, e in enumerate(row))
            assert feats[k] == pytest.approx(expected, rel=1e-12)

        def per_monomial(V, table):
            # one product of powers per monomial over its row's nonzero
            # exponents; a column's exponent is broadcast, so numpy squares
            # by x * x (an elementwise ``V ** row`` may use a SIMD pow that
            # rounds differently)
            out = np.empty((V.shape[0], table.n_features))
            for k, row in enumerate(table.rows):
                cols = np.nonzero(row)[0]
                out[:, k] = np.prod(V[:, cols] ** row[cols].astype(float),
                                    axis=1)
            return out

        # bit for bit at p <= 2, where every feature is x_i or x_i * x_j;
        # at p >= 3 the products associate differently
        for shape, rtol in [((3, 3, 2), 0), ((2, 3, 2), 0), ((1, 5, 1), 0),
                            ((1, 5, 2), 0), ((2, 5, 1), 0), ((2, 5, 2), 0),
                            ((8, 1, 2), 0), ((4, 1, 5), 2e-15),
                            ((2, 1, 3), 2e-15), ((8, 1, 5), 2e-15)]:
            tau, d, p = shape
            table = build_exponent_table(tau, d, p)
            assert len(table.runs) == p * tau * d
            V = rng.normal(size=(2000, tau * d))
            feats = ngrc_features(V, table)
            expected = per_monomial(V, table)
            if rtol == 0:
                np.testing.assert_array_equal(feats, expected, str(shape))
            else:
                np.testing.assert_allclose(feats, expected, rtol=rtol,
                                           atol=0, err_msg=str(shape))
            np.testing.assert_array_equal(ngrc_features(V[7], table),
                                          feats[7], str(shape))

    @pytest.mark.parametrize("shape", [(3, 3, 2), (4, 1, 5), (6, 3, 2),
                                       (17, 1, 4)])
    def test_single_window_gathers_match_batch_bit_for_bit(self, shape):
        # a single window, or a batch of one, takes one gather per degree;
        # they form the products of the batch's runs
        table = build_exponent_table(*shape)
        assert len(table.gathers) == shape[2]
        V = np.random.default_rng(5).normal(size=(300, shape[0] * shape[1]))
        feats = ngrc_features(V, table)
        for i in range(V.shape[0]):
            np.testing.assert_array_equal(ngrc_features(V[i], table),
                                          feats[i])
            np.testing.assert_array_equal(ngrc_features(V[i:i + 1], table),
                                          feats[i:i + 1])

    def test_shape_mismatch(self):
        table = build_exponent_table(2, 1, 2)
        with pytest.raises(InvalidInputError):
            ngrc_features(np.zeros(3), table)


class TestLaggedPairs:
    def test_window_pairs_with_the_target_of_its_last_sample(self):
        inputs = np.arange(10.0)
        windows, Y = lagged_pairs(inputs, 100.0 + inputs, 3, washout=2)
        assert windows.shape == (6, 3) and Y.shape == (6, 1)
        np.testing.assert_array_equal(windows[:, -1], Y[:, 0] - 100.0)
        assert windows[0].tolist() == [2.0, 3.0, 4.0]

    @pytest.mark.parametrize("n_targets, washout, match", [
        (9, 0, "equal length"), (10, -1, "non-negative"),
        (10, 8, "no training rows")])
    def test_rejected_rows(self, n_targets, washout, match):
        with pytest.raises(InvalidInputError, match=match):
            lagged_pairs(np.zeros((10, 1)), np.zeros(n_targets), 3, washout)


class TestFitPredict:
    def test_realizable_target_interpolates(self):
        rng = np.random.default_rng(1)
        inputs = rng.uniform(-1, 1, size=(60, 2))
        table = build_exponent_table(2, 2, 2)
        w_true = rng.normal(size=(table.n_features, 1))
        X = ngrc_features(delay_vectors(inputs, 2), table)
        targets = np.vstack([np.zeros((1, 1)), X @ w_true])
        model = fit_ngrc(inputs, targets, tau=2, p=2, lam_reg=1e-12)
        residual = predict_ngrc(model, delay_vectors(inputs, 2)) - targets[1:]
        assert np.max(np.abs(residual)) <= 1e-8

    def test_lorenz_style_config_shapes(self):
        rng = np.random.default_rng(2)
        inputs = rng.normal(size=(200, 3))
        targets = rng.normal(size=(200, 3))
        model = fit_ngrc(inputs, targets, tau=3, p=2, lam_reg=1e-7)
        assert model.weights.shape == (feature_dim(3, 3, 2), 3)
        out = predict_ngrc(model, delay_vectors(inputs, 3))
        assert out.shape == (198, 3)

    def test_row_permutation_leaves_weights(self):
        rng = np.random.default_rng(3)
        inputs = rng.uniform(-1, 1, size=(50, 1))
        targets = rng.uniform(-1, 1, size=(50, 1))
        model = fit_ngrc(inputs, targets, tau=2, p=2, lam_reg=1e-3)
        # permute the embedded rows directly through the primal solver
        from kernelcast.linsolve import solve_ridge_primal

        X = ngrc_features(delay_vectors(inputs, 2), model.table)
        Y = targets[1:]
        perm = rng.permutation(X.shape[0])
        w_perm = solve_ridge_primal(X[perm], Y[perm], 1e-3).coefficients
        np.testing.assert_allclose(model.weights, w_perm, rtol=1e-10,
                                   atol=1e-12)

    def test_underdetermined_warns(self):
        rng = np.random.default_rng(4)
        inputs = rng.normal(size=(6, 2))
        targets = rng.normal(size=(6, 1))
        with pytest.warns(UserWarning, match="underdetermined"):
            fit_ngrc(inputs, targets, tau=2, p=3, lam_reg=1e-6)

    def test_serialization_round_trip(self):
        rng = np.random.default_rng(5)
        inputs = rng.normal(size=(40, 2))
        targets = rng.normal(size=(40, 2))
        model = fit_ngrc(inputs, targets, tau=2, p=2, lam_reg=1e-4)
        clone = NgrcModel.from_dict(json.loads(json.dumps(model.to_dict())))
        np.testing.assert_array_equal(clone.weights, model.weights)
        assert (clone.table.tau, clone.table.d) == (model.table.tau,
                                                    model.table.d) == (2, 2)
        v = rng.normal(size=4)
        np.testing.assert_allclose(predict_ngrc(clone, v),
                                   predict_ngrc(model, v), rtol=0, atol=0)
