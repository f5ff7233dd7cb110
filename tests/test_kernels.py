import json
import math

import numpy as np
import pytest
from scipy.linalg import lapack

from kernelcast import kernels, linsolve
from kernelcast.errors import DependencyError, InvalidInputError, NormBoundError
from kernelcast.kernels import (
    KernelModel,
    NgrcKernelParams,
    PolyKernelParams,
    VolterraParams,
    fit_kernel_model,
    ngrc_gram,
    poly_gram,
    predict_kernel,
    volterra_gram,
    volterra_kernel_truncated,
)
from kernelcast.ngrc import build_exponent_table, delay_vectors, ngrc_features

LORENZ_VOLT = (0.3 * math.sqrt(1 - 0.09), 0.3)
MG_VOLT = (0.9 * math.sqrt(1 - 0.09), 0.3)
BEKK_VOLT = (0.72, 0.6)
TABLE_PARAMS = (LORENZ_VOLT, MG_VOLT, BEKK_VOLT)

# Recursion and series agree on exact values; computed values carry a few
# ulps of float64 noise on top of the analytic tail bound.
EPS_FLOOR = 1e-13


def poly_kernel(u, v, params: PolyKernelParams) -> float:
    """Oracle: ``(c + u'v)^p`` for two delay windows."""
    u, v = np.asarray(u, dtype=np.float64), np.asarray(v, dtype=np.float64)
    return float((params.c + u @ v) ** params.p)


def ngrc_kernel(u, v, table) -> float:
    """Oracle: the dot product of two NG-RC feature vectors."""
    return float(ngrc_features(u, table) @ ngrc_features(v, table))


class TestPolyKernel:
    def test_zero_inputs(self):
        p = PolyKernelParams(p=2, tau=1)
        assert poly_kernel(np.zeros(2), np.zeros(2), p) == 1.0

    def test_hand_value(self):
        p = PolyKernelParams(p=2, tau=1)
        assert poly_kernel(np.array([1.0, 2.0]), np.array([3.0, 4.0]), p) == 144.0

    def test_example_expansion_scalar_two_lags(self):
        # (1 + z_i z_j + z_{i-1} z_{j-1})^2 expanded into monomials
        rng = np.random.default_rng(0)
        p = PolyKernelParams(p=2, tau=2)
        for _ in range(20):
            zi, zi1, zj, zj1 = rng.normal(size=4)
            u = np.array([zi1, zi])  # oldest lag first
            v = np.array([zj1, zj])
            expected = (1 + 2 * zi * zj + 2 * zi1 * zj1 + zi**2 * zj**2
                        + zi1**2 * zj1**2 + 2 * zi * zj * zi1 * zj1)
            assert poly_kernel(u, v, p) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("c", [0.7, 2.5])
    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_feature_scale_reproduces_kernel(self, p, c):
        # (c + u'v)^p = (F(u) s) . (F(v) s) on the NG-RC monomials
        rng = np.random.default_rng(10 * p)
        params = PolyKernelParams(p=p, tau=2, c=c)
        table = build_exponent_table(2, 2, p)
        s = params.feature_scale(table)
        for _ in range(10):
            u, v = rng.uniform(-1, 1, size=(2, 4))
            rhs = float((ngrc_features(u, table) * s)
                        @ (ngrc_features(v, table) * s))
            assert poly_kernel(u, v, params) == pytest.approx(rhs, rel=1e-12)

    def test_invalid_params(self):
        with pytest.raises(InvalidInputError):
            PolyKernelParams(p=0, tau=1)
        with pytest.raises(InvalidInputError):
            PolyKernelParams(p=2, tau=1, c=0.0)


class TestNgrcKernel:
    def test_zero_inputs_constant_survives(self):
        table = build_exponent_table(2, 1, 2)
        assert ngrc_kernel(np.zeros(2), np.zeros(2), table) == 1.0

    def test_example_expansion(self):
        rng = np.random.default_rng(1)
        table = build_exponent_table(2, 1, 2)
        for _ in range(20):
            zi, zi1, zj, zj1 = rng.normal(size=4)
            u = np.array([zi1, zi])
            v = np.array([zj1, zj])
            expected = (1 + zi * zj + zi1 * zj1 + zi**2 * zj**2
                        + zi1 * zj1 * zi * zj + zi1**2 * zj1**2)
            assert ngrc_kernel(u, v, table) == pytest.approx(expected,
                                                             rel=1e-12)

    def test_multinomial_weight_relation_to_poly(self):
        # (c + u'v)^p equals the weighted feature product with multinomial
        # coefficients sqrt(p! / (k0! k1! ...)) on each monomial.
        rng = np.random.default_rng(2)
        p_deg, width = 3, 3
        table = build_exponent_table(3, 1, p_deg)
        weights = np.empty(table.n_features)
        for k, row in enumerate(table.rows):
            k0 = p_deg - int(row.sum())
            denom = math.factorial(k0) * math.prod(
                math.factorial(int(e)) for e in row)
            weights[k] = math.sqrt(math.factorial(p_deg) / denom)
        poly = PolyKernelParams(p=p_deg, tau=3)
        for _ in range(10):
            u = rng.normal(size=width)
            v = rng.normal(size=width)
            lhs = poly_kernel(u, v, poly)
            rhs = float((weights * ngrc_features(u, table))
                        @ (weights * ngrc_features(v, table)))
            assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_poly_vs_ngrc_prediction_gap_is_reported_not_asserted(self):
        # same monomial span, different feature weights: the two dual fits
        # may disagree under ridge; we only record the observed gap.
        rng = np.random.default_rng(3)
        inputs = rng.uniform(-1, 1, size=(40, 1))
        targets = rng.uniform(-1, 1, size=(40, 1))
        lam = 1e-4
        poly = fit_kernel_model(inputs, targets,
                                PolyKernelParams(p=2, tau=2), lam)
        ngrc = fit_kernel_model(inputs, targets,
                                NgrcKernelParams(p=2, tau=2, d=1), lam)
        windows = delay_vectors(rng.uniform(-1, 1, size=(12, 1)), 2)
        gap = np.max(np.abs(predict_kernel(poly, windows)
                            - predict_kernel(ngrc, windows)))
        assert np.isfinite(gap)
        print(f"poly-vs-ngrc ridge prediction gap at lam={lam}: {gap:.3e}")


class TestVolterraParams:
    def test_constraints(self):
        with pytest.raises(InvalidInputError):
            VolterraParams(lam=0.5, theta=1.1, M=1.0)
        with pytest.raises(InvalidInputError):
            VolterraParams(lam=0.96, theta=0.3, M=1.0)  # lam too large
        with pytest.raises(InvalidInputError):
            VolterraParams(lam=0.0, theta=0.3)
        p = VolterraParams(lam=0.5, theta=0.5)
        assert p.border == pytest.approx(1.0 / 0.75)

    @pytest.mark.parametrize("theta, M", [
        (1e308, 1.0), (0.3, 1e308),
        (1e200, 1e-250),  # theta^2 overflows although theta M < 1
    ])
    def test_overflowing_bound_is_outside_it(self, theta, M):
        with pytest.raises(InvalidInputError, match=r"theta\^2 M\^2 < 1"):
            VolterraParams(lam=0.5, theta=theta, M=M)


class TestVolterraGram:
    def test_zero_inputs_chain(self):
        p = VolterraParams(lam=0.5, theta=0.5)
        g = volterra_gram(np.zeros((6, 2)), p).values
        # zero inner products: K = 1 + lam^2 * K_prev, from border 1/(1-theta^2)
        expect = p.border
        for depth in range(1, 7):
            expect = 1.0 + 0.25 * expect
            np.testing.assert_allclose(np.diag(g, 0)[depth - 1], expect,
                                       rtol=1e-14)
        # fixed point of the chain is 1/(1-lam^2)
        assert abs(g[-1, -1] - 4.0 / 3.0) < 1e-3

    def test_single_input_hand_value(self):
        p = VolterraParams(lam=0.5, theta=0.5)
        g = volterra_gram(np.array([[1.0]]), p).values
        assert g[0, 0] == pytest.approx(1 + 0.25 * (1 / 0.75) / 0.75, rel=1e-14)

    def test_constant_series_fixed_point(self):
        p = VolterraParams(lam=0.5, theta=0.5)
        g = volterra_gram(np.ones((80, 1)), p).values
        assert g[-1, -1] == pytest.approx(1.5, rel=1e-12)

    def test_symmetry_and_entries_at_least_one(self):
        rng = np.random.default_rng(4)
        for lam, theta in TABLE_PARAMS:
            p = VolterraParams(lam, theta)
            Z = rng.normal(size=(30, 3))
            Z /= np.linalg.norm(Z, axis=1).max()
            g = volterra_gram(Z, p).values
            assert np.max(np.abs(g - g.T)) <= 1e-10 * np.max(np.abs(g))
            assert np.all(g >= 1.0)

    def test_numerically_psd(self):
        rng = np.random.default_rng(5)
        p = VolterraParams(*MG_VOLT)
        Z = rng.normal(size=(64, 2))
        Z /= np.linalg.norm(Z, axis=1).max()
        g = volterra_gram(Z, p).values
        evals = np.linalg.eigvalsh(g)
        assert evals.min() >= -1e-8 * np.trace(g)

    def test_norm_bound_violation(self):
        p = VolterraParams(lam=0.5, theta=0.5, M=1.0)
        with pytest.raises(NormBoundError) as err:
            volterra_gram(np.array([[0.5], [1.5]]), p)
        assert err.value.position == 1

    def test_denominator_floor_checked_without_norm_check(self, monkeypatch):
        import kernelcast.kernels as kernels_module

        monkeypatch.setattr(kernels_module, "_check_sample_norms",
                            lambda *args, **kwargs: None)
        p = VolterraParams(lam=0.5, theta=0.5, M=1.0)
        with pytest.raises(InvalidInputError, match="denominator"):
            volterra_gram(np.array([[0.5], [1.5]]), p)


class TestVolterraExtension:
    @staticmethod
    def stepped(train, test, p):
        """Column j: the row that ``step(test[j])`` returns after a sweep
        over ``train`` and the steps before it."""
        ext = kernels.VolterraExtension(train, p)
        for _ in ext.sweep():
            pass
        return np.column_stack([ext.step(z).copy() for z in test])

    def test_zero_test_inputs_reproduce_zero_chain(self):
        p = VolterraParams(lam=0.5, theta=0.5)
        Z = np.zeros((4, 1))
        g = volterra_gram(np.zeros((9, 1)), p).values
        ext = self.stepped(np.zeros((5, 1)), Z, p)
        # the chain only depends on depth; column j of the extension matches
        # the corresponding diagonal entries of a longer zero-input Gram
        for j in range(4):
            np.testing.assert_allclose(ext[:, j], g[:5, 5 + j], rtol=1e-14)

    def test_single_step_hand_value(self):
        p = VolterraParams(lam=0.5, theta=0.5)
        ext = self.stepped(np.array([[1.0]]), np.array([[0.0]]), p)
        assert ext[0, 0] == pytest.approx(1 + 0.25 * (1 / 0.75), rel=1e-14)

    def test_matches_truncated_series(self):
        rng = np.random.default_rng(6)
        p = VolterraParams(*LORENZ_VOLT)
        Z = rng.normal(size=(8, 2))
        Z /= np.linalg.norm(Z, axis=1).max() / 0.9
        train, test = Z[:5], Z[5:]
        ext = self.stepped(train, test, p)
        for i in range(1, 6):
            for j in range(1, 4):
                depth = min(i, 5 + j)
                a = Z[i - depth : i]
                b = Z[5 + j - depth : 5 + j]
                val, tail = volterra_kernel_truncated(a, b, p, depth)
                assert abs(ext[i - 1, j - 1] - val) <= tail + EPS_FLOOR


    @staticmethod
    def samples(n, seed):
        Z = np.random.default_rng(seed).normal(size=(n, 3))
        return Z / np.linalg.norm(Z, axis=1).max()

    def test_step_continues_a_sweep(self):
        # the row of Z[k] after a sweep over Z[:k] is the last row of a
        # sweep over Z[:k+1], bit for bit
        p = VolterraParams(*LORENZ_VOLT)
        Z = self.samples(40, 23)
        ext = kernels.VolterraExtension(Z[:-1], p)
        for _ in ext.sweep():
            pass
        *_, last = kernels.VolterraExtension(Z, p).sweep()
        np.testing.assert_array_equal(ext.step(Z[-1]), last[:-1])

    def test_sweep_reruns_from_the_border(self):
        p = VolterraParams(*MG_VOLT)
        Z = self.samples(30, 24)
        ext = kernels.VolterraExtension(Z, p)
        rows = linsolve.GramRows(25, lambda: ext.sweep(5))
        first = rows.full()
        np.testing.assert_array_equal(rows.full(), first)
        np.testing.assert_array_equal(
            first, volterra_gram(Z, p).values[5:, 5:])

    def test_huge_step_is_projected_onto_the_ball(self):
        # the sample's sum of squares overflows; it lands at norm M on its
        # own ray, not at the origin
        p = VolterraParams(*LORENZ_VOLT)
        Z = self.samples(20, 26)
        far, edge, origin = (self.stepped(Z, np.array([z]), p)[:, 0]
                             for z in ([1e200, 0.0, 0.0], [p.M, 0.0, 0.0],
                                       [0.0, 0.0, 0.0]))
        np.testing.assert_allclose(far, edge, rtol=1e-14)
        assert not np.allclose(far, origin, rtol=1e-6)

    def test_huge_training_sample_names_its_norm(self):
        p = VolterraParams(*LORENZ_VOLT)
        Z = np.array([[0.1, 0.0, 0.0], [1e200, 0.0, 0.0]])
        with pytest.raises(NormBoundError, match=r"sample 1 has norm 1e\+200"):
            kernels.VolterraExtension(Z, p)

    def test_step_allocates_no_row(self, peak_bytes):
        n = 4900
        p = VolterraParams(*LORENZ_VOLT)
        Z = self.samples(n, 25)
        ext = kernels.VolterraExtension(Z, p, np.full(n, p.border))
        ext.step(Z[0])
        z = Z[1].copy()
        assert peak_bytes(lambda: ext.step(z)) < 8 * n


class TestTruncatedSeries:
    def test_zero_sequences_geometric(self):
        p = VolterraParams(lam=0.5, theta=0.5)
        val, tail = volterra_kernel_truncated(np.zeros((3, 1)),
                                              np.zeros((3, 1)), p, 500)
        assert val == pytest.approx(4.0 / 3.0, rel=1e-12)
        assert tail < 1e-100

    def test_constant_ones_geometric(self):
        p = VolterraParams(lam=0.5, theta=0.5)
        val, _ = volterra_kernel_truncated(np.ones((400, 1)),
                                           np.ones((400, 1)), p, 400)
        assert val == pytest.approx(1.5, rel=1e-10)

    def test_recursion_within_tail_bound(self):
        rng = np.random.default_rng(7)
        for lam, theta in TABLE_PARAMS:
            p = VolterraParams(lam, theta)
            Z = rng.normal(size=(12, 3))
            Z /= np.linalg.norm(Z, axis=1).max() / 0.9
            g = volterra_gram(Z, p).values
            for i in range(1, 13):
                for j in range(i, 13):
                    depth = min(i, j)
                    val, tail = volterra_kernel_truncated(
                        Z[i - depth : i], Z[j - depth : j], p, depth)
                    assert abs(g[i - 1, j - 1] - val) <= tail + EPS_FLOOR

    def test_monotone_lag_decay(self):
        # successive truncations shrink by at most the per-lag weight bound
        rng = np.random.default_rng(8)
        p = VolterraParams(*BEKK_VOLT)
        a = rng.normal(size=(10, 2))
        a /= np.linalg.norm(a, axis=1).max()
        b = rng.normal(size=(10, 2))
        b /= np.linalg.norm(b, axis=1).max()
        rho = p.lam**2 / p.denominator_floor
        prev_val, _ = volterra_kernel_truncated(a, b, p, 10)
        bound = rho**11
        for tau_max in range(11, 18):
            val, _ = volterra_kernel_truncated(a, b, p, tau_max)
            assert abs(val - prev_val) <= bound * (1 + 1e-12) + EPS_FLOOR
            bound *= rho
            prev_val = val

    def test_shift_stationarity(self):
        # the series value depends only on the suffixes, so left zero
        # padding leaves the oracle untouched ...
        rng = np.random.default_rng(9)
        p = VolterraParams(*MG_VOLT)
        a = rng.normal(size=(6, 1))
        a /= np.abs(a).max() / 0.9
        b = rng.normal(size=(6, 1))
        b /= np.abs(b).max() / 0.9
        base, _ = volterra_kernel_truncated(a, b, p, 40)
        for shift in (1, 4, 9):
            za = np.vstack([np.zeros((shift, 1)), a])
            zb = np.vstack([np.zeros((shift, 1)), b])
            shifted, _ = volterra_kernel_truncated(za, zb, p, 40)
            assert abs(shifted - base) <= EPS_FLOOR

    def test_gram_shift_stationarity(self):
        # ... and the recursive Gram, whose border transient does depend on
        # depth, moves by less than the tail bound when the sequence is
        # shifted right by zero blocks
        rng = np.random.default_rng(19)
        for lam, theta in TABLE_PARAMS:
            p = VolterraParams(lam, theta)
            Z = rng.normal(size=(8, 2))
            Z /= np.linalg.norm(Z, axis=1).max() / 0.9
            g = volterra_gram(Z, p).values
            for shift in (1, 3, 7):
                padded = np.vstack([np.zeros((shift, 2)), Z])
                gs = volterra_gram(padded, p).values
                for i in range(1, 9):
                    for j in range(1, 9):
                        _, tail = volterra_kernel_truncated(
                            Z[i - min(i, j): i], Z[j - min(i, j): j], p,
                            min(i, j))
                        moved = abs(gs[i + shift - 1, j + shift - 1]
                                    - g[i - 1, j - 1])
                        assert moved <= tail + EPS_FLOOR

    def test_preconditions(self):
        p = VolterraParams(lam=0.5, theta=0.5)
        with pytest.raises(InvalidInputError):
            volterra_kernel_truncated(np.zeros((5, 1)), np.zeros((3, 1)), p, 4)


class TestKernelModels:
    def test_realizable_target_interpolates(self):
        rng = np.random.default_rng(10)
        inputs = rng.uniform(-1, 1, size=(50, 2))
        table = build_exponent_table(2, 2, 2)
        w = rng.normal(size=(table.n_features, 1))
        feats = ngrc_features(delay_vectors(inputs, 2), table)
        targets = np.vstack([np.zeros((1, 1)), feats @ w])
        model = fit_kernel_model(inputs, targets,
                                 NgrcKernelParams(p=2, tau=2, d=2), 1e-12)
        preds = predict_kernel(model, delay_vectors(inputs, 2))
        assert np.max(np.abs(preds - targets[1:])) <= 1e-8

    def test_predict_training_point_interpolation(self):
        rng = np.random.default_rng(11)
        inputs = rng.normal(size=(12, 2))
        inputs /= np.linalg.norm(inputs, axis=1).max()
        targets = rng.uniform(-1, 1, size=(12, 1))
        model = fit_kernel_model(inputs, targets, VolterraParams(0.6, 0.5),
                                 1e-12)
        # reproduce the kernel values of the last training point
        g = volterra_gram(inputs, VolterraParams(0.6, 0.5)).values
        pred = g[-1, :] @ model.alpha
        assert pred == pytest.approx(targets[-1, 0], abs=1e-6)

    def test_volterra_washout_trims_rows(self):
        rng = np.random.default_rng(12)
        inputs = rng.normal(size=(30, 1))
        inputs /= np.abs(inputs).max()
        targets = rng.normal(size=(30, 1))
        model = fit_kernel_model(inputs, targets, VolterraParams(0.5, 0.5),
                                 1e-6, washout=10)
        assert model.alpha.shape == (20, 1)
        preds = predict_kernel(model, rng.normal(size=(3, 1)) * 0.5)
        assert preds.shape == (3, 1)

    def test_washout_too_large(self):
        with pytest.raises(InvalidInputError):
            fit_kernel_model(np.zeros((5, 1)), np.zeros((5, 1)),
                             VolterraParams(0.5, 0.5), 1e-6, washout=5)

    def test_poly_model_round_trip(self):
        rng = np.random.default_rng(13)
        inputs = rng.uniform(-1, 1, size=(25, 1))
        targets = rng.uniform(-1, 1, size=(25, 2))
        model = fit_kernel_model(inputs, targets, PolyKernelParams(p=2, tau=3),
                                 1e-5)
        clone = KernelModel.from_dict(json.loads(json.dumps(model.to_dict())))
        windows = delay_vectors(rng.uniform(-1, 1, size=(8, 1)), 3)
        np.testing.assert_allclose(predict_kernel(clone, windows),
                                   predict_kernel(model, windows), rtol=1e-12)

    def test_volterra_model_round_trip(self):
        rng = np.random.default_rng(14)
        inputs = rng.normal(size=(20, 2))
        inputs /= np.linalg.norm(inputs, axis=1).max()
        targets = rng.normal(size=(20, 1))
        model = fit_kernel_model(inputs, targets, VolterraParams(0.5, 0.4),
                                 1e-6, washout=3)
        clone = KernelModel.from_dict(json.loads(json.dumps(model.to_dict())))
        new = rng.normal(size=(4, 2)) * 0.4
        np.testing.assert_allclose(predict_kernel(clone, new),
                                   predict_kernel(model, new), rtol=1e-12)

    def test_extension_positions_continue_sequence(self):
        # an appended sample outside the ball ||z|| <= M is projected onto
        # it, z * M / ||z||, and counted
        p = VolterraParams(0.5, 0.5)
        inputs = np.linspace(-0.5, 0.5, 6)[:, None]
        model = fit_kernel_model(inputs, np.zeros((6, 1)), p, 1e-6)
        ext = model.extension()
        col = ext.step(np.array([2.0])).copy()
        assert ext.projected == 1
        fresh = model.extension()
        np.testing.assert_array_equal(col, fresh.step(np.array([p.M])))
        assert fresh.projected == 0
        ext.step(np.array([0.5]))
        assert ext.projected == 1


def test_ngrc_gram_matches_pairwise_kernel():
    rng = np.random.default_rng(15)
    table = build_exponent_table(2, 1, 3)
    U = rng.normal(size=(7, 2))
    V = rng.normal(size=(5, 2))
    G = ngrc_gram(U, V, table)
    for i in range(7):
        for j in range(5):
            assert G[i, j] == pytest.approx(ngrc_kernel(U[i], V[j], table),
                                            rel=1e-12)


def test_poly_gram_matches_pairwise_kernel():
    rng = np.random.default_rng(16)
    params = PolyKernelParams(p=3, tau=1)
    U = rng.normal(size=(6, 4))
    G = poly_gram(U, U, params)
    for i in range(6):
        for j in range(6):
            assert G[i, j] == pytest.approx(poly_kernel(U[i], U[j], params),
                                            rel=1e-12)


class TestVolterraModelDocument:
    @staticmethod
    def fitted(n, seed=20, washout=0):
        rng = np.random.default_rng(seed)
        inputs = rng.normal(size=(n, 3))
        inputs /= np.linalg.norm(inputs, axis=1).max()
        targets = rng.normal(size=(n, 2))
        return fit_kernel_model(inputs, targets, VolterraParams(*LORENZ_VOLT),
                                1e-6, washout=washout)

    def test_document_carries_last_column(self):
        model = self.fitted(30)
        doc = model.to_dict()
        assert doc["schema"] == "kernel-model/3"
        assert len(doc["last_column"]) == 30
        gram = volterra_gram(model.train_inputs, model.kernel).values
        assert doc["last_column"] == gram[:, -1].tolist()

    def test_schema_1_and_2_documents_ask_for_refit(self):
        doc = self.fitted(40, washout=5).to_dict()
        # kernel-model/1 had no last column; /2 stored it with its border
        # and the ridge strength
        old = dict(doc, schema="kernel-model/1")
        del old["last_column"]
        with pytest.raises(DependencyError, match="refit"):
            KernelModel.from_dict(old)
        border = VolterraParams(*LORENZ_VOLT).border
        old = dict(doc, schema="kernel-model/2", lam_reg=1e-6,
                   last_column=[border, *doc["last_column"]])
        with pytest.raises(DependencyError, match="refit"):
            KernelModel.from_dict(old)

    def test_schema_3_without_last_column_rejected(self):
        doc = self.fitted(10).to_dict()
        del doc["last_column"]
        with pytest.raises(InvalidInputError, match="last_column"):
            KernelModel.from_dict(doc)

    def test_load_builds_no_gram(self, peak_bytes):
        n = 1500
        doc = self.fitted(n).to_dict()
        peak = peak_bytes(lambda: KernelModel.from_dict(doc))
        assert peak < 0.1 * 8 * n * n

    def test_fit_peak_memory(self, peak_bytes):
        n = 1500
        rng = np.random.default_rng(22)
        inputs = rng.normal(size=(n, 3))
        inputs /= np.linalg.norm(inputs, axis=1).max()
        targets = rng.normal(size=(n, 3))
        peak = peak_bytes(lambda: fit_kernel_model(
            inputs, targets, VolterraParams(*LORENZ_VOLT), 1e-6, washout=100))
        assert peak <= 0.6 * 8 * n * n

    def test_gram_peak_memory(self, peak_bytes):
        n = 1500
        inputs = np.random.default_rng(23).normal(size=(n, 3))
        inputs /= np.linalg.norm(inputs, axis=1).max()
        peak = peak_bytes(lambda: volterra_gram(inputs,
                                                VolterraParams(*LORENZ_VOLT)))
        assert peak <= 1.1 * 8 * n * n


class TestSelfGramsInPlace:
    """Fits build one Gram array: a packed triangle on the Cholesky route,
    an exactly symmetric n x n array on the eigendecomposition route."""

    @staticmethod
    def windows(n, tau=2, seed=24):
        inputs = np.random.default_rng(seed).normal(size=(n, 3))
        return inputs / np.linalg.norm(inputs, axis=1).max(), \
            delay_vectors(inputs, tau)

    def test_polynomial_fit_peak_memory(self, peak_bytes):
        n = 1500
        inputs, _ = self.windows(n)
        targets = np.random.default_rng(25).normal(size=(n, 3))
        peak = peak_bytes(lambda: fit_kernel_model(
            inputs, targets, PolyKernelParams(p=2, tau=2), 1e-6))
        assert peak <= 0.6 * 8 * n * n

    def test_volterra_gram_exactly_symmetric(self):
        inputs, _ = self.windows(300)
        for lam, theta in TABLE_PARAMS:
            K = volterra_gram(inputs, VolterraParams(lam, theta)).values
            assert np.array_equal(K, K.T)

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_poly_gram_exactly_symmetric(self, p):
        _, W = self.windows(300)
        K = poly_gram(W, W, PolyKernelParams(p=p, tau=2))
        assert np.array_equal(K, K.T)

    @pytest.mark.parametrize("n", [100, 3000])  # 2 and 47 row panels
    def test_ngrc_self_gram_exactly_symmetric(self, n):
        _, W = self.windows(n)
        table = build_exponent_table(2, 3, 2)
        K = ngrc_gram(W, W, table)
        assert np.array_equal(K, K.T)
        F = ngrc_features(W, table)
        np.testing.assert_allclose(K, F @ F.T, rtol=1e-12, atol=1e-12)

    def test_gram_in_row_panels(self, peak_bytes):
        # NgrcKernelParams(p=2, tau=2, d=3): 1499 x 28 features
        n = 1500
        _, W = self.windows(n)
        table = NgrcKernelParams(p=2, tau=2, d=3).table()
        F = ngrc_features(W, table)
        K = ngrc_gram(W, W, table)
        assert np.array_equal(K, K.T)
        # a panel may sum in another order than F @ F.T: the float64
        # dot-product error bound, gamma_k |F| |F|' with k = 28 terms
        k = F.shape[1]
        bound = k * np.finfo(np.float64).eps * (np.abs(F) @ np.abs(F).T)
        assert np.all(np.abs(K - F @ F.T) <= bound)
        W2 = W[::-1][:700].copy()
        F2 = ngrc_features(W2, table)
        assert np.array_equal(ngrc_gram(W, W2, table), F @ F2.T)
        m = W.shape[0]
        assert peak_bytes(lambda: ngrc_gram(W, W, table)) <= 1.2 * 8 * m * m

    def test_pair_gram_matches_self_gram(self):
        # V a distinct array with the same rows: the features are mapped
        # twice, same values up to BLAS rounding
        _, W = self.windows(200)
        table = build_exponent_table(2, 3, 2)
        np.testing.assert_allclose(ngrc_gram(W, W.copy(), table),
                                   ngrc_gram(W, W, table), rtol=1e-13)


def _fit_spying_on_gram(monkeypatch, *args, **kwargs):
    """Fit, and return the model plus the packed Gram the fit solved with."""
    seen = []

    def spy(K, Y, lam_reg):
        seen.append(K.packed())
        return linsolve.solve_ridge_gram(K, Y, lam_reg)

    monkeypatch.setattr(kernels, "solve_ridge_gram", spy)
    model = fit_kernel_model(*args, **kwargs)
    return model, seen[0]


def _dtrttf(K):
    return lapack.dtrttf(np.asfortranarray(K), transr="N", uplo="U")[0]


class TestPackedGram:
    """The fit's packed Gram is the full Gram's triangle, bit for bit."""

    @staticmethod
    def inputs(n, seed=26):
        rng = np.random.default_rng(seed)
        Z = rng.normal(size=(n, 3))
        return Z / np.linalg.norm(Z, axis=1).max(), rng.normal(size=(n, 2))

    @pytest.mark.parametrize("n, washout", [(300, 0), (301, 0), (400, 100),
                                            (401, 100)])
    def test_volterra(self, monkeypatch, n, washout):
        Z, Y = self.inputs(n)
        params = VolterraParams(*LORENZ_VOLT)
        _, packed = _fit_spying_on_gram(monkeypatch, Z, Y, params, 1e-6,
                                        washout=washout)
        full = volterra_gram(Z, params).values[washout:, washout:]
        assert np.array_equal(packed, _dtrttf(full))

    @pytest.mark.parametrize("n, kernel", [
        (300, PolyKernelParams(p=3, tau=2)),
        (301, PolyKernelParams(p=3, tau=2)),
        # 294 x 28 and 894 x 84 features, at an even and an odd n
        (300, NgrcKernelParams(p=2, tau=2, d=3)),
        (301, NgrcKernelParams(p=2, tau=2, d=3)),
        (900, NgrcKernelParams(p=3, tau=2, d=3)),
        (901, NgrcKernelParams(p=3, tau=2, d=3))])
    def test_lagged(self, monkeypatch, n, kernel):
        Z, Y = self.inputs(n)
        _, packed = _fit_spying_on_gram(monkeypatch, Z, Y, kernel, 1e-6,
                                        washout=5)
        W = delay_vectors(Z, 2)[5:]
        full = poly_gram(W, W, kernel) if isinstance(kernel, PolyKernelParams) \
            else ngrc_gram(W, W, kernel.table())
        assert np.array_equal(packed, _dtrttf(full))

    @pytest.mark.parametrize("kernel, washout", [
        (VolterraParams(*LORENZ_VOLT), 100), (PolyKernelParams(p=2, tau=2), 0)])
    def test_fit_alpha_matches_full_k_solve(self, gram_rows, kernel,
                                            washout):
        Z, Y = self.inputs(linsolve.GRAM_EIGH_LIMIT + 140)
        model = fit_kernel_model(Z, Y, kernel, 1e-6, washout=washout)
        if model.is_volterra:
            K = volterra_gram(Z, kernel).values[washout:, washout:]
            Y_eff = Y[washout:]
        else:
            K = poly_gram(model.train_windows, model.train_windows, kernel)
            Y_eff = Y[kernel.tau - 1:]
        sol = linsolve.solve_ridge_gram(gram_rows(K), Y_eff, 1e-6)
        assert model.solution.method == sol.method == "cholesky"
        assert model.solution.storage == "rfp"
        assert np.array_equal(model.alpha, sol.coefficients)

    def test_cholesky_to_eigh_fallback_matches_eigh_on_full_k(self):
        rng = np.random.default_rng(20)
        Z = rng.normal(size=(1200, 3))
        Z /= np.linalg.norm(Z, axis=1).max()
        Y = rng.normal(size=(1200, 2))
        params = VolterraParams(*LORENZ_VOLT)
        model = fit_kernel_model(Z, Y, params, 1e-10)
        assert model.solution.method == "eigh"
        assert model.solution.storage == "full"
        assert model.solution.modes_cut > 0
        K = volterra_gram(Z, params).values
        alpha, _, cut = linsolve._gram_eigh_solve(K, Y, 1e-10)
        assert np.array_equal(model.alpha, alpha)
        assert cut == model.solution.modes_cut
