import json

import numpy as np
import pytest

from kernelcast import preprocess
from kernelcast.datasets import load_csv
from kernelcast.errors import InvalidInputError
from kernelcast.estimators import (
    INPUT_TRANSFORMS,
    REQUIRED_HYPER,
    estimator_from_dict,
    estimator_to_dict,
    fit_estimator,
    fit_path_estimator,
)
from kernelcast.forecast import path_continue
from kernelcast.kernels import PolyKernelParams, fit_kernel_model, predict_kernel
from kernelcast.ngrc import NgrcModel, delay_vectors, predict_ngrc

HYPER = {"ngrc": {"tau": 2, "p": 2, "lam_reg": 1e-6},
         "ngrc-kernel": {"tau": 2, "p": 2, "lam_reg": 1e-6},
         "polynomial": {"tau": 2, "p": 2, "lam_reg": 1e-6},
         "volterra": {"lam": 0.5, "theta": 0.3, "lam_reg": 1e-6,
                      "washout": 5}}


def short_series(n=60):
    t = 0.2 * np.arange(n)
    return np.column_stack([np.sin(t), np.cos(1.3 * t)])


class TestKinds:
    def test_every_kind_declared_in_both_tables(self):
        assert set(REQUIRED_HYPER) == set(INPUT_TRANSFORMS) == set(HYPER)
        for kind, hyper in HYPER.items():
            assert set(REQUIRED_HYPER[kind]) <= set(hyper)

    @pytest.mark.parametrize("kind", sorted(HYPER))
    def test_every_kind_fits_and_rolls_out(self, kind):
        est, seed = fit_path_estimator(kind, HYPER[kind], short_series())
        assert est.kind == kind and seed.shape[0] == est.tau
        run = path_continue(est, seed, 5)
        assert not run.truncated and run.predicted.shape == (5, 2)
        assert np.all(np.isfinite(run.predicted))

    @pytest.mark.parametrize("kind", sorted(HYPER))
    def test_rollout_reads_only_the_last_tau_seed_rows(self, kind):
        series = short_series()
        est, seed = fit_path_estimator(kind, HYPER[kind], series)
        runs = [path_continue(est, s, 8).predicted for s in (seed, series[-4:])]
        assert np.array_equal(runs[0], runs[1])

    @pytest.mark.parametrize("washout", [3, 10])
    def test_ngrc_washout_matches_its_kernel_dual(self, washout):
        rng = np.random.default_rng(8)
        X = rng.uniform(-1, 1, (60, 2))
        Y = rng.uniform(-1, 1, (60, 2))
        hyper = {**HYPER["ngrc"], "washout": washout}
        primal = fit_estimator("ngrc", hyper, X, Y)
        dual = fit_estimator("ngrc-kernel", hyper, X, Y)
        for test_inputs in (X, rng.uniform(-1, 1, (12, 2))):
            a = primal.open_loop(test_inputs)
            b = dual.open_loop(test_inputs)
            assert np.max(np.abs(a - b)) <= 1e-8 * max(1.0, np.max(np.abs(a)))

    def test_unknown_kind_rejected(self):
        series = short_series()
        with pytest.raises(InvalidInputError, match="unknown estimator kind"):
            fit_estimator("esn", {"lam_reg": 1.0}, series[:-1], series[1:])


class TestModelDocuments:
    @pytest.mark.parametrize("kind", ["ngrc", "polynomial", "volterra"])
    def test_preprocessing_echo_of_older_documents_is_ignored(self, kind):
        """Documents written while models echoed their preprocessing carry
        ``model.preprocessing``; they load and forecast bit for bit."""
        est, seed = fit_path_estimator(kind, HYPER[kind], short_series())
        doc = json.loads(json.dumps(estimator_to_dict(est)))
        assert "preprocessing" not in doc["model"]
        older = json.loads(json.dumps(doc))
        older["model"]["preprocessing"] = {
            "inputs": doc["input_specs"], "outputs": doc["output_specs"]}
        runs = [path_continue(estimator_from_dict(d), seed, 8).predicted
                for d in (doc, older)]
        assert np.array_equal(runs[0], runs[1])
        assert np.array_equal(runs[0], path_continue(est, seed, 8).predicted)


class TestPolynomialRoute:
    """The polynomial kernel is fitted in its explicit feature space when
    its N monomials are no more than its n embedded rows."""

    HYPER = {"tau": 1, "p": 2, "lam_reg": 1e-3}  # N = 6 monomials of d = 2

    def fit(self, n):
        series = short_series(n + 1)
        return fit_estimator("polynomial", self.HYPER, series[:-1],
                             series[1:], share_output_pipeline=True)

    def test_n_equal_to_features_is_primal(self):
        est = self.fit(6)
        assert est.route == "primal" and est.features == 6
        assert estimator_to_dict(est)["model"]["schema"] == "ngrc-model/1"

    def test_one_feature_more_than_rows_is_dual(self):
        est = self.fit(5)
        assert est.route == "dual" and est.features == 6
        assert estimator_to_dict(est)["model"]["schema"] == "kernel-model/2"

    def test_shipped_mackey_glass_polynomial_stays_dual(
            self, mackey_glass_pipelines):
        # tau 17, p 4: N = 5985 monomials against n = 2983 windows
        out = mackey_glass_pipelines["mackey-glass-polynomial"]["a"]["dir"]
        doc = json.loads((out / "model.json").read_text())
        assert doc["estimator"]["model"]["schema"] == "kernel-model/2"

    @pytest.mark.parametrize("preset, family", [
        ("bekk-polynomial", "bekk"), ("lorenz-polynomial", "lorenz")])
    def test_primal_agrees_with_dual_on_shipped_inputs(self, request, preset,
                                                       family):
        out = request.getfixturevalue(f"{family}_pipelines")[preset]["a"]["dir"]
        est = estimator_from_dict(
            json.loads((out / "model.json").read_text())["estimator"])
        assert isinstance(est.model, NgrcModel)
        if family == "lorenz":
            V = load_csv(out / "train.csv")[0].values
            X_raw, Y_raw = V[:-1], V[1:]
        else:
            X_raw = load_csv(out / "train_inputs.csv")[0].values
            Y_raw = load_csv(out / "train_outputs.csv")[0].values
        X = preprocess.apply_pipeline(est.input_specs, X_raw)
        Y = preprocess.apply_pipeline(est.output_specs, Y_raw)
        h = est.hyper
        dual = fit_kernel_model(X, Y, PolyKernelParams(h["p"], h["tau"],
                                                       h.get("c", 1.0)),
                                h["lam_reg"])
        windows = delay_vectors(X, h["tau"])
        primal_pred = predict_ngrc(est.model, windows)
        dual_pred = predict_kernel(dual, windows)
        scale = np.max(np.abs(dual_pred))
        assert np.max(np.abs(primal_pred - dual_pred)) <= 1e-8 * scale
