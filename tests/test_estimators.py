import json

import numpy as np
import pytest

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
