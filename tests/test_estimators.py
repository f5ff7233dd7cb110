import json
import math
import re

import numpy as np
import pytest

from kernelcast import preprocess
from kernelcast.datasets import load_csv
from kernelcast.errors import (
    DependencyError,
    InvalidInputError,
    finite_array,
    numbers,
)
from kernelcast.estimators import (
    INPUT_TRANSFORMS,
    OPTIONAL_HYPER,
    REQUIRED_HYPER,
    estimator_from_dict,
    estimator_to_dict,
    fit_estimator,
    fit_task,
    hyper_value,
    int_in,
    positive,
)
from kernelcast.forecast import path_continue
from kernelcast.kernels import PolyKernelParams, fit_kernel_model, predict_kernel
from kernelcast.ngrc import NgrcModel, delay_vectors, predict_ngrc
from kernelcast.presets import PRESETS

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
        assert set(REQUIRED_HYPER) == set(INPUT_TRANSFORMS) == set(HYPER) \
            == set(OPTIONAL_HYPER)
        for kind, hyper in HYPER.items():
            assert set(REQUIRED_HYPER[kind]) <= set(hyper) \
                <= {*REQUIRED_HYPER[kind], *OPTIONAL_HYPER[kind]}

    @pytest.mark.parametrize("kind", sorted(HYPER))
    def test_every_kind_fits_and_rolls_out(self, kind):
        series = short_series()
        est = fit_task(kind, HYPER[kind], (series,))
        assert est.kind == kind
        run = path_continue(est, series, 5)
        assert not run.truncated and run.predicted.shape == (5, 2)
        assert np.all(np.isfinite(run.predicted))

    @pytest.mark.parametrize("kind", sorted(HYPER))
    def test_a_series_is_fitted_on_its_one_step_pairs(self, kind):
        series = short_series()
        est = fit_task(kind, HYPER[kind], (series,))
        pairs = fit_estimator(kind, HYPER[kind], series[:-1], series[1:],
                              outputs=None)
        assert est.output_specs is est.input_specs
        assert estimator_to_dict(est) == estimator_to_dict(pairs)

    def test_a_series_needs_three_samples(self):
        with pytest.raises(InvalidInputError, match="series too short"):
            fit_task("ngrc", HYPER["ngrc"], (short_series(2),))

    @pytest.mark.parametrize("kind, hyper, name", [
        ("ngrc", {"tau": 1, "p": 2}, "needs hyperparameter lam_reg"),
        ("ngrc", {"tau": 1, "p": 2, "lam_reg": 0.1, "washot": 3},
         "reads no hyperparameter washot"),
        ("volterra", {"lam": 0.5, "theta": 0.3, "lam_reg": 1e-6, "tau": 4},
         "reads no hyperparameter tau"),
    ])
    def test_hyperparameter_names_are_the_kinds(self, kind, hyper, name):
        with pytest.raises(InvalidInputError, match=f"^{kind} {name}$"):
            fit_task(kind, hyper, (short_series(50),))

    @pytest.mark.parametrize("kind", sorted(HYPER))
    def test_rollout_reads_only_the_last_tau_seed_rows(self, kind):
        series = short_series()
        est = fit_task(kind, HYPER[kind], (series,))
        runs = [path_continue(est, s, 8).predicted
                for s in (series[-est.tau:], series[-4:])]
        assert np.array_equal(runs[0], runs[1])

    @pytest.mark.parametrize("kind", sorted(HYPER))
    def test_open_loop_windows_start_from_the_history_given(self, kind):
        series = short_series()
        est = fit_task(kind, HYPER[kind], (series,))
        # a history whose tail is not the fit inputs'
        history = series[::-1][:10] + 0.25
        test_inputs = series[20:30]
        got = est.open_loop(history, test_inputs)
        if kind == "volterra":  # the whole sequence, none of the history
            assert np.array_equal(got, est.open_loop(series[:5], test_inputs))
            return
        rows = preprocess.apply_pipeline(
            est.input_specs, np.vstack([history[-1:], test_inputs]))
        windows = np.array([np.concatenate(rows[i:i + 2])
                            for i in range(test_inputs.shape[0])])
        predict = predict_ngrc if isinstance(est.model, NgrcModel) \
            else predict_kernel
        expected = preprocess.invert_pipeline(
            est.output_specs, predict(est.model, windows))
        assert np.array_equal(got, expected)
        assert not np.array_equal(got, est.open_loop(series[:-1],
                                                     test_inputs))

    @pytest.mark.parametrize("history, match", [
        (np.zeros((4, 3)), "^history has 3 columns, the model reads 2$"),
        (np.zeros((0, 2)), "^history must be a non-empty"),
    ])
    def test_open_loop_history_is_read_as_sample_rows(self, history, match):
        est = fit_task("ngrc", HYPER["ngrc"], (short_series(),))
        with pytest.raises(InvalidInputError, match=match):
            est.open_loop(history, short_series()[:5])

    @pytest.mark.parametrize("washout", [3, 10])
    def test_ngrc_washout_matches_its_kernel_dual(self, washout):
        rng = np.random.default_rng(8)
        X = rng.uniform(-1, 1, (60, 2))
        Y = rng.uniform(-1, 1, (60, 2))
        hyper = {**HYPER["ngrc"], "washout": washout}
        primal = fit_estimator("ngrc", hyper, X, Y)
        dual = fit_estimator("ngrc-kernel", hyper, X, Y)
        for test_inputs in (X, rng.uniform(-1, 1, (12, 2))):
            a = primal.open_loop(X, test_inputs)
            b = dual.open_loop(X, test_inputs)
            assert np.max(np.abs(a - b)) <= 1e-8 * max(1.0, np.max(np.abs(a)))

    @pytest.mark.parametrize("lam_reg", [1e-8, 1e-2])
    def test_ngrc_matches_its_rank_deficient_kernel_dual(self, lam_reg):
        # 299 windows, 15 monomials: the eigh route cuts the Gram's null
        # space
        rng = np.random.default_rng(9)
        X = rng.uniform(-1, 1, (300, 2))
        Y = rng.uniform(-1, 1, (300, 2))
        hyper = {**HYPER["ngrc"], "lam_reg": lam_reg}
        primal = fit_estimator("ngrc", hyper, X, Y)
        dual = fit_estimator("ngrc-kernel", hyper, X, Y)
        assert dual.model.solution.method == "eigh"
        assert dual.model.solution.modes_cut >= 299 - 15
        for test_inputs in (X, rng.uniform(-1, 1, (12, 2))):
            a = primal.open_loop(X, test_inputs)
            b = dual.open_loop(X, test_inputs)
            assert np.max(np.abs(a - b)) <= 1e-8 * max(1.0, np.max(np.abs(a)))

    def test_unknown_kind_rejected(self):
        series = short_series()
        with pytest.raises(InvalidInputError, match="unknown estimator kind"):
            fit_estimator("esn", {"lam_reg": 1.0}, series[:-1], series[1:])


class TestNumberReaders:
    """``int_in`` and ``positive``, the one integer rule and the one
    positive-number rule of every config reader and of ``hyper_value``."""

    def test_int_in_takes_whole_numbers_as_ints(self):
        for value in (3, 3.0, np.int64(3), np.float64(3.0)):
            got = int_in(1)(value)
            assert got == 3 and type(got) is int
        assert int_in(0)(10**30) == 10**30

    @pytest.mark.parametrize("value", [2.7, True, False, math.inf, math.nan,
                                       0, -2, 6, "2", "3.0"])
    def test_int_in_rejects(self, value):
        with pytest.raises(InvalidInputError):
            int_in(1, 5)(value)

    def test_positive_takes_positive_finite_numbers(self):
        got = positive(2)
        assert got == 2.0 and type(got) is float

    @pytest.mark.parametrize("value", [True, 0, -0.5, math.nan, math.inf,
                                       10**400, "0.1"])
    def test_positive_rejects(self, value):
        with pytest.raises(InvalidInputError):
            positive(value)

    def test_a_bool_or_a_string_is_no_number_at_any_depth(self):
        """``numbers`` and ``finite_array``, the readers of config arrays
        and ``model.json`` arrays, share one rule."""
        for value in (True, [1.0, True], [[1.0, 2.0], [3.0, "4"]], [None]):
            with pytest.raises(InvalidInputError, match="is not a number"):
                numbers(value)
        with pytest.raises(InvalidInputError, match="finite numbers"):
            finite_array(2, 2)([[1.0, 2.0], [3.0, True]])
        got = finite_array(2, 2)([[1, 2.0], [3, 4]])
        assert got.dtype == np.float64 and got.tolist() == [[1, 2], [3, 4]]

    @staticmethod
    def numbers_by_walk(value):
        """The reference: every item walked in Python, as ``numbers`` does
        where its type scan does not pass the value."""
        items = [value]
        while items:
            item = items.pop()
            if isinstance(item, list):
                items.extend(item)
            elif isinstance(item, bool) or not isinstance(item, (int, float)):
                raise InvalidInputError(f"{item!r} is not a number")
        return np.float64(value)

    @pytest.mark.parametrize("value", [
        1.5, 3, [1, 2.0], [[1.0, 2.0], [3.0, 4.0]], [], [[]], [[], [1.0]],
        [[1.0], [2.0, 3.0]], [1.0, [2.0]], [10**400], [math.nan],
        (1.0, 2.0), [(1.0, 2.0)], [np.float64(1.0)], np.array([1.0]),
        [1.0, True], [[1.0], ["2"]], None, {}, [{}], [[1.0], None]])
    def test_numbers_decides_as_the_item_walk(self, value):
        def outcome(read):
            try:
                return read(value)
            except (ValueError, OverflowError) as exc:
                return type(exc), str(exc)

        got, expected = outcome(numbers), outcome(self.numbers_by_walk)
        if isinstance(expected, np.ndarray):
            assert isinstance(got, np.ndarray)
            np.testing.assert_array_equal(got, expected)
        else:
            assert got == expected

    def test_hyper_value_names_the_hyperparameter(self):
        assert hyper_value("tau", 2.0) == 2
        assert hyper_value("lam_reg", 1) == 1.0
        for name, value in (("tau", 2.7), ("p", True), ("washout", -1),
                            ("lam_reg", 0), ("tau", "2"), ("lam_reg", "0.1")):
            with pytest.raises(InvalidInputError, match=f"^{name} must"):
                hyper_value(name, value)


def dotted_keys(doc: dict) -> list:
    """The dotted keys of an estimator document: its own, those of its
    model and those of each of its transforms."""
    keys = [*doc, *(f"model.{key}" for key in doc["model"])]
    for chain in ("input_specs", "output_specs"):
        for i, spec in enumerate(doc[chain] or ()):
            keys += [f"{chain}.{i}.{key}" for key in spec]
    return keys


class TestModelDocuments:
    @pytest.mark.parametrize("kind", sorted(HYPER))
    def test_a_loaded_document_forecasts_bit_for_bit(self, kind):
        series = short_series()
        est = fit_task(kind, HYPER[kind], (series,))
        doc = json.loads(json.dumps(estimator_to_dict(est)))
        assert np.array_equal(
            path_continue(estimator_from_dict(doc), series, 8).predicted,
            path_continue(est, series, 8).predicted)

    @staticmethod
    def check_every_key_is_read(doc):
        """Removing any one key of ``doc`` makes the loader raise
        :class:`DependencyError` naming it: the document holds no key that
        a forecast does not read."""
        for key in dotted_keys(doc):
            *parents, last = key.split(".")
            node = doc
            for part in parents:
                node = node[int(part)] if isinstance(node, list) else node[part]
            value = node.pop(last)
            try:
                with pytest.raises(DependencyError, match=re.escape(repr(key))):
                    estimator_from_dict(doc)
            finally:
                node[last] = value
        estimator_from_dict(doc)

    @pytest.mark.parametrize("kind", sorted(HYPER))
    def test_a_fitted_document_holds_only_what_is_read(self, kind):
        est = fit_task(kind, HYPER[kind], (short_series(),))
        self.check_every_key_is_read(
            json.loads(json.dumps(estimator_to_dict(est))))

    @pytest.mark.parametrize("preset", sorted(
        name for name in PRESETS if "task" in PRESETS[name]))
    def test_a_shipped_document_holds_only_what_is_read(self, request,
                                                         preset):
        family = preset.rsplit("-", 1)[0].replace("-", "_")
        out = request.getfixturevalue(f"{family}_pipelines")[preset]["a"]["dir"]
        self.check_every_key_is_read(
            json.loads((out / "model.json").read_text())["estimator"])


class TestPolynomialRoute:
    """The polynomial kernel is fitted in its explicit feature space when
    its N monomials are no more than its n embedded rows."""

    HYPER = {"tau": 1, "p": 2, "lam_reg": 1e-3}  # N = 6 monomials of d = 2

    def fit(self, n):
        series = short_series(n + 1)
        return fit_estimator("polynomial", self.HYPER, series[:-1],
                             series[1:], outputs=None)

    def test_n_equal_to_features_is_primal(self):
        est = self.fit(6)
        assert est.route == "primal" and est.features == 6
        assert estimator_to_dict(est)["model"]["schema"] == "ngrc-model/1"

    def test_one_feature_more_than_rows_is_dual(self):
        est = self.fit(5)
        assert est.route == "dual" and est.features == 6
        assert estimator_to_dict(est)["model"]["schema"] == "kernel-model/3"

    def test_shipped_mackey_glass_polynomial_stays_dual(
            self, mackey_glass_pipelines):
        # tau 17, p 4: N = 5985 monomials against n = 2983 windows
        out = mackey_glass_pipelines["mackey-glass-polynomial"]["a"]["dir"]
        doc = json.loads((out / "model.json").read_text())
        assert doc["estimator"]["model"]["schema"] == "kernel-model/3"

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
        h = PRESETS[preset]["estimator"]["hyper"]
        dual = fit_kernel_model(X, Y, PolyKernelParams(h["p"], h["tau"],
                                                       h.get("c", 1.0)),
                                h["lam_reg"])
        windows = delay_vectors(X, h["tau"])
        primal_pred = predict_ngrc(est.model, windows)
        dual_pred = predict_kernel(dual, windows)
        scale = np.max(np.abs(dual_pred))
        assert np.max(np.abs(primal_pred - dual_pred)) <= 1e-8 * scale
