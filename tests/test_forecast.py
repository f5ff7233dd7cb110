import math

import numpy as np
import pytest

from kernelcast import preprocess
from kernelcast.errors import InvalidInputError, MissingKeyError, ParseError
from kernelcast.estimators import fit_estimator, fit_task
from kernelcast.forecast import (
    ForecastRun,
    forecast_task,
    load_forecast_csv,
    open_loop,
    path_continue,
)
from kernelcast.kernels import predict_kernel
from kernelcast.metrics import valid_time


class _ScalarMapEstimator:
    """Minimal closed-loop protocol: next = factor * current, nothing
    projected."""

    def __init__(self, factor):
        self.factor = factor

    def start(self, seed):
        seed = np.atleast_2d(np.asarray(seed, dtype=np.float64))
        est = self

        class Stepper:
            projected = 0

            def __init__(self):
                self.state = seed[-1].copy()

            def step(self):
                self.state = est.factor * self.state
                return self.state.copy()

        return Stepper()


class TestPathContinue:
    def test_exact_linear_map(self):
        est = _ScalarMapEstimator(0.5)
        run = path_continue(est, np.array([[1.0]]), 50)
        expected = 0.5 ** np.arange(1, 51)
        np.testing.assert_allclose(run.predicted[:, 0], expected, rtol=1e-10)
        assert run.reference is None  # forecast_task attaches one

    def test_identity_map_is_constant(self):
        est = _ScalarMapEstimator(1.0)
        run = path_continue(est, np.array([[2.5]]), 20)
        np.testing.assert_array_equal(run.predicted, np.full((20, 1), 2.5))

    def test_learned_linear_system(self):
        # fit NG-RC on data from x_{t+1} = 0.5 x_t and roll it out
        series = 0.9 * 0.5 ** np.arange(40.0)
        est = fit_task("ngrc", {"tau": 1, "p": 1, "lam_reg": 1e-12},
                       (series,))
        run = path_continue(est, series, 30)
        expected = series[-1] * 0.5 ** np.arange(1, 31)
        np.testing.assert_allclose(run.predicted[:, 0], expected, atol=1e-10)

    def test_divergence_truncates_with_position(self):
        est = _ScalarMapEstimator(1e200)
        run = path_continue(est, np.array([[1.0]]), 10)
        assert run.truncated
        assert run.error == "non-finite prediction"
        assert run.predicted.shape[0] == run.error_step - 1
        assert run.predicted.tolist() == [[1e200]]

    def test_divergence_on_first_step_keeps_no_rows(self):
        est = _ScalarMapEstimator(math.inf)
        run = path_continue(est, np.array([[1.0, 2.0]]), 10)
        assert run.error_step == 1
        assert run.predicted.shape == (0, 2)  # the seed's width

    def test_nan_weights_write_the_series_width(self, tmp_path):
        # an NG-RC model whose weights are NaN stops at its first step; its
        # empty run still has one column per series component
        series = np.cumsum(np.full((40, 3), 0.01), axis=0)
        est = fit_task("ngrc", {"tau": 1, "p": 1, "lam_reg": 1e-6},
                       (series,))
        est.model.weights[:] = np.nan
        run = forecast_task(est, "path-continuation", (series[:30],),
                            (series[30:],), 5)
        assert run.error_step == 1
        assert run.predicted.shape == run.reference.shape == (0, 3)
        path = tmp_path / "forecast.csv"
        run.save_csv(path)
        header = path.read_text().splitlines()[-1]
        assert header == "step,pred0,pred1,pred2,ref0,ref1,ref2,err"


class TestOpenLoopAgreement:
    def test_agrees_with_path_continuation_at_horizon_one(self):
        rng = np.random.default_rng(0)
        series = np.cumsum(rng.normal(size=(80, 2)), axis=0) * 0.05
        for kind, hyper in [
            ("ngrc", {"tau": 2, "p": 2, "lam_reg": 1e-6}),
            ("polynomial", {"tau": 2, "p": 2, "lam_reg": 1e-6}),
            ("volterra", {"lam": 0.5, "theta": 0.4, "lam_reg": 1e-6,
                          "washout": 5}),
        ]:
            est = fit_task(kind, hyper, (series,))
            closed = path_continue(est, series, 1)
            opened = est.open_loop(series[:-1], series[-1:])
            np.testing.assert_allclose(closed.predicted[0], opened[0],
                                       rtol=1e-10, atol=1e-12,
                                       err_msg=kind)


class TestForecastTask:
    """``forecast_task`` on train and test spans: ``(series,)`` or
    ``(inputs, outputs)``."""

    HYPER = {"tau": 2, "p": 2, "lam_reg": 1e-6}

    @staticmethod
    def series():
        rng = np.random.default_rng(2)
        return np.cumsum(rng.normal(size=(90, 2)), axis=0) * 0.05

    def test_path_continuation_rolls_on_from_the_training_series(self):
        values = self.series()
        train, test = values[:60], values[60:]
        est = fit_task("ngrc", self.HYPER, (train,))
        run = forecast_task(est, "path-continuation", (train,), (test,), 20)
        expected = path_continue(est, train[-est.tau:], 20)
        np.testing.assert_array_equal(run.predicted, expected.predicted)
        np.testing.assert_array_equal(run.reference, test[:20])

    def test_open_loop_on_a_series_lags_its_inputs_one_step(self):
        values = self.series()
        train, test = values[:60], values[60:]
        est = fit_task("ngrc", self.HYPER, (train,))
        run = forecast_task(est, "open-loop", (train,), (test,), np.inf)
        assert run.mode == "open-loop" and run.horizon == 30
        np.testing.assert_array_equal(run.predicted,
                                      est.open_loop(train[:-1],
                                                    values[59:89]))
        np.testing.assert_array_equal(run.reference, test)

    def test_open_loop_on_pairs_predicts_each_test_input(self):
        values = self.series()
        inputs, outputs = values[:-1], values[1:] ** 2
        est = fit_task("ngrc", self.HYPER, (inputs[:60], outputs[:60]))
        run = forecast_task(est, "open-loop", (inputs[:60], outputs[:60]),
                            (inputs[60:], outputs[60:]), 10)
        np.testing.assert_array_equal(run.predicted,
                                      est.open_loop(inputs[:60],
                                                    inputs[60:70]))
        np.testing.assert_array_equal(run.reference, outputs[60:70])

    def test_truncated_rollout_keeps_the_reference_rows_it_predicted(self):
        est = _ScalarMapEstimator(1e200)  # overflows at step 2
        train, test = np.ones((5, 1)), np.arange(10.0)[:, None]
        run = forecast_task(est, "path-continuation", (train,), (test,), 10)
        assert run.truncated and run.error_step == 2
        np.testing.assert_array_equal(run.reference, test[:1])

    @pytest.mark.parametrize("mode, match", [
        ("path-continuation", "needs a series"),
        ("closed-loop", "unknown task mode")])
    def test_rejects_a_task_the_span_does_not_support(self, mode, match):
        values = self.series()
        est = fit_estimator("ngrc", self.HYPER, values[:60], values[1:61])
        span = (values[:60], values[1:61])
        with pytest.raises(InvalidInputError, match=match):
            forecast_task(est, mode, span, span, 10)

    KINDS = {"ngrc": HYPER, "polynomial": HYPER,
             "volterra": {"lam": 0.5, "theta": 0.4, "lam_reg": 1e-6}}

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_no_step_to_predict_is_rejected(self, kind):
        values = self.series()
        series, pairs = (values[:60],), (values[:60], values[1:61])
        runs = [(series, "path-continuation"), (series, "open-loop"),
                (pairs, "open-loop")]
        for train, mode in runs:
            est = fit_task(kind, self.KINDS[kind], train)
            with pytest.raises(InvalidInputError, match="horizon must be"):
                forecast_task(est, mode, train, train, 0)
            empty = tuple(a[:0] for a in train)
            with pytest.raises(InvalidInputError, match="^test_inputs must be a non-empty"):
                forecast_task(est, "open-loop", train, empty, 10)
            with pytest.raises(InvalidInputError, match="^test_inputs must be a non-empty"):
                open_loop(est, train[0], train[0][:0])


class TestVolterraRollout:
    def test_norm_violation_truncates(self):
        rng = np.random.default_rng(1)
        # diverging series: the fed-back prediction leaves the unit ball
        series = rng.normal(size=(60, 1)) * 0.1
        est = fit_task(
            "volterra",
            {"lam": 0.5, "theta": 0.5, "lam_reg": 1e-8, "washout": 4},
            (series,))
        # force escape by seeding far outside the training envelope; inputs
        # that leave the ball are projected onto it, so the run keeps its
        # length
        run = path_continue(est, np.array([[100.0]]), 200)
        assert not run.truncated and run.error_step is None
        assert run.predicted.shape == (200, 1)
        assert np.all(np.isfinite(run.predicted))
        assert run.projected > 0

    def test_open_loop_counts_projected_inputs(self):
        rng = np.random.default_rng(1)
        inputs = rng.normal(size=(60, 1)) * 0.1
        est = fit_estimator("volterra", {"lam": 0.5, "theta": 0.5,
                                         "lam_reg": 1e-8, "washout": 4},
                            inputs[:-1], inputs[1:])
        # two training inputs, inside the ball, and two far outside it
        test = np.array([inputs[0], [100.0], [-100.0], inputs[5]])
        run = open_loop(est, inputs[:-1], test)
        assert run.projected == 2 and not run.truncated
        # the projected inputs score as their images on the ball (M = 1),
        # scaled as the extension scales them
        z = preprocess.apply_pipeline(est.input_specs, test)
        onto = np.array([v * (1.0 / math.sqrt(v @ v)) if v @ v > 1.0 else v
                         for v in z])
        assert np.sum(np.any(onto != z, axis=1)) == 2
        np.testing.assert_array_equal(predict_kernel(est.model, z),
                                      predict_kernel(est.model, onto))


class TestValidTime:
    def test_identical_series_censored(self):
        y = np.random.default_rng(2).normal(size=(100, 2))
        vt = valid_time(y, y, lyapunov_exponent=0.9, dt=0.1)
        assert vt.censored
        assert vt.first_exceed_step is None
        assert vt.value == pytest.approx(100 * 0.1 * 0.9)

    def test_constant_offset_crosses_immediately(self):
        rng = np.random.default_rng(3)
        y = rng.normal(size=(50, 1))
        centered = y - y.mean(axis=0)
        rms = np.sqrt(np.mean(np.sum(centered**2, axis=1)))
        y_hat = y + 0.3 * rms
        vt = valid_time(y, y_hat, lyapunov_exponent=0.9, dt=0.01)
        assert vt.first_exceed_step == 1
        assert vt.value == pytest.approx(0.01 * 0.9)

    def test_crossing_at_step_100(self):
        h = 200
        y = np.zeros((h, 1))
        y[:, 0] = np.sin(np.arange(h))  # non-degenerate reference
        centered = y - y.mean(axis=0)
        rms = np.sqrt(np.mean(np.sum(centered**2, axis=1)))
        y_hat = y.copy()
        y_hat[99:, 0] += 0.5 * rms  # first exceedance at 1-based step 100
        vt = valid_time(y, y_hat, lyapunov_exponent=0.9056, dt=0.005)
        assert vt.first_exceed_step == 100
        assert vt.value == pytest.approx(100 * 0.005 * 0.9056)
        assert vt.value == pytest.approx(0.45280)

    def test_monotone_in_error(self):
        rng = np.random.default_rng(4)
        y = rng.normal(size=(80, 2))
        base_err = np.abs(rng.normal(size=(80, 2))) * 0.05
        small = valid_time(y, y + base_err, 1.0, 1.0)
        large = valid_time(y, y + 2.0 * base_err, 1.0, 1.0)
        assert large.value <= small.value

    def test_one_dimensional_series_is_one_column(self):
        # a 1-d series is h steps of one dimension, as the metrics read it
        y = np.sin(np.arange(100.0))
        vt = valid_time(y, y + 0.01, lyapunov_exponent=1.0, dt=0.1)
        assert vt == valid_time(y[:, None], y[:, None] + 0.01, 1.0, 0.1)
        assert vt.censored and vt.value == pytest.approx(10.0)

    def test_validation(self):
        y = np.random.default_rng(5).normal(size=(10, 1))
        with pytest.raises(InvalidInputError):
            valid_time(y, y, lyapunov_exponent=0.0, dt=1.0)
        with pytest.raises(InvalidInputError):
            valid_time(np.ones((10, 1)), np.ones((10, 1)), 1.0, 1.0)


class TestForecastCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        run = ForecastRun("path-continuation", 5,
                          rng.normal(size=(5, 2)), rng.normal(size=(5, 2)))
        path = tmp_path / "forecast.csv"
        run.save_csv(path, extra_meta={"config_sha256": "abc"})
        clone, meta = load_forecast_csv(path)
        np.testing.assert_array_equal(clone.predicted, run.predicted)
        np.testing.assert_array_equal(clone.reference, run.reference)
        assert clone.mode == run.mode
        assert meta["config_sha256"] == "abc"

    def test_truncated_run_metadata(self, tmp_path):
        run = ForecastRun("path-continuation", 10, np.ones((3, 1)),
                          np.ones((3, 1)), "non-finite prediction", 4)
        path = tmp_path / "trunc.csv"
        run.save_csv(path)
        clone, _ = load_forecast_csv(path)
        assert clone.error == "non-finite prediction"
        assert clone.error_step == 4
        assert clone.truncated


    def test_golden_text_truncated(self, tmp_path):
        error = "sample 7 has norm 1.2 > M = 1"
        run = ForecastRun("path-continuation", 5, np.array([[0.5], [0.25]]),
                          np.array([[0.25], [1.0]]), error, 3)
        path = tmp_path / "forecast.csv"
        run.save_csv(path, extra_meta={"config_sha256": "abc",
                                       "estimator": "volterra"})
        assert path.read_bytes() == (
            b"# mode=path-continuation\n"
            b"# horizon=5\n"
            b"# error_step=3\n"
            b"# error=sample 7 has norm 1.2 > M = 1\n"
            b"# config_sha256=abc\n"
            b"# estimator=volterra\n"
            b"step,pred0,ref0,err\n"
            b"1,0.5,0.25,0.25\n"
            b"2,0.25,1,0.75\n"
        )
        clone, meta = load_forecast_csv(path)
        assert clone.error == error
        assert clone.error_step == 3
        assert clone.horizon == 5
        assert meta["estimator"] == "volterra"

    def test_golden_text_without_reference(self, tmp_path):
        run = ForecastRun("open-loop", 2,
                          np.array([[0.1, 2.0], [-1.0, 1e300]]))
        path = tmp_path / "forecast.csv"
        run.save_csv(path)
        assert path.read_bytes() == (
            b"# mode=open-loop\n"
            b"# horizon=2\n"
            b"step,pred0,pred1\n"
            b"1,0.10000000000000001,2\n"
            b"2,-1,1.0000000000000001e+300\n"
        )
        clone, _ = load_forecast_csv(path)
        np.testing.assert_array_equal(clone.predicted, run.predicted)
        assert clone.reference is None

    def test_err_of_a_large_finite_difference_is_finite(self, tmp_path):
        # the sum of squares of 1e200 overflows; the row is measured again
        # scaled by its largest entry, and no overflow warning is raised
        # (pyproject turns RuntimeWarning into an error)
        run = ForecastRun("open-loop", 2,
                          np.array([[1e200, 0.0], [3.0, 4.0]]),
                          np.zeros((2, 2)))
        path = tmp_path / "forecast.csv"
        run.save_csv(path)
        assert path.read_bytes().endswith(
            b"step,pred0,pred1,ref0,ref1,err\n"
            b"1,9.9999999999999997e+199,0,0,0,9.9999999999999997e+199\n"
            b"2,3,4,0,0,5\n")

    @pytest.mark.parametrize("comments, match", [
        ("# horizon=-5\n", "^horizon=-5 must be >= 2$"),
        ("# horizon=1\n", "^horizon=1 must be >= 2$"),  # fewer than the rows
        ("# horizon=2.5\n", "^horizon=2.5 must be a whole number$"),
        ("# horizon=2\n# error_step=-7\n# error=non-finite prediction\n",
         r"^error_step=-7 must lie in \[3, 3\]$"),
        ("# horizon=4\n# error_step=2\n# error=non-finite prediction\n",
         r"^error_step=2 must lie in \[3, 3\]$"),
        ("# horizon=2\n# error_step=3\n", "^error_step needs an error"),
    ])
    def test_comments_follow_the_rules_runs_are_written_by(
            self, tmp_path, comments, match):
        path = tmp_path / "forecast.csv"
        path.write_text("# mode=open-loop\n" + comments
                        + "step,pred0\n1,0.5\n2,0.25\n")
        with pytest.raises(ParseError, match=match):
            load_forecast_csv(path)

    def test_an_error_needs_its_step(self, tmp_path):
        path = tmp_path / "forecast.csv"
        path.write_text("# mode=open-loop\n# horizon=3\n# error=x\n"
                        "step,pred0\n1,0.5\n")
        with pytest.raises(MissingKeyError, match="'error_step'"):
            load_forecast_csv(path)

    def test_bad_metadata_is_parse_error(self, tmp_path):
        path = tmp_path / "forecast.csv"
        path.write_text("# mode=open-loop\n# horizon=two\nstep,pred0\n1,0.5\n")
        with pytest.raises(ParseError, match="horizon"):
            load_forecast_csv(path)

    @pytest.mark.parametrize("comments, error, match", [
        ("# horizon=1\n", MissingKeyError, "has no key 'mode'"),
        ("# mode=open-loop\n", MissingKeyError, "has no key 'horizon'"),
        ("# mode=closed-loop\n# horizon=1\n", InvalidInputError,
         "unknown task mode 'closed-loop'"),
    ])
    def test_mode_and_horizon_are_required(self, tmp_path, comments, error,
                                           match):
        path = tmp_path / "forecast.csv"
        path.write_text(comments + "step,pred0\n1,0.5\n")
        with pytest.raises(error, match=match):
            load_forecast_csv(path)

    @pytest.mark.parametrize("row", ["2,nan,0,1", "2,inf,0,1", "2,0,-inf,1",
                                     "2,0,1e999,1"])
    def test_non_finite_cell_names_its_line(self, tmp_path, row):
        # each rollout stops at its first non-finite prediction, so every
        # value that eval scores is finite in a file that forecast writes
        path = tmp_path / "forecast.csv"
        path.write_text("# mode=open-loop\n# horizon=3\n\nstep,pred0,ref0,err\n"
                        f"1,0.5,0,0.5\n{row}\n3,1,0,1\n")
        with pytest.raises(ParseError, match="prediction or reference is "
                                             "not finite") as err:
            load_forecast_csv(path)
        assert err.value.line == 6


class TestForecastRunIntake:
    """``ForecastRun`` reads its arrays as ``(h, d)`` rows."""

    def test_a_1d_array_is_one_column(self):
        run = ForecastRun("open-loop", 3, np.arange(3.0), np.arange(3.0) + 1)
        assert run.predicted.shape == run.reference.shape == (3, 1)
        assert run.predicted.dtype == np.float64

    def test_a_1d_reference_is_saved_and_read_back(self, tmp_path):
        run = ForecastRun("open-loop", 3, np.zeros((3, 1)),
                          np.arange(3.0) + 1)
        run.save_csv(tmp_path / "forecast.csv")
        back, _ = load_forecast_csv(tmp_path / "forecast.csv")
        np.testing.assert_array_equal(back.reference, [[1.0], [2.0], [3.0]])
        np.testing.assert_array_equal(back.predicted, run.predicted)

    def test_a_run_truncated_at_its_first_step_holds_no_rows(self, tmp_path):
        run = ForecastRun("path-continuation", 5, [[math.nan, 1.0]],
                          [[0.0, 1.0]])
        assert run.error_step == 1
        assert run.predicted.shape == run.reference.shape == (0, 2)
        run.save_csv(tmp_path / "forecast.csv")
        back, _ = load_forecast_csv(tmp_path / "forecast.csv")
        assert back.error_step == 1 and back.predicted.shape == (0, 2)

    @pytest.mark.parametrize("predicted, reference, match", [
        (np.zeros((3, 1, 1)), None, "^predicted must be an"),
        (np.zeros((3, 1)), np.zeros((3, 1, 1)), "^reference must be an"),
        (np.zeros((3, 2)), np.zeros((2, 2)), "^reference of shape"),
        (np.zeros((3, 1)), np.zeros((3, 2)), "^reference of shape"),
    ])
    def test_any_other_shape_is_rejected(self, predicted, reference, match):
        with pytest.raises(InvalidInputError, match=match):
            ForecastRun("open-loop", 3, predicted, reference)


class TestOpenLoopRuns:
    def test_open_loop_run_counts(self):
        rng = np.random.default_rng(7)
        inputs = rng.normal(size=(60, 2)) * 0.2
        outputs = np.cumsum(inputs, axis=0) * 0.1
        est = fit_estimator("ngrc", {"tau": 2, "p": 1, "lam_reg": 1e-6},
                            inputs[:50], outputs[:50])
        run = open_loop(est, inputs[:50], inputs[50:])
        assert run.predicted.shape == (10, 2)
        assert run.mode == "open-loop"
        assert not run.truncated and run.reference is None
