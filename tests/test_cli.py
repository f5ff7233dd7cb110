import ast
import copy
import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from kernelcast.cli import _MAX_SIZE, config_hash, main
from kernelcast.datasets import read_csv
from kernelcast.errors import ParseError
from kernelcast.forecast import ForecastRun, load_forecast_csv
from kernelcast.kernels import VolterraParams
from kernelcast.presets import PRESETS


@pytest.fixture()
def mini_lorenz_config(tmp_path):
    cfg = copy.deepcopy(PRESETS["lorenz-ngrc"])
    # coarser, shorter run that still rolls out stably
    cfg["dataset"]["dt"] = 0.01
    cfg["dataset"]["n_points"] = 3001
    cfg["dataset"]["n_train"] = 2200
    cfg["cv"] = {"mode": "overlapping", "fold_len": 800, "val_len": 100,
                 "stride": 600}
    cfg["estimator"]["grid"] = {"taus": [3], "ps": [2], "lam_regs": [1e-7]}
    cfg["task"]["horizon"] = 300
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return cfg, path


def run_cli(*argv):
    return main(list(argv))


class TestPipeline:
    def test_full_chain_and_artifacts(self, tmp_path, mini_lorenz_config):
        cfg, cfg_path = mini_lorenz_config
        out = tmp_path / "exp"
        for cmd in ("simulate", "fit", "forecast", "eval"):
            assert run_cli(cmd, "--config", str(cfg_path),
                           "--out", str(out)) == 0
        for name in ("train.csv", "test.csv", "model.json", "forecast.csv",
                     "metrics.csv", "metrics.json",
                     "simulate_manifest.json", "eval_manifest.json"):
            assert (out / name).exists(), name
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["t_valid"] is not None
        assert np.isfinite(metrics["nmse"])
        # every CSV embeds the config hash
        h = config_hash(cfg)
        for name in ("train.csv", "forecast.csv", "metrics.csv"):
            assert h in (out / name).read_text()

    def test_cv_single_candidate_matches_fit(self, tmp_path,
                                             mini_lorenz_config):
        cfg, cfg_path = mini_lorenz_config
        out = tmp_path / "exp"
        assert run_cli("simulate", "--config", str(cfg_path),
                       "--out", str(out)) == 0
        assert run_cli("cv", "--config", str(cfg_path),
                       "--out", str(out)) == 0
        best = json.loads((out / "cv_best.json").read_text())["best"]
        assert best == cfg["estimator"]["hyper"]

    def test_cv_best_records_fold_scores(self, tmp_path, mini_lorenz_config):
        _, cfg_path = mini_lorenz_config
        out = tmp_path / "exp"
        for cmd in ("simulate", "cv"):
            assert run_cli(cmd, "--config", str(cfg_path),
                           "--out", str(out)) == 0
        [row] = json.loads((out / "cv_best.json").read_text())["candidates"]
        assert row["params"] == {"tau": 3, "p": 2, "lam_reg": 1e-7}
        assert len(row["fold_mse"]) == 3  # folds start at 0, 600, 1200
        assert all(math.isfinite(s) for s in row["fold_mse"])
        assert row["failures"] == []

    def test_eval_on_identical_files_gives_zero_pointwise(self, tmp_path,
                                                          mini_lorenz_config):
        cfg, cfg_path = mini_lorenz_config
        out = tmp_path / "exp"
        for cmd in ("simulate", "fit", "forecast"):
            assert run_cli(cmd, "--config", str(cfg_path),
                           "--out", str(out)) == 0
        # rewrite the forecast so predictions equal the reference
        from kernelcast.forecast import load_forecast_csv

        run, meta = load_forecast_csv(out / "forecast.csv")
        perfect = ForecastRun(run.mode, run.horizon, run.reference.copy(),
                              run.reference)
        perfect.save_csv(out / "forecast.csv",
                         extra_meta={"config_sha256": meta["config_sha256"]})
        assert run_cli("eval", "--config", str(cfg_path),
                       "--out", str(out)) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        for name in ("nmse", "mae", "mdae", "mape"):
            assert metrics[name] == 0.0


    def test_eval_reads_no_dataset_csv(self, tmp_path, mini_lorenz_config):
        """``eval`` needs only ``forecast.csv`` and the manifests."""
        _, cfg_path = mini_lorenz_config
        out = tmp_path / "exp"
        for cmd in ("simulate", "fit", "forecast"):
            assert run_cli(cmd, "--config", str(cfg_path),
                           "--out", str(out)) == 0
        bare = tmp_path / "bare"
        shutil.copytree(out, bare)
        for name in ("train.csv", "test.csv"):
            (bare / name).unlink()
        for exp in (out, bare):
            assert run_cli("eval", "--config", str(cfg_path),
                           "--out", str(exp)) == 0
        for name in ("metrics.csv", "metrics.json"):
            assert (bare / name).read_bytes() == (out / name).read_bytes()


class TestMetricsCsv:
    def test_golden_text(self, tmp_path):
        reference, predicted = [1.0, -1.0, 2.0, -2.0], [1.0, -1.0, 2.0, -1.0]
        series = tmp_path / "series.csv"
        rows = "".join(f"{i},{x}\n" for i, x in enumerate(reference * 2))
        series.write_text("# dt=1\nt,c0\n" + rows)
        cfg = {"schema": "kernelcast-experiment/1", "seed": 0,
               "dataset": {"kind": "csv", "path": str(series), "n_train": 4},
               "estimator": {"kind": "ngrc",
                             "hyper": {"tau": 1, "p": 1, "lam_reg": 1e-6}},
               "task": {"mode": "path-continuation"}}
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "exp"
        assert run_cli("simulate", "--config", str(cfg_path),
                       "--out", str(out)) == 0
        run = ForecastRun("path-continuation", 4, np.array(predicted)[:, None],
                          np.array(reference)[:, None])
        run.save_csv(out / "forecast.csv",
                     extra_meta={"config_sha256": config_hash(cfg)})
        (out / "forecast_manifest.json").write_text(
            json.dumps({"config_sha256": config_hash(cfg)}))
        assert run_cli("eval", "--config", str(cfg_path),
                       "--out", str(out)) == 0
        assert (out / "metrics.csv").read_bytes() == (
            f"# config_sha256={config_hash(cfg)}\n"
            "nmse,mae,mdae,mape,psde,w1,t_valid,t_valid_censored\n"
            "0.10000000000000001,0.25,0,0.125,0.54471788715486202,0.25,nan,0\n"
        ).encode()

    def test_golden_protocol_text(self, tmp_path):
        # 1500 steps of d = 2: the Welch segment is capped at 1024 and W1
        # scores a seeded 512-row subsample; the prediction leaves the
        # reference at step 601, so the 0.2 threshold sets the valid time,
        # which cuts the pointwise window to 666 steps; inside it, a zero
        # reference cell divides its error by the MAPE floor
        t = np.arange(1500.0)
        reference = np.column_stack([np.sin(0.05 * t), 2.0 * np.cos(0.031 * t)])
        reference[100, 0] = 0.0
        predicted = reference + 1e-3 * np.column_stack([np.cos(0.7 * t),
                                                        np.sin(0.3 * t)])
        predicted[600:, 0] = np.sin(0.05 * t[600:] + 1.0)
        series = tmp_path / "series.csv"
        series.write_text("# dt=0.01\nt,c0,c1\n" + "".join(
            f"{i},{i % 3},{i % 2}\n" for i in range(8)))
        cfg = {"schema": "kernelcast-experiment/1", "seed": 0,
               "dataset": {"kind": "csv", "path": str(series), "n_train": 4},
               "estimator": {"kind": "ngrc",
                             "hyper": {"tau": 1, "p": 1, "lam_reg": 1e-6}},
               "task": {"mode": "path-continuation",
                        "lyapunov_exponent": 0.9}}
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "exp"
        assert run_cli("simulate", "--config", str(cfg_path),
                       "--out", str(out)) == 0
        sha = config_hash(cfg)
        ForecastRun("path-continuation", 1500, predicted, reference).save_csv(
            out / "forecast.csv", extra_meta={"config_sha256": sha})
        (out / "forecast_manifest.json").write_text(
            json.dumps({"config_sha256": sha}))
        assert run_cli("eval", "--config", str(cfg_path),
                       "--out", str(out)) == 0
        assert (out / "metrics.csv").read_bytes() == (
            f"# config_sha256={sha}\n"
            "nmse,mae,mdae,mape,psde,w1,t_valid,t_valid_censored\n"
            "0.045158277412900766,0.061767925087030301,0.0007358201095161894,"
            "122.76494838872203,3870223.1828442481,0.097041337106293771,"
            "5.4089999999999998,0\n").encode()
        assert (out / "metrics.json").read_bytes() == (
            '{"config": {"config_sha256": "' + sha + '", "dt": 0.01, '
            '"mode": "path-continuation", "t_valid_steps": 666, '
            '"welch_nperseg": 1024}, "flags": {"w1_subsampled_to": 512}, '
            '"mae": 0.0617679250870303, "mape": 122.76494838872203, '
            '"mdae": 0.0007358201095161894, "nmse": 0.045158277412900766, '
            '"psde": 3870223.182844248, "t_valid": 5.409, '
            '"t_valid_censored": false, "w1": 0.09704133710629377}\n').encode()


class TestOpenLoopOnSeries:
    def test_horizon_beyond_test_span_is_clamped(self, tmp_path,
                                                 mini_lorenz_config):
        cfg, _ = mini_lorenz_config
        cfg["task"] = {"mode": "open-loop", "horizon": 5000}
        path = tmp_path / "open.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "exp"
        for cmd in ("simulate", "fit", "forecast"):
            assert run_cli(cmd, "--config", str(path),
                           "--out", str(out)) == 0
        run, _ = load_forecast_csv(out / "forecast.csv")
        n_test = cfg["dataset"]["n_points"] - cfg["dataset"]["n_train"]
        assert run.horizon == n_test
        assert run.predicted.shape[0] == run.reference.shape[0] == n_test


class TestExitCodes:
    def test_missing_config_is_config_error(self, tmp_path):
        assert run_cli("simulate", "--config", str(tmp_path / "nope.json"),
                       "--out", str(tmp_path / "o")) == 2

    def test_invalid_json_is_config_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run_cli("simulate", "--config", str(bad),
                       "--out", str(tmp_path / "o")) == 2

    def test_unknown_preset(self, tmp_path):
        assert run_cli("simulate", "--preset", "nope",
                       "--out", str(tmp_path / "o")) == 2

    @pytest.mark.parametrize("flags", [
        ("--preset", "bekk-ngrc", "--config", "nope.json"),
        ("--config", "nope.json", "--preset", "bekk-ngrc"),
        ()])
    @pytest.mark.parametrize("stage", ["simulate", "fit", "bench"])
    def test_config_and_preset_are_one_required_choice(self, tmp_path,
                                                       capsys, stage, flags):
        # both flags, or neither, is a usage error; a preset never
        # silently overrides a config file
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            run_cli(stage, *flags, "--out", str(out))
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert ("not allowed with argument" in err if flags
                else "one of the arguments --config --preset is required"
                in err)
        assert not out.exists()

    @pytest.mark.parametrize("below", [False, True])
    @pytest.mark.parametrize("stage", ["simulate", "fit", "forecast", "eval",
                                       "cv", "bench"])
    def test_out_naming_a_file_is_config_error(self, tmp_path, capsys,
                                               stage, below):
        # named once, before any stage import, with nothing written
        file = tmp_path / "taken"
        file.write_text("x")
        out = file / "exp" if below else file
        assert run_cli(stage, "--preset", "bekk-polynomial",
                       "--out", str(out)) == 2
        assert capsys.readouterr().err == \
            f"config error: out: {file} is not a directory\n"
        assert file.read_text() == "x"
        assert [p.name for p in tmp_path.iterdir()] == ["taken"]

    @pytest.mark.parametrize("stage, preset", [
        ("simulate", "lorenz-ngrc"), ("bench", "bench-default")])
    def test_out_that_cannot_be_made_is_config_error(self, tmp_path, capsys,
                                                     monkeypatch, stage,
                                                     preset):
        def refuse(path, exist_ok=False):
            raise PermissionError(13, "Permission denied", path)

        monkeypatch.setattr(os, "makedirs", refuse)
        out = tmp_path / "o"
        assert run_cli(stage, "--preset", preset, "--out", str(out)) == 2
        assert capsys.readouterr().err.startswith(
            "config error: out: cannot create the directory: [Errno 13]")
        assert not out.exists()

    def test_zero_length_request_rejected(self, tmp_path):
        cfg = copy.deepcopy(PRESETS["lorenz-ngrc"])
        cfg["dataset"]["n_points"] = 0
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(cfg))
        assert run_cli("simulate", "--config", str(path),
                       "--out", str(tmp_path / "o")) == 2

    def test_missing_upstream_artifact(self, tmp_path, mini_lorenz_config):
        _, cfg_path = mini_lorenz_config
        assert run_cli("fit", "--config", str(cfg_path),
                       "--out", str(tmp_path / "fresh")) == 2

    def test_cross_stage_hash_mismatch_rejected(self, tmp_path,
                                                mini_lorenz_config):
        cfg, cfg_path = mini_lorenz_config
        out = tmp_path / "exp"
        assert run_cli("simulate", "--config", str(cfg_path),
                       "--out", str(out)) == 0
        cfg2 = copy.deepcopy(cfg)
        cfg2["estimator"]["hyper"]["lam_reg"] = 1e-3
        other = tmp_path / "other.json"
        other.write_text(json.dumps(cfg2))
        assert run_cli("fit", "--config", str(other), "--out", str(out)) == 2

    def test_invalid_bekk_stationarity_rejected(self, tmp_path):
        cfg = copy.deepcopy(PRESETS["bekk-ngrc"])
        cfg["dataset"]["b"] = 1.5
        path = tmp_path / "bekk.json"
        path.write_text(json.dumps(cfg))
        assert run_cli("simulate", "--config", str(path),
                       "--out", str(tmp_path / "o")) == 2

    def test_n_train_equal_to_n_points_rejected(self, tmp_path):
        cfg = copy.deepcopy(PRESETS["lorenz-ngrc"])
        cfg["dataset"]["n_points"] = 50
        cfg["dataset"]["n_train"] = 50
        path = tmp_path / "lorenz.json"
        path.write_text(json.dumps(cfg))
        assert run_cli("simulate", "--config", str(path),
                       "--out", str(tmp_path / "o")) == 2

    def test_corrupt_forecast_cell_is_parse_error(self, tmp_path,
                                                  mini_lorenz_config):
        _, cfg_path = mini_lorenz_config
        out = tmp_path / "exp"
        for cmd in ("simulate", "fit", "forecast"):
            assert run_cli(cmd, "--config", str(cfg_path),
                           "--out", str(out)) == 0
        path = out / "forecast.csv"
        lines = path.read_text().splitlines(keepends=True)
        row = next(i for i, line in enumerate(lines)
                   if line.startswith("7,"))
        cells = lines[row].split(",")
        cells[2] = "1.2.3"  # column pred1
        lines[row] = ",".join(cells)
        path.write_text("".join(lines))
        with pytest.raises(ParseError) as err:
            load_forecast_csv(path)
        assert err.value.line == row + 1
        assert "pred1" in str(err.value)
        assert run_cli("eval", "--config", str(cfg_path),
                       "--out", str(out)) == 2

    def test_config_not_an_object_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1,2]")
        assert run_cli("simulate", "--config", str(path),
                       "--out", str(tmp_path / "o")) == 2
        assert "config: top level must be a JSON object" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("text", ['{"stage": ', "[]"])
    def test_corrupt_simulate_manifest_is_dependency_error(self, tmp_path,
                                                            capsys, text):
        out = tmp_path / "exp"
        assert run_cli("simulate", "--preset", "bekk-polynomial",
                       "--out", str(out)) == 0
        manifest = out / "simulate_manifest.json"
        manifest.write_text(text)
        capsys.readouterr()
        assert run_cli("fit", "--preset", "bekk-polynomial",
                       "--out", str(out)) == 2
        assert f"corrupt upstream artifact {manifest}" in \
            capsys.readouterr().err

    def test_valid_time_beyond_the_float_range_is_config_error(
            self, lorenz_pipelines, tmp_path, capsys):
        # lyapunov_exponent * rows * dt overflows: 1e308 * 10001 * 0.005
        out = tmp_path / "exp"
        shutil.copytree(lorenz_pipelines["lorenz-ngrc"]["a"]["dir"], out)
        cfg = copy.deepcopy(PRESETS["lorenz-ngrc"])
        cfg["task"]["lyapunov_exponent"] = 1e308
        for path in out.iterdir():  # the upstream files, under cfg
            path.write_text(path.read_text().replace(
                config_hash(PRESETS["lorenz-ngrc"]), config_hash(cfg)))
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        capsys.readouterr()
        assert run_cli("eval", "--config", str(cfg_path),
                       "--out", str(out)) == 2
        assert "task.lyapunov_exponent: invalid value 1e+308" in \
            capsys.readouterr().err

    def test_corrupt_model_json_is_dependency_error(self, tmp_path, capsys):
        out = tmp_path / "exp"
        for cmd in ("simulate", "fit"):
            assert run_cli(cmd, "--preset", "bekk-polynomial",
                           "--out", str(out)) == 0
        model = out / "model.json"
        model.write_text(model.read_text()[:100])
        capsys.readouterr()
        assert run_cli("forecast", "--preset", "bekk-polynomial",
                       "--out", str(out)) == 2
        assert f"corrupt upstream artifact {model}" in capsys.readouterr().err


# The shipped BEKK intercept with its last entry written as ``true``.
_C = PRESETS["bekk-ngrc"]["dataset"]["C"]
BEKK_C_WITH_A_BOOL = [*_C[:-1], [*_C[-1][:-1], True]]


class TestMalformedConfigValue:
    """A shipped preset with one value of the wrong type, missing or out of
    range exits 2 at the stage that reads it, naming the dotted field."""

    @pytest.mark.parametrize("path, value, stage", [
        ("dataset.n_points", "abc", "simulate"),
        ("estimator.hyper.tau", "x", "fit"),
        ("estimator.hyper.lam_reg", None, "fit"),  # None: the key removed
        ("estimator.grid.taus", 3, "cv"),
        ("estimator.kind", "foo", "fit"),
        ("estimator.kind", "foo", "cv"),
        ("cv.fixed_hyper.washout", "x", "cv"),
    ])
    def test_exits_two_naming_the_field(self, tmp_path, capsys, path, value,
                                        stage):
        self.check_exits_two(tmp_path, capsys, "bekk-ngrc", path, value, stage)

    @pytest.mark.parametrize("preset, path, value, stage", [
        ("bekk-ngrc", "task.horizon", -5, "forecast"),
        ("lorenz-ngrc", "task.horizon", -5, "forecast"),
        ("bekk-ngrc", "task.horizon", 0, "forecast"),
        ("lorenz-ngrc", "task.lyapunov_exponent", -0.9, "eval"),
        ("lorenz-ngrc", "dataset.n_points", 1, "simulate"),
        ("bekk-ngrc", "dataset.n_points", 2, "simulate"),
        # sizes beyond the float64 values one array can address
        ("bekk-ngrc", "dataset.n_points", 1e308, "simulate"),
        ("bekk-ngrc", "dataset.d", 1e308, "simulate"),
        # sizes within that cap whose one array would hold more values:
        # the (n_points, 3) Lorenz trajectory, the (n_points, 15) BEKK
        # covariances, and a d that disagrees with the 5 × 5 dataset.C
        ("lorenz-ngrc", "dataset.n_points", _MAX_SIZE, "simulate"),
        ("bekk-ngrc", "dataset.n_points", _MAX_SIZE, "simulate"),
        ("bekk-ngrc", "dataset.d", _MAX_SIZE, "simulate"),
        ("bekk-ngrc", "dataset.d", 4, "simulate"),
        ("bekk-ngrc", "estimator.hyper.washuot", 50, "fit"),
        ("bekk-ngrc", "cv.fixed_hyper.washuot", 50, "cv"),
        ("bekk-ngrc", "cv.fixed_hyper.tau", 2, "cv"),  # the grid sets tau
        # path continuation needs a series; BEKK data are input/output pairs
        ("bekk-ngrc", "task.mode", "path-continuation", "fit"),
        ("bekk-ngrc", "task.mode", "path-continuation", "cv"),
        ("bekk-ngrc", "task.mode", "closed-loop", "cv"),
        # a grid list the kind needs is missing (misspelt) or empty, or one
        # it does not read is given
        ("bekk-ngrc", "estimator.grid.taus", None, "cv"),
        ("bekk-ngrc", "estimator.grid.tuas", [1, 2], "cv"),
        ("bekk-ngrc", "estimator.grid.taus", [], "cv"),
        ("bekk-ngrc", "estimator.grid.lams", [0.5], "cv"),
        ("bekk-volterra", "cv.fixed_hyper.M", 2.0, "cv"),  # the grid sets M
        # hyperparameter values below their bounds
        ("bekk-ngrc", "estimator.grid.taus", [0], "cv"),
        ("bekk-volterra", "estimator.grid.lam_regs", [1e-3, 0], "cv"),
        ("bekk-ngrc", "cv.fixed_hyper.washout", -5, "cv"),
        ("bekk-ngrc", "estimator.hyper.tau", 0, "fit"),
        ("bekk-ngrc", "estimator.hyper.p", 0, "fit"),
        ("bekk-ngrc", "estimator.hyper.lam_reg", -1, "fit"),
        ("bekk-ngrc", "estimator.hyper.lam_reg", 0, "fit"),
        ("bekk-ngrc", "estimator.hyper.washout", -5, "fit"),
        ("bekk-polynomial", "estimator.hyper.tau", 0, "fit"),
        ("bekk-polynomial", "estimator.hyper.p", 0, "fit"),
        ("bekk-polynomial", "estimator.hyper.lam_reg", 0, "fit"),
        ("bekk-polynomial", "estimator.hyper.washout", -5, "fit"),
        ("bekk-polynomial", "estimator.hyper.c", -1, "fit"),
        ("bekk-volterra", "estimator.hyper.lam_reg", -1, "fit"),
        ("bekk-volterra", "estimator.hyper.lam_reg", 0, "fit"),
        ("bekk-volterra", "estimator.hyper.washout", -5, "fit"),
        ("bekk-volterra", "estimator.hyper.lam", 0, "fit"),
        ("bekk-volterra", "estimator.hyper.M", -1, "fit"),
    ])
    def test_out_of_range_exits_two(self, tmp_path, capsys, preset, path,
                                    value, stage):
        self.check_exits_two(tmp_path, capsys, preset, path, value, stage)

    @pytest.mark.parametrize("path, value", [
        ("estimator.hyper.theta", 2.0),  # theta M < 1
        ("estimator.hyper.lam", 0.99),  # lam < sqrt(1 - theta^2 M^2) = 0.8
        ("estimator.hyper.theta", 1e308),  # theta^2 overflows a float
    ])
    def test_volterra_joint_bound_names_the_hyper(self, tmp_path, capsys,
                                                  path, value):
        self.check_exits_two(tmp_path, capsys, "bekk-volterra", path, value,
                             "fit", field="estimator.hyper")

    @pytest.mark.parametrize("preset, path, value, stage, field", [
        # an integer field takes a whole number and no bool
        ("bekk-ngrc", "estimator.hyper.tau", 2.7, "fit", None),
        ("bekk-ngrc", "estimator.hyper.tau", True, "fit", None),
        ("bekk-ngrc", "estimator.hyper.tau", math.inf, "fit", None),
        ("bekk-ngrc", "estimator.hyper.p", True, "fit", None),
        ("bekk-ngrc", "task.horizon", 2.5, "forecast", None),
        ("bekk-ngrc", "cv.k", 2.9, "cv", None),
        ("lorenz-ngrc", "cv.fold_len", 0, "cv", None),
        ("bekk-ngrc", "seed", -1, "simulate", None),
        ("bekk-ngrc", "dataset.n_train", 3000.9, "simulate", None),
        # thetas [0.6]: theta·M = 1.2 prunes every pair
        ("bekk-volterra", "estimator.grid.M", 2.0, "cv", "estimator.grid"),
        ("bekk-volterra", "estimator.grid.thetas", [1e308], "cv",
         "estimator.grid"),
        # a string or a bool is no number, also inside a list
        ("bekk-ngrc", "estimator.hyper.tau", "2", "fit", None),
        ("bekk-ngrc", "estimator.hyper.lam_reg", "0.1", "fit", None),
        ("bekk-ngrc", "cv.k", "4", "cv", None),
        ("lorenz-ngrc", "dataset.dt", "0.005", "simulate", None),
        ("lorenz-ngrc", "dataset.initial", [True, 1.0, 1.05], "simulate",
         None),
        ("lorenz-ngrc", "dataset.initial", [0.0, "1.0", 1.05], "simulate",
         None),
        ("bekk-ngrc", "dataset.a", True, "simulate", None),
        ("bekk-ngrc", "dataset.b", "0.92", "simulate", None),
        ("bekk-ngrc", "dataset.C", BEKK_C_WITH_A_BOOL, "simulate", None),
    ])
    def test_malformed_number_exits_two(self, tmp_path, capsys, preset,
                                        path, value, stage, field):
        self.check_exits_two(tmp_path, capsys, preset, path, value, stage,
                             field)

    # Each field the fixed scoring protocol replaced, at its last shipped
    # value (a number for the two that shipped null).
    @pytest.mark.parametrize("preset, path, value", [
        ("lorenz-ngrc", "metrics.welch_nperseg", 1024),
        ("bekk-ngrc", "metrics.welch_overlap", 0.5),
        ("bekk-ngrc", "metrics.psde_fcut_bins", 513),
        ("bekk-ngrc", "metrics.w1_cap", 512),
        ("bekk-ngrc", "metrics.w1_subsample", 512),
        ("bekk-polynomial", "metrics.w1_seed", 7),
        ("mackey-glass-ngrc", "metrics.mape_eps", 1e-8),
        ("lorenz-ngrc", "metrics.pointwise_window", 1000),
        ("lorenz-ngrc", "task.valid_threshold", 0.2),
        ("lorenz-volterra", "estimator.headroom", 0.95),
    ])
    def test_deleted_field_exits_two(self, tmp_path, capsys, preset, path,
                                     value):
        cfg = copy.deepcopy(PRESETS[preset])
        section, key = path.split(".")
        cfg.setdefault(section, {})[key] = value
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run_cli("simulate", "--config", str(cfg_path),
                       "--out", str(tmp_path / "exp")) == 2
        assert f"config error: {path}: " in capsys.readouterr().err
        assert not (tmp_path / "exp").exists()

    def test_negative_seed_flag_exits_two(self, tmp_path, capsys):
        assert run_cli("simulate", "--preset", "bekk-ngrc", "--seed", "-1",
                       "--out", str(tmp_path / "exp")) == 2
        assert "config error: seed: " in capsys.readouterr().err

    @pytest.mark.parametrize("preset, path, stage", [
        ("bekk-ngrc", "estimator.hyper", "fit"),
        ("bekk-ngrc", "estimator.grid", "cv"),
        ("bekk-volterra", "cv.fixed_hyper", "cv"),
    ])
    def test_hyper_section_as_pairs_names_the_section(self, tmp_path, capsys,
                                                      preset, path, stage):
        """A hyperparameter section is an object: its entries given as a
        list of pairs exit 2 naming the section, not a name inside it."""
        section, key = path.split(".")
        pairs = [list(item) for item in PRESETS[preset][section][key].items()]
        self.check_exits_two(tmp_path, capsys, preset, path, pairs, stage)

    def test_whole_number_floats_read_as_ints(self, tmp_path):
        """``estimator.hyper.tau: 1.0`` and ``cv.k: 4.0`` fit and rank as
        the shipped ``1`` and ``4`` do."""
        runs = []
        for tau, k in ((1, 4), (1.0, 4.0)):
            cfg = copy.deepcopy(PRESETS["bekk-ngrc"])
            cfg["estimator"]["hyper"]["tau"] = tau
            cfg["cv"]["k"] = k
            cfg_path = tmp_path / f"cfg{len(runs)}.json"
            cfg_path.write_text(json.dumps(cfg))
            out = tmp_path / f"exp{len(runs)}"
            for cmd in ("simulate", "fit", "cv"):
                assert run_cli(cmd, "--config", str(cfg_path),
                               "--out", str(out)) == 0
            runs.append(
                (json.loads((out / "model.json").read_text())["estimator"],
                 (out / "leaderboard.csv").read_text()))
        assert runs[0] == runs[1]

    @staticmethod
    def check_exits_two(tmp_path, capsys, preset, path, value, stage,
                        field=None):
        """``stage`` on ``preset`` with ``path`` set to ``value`` (None: the
        key removed) exits 2 naming ``field`` (default ``path``), after its
        upstream stages."""
        cfg = copy.deepcopy(PRESETS[preset])
        *parents, key = path.split(".")
        node = cfg
        for part in parents:
            node = node[part]
        if value is None:
            del node[key]
        else:
            node[key] = value
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "exp"
        chain = ["simulate", "fit", "forecast", "eval"]
        upstream = chain[:chain.index(stage)] if stage in chain \
            else ["simulate"]
        for cmd in upstream:
            assert run_cli(cmd, "--config", str(cfg_path),
                           "--out", str(out)) == 0
        capsys.readouterr()
        assert run_cli(stage, "--config", str(cfg_path),
                       "--out", str(out)) == 2
        assert f"config error: {field or path}: " in capsys.readouterr().err

    @pytest.mark.parametrize("path, value", [
        ("n", "abc"), ("ps", 3), ("volterra.lam", "x"), ("repeats", 0),
        ("prediction_steps", 0), ("ps", [2, 0]),
        ("n", 5),  # shorter than tau (8)
        ("lam_reg", -1),
        # sizes above cli._MAX_SIZE, which numpy would refuse with a
        # ValueError
        ("n", 1e308), ("n_doubled", 1e308), ("prediction_steps", 1e308),
        ("d", 1e308), ("gram_d", 1e308),
        # sizes within that cap whose (rows + prediction_steps, width)
        # draws would hold more values
        ("n", _MAX_SIZE), ("n_doubled", _MAX_SIZE),
        ("prediction_steps", _MAX_SIZE), ("d", _MAX_SIZE),
        ("gram_d", _MAX_SIZE)])
    def test_bad_bench_setting(self, tmp_path, capsys, path, value):
        # the bench protocol is fixed, so each value that a bench setting
        # once refused is now refused as an unread key, before any output
        cfg = copy.deepcopy(PRESETS["bench-default"])
        *parents, key = path.split(".")
        node = cfg.setdefault("bench", {})
        for part in parents:
            node = node.setdefault(part, {})
        node[key] = value
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run_cli("bench", "--config", str(cfg_path),
                       "--out", str(tmp_path / "b")) == 2
        # a nested block is named down to its first key
        assert f"config error: bench.{path.split('.')[0]}: is not read" in \
            capsys.readouterr().err
        assert not (tmp_path / "b").exists()

    @pytest.mark.parametrize("path, value, field", [
        # theta·M >= 1 once failed VolterraParams; now no key is read
        ("bench.volterra.theta", 1.5, "bench.volterra"),
        ("seed", -1, "seed"),
    ])
    def test_bad_bench_value_names_its_field(self, tmp_path, capsys, path,
                                             value, field):
        cfg = copy.deepcopy(PRESETS["bench-default"])
        *parents, key = path.split(".")
        node = cfg
        for part in parents:
            node = node.setdefault(part, {})
        node[key] = value
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run_cli("bench", "--config", str(cfg_path),
                       "--out", str(tmp_path / "b")) == 2
        assert f"config error: {field}: " in capsys.readouterr().err


    @pytest.mark.parametrize("key, value", [
        ("initial", [math.nan, 1.0, 1.05]),
        ("initial", [0.0, 1.0]),
        ("dt", -0.005),
    ])
    def test_bad_lorenz_setting(self, tmp_path, capsys, key, value):
        cfg = copy.deepcopy(PRESETS["lorenz-ngrc"])
        cfg["dataset"][key] = value
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run_cli("simulate", "--config", str(cfg_path),
                       "--out", str(tmp_path / "exp")) == 2
        assert f"config error: dataset.{key}: " in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, field", [
        ("delay", 17.01, "delay"),  # not a multiple of dt_fine
        ("dt_fine", 1e12, "delay"),  # a multiple of zero fine steps
        ("delay", 0.0, "delay"),
        ("dt_fine", -0.02, "dt_fine"),
        ("splice", 0, "splice"),
        ("n_fine", 0, "n_fine"),
    ])
    def test_bad_mackey_glass_setting(self, tmp_path, capsys, key, value,
                                      field):
        cfg = copy.deepcopy(PRESETS["mackey-glass-ngrc"])
        cfg["dataset"][key] = value
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run_cli("simulate", "--config", str(cfg_path),
                       "--out", str(tmp_path / "exp")) == 2
        assert f"config error: dataset.{field}: " in capsys.readouterr().err

    @pytest.mark.parametrize("preset, key, text", [
        ("lorenz-ngrc", "path", None),  # None: the file does not exist
        ("lorenz-ngrc", "path", "# dt=1\nt,c0\n0,1.5\n1,x\n"),
        ("bekk-ngrc", "inputs_path", None),
        ("bekk-ngrc", "outputs_path", "t,c0\n0,1.5\n"),  # no dt comment
    ])
    def test_unreadable_csv_dataset(self, tmp_path, capsys, preset, key,
                                    text):
        good = tmp_path / "good.csv"
        good.write_text("# dt=1\nt,c0\n"
                        + "".join(f"{i},{i % 7}.5\n" for i in range(20)))
        cfg = copy.deepcopy(PRESETS[preset])
        paths = ("path",) if key == "path" else ("inputs_path",
                                                  "outputs_path")
        cfg["dataset"] = {"kind": "csv", "n_train": 15,
                          **{name: str(good) for name in paths}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run_cli("simulate", "--config", str(cfg_path),
                       "--out", str(tmp_path / "ok")) == 0
        bad = tmp_path / "bad.csv"
        if text is not None:
            bad.write_text(text)
        cfg["dataset"][key] = str(bad)
        cfg_path.write_text(json.dumps(cfg))
        capsys.readouterr()
        assert run_cli("simulate", "--config", str(cfg_path),
                       "--out", str(tmp_path / "exp")) == 2
        assert f"config error: dataset.{key}: " in capsys.readouterr().err

    def test_bekk_a_b_default_to_scalars(self, tmp_path):
        """Without ``dataset.a`` and ``dataset.b`` BEKK simulates as with
        0.3 and 0.9 given explicitly."""
        n_points = 401
        tables = []
        for a_b in (None, (0.3, 0.9)):
            cfg = copy.deepcopy(PRESETS["bekk-ngrc"])
            cfg["dataset"]["n_points"] = n_points
            cfg["dataset"]["n_train"] = 300
            if a_b is None:
                del cfg["dataset"]["a"], cfg["dataset"]["b"]
            else:
                cfg["dataset"]["a"], cfg["dataset"]["b"] = a_b
            cfg_path = tmp_path / f"cfg{len(tables)}.json"
            cfg_path.write_text(json.dumps(cfg))
            out = tmp_path / f"exp{len(tables)}"
            assert run_cli("simulate", "--config", str(cfg_path),
                           "--out", str(out)) == 0
            tables.append([read_csv(out / f"{name}.csv", "t")[2]
                           for name in ("train_inputs", "test_outputs")])
        for default, explicit in zip(*tables):
            assert np.array_equal(default, explicit)


# The settings block that ``bench-default`` carried before the bench
# protocol became constants of ``kernelcast.bench``.
OLD_BENCH_BLOCK = {"n": 2000, "n_doubled": 4000, "tau": 8, "d": 1,
                   "gram_d": 3, "ps": [2, 3, 4, 5], "lam_reg": 1e-6,
                   "volterra": {"lam": 0.6, "theta": 0.5}, "repeats": 5,
                   "prediction_steps": 50}


class TestUndeclaredField:
    """A non-null key that no stage reads for the config's kinds exits 2
    as the config loads, naming the dotted key, so no stage writes."""

    @pytest.mark.parametrize("preset, path, value, stage, field", [
        ("lorenz-ngrc", "task.horizn", 50, "simulate", None),
        # a block is named by its first key that holds a value
        ("lorenz-ngrc", "datset", {"name": None, "kind": "lorenz"},
         "simulate", "datset.kind"),
        # a field of another dataset kind or cv mode
        ("lorenz-ngrc", "dataset.delay", 17.0, "simulate", None),
        ("lorenz-ngrc", "cv.k", 4, "simulate", None),
        ("bekk-ngrc", "cv.fold_len", 400, "simulate", None),
        ("bekk-ngrc", "dataset.initial", [0.0, 1.0], "simulate", None),
        # the bench protocol is fixed: its old settings block is not read
        ("bench-default", "bench", OLD_BENCH_BLOCK, "bench", "bench.n"),
    ])
    def test_exits_two_naming_the_key(self, tmp_path, capsys, preset, path,
                                      value, stage, field):
        cfg = copy.deepcopy(PRESETS[preset])
        *parents, key = path.split(".")
        node = cfg
        for part in parents:
            node = node[part]
        node[key] = value
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run_cli(stage, "--config", str(cfg_path),
                       "--out", str(tmp_path / "exp")) == 2
        assert f"config error: {field or path}: is not read" in \
            capsys.readouterr().err
        assert not (tmp_path / "exp").exists()

    def test_error_lists_what_the_section_takes(self, tmp_path, capsys):
        cfg = copy.deepcopy(PRESETS["lorenz-ngrc"])
        cfg["task"]["horizn"] = 50
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run_cli("simulate", "--config", str(cfg_path),
                       "--out", str(tmp_path / "exp")) == 2
        assert capsys.readouterr().err.endswith(
            "task takes horizon, lyapunov_exponent, mode\n")

    @pytest.mark.parametrize("path, value, text", [
        ("cv.mode", "rolling", "cv.mode: invalid value 'rolling'"),
        ("dataset.kind", "henon", "dataset.kind: invalid value 'henon'"),
        ("task", 5, "task: must be an object"),
    ])
    def test_bad_kind_or_section_exits_two(self, tmp_path, capsys, path,
                                           value, text):
        cfg = copy.deepcopy(PRESETS["lorenz-ngrc"])
        *parents, key = path.split(".")
        (cfg[parents[0]] if parents else cfg)[key] = value
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run_cli("simulate", "--config", str(cfg_path),
                       "--out", str(tmp_path / "exp")) == 2
        assert f"config error: {text}" in capsys.readouterr().err

    def test_null_sets_nothing(self, tmp_path):
        cfg = copy.deepcopy(PRESETS["bekk-ngrc"])
        cfg["dataset"].update(n_points=401, n_train=300, initial=None)
        cfg["metrics"] = {"w1_cap": None}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run_cli("simulate", "--config", str(cfg_path),
                       "--out", str(tmp_path / "exp")) == 0


class TestTaskMode:
    """``fit``, ``cv`` and ``forecast`` all run the configured ``task.mode``."""

    def test_cv_ranks_candidates_in_the_configured_mode(self, tmp_path):
        # shipped lorenz-ngrc: closed-loop rollouts rank (tau 3, lam_reg
        # 1e-5) first, one-step predictions (tau 2, lam_reg 1e-7)
        best = {}
        for mode in ("path-continuation", "open-loop"):
            cfg = copy.deepcopy(PRESETS["lorenz-ngrc"])
            cfg["task"]["mode"] = mode
            path = tmp_path / f"{mode}.json"
            path.write_text(json.dumps(cfg))
            out = tmp_path / mode
            for cmd in ("simulate", "cv"):
                assert run_cli(cmd, "--config", str(path),
                               "--out", str(out)) == 0
            best[mode] = json.loads((out / "cv_best.json").read_text())["best"]
        assert best == {
            "path-continuation": {"tau": 3, "p": 2, "lam_reg": 1e-5},
            "open-loop": {"tau": 2, "p": 2, "lam_reg": 1e-7}}

    def test_simulate_manifests_name_the_task_and_files(
            self, lorenz_pipelines, mackey_glass_pipelines, bekk_pipelines):
        series = {"train": "train.csv", "test": "test.csv"}
        pairs = {name: f"{name}.csv" for name in (
            "train_inputs", "train_outputs", "test_inputs", "test_outputs")}
        for family, task, files in (
                (lorenz_pipelines, "path-continuation", series),
                (mackey_glass_pipelines, "path-continuation", series),
                (bekk_pipelines, "open-loop", pairs)):
            for preset, runs in family.items():
                manifest = json.loads(
                    (runs["a"]["dir"] / "simulate_manifest.json").read_text())
                assert (manifest["task"], manifest["files"]) == (
                    task, files), preset
                assert manifest["sizes"].keys() == files.keys(), preset


class TestNumericalFailureExit:
    def test_exhausted_grid_exits_three(self, tmp_path):
        cfg = copy.deepcopy(PRESETS["lorenz-volterra"])
        cfg["dataset"]["n_points"] = 1501
        cfg["dataset"]["n_train"] = 900
        cfg["cv"] = {"mode": "overlapping", "fold_len": 400, "val_len": 100,
                     "stride": 400,
                     "fixed_hyper": {"washout": 2000}}  # larger than any fold
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "exp"
        assert run_cli("simulate", "--config", str(path),
                       "--out", str(out)) == 0
        assert run_cli("cv", "--config", str(path), "--out", str(out)) == 3

    @pytest.mark.parametrize("preset, key, size", [
        ("mackey-glass-ngrc", "n_fine", 2**50),  # an 8 PiB fine grid
        ("lorenz-ngrc", "n_points", _MAX_SIZE // 3),  # within the size cap
    ])
    def test_allocation_beyond_memory_exits_three(self, tmp_path, capsys,
                                                  preset, key, size):
        # numpy refuses each array before allocating any of it
        cfg = copy.deepcopy(PRESETS[preset])
        cfg["dataset"][key] = size
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run_cli("simulate", "--config", str(cfg_path),
                       "--out", str(tmp_path / "exp")) == 3
        assert capsys.readouterr().err.startswith("out of memory: ")
        assert not (tmp_path / "exp").exists()

    def test_shipped_volterra_cv_names_the_cause(self, tmp_path):
        # shipped sizes: each fold refits max-norm-scale on its own rows, and
        # the closed-loop rollouts leave that ball.  Their inputs are
        # projected onto it, so cv exits 0 and every fold has a score.
        for preset in ("lorenz-volterra", "bekk-volterra",
                       "mackey-glass-volterra"):
            out = tmp_path / preset
            for cmd in ("simulate", "cv"):
                assert run_cli(cmd, "--preset", preset,
                               "--out", str(out)) == 0, (preset, cmd)
        doc = json.loads((out / "cv_best.json").read_text())
        [cand] = [c for c in doc["candidates"]
                  if c["params"]["lam"] == 0.4
                  and c["params"]["lam_reg"] == 1e-9]
        assert len(cand["fold_mse"]) == 2
        assert all(s is not None and np.isfinite(s) for s in cand["fold_mse"])
        assert cand["failures"] == []


class TestBekkPipeline:
    def test_open_loop_chain(self, tmp_path):
        cfg = copy.deepcopy(PRESETS["bekk-ngrc"])
        cfg["dataset"]["n_points"] = 401
        cfg["dataset"]["n_train"] = 300
        path = tmp_path / "bekk.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "exp"
        for cmd in ("simulate", "fit", "forecast", "eval"):
            assert run_cli(cmd, "--config", str(path),
                           "--out", str(out)) == 0
        for name in ("train_inputs.csv", "train_outputs.csv",
                     "test_inputs.csv", "test_outputs.csv"):
            assert (out / name).exists()
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["t_valid"] is None
        assert np.isfinite(metrics["w1"])


class TestShippedBekkArtifacts:
    """Artifacts of the shipped BEKK presets, run at their shipped sizes."""

    @pytest.mark.parametrize("preset, method", [
        ("bekk-polynomial", "cholesky"),  # primal, 21 features, 3007 rows
        ("bekk-ngrc", "cholesky"),        # primal, 3007 rows
    ])
    def test_fit_manifest_records_solver_route(self, bekk_pipelines, preset,
                                               method):
        out = bekk_pipelines[preset]["a"]["dir"]
        solver = json.loads((out / "fit_manifest.json").read_text())["solver"]
        assert solver["route"] == "primal"
        assert solver["method"] == method
        assert solver["jitter"] == 0.0
        assert solver["smallest_pivot"] > 0.0
        assert solver["modes_cut"] == 0

    def test_fit_manifest_records_gram_storage(self, bekk_pipelines,
                                               mackey_glass_pipelines):
        # bekk-polynomial: 21 scaled monomials against 3007 rows, no Gram
        out = bekk_pipelines["bekk-polynomial"]["a"]["dir"]
        solver = json.loads((out / "fit_manifest.json").read_text())["solver"]
        assert solver["route"] == "primal" and solver["features"] == 21
        assert solver["storage"] is None and solver["gram_bytes"] == 0
        # mackey-glass-polynomial: 5985 monomials against 2983 windows
        out = mackey_glass_pipelines["mackey-glass-polynomial"]["a"]["dir"]
        manifest = json.loads((out / "fit_manifest.json").read_text())
        n = 2983  # 2999 training pairs, tau = 17
        assert manifest["solver"]["route"] == "dual"
        assert manifest["solver"]["features"] == 5985
        assert manifest["solver"]["storage"] == "rfp"
        assert manifest["solver"]["gram_bytes"] == 8 * n * (n + 1) // 2
        for phase in ("gram_s", "solve_s", "write_s"):
            assert manifest[phase] > 0.0

    def test_metrics_csv_reads_back(self, bekk_pipelines):
        out = bekk_pipelines["bekk-polynomial"]["a"]["dir"]
        _, header, values = read_csv(out / "metrics.csv", "nmse")
        assert values.shape == (1, len(header) - 1)
        assert math.isnan(values[0, header.index("t_valid") - 1])
        assert np.isfinite(values[0, header.index("w1") - 1])


class TestFitProvenance:
    """``fit_manifest.json`` records the fit's provenance; ``model.json``
    holds only what ``forecast`` reads."""

    @pytest.mark.parametrize("preset", sorted(
        name for name in PRESETS if "task" in PRESETS[name]))
    def test_provenance_is_in_the_manifest_only(self, request, preset):
        family = preset.rsplit("-", 1)[0].replace("-", "_")
        out = request.getfixturevalue(f"{family}_pipelines")[preset]["a"]["dir"]
        manifest = json.loads((out / "fit_manifest.json").read_text())
        assert manifest["hyper"] == PRESETS[preset]["estimator"]["hyper"]
        text = (out / "model.json").read_text()
        est = json.loads(text)["estimator"]
        assert est["schema"] == "estimator/3"
        for chain, specs in (("input", est["input_specs"]),
                             ("output", est["output_specs"])):
            flags = manifest["transforms"][chain]
            assert flags is None if specs is None else len(flags) == len(
                specs)
        for key in ("hyper", "shared_pipeline", "meta", "degenerate_dims",
                    "lam_reg", "input_tail"):
            assert f'"{key}"' not in text
        if est["kind"] == "volterra":
            model = est["model"]
            assert len(model["last_column"]) == len(model["train_inputs"])


class TestMissingArtifactKey:
    """A shipped run whose upstream document lacks a key, or holds a bad
    transform value, exits 2, naming the file and the dotted key."""

    @pytest.mark.parametrize("preset, family, name, path, stage", [
        ("bekk-polynomial", "bekk", "model.json", "estimator", "forecast"),
        ("bekk-polynomial", "bekk", "simulate_manifest.json", "files", "fit"),
        ("bekk-polynomial", "bekk", "simulate_manifest.json",
         "files.test_inputs", "forecast"),
        ("bekk-polynomial", "bekk", "simulate_manifest.json", "dt", "eval"),
        ("lorenz-volterra", "lorenz", "model.json",
         "estimator.model.last_column", "forecast"),
        ("bekk-polynomial", "bekk", "model.json",
         "estimator.input_specs.0.kind", "forecast"),
        ("bekk-polynomial", "bekk", "model.json",
         "estimator.output_specs.0.kind", "forecast"),
        # a transform carries its shift (null for none) and its scale
        ("bekk-ngrc", "bekk", "model.json", "estimator.output_specs.1.scale",
         "forecast"),
        ("bekk-ngrc", "bekk", "model.json", "estimator.output_specs.0.shift",
         "forecast"),
        ("bekk-polynomial", "bekk", "model.json",
         "estimator.input_specs.0.shift", "forecast"),
        ("bekk-polynomial", "bekk", "model.json",
         "estimator.input_specs.0.scale", "forecast"),
    ])
    def test_missing_key_is_dependency_error(self, request, tmp_path, capsys,
                                             preset, family, name, path,
                                             stage):
        shipped = request.getfixturevalue(f"{family}_pipelines")
        out = tmp_path / "exp"
        shutil.copytree(shipped[preset]["a"]["dir"], out)
        doc = json.loads((out / name).read_text())
        *parents, key = path.split(".")
        node = doc
        for part in parents:
            node = node[int(part)] if isinstance(node, list) else node[part]
        del node[key]
        (out / name).write_text(json.dumps(doc))
        capsys.readouterr()
        assert run_cli(stage, "--preset", preset, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert str(out / name) in err and repr(path) in err

    @pytest.mark.parametrize("preset, family, key, value, stage", [
        # a file name that is no string, a task that is unhashable
        ("bekk-ngrc", "bekk", "files.train_inputs", None, "fit"),
        ("bekk-ngrc", "bekk", "files.test_outputs", "../test_outputs.csv",
         "forecast"),
        ("bekk-ngrc", "bekk", "task", [], "fit"),
        ("lorenz-ngrc", "lorenz", "task", {}, "cv"),
        # a step whose span of rows, or whose rate, is not finite
        ("lorenz-ngrc", "lorenz", "dt", 1e308, "eval"),
        ("bekk-ngrc", "bekk", "dt", 1e308, "eval"),
        ("lorenz-ngrc", "lorenz", "dt", 5e-324, "eval"),
        ("bekk-ngrc", "bekk", "dt", 5e-324, "eval"),
    ])
    def test_bad_simulate_manifest_value_is_dependency_error(
            self, request, tmp_path, capsys, preset, family, key, value,
            stage):
        shipped = request.getfixturevalue(f"{family}_pipelines")
        out = tmp_path / "exp"
        shutil.copytree(shipped[preset]["a"]["dir"], out)
        path = out / "simulate_manifest.json"
        doc = json.loads(path.read_text())
        *parents, last = key.split(".")
        node = doc
        for part in parents:
            node = node[part]
        node[last] = value
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run_cli(stage, "--preset", preset, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert str(path) in err and repr(key) in err

    @pytest.mark.parametrize("key, value, text", [
        ("1.scale", None, "a finite non-zero number or a list of them"),
        ("1.scale.3", None, "a finite non-zero number or a list of them"),
        ("1.scale", "abc", "a finite non-zero number or a list of them"),
        ("1.scale.0", 0.0, "a finite non-zero number or a list of them"),
        ("0.scale", True, "a finite non-zero number or a list of them"),
        ("1.shift", "abc", "null or finite numbers"),
        ("1.shift", {"a": 1}, "null or finite numbers"),
        ("0.kind", "log", "one of minmax01, standardize"),
    ])
    def test_bad_transform_value_is_dependency_error(
            self, bekk_pipelines, tmp_path, capsys, key, value, text):
        out = tmp_path / "exp"
        shutil.copytree(bekk_pipelines["bekk-ngrc"]["a"]["dir"], out)
        doc = json.loads((out / "model.json").read_text())
        *parents, last = key.split(".")
        node = doc["estimator"]["output_specs"]
        for part in parents:
            node = node[int(part)] if isinstance(node, list) else node[part]
        node[int(last) if isinstance(node, list) else last] = value
        (out / "model.json").write_text(json.dumps(doc))
        capsys.readouterr()
        assert run_cli("forecast", "--preset", "bekk-ngrc",
                       "--out", str(out)) == 2
        err = capsys.readouterr().err
        field = "estimator.output_specs." + ".".join(key.split(".")[:2])
        assert str(out / "model.json") in err and repr(field) in err
        assert text in err

    @pytest.mark.parametrize("family, preset, key, value", [
        # a per-dimension transform list whose width is not the model's
        ("bekk", "bekk-ngrc", "output_specs.1.shift", [1.0, 2.0]),
        ("bekk", "bekk-ngrc", "output_specs.1.scale", [1.0, 2.0]),
        ("lorenz", "lorenz-volterra", "input_specs.0.shift", [0.0]),
        # a kind that does not fit the model
        ("bekk", "bekk-ngrc", "kind", "volterra"),
        ("lorenz", "lorenz-volterra", "kind", "ngrc"),
        ("lorenz", "lorenz-ngrc", "kind", "foo"),
        # null output transforms share the input transforms, which a model
        # whose 15 outputs are not its 5 inputs cannot do
        ("bekk", "bekk-volterra", "output_specs", None),
        # a model value that is not what the model reads, or whose shape
        # does not fit the model (a callable value edits the stored one)
        ("lorenz", "lorenz-ngrc", "model.tau", "x"),
        ("lorenz", "lorenz-ngrc", "model.d", True),
        ("lorenz", "lorenz-ngrc", "model.p", 2.5),
        # a degree whose feature count has too many digits to print
        ("lorenz", "lorenz-polynomial", "model",
         lambda model: dict(model, p=1e308)),
        ("lorenz", "lorenz-ngrc", "model.weights", [1.0, 2.0]),
        ("lorenz", "lorenz-ngrc", "model.weights", [["x"]]),
        ("lorenz", "lorenz-volterra", "model.washout", "x"),
        ("lorenz", "lorenz-volterra", "model.washout", 10**6),
        ("lorenz", "lorenz-volterra", "model.alpha", [[1.0]]),
        ("lorenz", "lorenz-volterra", "model.train_inputs", [[0.0, None]]),
        ("lorenz", "lorenz-volterra", "model.last_column", [1.0]),
        # a sample outside the Volterra kernel's domain ||z|| <= M
        ("lorenz", "lorenz-volterra", "model.train_inputs",
         lambda rows: rows[:-1] + [[30.0, 30.0, 30.0]]),
        ("lorenz", "lorenz-volterra", "model.kernel.theta", "x"),
        ("lorenz", "lorenz-volterra", "model.kernel.tau", 2),
        ("lorenz", "lorenz-volterra", "model.kernel", {"kind": "volterra",
                                                       "lam": 0.99,
                                                       "theta": 0.9}),
        ("lorenz", "lorenz-volterra", "model.kernel.kind", "foo"),
        ("bekk", "bekk-volterra", "model.kernel.kind", ["volterra"]),
        ("bekk", "bekk-volterra", "model.kernel.kind", {"kind": "volterra"}),
        # theta^2 M^2 beyond the float range is outside the joint bound
        ("lorenz", "lorenz-volterra", "model.kernel",
         lambda kernel: dict(kernel, theta=1e308)),
        ("bekk", "bekk-volterra", "model.kernel",
         lambda kernel: dict(kernel, M=1e308)),
        ("lorenz", "lorenz-ngrc", "model.schema", "foo"),
        ("lorenz", "lorenz-ngrc", "schema", "estimator/9"),
        ("lorenz", "lorenz-ngrc", "input_specs", 3),
    ])
    def test_estimator_that_disagrees_with_its_model(
            self, request, tmp_path, capsys, family, preset, key, value):
        shipped = request.getfixturevalue(f"{family}_pipelines")
        out = tmp_path / "exp"
        shutil.copytree(shipped[preset]["a"]["dir"], out)
        doc = json.loads((out / "model.json").read_text())
        *parents, last = key.split(".")
        node = doc["estimator"]
        for part in parents:
            node = node[int(part)] if isinstance(node, list) else node[part]
        if value is ...:
            del node[last]
        else:
            node[last] = value(node[last]) if callable(value) else value
        (out / "model.json").write_text(json.dumps(doc))
        capsys.readouterr()
        assert run_cli("forecast", "--preset", preset, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert str(out / "model.json") in err
        assert repr(f"estimator.{key}") in err

    @pytest.mark.parametrize("key, value, field", [
        # a bool inside the weights is no number
        ("model.weights.0.0", True, "estimator.model.weights"),
        # lag counts whose exponent table no model can hold
        ("model.tau", 1000000, "estimator.model"),
    ])
    def test_model_value_named_by_its_key(self, lorenz_pipelines, tmp_path,
                                          capsys, key, value, field):
        out = tmp_path / "exp"
        shutil.copytree(lorenz_pipelines["lorenz-ngrc"]["a"]["dir"], out)
        doc = json.loads((out / "model.json").read_text())
        *parents, last = key.split(".")
        node = doc["estimator"]
        for part in parents:
            node = node[int(part)] if isinstance(node, list) else node[part]
        node[int(last) if isinstance(node, list) else last] = value
        (out / "model.json").write_text(json.dumps(doc))
        capsys.readouterr()
        assert run_cli("forecast", "--preset", "lorenz-ngrc",
                       "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert str(out / "model.json") in err and repr(field) in err

    def test_schema_1_model_asks_for_refit(self, lorenz_pipelines, tmp_path,
                                           capsys):
        out = tmp_path / "exp"
        shutil.copytree(lorenz_pipelines["lorenz-volterra"]["a"]["dir"], out)
        doc = json.loads((out / "model.json").read_text())
        doc["estimator"]["schema"] = "estimator/2"
        doc["estimator"]["model"]["schema"] = "kernel-model/1"
        (out / "model.json").write_text(json.dumps(doc))
        capsys.readouterr()
        assert run_cli("forecast", "--preset", "lorenz-volterra",
                       "--out", str(out)) == 2
        assert "refit" in capsys.readouterr().err

    @pytest.mark.parametrize("family, preset, key, schema", [
        # documents that still carry the hyperparameter echo, the transform
        # flags, lam_reg and the Volterra border
        ("lorenz", "lorenz-volterra", "schema", "estimator/2"),
        ("bekk", "bekk-ngrc", "schema", "estimator/1"),
    ])
    def test_older_schema_asks_for_refit(self, request, tmp_path, capsys,
                                         family, preset, key, schema):
        shipped = request.getfixturevalue(f"{family}_pipelines")
        out = tmp_path / "exp"
        shutil.copytree(shipped[preset]["a"]["dir"], out)
        doc = json.loads((out / "model.json").read_text())
        node = doc["estimator"]
        *parents, last = key.split(".")
        for part in parents:
            node = node[part]
        node[last] = schema
        (out / "model.json").write_text(json.dumps(doc))
        capsys.readouterr()
        assert run_cli("forecast", "--preset", preset, "--out", str(out)) == 2
        assert "refit" in capsys.readouterr().err

    @pytest.mark.parametrize("family, preset, widths", [
        # NG-RC on four of BEKK's five inputs, one weight row per monomial
        ("bekk", "bekk-ngrc", (4, 15)),
        # one input column more than the dataset has, and for a series,
        # whose outputs share the input transforms, one output column
        ("bekk", "bekk-volterra", (6, 15)),
        ("mackey_glass", "mackey-glass-polynomial", (2, 2)),
    ])
    def test_model_whose_widths_are_not_the_datasets(
            self, request, tmp_path, capsys, family, preset, widths):
        shipped = request.getfixturevalue(f"{family}_pipelines")
        out = tmp_path / "exp"
        shutil.copytree(shipped[preset]["a"]["dir"], out)
        doc = json.loads((out / "model.json").read_text())
        model = doc["estimator"]["model"]
        if "d" in model:
            model["d"] = widths[0]
            model["weights"] = model["weights"][:math.comb(
                model["tau"] * widths[0] + model["p"], model["p"])]
        else:  # a zero column, and a per-dimension transform value for it
            model["train_inputs"] = [row + [0.0]
                                     for row in model["train_inputs"]]
            if doc["estimator"]["output_specs"] is None:
                model["alpha"] = [row + [0.0] for row in model["alpha"]]
            for spec in doc["estimator"]["input_specs"]:
                for name, pad in (("shift", 0.0), ("scale", 1.0)):
                    if isinstance(spec[name], list):
                        spec[name].append(pad)
        (out / "model.json").write_text(json.dumps(doc))
        capsys.readouterr()
        assert run_cli("forecast", "--preset", preset, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert f"{out / 'model.json'}: the model reads {widths[0]} input " \
               f"and {widths[1]} output dimensions" in err


class TestUpstreamCsv:
    """A shipped run whose upstream CSV is missing or malformed exits 2 at
    the stage that reads it, naming the file."""

    @staticmethod
    def run_on_copy(shipped, tmp_path, capsys, preset, name, stage, edit):
        """``stage`` of ``preset`` on a copy of the ``shipped`` run whose
        ``name`` went through ``edit(lines)`` (None: the file removed);
        returns the exit code and stderr."""
        out = tmp_path / "exp"
        shutil.copytree(shipped[preset]["a"]["dir"], out)
        path = out / name
        if edit is None:
            path.unlink()
        else:
            path.write_text("".join(edit(path.read_text().splitlines(
                keepends=True))))
        capsys.readouterr()
        code = run_cli(stage, "--preset", preset, "--out", str(out))
        return code, capsys.readouterr().err, path

    @staticmethod
    def corrupt_cell(lines):
        header = next(i for i, line in enumerate(lines)
                      if not line.startswith("#"))
        cells = lines[header + 3].split(",")
        cells[1] = "1.2.3"
        lines[header + 3] = ",".join(cells)
        return lines

    @pytest.mark.parametrize("name, stage, corrupt", [
        ("train_inputs.csv", "fit", True),
        ("train_outputs.csv", "cv", True),
        ("test_outputs.csv", "forecast", True),
        ("forecast.csv", "eval", True),
        ("forecast.csv", "eval", False),  # removed
        ("test_inputs.csv", "forecast", False),
    ])
    def test_exits_two_naming_the_file(self, bekk_pipelines, tmp_path,
                                       capsys, name, stage, corrupt):
        code, err, path = self.run_on_copy(
            bekk_pipelines, tmp_path, capsys, "bekk-ngrc", name, stage,
            self.corrupt_cell if corrupt else None)
        assert code == 2
        assert (f"corrupt upstream artifact {path}: line " if corrupt
                else f"missing upstream artifact: {path}") in err

    @pytest.mark.parametrize("cell", ["nan", "inf", "1e999"])
    def test_non_finite_forecast_cell_exits_two(self, bekk_pipelines,
                                                tmp_path, capsys, cell):
        def edit(lines):
            header = next(i for i, line in enumerate(lines)
                          if not line.startswith("#"))
            cells = lines[header + 3].split(",")
            cells[1] = cell  # pred0 of step 3
            lines[header + 3] = ",".join(cells)
            return lines

        code, err, path = self.run_on_copy(
            bekk_pipelines, tmp_path, capsys, "bekk-ngrc", "forecast.csv",
            "eval", edit)
        assert code == 2
        lines = path.read_text().splitlines()
        line = next(i for i, text in enumerate(lines, 1)
                    if text.startswith("3,"))
        assert f"corrupt upstream artifact {path}: line {line}: " in err

    @pytest.mark.parametrize("comments, key", [
        ("# error_step=-7\n# error=non-finite prediction\n", "error_step"),
        ("# horizon=-5\n", "horizon"),
    ])
    def test_bad_forecast_comment_exits_two(self, bekk_pipelines, tmp_path,
                                            capsys, comments, key):
        def edit(lines):
            return [comments] + [line for line in lines
                                 if not line.startswith(f"# {key}=")]

        code, err, path = self.run_on_copy(
            bekk_pipelines, tmp_path, capsys, "bekk-ngrc", "forecast.csv",
            "eval", edit)
        assert code == 2
        assert f"corrupt upstream artifact {path}: {key}=-" in err

    @pytest.mark.parametrize("name, stage", [
        ("simulate_manifest.json", "fit"),
        ("train_inputs.csv", "fit"),
        ("test_outputs.csv", "forecast"),
        ("fit_manifest.json", "forecast"),
        ("model.json", "forecast"),
        ("forecast_manifest.json", "eval"),
        ("forecast.csv", "eval"),
    ])
    def test_stale_file_is_dependency_error(self, bekk_pipelines, tmp_path,
                                            capsys, name, stage):
        sha = config_hash(PRESETS["bekk-ngrc"])

        def edit(lines):
            return [line.replace(sha, "0" * 64) for line in lines]

        code, err, path = self.run_on_copy(
            bekk_pipelines, tmp_path, capsys, "bekk-ngrc", name, stage, edit)
        assert code == 2
        assert f"{path} was produced under another config" in err

    @pytest.mark.parametrize("comment, replacement, text", [
        ("# mode=", "", "has no key 'mode'"),
        ("# horizon=", "", "has no key 'horizon'"),
        ("# mode=", "# mode=closed-loop\n", "unknown task mode 'closed-loop'"),
    ])
    def test_forecast_mode_and_horizon_are_read_from_the_file(
            self, lorenz_pipelines, tmp_path, capsys, comment, replacement,
            text):
        def edit(lines):
            return [replacement if line.startswith(comment) else line
                    for line in lines]

        code, err, path = self.run_on_copy(
            lorenz_pipelines, tmp_path, capsys, "lorenz-ngrc", "forecast.csv",
            "eval", edit)
        assert code == 2 and str(path) in err and text in err


def test_forecast_manifest_counts_projected_inputs(lorenz_pipelines):
    # the shipped Volterra rollout stays inside the norm ball
    out = lorenz_pipelines["lorenz-volterra"]["a"]["dir"]
    manifest = json.loads((out / "forecast_manifest.json").read_text())
    assert manifest["projected"] == 0 and manifest["truncated"] is False


class TestBench:
    def test_samples_last_at_least_the_minimum(self, monkeypatch):
        from kernelcast import bench

        calls = []

        def fn():
            calls.append(1)
            time.sleep(0.01)

        monkeypatch.setattr(bench, "_MIN_SAMPLE_S", 0.05)
        median_s, min_s = bench._time_sweep({"f": fn}, 3)["f"]
        # probing times 1, 2 and then 5 calls (>= 0.05 s), then 3 samples
        assert len(calls) == 1 + 2 + 5 + 3 * 5
        assert 0.01 <= min_s <= median_s


    def test_degenerate_single_sample_completes(self, tmp_path, monkeypatch):
        from kernelcast import bench

        # one row, one tap, one sample per timing
        for name, value in {"N": 1, "N_DOUBLED": 2, "TAU": 1, "D": 1,
                            "GRAM_D": 1, "PS": (1,), "REPEATS": 1,
                            "PREDICTION_STEPS": 1,
                            "VOLTERRA": VolterraParams(0.5, 0.5)}.items():
            monkeypatch.setattr(bench, name, value)
        # one row cannot determine the two NG-RC features, and the fit says so
        with pytest.warns(UserWarning, match="underdetermined"):
            assert run_cli("bench", "--preset", "bench-default",
                           "--out", str(tmp_path / "b")) == 0
        text = (tmp_path / "b" / "bench.csv").read_text()
        assert "asymptotic" in text

    def test_bench_csv_has_complexity_columns(self, tmp_path, monkeypatch):
        from kernelcast import bench

        # the protocol at small sizes, for speed
        for name, value in {"N": 64, "N_DOUBLED": 128, "TAU": 2, "D": 1,
                            "GRAM_D": 2, "PS": (1, 2), "REPEATS": 2,
                            "PREDICTION_STEPS": 4,
                            "VOLTERRA": VolterraParams(0.5, 0.5),
                            "_MIN_SAMPLE_S": 0.0}.items():
            monkeypatch.setattr(bench, name, value)
        assert run_cli("bench", "--preset", "bench-default",
                       "--out", str(tmp_path / "b")) == 0
        lines = (tmp_path / "b" / "bench.csv").read_text().splitlines()
        header = lines[1].split(",")
        assert header == ["op", "n", "tau", "p", "d", "median_s", "min_s",
                          "repeats", "asymptotic"]
        ops = {line.split(",")[0] for line in lines[2:]}
        assert {"ngrc-train", "poly-gram", "volterra-gram",
                "ngrc-predict", "poly-predict", "volterra-predict"} <= ops


SRC = Path(__file__).resolve().parents[1] / "src"
# scipy subpackages that no stage loads: the package integrates, matches
# and transforms on numpy, and factors on SciPy's LAPACK extension alone
DEFERRED_SCIPY = ("scipy.integrate", "scipy.signal", "scipy.optimize",
                  "scipy.spatial", "scipy.stats")
# a first call of each function that once loaded a deferred subpackage
FIRST_CALLS = {
    "welch_psd": "welch_psd(np.sin(0.3 * np.arange(512.0)), 128).power.sum()",
    "w1_nd": "w1_nd(np.eye(3), 2.0 * np.eye(3)[::-1])",
    "simulate_lorenz": "simulate_lorenz(n_points=200).values[-1].sum()",
    "simulate_mackey_glass": "simulate_mackey_glass(n_fine=2000).values[-1, 0]",
}
_FIRST_CALL_IMPORTS = """
from kernelcast.datasets import simulate_lorenz, simulate_mackey_glass
from kernelcast.metrics import w1_nd, welch_psd
"""
# package modules that a stage, run alone in a fresh process, does not load
UNLOADED = {
    "simulate": ("estimators", "kernels", "ngrc", "preprocess", "forecast",
                 "metrics", "cv"),
    "fit": ("metrics",),
    "forecast": ("metrics", "cv"),
    "eval": ("estimators", "kernels", "ngrc", "preprocess", "cv"),
}
_PRELUDE = """
import json, sys
import numpy as np
import kernelcast.cli


def loaded(names):  # the imported ones of the scipy subpackages ``names``
    return sorted({".".join(m.split(".")[:2]) for m in sys.modules}
                  & set(names))


def public_scipy_packages():  # scipy.linalg, not scipy._lib or scipy.version
    return sorted(m for m in sys.modules if m.count(".") == 1
                  and m.startswith("scipy.") and not m.startswith("scipy._")
                  and sys.modules[m].__spec__.submodule_search_locations)
"""


def _run_fresh(body: str) -> dict:
    """Run ``body`` after the prelude in a new interpreter; parse its JSON."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", _PRELUDE + body],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestImportBoundary:
    """``import kernelcast.cli`` loads the standard library and the command
    line front end, neither numpy nor scipy; numpy loads with the first
    module a stage runs.  Only the stages that solve (``fit``, ``cv``, the
    BEKK ``simulate``) load SciPy's LAPACK extension,
    ``scipy/linalg/_flapack``, and no stage loads a scipy subpackage,
    ``scipy.linalg`` included: the package has its own ODE, spectral and
    matching code and calls LAPACK through that one module."""

    def test_cli_import_loads_no_deferred_scipy(self):
        loaded = _run_fresh(
            "print(json.dumps(sorted(m for m in sys.modules "
            "if m.startswith('scipy.'))))")
        assert "scipy.linalg" not in loaded
        assert [m for m in loaded
                if ".".join(m.split(".")[:2]) in DEFERRED_SCIPY] == []

    def test_cli_import_adds_only_known_modules(self):
        # set-up time is the import: ``import kernelcast.cli`` loads the
        # command line front end and these standard-library modules, and no
        # numpy; each stage imports the package modules it runs, so a new
        # start-up import has to be added here on purpose.  The child runs
        # without ``site`` (``-S``), whose start-up and ``.pth`` files may
        # load modules of their own, so the list is what the front end
        # itself needs: 45 modules over the bare interpreter's 23.
        known = {"__future__", "_blake2", "_collections", "_collections_abc",
                 "_functools", "_hashlib", "_json", "_operator", "_sre",
                 "_stat", "argparse", "collections", "copyreg", "enum",
                 "functools", "genericpath", "gettext", "hashlib",
                 "importlib", "importlib._bootstrap",
                 "importlib._bootstrap_external", "itertools", "json",
                 "json.decoder", "json.encoder", "json.scanner", "keyword",
                 "math", "operator", "os", "os.path", "posixpath", "re",
                 "re._casefix", "re._compiler", "re._constants",
                 "re._parser", "reprlib", "stat", "types", "warnings"}
        proc = subprocess.run(
            [sys.executable, "-S", "-c",
             "import sys\nbefore = set(sys.modules)\n"
             "import kernelcast.cli\n"
             "print('\\n'.join(sorted(set(sys.modules) - before)))"],
            capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=str(SRC)))
        assert proc.returncode == 0, proc.stderr
        added = set(proc.stdout.split())
        package = {m for m in added
                   if m == "kernelcast" or m.startswith("kernelcast.")}
        assert package == {"kernelcast", "kernelcast.cli", "kernelcast.errors",
                           "kernelcast.presets"}
        assert added - package <= known
        assert [m for m in added if m.split(".")[0] == "numpy"] == []

    @pytest.mark.parametrize("argv, code", [
        (["--help"], 0),
        (["--version"], 0),
        (["simulate", "--preset", "nope", "--out", "{tmp}/o"], 2),
        (["simulate", "--config", "{tmp}/bad.json", "--out", "{tmp}/o"], 2),
        (["simulate", "--config", "{tmp}/unread.json", "--out", "{tmp}/o"], 2),
        (["simulate", "--preset", "lorenz-ngrc", "--config", "{tmp}/bad.json",
          "--out", "{tmp}/o"], 2),
        (["simulate", "--out", "{tmp}/o"], 2),
        (["simulate", "--preset", "lorenz-ngrc", "--out", "{tmp}/bad.json"],
         2),
    ], ids=["help", "version", "unknown-preset", "invalid-json", "unread-key",
            "both-flags", "neither-flag", "file-as-out"])
    def test_front_end_exit_loads_no_numpy(self, tmp_path, argv, code):
        # a process that ends in the front end never imports numpy
        (tmp_path / "bad.json").write_text("{not json")
        cfg = copy.deepcopy(PRESETS["lorenz-ngrc"])
        cfg["task"]["horizn"] = 10
        (tmp_path / "unread.json").write_text(json.dumps(cfg))
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        proc = subprocess.run(
            [sys.executable, "-c",
             "import contextlib, io, json, sys\nimport kernelcast.cli\n"
             "with contextlib.redirect_stdout(io.StringIO()), "
             "contextlib.redirect_stderr(io.StringIO()):\n"
             "    try:\n"
             f"        code = kernelcast.cli.main({argv!r})\n"
             "    except SystemExit as exc:\n"
             "        code = exc.code\n"
             "print(json.dumps([code, sorted(m for m in sys.modules "
             "if m.split('.')[0] == 'numpy')]))"],
            capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=str(SRC)))
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [code, []]
        assert not (tmp_path / "o").exists()

    def test_size_cap_is_numpy_largest_array(self):
        # the front end sets the cap without numpy; it is the same number
        from kernelcast import cli

        assert cli._MAX_SIZE == np.iinfo(np.intp).max // 8

    @pytest.mark.parametrize("name", sorted(FIRST_CALLS))
    def test_first_call_in_fresh_process(self, name):
        expr = FIRST_CALLS[name]
        got = _run_fresh(
            _FIRST_CALL_IMPORTS +
            f"before = loaded({DEFERRED_SCIPY!r})\n"
            f"value = float({expr})\n"
            f"print(json.dumps([before, value, loaded({DEFERRED_SCIPY!r})]))")
        here = {}
        exec(_PRELUDE + _FIRST_CALL_IMPORTS, here)
        before, value, after = got
        assert before == after == []
        assert value == float(eval(expr, here))

    def test_eval_loads_no_spectral_or_statistics_code(self, bekk_pipelines,
                                                       tmp_path):
        out = tmp_path / "exp"
        shutil.copytree(bekk_pipelines["bekk-polynomial"]["a"]["dir"], out)
        heavy = ("scipy.signal", "scipy.stats", "scipy.interpolate",
                 "scipy.ndimage")
        got = _run_fresh(
            "import contextlib, io\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = kernelcast.cli.main(['eval', '--preset', "
            f"'bekk-polynomial', '--out', {str(out)!r}])\n"
            f"print(json.dumps([code, loaded({heavy!r})]))")
        assert got == [0, []]

    def test_no_stage_loads_a_scipy_package(self, tmp_path):
        # shipped presets at their shipped sizes, every stage in one process
        runs = [("lorenz-ngrc", ("simulate", "fit", "forecast", "eval")),
                ("bekk-polynomial",
                 ("simulate", "fit", "forecast", "eval", "cv")),
                ("mackey-glass-ngrc", ("simulate",))]
        got = _run_fresh(
            "import contextlib, io\n"
            "codes = []\n"
            f"for preset, stages in {runs!r}:\n"
            "    for stage in stages:\n"
            "        with contextlib.redirect_stdout(io.StringIO()):\n"
            "            codes.append(kernelcast.cli.main([stage, '--preset', "
            f"preset, '--out', {str(tmp_path)!r} + '/' + preset]))\n"
            "print(json.dumps([codes, public_scipy_packages(), "
            "'scipy.linalg' in sys.modules]))")
        assert got == [[0] * 10, [], False]

    @pytest.mark.parametrize("preset, family, stage, loads", [
        ("lorenz-ngrc", "lorenz", "forecast", False),
        ("lorenz-ngrc", "lorenz", "eval", False),
        ("bekk-polynomial", "bekk", "forecast", False),
        ("bekk-polynomial", "bekk", "eval", False),
        ("lorenz-ngrc", None, "simulate", False),
        ("mackey-glass-ngrc", None, "simulate", False),
        ("bekk-polynomial", None, "simulate", True),  # psd_sqrt
        ("lorenz-ngrc", "lorenz", "fit", True),
    ])
    def test_only_solving_stages_load_scipy_linalg(self, request, tmp_path,
                                                   preset, family, stage,
                                                   loads):
        # shipped presets at their shipped sizes, one stage per process;
        # ``loads``: the stage loads SciPy's LAPACK extension, not the
        # scipy.linalg package, and stays under 300 modules (a fit that
        # imported scipy.linalg loaded 557).  No stage loads a package
        # module that it does not run (UNLOADED).
        out = tmp_path / "exp"
        if family is not None:
            shipped = request.getfixturevalue(f"{family}_pipelines")
            shutil.copytree(shipped[preset]["a"]["dir"], out)
        got = _run_fresh(
            "import contextlib, io\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = kernelcast.cli.main([{stage!r}, '--preset', "
            f"{preset!r}, '--out', {str(out)!r}])\n"
            "print(json.dumps([code, 'scipy.linalg' in sys.modules, "
            "kernelcast.linsolve._lapack.cache_info().currsize == 1, "
            "len(sys.modules), [m for m in sys.modules "
            "if m.startswith('kernelcast.')]]))")
        assert got[:3] == [0, False, loads]
        assert got[3] < 300
        assert {f"kernelcast.{m}" for m in UNLOADED[stage]}.isdisjoint(got[4])

    @pytest.mark.parametrize("preset, family, stage", [
        ("bekk-polynomial", None, "simulate"),  # the BEKK innovations
        ("bekk-polynomial", "bekk", "eval"),  # the W1 subsample
        ("bekk-polynomial", "bekk", "cv"),
        ("lorenz-ngrc", "lorenz", "eval"),
        ("bench-default", None, "bench"),  # the timed inputs
    ])
    def test_no_stage_loads_numpy_random(self, request, tmp_path, preset,
                                         family, stage):
        # shipped presets, one stage per process: the seeded draws come
        # from the package's own Philox stream.  ``bench`` runs each timed
        # closure once per sample, which changes no draw.
        out = tmp_path / "exp"
        if family is not None:
            shipped = request.getfixturevalue(f"{family}_pipelines")
            shutil.copytree(shipped[preset]["a"]["dir"], out)
        got = _run_fresh(
            "import contextlib, io\n"
            "import kernelcast.bench\n"
            "kernelcast.bench._MIN_SAMPLE_S = 0.0\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = kernelcast.cli.main([{stage!r}, '--preset', "
            f"{preset!r}, '--out', {str(out)!r}])\n"
            "print(json.dumps([code, sorted(m for m in sys.modules "
            "if m.startswith('numpy.random'))]))")
        assert got == [0, []]

    @pytest.mark.parametrize("module", sorted(
        p.name for p in (SRC / "kernelcast").glob("*.py")))
    def test_no_module_names_numpy_random(self, module):
        # ``np.random`` loads numpy's random package on first use; the
        # package draws from ``datasets.Philox`` instead
        path = SRC / "kernelcast" / module
        found = []
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute):
                names = [ast.unparse(node)]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                names = []
            found += [node.lineno for name in names
                      if name in ("np.random", "numpy.random")
                      or name.startswith(("np.random.", "numpy.random."))]
        assert found == [], f"{module}: numpy.random named at lines {found}"

    def test_bench_imports_nothing_from_cli(self):
        # the bench protocol is constants of ``bench``; it reads no config
        path = SRC / "kernelcast" / "bench.py"
        found = []
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.name for alias in node.names]
                if isinstance(node, ast.ImportFrom):
                    names.append(node.module or "")
                found += [node.lineno for name in names
                          if name.split(".")[-1] == "cli"]
        assert found == [], f"bench.py imports from cli at lines {found}"

    @pytest.mark.parametrize("module", sorted(
        p.name for p in (SRC / "kernelcast").glob("*.py")))
    def test_no_module_imports_scipy_at_module_level(self, module):
        # a module-level import would load SciPy in every stage; only the
        # solving stages load it, and then only its LAPACK extension
        path = SRC / "kernelcast" / module
        nodes = list(ast.parse(path.read_text(), str(path)).body)
        found = []
        while nodes:
            node = nodes.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue  # runs at a call, not at import
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                names = []
            found += [node.lineno for name in names
                      if name == "scipy" or name.startswith("scipy.")]
            nodes.extend(ast.iter_child_nodes(node))
        assert found == [], f"{module}: scipy imported at lines {found}"


class TestConfigReaders:
    """Every config number is read through a checked converter such as
    ``int_in`` or ``positive``: a bare ``int`` or ``float`` would truncate
    a fraction or pass a bool, a negative value or a NaN."""

    @pytest.mark.parametrize("module", ["cli.py"])
    def test_no_get_converts_with_bare_int_or_float(self, module):
        path = Path(__file__).resolve().parents[1] / "src" / "kernelcast" \
            / module
        bare = []
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "_get"):
                continue
            convs = node.args[2:] + [kw.value for kw in node.keywords
                                     if kw.arg == "conv"]
            bare += [node.lineno for conv in convs
                     if isinstance(conv, ast.Name)
                     and conv.id in ("int", "float")]
        assert bare == [], f"{module}: _get(..., int/float) at lines {bare}"

    def test_no_field_converts_with_bare_int_or_float(self):
        from kernelcast.cli import FIELDS, FIELDS_BY

        tables = [FIELDS, *(table for by_kind in FIELDS_BY.values()
                            for table in by_kind.values())]
        bare = [path for table in tables
                for path, (conv, _default) in table.items()
                if conv in (int, float)]
        assert bare == [], f"fields read with a bare int or float: {bare}"


class TestReadme:
    def test_configuration_sketch_simulates(self, tmp_path):
        """The JSON under README's "Configuration sketch" is a config that
        ``simulate`` accepts."""
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        section = readme.split("### Configuration sketch", 1)[1]
        sketch = section.split("```json\n", 1)[1].split("```", 1)[0]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(sketch)
        assert run_cli("simulate", "--config", str(cfg_path),
                       "--out", str(tmp_path / "exp")) == 0


class TestEntryPoint:
    def test_console_script_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "kernelcast.cli", "--version"],
            capture_output=True, text=True)
        assert proc.returncode == 0

    def test_seed_override_changes_hash(self, tmp_path, mini_lorenz_config):
        cfg, cfg_path = mini_lorenz_config
        out = tmp_path / "exp"
        assert run_cli("simulate", "--config", str(cfg_path), "--out",
                       str(out), "--seed", "99") == 0
        manifest = json.loads((out / "simulate_manifest.json").read_text())
        assert manifest["seed"] == 99
        assert manifest["config_sha256"] != config_hash(cfg)
