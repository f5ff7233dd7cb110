import math

import numpy as np
import pytest

from kernelcast import preprocess
from kernelcast.cv import (
    CandidateResult,
    Grid,
    GridSearchResult,
    expanding_folds,
    grid_search,
    overlapping_folds,
)
from kernelcast.errors import GridSearchError, InvalidInputError
from kernelcast.estimators import fit_task
from kernelcast.forecast import open_loop


def enumerate_overlapping(n, fold_len, val_len, stride):
    folds = []
    s = 0
    while s + fold_len + val_len <= n:
        folds.append((s, s + fold_len, s + fold_len, s + fold_len + val_len))
        s += stride
    return folds


class TestOverlappingFolds:
    def test_example_geometry(self):
        plan = overlapping_folds(10, 4, 2, 4)
        assert [(f.train_start, f.train_stop, f.val_start, f.val_stop)
                for f in plan.folds] == [(0, 4, 4, 6), (4, 8, 8, 10)]

    def test_small_stride_overlaps_training_windows(self):
        plan = overlapping_folds(20, 8, 2, 3)
        starts = [f.train_start for f in plan.folds]
        assert starts == [0, 3, 6, 9]
        assert plan.folds[1].train_start < plan.folds[0].train_stop

    def test_count_formula_against_enumeration(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(5, 200))
            fold_len = int(rng.integers(1, n))
            val_len = int(rng.integers(1, max(2, n - fold_len + 1)))
            stride = int(rng.integers(1, 20))
            expected = enumerate_overlapping(n, fold_len, val_len, stride)
            if not expected:
                with pytest.raises(InvalidInputError):
                    overlapping_folds(n, fold_len, val_len, stride)
                continue
            plan = overlapping_folds(n, fold_len, val_len, stride)
            got = [(f.train_start, f.train_stop, f.val_start, f.val_stop)
                   for f in plan.folds]
            assert got == expected

    def test_infeasible_geometry(self):
        with pytest.raises(InvalidInputError):
            overlapping_folds(5, 4, 2, 1)


class TestExpandingFolds:
    def test_example(self):
        plan = expanding_folds(9, 3)
        assert [(f.train_start, f.train_stop, f.val_start, f.val_stop)
                for f in plan.folds] == [(0, 3, 3, 6), (0, 6, 6, 9)]

    def test_k_two_single_fold(self):
        plan = expanding_folds(10, 2)
        assert len(plan.folds) == 1

    def test_remainder_goes_to_last_block(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            n = int(rng.integers(4, 200))
            k = int(rng.integers(2, min(n, 8) + 1))
            plan = expanding_folds(n, k)
            block = n // k
            assert len(plan.folds) == k - 1
            for i, fold in enumerate(plan.folds, start=1):
                assert fold.train_start == 0
                assert fold.train_stop == i * block
                assert fold.val_start == i * block
            assert plan.folds[-1].val_stop == n

    def test_validation_never_precedes_training(self):
        for plan in (expanding_folds(50, 5), overlapping_folds(50, 10, 5, 7)):
            for fold in plan.folds:
                assert fold.val_start >= fold.train_stop

    def test_invalid_k(self):
        with pytest.raises(InvalidInputError):
            expanding_folds(10, 1)
        with pytest.raises(InvalidInputError):
            expanding_folds(3, 4)


class TestGrid:
    def test_lagged_candidates_in_product_order(self):
        grid = Grid(taus=[1, 2], ps=[2], lam_regs=[0.1, 0.2])
        cands, pruned = grid.candidates("ngrc")
        assert pruned == []
        assert cands[0] == {"tau": 1, "p": 2, "lam_reg": 0.1}
        assert len(cands) == 4

    def test_volterra_pruning(self):
        grid = Grid(lams=[0.5, 0.99], thetas=[0.3, 1.2], lam_regs=[1e-6])
        cands, pruned = grid.candidates("volterra")
        for c in cands:
            assert c["theta"] ** 2 < 1.0
            assert c["lam"] < math.sqrt(1.0 - c["theta"] ** 2)
        for c in pruned:
            assert (c["theta"] ** 2 >= 1.0
                    or c["lam"] >= math.sqrt(max(1.0 - c["theta"] ** 2, 0.0)))
        assert len(cands) + len(pruned) == 4

    def test_volterra_pairs_outside_the_kernel_domain_are_pruned(self):
        grid = Grid(lams=[0.5, 0.99], thetas=[-0.3, 0.0, 0.3],
                    lam_regs=[1e-6], M=1.0)
        cands, pruned = grid.candidates("volterra")
        # sqrt(1 - 0.3^2) = 0.954 bounds lam; theta must be positive
        assert cands == [{"lam": 0.5, "theta": 0.3, "lam_reg": 1e-6,
                          "M": 1.0}]
        assert [(c["lam"], c["theta"]) for c in pruned] == [
            (0.5, -0.3), (0.5, 0.0), (0.99, -0.3), (0.99, 0.0), (0.99, 0.3)]

    def test_empty_grid_rejected(self):
        with pytest.raises(InvalidInputError):
            Grid(taus=[1], ps=[1], lam_regs=[]).candidates("ngrc")


def make_planted_series(n=400, seed=3):
    """Chaotic series realizable exactly by NG-RC with (tau=2, p=2):
    x_{t+1} = 1 - 1.4 x_t^2 + 0.3 x_{t-1}."""
    rng = np.random.default_rng(seed)
    x = np.zeros(n)
    x[0], x[1] = 0.1 * rng.random(), 0.1 * rng.random()
    for t in range(2, n):
        x[t] = 1.0 - 1.4 * x[t - 1] ** 2 + 0.3 * x[t - 2]
    return x


class TestGridSearch:
    def test_single_candidate_returned(self):
        series = make_planted_series()
        grid = Grid(taus=[2], ps=[2], lam_regs=[1e-8])
        plan = overlapping_folds(400, 200, 50, 100)
        result = grid_search("ngrc", grid, plan, "path-continuation",
                             (series,))
        assert result.best == {"tau": 2, "p": 2, "lam_reg": 1e-8}

    def test_recovers_planted_order(self):
        series = make_planted_series()
        grid = Grid(taus=[1, 2], ps=[1, 2], lam_regs=[1e-8])
        plan = overlapping_folds(400, 200, 50, 100)
        result = grid_search("ngrc", grid, plan, "path-continuation",
                             (series,))
        assert result.best["tau"] == 2
        assert result.best["p"] == 2

    def test_tie_break_prefers_simpler(self):
        # constant series: every candidate fits perfectly; ties resolve to
        # the smallest p, smallest tau, largest ridge
        series = np.zeros(120)
        grid = Grid(taus=[2, 1], ps=[2, 1], lam_regs=[1e-6, 1e-2])
        plan = overlapping_folds(120, 60, 20, 40)
        result = grid_search("ngrc", grid, plan, "path-continuation",
                             (series,))
        assert result.best == {"tau": 1, "p": 1, "lam_reg": 1e-2}

    def test_open_loop_mode(self):
        rng = np.random.default_rng(4)
        inputs = rng.normal(size=(240, 2))
        outputs = np.column_stack([
            inputs[:, 0] * 0.5 + inputs[:, 1] ** 2,
            inputs[:, 1] * 0.1,
        ])
        grid = Grid(taus=[1], ps=[1, 2], lam_regs=[1e-8])
        plan = expanding_folds(240, 4)
        result = grid_search("ngrc", grid, plan, "open-loop",
                             (inputs, outputs))
        assert result.best["p"] == 2

    def test_open_loop_on_a_series_scores_one_step_predictions(self):
        # each fold predicts its validation samples from the samples one
        # step behind them, with no feedback, as forecast does on a test span
        series = make_planted_series()[:, None]
        grid = Grid(taus=[1, 2], ps=[2], lam_regs=[1e-6])
        plan = overlapping_folds(400, 200, 50, 100)
        result = grid_search("ngrc", grid, plan, "open-loop", (series,))
        for row in result.table:
            expected = []
            for fold in plan.folds:
                est = fit_task(
                    "ngrc", row.params,
                    (series[fold.train_start:fold.train_stop],))
                val = series[fold.val_start:fold.val_stop]
                run = open_loop(
                    est, series[fold.train_start:fold.train_stop - 1],
                    series[fold.val_start - 1:fold.val_stop - 1])
                expected.append(float(np.mean((run.predicted - val) ** 2)))
            assert row.fold_mse == expected
        closed = grid_search("ngrc", grid, plan, "path-continuation",
                             (series,))
        assert [row.fold_mse for row in closed.table] != [
            row.fold_mse for row in result.table]

    def test_task_mode_must_suit_the_span(self):
        grid = Grid(taus=[1], ps=[1], lam_regs=[1e-6])
        plan = expanding_folds(100, 2)
        pairs = (np.ones((100, 1)), np.ones((100, 1)))
        with pytest.raises(InvalidInputError, match="needs a series"):
            grid_search("ngrc", grid, plan, "path-continuation", pairs)
        with pytest.raises(InvalidInputError, match="unknown task mode"):
            grid_search("ngrc", grid, plan, "closed-loop", pairs)

    def test_fixed_hyper_merged(self):
        rng = np.random.default_rng(5)
        series = 0.3 * np.sin(np.arange(300) * 0.2) + 0.01 * rng.normal(size=300)
        grid = Grid(lams=[0.5], thetas=[0.4], lam_regs=[1e-6])
        plan = overlapping_folds(300, 150, 40, 110)
        result = grid_search("volterra", grid, plan, "path-continuation",
                             (series,), fixed_hyper={"washout": 20})
        assert "lam" in result.best

    def test_leaderboard_csv(self, tmp_path):
        series = make_planted_series()
        grid = Grid(taus=[1, 2], ps=[2], lam_regs=[1e-8])
        plan = overlapping_folds(400, 200, 50, 150)
        result = grid_search("ngrc", grid, plan, "path-continuation",
                             (series,))
        path = tmp_path / "leaderboard.csv"
        result.leaderboard_csv(path)
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        assert lines[0].split(",")[-1] == "mean_mse"

    def test_foreign_exception_in_fold_propagates(self, monkeypatch):
        import kernelcast.cv as cv_module

        def broken(*args, **kwargs):
            raise RuntimeError("bug inside a fold")

        monkeypatch.setattr(cv_module, "_score_fold", broken)
        plan = overlapping_folds(400, 200, 50, 150)
        with pytest.raises(RuntimeError, match="bug inside a fold"):
            grid_search("ngrc", Grid(taus=[1], ps=[2], lam_regs=[1e-8]),
                        plan, "path-continuation",
                        (make_planted_series(),))

    def test_leaderboard_golden_text(self, tmp_path):
        table = [
            CandidateResult({"tau": 1, "p": 2, "lam_reg": 1e-8}, [0.1], 0.1),
            CandidateResult({"tau": 2, "p": 2, "lam_reg": 1e-8},
                            [math.inf], math.inf),
        ]
        result = GridSearchResult(dict(table[0].params), table, [])
        path = tmp_path / "leaderboard.csv"
        result.leaderboard_csv(path)
        assert path.read_bytes() == (
            b"lam_reg,p,tau,mean_mse\n"
            b"1e-08,2,1,0.10000000000000001\n"
            b"1e-08,2,2,inf\n"
        )

    def test_grid_order_invariance_up_to_tie_break(self):
        series = make_planted_series(seed=6)
        plan = overlapping_folds(400, 200, 50, 150)
        a = grid_search("ngrc", Grid(taus=[1, 2], ps=[2], lam_regs=[1e-8]),
                        plan, "path-continuation", (series,))
        b = grid_search("ngrc", Grid(taus=[2, 1], ps=[2], lam_regs=[1e-8]),
                        plan, "path-continuation", (series,))
        assert a.best == b.best

    def test_all_failures_raise(self):
        # constant huge series with an estimator that must diverge:
        # infeasible washout makes every fold fail
        series = make_planted_series()
        grid = Grid(lams=[0.5], thetas=[0.4], lam_regs=[1e-6])
        plan = overlapping_folds(400, 100, 30, 200)
        with pytest.raises(GridSearchError):
            grid_search("volterra", grid, plan, "path-continuation",
                        (series,), fixed_hyper={"washout": 1000})

    def test_diverged_folds_record_their_cause(self):
        # a rising ramp: every rollout leaves the training norm ball at once,
        # and its inputs are projected onto the ball, so no fold diverges
        # (a non-finite rollout's cause: test_non_finite_rollout_names_its_cause)
        grid = Grid(lams=[0.5], thetas=[0.4], lam_regs=[1e-6])
        plan = overlapping_folds(400, 150, 40, 110)
        result = grid_search("volterra", grid, plan, "path-continuation",
                             (np.linspace(0.0, 1.0, 400),),
                             fixed_hyper={"washout": 20})
        [row] = result.table
        assert len(row.fold_mse) == 2
        assert all(math.isfinite(s) for s in row.fold_mse)
        assert row.failures == []

    @pytest.mark.filterwarnings("ignore:only .* the fit is underdetermined")
    def test_folds_record_projected_inputs(self):
        # on a rising ramp every validation input lies beyond the training
        # inputs; those that the fold's input transforms put outside the
        # norm ball (M = 1) are projected
        ramp = np.linspace(0.0, 1.0, 300)[:, None]
        plan = expanding_folds(300, 3)
        hyper = {"lam": 0.5, "theta": 0.4, "lam_reg": 1e-6}
        result = grid_search("volterra",
                             Grid(lams=[0.5], thetas=[0.4], lam_regs=[1e-6]),
                             plan, "open-loop", (ramp, ramp ** 2),
                             fixed_hyper={"washout": 20})
        expected = []
        for fold in plan.folds:
            train = ramp[fold.train_start:fold.train_stop]
            est = fit_task("volterra", {**hyper, "washout": 20},
                           (train, train ** 2))
            z = preprocess.apply_pipeline(
                est.input_specs, ramp[fold.val_start:fold.val_stop])
            expected.append(int(np.sum(np.linalg.norm(z, axis=1) > 1.0)))
        assert all(count > 0 for count in expected)
        [row] = result.table
        assert row.fold_projected == expected
        assert row.describe()["fold_projected"] == expected
        # a lagged kind projects nothing; a fold whose fit raised (tau 150
        # on 100 training rows) counts nothing either
        result = grid_search("ngrc", Grid(taus=[1, 150], ps=[1],
                                          lam_regs=[1e-6]),
                             plan, "open-loop", (ramp, ramp ** 2))
        assert [row.fold_projected for row in result.table] == [[0, 0],
                                                                [None, 0]]

    def test_non_finite_rollout_names_its_cause(self):
        from types import SimpleNamespace

        from kernelcast.cv import _rollout_score
        from kernelcast.forecast import open_loop

        ref = np.zeros((3, 1))

        def score(predicted):
            est = SimpleNamespace(kind="ngrc",
                                  open_loop=lambda history, inputs, ext:
                                  np.array(predicted))
            run = open_loop(est, ref, ref)
            run.reference = ref[:run.predicted.shape[0]]
            return _rollout_score(run)

        assert score([[0.0], [np.nan], [1.0]]) == (
            math.inf, "truncated at step 2: non-finite prediction")
        assert score([[1.0], [1.0], [1.0]]) == (1.0, None)

    def test_candidate_document_nulls_missing_scores(self):
        row = CandidateResult({"tau": 1}, [0.5, math.inf], math.inf,
                              ["fold 2 of 2: non-finite prediction"], [0, 0])
        assert row.describe() == {
            "params": {"tau": 1}, "fold_mse": [0.5, None],
            "failures": ["fold 2 of 2: non-finite prediction"],
            "fold_projected": [0, 0]}

    def test_replication_grids_contain_chosen_values(self):
        # every shipped preset grid must offer its chosen hyperparameters
        # as a feasible candidate
        from kernelcast.presets import PRESETS

        for name, cfg in PRESETS.items():
            est = cfg.get("estimator")
            if not est or "grid" not in est:
                continue
            grid = Grid(
                taus=est["grid"].get("taus", []),
                ps=est["grid"].get("ps", []),
                lams=est["grid"].get("lams", []),
                thetas=est["grid"].get("thetas", []),
                lam_regs=est["grid"].get("lam_regs", []),
            )
            feasible, _ = grid.candidates(est["kind"])
            chosen = {k: v for k, v in est["hyper"].items()
                      if k in ("tau", "p", "lam", "theta", "lam_reg")}
            assert any(all(c.get(k) == v for k, v in chosen.items())
                       for c in feasible), name

    def test_fold_preprocessing_is_fold_local(self):
        # candidate scores must depend only on the fold slices: translating
        # data outside every fold window leaves scores unchanged
        series = make_planted_series()
        grid = Grid(taus=[2], ps=[1], lam_regs=[1e-8])
        plan = overlapping_folds(300, 150, 50, 300)  # single fold [0, 200)
        base = grid_search("polynomial", grid, plan, "path-continuation",
                           (series[:300],))
        shifted = series[:300].copy()
        shifted[250:] += 100.0  # outside the fold's train+val span
        moved = grid_search("polynomial", grid, plan, "path-continuation",
                            (shifted,))
        assert base.table[0].mean_mse == pytest.approx(
            moved.table[0].mean_mse, rel=1e-12)
