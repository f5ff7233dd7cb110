import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from kernelcast.datasets import format_cell
from kernelcast.errors import InvalidInputError
from kernelcast.metrics import (
    MAPE_EPS,
    WELCH_OVERLAP,
    MetricReport,
    evaluate_run,
    euclidean_cost,
    mae,
    mape,
    mdae,
    min_cost_matching,
    nmse,
    nmse_detailed,
    psde,
    psde_detailed,
    subsample_rows,
    w1_1d,
    w1_nd,
    welch_psd,
)


def nmse_bruteforce(y, y_hat):
    h, d = y.shape
    total = 0.0
    for u in range(d):
        mean = sum(y[i, u] for i in range(h)) / h
        sse = sum((y[i, u] - y_hat[i, u]) ** 2 for i in range(h))
        tss = sum((y[i, u] - mean) ** 2 for i in range(h))
        total += sse / tss
    return total / d


class TestPointwise:
    def test_perfect_prediction_is_zero(self):
        y = np.random.default_rng(0).normal(size=(30, 2))
        assert nmse(y, y) == 0.0
        assert mae(y, y) == 0.0
        assert mdae(y, y) == 0.0
        assert mape(y, y) == 0.0

    def test_mean_predictor_scores_one(self):
        y = np.random.default_rng(1).normal(size=(50, 3))
        y_hat = np.tile(y.mean(axis=0), (50, 1))
        assert nmse(y, y_hat) == pytest.approx(1.0, rel=1e-12)

    def test_small_example(self):
        y = np.array([1.0])
        y_hat = np.array([1.1])
        assert mae(y, y_hat) == pytest.approx(0.1)
        assert mdae(y, y_hat) == pytest.approx(0.1)
        assert mape(y, y_hat) == pytest.approx(0.1)

    def test_nmse_bruteforce_oracle(self):
        rng = np.random.default_rng(2)
        y = rng.normal(size=(50, 2))
        y_hat = rng.normal(size=(50, 2))
        assert nmse(y, y_hat) == pytest.approx(nmse_bruteforce(y, y_hat),
                                               rel=1e-12)

    def test_mae_is_mean_one_norm(self):
        rng = np.random.default_rng(3)
        y = rng.normal(size=(20, 3))
        y_hat = rng.normal(size=(20, 3))
        expected = np.mean([np.sum(np.abs(y[i] - y_hat[i]))
                            for i in range(20)])
        assert mae(y, y_hat) == pytest.approx(expected, rel=1e-12)

    def test_mdae_lower_median_even_count(self):
        y = np.zeros((4, 1))
        y_hat = np.array([[1.0], [2.0], [3.0], [4.0]])
        # sorted abs errors 1,2,3,4 -> lower median 2
        assert mdae(y, y_hat) == 2.0

    def test_mape_per_dimension_denominator(self):
        y = np.array([[1.0, 100.0]])
        y_hat = np.array([[2.0, 101.0]])
        assert mape(y, y_hat) == pytest.approx((1.0 / 1.0 + 1.0 / 100.0) / 2)

    def test_mape_epsilon_floor(self):
        y = np.array([[0.0]])
        y_hat = np.array([[1e-4]])
        assert mape(y, y_hat) == pytest.approx(1e-4 / MAPE_EPS)

    def test_zero_variance_dimension_flagged(self):
        y = np.column_stack([np.ones(10), np.arange(10.0)])
        y_hat = y + 0.5
        value, degenerate = nmse_detailed(y, y_hat)
        assert degenerate == (0,)
        assert np.isfinite(value)

    def test_shape_mismatch(self):
        with pytest.raises(InvalidInputError):
            nmse(np.ones(3), np.ones(4))

    def test_any_deviation_scores_positive(self):
        rng = np.random.default_rng(12)
        y = rng.normal(size=(30, 2))
        y_hat = y.copy()
        y_hat[7, 1] += 1e-6
        for fn in (nmse, mae, mdae, mape):
            assert fn(y, y_hat) > 0.0 or fn is mdae  # median can mask one cell
        assert nmse(y, y_hat) > 0.0
        assert mae(y, y_hat) > 0.0


class TestWelch:
    def test_sinusoid_peak_bin(self):
        fs = 100.0
        t = np.arange(4096) / fs
        f0 = 12.5
        x = np.sin(2 * np.pi * f0 * t)
        pg = welch_psd(x, nperseg=512, fs=fs)
        peak = pg.frequencies[np.argmax(pg.power[:, 0])]
        df = pg.frequencies[1] - pg.frequencies[0]
        assert abs(peak - f0) <= df

    def test_constant_series_has_no_power(self):
        x = np.full(2048, 3.7)
        pg = welch_psd(x, nperseg=256)
        assert np.max(pg.power[1:, 0]) <= 1e-10 * x.size

    def test_parseval_white_noise(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=200_000)
        pg = welch_psd(x, nperseg=1024, fs=1.0)
        df = pg.frequencies[1] - pg.frequencies[0]
        integral = np.sum(pg.power[:, 0]) * df
        assert integral == pytest.approx(np.var(x), rel=0.05)

    def test_overlap_is_no_positional_argument(self):
        # a call written for the settable overlap must not read it as fs
        with pytest.raises(TypeError):
            welch_psd(np.ones(10), 4, 0.5, 100.0)

    def test_nperseg_validation(self):
        with pytest.raises(InvalidInputError):
            welch_psd(np.ones(10), nperseg=11)

    @pytest.mark.parametrize("fs", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_fs_validation(self, fs):
        with pytest.raises(InvalidInputError, match="fs"):
            welch_psd(np.ones(10), nperseg=4, fs=fs)


class TestWelchMatchesScipy:
    """``welch_psd`` reproduces ``scipy.signal.welch`` bit for bit; SciPy is
    imported here only, as the reference."""

    @staticmethod
    def reference(x, nperseg, fs):
        import scipy.signal

        return scipy.signal.welch(
            x, fs=fs, window="hann", nperseg=nperseg,
            noverlap=round(WELCH_OVERLAP * nperseg), detrend="constant",
            scaling="density", axis=0)

    @pytest.mark.parametrize("shape", [(301,), (301, 3)])
    # odd segments put the 0.5 overlap on a half sample, which ``round``
    # takes to the even neighbour: 0 of 1, 2 of 3, 2 of 5 and 38 of 75
    @pytest.mark.parametrize("nperseg", [1, 2, 3, 5, 64, 75, 301])
    @pytest.mark.parametrize("fs", [1.0, 200.0])
    def test_bit_for_bit(self, shape, nperseg, fs):
        x = 2.0 + 3.0 * np.random.default_rng(11).normal(size=shape)
        freqs, power = self.reference(x, nperseg, fs)
        pg = welch_psd(x, nperseg, fs=fs)
        assert np.array_equal(pg.frequencies, freqs)
        assert np.array_equal(pg.power, power.reshape(pg.power.shape))

    @pytest.mark.parametrize("layout", ["fortran", "column-stride",
                                        "row-stride"])
    def test_bit_for_bit_on_strided_input(self, layout):
        base = np.random.default_rng(12).normal(size=(2000, 6))
        x = {"fortran": np.asfortranarray(base[:, :3]),
             "column-stride": base[:, ::2],
             "row-stride": base[::2, :3]}[layout]
        freqs, power = self.reference(x, 256, 100.0)
        pg = welch_psd(x, 256, fs=100.0)
        assert np.array_equal(pg.frequencies, freqs)
        assert np.array_equal(pg.power, power)


class TestPsde:
    def make_pair(self, n=2048, d=2, seed=5):
        rng = np.random.default_rng(seed)
        a = welch_psd(rng.normal(size=(n, d)), nperseg=256)
        b = welch_psd(rng.normal(size=(n, d)), nperseg=256)
        return a, b

    def test_identical_periodograms(self):
        a, _ = self.make_pair()
        assert psde(a, a) == 0.0

    def test_doubled_power_counts_bins(self):
        a, _ = self.make_pair(d=1)
        import copy

        b = copy.deepcopy(a)
        k = 10
        b.power = a.power.copy()
        b.power[:k, 0] *= 2.0
        assert psde(a, b) == pytest.approx(k, rel=1e-12)

    def test_bruteforce_oracle(self):
        a, b = self.make_pair()
        expected = 0.0
        for u in range(a.power.shape[1]):
            for f in range(a.power.shape[0]):
                expected += abs(a.power[f, u] - b.power[f, u]) / a.power[f, u]
        assert psde(a, b) == pytest.approx(expected, rel=1e-12)

    def test_zero_power_bins_skipped(self):
        a, b = self.make_pair(d=1)
        a.power = a.power.copy()
        a.power[3, 0] = 0.0
        value, skipped = psde_detailed(a, b)
        assert skipped == 1
        assert np.isfinite(value)

    def test_grid_mismatch_rejected(self):
        a, _ = self.make_pair()
        c = welch_psd(np.random.default_rng(6).normal(size=(2048, 2)),
                      nperseg=128)
        with pytest.raises(InvalidInputError):
            psde(a, c)


def w1_bruteforce_matching(A, B):
    k = A.shape[0]
    best = math.inf
    for perm in itertools.permutations(range(k)):
        cost = sum(np.linalg.norm(A[i] - B[perm[i]]) for i in range(k)) / k
        best = min(best, cost)
    return best


class TestWasserstein:
    def test_point_masses(self):
        assert w1_1d([0.0], [1.0]) == pytest.approx(1.0)

    def test_identical_samples(self):
        x = np.random.default_rng(7).normal(size=40)
        assert w1_1d(x, x) == 0.0

    def test_two_point_sorted_pairing(self):
        assert w1_1d([0.0, 1.0], [0.5, 0.5]) == pytest.approx(0.5)

    def test_unequal_sizes_supported_in_1d(self):
        # CDF formula handles unequal sample counts
        assert w1_1d([0.0, 1.0], [0.5]) == pytest.approx(0.5)

    def test_nd_identical_sets(self):
        x = np.random.default_rng(8).normal(size=(20, 3))
        assert w1_nd(x, x) == pytest.approx(0.0, abs=1e-12)

    def test_nd_permutation_invariance(self):
        A = np.array([[0.0, 0.0], [1.0, 1.0]])
        B = np.array([[1.0, 1.0], [0.0, 0.0]])
        assert w1_nd(A, B) == pytest.approx(0.0, abs=1e-12)

    def test_nd_matches_factorial_bruteforce(self):
        rng = np.random.default_rng(9)
        A = rng.normal(size=(6, 2))
        B = rng.normal(size=(6, 2))
        assert w1_nd(A, B) == pytest.approx(w1_bruteforce_matching(A, B),
                                            rel=1e-10)

    def test_nd_rejects_unequal_counts(self):
        with pytest.raises(InvalidInputError):
            w1_nd(np.ones((3, 2)), np.ones((4, 2)))

    def test_nd_rejects_zero_samples_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match="non-empty"):
                w1_nd(np.empty((0, 3)), np.empty((0, 3)))

    def test_nd_cap(self):
        with pytest.raises(InvalidInputError):
            w1_nd(np.ones((600, 2)), np.ones((600, 2)))

    def test_1d_nd_agreement(self):
        rng = np.random.default_rng(10)
        a = rng.normal(size=24)
        b = rng.normal(size=24)
        assert w1_1d(a, b) == pytest.approx(w1_nd(a[:, None], b[:, None]),
                                            abs=1e-10)

    @pytest.mark.parametrize(
        "seed", [0, 3, 7, 20240809, 2**32 + 5, 2**64 + 1,
                 pytest.param(int(1e308), id="int(1e308)")])
    def test_subsample_rows_match_numpy(self, seed):
        # both sides of numpy's switch from Floyd's algorithm to a tail
        # shuffle (n > 10000 and k > n // 50), and the 753 test rows of
        # the BEKK presets; numpy.random is imported here only
        cases = [(n, k) for n in (10000, 10001)
                 for k in (n // 50, n // 50 + 1, 1, n - 1)] + [(753, 512)]
        for n, k in cases:
            got = subsample_rows(np.arange(n, dtype=float)[:, None], k, seed)
            gen = np.random.Generator(np.random.Philox(seed))
            want = np.sort(gen.choice(n, size=k, replace=False))
            np.testing.assert_array_equal(got[:, 0], want,
                                          err_msg=f"n={n} k={k}")

    def test_subsample_rows_deterministic(self):
        x = np.arange(100.0)[:, None]
        a = subsample_rows(x, 10, seed=3)
        b = subsample_rows(x, 10, seed=3)
        np.testing.assert_array_equal(a, b)
        assert a.shape == (10, 1)


class TestW1MatchesScipy:
    """``w1_nd``'s cost matrix is SciPy's ``cdist`` and its matching is
    ``linear_sum_assignment``, bit for bit; SciPy is imported here only,
    as the reference."""

    @pytest.mark.parametrize("d", [1, 3, 15])
    @pytest.mark.parametrize("k", [1, 2, 9, 100, 512])
    def test_continuous_costs(self, d, k):
        from scipy.optimize import linear_sum_assignment
        from scipy.spatial.distance import cdist

        rng = np.random.default_rng(100 * d + k)
        A = rng.normal(size=(k, d)) * np.logspace(-2, 2, d)
        B = rng.normal(size=(k, d)) + 0.5
        cost = euclidean_cost(A, B)
        assert np.array_equal(cost, cdist(A, B))
        rows, cols = linear_sum_assignment(cost)
        assert np.array_equal(min_cost_matching(cost), cols)
        assert w1_nd(A, B) == cost[rows, cols].mean()

    def test_cost_is_the_one_square_array(self, peak_bytes):
        # the 512 x 512 cost takes 2 MiB; a whole difference matrix per
        # dimension on top of it traced 6.1 MiB
        rng = np.random.default_rng(512)
        A = rng.normal(size=(512, 3))
        B = rng.normal(size=(512, 3))
        assert peak_bytes(lambda: w1_nd(A, B)) < 3 * 2**20

    @pytest.mark.parametrize("k, levels", [(2, 1), (7, 2), (30, 3), (64, 5)])
    def test_tie_heavy_integer_costs(self, k, levels):
        from scipy.optimize import linear_sum_assignment

        # many optimal matchings: the tie rule must pick SciPy's
        rng = np.random.default_rng(k)
        for _ in range(20):
            cost = rng.integers(0, levels + 1, size=(k, k)).astype(float)
            cols = min_cost_matching(cost)
            rows, ref = linear_sum_assignment(cost)
            assert cost[rows, cols].sum() == cost[rows, ref].sum()
            assert np.array_equal(cols, ref)


@settings(max_examples=30, deadline=None)
@given(
    a=arrays(np.float64, (8, 2), elements=st.floats(-10, 10)),
    b=arrays(np.float64, (8, 2), elements=st.floats(-10, 10)),
    c=arrays(np.float64, (8, 2), elements=st.floats(-10, 10)),
)
def test_w1_metric_axioms(a, b, c):
    dab = w1_nd(a, b)
    dba = w1_nd(b, a)
    assert dab == pytest.approx(dba, abs=1e-8)
    assert dab >= 0
    assert dab <= w1_nd(a, c) + w1_nd(c, b) + 1e-8


class TestMetricReport:
    def test_csv_row_and_json(self):
        report = MetricReport(nmse=0.5, mae=1.0, mdae=0.2, mape=0.1,
                              psde=3.0, w1=0.4, t_valid=7.2,
                              t_valid_censored=False,
                              flags={"note": 1}, config={"mode": "x"})
        assert report.CSV_FIELDS[0] == "nmse"
        cells = report.csv_cells()
        assert len(cells) == len(report.CSV_FIELDS)
        assert format_cell(cells[0]) == "0.5"
        assert cells[7] == 0  # t_valid_censored as 0/1
        doc = report.to_json()
        assert '"t_valid": 7.2' in doc

    def test_none_t_valid_serializes_nan(self):
        report = MetricReport()
        cells = report.csv_cells()
        assert format_cell(cells[6]) == "nan"


class TestEvaluateRun:
    # (row, column, prediction) cells; two huge cells in one column make
    # that column's Welch segment mean inf, and its PSDE NaN
    @pytest.mark.parametrize("d, mode, cells, overflow", [
        (3, "open-loop", [(0, 0, 1e200)], ["nmse", "psde"]),
        (3, "path-continuation", [(0, 0, 1.7e308), (1, 1, 1.7e308)],
         ["nmse", "mae", "mape", "psde"]),
        (1, "path-continuation", [(0, 0, 1.7e308)],
         ["nmse", "mape", "psde"]),
        (1, "path-continuation", [(0, 0, 1.7e308), (1, 0, 1.7e308)],
         ["nmse", "mae", "mape", "psde"])])
    def test_overflow_is_flagged_without_warning(self, d, mode, cells,
                                                 overflow):
        rng = np.random.default_rng(4)
        reference = rng.normal(size=(300, d))
        predicted = reference + 0.1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            clean = evaluate_run(reference, predicted, 0.01, mode, 0.9)
            for i, j, cell in cells:
                predicted[i, j] = cell
            report = evaluate_run(reference, predicted, 0.01, mode, 0.9)
        assert "overflow" not in clean.flags
        assert report.flags["overflow"] == overflow
        for name in report.SCORES:
            value = getattr(report, name)
            assert math.isfinite(value) or name in overflow or (
                name == "w1" and "w1_degenerate" in report.flags)
