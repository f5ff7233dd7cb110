"""Acceptance criteria, one test per criterion, each printing PASS or FAIL.

Criteria 3-5 consume the session-scoped preset pipelines from conftest so
that criterion 8 can compare a second, independently executed run of the
same pipelines byte for byte.
"""

import itertools
import math
import time
import warnings
from contextlib import contextmanager

import numpy as np
import pytest

import kernelcast as kc
from kernelcast.bench import run_bench
from kernelcast.estimators import fit_estimator
from kernelcast.forecast import load_forecast_csv
from kernelcast.metrics import (
    mae,
    mape,
    mdae,
    nmse,
    w1_1d,
    w1_nd,
    welch_psd,
)
MG_LYAPUNOV = 0.006
MG_DT = 1.0


@contextmanager
def criterion(num: int, name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {num} ({name}): PASS")


def test_criterion_1_ngrc_kernel_duality():
    """NG-RC primal predictions equal dot-product-kernel dual predictions."""
    with criterion(1, "primal/dual duality"):
        started = time.perf_counter()
        rng = np.random.default_rng(424242)
        checked = 0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            while checked < 200:
                tau = int(rng.integers(1, 7))
                d = int(rng.integers(1, 5))
                p = int(rng.integers(1, 5))
                if tau * d > 12 or kc.feature_dim(tau, d, p) > 700:
                    continue
                n = int(rng.integers(tau + 2, 51))
                m = int(rng.integers(1, 3))
                lam = 10.0 ** rng.uniform(-8, 0)
                X = rng.uniform(-1, 1, (n, d))
                Y = rng.uniform(-1, 1, (n, m))
                hyper = {"tau": tau, "p": p, "lam_reg": lam}
                primal = fit_estimator("ngrc", hyper, X, Y)
                dual = fit_estimator("ngrc-kernel", hyper, X, Y)
                fresh = rng.uniform(-1, 1, (12, d))
                for test_inputs in (X, fresh):
                    a = primal.open_loop(X, test_inputs)
                    b = dual.open_loop(X, test_inputs)
                    scale = max(1.0, float(np.max(np.abs(a))))
                    assert np.max(np.abs(a - b)) <= 1e-8 * scale, (
                        f"duality violated at {hyper}, n={n}"
                    )
                checked += 1
        elapsed = time.perf_counter() - started
        print(f"  {checked} instances, max lam range [1e-8, 1], "
              f"{elapsed:.1f}s")
        assert elapsed < 60.0


def test_criterion_2_volterra_recursion_vs_series():
    """Every Gram entry matches the truncated series within the tail bound."""
    with criterion(2, "Volterra recursion/series oracle"):
        started = time.perf_counter()
        rng = np.random.default_rng(2024)
        table_params = [
            (0.3 * math.sqrt(1 - 0.09), 0.3),   # Lorenz row
            (0.9 * math.sqrt(1 - 0.09), 0.3),   # Mackey-Glass row
            (0.72, 0.6),                        # BEKK row
        ]
        sequences = 0
        entries = 0
        while sequences < 100:
            lam, theta = table_params[sequences % 3]
            params = kc.VolterraParams(lam, theta, 1.0)
            n = int(rng.integers(2, 33))
            d = int(rng.integers(1, 5))
            Z = rng.normal(size=(n, d))
            Z /= np.linalg.norm(Z, axis=1).max()
            Z *= rng.uniform(0.4, 0.95)
            gram = kc.volterra_gram(Z, params).values
            for i in range(1, n + 1):
                for j in range(i, n + 1):
                    depth = min(i, j)
                    value, tail = kc.volterra_kernel_truncated(
                        Z[i - depth : i], Z[j - depth : j], params, depth)
                    # computed values carry float64 noise on top of the
                    # analytic bound for the dropped series tail
                    assert abs(gram[i - 1, j - 1] - value) <= tail + 1e-13
                    entries += 1
            sequences += 1
        elapsed = time.perf_counter() - started
        print(f"  {sequences} sequences, {entries} entries, {elapsed:.1f}s")
        assert elapsed < 60.0


def test_criterion_3_lorenz_replication(lorenz_pipelines):
    """All three estimators keep T_valid >= 4 Lyapunov times on Lorenz."""
    with criterion(3, "Lorenz desk-scale replication"):
        import json

        total = 0.0
        for preset in ("lorenz-ngrc", "lorenz-polynomial", "lorenz-volterra"):
            run = lorenz_pipelines[preset]["a"]
            manifest = json.loads(
                (run["dir"] / "simulate_manifest.json").read_text())
            assert manifest["sizes"] == {"train": 5000, "test": 10001}
            t_valid = run["metrics"]["t_valid"]
            total += run["seconds"]
            print(f"  {preset}: T_valid = {t_valid:.3f} "
                  f"({run['seconds']:.0f}s)")
            assert t_valid is not None and t_valid >= 4.0, preset
        assert total < 600.0


def test_criterion_4_mackey_glass_ordering(mackey_glass_pipelines):
    """NG-RC fails (<1), kernels succeed (>=4), Volterra beats poly NMSE."""
    with criterion(4, "Mackey-Glass qualitative ordering"):
        import json

        runs = {p: mackey_glass_pipelines[p]["a"]
                for p in ("mackey-glass-ngrc", "mackey-glass-polynomial",
                          "mackey-glass-volterra")}
        for r in runs.values():
            manifest = json.loads(
                (r["dir"] / "simulate_manifest.json").read_text())
            assert manifest["sizes"] == {"train": 3000, "test": 4650}
        tv = {p: r["metrics"]["t_valid"] for p, r in runs.items()}
        for p, r in runs.items():
            print(f"  {p}: T_valid = {tv[p]:.3f} ({r['seconds']:.0f}s)")
        assert tv["mackey-glass-ngrc"] < 1.0
        assert tv["mackey-glass-polynomial"] >= 4.0
        assert tv["mackey-glass-volterra"] >= 4.0

        # pointwise comparison over the ceiling of the best valid time
        best = max(tv["mackey-glass-polynomial"], tv["mackey-glass-volterra"])
        steps = int(math.ceil(best) / MG_LYAPUNOV / MG_DT)
        nmse_by = {}
        for p in ("mackey-glass-polynomial", "mackey-glass-volterra"):
            run, _ = load_forecast_csv(runs[p]["dir"] / "forecast.csv")
            assert run.predicted.shape[0] >= steps, f"{p} rolled too short"
            nmse_by[p] = nmse(run.reference[:steps], run.predicted[:steps])
        print(f"  NMSE over {steps} steps: "
              f"volterra {nmse_by['mackey-glass-volterra']:.5f} vs "
              f"polynomial {nmse_by['mackey-glass-polynomial']:.5f}")
        assert (nmse_by["mackey-glass-volterra"]
                < nmse_by["mackey-glass-polynomial"])
        assert sum(r["seconds"] for r in runs.values()) < 600.0


def test_criterion_5_bekk_open_loop_dominance(bekk_pipelines):
    """Volterra strictly dominates NG-RC and polynomial on NMSE and W1."""
    with criterion(5, "BEKK open-loop dominance"):
        import json

        runs = {p: bekk_pipelines[p]["a"]
                for p in ("bekk-ngrc", "bekk-polynomial", "bekk-volterra")}
        for r in runs.values():
            manifest = json.loads(
                (r["dir"] / "simulate_manifest.json").read_text())
            assert manifest["sizes"]["train_inputs"] == 3007
            assert manifest["sizes"]["test_inputs"] == 753
        scores = {p: (r["metrics"]["nmse"], r["metrics"]["w1"])
                  for p, r in runs.items()}
        for p, (s_nmse, s_w1) in scores.items():
            print(f"  {p}: NMSE = {s_nmse:.4f}, W1 = {s_w1:.4f} "
                  f"({runs[p]['seconds']:.0f}s)")
        v_nmse, v_w1 = scores["bekk-volterra"]
        for other in ("bekk-ngrc", "bekk-polynomial"):
            o_nmse, o_w1 = scores[other]
            assert v_nmse < o_nmse, f"NMSE not dominated vs {other}"
            assert v_w1 < o_w1, f"W1 not dominated vs {other}"
        assert sum(r["seconds"] for r in runs.values()) < 600.0


def test_criterion_6_metrics_unit_suite():
    """Exact metric identities and oracle agreements."""
    with criterion(6, "metrics unit suite"):
        started = time.perf_counter()
        rng = np.random.default_rng(9)

        y = rng.normal(size=(64, 3))
        y_mean = np.tile(y.mean(axis=0), (64, 1))
        assert nmse(y, y_mean) == pytest.approx(1.0, rel=1e-12)
        for fn in (nmse, mae, mdae, mape):
            assert fn(y, y) == 0.0
        assert w1_1d(y[:, 0], y[:, 0]) == 0.0
        assert w1_nd(y, y) == pytest.approx(0.0, abs=1e-12)

        # exact matching against factorial enumeration for k <= 6
        for k in (2, 3, 4, 5, 6):
            A = rng.normal(size=(k, 2))
            B = rng.normal(size=(k, 2))
            best = min(
                sum(np.linalg.norm(A[i] - B[perm[i]]) for i in range(k)) / k
                for perm in itertools.permutations(range(k))
            )
            assert w1_nd(A, B) == pytest.approx(best, rel=1e-10)

        # Welch: sinusoid peak lands in the right bin
        fs = 200.0
        t = np.arange(8192) / fs
        f0 = 17.0
        pg = welch_psd(np.sin(2 * np.pi * f0 * t), nperseg=1024, fs=fs)
        peak = pg.frequencies[int(np.argmax(pg.power[:, 0]))]
        df = pg.frequencies[1] - pg.frequencies[0]
        assert abs(peak - f0) <= df

        # Parseval: integrated density matches the variance within 5%
        x = rng.normal(size=300_000)
        pg = welch_psd(x, nperseg=1024, fs=1.0)
        integral = float(np.sum(pg.power[:, 0]) * (pg.frequencies[1]
                                                   - pg.frequencies[0]))
        assert integral == pytest.approx(np.var(x), rel=0.05)

        elapsed = time.perf_counter() - started
        print(f"  {elapsed:.1f}s")
        assert elapsed < 30.0


def test_criterion_7_complexity_trend():
    """NG-RC training grows superlinearly in p; Volterra Gram does not."""
    with criterion(7, "complexity trend"):
        started = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rows = run_bench(3)
        # minima are robust against scheduler and frequency-scaling noise
        ngrc = {r["p"]: r["min_s"] for r in rows
                if r["op"] == "ngrc-train"}
        volt = {r["p"]: r["min_s"] for r in rows
                if r["op"] == "volterra-gram" and r["n"] == 2000}
        volt_doubled = [r["min_s"] for r in rows
                        if r["op"] == "volterra-gram" and r["n"] == 4000][0]

        train_times = [ngrc[p] for p in (2, 3, 4, 5)]
        print("  ngrc-train seconds by p:",
              ["%.4f" % t for t in train_times])
        assert all(b > a for a, b in zip(train_times, train_times[1:])), \
            "NG-RC training time not strictly increasing in p"
        assert train_times[-1] / train_times[0] > 5.0 / 2.0, \
            "NG-RC training growth not superlinear across p = 2..5"

        volt_times = [volt[p] for p in (2, 3, 4, 5)]
        spread = (max(volt_times) - min(volt_times)) / np.median(volt_times)
        print("  volterra-gram seconds across the p sweep:",
              ["%.4f" % t for t in volt_times], f"spread {spread:.2%}")
        assert spread < 0.20, "Volterra Gram time varies >= 20% across p"

        ratio = volt_doubled / np.median(volt_times)
        print(f"  gram doubling ratio n=2000 -> 4000: {ratio:.2f}")
        assert 2.0 <= ratio <= 8.0, "Gram time not within factor-2 of n^2"

        elapsed = time.perf_counter() - started
        print(f"  {elapsed:.1f}s")
        assert elapsed < 300.0


def test_criterion_8_determinism(lorenz_pipelines, mackey_glass_pipelines,
                                 bekk_pipelines):
    """Reruns with identical seeds reproduce bitwise-identical CSVs."""
    with criterion(8, "bitwise determinism"):
        families = {**lorenz_pipelines, **mackey_glass_pipelines,
                    **bekk_pipelines}
        compared = 0
        for preset, runs in families.items():
            dir_a, dir_b = runs["a"]["dir"], runs["b"]["dir"]
            csvs = sorted(p.name for p in dir_a.glob("*.csv"))
            assert csvs, f"{preset}: no CSV artifacts found"
            for name in csvs:
                a = (dir_a / name).read_bytes()
                b = (dir_b / name).read_bytes()
                assert a == b, f"{preset}/{name} differs between reruns"
                compared += 1
        print(f"  {compared} CSV files byte-identical across reruns")
