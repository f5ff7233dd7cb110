import math

import numpy as np
import pytest

from kernelcast.datasets import (
    RK_TOL,
    BekkParams,
    Philox,
    TimeSeries,
    gaussian_iid,
    integrate_ode,
    load_csv,
    read_csv,
    save_csv,
    simulate_bekk,
    simulate_lorenz,
    simulate_mackey_glass,
    split_train_test,
    unconditional_covariance,
    unvech,
    vech,
)
from kernelcast.errors import InvalidInputError, ParseError, SimulationError


class TestLorenz:
    def test_origin_is_fixed_point(self):
        ts = simulate_lorenz(initial=(0.0, 0.0, 0.0), dt=0.01, n_points=200)
        assert np.max(np.abs(ts.values)) <= 1e-12

    def test_linear_system_matches_exponential(self):
        # same integration route on dx/dt = -x against the closed form
        traj = integrate_ode(lambda t, y: (-y[0],), [1.0], 0.01, 101)
        assert traj[-1, 0] == pytest.approx(math.exp(-1.0), abs=1e-8)

    def test_short_trajectory_bounded_and_shaped(self):
        ts = simulate_lorenz(dt=0.005, n_points=2001)
        assert ts.values.shape == (2001, 3)
        assert ts.dt == 0.005
        assert np.max(np.abs(ts.values)) <= 100.0

    def test_determinism(self):
        a = simulate_lorenz(dt=0.01, n_points=500)
        b = simulate_lorenz(dt=0.01, n_points=500)
        np.testing.assert_array_equal(a.values, b.values)

    def test_benchmark_trajectory_length_and_bounds(self):
        ts = simulate_lorenz(dt=0.005, n_points=15001)
        assert ts.values.shape == (15001, 3)
        assert np.max(np.abs(ts.values)) <= 100.0
        train, test = split_train_test(ts, 5000)
        assert (train.n, test.n) == (5000, 10001)


class TestMackeyGlass:
    def test_initial_derivative(self):
        # finite difference of the first fine step against the direct
        # arithmetic of the right-hand side at t = 0
        ts = simulate_mackey_glass(n_fine=200, splice=1)
        expected = 0.2 * 1.2 / (1 + 1.2**10) - 0.1 * 1.2
        fd = (ts.values[1, 0] - ts.values[0, 0]) / 0.02
        assert fd == pytest.approx(expected, abs=5e-4)
        assert expected == pytest.approx(-0.0866284, abs=1e-7)

    def test_linear_decay_segment_oracle(self):
        # feedback removed: dz/dt = -0.1 z with history 1.2 decays exactly
        ts = simulate_mackey_glass(n_fine=851, splice=1,
                                   feedback=lambda u: 0.0)
        t = np.arange(851) * 0.02
        np.testing.assert_allclose(ts.values[:, 0], 1.2 * np.exp(-0.1 * t),
                                   atol=1e-8)

    def test_small_run_shapes(self):
        ts = simulate_mackey_glass(n_fine=5000, splice=50)
        assert ts.n == 100
        assert ts.dt == pytest.approx(1.0)

    def test_benchmark_series_length(self):
        ts = simulate_mackey_glass()
        assert ts.n == 7650
        train, test = split_train_test(ts, 3000)
        assert (train.n, test.n) == (3000, 4650)

    def test_rejects_non_integral_grid(self):
        with pytest.raises(InvalidInputError):
            simulate_mackey_glass(dt_fine=0.03, delay=17.0, n_fine=100)


def _lorenz_rhs(_t, s):
    x, y, z = s
    return (10.0 * (y - x), x * (28.0 - z) - y, x * y - 8.0 / 3.0 * z)


def _mackey_glass_reference(n_fine, delay, dt_fine=0.02, history=1.2):
    """The method of steps on SciPy's ``solve_ivp`` and ``OdeSolution``."""
    from scipy.integrate import solve_ivp

    m = int(round(delay / dt_fine))
    fine = [history]
    z_start, dense = history, None
    t0 = 0.0
    while len(fine) < n_fine:
        def delayed(t, _dense=dense):
            return history if _dense is None else float(_dense(t - delay)[0])

        def rhs(t, y, _delayed=delayed):
            u = _delayed(t)
            return (0.2 * u / (1.0 + u**10.0) - 0.1 * y[0],)

        sol = solve_ivp(rhs, (t0, t0 + delay), [z_start], method="RK45",
                        rtol=RK_TOL, atol=RK_TOL, dense_output=True)
        take = min(m, n_fine - len(fine))
        fine.extend(sol.sol(t0 + dt_fine * np.arange(1, take + 1))[0])
        z_start = float(sol.sol(t0 + delay)[0])
        dense = sol.sol
        t0 += delay
    return np.array(fine)


class TestIntegratorMatchesScipy:
    """The Dormand-Prince integrator takes SciPy's RK45 steps, so its
    trajectories equal ``solve_ivp``'s bit for bit; SciPy is imported here
    only, as the reference."""

    @pytest.mark.parametrize("y0", [(0.0, 1.0, 1.05), (1.0, -2.0, 20.0),
                                    (-5.0, 3.3, 0.1)])
    @pytest.mark.parametrize("n_points", [1, 2, 4001])
    def test_lorenz_trajectory(self, y0, n_points):
        from scipy.integrate import solve_ivp

        dt = 0.005
        t_eval = np.arange(n_points) * dt
        ref = solve_ivp(_lorenz_rhs, (0.0, t_eval[-1] if n_points > 1 else dt),
                        y0, method="RK45", t_eval=t_eval, rtol=RK_TOL,
                        atol=RK_TOL)
        assert np.array_equal(integrate_ode(_lorenz_rhs, y0, dt, n_points),
                              ref.y.T)

    @pytest.mark.parametrize("delay", [17.0, 5.0])
    def test_mackey_glass_series(self, delay):
        ours = simulate_mackey_glass(delay=delay, n_fine=3000, splice=1)
        assert np.array_equal(ours.values[:, 0],
                              _mackey_glass_reference(3000, delay))

    @pytest.mark.parametrize("rhs", [
        lambda t, y: (y[0] ** 2,),  # from y = 1, blows up at t = 1
        lambda t, y: (math.nan,),  # a NaN step size, on which SciPy spins
    ])
    def test_too_small_step_is_simulation_error(self, rhs):
        with pytest.raises(SimulationError, match="integrator failed"):
            integrate_ode(rhs, [1.0], 0.5, 5)

    @pytest.mark.parametrize("initial", [(np.nan, 1.0, 1.05), (0.0, 1.0),
                                         (0.0, 1.0, 1.05, 2.0)])
    def test_bad_lorenz_initial_state(self, initial):
        with pytest.raises(InvalidInputError, match="initial state"):
            simulate_lorenz(initial=initial, n_points=10)

    def test_non_positive_delay_rejected(self):
        with pytest.raises(InvalidInputError, match="delay"):
            simulate_mackey_glass(delay=0.0, n_fine=10)


class TestBekk:
    def make_params(self, d=5, a=0.3, b=0.92, seed=1):
        rng = np.random.default_rng(0)
        C = np.triu(0.1 * rng.uniform(0.3, 1.0, (d, d)))
        np.fill_diagonal(C, rng.uniform(0.25, 0.4, d))
        return BekkParams(C, np.full(d, a), np.full(d, b), seed=seed)

    def test_invariants_enforced(self):
        with pytest.raises(InvalidInputError):
            BekkParams(np.eye(2), [0.0, 0.1], [0.5, 0.5])
        with pytest.raises(InvalidInputError):
            BekkParams(np.eye(2), [0.1, 0.1], [1.0, 0.5])
        with pytest.raises(InvalidInputError):
            BekkParams(np.array([[1.0, 0.0], [0.5, 1.0]]), [0.1] * 2, [0.5] * 2)

    def test_near_zero_arch_keeps_covariance_constant(self):
        d = 3
        C = np.triu(np.full((d, d), 0.2))
        params = BekkParams(C, np.full(d, 1e-6), np.zeros(d), seed=2)
        _, _, outputs = simulate_bekk(params, 50)
        cc = vech(C @ C.T)
        for row in outputs.values:
            np.testing.assert_allclose(row, cc, atol=1e-9)

    def test_paper_scale_dimensions(self):
        params = self.make_params(d=15, b=0.5)
        inputs, returns, outputs = simulate_bekk(params, 10)
        assert inputs.d == 15
        assert outputs.d == 120

    def test_unconditional_moment_oracle(self):
        # BEKK(1,0,1): fixed point S = CC' + (aa') o S + (bb') o S solved
        # elementwise; long-run sample covariance of r_t must approach it
        params = self.make_params(d=5, a=0.3, b=0.5, seed=3)
        target = unconditional_covariance(params)
        _, returns, _ = simulate_bekk(params, 100_000)
        sample = np.cov(returns.values.T, bias=True)
        diag_rel = np.abs(np.diag(sample) - np.diag(target)) / np.diag(target)
        assert np.max(diag_rel) <= 0.05

    def test_covariances_stay_psd(self):
        params = self.make_params(seed=4)
        _, _, outputs = simulate_bekk(params, 300)
        for row in outputs.values:
            S = unvech(row)
            evals = np.linalg.eigvalsh(S)
            assert evals.min() >= -1e-10 * np.trace(S)

    def test_determinism(self):
        params = self.make_params(seed=5)
        a = simulate_bekk(params, 100)
        b = simulate_bekk(params, 100)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.values, y.values)


class TestGaussianGenerator:
    def test_deterministic_and_standardized(self):
        a = gaussian_iid(2000, 3, seed=9)
        b = gaussian_iid(2000, 3, seed=9)
        np.testing.assert_array_equal(a, b)
        assert abs(a.mean()) < 0.05
        assert abs(a.std() - 1.0) < 0.05

    def test_seed_changes_stream(self):
        assert not np.array_equal(gaussian_iid(10, 1, 0), gaussian_iid(10, 1, 1))


# small, large and huge seeds: one, two, three and 32 key words
NUMPY_SEEDS = [0, 3, 7, 20240809, 2**32 + 5, 2**64 + 1,
               pytest.param(int(1e308), id="int(1e308)")]


def numpy_generator(seed):
    """numpy's own seeded generator, the reference the package matches."""
    return np.random.Generator(np.random.Philox(seed))


class TestPhiloxMatchesNumpy:
    """:class:`Philox` draws what numpy 2.x's ``Generator(Philox(seed))``
    draws, bit for bit; ``numpy.random`` is imported here only."""

    @pytest.mark.parametrize("seed", NUMPY_SEEDS)
    def test_doubles(self, seed):
        ours, ref = Philox(seed), numpy_generator(seed)
        # sizes that end inside a block carry its spare words over
        for size in (1001, 3, (2, 5), 1):
            got, want = ours.random(size), ref.random(size)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", NUMPY_SEEDS)
    def test_gaussian_iid(self, seed):
        # the Box-Muller transform of numpy's uniforms, at BEKK's size
        n, d = 3761, 5
        gen = numpy_generator(seed)
        half = (n * d + 1) // 2
        u1 = 1.0 - gen.random(half)
        u2 = gen.random(half)
        r = np.sqrt(-2.0 * np.log(u1))
        want = np.concatenate([r * np.cos(2.0 * np.pi * u2),
                               r * np.sin(2.0 * np.pi * u2)])[: n * d]
        assert gaussian_iid(n, d, seed).tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", NUMPY_SEEDS)
    def test_bench_uniform_draws(self, seed):
        # the three draws of ``bench.run_bench`` at bench-default's sizes
        ours, ref = Philox(seed), numpy_generator(seed)
        for shape in ((2050, 1), (2050, 1), (4050, 3)):
            got = ours.uniform(-1.0, 1.0, shape)
            assert got.tobytes() == ref.uniform(-1.0, 1.0, shape).tobytes()


class TestVech:
    def test_two_by_two(self):
        S = np.array([[1.0, 2.0], [2.0, 3.0]])
        assert vech(S).tolist() == [1.0, 2.0, 3.0]

    def test_column_major_order(self):
        S = np.array([[1.0, 2.0, 3.0],
                      [2.0, 4.0, 5.0],
                      [3.0, 5.0, 6.0]])
        assert vech(S).tolist() == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]

    def test_dimension_15_gives_120(self):
        S = np.eye(15)
        assert vech(S).shape == (120,)

    def test_round_trip(self):
        rng = np.random.default_rng(10)
        M = rng.normal(size=(6, 6))
        S = M + M.T
        np.testing.assert_array_equal(unvech(vech(S)), S)

    def test_asymmetric_rejected(self):
        with pytest.raises(InvalidInputError):
            vech(np.array([[1.0, 2.0], [0.0, 1.0]]))


class TestCsv:
    def test_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(11)
        ts = TimeSeries(rng.normal(size=(100, 3)), dt=0.25, origin="test")
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        save_csv(ts, p1)
        loaded, meta = load_csv(p1)
        np.testing.assert_array_equal(loaded.values, ts.values)
        assert loaded.dt == ts.dt
        assert meta["origin"] == "test"
        save_csv(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_missing_cell_names_row_and_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# dt=1.0\nt,c0,c1\n0,1.0,2.0\n1,3.0,\n")
        with pytest.raises(ParseError) as err:
            load_csv(path)
        assert err.value.line == 4
        assert "c1" in str(err.value)

    def test_comma_decimal_rejected(self, tmp_path):
        path = tmp_path / "locale.csv"
        path.write_text('# dt=1.0\nt,c0\n0,"1,5"\n')
        with pytest.raises(ParseError):
            load_csv(path)

    def test_missing_dt_rejected(self, tmp_path):
        path = tmp_path / "nodt.csv"
        path.write_text("t,c0\n0,1.0\n")
        with pytest.raises(ParseError):
            load_csv(path)

    def test_wrong_cell_count(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("# dt=1.0\nt,c0,c1\n0,1.0\n")
        with pytest.raises(ParseError) as err:
            load_csv(path)
        assert err.value.line == 3

    def test_golden_text(self, tmp_path):
        ts = TimeSeries(np.array([[1.0, -2.5], [0.1, 3e-20]]), dt=0.5,
                        origin="demo")
        path = tmp_path / "golden.csv"
        save_csv(ts, path, extra_meta={"config_sha256": "abc", "seed": 3})
        assert path.read_bytes() == (
            b"# dt=0.5\n"
            b"# origin=demo\n"
            b"# config_sha256=abc\n"
            b"# seed=3\n"
            b"t,c0,c1\n"
            b"0,1,-2.5\n"
            b"0.5,0.10000000000000001,3.0000000000000003e-20\n"
        )

    def test_golden_text_without_origin(self, tmp_path):
        ts = TimeSeries(np.array([1e300, -0.0, 7.0]), dt=0.1)
        path = tmp_path / "golden.csv"
        save_csv(ts, path)
        assert path.read_bytes() == (
            b"# dt=0.10000000000000001\n"
            b"t,c0\n"
            b"0,1.0000000000000001e+300\n"
            b"0.10000000000000001,-0\n"
            b"0.20000000000000001,7\n"
        )

    def test_every_number_form_reads_back(self, tmp_path):
        path = tmp_path / "forms.csv"
        path.write_text("t,c0,c1,c2,c3\n"
                        "0, 1. ,.5,-inf,nan\r\n"
                        "1,+2e3,1E-2,inf,-0\n")
        _, _, values = read_csv(path, "t")
        np.testing.assert_array_equal(
            values, [[1.0, 0.5, -np.inf, np.nan], [2e3, 1e-2, np.inf, -0.0]])

    def test_bad_last_cell_of_long_row_named(self, tmp_path):
        path = tmp_path / "long.csv"
        cols = [f"c{j}" for j in range(40)]
        cells = ["12345678901234567"] * 39 + ["1e"]
        path.write_text("t," + ",".join(cols) + "\n0," + ",".join(cells) + "\n")
        with pytest.raises(ParseError, match="column c39") as err:
            read_csv(path, "t")
        assert err.value.line == 2

    def test_bad_last_cell_of_last_row_named(self, tmp_path):
        path = tmp_path / "last.csv"
        path.write_text("# dt=1.0\nt,c0,c1\n0,1.0,2.0\n1,3.0,4.0\n2,5.0,x\n")
        with pytest.raises(ParseError, match="column c1: cannot parse 'x'") \
                as err:
            read_csv(path, "t")
        assert err.value.line == 5

    def test_key_only_file_has_rows_of_no_values(self, tmp_path):
        path = tmp_path / "keys.csv"
        path.write_text("t\n0\n1\n2\n")
        _, header, values = read_csv(path, "t")
        assert header == ["t"]
        assert values.shape == (3, 0)

    def test_header_only_file_has_no_rows(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("# dt=1.0\nt,c0,c1,c2\n")
        _, _, values = read_csv(path, "t")
        assert values.shape == (0, 3) and values.dtype == np.float64

    def test_values_are_the_one_array(self, tmp_path, peak_bytes):
        # 10001 x 7 values take 0.53 MiB; a list of Python floats per row
        # traced 3.7 MiB
        rng = np.random.default_rng(7)
        ts = TimeSeries(rng.normal(size=(10001, 7)), dt=0.01)
        path = tmp_path / "wide.csv"
        save_csv(ts, path)
        loaded = []
        assert peak_bytes(lambda: loaded.append(read_csv(path, "t"))) < 2**20
        np.testing.assert_array_equal(loaded[0][2], ts.values)
        assert loaded[0][2].flags.c_contiguous

    def test_lf_line_endings(self, tmp_path):
        ts = TimeSeries(np.ones((3, 1)), dt=1.0)
        path = tmp_path / "lf.csv"
        save_csv(ts, path)
        raw = path.read_bytes()
        assert b"\r" not in raw


class TestSplit:
    def test_paper_splits(self):
        ts = TimeSeries(np.arange(15001.0)[:, None], dt=0.005)
        train, test = split_train_test(ts, 5000)
        assert (train.n, test.n) == (5000, 10001)
        assert train.values[-1, 0] == 4999.0
        assert test.values[0, 0] == 5000.0

    def test_boundary(self):
        ts = TimeSeries(np.arange(5.0)[:, None], dt=1.0)
        train, test = split_train_test(ts, 4)
        assert (train.n, test.n) == (4, 1)

    def test_out_of_range(self):
        ts = TimeSeries(np.arange(5.0)[:, None], dt=1.0)
        with pytest.raises(InvalidInputError):
            split_train_test(ts, 5)
        with pytest.raises(InvalidInputError):
            split_train_test(ts, 0)
