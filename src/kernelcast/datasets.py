"""Simulators for the benchmark processes and dataset I/O.

Three generators are provided:

* Lorenz system (sigma=10, rho=28, beta=8/3) integrated by adaptive
  Dormand-Prince 5(4) and sampled on a uniform grid,
* Mackey-Glass delay differential equation via the method of steps on a
  fine grid, spliced down by a fixed stride,
* diagonal BEKK(1,0,1) conditional-covariance process driven by seeded
  Gaussian innovations, with half-vectorized covariances as outputs.

Every CSV artifact of the package is written by :func:`write_csv` and read
back by :func:`read_csv` in one small dialect: ``# key=value`` comment
lines, one header line, 17-significant-digit values, UTF-8, LF line
endings.  Series files (:func:`save_csv`) add a ``t,c0,...`` header and a
required ``dt`` comment.
"""

from __future__ import annotations

import array
import math
import operator
import re
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .errors import (InvalidInputError, ParseError, SimulationError,
                     sample_rows)
from .linsolve import psd_sqrt

RK_TOL = 1e-10  # absolute and relative integrator tolerances

# The benchmark systems, fixed as the paper takes them; Mackey-Glass is
# dz/dt = MG_BETA u / (1 + u**MG_POWER) - MG_GAMMA z with u = z(t - delay).
LORENZ_SIGMA, LORENZ_RHO, LORENZ_BETA = 10.0, 28.0, 8.0 / 3.0
MG_BETA, MG_GAMMA, MG_POWER, MG_HISTORY = 0.2, 0.1, 10.0, 1.2

# nan/inf stay only in metrics.csv (t_valid) and leaderboard.csv (mean_mse).
# Every alternative matches a given cell in one way only, so a bad row fails
# in linear time.
_NUMBER = r"(?:[+-]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?|nan|-?inf)"
_FLOAT_RE = re.compile(rf"^{_NUMBER}$")
# A whole data row: an unparsed row key, then numbers, each cell padded by
# optional whitespace (the per-cell rule strips it).
_ROW_RE = re.compile(rf"[^,]*(?:,\s*{_NUMBER}\s*)*")


@dataclass
class TimeSeries:
    """Uniformly sampled multivariate series."""

    values: np.ndarray
    dt: float
    origin: str = ""

    def __post_init__(self):
        self.values = sample_rows(self.values, "values", finite=True)
        if not self.dt > 0:
            raise InvalidInputError("dt must be positive")

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]


_M32 = 0xFFFFFFFF
_M64 = 0xFFFFFFFFFFFFFFFF
# Philox4x64's round multipliers and Weyl key increments (Random123)
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
_CHUNK_BLOCKS = 64  # the fewest blocks made at once


def _seed_key(seed: int) -> tuple[int, int]:
    """numpy's ``SeedSequence(seed).generate_state(2, np.uint64)``: the
    seed's little-endian 32-bit words hashed into a pool of four, which
    is hashed out again into two 64-bit words."""
    words = [seed & _M32]
    while seed > _M32:
        seed >>= 32
        words.append(seed & _M32)
    mult = 0x43B0D7E5

    def hashmix(value):
        nonlocal mult
        value ^= mult
        mult = mult * 0x931E8875 & _M32
        value = value * mult & _M32
        return value ^ value >> 16

    def mix(x, y):
        value = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return value ^ value >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    mult = 0x8B51F9DD
    state = []
    for value in pool:
        value ^= mult
        mult = mult * 0x58F38DED & _M32
        value = value * mult & _M32
        state.append(value ^ value >> 16)
    return state[0] | state[1] << 32, state[2] | state[3] << 32


def _mulhilo(a: int, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of ``a * b``, the high one summed from
    the 32-bit halves' products so that nothing overflows."""
    a_lo, a_hi = a & _M32, a >> 32
    b_lo, b_hi = b & _M32, b >> 32
    lo_hi, hi_lo = a_lo * b_hi, a_hi * b_lo
    carry = (a_lo * b_lo >> 32) + (lo_hi & _M32) + (hi_lo & _M32)
    return a_hi * b_hi + (lo_hi >> 32) + (hi_lo >> 32) + (carry >> 32), a * b


def _philox_blocks(first: int, count: int, key: tuple[int, int]):
    """Philox4x64-10 of the counters ``first, ..., first + count - 1``
    (upper counter words zero): four 64-bit words per block, in order."""
    x0 = np.arange(first, first + count, dtype=np.uint64)
    x1 = x2 = x3 = np.zeros(count, dtype=np.uint64)
    k0, k1 = key
    for r in range(_PHILOX_ROUNDS):
        if r:
            k0, k1 = (k0 + _PHILOX_W[0]) & _M64, (k1 + _PHILOX_W[1]) & _M64
        hi0, lo0 = _mulhilo(_PHILOX_M[0], x0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], x2)
        x0, x1, x2, x3 = hi1 ^ x1 ^ k0, lo1, hi0 ^ x3 ^ k1, lo0
    return np.stack([x0, x1, x2, x3], axis=1).reshape(-1)


class Philox:
    """The seeded draws of numpy 2.x's ``Generator(Philox(seed))`` that
    the package takes, bit for bit, without loading numpy's random
    package and its nine extension modules.

    The key is ``SeedSequence(seed)``'s, for a whole ``seed >= 0`` of any
    size.  The blocks are Philox4x64-10 at counters 1, 2, ...; a double is
    ``(word >> 11) * 2**-53`` of the next 64-bit word, and a 32-bit draw
    is the low half of the next word, then its high half, as numpy
    buffers them.  The tests pin every method against numpy's generator.
    """

    def __init__(self, seed: int):
        seed = operator.index(seed)  # a float is no seed, as for numpy
        if seed < 0:
            raise InvalidInputError(f"seed must be >= 0, got {seed}")
        self._key = _seed_key(seed)
        self._counter = 0  # of the last block made
        self._spare = np.empty(0, dtype=np.uint64)  # words made, not drawn
        self._high = None  # the high half a 32-bit draw left

    def _words(self, count: int) -> np.ndarray:
        """The next ``count`` 64-bit words.  Blocks are made in bulk, at
        least ``_CHUNK_BLOCKS`` at a time, so word-by-word draws are cheap;
        the words and their order are the same."""
        short = count - self._spare.size
        if short > 0:
            blocks = max(-(-short // 4), _CHUNK_BLOCKS)
            self._spare = np.concatenate([self._spare, _philox_blocks(
                self._counter + 1, blocks, self._key)])
            self._counter += blocks
        words, self._spare = self._spare[:count], self._spare[count:]
        return words

    def random(self, size) -> np.ndarray:
        """``Generator.random(size)``: doubles in [0, 1)."""
        shape = (size,) if isinstance(size, int) else tuple(size)
        return (self._words(math.prod(shape)) >> 11).reshape(shape) * 2.0**-53

    def uniform(self, low: float, high: float, size) -> np.ndarray:
        """``Generator.uniform(low, high, size)``."""
        return low + (high - low) * self.random(size)

    def _next32(self) -> int:
        if self._high is not None:
            value, self._high = self._high, None
            return value
        word = int(self._words(1)[0])
        self._high = word >> 32
        return word & _M32

    def _bounded(self, high: int) -> int:
        """A draw in ``[0, high]`` for ``high < 2**32 - 1``, by Lemire's
        multiply and rejection, as numpy's ``random_bounded_uint64``."""
        if high == 0:
            return 0
        span = high + 1
        m = self._next32() * span
        if m & _M32 < span:
            threshold = (_M32 - high) % span
            while m & _M32 < threshold:
                m = self._next32() * span
        return m >> 32

    def sorted_choice(self, n: int, k: int) -> np.ndarray:
        """``np.sort(Generator.choice(n, k, replace=False))`` for
        ``0 <= k <= n < 2**32``: the indices numpy's tail Fisher-Yates
        shuffle of ``arange(n)`` leaves at the end when ``n > 10000`` and
        ``k > n // 50``, else the set Floyd's algorithm draws.  numpy
        then shuffles the sample, which permutes the set only, so that
        is skipped: later draws of this stream are not numpy's."""
        if n > 10000 and k > n // 50:
            moved = {}  # the shuffled array's entries that left arange(n)
            for i in range(n - 1, max(n - k, 1) - 1, -1):
                j = self._bounded(i)
                moved[i], moved[j] = moved.get(j, j), moved.get(i, i)
            chosen = [moved.get(i, i) for i in range(n - k, n)]
        else:
            chosen = set()
            for j in range(n - k, n):
                value = self._bounded(j)
                chosen.add(j if value in chosen else value)
        return np.sort(np.fromiter(chosen, dtype=np.int64, count=k))


def gaussian_iid(n: int, d: int, seed: int) -> np.ndarray:
    """Seeded standard normal draws from a counter-based generator.

    Uses the package's :class:`Philox` stream with an explicit Box-Muller
    transform, so the stream is fully pinned by (n, d, seed) and
    independent of library sampling internals.  Its uniforms are those of
    numpy 2.x's ``Generator(Philox(seed)).random``, bit for bit, as the
    tests pin.
    """
    if n < 1 or d < 1:
        raise InvalidInputError("n and d must be >= 1")
    gen = Philox(seed)
    half = (n * d + 1) // 2
    u1 = 1.0 - gen.random(half)  # in (0, 1], keeps log finite
    u2 = gen.random(half)
    r = np.sqrt(-2.0 * np.log(u1))
    z = np.concatenate([r * np.cos(2.0 * np.pi * u2),
                        r * np.sin(2.0 * np.pi * u2)])
    return z[: n * d].reshape(n, d)


# Dormand-Prince 5(4) as SciPy 1.17's RK45 takes it
# (scipy/integrate/_ivp/rk.py): nodes, stages, fifth-order weights, error
# weights and the quartic dense-output matrix.
_RK_C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
_RK_A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656],
])
_RK_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
_RK_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525,
                  1/40])
_RK_P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608,
     -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933,
     87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304,
     -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408,
     701980252875 / 199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423]])
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10
_ERROR_EXPONENT = -1 / 5  # -1 / (error estimator order + 1)


def _rms(x):
    return np.linalg.norm(x) / x.size ** 0.5


@dataclass(frozen=True)
class _Step:
    """One accepted step and its quartic interpolant ``y_old + h Q p(x)``."""

    t_old: float
    t: float
    h: float
    y_old: np.ndarray
    Q: np.ndarray

    def __call__(self, t: np.ndarray) -> np.ndarray:
        """State at the 1-D times ``t``, one column per time."""
        x = (t - self.t_old) / self.h
        p = np.cumprod(np.tile(x, (4, 1)), axis=0)
        y = self.h * np.dot(self.Q, p)
        y += self.y_old[:, None]
        return y


def _rk45_steps(rhs, t, y, t_bound):
    """Accepted Dormand-Prince steps from ``t`` to ``t_bound > t``.

    The operations are those of SciPy's ``RK45`` at ``rtol = atol =
    RK_TOL``, in its order, so the steps and their interpolants carry its
    bits: ``select_initial_step``, ``rk_step``, and the step-size control.
    ``rhs(t, y)`` is cast to a float64 array, as SciPy casts it.  A step
    size below ten spacings of floats at ``t`` raises
    :class:`SimulationError`.
    """
    def fun(t, y):
        return np.asarray(rhs(t, y), dtype=np.float64)

    f = fun(t, y)
    interval = t_bound - t
    scale = RK_TOL + np.abs(y) * RK_TOL
    d0 = _rms(y / scale)
    d1 = _rms(f / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval)
    d2 = _rms((fun(t + h0, y + h0 * f) - f) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    h_abs = min(100 * h0, h1, interval)

    K = np.empty((7, y.size))
    while t < t_bound:
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if not h_abs >= min_step:  # a NaN step size stops here too
                raise SimulationError(
                    "integrator failed: Required step size is less than "
                    "spacing between numbers.")
            t_new = t + h_abs
            if t_new - t_bound > 0:
                t_new = t_bound
            h = t_new - t
            h_abs = np.abs(h)
            K[0] = f
            for s in range(1, 6):
                dy = np.dot(K[:s].T, _RK_A[s, :s]) * h
                K[s] = fun(t + _RK_C[s] * h, y + dy)
            y_new = y + h * np.dot(K[:-1].T, _RK_B)
            f_new = fun(t + h, y_new)
            K[-1] = f_new
            scale = RK_TOL + np.maximum(np.abs(y), np.abs(y_new)) * RK_TOL
            error_norm = _rms(np.dot(K.T, _RK_E) * h / scale)
            if error_norm < 1:
                factor = _MAX_FACTOR if error_norm == 0 else min(
                    _MAX_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
            rejected = True
        yield _Step(t, t_new, t_new - t, y, K.T.dot(_RK_P))
        t, y, f = t_new, y_new, f_new


def integrate_ode(rhs, y0, dt: float, n_points: int) -> np.ndarray:
    """Sample an ODE trajectory on a uniform grid with RK45 at tight tolerance.

    The trajectory equals ``solve_ivp(rhs, ..., method="RK45",
    t_eval=...)`` bit for bit: each accepted step's interpolant is evaluated
    at the grid points up to and including its end, as ``solve_ivp`` slices
    them.  ``y0`` must be a finite 1-D state.
    """
    y0 = np.asarray(y0, dtype=np.float64)
    if y0.ndim != 1 or not np.all(np.isfinite(y0)):
        raise InvalidInputError("initial state must be a finite 1-D vector")
    t_eval = np.arange(n_points) * dt
    t_bound = float(t_eval[-1]) if n_points > 1 else dt
    ys = np.empty((y0.size, n_points))
    done = 0
    for step in _rk45_steps(rhs, 0.0, y0, t_bound):
        end = np.searchsorted(t_eval, step.t, side="right")
        if end > done:
            ys[:, done:end] = step(t_eval[done:end])
            done = end
    return ys.T


def simulate_lorenz(initial=(0.0, 1.0, 1.05), dt: float = 0.005,
                    n_points: int = 15001) -> TimeSeries:
    """Lorenz trajectory sampled every ``dt`` time units."""
    if not dt > 0:
        raise InvalidInputError("dt must be positive")
    if n_points < 1:
        raise InvalidInputError("n_points must be >= 1")
    initial = np.asarray(initial, dtype=np.float64)
    if initial.shape != (3,) or not np.all(np.isfinite(initial)):
        raise InvalidInputError(
            f"initial state must be 3 finite numbers, got {initial.tolist()}")

    def rhs(_t, s):
        x, y, z = s
        return (LORENZ_SIGMA * (y - x), x * (LORENZ_RHO - z) - y,
                x * y - LORENZ_BETA * z)

    values = integrate_ode(rhs, initial, dt, n_points)
    return TimeSeries(values, dt, origin="lorenz")


class _DenseSolution:
    """The accepted steps of one integration, evaluated where SciPy's
    ``OdeSolution`` evaluates them: a time on a step boundary belongs to
    the earlier step, a time outside to the nearest end step."""

    def __init__(self, steps: list):
        self.steps = steps
        self.ends = [step.t for step in steps]
        self.last = len(steps) - 1

    def at(self, t: float) -> float:
        """First state component at the scalar time ``t``."""
        step = self.steps[min(bisect_left(self.ends, t), self.last)]
        x = (t - step.t_old) / step.h
        x2 = x * x
        x3 = x2 * x
        p = np.array([x, x2, x3, x3 * x])  # what cumprod forms
        return float(step.h * np.dot(step.Q, p)[0] + step.y_old[0])

    def sample(self, t: np.ndarray) -> np.ndarray:
        """First state component at the increasing times ``t``, evaluated
        step by step in the groups ``OdeSolution`` forms."""
        which = np.minimum(np.searchsorted(self.ends, t, side="left"),
                           self.last)
        starts = [0, *(np.flatnonzero(np.diff(which)) + 1), t.size]
        return np.concatenate([self.steps[which[a]](t[a:b])[0]
                               for a, b in zip(starts[:-1], starts[1:])])


def simulate_mackey_glass(dt_fine: float = 0.02, delay: float = 17.0,
                          n_fine: int = 382500, splice: int = 50) -> TimeSeries:
    """Mackey-Glass series by the method of steps, spliced down by ``splice``.

    The delay interval is discretized into ``delay / dt_fine`` points; each
    segment of length ``delay`` is integrated by RK45 while the delayed term
    is read from the previous segment's dense solution (the constant
    ``MG_HISTORY`` before t = 0).  The concatenated fine grid is then
    thinned to every ``splice``-th point.  The series equals the one SciPy's
    ``solve_ivp(..., dense_output=True)`` gives segment by segment, bit for
    bit.
    """
    if not dt_fine > 0 or not delay > 0:
        raise InvalidInputError("dt_fine and delay must be positive")
    if splice < 1 or n_fine < 1:
        raise InvalidInputError("splice and n_fine must be >= 1")
    m = delay / dt_fine
    if abs(m - round(m)) > 1e-9 or m < 0.5:  # a segment needs a fine step
        raise InvalidInputError(
            "delay must be a positive integral multiple of dt_fine")
    m = int(round(m))
    fine = np.empty(n_fine)
    fine[0] = MG_HISTORY
    produced = 1
    z_start = MG_HISTORY
    segment = 0
    prev = None  # dense solution over the previous segment

    def rhs(t, y):
        u = MG_HISTORY if prev is None else prev.at(t - delay)
        return (MG_BETA * u / (1.0 + u**MG_POWER) - MG_GAMMA * y[0],)

    while produced < n_fine:
        t0 = segment * delay
        t1 = t0 + delay
        sol = _DenseSolution(list(
            _rk45_steps(rhs, t0, np.array([z_start]), t1)))
        take = min(m, n_fine - produced)
        ts = t0 + dt_fine * np.arange(1, take + 1)
        fine[produced : produced + take] = sol.sample(ts)
        produced += take
        z_start = sol.at(t1)
        prev = sol
        segment += 1

    return TimeSeries(fine[::splice], dt_fine * splice, origin="mackey-glass")


@dataclass
class BekkParams:
    """Diagonal BEKK(1,0,1) parameterization.

    ``C`` is upper-triangular; ``a`` and ``b`` hold the diagonals of A and B.
    Stationarity requires ``a_i > 0`` and ``|b_i| < 1``.
    """

    C: np.ndarray
    a: np.ndarray
    b: np.ndarray
    seed: int = 0

    def __post_init__(self):
        self.C = np.asarray(self.C, dtype=np.float64)
        self.a = np.asarray(self.a, dtype=np.float64).reshape(-1)
        self.b = np.asarray(self.b, dtype=np.float64).reshape(-1)
        d = self.a.shape[0]
        if self.C.shape != (d, d) or self.b.shape != (d,):
            raise InvalidInputError("C, a, b dimensions disagree")
        if np.any(np.abs(np.tril(self.C, -1)) > 0):
            raise InvalidInputError("C must be upper-triangular")
        if np.any(self.a <= 0):
            raise InvalidInputError("all A diagonal entries must be positive")
        if np.any(np.abs(self.b) >= 1):
            raise InvalidInputError("all B diagonal entries must satisfy |b| < 1")

    @property
    def d(self) -> int:
        return self.a.shape[0]


def unconditional_covariance(params: BekkParams) -> np.ndarray:
    """Fixed point of the diagonal BEKK covariance recursion.

    Elementwise, ``S_ij = (CC')_ij / (1 - a_i a_j - b_i b_j)``.  Falls back
    to ``CC' / (1 - max b^2)`` when any denominator is non-positive.
    """
    cc = params.C @ params.C.T
    denom = 1.0 - np.outer(params.a, params.a) - np.outer(params.b, params.b)
    if np.all(denom > 1e-12):
        return cc / denom
    return cc / (1.0 - float(np.max(params.b**2)))


def simulate_bekk(params: BekkParams, n: int) -> tuple[TimeSeries, TimeSeries,
                                                       TimeSeries]:
    """Simulate the diagonal BEKK(1,0,1) process.

    Returns
    -------
    (inputs, returns, outputs)
        ``inputs`` holds the IID standard normal innovations z_t,
        ``returns`` the returns r_t = Sigma_t^(1/2) z_t, and ``outputs`` the
        half-vectorized conditional covariances vech(Sigma_t).
    """
    if n < 1:
        raise InvalidInputError("n must be >= 1")
    d = params.d
    cc = params.C @ params.C.T
    sigma = unconditional_covariance(params)
    z = gaussian_iid(n, d, params.seed)
    q = d * (d + 1) // 2
    r = np.empty((n, d))
    h = np.empty((n, q))
    for t in range(n):
        root = psd_sqrt(sigma)
        r[t] = root @ z[t]
        h[t] = vech(sigma)
        outer = r[t][:, None] * r[t][None, :]
        sigma = cc + np.outer(params.a, params.a) * outer \
            + np.outer(params.b, params.b) * sigma
    dt = 1.0
    return (TimeSeries(z, dt, origin="bekk-inputs"),
            TimeSeries(r, dt, origin="bekk-returns"),
            TimeSeries(h, dt, origin="bekk-outputs"))


def vech(S) -> np.ndarray:
    """Stack the columns of a symmetric matrix from the diagonal downwards."""
    S = np.asarray(S, dtype=np.float64)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise InvalidInputError("S must be square")
    scale = float(np.max(np.abs(S))) if S.size else 0.0
    if float(np.max(np.abs(S - S.T))) > 1e-8 * max(scale, 1e-300):
        raise InvalidInputError("S must be symmetric")
    d = S.shape[0]
    return np.concatenate([S[j:, j] for j in range(d)])


def split_train_test(series: TimeSeries, n_train: int) -> tuple[TimeSeries,
                                                                TimeSeries]:
    """Contiguous prefix/suffix split, no shuffling."""
    if not 0 < n_train < series.n:
        raise InvalidInputError(
            f"n_train must lie strictly between 0 and {series.n}"
        )
    return (TimeSeries(series.values[:n_train], series.dt, series.origin),
            TimeSeries(series.values[n_train:], series.dt, series.origin))


def format_cell(x) -> str:
    """One CSV cell: floats at 17 significant digits, anything else as text."""
    return f"{x:.17g}" if isinstance(x, float) else str(x)


def write_csv(path, header, rows, meta: dict | None = None) -> None:
    """Write a table in the package CSV dialect.

    ``meta`` entries become ``# key=value`` lines (values as text), then one
    header line, then one line per row with cells from :func:`format_cell`.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for key, value in (meta or {}).items():
            fh.write(f"# {key}={value}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(format_cell, row)) + "\n")


def _parse_cell(cell: str, line_no: int, col: str) -> float:
    cell = cell.strip()
    if cell == "":
        raise ParseError(f"column {col}: empty cell", line=line_no)
    if not _FLOAT_RE.match(cell):
        raise ParseError(f"column {col}: cannot parse {cell!r} as a number",
                         line=line_no)
    return float(cell)


def read_csv(path, first_column: str) -> tuple[dict, list, np.ndarray]:
    """Strict reader for the package CSV dialect.

    The header must start with the row-key column ``first_column`` (``t``,
    ``step``), whose cells are not parsed.  Every other cell must be a
    plain decimal number or one of ``nan``, ``inf``, ``-inf``.  Returns the
    metadata, the header and a (rows, columns - 1) array of the value
    columns; malformed input raises :class:`ParseError` naming the line.
    Each row's values go straight into one buffer of doubles, which the
    returned array wraps, so no Python float outlives its cell.
    """
    meta: dict[str, str] = {}
    columns: list[str] | None = None
    values = array.array("d")
    n_rows = 0
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip():
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if "=" not in body:
                    raise ParseError("comment is not of the form key=value",
                                     line=line_no)
                key, _, value = body.partition("=")
                meta[key.strip()] = value.strip()
                continue
            cells = line.split(",")
            if columns is None:
                columns = [c.strip() for c in cells]
                if columns[0] != first_column:
                    raise ParseError(
                        f"header must start with column {first_column!r}",
                        line=line_no)
                continue
            if len(cells) != len(columns):
                raise ParseError(
                    f"expected {len(columns)} cells, found {len(cells)}",
                    line=line_no)
            if _ROW_RE.fullmatch(line):
                values.extend(map(float, cells[1:]))
            else:  # the per-cell rule names the bad cell
                values.extend([_parse_cell(cell, line_no, col)
                               for col, cell in zip(columns[1:], cells[1:])])
            n_rows += 1
    if columns is None:
        raise ParseError("file contains no header line", line=None)
    return meta, columns, np.frombuffer(values).reshape(n_rows,
                                                        len(columns) - 1)


def save_csv(series: TimeSeries, path, extra_meta: dict | None = None) -> None:
    """Write a series with a ``t`` column and ``dt``/``origin`` metadata."""
    meta = {"dt": format_cell(series.dt)}
    if series.origin:
        meta["origin"] = series.origin
    meta.update(extra_meta or {})
    header = ["t"] + [f"c{j}" for j in range(series.d)]
    rows = ([i * series.dt, *row] for i, row in enumerate(series.values))
    write_csv(path, header, rows, meta)


def load_csv(path) -> tuple[TimeSeries, dict]:
    """Read a series written by :func:`save_csv`.

    Returns the series plus the metadata dict from the comment lines.
    """
    meta, _, values = read_csv(path, "t")
    if not values.shape[0]:
        raise ParseError("file contains no data rows", line=None)
    if "dt" not in meta:
        raise ParseError("missing '# dt=' metadata comment", line=None)
    try:
        dt = float(meta["dt"])
    except ValueError as exc:
        raise ParseError(f"bad dt value {meta['dt']!r}") from exc
    series = TimeSeries(values, dt, origin=meta.get("origin", ""))
    return series, meta
