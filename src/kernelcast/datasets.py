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

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, ParseError, SimulationError
from .linsolve import psd_sqrt

RK_TOL = 1e-10  # absolute and relative integrator tolerances

# The writer also emits nan/inf/-inf for non-finite forecasts.
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
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim == 1:
            self.values = self.values[:, None]
        if self.values.ndim != 2 or self.values.shape[0] < 1:
            raise InvalidInputError("values must be a non-empty (n, d) matrix")
        if not self.dt > 0:
            raise InvalidInputError("dt must be positive")
        if not np.all(np.isfinite(self.values)):
            raise InvalidInputError("series contains non-finite entries")

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]


def gaussian_iid(n: int, d: int, seed: int) -> np.ndarray:
    """Seeded standard normal draws from a counter-based generator.

    Uses the Philox bit generator with an explicit Box-Muller transform so
    the stream is fully pinned by (n, d, seed) and independent of library
    sampling internals.
    """
    if n < 1 or d < 1:
        raise InvalidInputError("n and d must be >= 1")
    gen = np.random.Generator(np.random.Philox(seed))
    half = (n * d + 1) // 2
    u1 = 1.0 - gen.random(half)  # in (0, 1], keeps log finite
    u2 = gen.random(half)
    r = np.sqrt(-2.0 * np.log(u1))
    z = np.concatenate([r * np.cos(2.0 * np.pi * u2),
                        r * np.sin(2.0 * np.pi * u2)])
    return z[: n * d].reshape(n, d)


def integrate_ode(rhs, y0, dt: float, n_points: int) -> np.ndarray:
    """Sample an ODE trajectory on a uniform grid with RK45 at tight tolerance."""
    # imported on use: only the ODE simulators need it
    from scipy.integrate import solve_ivp

    y0 = np.asarray(y0, dtype=np.float64)
    t_eval = np.arange(n_points) * dt
    sol = solve_ivp(rhs, (0.0, t_eval[-1] if n_points > 1 else dt), y0,
                    method="RK45", t_eval=t_eval, rtol=RK_TOL, atol=RK_TOL)
    if not sol.success:
        raise SimulationError(f"integrator failed: {sol.message}")
    return sol.y.T


def simulate_lorenz(initial=(0.0, 1.0, 1.05), dt: float = 0.005,
                    n_points: int = 15001, sigma: float = 10.0,
                    rho: float = 28.0, beta: float = 8.0 / 3.0) -> TimeSeries:
    """Lorenz trajectory sampled every ``dt`` time units."""
    if not dt > 0:
        raise InvalidInputError("dt must be positive")
    if n_points < 1:
        raise InvalidInputError("n_points must be >= 1")

    def rhs(_t, s):
        x, y, z = s
        return (sigma * (y - x), x * (rho - z) - y, x * y - beta * z)

    values = integrate_ode(rhs, initial, dt, n_points)
    return TimeSeries(values, dt, origin="lorenz")


def simulate_mackey_glass(dt_fine: float = 0.02, delay: float = 17.0,
                          n_fine: int = 382500, splice: int = 50,
                          beta: float = 0.2, gamma: float = 0.1,
                          power: float = 10.0, history: float = 1.2,
                          feedback=None) -> TimeSeries:
    """Mackey-Glass series by the method of steps, spliced down by ``splice``.

    The delay interval is discretized into ``delay / dt_fine`` points; each
    segment of length ``delay`` is integrated by RK45 while the delayed term
    is read from the previous segment's dense solution (the constant
    ``history`` before t = 0).  The concatenated fine grid is then thinned
    to every ``splice``-th point.

    ``feedback`` overrides the delayed-term nonlinearity
    ``u -> beta * u / (1 + u**power)``; passing ``lambda u: 0.0`` leaves the
    pure decay ``dz/dt = -gamma z``.
    """
    if not dt_fine > 0:
        raise InvalidInputError("dt_fine must be positive")
    if splice < 1 or n_fine < 1:
        raise InvalidInputError("splice and n_fine must be >= 1")
    m = delay / dt_fine
    if abs(m - round(m)) > 1e-9:
        raise InvalidInputError("delay must be an integral multiple of dt_fine")
    m = int(round(m))
    if feedback is None:
        def feedback(u):
            return beta * u / (1.0 + u**power)

    # imported on use: only the ODE simulators need it
    from scipy.integrate import solve_ivp

    fine = np.empty(n_fine)
    fine[0] = history
    produced = 1
    z_start = history
    segment = 0
    prev_dense = None  # dense solution over the previous segment

    while produced < n_fine:
        t0 = segment * delay
        t1 = t0 + delay
        if segment == 0:
            def delayed(_t):
                return history
        else:
            dense = prev_dense

            def delayed(t, _dense=dense):
                return float(_dense(t - delay)[0])

        def rhs(t, y):
            return (feedback(delayed(t)) - gamma * y[0],)

        sol = solve_ivp(rhs, (t0, t1), [z_start], method="RK45",
                        rtol=RK_TOL, atol=RK_TOL, dense_output=True)
        if not sol.success:
            raise SimulationError(f"integrator failed: {sol.message}")
        take = min(m, n_fine - produced)
        ts = t0 + dt_fine * np.arange(1, take + 1)
        fine[produced : produced + take] = sol.sol(ts)[0]
        produced += take
        z_start = float(sol.sol(t1)[0])
        prev_dense = sol.sol
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


def unvech(v) -> np.ndarray:
    """Inverse of :func:`vech`."""
    v = np.asarray(v, dtype=np.float64).reshape(-1)
    d = int(round((math.sqrt(8 * v.size + 1) - 1) / 2))
    if d * (d + 1) // 2 != v.size:
        raise InvalidInputError(f"length {v.size} is not a triangular number")
    S = np.zeros((d, d))
    k = 0
    for j in range(d):
        S[j:, j] = v[k : k + d - j]
        k += d - j
    return S + np.tril(S, -1).T


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
    """
    meta: dict[str, str] = {}
    columns: list[str] | None = None
    rows: list[list[float]] = []
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
                rows.append(list(map(float, cells[1:])))
            else:  # the per-cell rule names the bad cell
                rows.append([_parse_cell(cell, line_no, col)
                             for col, cell in zip(columns[1:], cells[1:])])
    if columns is None:
        raise ParseError("file contains no header line", line=None)
    values = np.asarray(rows) if rows else np.empty((0, len(columns) - 1))
    return meta, columns, values


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
