"""Empirical panels, band-pass detrending, series joining and the
model-vs-data scenario harness.

The band-pass filter is the asymmetric random-walk variant: ideal low/high
cut weights B_j = (sin(j b) - sin(j a)) / (pi j) with a = 2 pi / p_high and
b = 2 pi / p_low, endpoint weights chosen so every weight row sums to zero,
applied after removing the linear drift (x_T - x_1)/(T - 1).  The cycle is
defined at every observation including the endpoints; the trend is the
original series minus the cycle, so original = cycle + trend identically.
"""

from __future__ import annotations

import concurrent.futures
import csv
import math
from dataclasses import dataclass, field, fields
from functools import lru_cache

import numpy as np

from ._format import write_table
from .dynamics import DEFAULT_QUARTIC, AgentParams
from .errors import (
    ConfigError,
    DuplicateKey,
    EmptyGroup,
    MalformedRow,
    MissingJoinYear,
    NonPositiveValue,
    SeriesTooShort,
)
from .networks import FINAL_DEMAND, InteractionNetwork, _node_groups
from .simulation import ShockConfig, SimulationConfig, aggregate_series, simulate_batch

__all__ = [
    "PanelRecord",
    "PanelSeries",
    "FilteredSeries",
    "ScenarioSpec",
    "ScenarioRow",
    "DYNAMICS_PRESETS",
    "SHOCK_PRESETS",
    "DEFAULT_SECTOR_EXCLUSIONS",
    "load_panel_csv",
    "cf_weight_matrix",
    "cf_bandpass",
    "join_offset",
    "join_log",
    "correlation_matrix",
    "grouped_correlations",
    "scenario_run",
    "write_scenario_csv",
]

#: deterministic-dynamics presets (alpha1, alpha2, delta): a limit cycle, a
#: monotonically converging node, and a weakly oscillatory "focus" point
#: that sits marginally outside the stability region (see README notes)
DYNAMICS_PRESETS = {
    "cycle": (-0.04, 0.4, 0.1),
    "node": (-0.11, 0.4, 0.5),
    "focus": (-0.04, 0.3, 0.1),
}

#: shock-layer presets: the persistences of all three layers and which
#: sector and country standard deviations are switched on besides the
#: idiosyncratic grid
SHOCK_PRESETS = {
    "idiosyncratic": {"rho_u": 0.0, "rho_v": 0.3, "sigma_v": 0.0, "rho_z": 0.3, "sigma_z": 0.0},
    "country": {"rho_u": 0.0, "rho_v": 0.3, "sigma_v": 0.0, "rho_z": 0.3, "sigma_z": 0.05},
    "sector": {"rho_u": 0.0, "rho_v": 0.3, "sigma_v": 0.05, "rho_z": 0.3, "sigma_z": 0.0},
}

#: |trend| below this fraction of the series scale masks the cycle/trend indicator
_TREND_FLOOR = 1e-6

#: 10-macro-sector codes conventionally dropped from correlation groupings
#: (agriculture, mining, utilities, government)
DEFAULT_SECTOR_EXCLUSIONS = frozenset({"AtB", "C", "E", "LtN"})


@dataclass(frozen=True)
class PanelRecord:
    country: str
    sector: str
    variable: str
    year: int
    value: float


@dataclass
class PanelSeries:
    """Validated long-format panel with per-series gap flags.

    Records are indexed by (country, sector, variable) in first-seen order
    when the panel is built, so ``keys`` and ``series`` cost O(rows) for
    the whole panel.
    """

    records: list
    gaps: dict = field(default_factory=dict)   # (country, sector, variable) -> missing years
    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._index = {}
        for r in self.records:
            self._index.setdefault((r.country, r.sector, r.variable), []).append(r)

    def series(self, country, sector, variable):
        """Return (years, values) sorted by year for one series."""
        pairs = sorted((r.year, r.value)
                       for r in self._index.get((country, sector, variable), ()))
        years = np.array([p[0] for p in pairs], dtype=int)
        values = np.array([p[1] for p in pairs], dtype=float)
        return years, values

    def keys(self):
        return list(self._index)


def load_panel_csv(path) -> PanelSeries:
    """Load ``country,sector,variable,year,value`` rows with validation.

    Duplicated (country, sector, variable, year) keys, unparseable or
    non-finite values, rows with an all-empty series key and other
    unparseable rows raise with their line numbers; year gaps are recorded
    per series.
    """
    header = ("country", "sector", "variable", "year", "value")
    records = []
    seen = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        first = next(reader, None)
        if first is None or tuple(h.strip() for h in first) != header:
            raise MalformedRow(f"{path}: expected header {','.join(header)}")
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != 5:
                raise MalformedRow(f"{path}:{lineno}: expected 5 fields, got {len(row)}")
            try:
                year = int(row[3])
                value = float(row[4])
            except ValueError as exc:
                raise MalformedRow(f"{path}:{lineno}: {exc}") from None
            if not math.isfinite(value):
                raise MalformedRow(f"{path}:{lineno}: non-finite value {row[4]!r}")
            key = (row[0].strip(), row[1].strip(), row[2].strip(), year)
            if not any(key[:3]):
                raise MalformedRow(f"{path}:{lineno}: empty country, sector and variable")
            if key in seen:
                raise DuplicateKey(
                    f"{path}:{lineno}: duplicate of line {seen[key]} for {key}"
                )
            seen[key] = lineno
            records.append(PanelRecord(key[0], key[1], key[2], year, value))

    panel = PanelSeries(records=records)
    for key, series in panel._index.items():
        years = {r.year for r in series}
        missing = sorted(set(range(min(years), max(years) + 1)) - years)
        if missing:
            panel.gaps[key] = missing
    return panel


@dataclass
class FilteredSeries:
    """Band-pass decomposition: original = cycle + trend at every point.

    ``indicator`` is cycle/trend, masked (NaN) where |trend| falls below
    1e-6 of the series scale.
    """

    original: np.ndarray
    cycle: np.ndarray
    trend: np.ndarray
    indicator: np.ndarray
    band: tuple


@lru_cache(maxsize=64)
def cf_weight_matrix(n: int, p_low: float, p_high: float) -> np.ndarray:
    """Filter weights as an (n, n) matrix; every row sums to zero."""
    a = 2.0 * np.pi / p_high
    b = 2.0 * np.pi / p_low
    j = np.arange(1, n)
    bj = np.concatenate([[(b - a) / np.pi],
                         (np.sin(b * j) - np.sin(a * j)) / (np.pi * j)])
    w = np.zeros((n, n))
    for t in range(n):
        w[t, t] += bj[0]
        n_fore = max(n - 2 - t, 0)      # regular leads, endpoint weight on x[n-1]
        if n_fore > 0:
            w[t, t + 1:t + 1 + n_fore] += bj[1:n_fore + 1]
        w[t, n - 1] += -0.5 * bj[0] - bj[1:n_fore + 1].sum()
        n_back = max(t - 1, 0)          # regular lags, endpoint weight on x[0]
        if n_back > 0:
            w[t, t - n_back:t] += bj[1:n_back + 1][::-1]
        w[t, 0] += -0.5 * bj[0] - bj[1:n_back + 1].sum()
    w.setflags(write=False)
    return w


def cf_bandpass(series, p_low: float = 2.0, p_high: float = 25.0, *,
                drift: bool = True) -> FilteredSeries:
    """Asymmetric random-walk band-pass decomposition of one series.

    Keeps fluctuations with periodicities between ``p_low`` and ``p_high``
    (in observation units, years for annual data).
    """
    original = np.asarray(series, dtype=float)
    n = original.size
    if n < 8:
        raise SeriesTooShort(f"need at least 8 observations, got {n}")
    if not 0 < p_low < p_high:
        raise ConfigError(f"need 0 < p_low < p_high, got ({p_low}, {p_high})")
    if np.any(~np.isfinite(original)):
        raise ConfigError("series must be finite (split on gaps before filtering)")
    if drift:
        adjusted = original - (original[-1] - original[0]) / (n - 1) * np.arange(n)
    else:
        adjusted = original
    cycle = cf_weight_matrix(n, float(p_low), float(p_high)) @ adjusted
    trend = original - cycle
    scale = np.max(np.abs(original))
    floor = _TREND_FLOOR * scale if scale > 0 else _TREND_FLOOR
    safe_trend = np.where(np.abs(trend) < floor, np.nan, trend)
    with np.errstate(invalid="ignore"):
        indicator = cycle / safe_trend
    return FilteredSeries(original=original, cycle=cycle, trend=trend,
                          indicator=indicator, band=(p_low, p_high))


def join_offset(x: dict, y: dict, join_year) -> dict:
    """Shift series y by a constant so it matches x at the joining year."""
    if join_year not in x or join_year not in y:
        raise MissingJoinYear(f"both series must be defined at {join_year}")
    offset = x[join_year] - y[join_year]
    return {year: value + offset for year, value in y.items()}


def join_log(x: dict, y: dict, join_year) -> dict:
    """Rescale series y so it matches x at the joining year, preserving growth rates."""
    if join_year not in x or join_year not in y:
        raise MissingJoinYear(f"both series must be defined at {join_year}")
    if x[join_year] <= 0 or any(v <= 0 for v in y.values()):
        raise NonPositiveValue("logarithmic joining needs strictly positive values")
    ratio = np.log(x[join_year]) - np.log(y[join_year])
    return {year: float(np.exp(np.log(value) + ratio)) for year, value in y.items()}


def _detrend_column(col):
    """CF-filter the first longest contiguous observed run; NaN elsewhere."""
    out = np.full(col.size, np.nan)
    # run starts and ends are the +1 and -1 steps of the zero-padded mask
    edges = np.diff(np.concatenate(([0], np.isfinite(col).astype(np.int8), [0])))
    starts, ends = np.flatnonzero(edges == 1), np.flatnonzero(edges == -1)
    if starts.size == 0:
        return out
    longest = np.argmax(ends - starts)          # the first run on ties
    lo, hi = starts[longest], ends[longest]
    if hi - lo >= 8:
        out[lo:hi] = cf_bandpass(col[lo:hi]).indicator
    return out


def correlation_matrix(data, *, detrend: bool = False, min_overlap: int = 10) -> np.ndarray:
    """Pairwise-complete Pearson correlations of (T, N) columns.

    Entries with fewer than ``min_overlap`` common observations, or with a
    degenerate overlap (either column exactly constant on it, or of zero
    variance), are NaN.  With ``detrend`` the band-pass indicator of each
    column (default 2-25 period band) is correlated instead.

    Row i of the matrix is computed for all columns j > i at once on
    (N - i - 1, T) arrays: overlap counts, pairwise-complete means, centered
    cross and auto sums, clipped to [-1, 1] as ``np.corrcoef`` does.
    """
    arr = np.array(data, dtype=float)
    if arr.ndim != 2:
        raise ConfigError("expected a (T, N) array")
    if detrend:
        arr = np.column_stack([_detrend_column(arr[:, i]) for i in range(arr.shape[1])])
    n = arr.shape[1]
    corr = np.full((n, n), np.nan)
    np.fill_diagonal(corr, 1.0)
    observed = np.isfinite(arr.T)               # (N, T), one row per column
    values = np.where(observed, arr.T, 0.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        for i in range(n - 1):
            both = observed[i] & observed[i + 1:]
            count = both.sum(axis=1)
            xi = np.where(both, values[i], 0.0)
            xj = np.where(both, values[i + 1:], 0.0)
            di = np.where(both, xi - (xi.sum(axis=1) / count)[:, None], 0.0)
            dj = np.where(both, xj - (xj.sum(axis=1) / count)[:, None], 0.0)
            var_i, var_j = (di * di).sum(axis=1), (dj * dj).sum(axis=1)
            r = (di * dj).sum(axis=1) / np.sqrt(var_i) / np.sqrt(var_j)
            varies = ((np.where(both, xi, -np.inf).max(axis=1)
                       > np.where(both, xi, np.inf).min(axis=1))
                      & (np.where(both, xj, -np.inf).max(axis=1)
                         > np.where(both, xj, np.inf).min(axis=1)))
            valid = (count >= min_overlap) & varies & (var_i > 0) & (var_j > 0)
            corr[i, i + 1:] = corr[i + 1:, i] = np.where(valid, np.clip(r, -1, 1), np.nan)
    return corr


def grouped_correlations(matrix, groups, grouping: str = "within_country_sectors",
                         exclusions=()) -> dict:
    """Average correlations by country, keyed in first-seen column order.

    ``within_country_sectors``: ``groups`` gives (sector, country) per
    column; for each country, average over its sector pairs, skipping
    excluded sectors and final demand.  ``across_country_aggregates``:
    ``groups`` gives a country per column (one aggregate series each); for
    each country, average its correlations with all other countries.
    """
    matrix = np.asarray(matrix, dtype=float)
    result = {}
    if grouping == "within_country_sectors":
        skipped = {*exclusions, FINAL_DEMAND}
        for country, members in _node_groups([c for _, c in groups]).items():
            ids = [i for i in members if groups[i][0] not in skipped]
            vals = [matrix[a, b] for k, a in enumerate(ids) for b in ids[k + 1:]
                    if np.isfinite(matrix[a, b])]
            if not vals:
                raise EmptyGroup(f"no sector pairs for country {country!r}")
            result[country] = float(np.mean(vals))
    elif grouping == "across_country_aggregates":
        countries = list(groups)
        for i, country in enumerate(countries):
            vals = [matrix[i, j] for j in range(len(countries))
                    if j != i and np.isfinite(matrix[i, j])]
            if not vals:
                raise EmptyGroup(f"no cross-country entries for {country!r}")
            result[country] = float(np.mean(vals))
    else:
        raise ConfigError(f"unknown grouping {grouping!r}")
    return result


@dataclass(frozen=True)
class ScenarioSpec:
    """Grid of deterministic-dynamics and shock scenarios to compare."""

    dynamics: tuple = ("cycle", "node", "focus")
    shock_types: tuple = ("idiosyncratic", "country", "sector")
    sigma_u_grid: tuple = (0.0, 0.1, 0.2, 0.3, 0.4)
    n_seeds: int = 20
    steps: int = 600
    retain: int = 228
    stride: int = 4
    detrend: bool = False
    exclusions: tuple = ()

    def __post_init__(self):
        for name in self.dynamics:
            if name not in DYNAMICS_PRESETS:
                raise ConfigError(f"unknown dynamics preset {name!r}")
        for name in self.shock_types:
            if name not in SHOCK_PRESETS:
                raise ConfigError(f"unknown shock preset {name!r}")


@dataclass(frozen=True)
class ScenarioRow:
    dynamics: str
    shock_type: str
    sigma_u: float
    group: str
    mean_corr: float
    sd_corr: float
    n_seeds: int


def _grouped_means(traj, spec):
    """Grouped correlation means of one simulated seed."""
    annual = aggregate_series(traj.y, spec.stride)

    pairs = list(zip(traj.sectors, traj.countries))
    corr = correlation_matrix(annual, detrend=spec.detrend, min_overlap=3)
    within = grouped_correlations(corr, pairs, "within_country_sectors",
                                  spec.exclusions)

    countries = _node_groups(traj.countries)
    agg = np.empty((annual.shape[0], len(countries)))
    for j, ids in enumerate(countries.values()):
        agg[:, j] = aggregate_series(annual[:, ids], 1, weights=traj.outputs[ids])
    corr_c = correlation_matrix(agg, detrend=spec.detrend, min_overlap=3)
    across = grouped_correlations(corr_c, list(countries), "across_country_aggregates")
    return {
        "within_country_sectors": float(np.mean(list(within.values()))),
        "across_country_aggregates": float(np.mean(list(across.values()))),
    }


def _scenario_cell(args):
    """Per-seed grouped correlation means of one (dynamics, shock, sigma_u) cell.

    All seeds of the cell run as one batch.
    """
    net, q, spec, dynamics, shock_type, sigma_u = args
    a1, a2, de = DYNAMICS_PRESETS[dynamics]
    params = AgentParams.with_steady_state(a1, a2, de, q)
    shocks = ShockConfig(sigma_u=sigma_u, **SHOCK_PRESETS[shock_type])
    cfg = SimulationConfig(steps=spec.steps, retain=spec.retain,
                           aggregate_stride=spec.stride)
    trajs = simulate_batch(net, [params] * spec.n_seeds, q, shocks, cfg,
                           seeds=range(spec.n_seeds))
    return [_grouped_means(traj, spec) for traj in trajs]


def scenario_run(net: InteractionNetwork, spec: ScenarioSpec,
                 q=DEFAULT_QUARTIC, jobs: int = 1) -> list:
    """Run the scenario grid and summarize grouped correlations over seeds.

    Returns :class:`ScenarioRow` records, one per (dynamics, shock type,
    sigma_u, grouping), with the mean and standard deviation over seeds.
    Cells are independent; with ``jobs > 1`` they run in worker processes,
    producing the same result set as a serial run.
    """
    keys = [(dyn, shock, float(su))
            for dyn in spec.dynamics
            for shock in spec.shock_types
            for su in spec.sigma_u_grid]
    tasks = [(net, q, spec) + key for key in keys]
    if jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_scenario_cell, tasks))
    else:
        results = [_scenario_cell(args) for args in tasks]

    rows = []
    for (dyn, shock, su), per_seed in zip(keys, results):
        for group in ("within_country_sectors", "across_country_aggregates"):
            vals = np.array([cell[group] for cell in per_seed])
            rows.append(ScenarioRow(
                dynamics=dyn, shock_type=shock, sigma_u=su,
                group=group, mean_corr=float(vals.mean()),
                sd_corr=float(vals.std(ddof=1)) if vals.size > 1 else 0.0,
                n_seeds=spec.n_seeds))
    return rows


def write_scenario_csv(rows, path):
    """Results table: dynamics,shock_type,sigma_u,group,mean_corr,sd_corr,n_seeds."""
    names = [f.name for f in fields(ScenarioRow)]
    write_table(path, names, *([getattr(r, name) for r in rows] for name in names))
