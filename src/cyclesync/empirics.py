"""Empirical panels, band-pass detrending and the model-vs-data scenario
harness.

The band-pass filter is the asymmetric random-walk variant: ideal low/high
cut weights B_j = (sin(j b) - sin(j a)) / (pi j) with a = 2 pi / p_high and
b = 2 pi / p_low, endpoint weights chosen so every weight row sums to zero,
applied after removing the linear drift (x_T - x_1)/(T - 1).  The cycle is
defined at every observation including the endpoints; the trend is the
original series minus the cycle, so original = cycle + trend identically.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field, fields
from functools import lru_cache

import numpy as np

from ._format import read_table, write_table
from .dynamics import DEFAULT_QUARTIC, AgentParams
from .errors import (
    ConfigError,
    DuplicateKey,
    EmptyGroup,
    MalformedRow,
    NumericalBlowup,
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

#: bytes of retained paths (8 x retain x N a run) that size a scenario block
#: above its floor of ``_MIN_RUNS_PER_BATCH`` runs.  Shocks stream one lap
#: at a time, so the retained paths are what grows with a block.  On small
#: networks the step loop is bound by per-step dispatch, which a longer
#: block spreads over more runs: on the 18-node demo IO network, shock laps
#: included, a run costs about 0.35 ms in a 63-run block against 0.46 ms in a
#: 32-run one, while one block of all 108 runs of the 27-cell x 4-seed grid
#: raised peak RSS by about 10% over 63-run blocks.  At the paper's 476
#: nodes a block's (runs, N, N) correlations dominate its memory, and the
#: floor keeps 32 runs.
_BLOCK_BYTES = 2 ** 21
_MIN_RUNS_PER_BATCH = 32

#: |trend| below this fraction of the series scale masks the cycle/trend indicator
_TREND_FLOOR = 1e-6

#: fewest observations the band-pass filter takes
_CF_MIN_OBS = 8

#: fewest common observations of a pair in the scenario grid's correlations
_SCENARIO_MIN_OVERLAP = 3

#: pair x time elements per block of the all-pairs correlation pass.  Each
#: temporary of a block holds at most this many floats (256 kB), so a wide
#: panel (28,680 pairs x 160 years) never builds pairs x time arrays whole,
#: while the 153 pairs x 57 years of the 18-node demo network fit in one block.
_PAIR_BLOCK = 2 ** 15

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
    the whole panel.  ``gaps`` is derived from the records in the same
    order: the missing years inside each series' span, for series with any.
    Two records for one (country, sector, variable, year) raise
    :class:`DuplicateKey`; a year that is not an integer in 1-9999 or a
    non-finite value raises :class:`MalformedRow` naming the series.
    """

    records: list
    gaps: dict = field(init=False)   # (country, sector, variable) -> missing years
    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._index = {}
        for r in self.records:
            self._index.setdefault((r.country, r.sector, r.variable), []).append(r)
        self.gaps = {}
        for key, series in self._index.items():
            for r in series:
                if not (isinstance(r.year, (int, np.integer)) and 1 <= r.year <= 9999):
                    raise MalformedRow(f"series {key}: year {r.year!r} is not an integer in 1-9999")
                if not math.isfinite(r.value):
                    raise MalformedRow(f"series {key}, year {r.year}: non-finite value {r.value!r}")
            years = {r.year for r in series}
            if len(years) < len(series):
                year = next(y for y, c in Counter(r.year for r in series).items() if c > 1)
                raise DuplicateKey(f"two records for {key + (year,)}")
            missing = sorted(set(range(min(years), max(years) + 1)) - years)
            if missing:
                self.gaps[key] = missing

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
    non-finite values, years outside 1-9999, rows with an all-empty series
    key and other unparseable rows raise with their line numbers; year gaps
    are recorded per series.
    """
    header = ("country", "sector", "variable", "year", "value")
    records = []
    seen = {}
    for lineno, row in read_table(path, header, MalformedRow):
        try:
            year = int(row[3])
            value = float(row[4])
        except ValueError as exc:
            raise MalformedRow(f"{path}:{lineno}: {exc}") from None
        if not math.isfinite(value):
            raise MalformedRow(f"{path}:{lineno}: non-finite value {row[4]!r}")
        if not 1 <= year <= 9999:
            raise MalformedRow(f"{path}:{lineno}: year {year} outside 1-9999")
        key = (row[0].strip(), row[1].strip(), row[2].strip(), year)
        if not any(key[:3]):
            raise MalformedRow(f"{path}:{lineno}: empty country, sector and variable")
        if key in seen:
            raise DuplicateKey(f"{path}:{lineno}: duplicate of line {seen[key]} for {key}")
        seen[key] = lineno
        records.append(PanelRecord(key[0], key[1], key[2], year, value))

    return PanelSeries(records=records)


@dataclass
class FilteredSeries:
    """Band-pass decomposition: the series equals cycle + trend at every point.

    ``indicator`` is cycle/trend, masked (NaN) where |trend| falls below
    1e-6 of the series scale.
    """

    cycle: np.ndarray
    trend: np.ndarray
    indicator: np.ndarray


@lru_cache(maxsize=64)
def cf_weight_matrix(n: int, p_low: float, p_high: float) -> np.ndarray:
    """Filter weights as an (n, n) matrix, n >= 2; every row sums to zero.

    Row t weights x[s] by B_|t-s| inside the band and puts the endpoint
    weight -B0/2 - (B_1 + ... + B_m) on x[0] (m = t - 1 lags) and on x[n-1]
    (m = n - 2 - t leads); the corners add B0 to theirs.  Raises
    :class:`ConfigError` for n < 2.
    """
    if n < 2:
        raise ConfigError(f"band-pass weights need at least 2 observations, got {n}")
    a = 2.0 * np.pi / p_high
    b = 2.0 * np.pi / p_low
    j = np.arange(1, n)
    bj = np.concatenate([[(b - a) / np.pi],
                         (np.sin(b * j) - np.sin(a * j)) / (np.pi * j)])
    t = np.arange(n)
    w = bj[np.abs(t[:, None] - t)]
    # one np.sum per prefix: a running cumsum would round differently
    ends = -0.5 * bj[0] - np.array([bj[1:m + 1].sum() for m in range(n)])
    w[:, 0] = ends[np.maximum(t - 1, 0)]
    w[:, -1] = w[::-1, 0]
    w[0, 0] += bj[0]
    w[-1, -1] += bj[0]
    w.setflags(write=False)
    return w


def _cf_filter(rows, p_low: float, p_high: float, drift: bool):
    """Cycle, trend and masked indicator of each row of a (k, n) block of series.

    The stacked product ``W @ rows[:, :, None]`` is one matrix-vector
    product per series, so a series gets the same bits in any block.
    """
    n = rows.shape[1]
    if drift:
        adjusted = rows - ((rows[:, -1] - rows[:, 0]) / (n - 1))[:, None] * np.arange(n)
    else:
        adjusted = rows
    weights = cf_weight_matrix(n, float(p_low), float(p_high))
    cycle = (weights @ adjusted[:, :, None])[:, :, 0]
    trend = rows - cycle
    scale = np.abs(rows).max(axis=1, keepdims=True)
    floor = np.where(scale > 0, _TREND_FLOOR * scale, _TREND_FLOOR)
    with np.errstate(invalid="ignore"):
        indicator = cycle / np.where(np.abs(trend) < floor, np.nan, trend)
    return cycle, trend, indicator


def cf_bandpass(series, p_low: float = 2.0, p_high: float = 25.0, *,
                drift: bool = True) -> FilteredSeries:
    """Asymmetric random-walk band-pass decomposition of one series.

    Keeps fluctuations with periodicities between ``p_low`` and ``p_high``
    (in observation units, years for annual data).
    """
    original = np.asarray(series, dtype=float)
    n = original.size
    if n < _CF_MIN_OBS:
        raise SeriesTooShort(f"need at least {_CF_MIN_OBS} observations, got {n}")
    if not 0 < p_low < p_high:
        raise ConfigError(f"need 0 < p_low < p_high, got ({p_low}, {p_high})")
    if np.any(~np.isfinite(original)):
        raise ConfigError("series must be finite (split on gaps before filtering)")
    cycle, trend, indicator = _cf_filter(original[None, :], p_low, p_high, drift)
    return FilteredSeries(cycle=cycle[0], trend=trend[0], indicator=indicator[0])


def _detrend_columns(arr):
    """CF-filter the first longest contiguous observed run of each (T, N)
    column; NaN elsewhere.  Runs of one length are filtered as one block."""
    series = arr.T
    out = np.full(series.shape, np.nan)
    # run starts and ends are the +1 and -1 steps of each zero-padded mask row
    edges = np.diff(np.isfinite(series).astype(np.int8), prepend=0, append=0, axis=1)
    col, lo = np.nonzero(edges == 1)
    length = np.nonzero(edges == -1)[1] - lo
    # per column the longest run, the first one on ties
    order = np.lexsort((lo, -length, col))
    heads = order[np.diff(col[order], prepend=-1) != 0]
    heads = heads[length[heads] >= _CF_MIN_OBS]
    for n_obs in sorted(set(length[heads].tolist())):
        run = heads[length[heads] == n_obs]
        rows, times = col[run][:, None], lo[run][:, None] + np.arange(n_obs)
        out[rows, times] = _cf_filter(series[rows, times], 2.0, 25.0, True)[2]
    return out.T


def _complete_correlations(x, min_overlap: int) -> np.ndarray:
    """Pearson correlations of the (T, N) columns of each (..., T, N) matrix
    with no missing value: one centered product per matrix.

    Entries are NaN, as on the pairwise path, unless both columns vary
    (max > min and nonzero variance) and T >= ``min_overlap``.  Entry (i, j),
    i < j, is cov / sd_i / sd_j, mirrored below the diagonal; the reductions
    run over T in the same order for any leading shape, so a matrix gets the
    same bits alone or in a stack.
    """
    x = np.ascontiguousarray(x)
    d = x - x.mean(axis=-2, keepdims=True)
    var = (d * d).sum(axis=-2)
    sd = np.sqrt(var)
    corr = np.swapaxes(d, -1, -2) @ d
    with np.errstate(invalid="ignore", divide="ignore"):
        corr /= sd[..., :, None]
        corr /= sd[..., None, :]
    n = x.shape[-1]
    below, above = np.tril_indices(n, -1)
    corr[..., below, above] = corr[..., above, below]
    np.clip(corr, -1, 1, out=corr)
    ok = (x.max(axis=-2) > x.min(axis=-2)) & (var > 0) & (x.shape[-2] >= min_overlap)
    corr[~(ok[..., :, None] & ok[..., None, :])] = np.nan
    corr[..., np.arange(n), np.arange(n)] = 1.0
    return corr


def correlation_matrix(data, *, detrend: bool = False, min_overlap: int = 10) -> np.ndarray:
    """Pairwise-complete Pearson correlations of (T, N) columns.

    Entries with fewer than ``min_overlap`` common observations, or with a
    degenerate overlap (either column exactly constant on it, or of zero
    variance), are NaN.  With ``detrend`` the band-pass indicator of each
    column (default 2-25 period band) is correlated instead.
    """
    arr = np.array(data, dtype=float)
    if arr.ndim != 2:
        raise ConfigError("expected a (T, N) array")
    return _block_correlations(arr[None], detrend, min_overlap)[0]


def _pairwise_correlations(arr, min_overlap: int) -> np.ndarray:
    """Correlations of (T, N) columns over each pair's common observations, all
    pairs i < j at once in blocks of at most ``_PAIR_BLOCK`` pair x time
    elements, clipped to [-1, 1] as ``np.corrcoef`` does."""
    t, n = arr.shape
    corr = np.full((n, n), np.nan)
    np.fill_diagonal(corr, 1.0)
    observed = np.isfinite(arr.T)               # (N, T), one row per column
    values = np.where(observed, arr.T, 0.0)
    first, second = np.triu_indices(n, 1)
    step = max(1, _PAIR_BLOCK // max(t, 1))
    with np.errstate(invalid="ignore", divide="ignore"):
        for start in range(0, first.size, step):
            i, j = first[start:start + step], second[start:start + step]
            both = observed[i] & observed[j]
            count = both.sum(axis=1)
            xi = np.where(both, values[i], 0.0)
            xj = np.where(both, values[j], 0.0)
            di = np.where(both, xi - (xi.sum(axis=1) / count)[:, None], 0.0)
            dj = np.where(both, xj - (xj.sum(axis=1) / count)[:, None], 0.0)
            var_i, var_j = (di * di).sum(axis=1), (dj * dj).sum(axis=1)
            r = (di * dj).sum(axis=1) / np.sqrt(var_i) / np.sqrt(var_j)
            # the initial values keep zero-row data defined: nothing varies
            varies = ((np.where(both, xi, -np.inf).max(axis=1, initial=-np.inf)
                       > np.where(both, xi, np.inf).min(axis=1, initial=np.inf))
                      & (np.where(both, xj, -np.inf).max(axis=1, initial=-np.inf)
                         > np.where(both, xj, np.inf).min(axis=1, initial=np.inf)))
            valid = (count >= min_overlap) & varies & (var_i > 0) & (var_j > 0)
            corr[i, j] = corr[j, i] = np.where(valid, np.clip(r, -1, 1), np.nan)
    return corr


def _group_index(groups, grouping: str, exclusions=()) -> tuple:
    """The groups :func:`grouped_correlations` forms, as (keys, rows, cols, ends, empty
    message): group k's entries, row-major, are (rows, cols)[ends[k - 1]:ends[k]]."""
    if grouping == "within_country_sectors":
        keys = list(_node_groups([c for _, c in groups]))
        owner = np.array([keys.index(c) for _, c in groups], dtype=int)
        skipped = {*exclusions, FINAL_DEMAND}
        kept = np.array([s not in skipped for s, _ in groups], dtype=bool)
        mask = np.triu((owner[:, None] == owner) & kept[:, None] & kept, 1)
        empty = "no sector pairs for country {!r}"
    elif grouping == "across_country_aggregates":
        keys, owner = list(groups), np.arange(len(groups))
        mask = ~np.eye(len(groups), dtype=bool)
        empty = "no cross-country entries for {!r}"
    else:
        raise ConfigError(f"unknown grouping {grouping!r}")
    rows, cols = np.nonzero(mask)
    order = np.argsort(owner[rows], kind="stable")
    ends = np.cumsum(np.bincount(owner[rows], minlength=len(keys))).tolist()
    return keys, rows[order], cols[order], ends, empty


def _finite_means(vals, index) -> dict:
    """Each group's mean finite entry of ``vals``, a matrix at ``index``'s (rows, cols)."""
    keys, _, _, ends, empty = index
    result = {}
    for key, lo, hi in zip(keys, [0] + ends, ends):
        group = vals[lo:hi][np.isfinite(vals[lo:hi])]
        if not group.size:
            raise EmptyGroup(empty.format(key))
        result[key] = float(np.mean(group))
    return result


def grouped_correlations(matrix, groups, grouping: str = "within_country_sectors",
                         exclusions=()) -> dict:
    """Average correlations by country, keyed in first-seen column order.

    ``within_country_sectors``: ``groups`` gives (sector, country) per
    column; for each country, average over its sector pairs, skipping
    excluded sectors and final demand.  ``across_country_aggregates``:
    ``groups`` gives a country per column (one aggregate series each); for
    each country, average its correlations with all other countries.
    Raises :class:`ConfigError` unless ``matrix`` is square with one row per
    entry of ``groups``.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.shape != (len(groups), len(groups)):
        raise ConfigError(f"correlation matrix of shape {matrix.shape} does not match "
                          f"{len(groups)} groups")
    index = _group_index(groups, grouping, exclusions)
    return _finite_means(matrix[index[1], index[2]], index)


@dataclass(frozen=True)
class ScenarioSpec:
    """Grid of deterministic-dynamics and shock scenarios to compare."""

    dynamics: tuple = ("cycle", "node", "focus")
    shock_types: tuple = ("idiosyncratic", "country", "sector")
    sigma_u_grid: tuple = (0.1, 0.2, 0.3)
    n_seeds: int = 20
    steps: int = 600
    retain: int = 228
    stride: int = 4
    detrend: bool = False
    exclusions: tuple = ()

    def __post_init__(self):
        for grid in ("dynamics", "shock_types", "sigma_u_grid"):
            if len(getattr(self, grid)) == 0:
                raise ConfigError(f"{grid} must not be empty")
        for name in self.dynamics:
            if name not in DYNAMICS_PRESETS:
                raise ConfigError(f"unknown dynamics preset {name!r}")
        for name in self.shock_types:
            if name not in SHOCK_PRESETS:
                raise ConfigError(f"unknown shock preset {name!r}")
        for sigma in self.sigma_u_grid:
            if not 0.0 <= sigma < math.inf:
                raise ConfigError(f"sigma_u_grid values must be finite and non-negative, "
                                  f"got {sigma}")
        if self.n_seeds < 1:
            raise ConfigError(f"n_seeds must be at least 1, got {self.n_seeds}")
        if self.stride < 1 or self.retain % self.stride != 0:
            raise ConfigError(f"stride {self.stride} must be at least 1 and divide "
                              f"retain {self.retain}")
        # shorter series leave every correlation NaN and every group empty
        need, use = ((_CF_MIN_OBS, "band-pass detrend") if self.detrend
                     else (_SCENARIO_MIN_OVERLAP, "correlate"))
        if self.retain // self.stride < need:
            raise ConfigError(f"retain {self.retain} // stride {self.stride} = "
                              f"{self.retain // self.stride} observations per series, "
                              f"need at least {need} to {use}")


@dataclass(frozen=True)
class ScenarioRow:
    dynamics: str
    shock_type: str
    sigma_u: float
    group: str
    mean_corr: float
    sd_corr: float
    n_seeds: int


def _block_correlations(series, detrend: bool, min_overlap: int) -> np.ndarray:
    """(B, N, N) correlations of each run's (T, N) columns in a (B, T, N) block.

    With ``detrend`` all B x N series are band-pass filtered together.  Runs
    with T > 0 and no missing value take one stacked centered product, any
    other run the pairwise path alone: the one place that picks the path.
    """
    b, t, n = series.shape
    if detrend:
        series = _detrend_columns(series.transpose(1, 0, 2).reshape(t, b * n))
        series = series.reshape(t, b, n).transpose(1, 0, 2)
    complete = np.isfinite(series).all(axis=(1, 2)) & (t > 0)
    corr = np.empty((b, n, n))
    if complete.any():
        corr[complete] = _complete_correlations(series[complete], min_overlap)
    for k in np.flatnonzero(~complete):
        corr[k] = _pairwise_correlations(series[k], min_overlap)
    return corr


def _runs_per_batch(n: int, retain: int) -> int:
    """Runs per scenario block: ``_BLOCK_BYTES`` of retained paths, at least
    ``_MIN_RUNS_PER_BATCH``."""
    return max(_MIN_RUNS_PER_BATCH, _BLOCK_BYTES // (8 * retain * n))


def _annual_means(trajs, stride: int) -> np.ndarray:
    """(B, retain // stride, N) block means of each run's retained outputs."""
    return np.stack([aggregate_series(traj.y, stride) for traj in trajs])


def _grouped_means(net: InteractionNetwork, annual, spec):
    """Grouped correlation means of each run of one block simulated on ``net``.

    ``annual`` is the block's (B, T, N) :func:`_annual_means`.  Each group's
    entries are gathered once for the whole block; each run averages its
    own, so its means have the bits it gets alone.
    """
    countries = _node_groups(net.countries)
    agg = np.empty(annual.shape[:2] + (len(countries),))
    for j, ids in enumerate(countries.values()):
        w = net.outputs[ids]
        agg[:, :, j] = annual[:, :, ids] @ w / w.sum()
    within = _group_index(list(zip(net.sectors, net.countries)), "within_country_sectors",
                          spec.exclusions)
    across = _group_index(list(countries), "across_country_aggregates")
    corr = _block_correlations(annual, spec.detrend, _SCENARIO_MIN_OVERLAP)
    corr_c = _block_correlations(agg, spec.detrend, _SCENARIO_MIN_OVERLAP)
    means = []
    for vals, vals_c in zip(corr[:, within[1], within[2]], corr_c[:, across[1], across[2]]):
        by_country, by_aggregate = _finite_means(vals, within), _finite_means(vals_c, across)
        means.append({"within_country_sectors": float(np.mean(list(by_country.values()))),
                      "across_country_aggregates": float(np.mean(list(by_aggregate.values())))})
    return means


def scenario_run(net: InteractionNetwork, spec: ScenarioSpec, q=DEFAULT_QUARTIC) -> list:
    """Run the scenario grid and summarize grouped correlations over seeds.

    Returns :class:`ScenarioRow` records, one per (dynamics, shock type,
    sigma_u, grouping), with the mean and standard deviation over seeds.
    The (cell, seed) runs are simulated seed-major (every cell at seed 0,
    then at seed 1, ...) in blocks of :func:`_runs_per_batch` runs, whose
    runs share their shock streams.  Each block's trajectories are reduced
    to their annual means and dropped before its band-pass and correlation
    stage runs.  A run that blows up raises :class:`NumericalError`
    naming its cell and seed: when several do, the first failing run of the
    first failing block in that order.  A network whose groups hold no
    sector pair or no other country raises :class:`ConfigError` before
    anything is simulated.
    """
    countries = list(_node_groups(net.countries))
    try:
        grouped_correlations(np.zeros((net.n, net.n)), list(zip(net.sectors, net.countries)),
                             "within_country_sectors", spec.exclusions)
        grouped_correlations(np.zeros((len(countries),) * 2), countries,
                             "across_country_aggregates")
    except EmptyGroup as exc:
        raise ConfigError(str(exc)) from None
    cells = list(itertools.product(spec.dynamics, spec.shock_types, map(float, spec.sigma_u_grid)))
    runs = [(*cell, seed) for seed in range(spec.n_seeds) for cell in cells]
    cfg = SimulationConfig(steps=spec.steps, retain=spec.retain)
    means = []
    per_batch = _runs_per_batch(net.n, spec.retain)
    for first in range(0, len(runs), per_batch):
        block = runs[first:first + per_batch]
        dyns, shocks, sigmas, seeds = zip(*block)
        try:
            trajs = simulate_batch(
                net, [AgentParams.with_steady_state(*DYNAMICS_PRESETS[d], q) for d in dyns], q,
                [ShockConfig(sigma_u=su, **SHOCK_PRESETS[s]) for s, su in zip(shocks, sigmas)],
                cfg, seeds=seeds)
        except NumericalBlowup as exc:
            dyn, shock, su, seed = block[exc.run]
            raise exc.named(f"dynamics {dyn!r}, shock type {shock!r}, sigma_u {su}, "
                            f"seed {seed}") from exc
        annual = _annual_means(trajs, spec.stride)
        del trajs  # free the block's paths before its correlations are computed
        means.extend(_grouped_means(net, annual, spec))

    rows = []
    for c, cell in enumerate(cells):
        for group in ("within_country_sectors", "across_country_aggregates"):
            vals = np.array([m[group] for m in means[c::len(cells)]])
            rows.append(ScenarioRow(*cell, group, float(vals.mean()),
                                    float(vals.std(ddof=1)) if vals.size > 1 else 0.0,
                                    spec.n_seeds))
    return rows


def write_scenario_csv(rows, path):
    """Results table: dynamics,shock_type,sigma_u,group,mean_corr,sd_corr,n_seeds."""
    names = [f.name for f in fields(ScenarioRow)]
    write_table(path, names, *([getattr(r, name) for r in rows] for name in names))
