import itertools
import random
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclesync import empirics
from cyclesync.dynamics import DEFAULT_QUARTIC, AgentParams
from cyclesync.empirics import (
    DEFAULT_SECTOR_EXCLUSIONS,
    DYNAMICS_PRESETS,
    SHOCK_PRESETS,
    _annual_means,
    _detrend_columns,
    _grouped_means,
    _runs_per_batch,
    PanelRecord,
    PanelSeries,
    ScenarioSpec,
    cf_bandpass,
    cf_weight_matrix,
    correlation_matrix,
    grouped_correlations,
    load_panel_csv,
    scenario_run,
    write_scenario_csv,
)
from cyclesync.errors import (
    ConfigError,
    DuplicateKey,
    EmptyGroup,
    MalformedRow,
    NumericalBlowup,
    NumericalError,
    SeriesTooShort,
)
from cyclesync.networks import FINAL_DEMAND, InteractionNetwork
from cyclesync.simulation import ShockConfig, SimulationConfig, aggregate_series, simulate

from conftest import oracle_cf_cycle


# --------------------------------------------------------------------------
# oracles: the per-pair loop, the run finder and the linear panel scans that
# the vectorized correlation matrix and the keyed panel index replaced,
# copied verbatim (panel methods as functions of the record list)


def oracle_cf_weight_matrix(n, p_low, p_high):
    """The row loop that the closed-form weight matrix replaced, copied verbatim."""
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
    return w


def oracle_detrend_column(col, p_low, p_high):
    """CF-filter the longest contiguous observed run; NaN elsewhere."""
    out = np.full(col.size, np.nan)
    finite = np.isfinite(col)
    if not finite.any():
        return out
    # longest contiguous run of observed values
    best = (0, 0)
    start = None
    for i, ok in enumerate(np.append(finite, False)):
        if ok and start is None:
            start = i
        elif not ok and start is not None:
            if i - start > best[1] - best[0]:
                best = (start, i)
            start = None
    lo, hi = best
    if hi - lo >= 8:
        out[lo:hi] = cf_bandpass(col[lo:hi], p_low, p_high).indicator
    return out


def oracle_correlation_matrix(data, *, detrend: bool = False, min_overlap: int = 10,
                              p_low: float = 2.0, p_high: float = 25.0) -> np.ndarray:
    arr = np.array(data, dtype=float)
    if arr.ndim != 2:
        raise ConfigError("expected a (T, N) array")
    if detrend:
        arr = np.column_stack([oracle_detrend_column(arr[:, i], p_low, p_high)
                               for i in range(arr.shape[1])])
    n = arr.shape[1]
    corr = np.full((n, n), np.nan)
    np.fill_diagonal(corr, 1.0)
    for i in range(n):
        for j in range(i + 1, n):
            ok = np.isfinite(arr[:, i]) & np.isfinite(arr[:, j])
            if ok.sum() < min_overlap:
                continue
            xi, xj = arr[ok, i], arr[ok, j]
            if xi.std() == 0 or xj.std() == 0:
                continue
            corr[i, j] = corr[j, i] = float(np.corrcoef(xi, xj)[0, 1])
    return corr


def oracle_series(records, country, sector, variable):
    """Return (years, values) sorted by year for one series."""
    pairs = sorted((r.year, r.value) for r in records
                   if r.country == country and r.sector == sector
                   and r.variable == variable)
    years = np.array([p[0] for p in pairs], dtype=int)
    values = np.array([p[1] for p in pairs], dtype=float)
    return years, values


def oracle_keys(records):
    seen = []
    for r in records:
        key = (r.country, r.sector, r.variable)
        if key not in seen:
            seen.append(key)
    return seen


def oracle_gaps(records):
    gaps = {}
    for key in oracle_keys(records):
        years, _ = oracle_series(records, *key)
        expected = set(range(int(years.min()), int(years.max()) + 1))
        missing = sorted(expected - set(years.tolist()))
        if missing:
            gaps[key] = missing
    return gaps


# the first-seen country scans that the shared grouping helper replaced,
# copied verbatim (each oracle calls the other where the old code did)


def oracle_grouped_correlations(matrix, groups, grouping: str = "within_country_sectors",
                                exclusions=()) -> dict:
    matrix = np.asarray(matrix, dtype=float)
    exclusions = set(exclusions)
    result = {}
    if grouping == "within_country_sectors":
        countries = []
        for sector, country in groups:
            if country not in countries:
                countries.append(country)
        for country in countries:
            ids = [i for i, (s, c) in enumerate(groups)
                   if c == country and s not in exclusions and s != FINAL_DEMAND]
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


def oracle_grouped_means(net, traj, spec, correlate=correlation_matrix):
    annual = aggregate_series(traj.y, spec.stride)

    pairs = list(zip(net.sectors, net.countries))
    corr = correlate(annual, detrend=spec.detrend, min_overlap=3)
    within = oracle_grouped_correlations(corr, pairs, "within_country_sectors",
                                         spec.exclusions)

    countries = []
    for c in net.countries:
        if c not in countries:
            countries.append(c)
    agg = np.empty((annual.shape[0], len(countries)))
    for j, country in enumerate(countries):
        ids = [i for i, c in enumerate(net.countries) if c == country]
        w = net.outputs[ids]
        agg[:, j] = annual[:, ids] @ w / w.sum()
    corr_c = correlate(agg, detrend=spec.detrend, min_overlap=3)
    across = oracle_grouped_correlations(corr_c, countries, "across_country_aggregates")
    return {
        "within_country_sectors": float(np.mean(list(within.values()))),
        "across_country_aggregates": float(np.mean(list(across.values()))),
    }


def exactly_constant(values):
    return values.size > 0 and values.max() == values.min()


def write_panel(tmp_path, rows, name="panel.csv"):
    path = tmp_path / name
    lines = ["country,sector,variable,year,value"]
    lines += [",".join(str(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")
    return path


class TestLoadPanel:
    def test_small_valid_file(self, tmp_path):
        path = write_panel(tmp_path, [
            ("US", "D", "emp", 1990, 100.0),
            ("US", "D", "emp", 1991, 101.5),
            ("US", "D", "emp", 1992, 103.0),
        ])
        panel = load_panel_csv(path)
        assert len(panel.records) == 3
        years, values = panel.series("US", "D", "emp")
        np.testing.assert_array_equal(years, [1990, 1991, 1992])
        assert not panel.gaps

    def test_duplicate_key_reports_line(self, tmp_path):
        path = write_panel(tmp_path, [
            ("US", "D", "emp", 1990, 100.0),
            ("US", "D", "emp", 1990, 105.0),
        ])
        with pytest.raises(DuplicateKey, match=":3"):
            load_panel_csv(path)

    def test_malformed_row_reports_line(self, tmp_path):
        path = write_panel(tmp_path, [
            ("US", "D", "emp", 1990, 100.0),
            ("US", "D", "emp", "ninety", 100.0),
        ])
        with pytest.raises(MalformedRow, match=":3"):
            load_panel_csv(path)

    def test_non_utf8_bytes_are_a_malformed_row(self, tmp_path):
        path = write_panel(tmp_path, [("US", "D", "emp", 1990, 100.0)])
        path.write_bytes(path.read_bytes() + b"\xffUS,D,emp,1991,1.0\n")
        with pytest.raises(MalformedRow, match=r"panel\.csv: not UTF-8 text \(byte 0xff"):
            load_panel_csv(path)

    @pytest.mark.parametrize("year", [0, -1990, 10000, 20010, 3000000])
    def test_year_outside_four_digits_reports_line(self, tmp_path, year):
        # a typo such as 20010 would otherwise flag thousands of missing years
        path = write_panel(tmp_path, [
            ("US", "D", "emp", 1, 100.0),
            ("US", "D", "emp", 9999, 100.0),
            ("US", "D", "emp", year, 100.0),
        ])
        with pytest.raises(MalformedRow, match=rf"panel\.csv:4: year {year} outside 1-9999$"):
            load_panel_csv(path)

    def test_year_gap_flagged(self, tmp_path):
        path = write_panel(tmp_path, [
            ("US", "D", "emp", 1980, 1.0),
            ("US", "D", "emp", 1982, 1.2),
        ])
        panel = load_panel_csv(path)
        assert panel.gaps == {("US", "D", "emp"): [1981]}

    def test_panel_built_from_records_flags_gaps(self):
        records = [PanelRecord("US", "D", "emp", 1980, 1.0),
                   PanelRecord("DE", "F", "va", 1990, 2.0),
                   PanelRecord("US", "D", "emp", 1983, 1.2),
                   PanelRecord("DE", "F", "va", 1992, 2.1),
                   PanelRecord("JP", "D", "emp", 2000, 0.5)]
        panel = PanelSeries(records)
        assert panel.gaps == {("US", "D", "emp"): [1981, 1982], ("DE", "F", "va"): [1991]}
        assert list(panel.gaps) == [("US", "D", "emp"), ("DE", "F", "va")]
        assert panel.gaps == oracle_gaps(records)

    def test_panel_built_from_records_rejects_duplicate_year(self):
        records = [PanelRecord("JP", "D", "emp", 1999, 0.4),
                   PanelRecord("US", "D", "emp", 2000, 1.0),
                   PanelRecord("US", "D", "emp", 2001, 1.1),
                   PanelRecord("US", "D", "emp", 2000, 1.2)]
        with pytest.raises(DuplicateKey, match=r"\('US', 'D', 'emp', 2000\)"):
            PanelSeries(records)

    @pytest.mark.parametrize("year", [200001, 0, -5, 10000, 2.5, 1991.0, "1991"])
    def test_panel_built_from_records_rejects_a_bad_year(self, year):
        # 200001 used to build a 199,999-entry gaps list, and 2.5 failed
        # with a bare TypeError from range
        records = [PanelRecord("JP", "D", "emp", 1990, 0.4),
                   PanelRecord("US", "D", "emp", 1, 1.0),
                   PanelRecord("US", "D", "emp", year, 2.0)]
        with pytest.raises(MalformedRow, match=re.escape(
                f"series ('US', 'D', 'emp'): year {year!r} is not an integer in 1-9999")):
            PanelSeries(records)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_panel_built_from_records_rejects_a_non_finite_value(self, value):
        records = [PanelRecord("US", "D", "emp", 1990, 1.0),
                   PanelRecord("US", "D", "emp", 1991, value)]
        with pytest.raises(MalformedRow, match=re.escape(
                f"series ('US', 'D', 'emp'), year 1991: non-finite value {value!r}")):
            PanelSeries(records)

    def test_panel_built_from_records_takes_numpy_integer_years(self):
        records = [PanelRecord("US", "D", "emp", np.int64(1), 1.0),
                   PanelRecord("US", "D", "emp", np.int32(4), 2.0),
                   PanelRecord("US", "D", "emp", 9999, 3.0)]
        assert PanelSeries(records).gaps[("US", "D", "emp")][:3] == [2, 3, 5]

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_reports_line(self, tmp_path, value):
        path = write_panel(tmp_path, [
            ("US", "D", "emp", 1990, 100.0),
            ("US", "D", "emp", 1991, value),
        ])
        with pytest.raises(MalformedRow, match=r"panel\.csv:3: non-finite value"):
            load_panel_csv(path)

    def test_empty_series_key_reports_line(self, tmp_path):
        path = write_panel(tmp_path, [
            ("US", "D", "emp", 1990, 100.0),
            (" ", "", "", 1990, 100.0),
        ])
        with pytest.raises(MalformedRow, match=r"panel\.csv:3: empty country"):
            load_panel_csv(path)

    def test_unknown_series_is_empty(self, tmp_path):
        path = write_panel(tmp_path, [("US", "D", "emp", 1990, 100.0)])
        years, values = load_panel_csv(path).series("US", "D", "va")
        assert years.dtype == int and years.size == 0
        assert values.dtype == float and values.size == 0

    @pytest.mark.parametrize("seed", range(8))
    def test_index_matches_linear_scans(self, tmp_path, seed):
        """Shuffled, ragged panel: keys, series and gaps as the old scans give."""
        rng = random.Random(seed)
        rows = []
        for country in ("US", "DE", "JP")[:rng.randint(1, 3)]:
            for sector in ("D", "F", "AtB", "")[:rng.randint(1, 4)]:
                for variable in ("emp", "va"):
                    if rng.random() < 0.3:
                        continue
                    start = rng.randint(1960, 1990)
                    years = range(start, start + rng.randint(1, 30))
                    rows += [(country, sector, variable, year, rng.uniform(-5, 5))
                             for year in years if rng.random() > 0.15]
        rows.append(("ZZ", "D", "emp", 2001, 1.0))
        rng.shuffle(rows)
        panel = load_panel_csv(write_panel(tmp_path, rows))
        keys = oracle_keys(panel.records)
        assert panel.keys() == keys
        assert panel.gaps == oracle_gaps(panel.records)
        for key in keys:
            years, values = panel.series(*key)
            old_years, old_values = oracle_series(panel.records, *key)
            np.testing.assert_array_equal(years, old_years)
            np.testing.assert_array_equal(values, old_values)
            assert years.dtype == old_years.dtype and values.dtype == old_values.dtype


class TestCfBandpass:
    def test_decomposition_identity(self, rng):
        x = np.cumsum(rng.normal(0, 1, 57))
        f = cf_bandpass(x)
        np.testing.assert_allclose(x, f.cycle + f.trend, atol=1e-12)

    def test_weight_rows_sum_to_zero(self):
        w = cf_weight_matrix(57, 2.0, 25.0)
        np.testing.assert_allclose(w.sum(axis=1), 0.0, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 0])
    def test_weight_matrix_needs_two_observations(self, n):
        with pytest.raises(ConfigError, match=f"at least 2 observations, got {n}"):
            cf_weight_matrix(n, 2.0, 25.0)

    @pytest.mark.parametrize("band", [(2.0, 25.0), (1.5, 8.0), (6.0, 32.0)])
    def test_weight_matrix_matches_row_loop_bit_for_bit(self, band):
        for n in [*range(2, 40), 57, 80, 121, 160, 299]:
            w = cf_weight_matrix(n, *band)
            assert np.array_equal(w, oracle_cf_weight_matrix(n, *band)), n
            assert not w.flags.writeable

    def test_matches_reference_implementation(self, rng):
        sm = pytest.importorskip("statsmodels.tsa.filters.cf_filter")
        for _ in range(5):
            n = int(rng.integers(12, 120))
            x = np.cumsum(rng.normal(0, 1, n)) + rng.normal() * np.arange(n)
            ours = cf_bandpass(x, 2, 25).cycle
            ref, _ = sm.cffilter(x, low=2, high=25, drift=True)
            np.testing.assert_allclose(ours, np.asarray(ref), atol=1e-10)

    def test_pass_band_retention(self):
        t = np.arange(57)
        x = np.sin(2 * np.pi * t / 10)
        cycle = cf_bandpass(x).cycle
        assert np.var(cycle) >= 0.8 * np.var(x)

    def test_linear_trend_removed(self):
        t = np.arange(57)
        x = 0.5 * t + 3.0
        cycle = cf_bandpass(x).cycle
        assert np.var(cycle) < 0.01 * np.var(x)

    def test_stop_band_attenuation(self):
        t = np.arange(57)
        x = np.sin(2 * np.pi * t / 50)
        cycle = cf_bandpass(x).cycle
        assert np.var(cycle) < 0.2 * np.var(x)

    def test_linearity(self, rng):
        x = rng.normal(0, 1, 57)
        y = rng.normal(0, 1, 57)
        lhs = cf_bandpass(2.0 * x + 3.0 * y, drift=False).cycle
        rhs = 2.0 * cf_bandpass(x, drift=False).cycle \
            + 3.0 * cf_bandpass(y, drift=False).cycle
        np.testing.assert_allclose(lhs, rhs, atol=1e-8)

    def test_indicator_masked_on_tiny_trend(self):
        f = cf_bandpass(np.zeros(57))       # degenerate: trend identically zero
        assert np.isnan(f.indicator).all()

    def test_indicator_defined_on_trended_series(self, rng):
        x = 100.0 + np.cumsum(rng.normal(0.5, 0.2, 57))
        f = cf_bandpass(x)
        assert np.isfinite(f.indicator).all()
        np.testing.assert_allclose(f.indicator, f.cycle / f.trend, atol=1e-12)

    def test_too_short_rejected(self):
        with pytest.raises(SeriesTooShort):
            cf_bandpass(np.arange(5.0))

    @pytest.mark.parametrize("n", [8, 9, 57, 160])
    @pytest.mark.parametrize("drift", [True, False])
    @pytest.mark.parametrize("band", [(2.0, 25.0), (6.0, 32.0)])
    def test_matches_explicit_cf_weights(self, rng, n, drift, band):
        x = np.cumsum(rng.normal(0, 1, n)) + rng.normal() * np.arange(n)
        ours = cf_bandpass(x, *band, drift=drift).cycle
        np.testing.assert_allclose(ours, oracle_cf_cycle(x.tolist(), *band, drift),
                                   rtol=0, atol=1e-12)


class TestCorrelationMatrix:
    def test_identical_columns(self, rng):
        s = rng.normal(0, 1, 40)
        m = correlation_matrix(np.column_stack([s, s, s]), min_overlap=10)
        np.testing.assert_allclose(m, 1.0, atol=1e-12)

    def test_anticorrelated_pair(self, rng):
        s = rng.normal(0, 1, 40)
        m = correlation_matrix(np.column_stack([s, -s]), min_overlap=10)
        assert m[0, 1] == pytest.approx(-1.0)

    def test_insufficient_overlap_marked_missing(self, rng):
        a = rng.normal(0, 1, 30)
        b = rng.normal(0, 1, 30)
        b[:25] = np.nan
        m = correlation_matrix(np.column_stack([a, b]), min_overlap=10)
        assert np.isnan(m[0, 1])
        assert m[0, 0] == 1.0

    def test_pairwise_complete_uses_common_years(self, rng):
        a = rng.normal(0, 1, 50)
        b = a + rng.normal(0, 0.01, 50)
        b[:10] = np.nan
        m = correlation_matrix(np.column_stack([a, b]), min_overlap=10)
        assert m[0, 1] > 0.99

    def test_constant_overlap_is_missing(self, rng):
        # np.std of twelve 0.1s is 1.4e-17, not 0, so the per-pair loop
        # gave the 0.1 column a correlation of about -1e-17
        noise = rng.normal(0, 1, 12)
        m = correlation_matrix(np.column_stack([np.full(12, 0.1), noise,
                                                np.full(12, 0.5)]))
        assert np.isnan(m[0, 1]) and np.isnan(m[1, 2]) and np.isnan(m[0, 2])
        np.testing.assert_array_equal(np.diag(m), 1.0)

    @pytest.mark.parametrize("detrend", [False, True])
    def test_memory_layout_does_not_change_the_bits(self, rng, detrend):
        # numpy sums a contiguous axis pairwise and a strided one in order,
        # so complete columns are reduced in one layout whatever they arrive in
        data = rng.normal(0, 1, (57, 18)).cumsum(axis=0)
        np.testing.assert_array_equal(
            correlation_matrix(np.asfortranarray(data), detrend=detrend, min_overlap=3),
            correlation_matrix(data, detrend=detrend, min_overlap=3))

    def test_constant_on_the_overlap_only(self, rng):
        a = rng.normal(0, 1, 30)
        b = rng.normal(0, 1, 30)
        a[10:] = 0.1
        b[:10] = np.nan
        m = correlation_matrix(np.column_stack([a, b]), min_overlap=10)
        assert np.isnan(m[0, 1])

    @pytest.mark.parametrize("shape", [(5,), (2, 3, 4)])
    def test_not_two_dimensional_rejected(self, shape):
        with pytest.raises(ConfigError):
            correlation_matrix(np.zeros(shape))

    @pytest.mark.parametrize("detrend", [False, True])
    def test_no_rows_gives_what_one_row_gives(self, detrend):
        none = correlation_matrix(np.zeros((0, 3)), detrend=detrend)
        want = np.where(np.eye(3) == 1, 1.0, np.nan)
        np.testing.assert_array_equal(none, want)
        np.testing.assert_array_equal(correlation_matrix(np.zeros((1, 3)), detrend=detrend),
                                      want)

    @pytest.mark.parametrize("finite, run", [
        ([1] * 20, (0, 20)),
        ([0] * 3 + [1] * 9 + [0] + [1] * 9, (3, 12)),       # a tie goes to the first run
        ([1] * 8 + [0] + [1] * 9 + [0] * 2, (9, 18)),
        ([1] * 9 + [0] * 2 + [1] * 12, (11, 23)),          # the run ending at the last row
        ([0] * 10 + [1] * 7, None),                         # too short to filter
        ([0] * 12, None),
    ])
    def test_detrend_filters_first_longest_run(self, rng, finite, run):
        finite = np.array(finite, dtype=bool)
        col = np.where(finite, 100.0 + np.cumsum(rng.normal(0.5, 1.0, finite.size)), np.nan)
        got = _detrend_columns(col[:, None])[:, 0]
        np.testing.assert_array_equal(got, oracle_detrend_column(col, 2.0, 25.0))
        if run is None:
            assert np.isnan(got).all()
        else:
            lo, hi = run
            assert np.flatnonzero(np.isfinite(got)).tolist() == list(range(lo, hi))
            np.testing.assert_array_equal(got[lo:hi], cf_bandpass(col[lo:hi]).indicator)


def ragged_columns(seed, t, n):
    """(t, n) data: noise, trending, rescaled-copy and exactly constant
    columns with ragged starts and ends, gaps, constant tails and all-NaN
    columns."""
    rng = np.random.default_rng(seed)
    base = rng.normal(0, 1, t)
    data = np.empty((t, n))
    for j in range(n):
        kind = rng.integers(5)
        if kind == 0:
            col = np.full(t, rng.choice([0.1, 0.5, -3.0]))
        elif kind == 1:
            col = rng.uniform(-2, 2) * base + rng.uniform(-1, 1)
        elif kind == 2:
            col = 100.0 + np.cumsum(rng.normal(0.5, 1.0, t))
        else:
            col = rng.normal(0, 1, t)
        if rng.random() < 0.2:
            col[rng.integers(t):] = 0.1
        if rng.random() < 0.1:
            col[:] = np.nan
        else:
            col[:rng.integers(0, t // 2 + 1)] = np.nan
            col[t - rng.integers(0, t // 2 + 1):] = np.nan
            col[rng.integers(0, t, rng.integers(0, 4))] = np.nan
        data[:, j] = col
    return data


def complete_columns(seed, t, n):
    """(t, n) data with no missing value: noise, exact copies, rescaled
    copies and constant columns, whose values (multiples of 1/8) keep every
    mean exact, so the oracle's standard deviation of a constant is 0."""
    rng = np.random.default_rng(seed)
    data = np.empty((t, n))
    for j in range(n):
        kind = rng.integers(4) if j else rng.integers(2)
        if kind == 0:
            data[:, j] = rng.integers(-800, 800) / 8
        elif kind == 1:
            data[:, j] = rng.normal(0, 1, t)
        elif kind == 2:
            data[:, j] = data[:, rng.integers(j)]
        else:
            data[:, j] = rng.choice([-2.5, 0.5, 3.0]) * data[:, rng.integers(j)] \
                + rng.integers(-8, 8) / 8
    return data


class TestCorrelationParity:
    @given(seed=st.integers(0, 2**32 - 1), t=st.integers(2, 60), n=st.integers(1, 12),
           min_overlap=st.integers(2, 15), detrend=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_matches_pair_loop(self, seed, t, n, min_overlap, detrend):
        data = ragged_columns(seed, t, n)
        new = correlation_matrix(data, detrend=detrend, min_overlap=min_overlap)
        old = oracle_correlation_matrix(data, detrend=detrend, min_overlap=min_overlap)
        if detrend:
            data = np.column_stack([oracle_detrend_column(data[:, i], 2.0, 25.0)
                                    for i in range(n)])
        np.testing.assert_array_equal(new, new.T)
        np.testing.assert_array_equal(np.diag(new), 1.0)
        # only a pair whose overlap is exactly constant may turn NaN
        for i, j in zip(*np.nonzero(np.isnan(new) != np.isnan(old))):
            assert np.isnan(new[i, j])
            both = np.isfinite(data[:, i]) & np.isfinite(data[:, j])
            assert exactly_constant(data[both, i]) or exactly_constant(data[both, j])
        kept = ~np.isnan(new)
        np.testing.assert_allclose(new[kept], old[kept], rtol=0, atol=1e-12)
        assert np.all(np.abs(new[kept]) <= 1.0)

    @given(seed=st.integers(0, 2**32 - 1), t=st.integers(1, 60), n=st.integers(1, 12),
           min_overlap=st.integers(1, 70))
    @settings(max_examples=300, deadline=None)
    def test_complete_data_matches_pair_loop(self, seed, t, n, min_overlap):
        # complete data take the one-product path: same NaN pattern as the
        # pair loop, values to the same tolerance
        data = complete_columns(seed, t, n)
        new = correlation_matrix(data, min_overlap=min_overlap)
        old = oracle_correlation_matrix(data, min_overlap=min_overlap)
        np.testing.assert_array_equal(new, new.T)
        np.testing.assert_array_equal(np.diag(new), 1.0)
        np.testing.assert_array_equal(np.isnan(new), np.isnan(old))
        kept = ~np.isnan(new)
        np.testing.assert_allclose(new[kept], old[kept], rtol=0, atol=1e-12)
        assert np.all(np.abs(new[kept]) <= 1.0)

    @pytest.mark.parametrize("pairs", [1, 2, 7])
    @pytest.mark.parametrize("seed, t, n", [(1, 57, 18), (2, 40, 9), (3, 7, 5)])
    def test_pair_block_size_does_not_change_the_bits(self, pairs, seed, t, n, monkeypatch):
        data = ragged_columns(seed, t, n)
        whole = correlation_matrix(data, detrend=True, min_overlap=3)
        raw = correlation_matrix(data, min_overlap=3)
        monkeypatch.setattr(empirics, "_PAIR_BLOCK", pairs * t)
        np.testing.assert_array_equal(correlation_matrix(data, detrend=True, min_overlap=3),
                                      whole)
        np.testing.assert_array_equal(correlation_matrix(data, min_overlap=3), raw)


class TestBatchedDetrend:
    @given(seed=st.integers(0, 2**32 - 1), t=st.integers(2, 80), n=st.integers(1, 16))
    @settings(max_examples=200, deadline=None)
    def test_matches_per_column_filter(self, seed, t, n):
        # ragged runs of many lengths and all-NaN columns, plus runs on the
        # degenerate-trend floor: all zero (scale 0) and a trend through 0
        data = ragged_columns(seed, t, n)
        rng = np.random.default_rng(seed)
        observed = np.isfinite(data)
        floor_cols = rng.random(n) < 0.2
        data[:, floor_cols] = np.where(observed[:, floor_cols], 0.0, np.nan)
        line_cols = ~floor_cols & (rng.random(n) < 0.2)
        data[:, line_cols] = np.where(observed[:, line_cols], np.linspace(-1, 1, t)[:, None],
                                      np.nan)
        got = _detrend_columns(data)
        want = np.column_stack([oracle_detrend_column(data[:, i], 2.0, 25.0)
                                for i in range(n)])
        # the stacked product filters each series alone: equal bits, stricter
        # than the correlation tolerance, because the correlations of a
        # filtered constant column are rounding noise
        np.testing.assert_array_equal(got, want)


class TestGroupedCorrelations:
    def test_single_country_two_sectors(self):
        m = np.array([[1.0, 0.7], [0.7, 1.0]])
        groups = [("D", "US"), ("F", "US")]
        out = grouped_correlations(m, groups, "within_country_sectors")
        assert out == {"US": pytest.approx(0.7)}

    def test_exclusions_applied(self):
        m = np.array([
            [1.0, 0.9, 0.1],
            [0.9, 1.0, 0.2],
            [0.1, 0.2, 1.0],
        ])
        groups = [("D", "US"), ("F", "US"), ("AtB", "US")]
        out = grouped_correlations(m, groups, "within_country_sectors",
                                   exclusions=DEFAULT_SECTOR_EXCLUSIONS)
        assert out["US"] == pytest.approx(0.9)

    def test_across_country_aggregates(self):
        m = np.array([
            [1.0, 0.5, 0.3],
            [0.5, 1.0, 0.1],
            [0.3, 0.1, 1.0],
        ])
        out = grouped_correlations(m, ["US", "DE", "JP"],
                                   "across_country_aggregates")
        assert out["US"] == pytest.approx(0.4)
        assert out["DE"] == pytest.approx(0.3)
        assert out["JP"] == pytest.approx(0.2)

    def test_relabeling_invariance(self, rng):
        n = 4
        m = rng.uniform(-1, 1, (n, n))
        m = (m + m.T) / 2
        np.fill_diagonal(m, 1.0)
        out = grouped_correlations(m, ["A", "B", "C", "D"],
                                   "across_country_aggregates")
        perm = [2, 0, 3, 1]
        m2 = m[np.ix_(perm, perm)]
        out2 = grouped_correlations(m2, [["A", "B", "C", "D"][i] for i in perm],
                                    "across_country_aggregates")
        assert sorted(out.values()) == pytest.approx(sorted(out2.values()))

    @pytest.mark.parametrize("seed", range(16))
    def test_within_matches_first_seen_scans(self, seed):
        # interleaved countries, final-demand nodes, excluded sectors and
        # missing correlations; an empty country must fail the same way
        rng = random.Random(seed)
        n = rng.randint(2, 20)
        countries = rng.sample(["US", "DE", "JP", "FR", "IT"], rng.randint(1, 4))
        sectors = ["D", "F", "J", "K", FINAL_DEMAND, *sorted(DEFAULT_SECTOR_EXCLUSIONS)]
        groups = [(rng.choice(sectors), rng.choice(countries)) for _ in range(n)]
        m = np.array([[rng.uniform(-1, 1) for _ in range(n)] for _ in range(n)])
        m = (m + m.T) / 2
        iu = np.triu_indices(n, 1)
        m[iu] = [np.nan if rng.random() < 0.2 else v for v in m[iu]]
        exclusions = rng.choice([(), DEFAULT_SECTOR_EXCLUSIONS, ("D", "AtB")])
        try:
            expected = oracle_grouped_correlations(m, groups, "within_country_sectors",
                                                   exclusions)
        except EmptyGroup as exc:
            with pytest.raises(EmptyGroup, match=re.escape(str(exc))):
                grouped_correlations(m, groups, "within_country_sectors", exclusions)
            return
        out = grouped_correlations(m, groups, "within_country_sectors", exclusions)
        assert list(out.items()) == list(expected.items())

    @pytest.mark.parametrize("seed", range(6))
    def test_scenario_means_match_first_seen_scans(self, demo_io_network, seed):
        # the demo network's nodes shuffled, so countries interleave
        rng = np.random.default_rng(seed)
        perm = rng.permutation(demo_io_network.n)
        net = InteractionNetwork(weights=np.eye(demo_io_network.n),
                                 sectors=[demo_io_network.sectors[i] for i in perm],
                                 countries=[demo_io_network.countries[i] for i in perm],
                                 outputs=demo_io_network.outputs[perm])
        traj = SimpleNamespace(
            y=1.0 + 0.1 * rng.standard_normal((48, demo_io_network.n)).cumsum(axis=0))
        spec = ScenarioSpec(stride=4, detrend=bool(seed % 2),
                            exclusions=("MFG",) if seed % 3 == 0 else ())
        assert _grouped_means(net, _annual_means([traj], spec.stride), spec) == \
            [oracle_grouped_means(net, traj, spec)]

    @pytest.mark.parametrize("shape, groups, grouping", [
        ((2, 2), ["A", "B", "C"], "across_country_aggregates"),
        ((4, 4), ["A", "B"], "across_country_aggregates"),
        ((2, 3), ["A", "B"], "across_country_aggregates"),
        ((4, 4), [("D", "US"), ("F", "US")], "within_country_sectors"),
    ])
    def test_matrix_must_match_the_groups(self, shape, groups, grouping):
        message = f"correlation matrix of shape {shape} does not match {len(groups)} groups"
        with pytest.raises(ConfigError, match=re.escape(message)):
            grouped_correlations(np.full(shape, 0.5), groups, grouping)

    def test_empty_group_rejected(self):
        m = np.eye(2)
        with pytest.raises(EmptyGroup):
            grouped_correlations(m, [("AtB", "US"), ("C", "US")],
                                 "within_country_sectors",
                                 exclusions=DEFAULT_SECTOR_EXCLUSIONS)


class TestScenarioBlocks:
    @pytest.mark.parametrize("runs, detrend, exclusions", [
        pytest.param(runs, detrend, exclusions,
                     id=f"{runs}-{detrend}" + ("-excluded" if exclusions else ""))
        for runs in (1, 7, 32) for detrend in (False, True)
        for exclusions in ((), ("AGR", "TRD"))])
    def test_block_matches_one_run_calls(self, demo_io_network, monkeypatch, runs, detrend,
                                         exclusions):
        net = demo_io_network
        rng = np.random.default_rng(runs)
        block = [SimpleNamespace(y=1.0 + 0.1 * rng.standard_normal((48, net.n)).cumsum(axis=0))
                 for _ in range(runs)]
        # a zero series has its trend under the floor, so this run's detrended
        # indicator is missing and the run takes the pairwise path alone
        block[runs // 2].y[:, 1] = 0.0
        spec = ScenarioSpec(stride=4, detrend=detrend, exclusions=exclusions)
        pairwise = []
        pairwise_correlations = empirics._pairwise_correlations

        def recording(data, min_overlap):
            pairwise.append(np.shape(data))
            return pairwise_correlations(data, min_overlap)

        monkeypatch.setattr(empirics, "_pairwise_correlations", recording)
        got = _grouped_means(net, _annual_means(block, spec.stride), spec)
        assert pairwise == ([(12, net.n)] if detrend else [])
        monkeypatch.undo()
        assert got == [_grouped_means(net, _annual_means([traj], spec.stride), spec)[0]
                       for traj in block]
        # the block's one gather per group against the per-run loop oracle
        assert got == [oracle_grouped_means(net, traj, spec) for traj in block]


@pytest.fixture(scope="module")
def smoke_rows(demo_io_network):
    spec = ScenarioSpec(dynamics=("cycle", "node"),
                        shock_types=("idiosyncratic",),
                        sigma_u_grid=(0.0, 0.2), n_seeds=2)
    return scenario_run(demo_io_network, spec)


class TestScenarioRun:

    def test_schema(self, smoke_rows):
        assert len(smoke_rows) == 2 * 1 * 2 * 2
        groups = {r.group for r in smoke_rows}
        assert groups == {"within_country_sectors", "across_country_aggregates"}

    def test_deterministic_cycle_fully_correlated(self, smoke_rows):
        for r in smoke_rows:
            if r.dynamics == "cycle" and r.sigma_u == 0.0:
                assert r.mean_corr > 0.99

    def test_rerun_reproduces_exactly(self, demo_io_network, smoke_rows):
        spec = ScenarioSpec(dynamics=("cycle", "node"),
                            shock_types=("idiosyncratic",),
                            sigma_u_grid=(0.0, 0.2), n_seeds=2)
        again = scenario_run(demo_io_network, spec)
        assert again == smoke_rows

    def test_blowup_names_cell_and_seed(self, demo_io_network):
        # the second cell's third seed blows up; its block index would be 5
        spec = ScenarioSpec(dynamics=("cycle",), shock_types=("idiosyncratic",),
                            sigma_u_grid=(0.1, 3.0), n_seeds=3)
        with pytest.raises(NumericalError) as err:
            scenario_run(demo_io_network, spec)
        message = str(err.value)
        for part in ("'cycle'", "'idiosyncratic'", "sigma_u 3.0", "seed 2", "at step 3"):
            assert part in message
        assert not isinstance(err.value, NumericalBlowup)
        assert isinstance(err.value.__cause__, NumericalBlowup)

    def test_blowup_in_two_blocks_names_the_first_in_seed_major_order(self, demo_io_network):
        # 32 cells x 2 seeds in 63-run blocks, seed-major: the last cell
        # (sigma_u 3.0) is run 31 of the first block at seed 0 and run 0 of the
        # second at seed 1.  Both blow up, seed 1 at an earlier step (4 against
        # 5), so the first failing block, not the earliest step, decides which
        # run is named
        spec = ScenarioSpec(dynamics=("cycle",), shock_types=("idiosyncratic",),
                            sigma_u_grid=(*np.linspace(0.01, 0.16, 31), 3.0), n_seeds=2)
        assert _runs_per_batch(demo_io_network.n, spec.retain) == 63
        with pytest.raises(NumericalError) as err:
            scenario_run(demo_io_network, spec)
        message = str(err.value)
        for part in ("sigma_u 3.0", "seed 0", "at step 5"):
            assert part in message
        assert err.value.__cause__.run == 31

    def test_block_size_follows_the_retained_bytes(self):
        # 2 MiB of retained paths per block, at least 32 runs: 63 runs on the
        # 18-node demo network, the floor at the paper's 476 nodes
        assert _runs_per_batch(18, 228) == 63
        assert _runs_per_batch(476, 228) == 32
        assert _runs_per_batch(1, 228) == 1149

    def test_detrended_rows_match_per_run_oracle(self, demo_io_network):
        spec = ScenarioSpec(dynamics=("cycle", "node"), shock_types=("idiosyncratic", "country"),
                            sigma_u_grid=(0.1, 0.25), n_seeds=3, detrend=True)
        rows = scenario_run(demo_io_network, spec)
        expected = []
        for dyn, shock, sigma_u in itertools.product(spec.dynamics, spec.shock_types,
                                                     spec.sigma_u_grid):
            params = AgentParams.with_steady_state(*DYNAMICS_PRESETS[dyn], DEFAULT_QUARTIC)
            means = [oracle_grouped_means(
                demo_io_network, simulate(demo_io_network, params, DEFAULT_QUARTIC,
                         ShockConfig(sigma_u=sigma_u, **SHOCK_PRESETS[shock]),
                         SimulationConfig(steps=spec.steps, retain=spec.retain, seed=seed)),
                spec, oracle_correlation_matrix) for seed in range(spec.n_seeds)]
            for group in ("within_country_sectors", "across_country_aggregates"):
                vals = np.array([m[group] for m in means])
                expected.append((dyn, shock, sigma_u, group, vals.mean(), vals.std(ddof=1)))
        assert [(r.dynamics, r.shock_type, r.sigma_u, r.group) for r in rows] == \
            [e[:4] for e in expected]
        for r, e in zip(rows, expected):
            assert r.mean_corr == pytest.approx(e[4], rel=0, abs=1e-12)
            assert r.sd_corr == pytest.approx(e[5], rel=0, abs=1e-12)

    @pytest.mark.parametrize("retain, stride, detrend", [(28, 4, True), (7, 1, True),
                                                          (8, 4, False)])
    def test_rejects_too_short_window(self, retain, stride, detrend):
        need = 8 if detrend else 3
        with pytest.raises(ConfigError, match=f"retain {retain} // stride {stride} = "
                                              f"{retain // stride} .* at least {need}"):
            ScenarioSpec(retain=retain, stride=stride, detrend=detrend)

    @pytest.mark.parametrize("retain, stride, detrend", [(32, 4, True), (12, 4, False)])
    def test_accepts_shortest_window(self, retain, stride, detrend):
        ScenarioSpec(retain=retain, stride=stride, detrend=detrend)

    @pytest.mark.parametrize("n_seeds", [0, -2])
    def test_rejects_too_few_seeds(self, n_seeds):
        with pytest.raises(ConfigError, match="n_seeds"):
            ScenarioSpec(n_seeds=n_seeds)

    @pytest.mark.parametrize("grid", [(0.1, np.nan), (0.1, 0.2, -0.3), (np.inf,)])
    def test_rejects_bad_sigma_u_grid(self, grid):
        with pytest.raises(ConfigError, match="sigma_u_grid values must be finite and non-neg"):
            ScenarioSpec(sigma_u_grid=grid)

    @pytest.mark.parametrize("grid", ["dynamics", "shock_types", "sigma_u_grid"])
    def test_rejects_empty_grid(self, grid):
        with pytest.raises(ConfigError, match=f"^{grid} must not be empty$"):
            ScenarioSpec(**{grid: ()})

    @pytest.mark.parametrize("stride", [0, 5])
    def test_rejects_stride_not_dividing_retain(self, stride):
        with pytest.raises(ConfigError, match=f"stride {stride} .* retain 228"):
            ScenarioSpec(retain=228, stride=stride)

    def test_csv_export(self, smoke_rows, tmp_path):
        path = tmp_path / "rows.csv"
        write_scenario_csv(smoke_rows, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == \
            "dynamics,shock_type,sigma_u,group,mean_corr,sd_corr,n_seeds"
        assert len(lines) == 1 + len(smoke_rows)
        # full-precision floats round-trip
        value = lines[1].split(",")[4]
        assert float(value) == smoke_rows[0].mean_corr
