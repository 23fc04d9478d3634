import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cyclesync import phase
from cyclesync.dynamics import AgentParams
from cyclesync.errors import (
    ConfigError,
    DegenerateSeries,
    EntrainmentFailure,
    NumericalBlowup,
    NumericalError,
    TooFewPeaks,
)
from cyclesync.networks import InteractionNetwork, build_topology, uniform_coupling
from cyclesync.phase import (
    detect_peaks,
    epsilon_sweep,
    mean_pairwise_correlation,
    measured_frequency,
    phase_coherence,
    phase_series,
    sync_centrality,
)
from cyclesync.simulation import ShockConfig, SimulationConfig, simulate


def agents(alpha1):
    """One cycling agent per alpha1 value, the other parameters at their defaults."""
    return [AgentParams.with_steady_state(a1, 0.4, 0.1) for a1 in alpha1]


def sinusoid(period, steps, amplitude=1.0, phase=0.0):
    t = np.arange(steps)
    return amplitude * np.sin(2 * np.pi * t / period + phase)


class TestDetectPeaks:
    def test_sinusoid_peak_spacing(self):
        peaks = detect_peaks(sinusoid(36, 400))
        spacing = np.diff(peaks)
        assert np.all(np.abs(spacing - 36) <= 1)

    def test_constant_series_has_no_peaks(self):
        with pytest.raises(TooFewPeaks):
            detect_peaks(np.ones(400))

    def test_small_noise_does_not_add_peaks(self, rng):
        clean = sinusoid(36, 400)
        noisy = clean + rng.normal(0, 0.01, clean.size)
        assert detect_peaks(noisy).size == detect_peaks(clean).size

    def test_short_series_rejected(self):
        # at most 2 * min_separation steps cannot hold three peaks: an option
        # error, raised before any peak is looked for
        with pytest.raises(ConfigError, match="series of length 8 too short for separation 5"):
            detect_peaks(np.ones(8), min_separation=5)

    @pytest.mark.parametrize("min_separation", [0, -2])
    def test_separation_below_one_rejected(self, min_separation):
        with pytest.raises(ConfigError, match="min_separation"):
            detect_peaks(sinusoid(36, 400), min_separation=min_separation)

    @pytest.mark.parametrize("smooth_window", [0, -3])
    def test_smooth_window_below_one_rejected(self, smooth_window):
        with pytest.raises(ConfigError, match="smooth_window"):
            detect_peaks(sinusoid(36, 400), smooth_window=smooth_window)

    @pytest.mark.parametrize("min_prominence", [np.nan, np.inf, -1.0])
    def test_prominence_out_of_range_rejected(self, min_prominence):
        with pytest.raises(ConfigError, match="min_prominence must be finite and non-negative"):
            detect_peaks(sinusoid(36, 400), min_prominence=min_prominence)

    def test_zero_prominence_accepted(self):
        assert detect_peaks(sinusoid(36, 400), min_prominence=0.0).size >= 3

    def test_smoothing_suppresses_noise_peaks(self, rng):
        clean = sinusoid(36, 720)
        noisy = clean + rng.normal(0, 0.35, clean.size)
        n_clean = detect_peaks(clean).size
        n_smoothed = detect_peaks(noisy, min_separation=10,
                                  min_prominence=None, smooth_window=7).size
        assert abs(n_smoothed - n_clean) <= 2

    def test_smooth_window_longer_than_series_rejected(self):
        # "same"-mode convolution would return the window's length and
        # peaks past the end of the 60-step series
        with pytest.raises(ConfigError, match="smooth_window 90 exceeds the series length 60"):
            detect_peaks(sinusoid(12, 60), smooth_window=90)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("min_prominence", [None, 0.1])
    def test_non_finite_value_rejected(self, bad, min_prominence):
        series = sinusoid(12, 60)
        series[7] = bad
        series[20] = np.nan
        with pytest.raises(DegenerateSeries, match="index 7 is not finite"):
            detect_peaks(series, min_prominence=min_prominence)

    @pytest.mark.parametrize("shape", [(400, 1), (20, 10), ()])
    @pytest.mark.parametrize("func", [detect_peaks, measured_frequency, phase_series])
    def test_series_must_be_one_dimensional(self, func, shape):
        series = np.resize(sinusoid(12, 400), shape)
        with pytest.raises(ConfigError, match=re.escape(f"1-D, got shape {shape}")):
            func(series)

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 2000),
           unit=st.sampled_from([0.0, 1.0, 0.1, 1e-3]))
    @settings(max_examples=300, deadline=None)
    def test_default_prominence_uses_numpy_percentiles(self, seed, n, unit):
        # multiples of a unit give ties; unit = 0 draws tie-free values
        rng = np.random.default_rng(seed)
        x = rng.integers(-3, 4, n) * unit if unit else rng.normal(size=n) ** 3
        q75, q25 = np.percentile(x, [75, 25])
        assert phase._interquartile_range(x) == q75 - q25


@pytest.fixture(scope="module")
def find_peaks():
    return pytest.importorskip("scipy.signal").find_peaks


@st.composite
def stepped_series(draw):
    """Small-integer series: plateaus, equal heights and flat ends are common."""
    top = draw(st.integers(1, 8))
    return np.array(draw(st.lists(st.integers(0, top), min_size=3, max_size=300)), dtype=float)


class TestFindPeaksOracle:
    """The owned peak finder against ``scipy.signal.find_peaks``, index for index."""

    @given(x=stepped_series(), distance=st.integers(1, 7),
           prominence=st.one_of(st.just(1e-300), st.integers(1, 8).map(float),
                                st.floats(1e-300, 8.0)))
    @settings(max_examples=600, deadline=None)
    # equal twin maxima: each one's base reaches past the other
    @example(x=np.array([0.0, 2, 1, 2, 0]), distance=1, prominence=2.0)
    # even-width plateau peak, and plateaus running into both ends
    @example(x=np.array([1.0, 1, 0, 3, 3, 3, 3, 0, 2, 2]), distance=1, prominence=1e-300)
    # equal heights closer than the distance: argsort order picks the survivor
    @example(x=np.array([0.0, 3, 0, 3, 0, 3, 0, 1, 0]), distance=3, prominence=1.0)
    def test_stepped_series(self, find_peaks, x, distance, prominence):
        want = find_peaks(x, distance=distance, prominence=prominence)[0]
        np.testing.assert_array_equal(phase._block_peaks(x[None], distance, [prominence])[1],
                                      want)

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 2000),
           noise=st.sampled_from([0.0, 0.05, 0.5, 5.0]), distance=st.integers(1, 7),
           prominence=st.sampled_from([1e-300, 0.01, 0.1, 1.0]))
    @settings(max_examples=300, deadline=None)
    def test_noisy_oscillations(self, find_peaks, seed, n, noise, distance, prominence):
        rng = np.random.default_rng(seed)
        x = sinusoid(rng.uniform(4, 80), n, phase=rng.uniform(0, 6)) + rng.normal(0, noise, n)
        want = find_peaks(x, distance=distance, prominence=prominence)[0]
        np.testing.assert_array_equal(phase._block_peaks(x[None], distance, [prominence])[1],
                                      want)

    @pytest.mark.parametrize("smooth_window", [1, 5])
    def test_detect_peaks_on_simulated_paths(self, find_peaks, smooth_window):
        # the centrality runs' case: noisy cycles, default prominence
        traj = simulate(uniform_coupling(build_topology("star", 4), 0.5),
                        agents(np.linspace(-0.1, -0.02, 4)),
                        shocks=ShockConfig(rho_u=0.3, sigma_u=0.05),
                        cfg=SimulationConfig(steps=2500, burn_in=500, seed=3))
        for y in traj.y.T:
            smoothed = phase._smooth(y, smooth_window)
            q75, q25 = np.percentile(smoothed, [75, 25])
            want = find_peaks(smoothed, distance=5, prominence=0.1 * (q75 - q25))[0]
            np.testing.assert_array_equal(detect_peaks(y, smooth_window=smooth_window), want)


def oracle_find_peaks(x, distance, prominence):
    """The per-series finder the block finder replaced, kept as reference.

    Plateau midpoints, the highest-first distance rule, then each maximum's
    bases as the lowest valleys out to the nearest strictly higher maximum,
    found by one stack pass per side.
    """
    d = x[1:] - x[:-1]
    steps = np.flatnonzero(d)
    rising = d[steps] > 0
    turn = np.flatnonzero(rising[:-1] > rising[1:])
    maxima = (steps[turn] + steps[turn + 1] + 1) // 2
    if maxima.size == 0:
        return maxima
    heights = x[maxima]
    keep = None
    distance = math.ceil(distance)
    if maxima.size > 1 and (maxima[1:] - maxima[:-1]).min() < distance:
        keep = phase._keep_by_distance(maxima, heights, distance)

    def basin_floors(heights, valleys):
        floors = []
        stack_h, stack_v = [math.inf], [None]
        for h, v in zip(heights, valleys):
            while stack_h[-1] <= h:
                stack_h.pop()
                v = min(v, stack_v.pop())
            stack_h.append(h)
            stack_v.append(v)
            floors.append(v)
        return floors

    valleys = np.minimum.reduceat(x, np.append(0, maxima)).tolist()
    h = heights.tolist()
    left = basin_floors(h, valleys[:-1])
    right = basin_floors(h[::-1], valleys[:0:-1])[::-1]
    ok = heights - np.maximum(left, right) >= prominence
    if keep is not None:
        ok &= keep
    return maxima[ok]


ROW_KINDS = ("plateaus", "flat_ends", "twins", "noisy", "no_maximum", "crowded")


@st.composite
def peak_blocks(draw):
    """(S, T) blocks whose rows mix the shapes the block finder special-cases.

    S runs past a 32-row chunk; every row is one of ``ROW_KINDS``: stepped
    plateaus, plateaus running into both ends, equal twin maxima, noisy
    cycles, monotone or constant rows, and maxima closer than the distance.
    """
    s = draw(st.integers(1, 40))
    t = draw(st.integers(3, 160))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = []
    for kind in draw(st.lists(st.sampled_from(ROW_KINDS), min_size=s, max_size=s)):
        if kind == "plateaus":
            row = rng.integers(0, rng.integers(1, 6), t).astype(float)
        elif kind == "flat_ends":
            row = rng.integers(0, 4, t).astype(float)
            edge = rng.integers(1, t // 2 + 1)
            row[:edge], row[t - edge:] = row.max() + 1, row.max() + 1
        elif kind == "twins":
            row = np.tile([0.0, 2.0, 1.0, 2.0], t // 4 + 1)[:t]
        elif kind == "noisy":
            row = (sinusoid(rng.uniform(4, 40), t, phase=rng.uniform(0, 6))
                   + rng.normal(0, rng.choice([0.0, 0.05, 0.5]), t))
        elif kind == "no_maximum":
            row = rng.choice([np.ones(t), np.arange(t, dtype=float), -np.arange(t, 0.0, -1)])
        else:
            row = sinusoid(rng.uniform(2, 4), t) + rng.normal(0, 0.1, t)
        rows.append(row)
    return np.array(rows)


class TestBlockPeaks:
    """The block finder, row by row, against the retired finder and scipy."""

    @given(block=peak_blocks(), distance=st.integers(1, 7),
           prominence=st.sampled_from([1e-300, 0.01, 0.5, 1.0, 3.0]))
    @settings(max_examples=300, deadline=None)
    def test_rows_match_oracle(self, block, distance, prominence):
        thresholds = prominence * np.arange(1, block.shape[0] + 1) / block.shape[0]
        counts, cols = phase._block_peaks(block, distance, thresholds)
        assert counts.shape == (block.shape[0],) and counts.sum() == cols.size
        for row, got, th in zip(block, np.split(cols, np.cumsum(counts)[:-1]), thresholds):
            np.testing.assert_array_equal(got, oracle_find_peaks(row, distance, th))

    @given(block=peak_blocks(), distance=st.integers(1, 7),
           prominence=st.sampled_from([1e-300, 0.01, 0.5, 1.0, 3.0]))
    @settings(max_examples=200, deadline=None)
    def test_rows_match_scipy(self, find_peaks, block, distance, prominence):
        counts, cols = phase._block_peaks(block, distance, np.full(block.shape[0], prominence))
        for row, got in zip(block, np.split(cols, np.cumsum(counts)[:-1])):
            np.testing.assert_array_equal(got, find_peaks(row, distance=distance,
                                                          prominence=prominence)[0])

    @given(block=peak_blocks())
    @settings(max_examples=200, deadline=None)
    def test_block_interquartile_range_uses_numpy_percentiles(self, block):
        q75, q25 = np.percentile(block, [75, 25], axis=1)
        np.testing.assert_array_equal(phase._interquartile_range(block), q75 - q25)


def oracle_phase_fill(size, peaks):
    """The per-interval loop that filled ``phase_series`` phases, kept as reference."""
    phi = np.full(size, np.nan)
    for a, b in zip(peaks[:-1], peaks[1:]):
        steps = np.arange(a, b)
        phi[a:b] = 2.0 * np.pi * (steps - a) / (b - a)
    phi[peaks[-1]] = 0.0
    return phi


class TestPhaseSeriesOracle:
    """The one-pass phase fill against the per-interval loop, bit for bit."""

    def check(self, x, **peak_kwargs):
        try:
            got = phase_series(x, **peak_kwargs)
        except TooFewPeaks:
            assume(False)
        np.testing.assert_array_equal(got.phi, oracle_phase_fill(x.size, got.peaks),
                                      strict=True)
        assert np.isnan(got.phi[:got.peaks[0]]).all()
        assert np.isnan(got.phi[got.peaks[-1] + 1:]).all()

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(300, 2500),
           noise=st.sampled_from([0.0, 0.05, 0.5, 2.0]),
           quantum=st.sampled_from([0.0, 0.25, 1.0]), smooth_window=st.sampled_from([1, 5]))
    @settings(max_examples=300, deadline=None)
    def test_noisy_oscillations(self, seed, n, noise, quantum, smooth_window):
        # rounding to a quantum turns the crests into plateaus
        rng = np.random.default_rng(seed)
        x = sinusoid(rng.uniform(12, 80), n, phase=rng.uniform(0, 6)) + rng.normal(0, noise, n)
        if quantum:
            x = np.round(x / quantum) * quantum
        self.check(x, smooth_window=smooth_window)

    def test_plateau_peaks(self):
        # plateau peaks of odd and even width, the even ones at their left midpoint
        x = np.array([0.0, 2, 2, 2, 0, 0, 3, 3, 0, 1, 0, 4, 4, 4, 4, 0])
        got = phase_series(x, min_separation=1, min_prominence=0.5)
        assert got.peaks.tolist() == [2, 6, 9, 12]
        np.testing.assert_array_equal(got.phi, oracle_phase_fill(x.size, got.peaks),
                                      strict=True)


class TestPhaseCoherence:
    def test_identical_phases_give_one(self):
        phi = np.tile(np.linspace(0, 2 * np.pi, 50, endpoint=False), (3, 1)).T
        assert phase_coherence(phi) == pytest.approx(1.0)

    def test_evenly_spaced_phases_give_zero(self):
        n = 8
        base = np.linspace(0, 2 * np.pi, 60, endpoint=False)
        phi = np.column_stack([(base + 2 * np.pi * k / n) % (2 * np.pi)
                               for k in range(n)])
        assert phase_coherence(phi) == pytest.approx(0.0, abs=1e-10)

    def test_quarter_turn_pair(self):
        base = np.linspace(0, 2 * np.pi, 50, endpoint=False)
        phi = np.column_stack([base, base + np.pi / 2])
        assert phase_coherence(phi) == pytest.approx(np.cos(np.pi / 4), abs=1e-12)

    def test_invariant_under_common_rotation(self, rng):
        phi = rng.uniform(0, 2 * np.pi, (40, 5))
        rotated = phi + 1.23456
        assert phase_coherence(rotated) == pytest.approx(phase_coherence(phi),
                                                         abs=1e-12)

    def test_from_phase_series(self):
        series = [phase_series(sinusoid(36, 400, phase=p)) for p in (0.0, 0.0)]
        phi = np.column_stack([s.phi for s in series])
        assert phase_coherence(phi) == pytest.approx(1.0, abs=1e-6)


class TestMeanPairwiseCorrelation:
    def test_identical_series(self, rng):
        s = rng.normal(0, 1, 100)
        assert mean_pairwise_correlation(np.column_stack([s, s, s])) == \
            pytest.approx(1.0)

    def test_negated_pair(self, rng):
        s = rng.normal(0, 1, 100)
        assert mean_pairwise_correlation(np.column_stack([s, -s])) == \
            pytest.approx(-1.0)

    def test_independent_noise_near_zero(self, rng):
        data = rng.normal(0, 1, (10000, 2))
        assert abs(mean_pairwise_correlation(data)) < 0.05

    def test_affine_invariance(self, rng):
        data = rng.normal(0, 1, (200, 4))
        scaled = data * np.array([2.0, 5.0, 0.1, 9.0]) + np.array([1, -3, 0, 7])
        assert mean_pairwise_correlation(scaled) == pytest.approx(
            mean_pairwise_correlation(data), abs=1e-12)

    def test_degenerate_series_rejected(self):
        data = np.column_stack([np.ones(50), np.arange(50.0)])
        with pytest.raises(DegenerateSeries):
            mean_pairwise_correlation(data)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_rejected(self, rng, bad):
        data = rng.normal(0, 1, (50, 3))
        data[7, 2] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DegenerateSeries, match="series 2 value at step 7 is not finite"):
                mean_pairwise_correlation(data)


class TestFrequencyEstimators:
    def test_peak_estimate_on_sinusoid(self):
        assert measured_frequency(sinusoid(40, 2000)) == pytest.approx(2 * np.pi / 40,
                                                                       rel=0.01)


def oracle_phase_matrix(ys, peak_kwargs):
    """The phase matrix epsilon_sweep built with a second peak pass, verbatim."""
    cols = []
    for i in range(ys.shape[1]):
        cols.append(phase_series(ys[:, i], **peak_kwargs).phi)
    return np.column_stack(cols)


@pytest.fixture(scope="module")
def sweep():
    adj = build_topology("complete", 10)
    return epsilon_sweep(adj, agents(np.linspace(-0.1, -0.02, 10)),
                         eps_grid=[0.10, 0.15, 0.20, 0.25, 0.30],
                         cfg=SimulationConfig(steps=2500, burn_in=500, seed=0))


class TestEpsilonSweep:

    def test_transition_location(self, sweep):
        assert not sweep.entrained[0]               # eps = 0.10
        assert sweep.entrained[3]                   # eps = 0.25
        assert 0.15 <= sweep.transition_epsilon() <= 0.25

    def test_entrainment_stays_on(self, sweep):
        first = int(np.flatnonzero(sweep.entrained)[0])
        assert sweep.entrained[first:].all()

    def test_entrained_frequency_near_uncoupled_mean(self, sweep):
        adj = build_topology("complete", 10)
        solo = epsilon_sweep(adj, agents(np.linspace(-0.1, -0.02, 10)), eps_grid=[0.0],
                             cfg=SimulationConfig(steps=2500, burn_in=500, seed=0))
        uncoupled_mean = solo.omegas[0].mean()
        entrained = sweep.omegas[sweep.entrained][0].mean()
        assert entrained == pytest.approx(uncoupled_mean, rel=0.10)

    def test_one_peak_pass_per_series(self, monkeypatch):
        # frequencies and coherence come from one block peak pass over every
        # node and epsilon, and equal the old frequency pass plus phase-matrix pass
        trajs, blocks = [], []
        batch, block_peaks = phase.simulate_batch, phase._block_peaks

        def recording_batch(*args, **kwargs):
            trajs.extend(batch(*args, **kwargs))
            return trajs

        def counting_block_peaks(block, *args):
            blocks.append(block.shape)
            return block_peaks(block, *args)

        monkeypatch.setattr(phase, "simulate_batch", recording_batch)
        monkeypatch.setattr(phase, "_block_peaks", counting_block_peaks)
        peak_kwargs = {"min_separation": 4, "smooth_window": 3}
        result = epsilon_sweep(build_topology("complete", 4),
                               agents([-0.1, -0.07, -0.04, -0.02]), eps_grid=[0.0, 0.3],
                               cfg=SimulationConfig(steps=1500, burn_in=300, seed=3),
                               peak_kwargs=peak_kwargs)
        assert blocks == [(2 * 4, 1200)]
        for k, traj in enumerate(trajs):
            np.testing.assert_array_equal(
                result.omegas[k], [measured_frequency(traj.y[:, i], **peak_kwargs)
                                   for i in range(4)])
            assert result.coherence[k] == phase_coherence(
                oracle_phase_matrix(traj.y, peak_kwargs))

    def test_coherence_rises_through_transition(self, sweep):
        assert sweep.coherence[-1] > sweep.coherence[0] + 0.2

    def test_csv_export(self, sweep, tmp_path):
        path = tmp_path / "sweep.csv"
        sweep.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "eps,coherence,mean_correlation,entrained,spread"
        assert len(lines) == 6

    def test_blowup_names_its_eps(self, monkeypatch):
        monkeypatch.setattr(phase, "simulate_batch", blowing_up(run=1))
        with pytest.raises(NumericalError, match=r"^eps 0\.25: \|y\| = 1\.04e\+03 exceeded "
                                                 r"bound 1e\+03 at step 15$") as failure:
            epsilon_sweep(build_topology("complete", 3), agents([-0.1, -0.06, -0.02]),
                          eps_grid=[0.0, 0.25], cfg=SimulationConfig(steps=1500, burn_in=300))
        assert type(failure.value) is NumericalError
        assert isinstance(failure.value.__cause__, NumericalBlowup)

    def test_peak_failure_names_eps_and_node(self, monkeypatch):
        monkeypatch.setattr(phase, "simulate_batch", flattening(run=1, node=2))
        with pytest.raises(TooFewPeaks, match=r"^eps 0\.25, node 2: found 0 peaks"):
            epsilon_sweep(build_topology("complete", 3), agents([-0.1, -0.06, -0.02]),
                          eps_grid=[0.0, 0.25], cfg=SimulationConfig(steps=1500, burn_in=300))


def simulate_nothing(*args, **kwargs):
    raise AssertionError("simulated before rejecting its input")


def blowing_up(run):
    """A ``simulate_batch`` stand-in whose run ``run`` blows up at step 15."""
    def batch(*args, **kwargs):
        raise NumericalBlowup(15, 1.04e3, 1e3, run=run)
    return batch


def flattening(run, node):
    """The real ``simulate_batch``, with the y path of ``node`` in ``run`` held flat."""
    real = phase.simulate_batch

    def batch(*args, **kwargs):
        trajs = real(*args, **kwargs)
        trajs[run].y[:, node] = 0.0
        return trajs
    return batch


@pytest.mark.parametrize("bad", [{"min_separation": 0}, {"smooth_window": 0}])
@pytest.mark.parametrize("driver", ["epsilon_sweep", "sync_centrality"])
def test_drivers_reject_peak_options_before_simulating(driver, bad, monkeypatch):
    monkeypatch.setattr(phase, "simulate_batch", simulate_nothing)
    adj = build_topology("star", 4)
    cfg = SimulationConfig(steps=1500)
    with pytest.raises(ConfigError, match=f"{next(iter(bad))} must be at least 1"):
        if driver == "epsilon_sweep":
            epsilon_sweep(adj, agents([-0.04] * 4), [0.5], cfg, peak_kwargs=bad)
        else:
            sync_centrality(uniform_coupling(adj, 0.5), cfg, n_draws=2, peak_kwargs=bad)


@pytest.mark.parametrize("entrain_tol", [math.nan, math.inf, -math.inf, 0.0, -0.05])
@pytest.mark.parametrize("driver", ["epsilon_sweep", "sync_centrality"])
def test_drivers_reject_entrain_tol_before_simulating(driver, entrain_tol, monkeypatch):
    monkeypatch.setattr(phase, "simulate_batch", simulate_nothing)
    adj = build_topology("star", 4)
    cfg = SimulationConfig(steps=1500)
    message = f"entrain_tol must be finite and positive, got {entrain_tol}"
    with pytest.raises(ConfigError, match=re.escape(message)):
        if driver == "epsilon_sweep":
            epsilon_sweep(adj, agents([-0.04] * 4), [0.5], cfg, entrain_tol=entrain_tol)
        else:
            sync_centrality(uniform_coupling(adj, 0.2), cfg, n_draws=2, entrain_tol=entrain_tol)


class TestSyncCentrality:
    def test_uniform_network_is_symmetric(self):
        # every focus node pulls the common frequency equally: the raw
        # benchmark gaps vanish to measurement precision (the normalized
        # scores amplify residual noise by construction, so the symmetry
        # statement lives in the raw differences)
        n = 5
        net = InteractionNetwork(weights=np.full((n, n), 1.0 / n))
        result = sync_centrality(net, SimulationConfig(steps=1500, burn_in=400, seed=4),
                                 n_draws=12, mode="L")
        assert result.scores.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(result.scores >= 0)
        assert np.all(np.abs(result.raw_differences)
                      < 1e-3 * result.benchmark_frequency)

    def test_star_hub_scores_highest(self):
        adj = build_topology("star", 6)
        net = uniform_coupling(adj, 0.5)
        result = sync_centrality(net, SimulationConfig(steps=1500, burn_in=400, seed=2),
                                 n_draws=12, mode="L")
        assert result.scores[0] == result.scores.max()

    def test_modes_l_and_h_agree_on_star_ranking(self):
        adj = build_topology("star", 5)
        net = uniform_coupling(adj, 0.5)
        cfg = SimulationConfig(steps=1500, burn_in=400, seed=3)
        low = sync_centrality(net, cfg, n_draws=10, mode="L")
        high = sync_centrality(net, cfg, n_draws=10, mode="H")
        assert low.scores[0] == low.scores.max()
        assert high.scores[0] == high.scores.max()

    def test_rejects_unknown_mode(self):
        net = InteractionNetwork(weights=np.full((3, 3), 1.0 / 3))
        with pytest.raises(ConfigError):
            sync_centrality(net, SimulationConfig(steps=2000), mode="X")

    def test_alpha1_grid_is_fixed(self, monkeypatch):
        # every draw assigns a permutation of linspace(-0.1, -0.02, N)
        net = uniform_coupling(build_topology("star", 4), 0.5)
        real, seen = phase.simulate_batch, []

        def record(target, draws, *args, **kwargs):
            seen.extend(sorted(p.alpha1 for p in params) for params in draws)
            return real(target, draws, *args, **kwargs)

        monkeypatch.setattr(phase, "simulate_batch", record)
        sync_centrality(net, SimulationConfig(steps=1500, burn_in=400, seed=1), n_draws=2)
        assert len(seen) == 2 * (net.n + 1)
        for alpha1 in seen:
            assert alpha1 == list(np.linspace(-0.1, -0.02, net.n))

    @pytest.mark.parametrize("mode", ["L", "H"])
    @pytest.mark.parametrize("seed", [7, 2**32 + 7])
    def test_draw_permutes_with_its_own_stream_key(self, mode, seed, monkeypatch):
        # draw d of focus node i (the uniform benchmark is i = N, focus 0)
        # permutes the rest of the grid with default_rng((seed, i, d))
        net = uniform_coupling(build_topology("star", 4), 0.5)
        seen = []

        class Stop(Exception):
            pass

        def record(nets, draws, *args, **kwargs):
            seen.extend(zip(nets, ([p.alpha1 for p in params] for params in draws)))
            raise Stop

        monkeypatch.setattr(phase, "simulate_batch", record)
        with pytest.raises(Stop):
            sync_centrality(net, SimulationConfig(steps=1500, burn_in=400, seed=seed),
                            n_draws=3, mode=mode)
        grid = np.linspace(-0.1, -0.02, net.n)
        focus_value, rest = (grid[-1], grid[:-1]) if mode == "L" else (grid[0], grid[1:])
        assert len(seen) == 3 * (net.n + 1)
        for r, (target, alpha1) in enumerate(seen):
            i, d = divmod(r, 3)
            focus = i if i < net.n else 0
            want = list(np.random.default_rng((seed, i, d)).permutation(rest))
            want.insert(focus, focus_value)
            assert alpha1 == want, (i, d)
            assert (target is net) == (i < net.n)

    def test_one_draw_has_zero_stderr(self):
        # one draw per node leaves no spread to estimate, and each node's
        # mean frequency is that draw's mean over the nodes
        net = uniform_coupling(build_topology("star", 4), 0.5)
        cfg = SimulationConfig(steps=1500, burn_in=400, seed=5)
        result = sync_centrality(net, cfg, n_draws=1, mode="L")
        np.testing.assert_array_equal(result.stderr, np.zeros(net.n))
        assert result.scores.sum() == pytest.approx(1.0, abs=1e-12)
        grid = np.linspace(-0.1, -0.02, net.n)
        for i in range(net.n):
            alpha1 = list(np.random.default_rng((5, i, 0)).permutation(grid[:-1]))
            alpha1.insert(i, grid[-1])
            traj = simulate(net, agents(alpha1), cfg=cfg)
            want = np.mean([measured_frequency(y) for y in traj.y.T])
            assert result.mean_frequencies[i] == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("n_draws", [0, -3])
    def test_rejects_fewer_than_one_draw(self, n_draws):
        net = InteractionNetwork(weights=np.full((3, 3), 1.0 / 3))
        with pytest.raises(ConfigError, match="n_draws"):
            sync_centrality(net, SimulationConfig(steps=2000), n_draws=n_draws)

    def test_rejects_fewer_than_two_nodes(self, monkeypatch):
        monkeypatch.setattr(phase, "simulate_batch", simulate_nothing)
        with pytest.raises(ConfigError, match="at least 2 nodes, got 1"):
            sync_centrality(InteractionNetwork(weights=np.eye(1)), SimulationConfig(steps=2000),
                            n_draws=2)

    def test_entrainment_failure_names_focus_node_and_draw(self):
        net = InteractionNetwork(weights=uniform_coupling(build_topology("star", 4), 0.05).weights,
                                 labels=list("abcd"))
        with pytest.raises(EntrainmentFailure,
                           match=r"focus node a, draw 0: frequency spread \d"):
            sync_centrality(net, SimulationConfig(steps=1500, burn_in=400, seed=1), n_draws=2)

    def test_entrainment_failure_names_uniform_benchmark(self, monkeypatch):
        net = uniform_coupling(build_topology("star", 4), 0.5)
        real = phase.simulate_batch

        def detune_uniform_draw_one(nets, draws, *args, **kwargs):
            trajs = real(nets, draws, *args, **kwargs)
            uniform = [r for r, target in enumerate(nets) if np.all(target.weights == 0.25)]
            trajs[uniform[1]].y[:, 0] = sinusoid(7, trajs[uniform[1]].steps)
            return trajs

        monkeypatch.setattr(phase, "simulate_batch", detune_uniform_draw_one)
        with pytest.raises(EntrainmentFailure,
                           match=r"uniform benchmark, draw 1: frequency spread \d"):
            sync_centrality(net, SimulationConfig(steps=1500, burn_in=400, seed=1), n_draws=2)

    @pytest.mark.parametrize("run, where", [(5, "focus node c, draw 1"),
                                            (8, "uniform benchmark, draw 0")])
    def test_blowup_names_focus_node_and_draw(self, run, where, monkeypatch):
        net = InteractionNetwork(weights=uniform_coupling(build_topology("star", 4), 0.5).weights,
                                 labels=list("abcd"))
        monkeypatch.setattr(phase, "simulate_batch", blowing_up(run))
        with pytest.raises(NumericalError, match=rf"^{where}: \|y\| = 1\.04e\+03 exceeded "
                                                 r"bound 1e\+03 at step 15$") as failure:
            sync_centrality(net, SimulationConfig(steps=1500, burn_in=400, seed=1), n_draws=2)
        assert type(failure.value) is NumericalError
        assert isinstance(failure.value.__cause__, NumericalBlowup)

    def test_peak_failure_names_focus_node_draw_and_node(self, monkeypatch):
        net = InteractionNetwork(weights=uniform_coupling(build_topology("star", 4), 0.5).weights,
                                 labels=list("abcd"))
        monkeypatch.setattr(phase, "simulate_batch", flattening(run=1, node=1))
        with pytest.raises(TooFewPeaks, match=r"^focus node a, draw 1, node b: found 0 peaks"):
            sync_centrality(net, SimulationConfig(steps=1500, burn_in=400, seed=1), n_draws=2)

    def test_block_boundary_inside_a_key(self, monkeypatch):
        # 3-run blocks split every key's draws; the scores equal one block's
        net = uniform_coupling(build_topology("star", 4), 0.5)
        cfg = SimulationConfig(steps=1500, burn_in=400, seed=1)
        whole = sync_centrality(net, cfg, n_draws=2)
        blocks = []

        def recording_batch(nets, draws, *args, **kwargs):
            blocks.append(len(draws))
            return real(nets, draws, *args, **kwargs)

        real = phase.simulate_batch
        monkeypatch.setattr(phase, "simulate_batch", recording_batch)
        monkeypatch.setattr(phase, "_DRAWS_PER_BATCH", 3)
        split = sync_centrality(net, cfg, n_draws=2)
        assert blocks == [3, 3, 3, 1]
        for name in ("scores", "raw_differences", "stderr", "mean_frequencies"):
            np.testing.assert_array_equal(getattr(split, name), getattr(whole, name))
        assert split.benchmark_frequency == whole.benchmark_frequency

    def test_blocks_equal_per_run_measured_frequency(self, monkeypatch):
        # 3 draws x 6 keys = 18 runs in simulation blocks of 10 and 8; the
        # 50 paths of the first block split into peak blocks of 32 and 18,
        # mid-run
        net = uniform_coupling(build_topology("star", 5), 0.5)
        cfg = SimulationConfig(steps=1500, burn_in=400, seed=5)
        real, trajs = phase.simulate_batch, []

        def recording_batch(*args, **kwargs):
            trajs.extend(real(*args, **kwargs))
            return trajs[-len(args[1]):]

        monkeypatch.setattr(phase, "simulate_batch", recording_batch)
        monkeypatch.setattr(phase, "_DRAWS_PER_BATCH", 10)
        result = sync_centrality(net, cfg, n_draws=3)
        assert len(trajs) == 18 and 10 * net.n > phase._SERIES_PER_BLOCK
        sims = np.array([np.mean([measured_frequency(traj.y[:, i]) for i in range(net.n)])
                         for traj in trajs]).reshape(net.n + 1, 3)
        np.testing.assert_array_equal(result.mean_frequencies, sims[:net.n].mean(axis=1))
        assert result.benchmark_frequency == sims[net.n].mean()

    def test_chain_entrainment_failure_keeps_its_spread(self):
        # the command-line defaults on a 6-node chain: draw 0 of node 0 fails
        net = uniform_coupling(build_topology("chain", 6), 0.5)
        with pytest.raises(EntrainmentFailure, match=r"^focus node 0, draw 0: frequency spread "
                                                     r"0\.3208 exceeds tolerance 0\.05$"):
            sync_centrality(net, SimulationConfig(steps=2000), n_draws=100)

    def test_errors_follow_run_order(self, monkeypatch):
        # draw 0 of node 0 fails entrainment before draw 1's flat path is checked
        net = uniform_coupling(build_topology("chain", 6), 0.5)
        monkeypatch.setattr(phase, "simulate_batch", flattening(run=1, node=1))
        with pytest.raises(EntrainmentFailure, match=r"^focus node 0, draw 0: frequency spread "
                                                     r"0\.3208 exceeds tolerance 0\.05$"):
            sync_centrality(net, SimulationConfig(steps=2000), n_draws=2)

    def test_csv_export(self, tmp_path):
        n = 4
        net = InteractionNetwork(weights=np.full((n, n), 1.0 / n))
        result = sync_centrality(net, SimulationConfig(steps=1200, burn_in=300, seed=1),
                                 n_draws=6, mode="L")
        path = tmp_path / "scores.csv"
        result.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "node,score,stderr"
        assert len(lines) == 1 + n
