import numpy as np
import pytest

from cyclesync import phase
from cyclesync.errors import (
    ConfigError,
    DegenerateSeries,
    EntrainmentFailure,
    PhaseUndefined,
    TooFewPeaks,
)
from cyclesync.networks import InteractionNetwork, build_topology
from cyclesync.phase import (
    detect_peaks,
    epsilon_sweep,
    frequency_fft,
    mean_pairwise_correlation,
    measured_frequency,
    phase_at,
    phase_coherence,
    phase_series,
    sync_centrality,
)


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
        with pytest.raises(TooFewPeaks):
            detect_peaks(np.ones(8), min_separation=5)

    @pytest.mark.parametrize("min_separation", [0, -2])
    def test_separation_below_one_rejected(self, min_separation):
        with pytest.raises(ConfigError, match="min_separation"):
            detect_peaks(sinusoid(36, 400), min_separation=min_separation)

    def test_smoothing_suppresses_noise_peaks(self, rng):
        clean = sinusoid(36, 720)
        noisy = clean + rng.normal(0, 0.35, clean.size)
        n_clean = detect_peaks(clean).size
        n_smoothed = detect_peaks(noisy, min_separation=10,
                                  min_prominence=None, smooth_window=7).size
        assert abs(n_smoothed - n_clean) <= 2


class TestPhaseAt:
    def test_reference_interpolation(self):
        # between peaks at 86 and 120, step 100 sits at 2*pi*14/34
        peaks = np.array([86, 120, 154])
        assert phase_at(100, peaks) == pytest.approx(2.58, abs=0.01)

    def test_zero_at_left_peak(self):
        peaks = np.array([10, 40, 70])
        assert phase_at(40, peaks) == 0.0

    def test_pi_at_midpoint(self):
        peaks = np.array([10, 40])
        assert phase_at(25, peaks) == pytest.approx(np.pi)

    def test_undefined_outside(self):
        peaks = np.array([10, 40])
        with pytest.raises(PhaseUndefined):
            phase_at(5, peaks)
        with pytest.raises(PhaseUndefined):
            phase_at(45, peaks)


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
        assert phase_coherence(series) == pytest.approx(1.0, abs=1e-6)


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


class TestFrequencyEstimators:
    def test_fft_matches_peak_estimate_on_sinusoid(self):
        series = sinusoid(40, 2000)
        w_pk = measured_frequency(series)
        w_ft = frequency_fft(series)
        assert w_ft == pytest.approx(w_pk, rel=0.02)
        assert w_ft == pytest.approx(2 * np.pi / 40, rel=0.01)


def oracle_phase_matrix(ys, peak_kwargs):
    """The phase matrix epsilon_sweep built with a second peak pass, verbatim."""
    cols = []
    for i in range(ys.shape[1]):
        cols.append(phase_series(ys[:, i], **peak_kwargs).phi)
    return np.column_stack(cols)


@pytest.fixture(scope="module")
def sweep():
    adj = build_topology("complete", 10)
    return epsilon_sweep(adj, np.linspace(-0.1, -0.02, 10),
                         eps_grid=[0.10, 0.15, 0.20, 0.25, 0.30],
                         steps=2500, burn_in=500, seed=0)


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
        solo = epsilon_sweep(adj, np.linspace(-0.1, -0.02, 10), eps_grid=[0.0],
                             steps=2500, burn_in=500, seed=0)
        uncoupled_mean = solo.omegas[0].mean()
        entrained = sweep.omegas[sweep.entrained][0].mean()
        assert entrained == pytest.approx(uncoupled_mean, rel=0.10)

    def test_one_peak_pass_per_series(self, monkeypatch):
        # frequencies and coherence come from one peak detection per node and
        # epsilon, and equal the old frequency pass plus phase-matrix pass
        trajs, calls = [], []
        batch, peaks = phase.simulate_batch, phase.detect_peaks

        def recording_batch(*args, **kwargs):
            trajs.extend(batch(*args, **kwargs))
            return trajs

        def counting_peaks(*args, **kwargs):
            calls.append(args)
            return peaks(*args, **kwargs)

        monkeypatch.setattr(phase, "simulate_batch", recording_batch)
        monkeypatch.setattr(phase, "detect_peaks", counting_peaks)
        peak_kwargs = {"min_separation": 4, "smooth_window": 3}
        result = epsilon_sweep(build_topology("complete", 4), [-0.1, -0.07, -0.04, -0.02],
                               eps_grid=[0.0, 0.3], steps=1500, burn_in=300, seed=3,
                               peak_kwargs=peak_kwargs)
        assert len(calls) == 2 * 4
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


class TestSyncCentrality:
    def test_uniform_network_is_symmetric(self):
        # every focus node pulls the common frequency equally: the raw
        # benchmark gaps vanish to measurement precision (the normalized
        # scores amplify residual noise by construction, so the symmetry
        # statement lives in the raw differences)
        n = 5
        net = InteractionNetwork(weights=np.full((n, n), 1.0 / n))
        result = sync_centrality(net, n_draws=12, mode="L", seed=4,
                                 steps=1500, burn_in=400)
        assert result.scores.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(result.scores >= 0)
        assert np.all(np.abs(result.raw_differences)
                      < 1e-3 * result.benchmark_frequency)

    def test_star_hub_scores_highest(self):
        from cyclesync.networks import uniform_coupling
        adj = build_topology("star", 6)
        net = uniform_coupling(adj, 0.5)
        result = sync_centrality(net, n_draws=12, mode="L", seed=2,
                                 steps=1500, burn_in=400)
        assert result.scores[0] == result.scores.max()

    def test_modes_l_and_h_agree_on_star_ranking(self):
        from cyclesync.networks import uniform_coupling
        adj = build_topology("star", 5)
        net = uniform_coupling(adj, 0.5)
        low = sync_centrality(net, n_draws=10, mode="L", seed=3,
                              steps=1500, burn_in=400)
        high = sync_centrality(net, n_draws=10, mode="H", seed=3,
                               steps=1500, burn_in=400)
        assert low.scores[0] == low.scores.max()
        assert high.scores[0] == high.scores.max()

    def test_rejects_unknown_mode(self):
        net = InteractionNetwork(weights=np.full((3, 3), 1.0 / 3))
        with pytest.raises(ConfigError):
            sync_centrality(net, mode="X")

    def test_alpha1_grid_is_fixed(self, monkeypatch):
        # every draw assigns a permutation of linspace(-0.1, -0.02, N)
        from cyclesync.networks import uniform_coupling
        net = uniform_coupling(build_topology("star", 4), 0.5)
        real, seen = phase.simulate_batch, []

        def record(target, draws, *args, **kwargs):
            seen.extend(sorted(p.alpha1 for p in params) for params in draws)
            return real(target, draws, *args, **kwargs)

        monkeypatch.setattr(phase, "simulate_batch", record)
        sync_centrality(net, n_draws=2, seed=1, steps=1500, burn_in=400)
        assert len(seen) == 2 * (net.n + 1)
        for alpha1 in seen:
            assert alpha1 == list(np.linspace(-0.1, -0.02, net.n))

    @pytest.mark.parametrize("n_draws", [0, -3])
    def test_rejects_fewer_than_one_draw(self, n_draws):
        net = InteractionNetwork(weights=np.full((3, 3), 1.0 / 3))
        with pytest.raises(ConfigError, match="n_draws"):
            sync_centrality(net, n_draws=n_draws)

    def test_entrainment_failure_names_focus_node_and_draw(self):
        from cyclesync.networks import uniform_coupling
        net = uniform_coupling(build_topology("star", 4), 0.05, labels="abcd")
        with pytest.raises(EntrainmentFailure,
                           match=r"focus node a, draw 0: frequency spread \d"):
            sync_centrality(net, n_draws=2, seed=1, steps=1500, burn_in=400)

    def test_entrainment_failure_names_uniform_benchmark(self, monkeypatch):
        from cyclesync.networks import uniform_coupling
        net = uniform_coupling(build_topology("star", 4), 0.5)
        real = phase.simulate_batch

        def detune_uniform_draw_one(target, draws, *args, **kwargs):
            trajs = real(target, draws, *args, **kwargs)
            if np.all(target.weights == 0.25):
                trajs[1].y[:, 0] = sinusoid(7, trajs[1].steps)
            return trajs

        monkeypatch.setattr(phase, "simulate_batch", detune_uniform_draw_one)
        with pytest.raises(EntrainmentFailure,
                           match=r"uniform benchmark, draw 1: frequency spread \d"):
            sync_centrality(net, n_draws=2, seed=1, steps=1500, burn_in=400)

    def test_csv_export(self, tmp_path):
        n = 4
        net = InteractionNetwork(weights=np.full((n, n), 1.0 / n))
        result = sync_centrality(net, n_draws=6, mode="L", seed=1,
                                 steps=1200, burn_in=300)
        path = tmp_path / "scores.csv"
        result.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "node,score,stderr"
        assert len(lines) == 1 + n
