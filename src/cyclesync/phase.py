"""Phase measurement, coherence, entrainment sweeps and synchronization centrality.

The phase of an oscillating series at step t interpolates linearly between
the two surrounding peaks: phi = 2*pi*(t - t_left)/(t_right - t_left).
Phase coherence is the time-averaged modulus of the mean unit phasor over
nodes (1 when all agents sit at the same point of their cycles, 0 when
spread evenly).  Synchronization centrality measures each node's pull on
the common entrained frequency by Monte Carlo over random frequency
assignments to the other nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.signal import find_peaks

from ._format import write_table
from .dynamics import DEFAULT_QUARTIC, AgentParams, QuarticCoefficients
from .errors import (
    ConfigError,
    DegenerateSeries,
    EntrainmentFailure,
    PhaseUndefined,
    TooFewPeaks,
)
from .networks import Adjacency, InteractionNetwork, uniform_coupling
from .simulation import ShockConfig, SimulationConfig, simulate_batch

__all__ = [
    "PhaseSeries",
    "EntrainmentResult",
    "SyncCentralityResult",
    "detect_peaks",
    "phase_at",
    "phase_series",
    "measured_frequency",
    "frequency_fft",
    "phase_coherence",
    "mean_pairwise_correlation",
    "epsilon_sweep",
    "sync_centrality",
]


#: draws simulated together by :func:`sync_centrality`; bounds the retained
#: paths held at once while keeping the per-step overhead amortized
_DRAWS_PER_BATCH = 100


@dataclass
class PhaseSeries:
    """Peak indices, per-step phase in [0, 2*pi) and mean angular frequency."""

    peaks: np.ndarray
    phi: np.ndarray
    omega: float


@dataclass
class EntrainmentResult:
    """Per-coupling measurements over an epsilon grid."""

    eps_grid: np.ndarray
    omegas: np.ndarray          # (n_eps, N)
    coherence: np.ndarray       # (n_eps,)
    mean_correlation: np.ndarray
    entrained: np.ndarray       # bool (n_eps,)
    spread: np.ndarray
    entrain_tol: float

    def transition_epsilon(self):
        """Smallest grid epsilon at which entrainment holds, or None."""
        hits = np.flatnonzero(self.entrained)
        return float(self.eps_grid[hits[0]]) if hits.size else None

    def to_csv(self, path):
        write_table(path, ("eps", "coherence", "mean_correlation", "entrained", "spread"),
                    self.eps_grid, self.coherence, self.mean_correlation, self.entrained,
                    self.spread)


@dataclass
class SyncCentralityResult:
    """Normalized per-node influence on the entrained common frequency."""

    scores: np.ndarray
    raw_differences: np.ndarray
    stderr: np.ndarray
    benchmark_frequency: float
    mean_frequencies: np.ndarray
    n_draws: int
    mode: str
    labels: list = field(default_factory=list)

    def to_csv(self, path):
        write_table(path, ("node", "score", "stderr"), self.labels, self.scores, self.stderr)


def _smooth(series: np.ndarray, window: int) -> np.ndarray:
    if window <= 1:
        return series
    kernel = np.ones(window) / window
    return np.convolve(series, kernel, mode="same")


def detect_peaks(series, min_separation: int = 5, min_prominence: float = None,
                 smooth_window: int = 1) -> np.ndarray:
    """Local maxima at least ``min_separation`` apart with enough prominence.

    ``min_prominence`` defaults to 10% of the interquartile range.  A
    moving-average ``smooth_window`` > 1 suppresses noise wiggles before
    detection (peak positions refer to the smoothed series).  Raises
    :class:`TooFewPeaks` when fewer than three peaks survive.
    """
    if min_separation < 1:
        raise ConfigError(f"min_separation must be at least 1, got {min_separation}")
    series = np.asarray(series, dtype=float)
    if series.size <= 2 * min_separation:
        raise TooFewPeaks(
            f"series of length {series.size} too short for separation {min_separation}"
        )
    smoothed = _smooth(series, smooth_window)
    if min_prominence is None:
        q75, q25 = np.percentile(smoothed, [75, 25])
        min_prominence = 0.1 * (q75 - q25)
    peaks, _ = find_peaks(smoothed, distance=min_separation,
                          prominence=max(min_prominence, 1e-300))
    if peaks.size < 3:
        raise TooFewPeaks(f"found {peaks.size} peaks, need at least 3")
    return peaks


def phase_at(t: int, peaks) -> float:
    """Linear phase 2*pi*(t - t_l)/(t_r - t_l) between surrounding peaks."""
    peaks = np.asarray(peaks)
    if peaks.size < 2 or t < peaks[0] or t > peaks[-1]:
        raise PhaseUndefined(f"step {t} lies outside the peak range")
    right = int(np.searchsorted(peaks, t, side="right"))
    if right == peaks.size:
        # t is exactly the last peak
        return 0.0
    t_l, t_r = int(peaks[right - 1]), int(peaks[right])
    return 2.0 * np.pi * (t - t_l) / (t_r - t_l)


def phase_series(series, min_separation: int = 5, min_prominence: float = None,
                 smooth_window: int = 1) -> PhaseSeries:
    """Phase at every step between the first and last peak, plus mean frequency."""
    series = np.asarray(series, dtype=float)
    peaks = detect_peaks(series, min_separation, min_prominence, smooth_window)
    phi = np.full(series.size, np.nan)
    for a, b in zip(peaks[:-1], peaks[1:]):
        steps = np.arange(a, b)
        phi[a:b] = 2.0 * np.pi * (steps - a) / (b - a)
    phi[peaks[-1]] = 0.0
    omega = 2.0 * np.pi / float(np.mean(np.diff(peaks)))
    return PhaseSeries(peaks=peaks, phi=phi, omega=omega)


def measured_frequency(series, **peak_kwargs) -> float:
    """Angular frequency 2*pi / mean inter-peak spacing."""
    peaks = detect_peaks(series, **peak_kwargs)
    return 2.0 * np.pi / float(np.mean(np.diff(peaks)))


def frequency_fft(series) -> float:
    """Angular frequency of the dominant nonzero Fourier bin.

    Alternative estimator for noisy runs where inter-peak spacing is
    unreliable.
    """
    series = np.asarray(series, dtype=float)
    if series.size < 4:
        raise ConfigError("series too short for a spectral estimate")
    spectrum = np.abs(np.fft.rfft(series - series.mean()))
    spectrum[0] = 0.0
    freqs = np.fft.rfftfreq(series.size)
    return 2.0 * np.pi * float(freqs[int(np.argmax(spectrum))])


def phase_coherence(phases) -> float:
    """Time-average of |mean_i exp(I phi_i)| over the common defined window.

    ``phases`` is a (T, N) array of per-node phases (NaN outside each node's
    peak range) or a list of :class:`PhaseSeries`.
    """
    if isinstance(phases, (list, tuple)):
        phases = np.column_stack([p.phi for p in phases])
    phases = np.asarray(phases, dtype=float)
    if phases.ndim != 2 or phases.shape[1] < 2:
        raise ConfigError("need phases for at least 2 nodes")
    valid = ~np.isnan(phases).any(axis=1)
    if not valid.any():
        raise DegenerateSeries("no common window where all phases are defined")
    r_t = np.abs(np.exp(1j * phases[valid]).mean(axis=1))
    return float(r_t.mean())


def mean_pairwise_correlation(series) -> float:
    """Mean of all N(N-1)/2 pairwise Pearson coefficients of (T, N) series."""
    arr = np.asarray(series, dtype=float)
    if arr.ndim != 2 or arr.shape[1] < 2:
        raise ConfigError("need at least 2 series")
    if arr.shape[0] < 3:
        raise ConfigError("need at least 3 observations")
    if np.any(arr.std(axis=0) == 0):
        raise DegenerateSeries("a series has zero variance")
    corr = np.corrcoef(arr.T)
    iu = np.triu_indices(arr.shape[1], k=1)
    return float(corr[iu].mean())


def _relative_spread(omegas) -> float:
    omegas = np.asarray(omegas, dtype=float)
    return float((omegas.max() - omegas.min()) / omegas.mean())


def epsilon_sweep(adj: Adjacency, alpha1_values, eps_grid, *,
                  alpha2: float = 0.4, delta: float = 0.1,
                  q: QuarticCoefficients = DEFAULT_QUARTIC,
                  shocks: ShockConfig = None,
                  steps: int = 2500, burn_in: int = 500, seed: int = 0,
                  entrain_tol: float = 0.01,
                  peak_kwargs: dict = None) -> EntrainmentResult:
    """Simulate over a coupling grid and measure entrainment per epsilon.

    Entrained means the relative spread of measured per-node frequencies,
    (max - min)/mean, falls below ``entrain_tol``.
    """
    peak_kwargs = dict(peak_kwargs or {})
    alpha1_values = np.asarray(alpha1_values, dtype=float)
    params = [AgentParams.with_steady_state(a1, alpha2, delta, q)
              for a1 in alpha1_values]
    cfg = SimulationConfig(steps=steps, burn_in=burn_in, seed=seed)
    eps_grid = np.asarray(eps_grid, dtype=float)

    omegas = np.empty((eps_grid.size, adj.n))
    coherence = np.empty(eps_grid.size)
    mean_corr = np.empty(eps_grid.size)
    spread = np.empty(eps_grid.size)
    nets = [uniform_coupling(adj, float(eps)) for eps in eps_grid]
    trajs = simulate_batch(nets, [params] * eps_grid.size, q, shocks, cfg)
    for k, traj in enumerate(trajs):
        phases = [phase_series(traj.y[:, i], **peak_kwargs) for i in range(adj.n)]
        omegas[k] = [p.omega for p in phases]
        coherence[k] = phase_coherence(phases)
        mean_corr[k] = mean_pairwise_correlation(traj.y)
        spread[k] = _relative_spread(omegas[k])
    entrained = spread < entrain_tol
    return EntrainmentResult(eps_grid=eps_grid, omegas=omegas,
                             coherence=coherence, mean_correlation=mean_corr,
                             entrained=entrained, spread=spread,
                             entrain_tol=entrain_tol)


def _common_frequency(ys, entrain_tol, peak_kwargs, where):
    omegas = np.array([measured_frequency(ys[:, i], **peak_kwargs)
                       for i in range(ys.shape[1])])
    spread = _relative_spread(omegas)
    if spread >= entrain_tol:
        raise EntrainmentFailure(
            f"{where}: frequency spread {spread:.4f} exceeds tolerance {entrain_tol}"
        )
    return float(omegas.mean())


def sync_centrality(net: InteractionNetwork, n_draws: int = 1000,
                    mode: str = "L", seed: int = 0, *,
                    alpha2: float = 0.4, delta: float = 0.1,
                    q: QuarticCoefficients = DEFAULT_QUARTIC,
                    steps: int = 2000, burn_in: int = 500,
                    entrain_tol: float = 0.05,
                    peak_kwargs: dict = None) -> SyncCentralityResult:
    """Monte Carlo influence of each node on the entrained common frequency.

    The accumulation-dislike grid is alpha1 = linspace(-0.1, -0.02, N).  For
    each focus node in turn, pin its alpha1 to the grid end for the lowest
    (mode "L", alpha1 = -0.02) or highest (mode "H", alpha1 = -0.1) natural
    frequency, randomly permute the remaining grid values over the other
    nodes ``n_draws`` (at least 1) times, simulate, and average the common
    frequency.  Scores are the signed gaps to the same procedure on the
    uniform 1/N matrix, oriented so that more influence is larger, shifted
    by |min| and normalized to sum to one.
    """
    if mode not in ("L", "H"):
        raise ConfigError(f"mode must be 'L' or 'H', got {mode!r}")
    if n_draws < 1:
        raise ConfigError(f"n_draws must be at least 1, got {n_draws}")
    n = net.n
    peak_kwargs = dict(peak_kwargs or {})
    alpha1_grid = np.linspace(-0.1, -0.02, n)
    focus_value = alpha1_grid[-1] if mode == "L" else alpha1_grid[0]
    rest = np.delete(alpha1_grid, -1 if mode == "L" else 0)

    cfg = SimulationConfig(steps=steps, burn_in=burn_in, seed=seed)

    def mean_frequency(weights, focus, key, name):
        target = InteractionNetwork(weights=weights, labels=list(net.labels),
                                    sectors=list(net.sectors),
                                    countries=list(net.countries),
                                    outputs=net.outputs.copy())
        others = [i for i in range(n) if i != focus]
        draws = []
        for d in range(n_draws):
            rng = np.random.default_rng((seed, key, d))
            assignment = np.empty(n)
            assignment[focus] = focus_value
            assignment[others] = rng.permutation(rest)
            draws.append([AgentParams.with_steady_state(a1, alpha2, delta, q)
                          for a1 in assignment])
        sims = np.empty(n_draws)
        for lo in range(0, n_draws, _DRAWS_PER_BATCH):
            trajs = simulate_batch(target, draws[lo:lo + _DRAWS_PER_BATCH], q, None, cfg)
            for d, traj in enumerate(trajs, start=lo):
                sims[d] = _common_frequency(traj.y, entrain_tol, peak_kwargs,
                                            f"{name}, draw {d}")
        se = float(sims.std(ddof=1) / np.sqrt(n_draws)) if n_draws > 1 else 0.0
        return float(sims.mean()), se

    means = np.empty(n)
    stderr = np.empty(n)
    for focus in range(n):
        means[focus], stderr[focus] = mean_frequency(
            net.weights, focus, focus, f"focus node {net.labels[focus]}")

    uniform = np.full((n, n), 1.0 / n)
    benchmark, _ = mean_frequency(uniform, 0, n, "uniform benchmark")

    raw = benchmark - means if mode == "L" else means - benchmark
    shifted = raw + abs(raw.min())
    total = shifted.sum()
    if total <= 0:
        raise EntrainmentFailure("all influence scores collapsed to zero")
    scores = shifted / total
    return SyncCentralityResult(scores=scores, raw_differences=raw,
                                stderr=stderr, benchmark_frequency=benchmark,
                                mean_frequencies=means, n_draws=n_draws,
                                mode=mode, labels=list(net.labels))
