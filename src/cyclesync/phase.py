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

import math
from dataclasses import dataclass, field

import numpy as np

from ._format import write_table
from .dynamics import DEFAULT_QUARTIC, AgentParams, QuarticCoefficients
from .errors import (
    ConfigError,
    DegenerateSeries,
    EntrainmentFailure,
    TooFewPeaks,
)
from .networks import Adjacency, InteractionNetwork, uniform_coupling
from .simulation import ShockConfig, SimulationConfig, _streams, simulate_batch

__all__ = [
    "PhaseSeries",
    "EntrainmentResult",
    "SyncCentralityResult",
    "detect_peaks",
    "phase_series",
    "measured_frequency",
    "phase_coherence",
    "mean_pairwise_correlation",
    "epsilon_sweep",
    "sync_centrality",
]


#: runs simulated together by :func:`sync_centrality`; bounds the retained
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


def _check_peak_options(length: int, min_separation: int = 5, min_prominence: float = None,
                        smooth_window: int = 1):
    """Reject peak-detection options out of range for series of ``length``
    steps, so drivers fail before simulating."""
    if min_separation < 1:
        raise ConfigError(f"min_separation must be at least 1, got {min_separation}")
    if min_prominence is not None and not 0 <= min_prominence < math.inf:
        raise ConfigError(f"min_prominence must be finite and non-negative, got {min_prominence}")
    if smooth_window < 1:
        raise ConfigError(f"smooth_window must be at least 1, got {smooth_window}")
    if smooth_window > length:
        raise ConfigError(f"smooth_window {smooth_window} exceeds the series length {length}")


def _local_maxima(x: np.ndarray) -> np.ndarray:
    """Midpoints of the plateaus with strictly lower neighbours on both sides.

    A plateau that touches either end of the series is not a maximum.
    """
    d = x[1:] - x[:-1]
    steps = np.flatnonzero(d)
    rising = d[steps] > 0
    turn = np.flatnonzero(rising[:-1] > rising[1:])
    return (steps[turn] + steps[turn + 1] + 1) // 2


def _keep_by_distance(maxima: np.ndarray, heights: np.ndarray, distance: int) -> np.ndarray:
    """Visit the maxima highest first and drop neighbours closer than ``distance``."""
    pos = maxima.tolist()
    keep = [True] * len(pos)
    for j in np.argsort(heights)[::-1].tolist():
        if not keep[j]:
            continue
        k = j - 1
        while k >= 0 and pos[j] - pos[k] < distance:
            keep[k] = False
            k -= 1
        k = j + 1
        while k < len(pos) and pos[k] - pos[j] < distance:
            keep[k] = False
            k += 1
    return np.array(keep)


def _basin_floors(heights: list, valleys: list) -> list:
    """Lowest valley between each maximum and the nearest strictly higher one before it.

    ``valleys[i]`` is the minimum between maximum i and its predecessor (or
    the series start).  One pass with a stack of the maxima not yet
    overtopped, each carrying its own floor.
    """
    floors = []
    stack_h, stack_v = [math.inf], [None]
    for h, v in zip(heights, valleys):
        while stack_h[-1] <= h:
            stack_h.pop()
            w = stack_v.pop()
            if w < v:
                v = w
        stack_h.append(h)
        stack_v.append(v)
        floors.append(v)
    return floors


def _interquartile_range(x: np.ndarray) -> float:
    """``q75 - q25`` of ``np.percentile(x, [75, 25])``, without its overhead.

    numpy's default ("linear") quantile blends the sorted values k and k + 1
    around the virtual index v = (n - 1) q with weight t = v - k, from
    whichever end is nearer, as its ``_lerp`` does; so the values agree
    exactly.
    """
    ordered = np.sort(x)
    q = []
    for v in ((x.size - 1) * 0.75, (x.size - 1) * 0.25):
        k = math.floor(v)
        a, b, t = float(ordered[k]), float(ordered[k + 1]), v - k
        q.append(b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t)
    return q[0] - q[1]


def _find_peaks(x: np.ndarray, distance: float, prominence: float) -> np.ndarray:
    """``scipy.signal.find_peaks(x, distance=, prominence=)[0]`` for finite ``x``.

    A peak's prominence is its height over the higher of its two base
    minima, each taken out to the first strictly higher point on that side
    (or the series end).  Nothing between that point and the nearest
    strictly higher local maximum is lower than the base, so each base is
    the minimum over a run of the valleys between consecutive maxima.
    """
    maxima = _local_maxima(x)
    if maxima.size == 0:
        return maxima
    heights = x[maxima]
    keep = None
    distance = math.ceil(distance)
    if maxima.size > 1 and (maxima[1:] - maxima[:-1]).min() < distance:
        keep = _keep_by_distance(maxima, heights, distance)
    valleys = np.minimum.reduceat(x, np.append(0, maxima)).tolist()
    h = heights.tolist()
    left = _basin_floors(h, valleys[:-1])
    right = _basin_floors(h[::-1], valleys[:0:-1])
    right.reverse()
    ok = heights - np.maximum(left, right) >= prominence
    if keep is not None:
        ok &= keep
    return maxima[ok]


def detect_peaks(series, min_separation: int = 5, min_prominence: float = None,
                 smooth_window: int = 1) -> np.ndarray:
    """Local maxima at least ``min_separation`` apart with enough prominence.

    ``min_prominence`` defaults to 10% of the interquartile range.  A
    moving-average ``smooth_window`` > 1 suppresses noise wiggles before
    detection (peak positions refer to the smoothed series).  The selection
    reproduces ``scipy.signal.find_peaks(distance=min_separation,
    prominence=min_prominence)`` (``scipy/signal/_peak_finding.py``):
    plateau midpoints, then the highest-first distance rule, then the
    prominence threshold.  Raises :class:`DegenerateSeries` for a
    non-finite value, :class:`ConfigError` when ``smooth_window`` exceeds
    the series length and :class:`TooFewPeaks` when fewer than three peaks
    survive.
    """
    series = np.asarray(series, dtype=float)
    _check_peak_options(series.size, min_separation, min_prominence, smooth_window)
    finite = np.isfinite(series)
    if not finite.all():
        raise DegenerateSeries(f"series value at index {int(np.argmin(finite))} is not finite")
    if series.size <= 2 * min_separation:
        raise TooFewPeaks(
            f"series of length {series.size} too short for separation {min_separation}"
        )
    smoothed = _smooth(series, smooth_window)
    if min_prominence is None:
        min_prominence = 0.1 * _interquartile_range(smoothed)
    peaks = _find_peaks(smoothed, min_separation, max(min_prominence, 1e-300))
    if peaks.size < 3:
        raise TooFewPeaks(f"found {peaks.size} peaks, need at least 3")
    return peaks


def phase_series(series, min_separation: int = 5, min_prominence: float = None,
                 smooth_window: int = 1) -> PhaseSeries:
    """Phase at every step between the first and last peak, plus mean frequency."""
    series = np.asarray(series, dtype=float)
    peaks = detect_peaks(series, min_separation, min_prominence, smooth_window)
    phi = np.full(series.size, np.nan)
    t = np.arange(peaks[0], peaks[-1])
    right = np.searchsorted(peaks, t, side="right")
    a, b = peaks[right - 1], peaks[right]
    phi[peaks[0]:peaks[-1]] = 2.0 * np.pi * (t - a) / (b - a)
    phi[peaks[-1]] = 0.0
    omega = 2.0 * np.pi / float(np.mean(np.diff(peaks)))
    return PhaseSeries(peaks=peaks, phi=phi, omega=omega)


def measured_frequency(series, **peak_kwargs) -> float:
    """Angular frequency 2*pi / mean inter-peak spacing."""
    peaks = detect_peaks(series, **peak_kwargs)
    return 2.0 * np.pi / float(np.mean(np.diff(peaks)))


def phase_coherence(phases) -> float:
    """Time-average of |mean_i exp(I phi_i)| over the common defined window.

    ``phases`` is a (T, N) array of per-node phases (NaN outside each node's
    peak range).
    """
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


def epsilon_sweep(adj: Adjacency, params, eps_grid, cfg: SimulationConfig, *,
                  q: QuarticCoefficients = DEFAULT_QUARTIC,
                  shocks: ShockConfig = None,
                  entrain_tol: float = 0.01,
                  peak_kwargs: dict = None) -> EntrainmentResult:
    """Simulate over a coupling grid and measure entrainment per epsilon.

    Every epsilon runs ``simulate(uniform_coupling(adj, eps), params, q,
    shocks, cfg)``: ``params`` is one :class:`AgentParams` or one per node,
    as :func:`simulate` takes it.  Entrained means the relative spread of
    measured per-node frequencies, (max - min)/mean, falls below
    ``entrain_tol``.
    """
    peak_kwargs = dict(peak_kwargs or {})
    _check_peak_options(cfg.retain, **peak_kwargs)
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
        coherence[k] = phase_coherence(np.column_stack([p.phi for p in phases]))
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


def sync_centrality(net: InteractionNetwork, cfg: SimulationConfig, n_draws: int = 1000,
                    mode: str = "L", *,
                    alpha2: float = 0.4, delta: float = 0.1,
                    q: QuarticCoefficients = DEFAULT_QUARTIC,
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
    by |min| and normalized to sum to one.  Every run simulates with
    ``cfg``; draw d of focus node i (the benchmark counts as i = N)
    permutes with the stream seeded by (``cfg.seed``, i, d).  All (i, d)
    runs form one list, simulated in blocks of ``_DRAWS_PER_BATCH``.
    """
    if mode not in ("L", "H"):
        raise ConfigError(f"mode must be 'L' or 'H', got {mode!r}")
    if n_draws < 1:
        raise ConfigError(f"n_draws must be at least 1, got {n_draws}")
    n = net.n
    if n < 2:
        raise ConfigError(f"sync_centrality needs at least 2 nodes, got {n}")
    peak_kwargs = dict(peak_kwargs or {})
    _check_peak_options(cfg.retain, **peak_kwargs)
    alpha1_grid = np.linspace(-0.1, -0.02, n)
    focus_value = alpha1_grid[-1] if mode == "L" else alpha1_grid[0]
    rest = np.delete(alpha1_grid, -1 if mode == "L" else 0)

    agent = {a1: AgentParams.with_steady_state(a1, alpha2, delta, q) for a1 in alpha1_grid}
    uniform = InteractionNetwork(weights=np.full((n, n), 1.0 / n), labels=list(net.labels),
                                 sectors=list(net.sectors), countries=list(net.countries),
                                 outputs=net.outputs.copy())
    draws = [(key, d) for key in range(n + 1) for d in range(n_draws)]
    runs = []       # (key, draw, network, per-node params); key n is the benchmark
    for (key, d), rng in zip(draws, _streams([(cfg.seed, key, d) for key, d in draws])):
        focus = key if key < n else 0
        assignment = np.empty(n)
        assignment[focus] = focus_value
        assignment[np.arange(n) != focus] = rng.permutation(rest)
        runs.append((key, d, net if key < n else uniform, [agent[a1] for a1 in assignment]))

    sims = np.empty((n + 1, n_draws))
    for lo in range(0, len(runs), _DRAWS_PER_BATCH):
        block = runs[lo:lo + _DRAWS_PER_BATCH]
        trajs = simulate_batch([run[2] for run in block], [run[3] for run in block],
                               q, None, cfg)
        for (key, d, _, _), traj in zip(block, trajs):
            name = f"focus node {net.labels[key]}" if key < n else "uniform benchmark"
            sims[key, d] = _common_frequency(traj.y, entrain_tol, peak_kwargs,
                                             f"{name}, draw {d}")
        del trajs, traj  # free the block before the next one is simulated

    means = sims[:n].mean(axis=1)
    stderr = (sims[:n].std(axis=1, ddof=1) / np.sqrt(n_draws) if n_draws > 1
              else np.zeros(n))
    benchmark = float(sims[n].mean())

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
