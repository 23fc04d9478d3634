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
from dataclasses import dataclass

import numpy as np

from ._format import write_table
from .dynamics import DEFAULT_QUARTIC, AgentParams, QuarticCoefficients
from .errors import (
    ConfigError,
    DegenerateSeries,
    EntrainmentFailure,
    NumericalBlowup,
    TooFewPeaks,
)
from .networks import Adjacency, InteractionNetwork, uniform_coupling
from .simulation import ShockConfig, SimulationConfig, simulate_batch

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
#: paths the drivers pass to the block peak finder at once; bounds the
#: finder's temporaries, which grow with the block
_SERIES_PER_BLOCK = 32


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
    labels: list

    def to_csv(self, path):
        write_table(path, ("node", "score", "stderr"), self.labels, self.scores, self.stderr)


def _smooth(series: np.ndarray, window: int) -> np.ndarray:
    kernel = np.ones(window) / window
    return np.convolve(series, kernel, mode="same")


def _check_peak_options(length: int, min_separation: int = 5, min_prominence: float = None,
                        smooth_window: int = 1):
    """Reject peak-detection options out of range for series of ``length``
    steps, so drivers fail before simulating; a series of at most
    2 * ``min_separation`` steps cannot hold three peaks."""
    if min_separation < 1:
        raise ConfigError(f"min_separation must be at least 1, got {min_separation}")
    if length <= 2 * min_separation:
        raise ConfigError(f"series of length {length} too short for separation {min_separation}")
    if min_prominence is not None and not 0 <= min_prominence < math.inf:
        raise ConfigError(f"min_prominence must be finite and non-negative, got {min_prominence}")
    if smooth_window < 1:
        raise ConfigError(f"smooth_window must be at least 1, got {smooth_window}")
    if smooth_window > length:
        raise ConfigError(f"smooth_window {smooth_window} exceeds the series length {length}")


def _check_entrain_tol(entrain_tol: float):
    """Reject a frequency spread tolerance that is not finite and positive."""
    if not 0 < entrain_tol < math.inf:
        raise ConfigError(f"entrain_tol must be finite and positive, got {entrain_tol}")


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


def _interquartile_range(x: np.ndarray):
    """``q75 - q25`` of ``np.percentile(x, [75, 25], axis=-1)``, without its overhead.

    numpy's default ("linear") quantile blends the sorted values k and k + 1
    around the virtual index v = (n - 1) q with weight t = v - k, from
    whichever end is nearer, as its ``_lerp`` does; so the values agree
    exactly.  One value per series along the last axis.
    """
    ordered = np.sort(x, axis=-1)
    q = []
    for v in ((x.shape[-1] - 1) * 0.75, (x.shape[-1] - 1) * 0.25):
        k = math.floor(v)
        a, b, t = ordered[..., k], ordered[..., k + 1], v - k
        q.append(b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t)
    return q[0] - q[1]


def _basins_pass(heights, valleys, rows, edges, threshold, side: int) -> np.ndarray:
    """Whether each maximum clears ``threshold`` over its base on one ``side`` (-1 or 1).

    ``heights`` are all maxima of a block, row after row, and ``rows`` their
    rows; ``valleys`` holds, per row, the minima before its first maximum,
    between consecutive ones and after its last, so the valleys beside
    maximum g are ``valleys[g + rows[g]]`` and ``valleys[g + rows[g] + 1]``.
    The base on a side is the lowest valley out to the nearest strictly
    higher maximum of the row (or the row's end), ``edges`` holding each
    row's outermost maximum on that side.  Deeper valleys only raise the
    prominence, so the adjacent valley decides most maxima; the rest walk
    outwards one maximum at a time, all together, until they clear the
    threshold or reach their base.
    """
    shift = rows + (side > 0)
    floor = valleys[np.arange(heights.size) + shift]
    passed = heights - floor >= threshold
    g = np.flatnonzero(~passed)
    h, th, edge, shift, floor = heights[g], threshold[g], edges[rows[g]], shift[g], floor[g]
    j = g + side
    while g.size:
        live = ((edge - j) * side >= 0) & (heights[np.clip(j, 0, heights.size - 1)] <= h)
        g, h, th, edge, shift, floor, j = (a[live] for a in (g, h, th, edge, shift, floor, j))
        floor = np.minimum(floor, valleys[j + shift])
        done = h - floor >= th
        passed[g[done]] = True
        g, h, th, edge, shift, floor = (a[~done] for a in (g, h, th, edge, shift, floor))
        j = j[~done] + side
    return passed


def _block_peaks(block: np.ndarray, distance: float, prominence) -> tuple:
    """``scipy.signal.find_peaks(row, distance=, prominence=)[0]`` for every row.

    ``block`` is an (S, T) array of finite series and ``prominence`` one
    threshold per row.  Returns ``(counts, cols)``: the number of peaks of
    each row and their columns, row after row.

    Maxima are the midpoints of plateaus with strictly lower neighbours on
    both sides; a plateau that touches either end of its row is not one.  A
    peak's prominence is its height over the higher of its two base minima,
    each taken out to the first strictly higher point on that side (or the
    row end).  Nothing between that point and the nearest strictly higher
    local maximum is lower than the base, so each base is the minimum over a
    run of the valleys between consecutive maxima.  The highest-first
    distance rule runs only on rows with maxima closer than ``distance``.
    """
    s, t = block.shape
    flat = block.ravel()
    # for finite values the sign of each step is the comparison of its ends
    up = block[:, 1:] > block[:, :-1]
    steps = np.flatnonzero(up | (block[:, 1:] < block[:, :-1]))    # flat in (S, T - 1)
    rising = up.ravel()[steps]
    turn = np.flatnonzero(rising[:-1] > rising[1:])
    rows, first = np.divmod(steps[turn], t - 1)
    last = steps[turn + 1] - rows * (t - 1)
    same = last < t - 1                              # both steps in one row
    rows, cols = rows[same], (first[same] + last[same] + 1) // 2
    heights = flat[rows * t + cols]
    counts = np.bincount(rows, minlength=s)
    ends = np.cumsum(counts)
    valleys = np.minimum.reduceat(flat, np.sort(np.concatenate([rows * t + cols,
                                                                np.arange(s) * t])))
    threshold = np.asarray(prominence, dtype=float)[rows]
    ok = _basins_pass(heights, valleys, rows, ends - counts, threshold, -1)
    ok &= _basins_pass(heights, valleys, rows, ends - 1, threshold, 1)
    distance = math.ceil(distance)
    close = np.flatnonzero((cols[1:] - cols[:-1] < distance) & (rows[1:] == rows[:-1]))
    for r in dict.fromkeys(rows[close].tolist()):
        lo, hi = ends[r] - counts[r], ends[r]
        ok[lo:hi] &= _keep_by_distance(cols[lo:hi], heights[lo:hi], distance)
    return np.bincount(rows[ok], minlength=s), cols[ok]


def _series_peaks(block: np.ndarray, min_separation: int = 5, min_prominence: float = None,
                  smooth_window: int = 1) -> tuple:
    """:func:`detect_peaks`' selection on every row of an (S, T) block of finite series.

    Returns :func:`_block_peaks`' ``(counts, cols)``.  The options are those
    :func:`_check_peak_options` accepted for the rows' length.
    """
    if smooth_window > 1:
        block = np.array([_smooth(row, smooth_window) for row in block])
    if min_prominence is None:
        min_prominence = 0.1 * _interquartile_range(block)
    return _block_peaks(block, min_separation,
                        np.maximum(np.broadcast_to(min_prominence, block.shape[:1]), 1e-300))


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
    non-finite value, :class:`ConfigError` for a series that is not 1-D,
    shorter than ``smooth_window`` or at most 2 * ``min_separation`` steps
    long, and :class:`TooFewPeaks` when fewer than three peaks survive.
    """
    series = np.asarray(series, dtype=float)
    if series.ndim != 1:
        raise ConfigError(f"series must be 1-D, got shape {series.shape}")
    _check_peak_options(series.size, min_separation, min_prominence, smooth_window)
    finite = np.isfinite(series)
    if not finite.all():
        raise DegenerateSeries(f"series value at index {int(np.argmin(finite))} is not finite")
    _, peaks = _series_peaks(series[None], min_separation, min_prominence, smooth_window)
    if peaks.size < 3:
        raise TooFewPeaks(f"found {peaks.size} peaks, need at least 3")
    return peaks


def _frequency(first, last, count):
    """2*pi / mean inter-peak spacing from the first and last of ``count`` peaks.

    The spacings are integers, so their mean is exactly the span over
    ``count - 1``; works elementwise on arrays.
    """
    return 2.0 * np.pi / ((last - first) / (count - 1))


def _phase(size: int, peaks: np.ndarray) -> np.ndarray:
    """Phase of each of ``size`` steps, NaN outside the first to last peak."""
    phi = np.full(size, np.nan)
    t = np.arange(peaks[0], peaks[-1])
    right = np.searchsorted(peaks, t, side="right")
    a, b = peaks[right - 1], peaks[right]
    phi[peaks[0]:peaks[-1]] = 2.0 * np.pi * (t - a) / (b - a)
    phi[peaks[-1]] = 0.0
    return phi


def phase_series(series, min_separation: int = 5, min_prominence: float = None,
                 smooth_window: int = 1) -> PhaseSeries:
    """Phase at every step between the first and last peak, plus mean frequency."""
    series = np.asarray(series, dtype=float)
    peaks = detect_peaks(series, min_separation, min_prominence, smooth_window)
    return PhaseSeries(peaks=peaks, phi=_phase(series.size, peaks),
                       omega=float(_frequency(peaks[0], peaks[-1], peaks.size)))


def measured_frequency(series, **peak_kwargs) -> float:
    """Angular frequency 2*pi / mean inter-peak spacing."""
    peaks = detect_peaks(series, **peak_kwargs)
    return float(_frequency(peaks[0], peaks[-1], peaks.size))


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
    finite = np.isfinite(arr)
    if not finite.all():
        step, node = np.argwhere(~finite)[0]
        raise DegenerateSeries(f"series {node} value at step {step} is not finite")
    if np.any(arr.std(axis=0) == 0):
        raise DegenerateSeries("a series has zero variance")
    corr = np.corrcoef(arr.T)
    iu = np.triu_indices(arr.shape[1], k=1)
    return float(corr[iu].mean())


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
    ``entrain_tol``, which must be finite and positive.
    """
    _check_entrain_tol(entrain_tol)
    peak_kwargs = dict(peak_kwargs or {})
    _check_peak_options(cfg.retain, **peak_kwargs)
    eps_grid = np.asarray(eps_grid, dtype=float)

    coherence = np.empty(eps_grid.size)
    mean_corr = np.empty(eps_grid.size)
    spread = np.empty(eps_grid.size)
    nets = [uniform_coupling(adj, float(eps)) for eps in eps_grid]
    try:
        trajs = simulate_batch(nets, [params] * eps_grid.size, q, shocks, cfg)
    except NumericalBlowup as exc:
        raise exc.named(f"eps {eps_grid[exc.run]:g}") from exc
    counts, cols, ends, omegas = _peak_table(trajs, peak_kwargs)
    for k, traj in enumerate(trajs):
        spread[k] = _spread(counts[k], omegas[k], traj.labels, f"eps {eps_grid[k]:g}")
        coherence[k] = phase_coherence(np.column_stack(
            [_phase(traj.y.shape[0], cols[e - c:e]) for c, e in zip(counts[k], ends[k])]))
        mean_corr[k] = mean_pairwise_correlation(traj.y)
    entrained = spread < entrain_tol
    return EntrainmentResult(eps_grid=eps_grid, omegas=omegas,
                             coherence=coherence, mean_correlation=mean_corr,
                             entrained=entrained, spread=spread)


def _peak_table(trajs, peak_kwargs) -> tuple:
    """Peaks of every node's y path in every run, ``_SERIES_PER_BLOCK`` paths at a time.

    Returns ``(counts, cols, ends, omegas)``: each path's peak count as an
    (R, N) array, all peak columns in (run, node) order, where each path's
    columns end in ``cols``, and each path's frequency as an (R, N) array,
    NaN below three peaks.
    """
    paths = [(traj.y, i) for traj in trajs for i in range(traj.y.shape[1])]
    counts, cols = [], []
    for lo in range(0, len(paths), _SERIES_PER_BLOCK):
        block = np.stack([y[:, i] for y, i in paths[lo:lo + _SERIES_PER_BLOCK]])
        block_counts, block_cols = _series_peaks(block, **peak_kwargs)
        counts.append(block_counts)
        cols.append(block_cols)
    counts = np.concatenate(counts).reshape(len(trajs), -1)
    cols = np.concatenate(cols)
    ends = np.cumsum(counts).reshape(counts.shape)
    omegas = np.full(counts.shape, np.nan)
    ok = counts >= 3
    count, end = counts[ok], ends[ok]
    omegas[ok] = _frequency(cols[end - count], cols[end - 1], count)
    return counts, cols, ends, omegas


def _spread(counts, omegas, labels, where) -> float:
    """Relative spread (max - min)/mean of one run's path frequencies.

    Raises :class:`TooFewPeaks` naming ``where`` and the run's first node
    with fewer than three peaks.
    """
    short = np.flatnonzero(counts < 3)
    if short.size:
        i = short[0]
        raise TooFewPeaks(f"{where}, node {labels[i]}: found {counts[i]} peaks, need at least 3")
    return float((omegas.max() - omegas.min()) / omegas.mean())


def sync_centrality(net: InteractionNetwork, cfg: SimulationConfig, n_draws: int = 100,
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
    runs form one list, simulated in blocks of ``_DRAWS_PER_BATCH``.  A run
    whose relative frequency spread reaches ``entrain_tol``, which must be
    finite and positive, raises :class:`EntrainmentFailure`.
    """
    if mode not in ("L", "H"):
        raise ConfigError(f"mode must be 'L' or 'H', got {mode!r}")
    if n_draws < 1:
        raise ConfigError(f"n_draws must be at least 1, got {n_draws}")
    _check_entrain_tol(entrain_tol)
    n = net.n
    if n < 2:
        raise ConfigError(f"sync_centrality needs at least 2 nodes, got {n}")
    peak_kwargs = dict(peak_kwargs or {})
    _check_peak_options(cfg.retain, **peak_kwargs)
    alpha1_grid = np.linspace(-0.1, -0.02, n)
    focus_value = alpha1_grid[-1] if mode == "L" else alpha1_grid[0]
    rest = np.delete(alpha1_grid, -1 if mode == "L" else 0)

    agent = {a1: AgentParams.with_steady_state(a1, alpha2, delta, q) for a1 in alpha1_grid}
    uniform = InteractionNetwork(weights=np.full((n, n), 1.0 / n), labels=list(net.labels))
    runs = []       # (key, draw, network, per-node params); key n is the benchmark
    for key in range(n + 1):
        focus = key if key < n else 0
        for d in range(n_draws):
            assignment = np.empty(n)
            assignment[focus] = focus_value
            rng = np.random.default_rng((cfg.seed, key, d))
            assignment[np.arange(n) != focus] = rng.permutation(rest)
            runs.append((key, d, net if key < n else uniform, [agent[a1] for a1 in assignment]))

    def where(key, d):
        name = f"focus node {net.labels[key]}" if key < n else "uniform benchmark"
        return f"{name}, draw {d}"

    sims = np.empty((n + 1, n_draws))
    for lo in range(0, len(runs), _DRAWS_PER_BATCH):
        block = runs[lo:lo + _DRAWS_PER_BATCH]
        try:
            trajs = simulate_batch([run[2] for run in block], [run[3] for run in block],
                                   q, None, cfg)
        except NumericalBlowup as exc:
            raise exc.named(where(*block[exc.run][:2])) from exc
        counts, _, _, block_omegas = _peak_table(trajs, peak_kwargs)
        for (key, d, _, _), traj, n_peaks, omegas in zip(block, trajs, counts, block_omegas):
            spread = _spread(n_peaks, omegas, traj.labels, where(key, d))
            if spread >= entrain_tol:
                raise EntrainmentFailure(f"{where(key, d)}: frequency spread {spread:.4f} "
                                         f"exceeds tolerance {entrain_tol}")
            sims[key, d] = float(omegas.mean())
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
                                mean_frequencies=means, labels=list(net.labels))
