"""Linearized deviation dynamics around the synchronized orbit.

With all agents on the same orbit s_t = (x_s, y_s), small deviations
xi_t (interleaved per node as x-dev, y-dev) evolve through the
time-varying linear map

    xi[t+1] = (I_N (x) J(s_t) - F'(y_s[t]) B (x) H) xi[t]

where J is the single-agent Jacobian along the orbit, B = I - W the
coupling operator and H selects the y-component.  Diagonalizing B
decouples the deviations into eigenmodes; mode i feels the scalar
effective coupling K = lambda_i, so its stability is summarized by the
Lyapunov exponents of the 2x2 system

    zeta[t+1] = (J(s_t) - K F'(y_s[t]) H) zeta[t]

as a function of K: the master stability function.  K = 0 is the mode
parallel to the synchronization manifold (permanent phase shift); all
positive-K modes decay for this cycle.  The function is computed by blocked
tangent propagation over the whole K grid: one tangent vector per K, pushed
through products of ``_BLOCK`` consecutive Jacobians at a time (Benettin et
al., 1980), with the second exponent from the Jacobian determinant.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ._format import write_table
from .dynamics import (
    DEFAULT_QUARTIC,
    AgentParams,
    QuarticCoefficients,
    eval_f_prime,
)
from .errors import (
    ConfigError,
    ConsistencyBreach,
    DegenerateTangent,
    IllConditioned,
    NotOscillating,
    TooFewPeaks,
)
from .networks import InteractionNetwork, SpectralDecomposition, generalized_laplacian
from .phase import detect_peaks
from .simulation import _iterate, _per_node_params

__all__ = [
    "SynchronizedOrbit",
    "MasterStabilityCurve",
    "ShockResponse",
    "synchronized_orbit",
    "mode_lyapunov",
    "master_stability_function",
    "time_resolved_volume_rate",
    "to_eigenbasis",
    "from_eigenbasis",
    "propagate_deviations",
    "shock_response_compare",
]

_MIN_AMPLITUDE = 1e-6
#: Steps iterated onto the attractor before an orbit is recorded.
_ORBIT_BURN_IN = 2000
#: Leading orbit steps on which the period is measured.
_PERIOD_STEPS = 5000
_CONDITION_CAP = 1e8
#: Steps multiplied into one matrix between renormalizations of the tangent.
_BLOCK = 32
#: Steps whose Jacobians are held at once; a multiple of ``_BLOCK``.
_CHUNK = 4096


@dataclass
class SynchronizedOrbit:
    """Post-transient path of the homogeneous single-agent map.

    ``fprime`` caches F'(y_s[t]) which drives both the Jacobian along the
    orbit and the coupling term.
    """

    x: np.ndarray
    y: np.ndarray
    fprime: np.ndarray
    params: AgentParams
    period: float

    @property
    def steps(self) -> int:
        return self.y.size


@dataclass
class MasterStabilityCurve:
    k_grid: np.ndarray
    mu1: np.ndarray
    mu2: np.ndarray

    def to_csv(self, path):
        write_table(path, ("K", "mu1", "mu2"), self.k_grid, self.mu1, self.mu2)


@dataclass
class ShockResponse:
    """Linearized and fully nonlinear response to a one-off shock."""

    tau: int
    xi: np.ndarray            # (T, 2N) linearized deviations from injection on
    zeta: np.ndarray          # (T, 2N) same in the eigenbasis
    nonlinear_y: np.ndarray   # (T, N) perturbed nonlinear paths
    linear_y: np.ndarray      # (T, N) orbit + linearized deviation
    orbit_y: np.ndarray       # (T,) unperturbed synchronized path
    rmse: float
    phase_shift: float

    def to_csv(self, path):
        """Long format: basis,node_or_mode,step,value (y components)."""
        steps, n = self.xi.shape[0], self.nonlinear_y.shape[1]
        write_table(path, ("basis", "node_or_mode", "step", "value"),
                    np.repeat(["node", "mode"], n * steps),
                    np.tile(np.repeat(np.arange(n), steps), 2), np.tile(np.arange(steps), 2 * n),
                    np.concatenate([self.xi[:, 1::2].T.ravel(), self.zeta[:, 1::2].T.ravel()]))


def synchronized_orbit(params: AgentParams, q: QuarticCoefficients = DEFAULT_QUARTIC,
                       steps: int = 100000) -> SynchronizedOrbit:
    """Iterate the uncoupled map onto its attractor and cache F' along it.

    Starts slightly off the fixed point (the exact fixed point never leaves
    it) and records ``steps`` steps after ``_ORBIT_BURN_IN`` discarded ones.
    Raises :class:`NotOscillating` when the retained window has collapsed to
    a point, and :class:`ConfigError` when an orbit shorter than
    ``_PERIOD_STEPS`` holds fewer than three peaks.
    """
    if steps < 1:
        raise ConfigError(f"orbit needs steps >= 1, got {steps}")
    a0, a1, a2, de = (float(v) for v in (params.alpha0, params.alpha1, params.alpha2,
                                         params.delta))
    x, y, one_minus_de = 1.0 / de, 1.05, 1.0 - de
    b0, b1, b2, b3, b4 = map(float, q.as_tuple())
    xs = np.empty(_ORBIT_BURN_IN + steps)
    ys = np.empty(_ORBIT_BURN_IN + steps)
    # Python floats: at N = 1 a numpy step costs far more than the arithmetic.
    # single_agent_step with ybar = y, in the same floating-point order
    for t in range(_ORBIT_BURN_IN + steps):
        x, y = one_minus_de * x + y, a0 + a1 * x + a2 * y + (b0 + y * (b1 + y * (b2 + y * (
            b3 + y * b4))))
        xs[t] = x
        ys[t] = y
    xs, ys = xs[_ORBIT_BURN_IN:], ys[_ORBIT_BURN_IN:]
    if ys.max() - ys.min() < _MIN_AMPLITUDE:
        raise NotOscillating(
            f"orbit amplitude {ys.max() - ys.min():.3g} below {_MIN_AMPLITUDE}"
        )
    try:
        peaks = detect_peaks(ys[:_PERIOD_STEPS])
    except TooFewPeaks as exc:
        if steps >= _PERIOD_STEPS:
            raise
        raise ConfigError(f"orbit of {steps} steps too short for three peaks ({exc})") from None
    period = float(np.mean(np.diff(peaks)))
    return SynchronizedOrbit(x=xs, y=ys, fprime=eval_f_prime(q, ys),
                             params=params, period=period)


def _volume_rate(params: AgentParams, fprime: np.ndarray, k) -> np.ndarray:
    """log |det M_t| with M_t = J(s_t) - K F'(y_s) H; broadcasts over K."""
    det = (1 - params.delta) * (params.alpha2 + (1 - k) * fprime) - params.alpha1
    return np.log(np.abs(det))


def _check_window(orbit: SynchronizedOrbit, start: int, length: int,
                  start_name: str, length_name: str) -> None:
    """Raise :class:`ConfigError` unless ``start >= 0``, ``length >= 1`` and the
    orbit holds steps ``start .. start + length - 1``; the messages use the names."""
    if start < 0:
        raise ConfigError(f"{start_name} must be non-negative, got {start}")
    if length < 1:
        raise ConfigError(f"{length_name} must be at least 1 step, got {length}")
    if start + length > orbit.steps:
        raise ConfigError(f"orbit too short: {orbit.steps} < {start_name} {start} + "
                          f"{length_name} {length}")


def _couplings(k) -> np.ndarray:
    """``k`` as a float array; raises :class:`ConfigError` unless every
    effective coupling is finite and non-negative."""
    k = np.asarray(k, dtype=float)
    bad = ~(np.isfinite(k) & (k >= 0))
    if bad.any():
        raise ConfigError(f"effective coupling must be finite and non-negative, got {k[bad][0]}")
    return k


def _jacobian_blocks(params: AgentParams, fprime: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Products of M_t over consecutive runs of ``_BLOCK`` steps, for every K.

    Returns (blocks, K, 2, 2); block b maps the tangent at step b * _BLOCK
    to step (b + 1) * _BLOCK.  The tail is padded with identities, which
    multiply exactly.
    """
    steps = fprime.size
    padded = -(-steps // _BLOCK) * _BLOCK
    m = np.zeros((padded, k.size, 2, 2))
    m[:steps, :, 0, 0] = 1.0 - params.delta
    m[:steps, :, 0, 1] = 1.0
    m[:steps, :, 1, 0] = params.alpha1
    m[:steps, :, 1, 1] = params.alpha2 + (1.0 - k) * fprime[:, None]
    m[steps:, :, 0, 0] = m[steps:, :, 1, 1] = 1.0
    m = m.reshape(-1, _BLOCK, k.size, 2, 2)
    while m.shape[1] > 1:                # later steps multiply from the left
        m = m[:, 1::2] @ m[:, 0::2]
    return m[:, 0]


def mode_lyapunov(orbit: SynchronizedOrbit, coupling: float,
                  burn_in: int = 1000, window: int = None) -> MasterStabilityCurve:
    """The master stability function at the one coupling K of an eigenmode."""
    return master_stability_function(orbit, [coupling], burn_in, window)


def master_stability_function(orbit: SynchronizedOrbit, k_grid,
                              burn_in: int = 1000,
                              window: int = None) -> MasterStabilityCurve:
    """Largest (and second) Lyapunov exponent over a grid of couplings.

    One tangent pass for the whole grid: a tangent per K, started at (1, 0),
    is pushed through the block products of :func:`_jacobian_blocks` and
    renormalized after each block.  mu1 is its mean log growth over the
    ``window`` steps after ``burn_in`` (None: the rest of the orbit), and
    mu1 + mu2 the mean log |det M_t| of the 2x2 map.  Time is cut into chunks
    of ``_CHUNK`` steps, so temporaries stay near len(K) x _CHUNK x 32 bytes.
    Raises :class:`ConfigError` for a window outside the orbit or a K not
    finite and non-negative, :class:`DegenerateTangent` when a tangent
    vanishes, overflows or turns NaN.
    """
    if window is None:
        window = orbit.steps - burn_in
    _check_window(orbit, burn_in, window, "burn_in", "window")
    k = _couplings(k_grid)
    p = orbit.params
    v = np.zeros((k.size, 2))
    v[:, 0] = 1.0
    growth = np.zeros(k.size)
    volume = np.zeros(k.size)
    # the burn-in and the window are separate passes: no block straddles them
    for first, last, averaged in ((0, burn_in, False), (burn_in, burn_in + window, True)):
        for start in range(first, last, _CHUNK):
            fp = orbit.fprime[start:min(start + _CHUNK, last)]
            blocks = _jacobian_blocks(p, fp, k)
            norms = np.empty((len(blocks), k.size))
            # a degenerate block turns every later norm NaN: check once per chunk
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                for b, block in enumerate(blocks):
                    v = (block @ v[:, :, None])[:, :, 0]
                    norms[b] = np.hypot(v[:, 0], v[:, 1])
                    v /= norms[b][:, None]
            bad = ~((norms >= 1e-300) & (norms < np.inf))
            if bad.any():
                b, i = np.argwhere(bad)[0]
                step = start + b * _BLOCK
                raise DegenerateTangent(
                    f"tangent vector degenerate at K = {k[i]:g} in steps "
                    f"{step}..{min(step + _BLOCK, start + fp.size) - 1}"
                )
            if averaged:
                growth += np.log(norms).sum(axis=0)
                volume += _volume_rate(p, fp[:, None], k).sum(axis=0)
    mu1 = growth / window
    return MasterStabilityCurve(k_grid=k, mu1=mu1, mu2=volume / window - mu1)


def time_resolved_volume_rate(orbit: SynchronizedOrbit, coupling: float) -> np.ndarray:
    """Per-step log |det M_t| aligned with the orbit (one value per step)."""
    return _volume_rate(orbit.params, orbit.fprime, _couplings(coupling))


def _change_basis(matrix, v, spec: SpectralDecomposition) -> np.ndarray:
    """``matrix`` applied to the x and to the y components of a 2N vector or
    of each row of a (T, 2N) series; one product for both forms.  Raises
    :class:`IllConditioned` when the mode matrix is too close to singular
    for the eigenbasis to carry meaning."""
    cond = np.linalg.cond(spec.modes)
    if cond > _CONDITION_CAP:
        raise IllConditioned(f"eigenvector condition number {cond:.3g} too large")
    arr = np.asarray(v, dtype=float)
    if arr.ndim not in (1, 2) or arr.shape[-1] != 2 * spec.n:
        raise ConfigError(f"deviations must be a {2 * spec.n} vector or a "
                          f"(T, {2 * spec.n}) series, got shape {arr.shape}")
    return (matrix @ arr.reshape(-1, spec.n, 2)).reshape(arr.shape)


def to_eigenbasis(xi, spec: SpectralDecomposition) -> np.ndarray:
    """Map node-basis deviations (interleaved x, y per node) to eigenmodes.

    zeta = (Q^-1 kron I_2) xi; works on a single 2N vector or a (T, 2N)
    series, and row t of a series maps exactly as the vector ``xi[t]``.
    """
    return _change_basis(spec.modes_inv, xi, spec)


def from_eigenbasis(zeta, spec: SpectralDecomposition) -> np.ndarray:
    """Inverse of :func:`to_eigenbasis`."""
    return _change_basis(spec.modes, zeta, spec)


def propagate_deviations(orbit: SynchronizedOrbit, spec: SpectralDecomposition,
                         xi0, steps: int, *, start: int = 0):
    """Evolve a deviation through the linearized coupled map.

    Runs the node-basis recursion with the full operator and, alongside it,
    each eigenmode with its scalar coupling lambda_i, then checks that the
    two series agree through Q at every step.  Returns (xi, zeta) series of
    shape (steps + 1, 2N) starting with the injected deviation; orbit
    indices ``start .. start + steps`` supply the time-varying coefficients.
    ``xi0`` must be a finite 2N vector.

    The consistency tolerance is 1e-6, widened to 1e-4 for noticeably
    complex spectra (``spec.max_imag > 1e-12``, directed networks) because
    imaginary parts are discarded.  Raises :class:`ConsistencyBreach` at the
    first step where the two disagree by more, and :class:`IllConditioned`
    when the mode matrix's condition number exceeds ``_CONDITION_CAP``.
    """
    n = spec.n
    mat0 = np.asarray(xi0, dtype=float)
    if mat0.shape != (2 * n,):
        raise ConfigError(f"initial deviation must be a single {2 * n} vector, "
                          f"got shape {mat0.shape}")
    bad = np.flatnonzero(~np.isfinite(mat0))
    if bad.size:
        raise ConfigError(f"initial deviation must be finite, got {mat0[bad[0]]} "
                          f"at index {bad[0]}")
    _check_window(orbit, start, steps, "start", "steps")
    consistency_tol = 1e-4 if spec.max_imag > 1e-12 else 1e-6
    amplitude = float(orbit.y.max() - orbit.y.min())
    if np.max(np.abs(mat0)) > 0.2 * max(amplitude, 1.0):
        warnings.warn("deviation is large relative to the orbit; the linear "
                      "approximation may be poor", stacklevel=2)

    p = orbit.params
    one_minus_de = 1.0 - p.delta
    a1, a2 = p.alpha1, p.alpha2
    b = spec.matrix
    lam = spec.eigenvalues

    xi = np.empty((steps + 1, n, 2))
    zeta = np.empty((steps + 1, n, 2))
    xi[0] = mat0.reshape(n, 2)
    zeta[0] = to_eigenbasis(mat0, spec).reshape(n, 2)
    for s in range(steps):
        fp = orbit.fprime[start + s]
        jyy = a2 + fp
        xd, yd = xi[s, :, 0], xi[s, :, 1]
        xi[s + 1, :, 0] = one_minus_de * xd + yd
        xi[s + 1, :, 1] = a1 * xd + jyy * yd - fp * (b @ yd)
        zx, zy = zeta[s, :, 0], zeta[s, :, 1]
        zeta[s + 1, :, 0] = one_minus_de * zx + zy
        zeta[s + 1, :, 1] = a1 * zx + (jyy - fp * lam) * zy
    xi, zeta = xi.reshape(steps + 1, -1), zeta.reshape(steps + 1, -1)
    # relative to the current deviation, floored at a billionth of the
    # initial scale: fully decayed deviations are numerically zero
    scale0 = max(float(np.max(np.abs(mat0))), 1e-300)
    denom = np.maximum(np.max(np.abs(xi[1:]), axis=1), 1e-9 * scale0)
    gap = np.max(np.abs(from_eigenbasis(zeta[1:], spec) - xi[1:]), axis=1) / denom
    over = np.flatnonzero(gap > consistency_tol)
    if over.size:
        raise ConsistencyBreach(
            f"node/eigenbasis propagation disagree by {gap[over[0]]:.3g} at step {over[0] + 1}"
        )
    return xi, zeta


def _cross_correlation_lag(perturbed, reference, t0, t1, max_lag):
    """Signed lag maximizing corr(perturbed[t0:t1], reference shifted by lag).

    Positive lag means the perturbed path leads: it matches reference values
    that arrive ``lag`` steps later.  Integer argmax refined to sub-step by
    parabolic interpolation.
    """
    a = perturbed[t0:t1]
    cors = {}
    best_lag, best = 0, -2.0
    for lag in range(-max_lag, max_lag + 1):
        b = reference[t0 + lag:t1 + lag]
        cors[lag] = float(np.corrcoef(a, b)[0, 1])
        if cors[lag] > best:
            best_lag, best = lag, cors[lag]
    if -max_lag < best_lag < max_lag:
        c0, c1, c2 = cors[best_lag - 1], cors[best_lag], cors[best_lag + 1]
        denom = c0 - 2.0 * c1 + c2
        if abs(denom) > 1e-12:
            return best_lag + 0.5 * (c0 - c2) / denom
    return float(best_lag)


def shock_response_compare(net: InteractionNetwork, params: AgentParams,
                           q: QuarticCoefficients = DEFAULT_QUARTIC, *,
                           shock, tau: int = None,
                           window_periods: int = 3,
                           horizon_periods: int = 10) -> ShockResponse:
    """Inject a one-off shock on the y variables and compare propagation.

    All nodes start on the synchronized orbit; at orbit index ``tau`` the
    deviation ``shock`` (one value per node) is added to every y.  The full
    nonlinear system and the linearized map both run forward; the report
    carries the RMSE of the linear approximation over ``window_periods``
    orbit periods and the permanent phase shift, estimated from the
    cross-correlation lag over the last ``window_periods`` periods of the
    ``horizon_periods`` window (positive shift = perturbed paths lead).

    ``tau`` defaults to a growth-phase point of the orbit (steepest rise of
    y within one period), where a positive shock advances the cycle and a
    negative one delays it; the shift sign genuinely depends on the
    injection phase and flips around the trough.
    """
    n = net.n
    shock = np.asarray(shock, dtype=float)
    if shock.shape != (n,):
        raise ConfigError(f"shock must provide one value per node ({n})")
    if not np.all(np.isfinite(shock)):
        raise ConfigError(f"shock must be finite, got {shock[~np.isfinite(shock)][0]}")
    if not 1 <= window_periods < horizon_periods:
        raise ConfigError(f"need 1 <= window_periods < horizon_periods, got window_periods "
                          f"{window_periods} and horizon_periods {horizon_periods}")
    if tau is not None and tau < 0:
        raise ConfigError(f"tau must be non-negative, got {tau}")
    period_guess = 40
    orbit = synchronized_orbit(params, q,
                               steps=max(4000, 2 * horizon_periods * period_guess))
    period = int(round(orbit.period))
    window = window_periods * period
    horizon = horizon_periods * period
    if tau is None:
        rise = np.diff(orbit.y[period:2 * period + 1])
        tau = period + int(np.argmax(rise))
    if tau + horizon + 1 > orbit.steps:
        # the map is deterministic: a longer orbit starts with this one's bits
        orbit = synchronized_orbit(params, q, steps=tau + horizon + 1)

    spec = generalized_laplacian(net)

    # nonlinear paths from the state at tau with the shock applied to y only
    x0 = np.full((1, n), orbit.x[tau])
    y0 = np.full((1, n), orbit.y[tau]) + shock
    coeffs = [c[None] for c in _per_node_params(params, n)]
    nonlinear_y = _iterate(net.weights, *coeffs, x0, y0, q, horizon, horizon, np.inf)[1][0]

    # deviation at tau evolves first through J(s_tau): start = tau
    xi0 = np.zeros((n, 2))
    xi0[:, 1] = shock
    xi, zeta = propagate_deviations(orbit, spec, xi0.reshape(-1), horizon,
                                    start=tau)
    orbit_y = orbit.y[tau + 1:tau + 1 + horizon]
    linear_y = orbit_y[:, None] + xi[1:, 1::2]

    rmse = float(np.sqrt(np.mean((nonlinear_y[:window] - linear_y[:window]) ** 2)))

    perturbed_mean = nonlinear_y.mean(axis=1)
    # lags beyond a third of a period alias against the cycle itself
    max_lag = max(2, min(period // 3, (horizon - window) // 2))
    shift = _cross_correlation_lag(perturbed_mean, orbit_y,
                                   t0=horizon - window,
                                   t1=horizon - max_lag,
                                   max_lag=max_lag)
    return ShockResponse(tau=tau, xi=xi, zeta=zeta,
                         nonlinear_y=nonlinear_y, linear_y=linear_y,
                         orbit_y=orbit_y, rmse=rmse, phase_shift=shift)
