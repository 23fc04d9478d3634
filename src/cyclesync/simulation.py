"""Forward simulation of the coupled stochastic system.

The coupled map iterates, per node i,

    x[t+1] = (1 - delta_i) x[t] + y[t]
    y[t+1] = alpha0_i + alpha1_i x[t] + alpha2_i y[t] + F(w_i . y[t])
             + u_i[t] + v_{sector(i)}[t] + z_{country(i)}[t]

with AR(1) shock layers: idiosyncratic per node, sector-wide and
country-wide.  Each (layer, entity) pair draws from an independent stream
keyed by (seed, layer, entity index), so enabling one layer never changes
another layer's draws and runs are reproducible from the seed alone.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np
from scipy.signal import lfilter

from ._format import write_table
from .dynamics import DEFAULT_QUARTIC, AgentParams, QuarticCoefficients, _map_step
from .errors import ConfigError, NumericalBlowup
from .networks import InteractionNetwork, _node_groups

__all__ = [
    "ShockConfig",
    "SimulationConfig",
    "TrajectorySet",
    "ar1_path",
    "simulate",
    "simulate_batch",
    "aggregate_series",
    "write_metadata",
]

_LAYER_IDIO = 0
_LAYER_SECTOR = 1
_LAYER_COUNTRY = 2
_LAYER_INIT = 3

#: how normal variates are produced, echoed into run metadata
_NORMAL_METHOD = "numpy-pcg64-ziggurat"
#: half-width of the relative uniform perturbation of a "perturbed" start
_INITIAL_SPREAD = 0.1
#: |y| beyond which a run counts as blown up
_BLOWUP_BOUND = 1e3


@dataclass(frozen=True)
class ShockConfig:
    """AR(1) shock layers: (persistence, innovation s.d.) per layer."""

    rho_u: float = 0.0
    sigma_u: float = 0.0
    rho_v: float = 0.0
    sigma_v: float = 0.0
    rho_z: float = 0.0
    sigma_z: float = 0.0

    def __post_init__(self):
        for name in ("rho_u", "rho_v", "rho_z"):
            rho = getattr(self, name)
            if not 0.0 <= rho < 1.0:
                raise ConfigError(f"{name} must lie in [0, 1), got {rho}")
        for name in ("sigma_u", "sigma_v", "sigma_z"):
            sigma = getattr(self, name)
            if sigma < 0:
                raise ConfigError(f"{name} must be non-negative, got {sigma}")

    @property
    def silent(self) -> bool:
        return self.sigma_u == 0 and self.sigma_v == 0 and self.sigma_z == 0


@dataclass(frozen=True)
class SimulationConfig:
    """Run length, retention window, aggregation stride and seeding.

    The analysis window is the final ``retain`` steps of the ``steps``
    simulated; ``burn_in`` is the discarded prefix and defaults to
    ``steps - retain``.
    """

    steps: int
    burn_in: int = None
    retain: int = None
    aggregate_stride: int = 1
    seed: int = 0
    initial_mode: str = "perturbed"

    def __post_init__(self):
        if self.steps < 1:
            raise ConfigError("steps must be positive")
        burn, keep = self.burn_in, self.retain
        if burn is None and keep is None:
            burn, keep = 0, self.steps
        elif burn is None:
            burn = self.steps - keep
        elif keep is None:
            keep = self.steps - burn
        if burn < 0:
            raise ConfigError(f"retain {keep} exceeds steps {self.steps}" if self.burn_in is None
                              else f"burn_in must be non-negative, got {burn}")
        if keep < 1:
            raise ConfigError(f"burn_in {burn} leaves no retained steps out of {self.steps}"
                              if self.retain is None else f"retain must be positive, got {keep}")
        if burn + keep > self.steps:
            raise ConfigError(f"burn_in {burn} + retain {keep} exceeds steps {self.steps}")
        object.__setattr__(self, "burn_in", burn)
        object.__setattr__(self, "retain", keep)
        if self.aggregate_stride < 1 or keep % self.aggregate_stride != 0:
            raise ConfigError(
                f"aggregate_stride {self.aggregate_stride} must divide retain {keep}"
            )
        if self.initial_mode not in ("perturbed", "fixed_point"):
            raise ConfigError(f"unknown initial mode {self.initial_mode!r}")

    def echo(self) -> dict:
        return {**asdict(self), "initial_spread": _INITIAL_SPREAD,
                "blowup_bound": _BLOWUP_BOUND, "normal_method": _NORMAL_METHOD}


@dataclass
class TrajectorySet:
    """Retained simulated paths plus the shock paths that produced them.

    Arrays are (retain, N).  ``u``, ``v``, ``z`` hold the per-node shock
    contributions of each layer over the retained window.
    """

    x: np.ndarray
    y: np.ndarray
    u: np.ndarray
    v: np.ndarray
    z: np.ndarray
    labels: list
    sectors: list
    countries: list
    outputs: np.ndarray
    config: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.y.shape[1]

    @property
    def steps(self) -> int:
        return self.y.shape[0]

    def to_csv(self, path):
        """Long-format export: node,step,x,y."""
        write_table(path, ("node", "step", "x", "y"),
                    np.repeat(np.array(self.labels, dtype=object), self.steps),
                    np.tile(np.arange(self.steps), self.n), self.x.T.ravel(), self.y.T.ravel())


def _stream(seed, layer, index) -> np.random.Generator:
    return np.random.default_rng((seed, layer, index))


def ar1_path(rho: float, sigma: float, steps: int, rng) -> np.ndarray:
    """AR(1) path with u[0] = 0 and u[t+1] = rho u[t] + N(0, sigma)."""
    if not 0.0 <= rho < 1.0:
        raise ConfigError(f"persistence must lie in [0, 1), got {rho}")
    if sigma < 0:
        raise ConfigError(f"innovation s.d. must be non-negative, got {sigma}")
    out = np.zeros(steps)
    if sigma == 0.0 or steps < 2:
        return out
    innovations = rng.normal(0.0, sigma, steps - 1)
    out[1:] = lfilter([1.0], [1.0, -rho], innovations)
    return out


def _per_node_params(params, n: int):
    if isinstance(params, AgentParams):
        params = [params] * n
    params = list(params)
    if len(params) != n:
        raise ConfigError(f"expected {n} parameter sets, got {len(params)}")
    return tuple(np.array([getattr(p, name) for p in params])
                 for name in ("alpha0", "alpha1", "alpha2", "delta"))


def _shock_paths(net: InteractionNetwork, shocks: ShockConfig, cfg: SimulationConfig,
                 seed: int) -> list:
    """Per-node (steps, N) paths of the u, v and z layers; None for a silent one.

    Entity j of a layer is its j-th distinct group in sorted order (node
    index, sector or country); every node of the group receives its path.
    Shocks run from the first step, burn-in included.
    """
    n, steps = net.n, cfg.steps
    paths = []
    for layer, rho, sigma, groups in (
            (_LAYER_IDIO, shocks.rho_u, shocks.sigma_u, range(n)),
            (_LAYER_SECTOR, shocks.rho_v, shocks.sigma_v, net.sectors),
            (_LAYER_COUNTRY, shocks.rho_z, shocks.sigma_z, net.countries)):
        if sigma == 0:
            paths.append(None)
            continue
        members = _node_groups(groups)
        members.pop(None, None)
        path = np.zeros((steps, n))
        for j, group in enumerate(sorted(members)):
            path[:, members[group]] = ar1_path(rho, sigma, steps,
                                               _stream(seed, layer, j))[:, None]
        paths.append(path)
    return paths


def _initial_state(de: np.ndarray, cfg: SimulationConfig, seed: int):
    """Start at the unit fixed point, optionally perturbed from the seed."""
    n = de.size
    x = np.full(n, 1.0) / de
    y = np.ones(n)
    if cfg.initial_mode == "perturbed":
        rng = _stream(seed, _LAYER_INIT, 0)
        x = x * (1.0 + rng.uniform(-_INITIAL_SPREAD, _INITIAL_SPREAD, n))
        y = y * (1.0 + rng.uniform(-_INITIAL_SPREAD, _INITIAL_SPREAD, n))
    return x, y


def _iterate(w, a0, a1, a2, de, x, y, q: QuarticCoefficients, steps: int,
             retain: int, bound: float, shock_sum=None):
    """Iterate B independent copies of the coupled map from states (x, y).

    ``w`` is shared (N, N) or per run (B, N, N); ``a0``, ``a1``, ``a2``,
    ``de``, ``x`` and ``y`` are (B, N); ``shock_sum`` is (B, steps, N) or
    None.  Returns the last ``retain`` states as (B, retain, N) arrays
    ``(xs, ys)``.  Every run's coupling term is its own matrix-vector
    product, so a batch reproduces separate runs bit for bit.  Raises
    :class:`NumericalBlowup` naming the first run whose |y| is not finite or
    exceeds ``bound``.
    """
    keep_from = steps - retain
    xs = np.empty((y.shape[0], retain, y.shape[1]))
    ys = np.empty_like(xs)
    for t in range(steps):
        ybar = np.matmul(w, y[:, :, None])[:, :, 0]
        x, y = _map_step(x, y, ybar, a0, a1, a2, de, q)
        if shock_sum is not None:
            y += shock_sum[:, t]
        peak = float(np.abs(y).max())
        if not math.isfinite(peak) or peak > bound:
            bad = ~(np.isfinite(y) & (np.abs(y) <= bound)).all(axis=1)
            run = int(np.argmax(bad))
            raise NumericalBlowup(step=t, value=float(np.max(np.abs(y[run]))),
                                  bound=bound, run=run)
        if t >= keep_from:
            xs[:, t - keep_from] = x
            ys[:, t - keep_from] = y
    return xs, ys


def simulate_batch(nets, params_per_run, q: QuarticCoefficients = DEFAULT_QUARTIC,
                   shocks: ShockConfig = None, cfg: SimulationConfig = None,
                   seeds=None) -> list:
    """Iterate B independent runs of the coupled system in one step loop.

    ``nets`` is one :class:`InteractionNetwork` shared by every run or a
    sequence of B networks over the same number of nodes.
    ``params_per_run`` holds, per run, what :func:`simulate` accepts as
    ``params``.  ``seeds`` gives each run's seed (default: ``cfg.seed`` for
    all); each run draws its own (seed, layer, entity) shock and initial
    streams, so run b equals ``simulate`` with ``cfg.seed = seeds[b]``.
    Returns one :class:`TrajectorySet` per run.  Raises
    :class:`NumericalBlowup` with the index of the first run that blew up.
    """
    if cfg is None:
        cfg = SimulationConfig(steps=600)
    if shocks is None:
        shocks = ShockConfig()
    params_per_run = list(params_per_run)
    b = len(params_per_run)
    if b < 1:
        raise ConfigError("need at least one run")
    seeds = [cfg.seed] * b if seeds is None else [int(s) for s in seeds]
    if isinstance(nets, InteractionNetwork):
        w = nets.weights
        nets = [nets] * b
    else:
        nets = list(nets)
        if len({net.n for net in nets}) != 1:
            raise ConfigError("all networks of a batch need the same number of nodes")
        w = np.stack([net.weights for net in nets])
    if len(nets) != b or len(seeds) != b:
        raise ConfigError(f"need one network and seed per run: {b} parameter sets, "
                          f"{len(nets)} networks, {len(seeds)} seeds")
    n = nets[0].n
    a0, a1, a2, de = (np.stack(cols) for cols in
                      zip(*(_per_node_params(p, n) for p in params_per_run)))
    x0, y0 = (np.stack(cols) for cols in
              zip(*(_initial_state(de[r], cfg, seeds[r]) for r in range(b))))
    layers = [_shock_paths(nets[r], shocks, cfg, seeds[r]) for r in range(b)]
    shock_sum = None
    if not shocks.silent:
        shock_sum = np.empty((b, cfg.steps, n))
        for r, paths in enumerate(layers):
            active = [path for path in paths if path is not None]
            shock_sum[r] = active[0]
            for path in active[1:]:
                shock_sum[r] += path
    xs, ys = _iterate(w, a0, a1, a2, de, x0, y0, q, cfg.steps, cfg.retain,
                      _BLOWUP_BOUND, shock_sum)

    keep_from = cfg.steps - cfg.retain
    # every silent layer of every run shares one read-only block of zeros
    zeros = np.zeros((cfg.retain, n))
    zeros.flags.writeable = False
    out = []
    for r, (net, paths) in enumerate(zip(nets, layers)):
        u, v, z = (zeros if path is None else path[keep_from:] for path in paths)
        config = cfg.echo()
        config["seed"] = seeds[r]
        config["shocks"] = asdict(shocks)
        out.append(TrajectorySet(
            x=xs[r], y=ys[r], u=u, v=v, z=z,
            labels=list(net.labels), sectors=list(net.sectors),
            countries=list(net.countries), outputs=net.outputs.copy(),
            config=config,
        ))
    return out


def simulate(net: InteractionNetwork, params, q: QuarticCoefficients = DEFAULT_QUARTIC,
             shocks: ShockConfig = None, cfg: SimulationConfig = None) -> TrajectorySet:
    """Iterate the coupled system and return the retained window.

    ``params`` is one :class:`AgentParams` (homogeneous agents) or one per
    node.  Deterministic given (config, seed).  Raises
    :class:`NumericalBlowup` if any |y| exceeds 1e3.
    """
    return simulate_batch(net, [params], q, shocks, cfg)[0]


def aggregate_series(values, stride: int, weights=None) -> np.ndarray:
    """Non-overlapping block means over time, optionally output-weighted.

    ``values`` is (T,) or (T, N).  With ``weights`` given, nodes are first
    combined into the weighted cross-node average sum(w_i y_i)/sum(w_i).
    """
    arr = np.asarray(values, dtype=float)
    if weights is not None:
        weights = np.asarray(weights, dtype=float)
        arr = arr @ weights / weights.sum()
    t = arr.shape[0]
    if stride < 1 or t % stride != 0:
        raise ConfigError(f"stride {stride} must divide series length {t}")
    shape = (t // stride, stride) + arr.shape[1:]
    return arr.reshape(shape).mean(axis=1)


def write_metadata(path, mapping: dict):
    """Write a JSON metadata sidecar."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(mapping, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")
