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
            if not 0.0 <= sigma < math.inf:
                raise ConfigError(f"{name} must be finite and non-negative, got {sigma}")

    @property
    def silent(self) -> bool:
        return self.sigma_u == 0 and self.sigma_v == 0 and self.sigma_z == 0


@dataclass(frozen=True)
class SimulationConfig:
    """Run length, retention window and seeding.

    The analysis window is the final ``retain`` steps of the ``steps``
    simulated; ``burn_in`` is the discarded prefix and defaults to
    ``steps - retain``.  Given both, they must add up to ``steps``.
    """

    steps: int
    burn_in: int = None
    retain: int = None
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
        if burn + keep != self.steps:
            raise ConfigError(f"burn_in {burn} + retain {keep} "
                              f"{'exceeds' if burn + keep > self.steps else 'must equal'} "
                              f"steps {self.steps}")
        object.__setattr__(self, "burn_in", burn)
        object.__setattr__(self, "retain", keep)
        if self.initial_mode not in ("perturbed", "fixed_point"):
            raise ConfigError(f"unknown initial mode {self.initial_mode!r}")

    def echo(self) -> dict:
        return {**asdict(self), "initial_spread": _INITIAL_SPREAD,
                "blowup_bound": _BLOWUP_BOUND, "normal_method": _NORMAL_METHOD}


@dataclass
class TrajectorySet:
    """The retained window of one simulated run.

    ``y`` (output, shocks included) is a (retain, N) array; ``x_start`` is
    the (N,) stock at the first retained step and ``delta`` the per-node
    depreciation, from which :attr:`x` replays the stocks.  ``labels``,
    ``sectors``, ``countries`` and ``outputs`` are the network's per-node
    labels, groups and gross outputs; ``config`` is the run's echoed
    :class:`SimulationConfig`, seed and shock settings.
    """

    y: np.ndarray
    x_start: np.ndarray
    delta: np.ndarray
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

    @property
    def x(self) -> np.ndarray:
        """(retain, N) stocks, replayed as x[t+1] = (1 - delta) x[t] + y[t].

        The same IEEE operations as the map's own stock update, so the bits
        are those of the simulated stocks.
        """
        paths = np.concatenate([self.x_start[None], self.y[:-1]])[:self.steps]
        x = _ar1_recursion(paths, 1.0 - self.delta)
        x.flags.writeable = False
        return x

    def to_csv(self, path):
        """Long-format export: node,step,x,y."""
        write_table(path, ("node", "step", "x", "y"),
                    np.repeat(np.array(self.labels, dtype=object), self.steps),
                    np.tile(np.arange(self.steps), self.n), self.x.T.ravel(), self.y.T.ravel())


def _stream(seed, layer, index) -> np.random.Generator:
    return np.random.default_rng((seed, layer, index))


def _ar1_recursion(paths: np.ndarray, rho) -> np.ndarray:
    """Turn the innovations in rows 1.. of (steps, P) ``paths`` into AR(1) paths in place.

    Row 0 holds the zero start; each later row becomes u[t] = e[t] +
    rho * u[t-1], with ``rho`` one value or one per column.  All paths step
    together, and the bits equal ``scipy.signal.lfilter([1], [1, -rho], e)``
    column by column.
    """
    for t in range(1, paths.shape[0]):
        paths[t] += rho * paths[t - 1]
    return paths


def ar1_path(rho: float, sigma: float, steps: int, rng) -> np.ndarray:
    """AR(1) path with u[0] = 0 and u[t+1] = rho u[t] + N(0, sigma)."""
    if not 0.0 <= rho < 1.0:
        raise ConfigError(f"persistence must lie in [0, 1), got {rho}")
    if not 0.0 <= sigma < math.inf:
        raise ConfigError(f"innovation s.d. must be finite and non-negative, got {sigma}")
    out = np.zeros((steps, 1))
    if sigma == 0.0 or steps < 2:
        return out[:, 0]
    out[1:, 0] = rng.normal(0.0, sigma, steps - 1)
    return _ar1_recursion(out, rho)[:, 0]


def _per_node_params(params, n: int):
    if isinstance(params, AgentParams):
        params = [params] * n
    params = list(params)
    if len(params) != n:
        raise ConfigError(f"expected {n} parameter sets, got {len(params)}")
    return tuple(np.array([getattr(p, name) for p in params])
                 for name in ("alpha0", "alpha1", "alpha2", "delta"))


def _shock_paths(nets, shocks, steps: int, seeds, total) -> None:
    """Add every run's active AR(1) shock layers into the (B, steps, N) sum ``total``.

    Entity j of a layer is its j-th distinct group in sorted order (node
    index, sector or country); every node of the group receives its path.
    Each path draws its innovations from its own (seed, layer, entity)
    stream, and all paths of the batch then step through one recursion.
    Shocks run from the first step, burn-in included.
    """
    targets, rhos, draws = [], [], []     # per path: (run, nodes), rho, (sigma, stream)
    for r, (net, shock, seed) in enumerate(zip(nets, shocks, seeds)):
        for layer, rho, sigma, groups in (
                (_LAYER_IDIO, shock.rho_u, shock.sigma_u, range(net.n)),
                (_LAYER_SECTOR, shock.rho_v, shock.sigma_v, net.sectors),
                (_LAYER_COUNTRY, shock.rho_z, shock.sigma_z, net.countries)):
            if sigma == 0:
                continue
            members = _node_groups(groups)
            members.pop(None, None)
            for j, group in enumerate(sorted(members)):
                targets.append((r, members[group]))
                rhos.append(rho)
                draws.append((sigma, _stream(seed, layer, j)))
    paths = np.zeros((steps, len(targets)))
    for k, (sigma, rng) in enumerate(draws):
        paths[1:, k] = rng.normal(0.0, sigma, steps - 1)
    _ar1_recursion(paths, np.array(rhos))
    for k, (r, nodes) in enumerate(targets):
        total[r][:, nodes] += paths[:, k, None]


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
    None.  Returns ``(x_start, ys)``: the (B, N) stocks at the first of the
    last ``retain`` steps and the (B, retain, N) outputs of those steps,
    from which :attr:`TrajectorySet.x` replays the stocks.  Every run's
    coupling term is its own matrix-vector product, so a batch reproduces
    separate runs bit for bit.  Raises :class:`NumericalBlowup` naming the
    first run whose |y| is not finite or exceeds ``bound``.
    """
    keep_from = steps - retain
    ys = np.empty((y.shape[0], retain, y.shape[1]))
    x_start = None
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
        if t == keep_from:
            x_start = x
        if t >= keep_from:
            ys[:, t - keep_from] = y
    return x_start, ys


def simulate_batch(nets, params_per_run, q: QuarticCoefficients = DEFAULT_QUARTIC,
                   shocks=None, cfg: SimulationConfig = None, seeds=None) -> list:
    """Iterate B independent runs of the coupled system in one step loop.

    ``nets`` is one :class:`InteractionNetwork` shared by every run or a
    sequence of B networks over the same number of nodes; ``shocks`` is
    likewise one :class:`ShockConfig` or one per run.
    ``params_per_run`` holds, per run, what :func:`simulate` accepts as
    ``params``.  ``seeds`` gives each run's seed (default: ``cfg.seed`` for
    all); each run draws its own (seed, layer, entity) shock and initial
    streams, so run b equals ``simulate`` with ``cfg.seed = seeds[b]``.
    Returns one :class:`TrajectorySet` per run.  Raises
    :class:`NumericalBlowup` with the index of the first run that blew up.
    """
    if cfg is None:
        cfg = SimulationConfig(steps=600)
    params_per_run = list(params_per_run)
    b = len(params_per_run)
    if b < 1:
        raise ConfigError("need at least one run")
    seeds = [cfg.seed] * b if seeds is None else [int(s) for s in seeds]
    shocks = ([shocks or ShockConfig()] * b if shocks is None or isinstance(shocks, ShockConfig)
              else list(shocks))
    if isinstance(nets, InteractionNetwork):
        w = nets.weights
        nets = [nets] * b
    else:
        nets = list(nets)
        if len({net.n for net in nets}) != 1:
            raise ConfigError("all networks of a batch need the same number of nodes")
        w = np.stack([net.weights for net in nets])
    if len(nets) != b or len(seeds) != b or len(shocks) != b:
        raise ConfigError(f"need one network, shock config and seed per run: {b} runs, "
                          f"{len(nets)} networks, {len(shocks)} shocks, {len(seeds)} seeds")
    n = nets[0].n
    a0, a1, a2, de = (np.stack(cols) for cols in
                      zip(*(_per_node_params(p, n) for p in params_per_run)))
    x0, y0 = (np.stack(cols) for cols in
              zip(*(_initial_state(de[r], cfg, seeds[r]) for r in range(b))))
    # a silent run of a mixed batch keeps its row of zeros
    shock_sum = None if all(s.silent for s in shocks) else np.zeros((b, cfg.steps, n))
    if shock_sum is not None:
        _shock_paths(nets, shocks, cfg.steps, seeds, shock_sum)
    x_start, ys = _iterate(w, a0, a1, a2, de, x0, y0, q, cfg.steps, cfg.retain,
                           _BLOWUP_BOUND, shock_sum)
    return [TrajectorySet(ys[r], x_start[r], de[r], labels=list(net.labels),
                          sectors=list(net.sectors), countries=list(net.countries),
                          outputs=net.outputs.copy(),
                          config={**cfg.echo(), "seed": seeds[r], "shocks": asdict(shocks[r])})
            for r, net in enumerate(nets)]


def simulate(net: InteractionNetwork, params, q: QuarticCoefficients = DEFAULT_QUARTIC,
             shocks: ShockConfig = None, cfg: SimulationConfig = None) -> TrajectorySet:
    """Iterate the coupled system and return the retained window.

    ``params`` is one :class:`AgentParams` (homogeneous agents) or one per
    node.  Deterministic given (config, seed).  Raises
    :class:`NumericalBlowup` if any |y| exceeds 1e3.
    """
    return simulate_batch(net, [params], q, shocks, cfg)[0]


def aggregate_series(values, stride: int) -> np.ndarray:
    """Non-overlapping block means over time of a (T,) or (T, N) series."""
    arr = np.asarray(values, dtype=float)
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
