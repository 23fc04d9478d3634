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

import math
from dataclasses import dataclass

import numpy as np

from ._format import write_table
from .dynamics import DEFAULT_QUARTIC, AgentParams, QuarticCoefficients
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
]

_LAYER_IDIO = 0
_LAYER_SECTOR = 1
_LAYER_COUNTRY = 2
_LAYER_INIT = 3

#: half-width of the relative uniform perturbation of a "perturbed" start
_INITIAL_SPREAD = 0.1
#: |y| beyond which a run counts as blown up
_BLOWUP_BOUND = 1e3
#: steps of the step loop between two blow-up checks
_CHECK_EVERY = 64
#: laps of shock innovations drawn per call of each stream's generator.  A
#: call costs about as much as drawing 64 normals: one call a lap added
#: 20-35 ms to the 140-170 ms of a shocked 4000-step run on 260 nodes.
#: 8 laps hold a stream's draws in 4 kB.
_DRAW_LAPS = 8


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


def _is_int(value) -> bool:
    """Whether ``value`` is a Python or numpy integer other than a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_seed(seed, what: str) -> int:
    """``seed`` as an int; ConfigError naming ``what`` unless it is a non-negative integer."""
    if _is_int(seed) and seed >= 0:
        return int(seed)
    raise ConfigError(f"{what} must be a non-negative integer, got {seed!r}")


@dataclass(frozen=True)
class SimulationConfig:
    """Run length, retention window and seeding.

    The analysis window is the final ``retain`` steps of the ``steps``
    simulated; ``burn_in`` is the discarded prefix and defaults to
    ``steps - retain``.  Given both, they must add up to ``steps``.  Each
    given run size is an integer, and ``seed`` a non-negative one.
    """

    steps: int
    burn_in: int = None
    retain: int = None
    seed: int = 0
    initial_mode: str = "perturbed"

    def __post_init__(self):
        for name in ("steps", "burn_in", "retain"):
            value = getattr(self, name)
            if not _is_int(value) and (name == "steps" or value is not None):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
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
        _check_seed(self.seed, "seed")


@dataclass
class TrajectorySet:
    """The retained window of one simulated run.

    ``y`` (output, shocks included) is a (retain, N) array; ``x_start`` is
    the (N,) stock at the first retained step and ``delta`` the per-node
    depreciation, from which :attr:`x` replays the stocks.  ``labels`` are
    the network's node labels; its groups and outputs are read from the
    network itself.
    """

    y: np.ndarray
    x_start: np.ndarray
    delta: np.ndarray
    labels: list

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


def _layer_entities(net: InteractionNetwork) -> list:
    """Per shock layer of ``net``, its grouped nodes, each one's entity and the entity count.

    Entity j of a layer is its j-th distinct group in sorted order (node
    index, sector or country); nodes of no group are left out.
    """
    layers = []
    for groups in (range(net.n), net.sectors, net.countries):
        members = _node_groups(groups)
        members.pop(None, None)
        entity = np.full(net.n, -1)
        for j, group in enumerate(sorted(members)):
            entity[members[group]] = j
        nodes = np.flatnonzero(entity >= 0)
        # a plain slice when every node has a group: adding into it is a
        # fraction of the cost of an indexed update, with the same bits
        layers.append((nodes if nodes.size < net.n else slice(None), entity[nodes],
                       len(members)))
    return layers


def _shock_paths(nets, shocks, steps: int, seeds):
    """Yield every run's summed AR(1) shock layers, one (hi - lo, B, N) array per lap.

    The laps are the ``_CHECK_EVERY``-step laps of :func:`_iterate`, so no
    (B, steps, N) sum is ever held.  Every node of a layer's entity receives
    that entity's path.  Each path's innovations come from its own (seed,
    layer, entity) stream, drawn ``_DRAW_LAPS`` laps at a time as standard
    normals z (a generator yields the same values in pieces as whole) and
    scaled per run: 0.0 + sigma * z is what ``Generator.normal(0.0, sigma)``
    computes, so a path keeps its bits in any batch.  Each distinct (stream,
    sigma, rho) path is filtered once, and all of them step through one
    recursion whose last row carries over to the next lap.  Each layer is
    added with one gather per lap, idiosyncratic, then sector, then country,
    so every node's sum is ((0 + u) + v) + z; a node a layer leaves out, or a
    run with the layer silent, gathers a zero column.  Shocks run from the
    first step, burn-in included.
    """
    entities = {}                     # id(net) -> _layer_entities(net)
    streams = {}                      # (seed, layer, entity) -> its row of z
    paths = {}                        # (row of z, sigma, rho) -> its column of lap_paths
    b, n = len(nets), nets[0].n
    gathers = np.full((3, b, n), -1)  # per layer, each run's node -> its column of lap_paths
    for r, (net, shock, seed) in enumerate(zip(nets, shocks, seeds)):
        if id(net) not in entities:
            entities[id(net)] = _layer_entities(net)
        for layer, rho, sigma, (nodes, entity, count) in zip(
                (_LAYER_IDIO, _LAYER_SECTOR, _LAYER_COUNTRY),
                (shock.rho_u, shock.rho_v, shock.rho_z),
                (shock.sigma_u, shock.sigma_v, shock.sigma_z), entities[id(net)]):
            if sigma == 0:
                continue
            cols = [paths.setdefault((streams.setdefault((seed, layer, j), len(streams)),
                                      sigma, rho), len(paths)) for j in range(count)]
            gathers[layer, r, nodes] = np.array(cols)[entity]
    gathers[gathers < 0] = len(paths)                     # the zero column
    # flat (B * N) indices: a 1-D index gathers at about twice the speed of a 2-D one
    layers = [g.ravel() for g in gathers if (g < len(paths)).any()]
    rngs = [np.random.default_rng(key) for key in streams]
    # the zero column reads the never-drawn last row of z, with sigma 0
    columns, sigmas, rhos = (np.array(v) for v in zip(*paths, (len(streams), 0.0, 0.0)))
    z = np.zeros((len(streams) + 1, _DRAW_LAPS * _CHECK_EVERY))
    # row 0 carries the previous lap's last row
    lap_paths = np.zeros((_CHECK_EVERY + 1, len(paths) + 1))
    part = np.empty((_CHECK_EVERY, b * n))
    for lo in range(0, steps, _CHECK_EVERY):
        hi = min(lo + _CHECK_EVERY, steps)
        if lo % z.shape[1] == 0:
            # the next _DRAW_LAPS laps' innovations; step 0 has none
            for row, rng in zip(z, rngs):
                rng.standard_normal(out=row[:min(lo + z.shape[1], steps) - max(lo, 1)])
            used = 0
        rows = lap_paths[1 + (lo == 0):hi - lo + 1]
        # "clip" gathers straight into rows, where "raise" buffers a copy
        np.take(z[:, used:used + len(rows)].T, columns, axis=1, out=rows, mode="clip")
        used += len(rows)
        rows *= sigmas
        rows += 0.0
        _ar1_recursion(lap_paths[:hi - lo + 1], rhos)
        total = np.zeros((hi - lo, b * n))
        for cols in layers:
            np.take(lap_paths[1:hi - lo + 1], cols, axis=1, out=part[:hi - lo], mode="clip")
            total += part[:hi - lo]
        yield total.reshape(hi - lo, b, n)
        lap_paths[0] = lap_paths[hi - lo]


def _initial_states(de: np.ndarray, cfg: SimulationConfig, seeds) -> tuple:
    """(B, N) starts at the unit fixed point, optionally perturbed from each
    run's seed; each distinct seed's stream is drawn once."""
    x = 1.0 / de
    y = np.ones(de.shape)
    if cfg.initial_mode == "perturbed":
        streams = {}                  # seed -> its row of draws
        rows = [streams.setdefault(seed, len(streams)) for seed in seeds]
        factors = 1.0 + np.array([np.random.default_rng((s, _LAYER_INIT, 0)).uniform(
            -_INITIAL_SPREAD, _INITIAL_SPREAD, (2, de.shape[1])) for s in streams])
        x *= factors[rows, 0]
        y *= factors[rows, 1]
    return x, y


def _iterate(w, a0, a1, a2, de, x, y, q: QuarticCoefficients, steps: int,
             retain: int, bound: float, shock_laps=None):
    """Iterate B independent copies of the coupled map from states (x, y).

    ``w`` is shared (N, N) or per run (B, N, N); ``a0``, ``a1``, ``a2``,
    ``de``, ``x`` and ``y`` are (B, N); ``shock_laps`` is None or an
    iterable of each run's shock sums, one (hi - lo, B, N) array per lap of
    steps lo to hi, as :func:`_shock_paths` yields them, taken as each lap
    starts.  Returns ``(x_start, ys)``: the (B, N) stocks at the first of
    the last ``retain`` steps and the (B, retain, N) outputs of those steps,
    from which :attr:`TrajectorySet.x` replays the stocks.  Every run's
    coupling term is its own matrix-vector product, so a batch reproduces
    separate runs bit for bit.  Raises :class:`NumericalBlowup` naming the
    first step, and the first run at that step, whose |y| is not finite or
    exceeds ``bound``.

    Each step evaluates :func:`dynamics.single_agent_step`'s formula in the
    same floating-point order, in place in preallocated buffers.  Outputs
    go to a ring of ``_CHECK_EVERY`` steps, checked for blow-up once per
    lap and then copied into the retained window.
    """
    keep_from = steps - retain
    b, n = y.shape
    ys = np.empty((b, retain, n))
    ring = np.empty((_CHECK_EVERY, b, n))
    slots, slots3 = list(ring), list(ring[:, :, :, None])
    x = np.array(x, dtype=float)
    shock_laps = None if shock_laps is None else iter(shock_laps)
    y3 = y[:, :, None]
    ybar3 = np.empty((b, n, 1))
    ybar, f, tmp = ybar3[:, :, 0], np.empty((b, n)), np.empty((b, n))
    one_minus_de = 1.0 - de
    # 0-d arrays: a Python float operand costs a scalar conversion per ufunc call
    b0, b1, b2, b3, b4 = map(np.array, q.as_tuple())
    x_start = None
    # a run that blows up keeps iterating to the end of the lap
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, steps, _CHECK_EVERY):
            hi = min(lo + _CHECK_EVERY, steps)
            shock = None if shock_laps is None else next(shock_laps)
            for t in range(lo, hi):
                out = slots[t - lo]
                np.matmul(w, y3, out=ybar3)
                np.multiply(ybar, b4, out=f)
                f += b3
                f *= ybar
                f += b2
                f *= ybar
                f += b1
                f *= ybar
                f += b0
                np.multiply(a1, x, out=out)
                out += a0
                np.multiply(a2, y, out=tmp)
                out += tmp
                out += f
                x *= one_minus_de
                x += y
                if shock is not None:
                    out += shock[t - lo]
                y, y3 = out, slots3[t - lo]
                if t == keep_from:
                    x_start = x.copy()
            lap = ring[:hi - lo]
            peak = max(float(lap.max()), -float(lap.min()))
            if not math.isfinite(peak) or peak > bound:
                bad = ~(np.isfinite(lap) & (np.abs(lap) <= bound)).all(axis=2)
                step, run = np.argwhere(bad)[0].tolist()
                raise NumericalBlowup(step=lo + step, value=float(np.max(np.abs(lap[step, run]))),
                                      bound=bound, run=run)
            first = max(lo, keep_from)
            if first < hi:
                ys[:, first - keep_from:hi - keep_from] = lap[first - lo:].swapaxes(0, 1)
    return x_start, ys


def simulate_batch(nets, params_per_run, q: QuarticCoefficients = DEFAULT_QUARTIC,
                   shocks=None, cfg: SimulationConfig = None, seeds=None) -> list:
    """Iterate B independent runs of the coupled system in one step loop.

    ``nets`` is one :class:`InteractionNetwork` shared by every run or a
    sequence of B networks over the same number of nodes; ``shocks`` is
    likewise one :class:`ShockConfig` or one per run.
    ``params_per_run`` holds, per run, what :func:`simulate` accepts as
    ``params``.  ``seeds`` gives each run's seed, a non-negative integer
    (default: ``cfg.seed`` for all); each run draws its own (seed, layer,
    entity) shock and initial streams, so run b equals ``simulate`` with
    ``cfg.seed = seeds[b]``.
    Returns one :class:`TrajectorySet` per run.  Raises
    :class:`NumericalBlowup` with the index of the first run that blew up.
    """
    if cfg is None:
        cfg = SimulationConfig(steps=600)
    params_per_run = list(params_per_run)
    b = len(params_per_run)
    if b < 1:
        raise ConfigError("need at least one run")
    seeds = ([cfg.seed] * b if seeds is None else
             [_check_seed(s, f"seed of run {r}") for r, s in enumerate(seeds)])
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
    x0, y0 = _initial_states(de, cfg, seeds)
    # a silent run of a mixed batch gathers zeros
    laps = None if all(s.silent for s in shocks) else _shock_paths(nets, shocks, cfg.steps, seeds)
    x_start, ys = _iterate(w, a0, a1, a2, de, x0, y0, q, cfg.steps, cfg.retain,
                           _BLOWUP_BOUND, laps)
    return [TrajectorySet(ys[r], x_start[r], de[r], labels=list(net.labels))
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
