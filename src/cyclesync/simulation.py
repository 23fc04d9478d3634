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

# numpy's SeedSequence hashing and PCG64 seeding, from which _streams states
# each generator exactly as np.random.default_rng(key) does
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_PCG64_MULT = 2549297995355413924 << 64 | 4865540595714422341


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


def _check_seed(seed, what: str) -> int:
    """``seed`` as an int; ConfigError naming ``what`` unless it is a non-negative integer."""
    if isinstance(seed, (int, np.integer)) and not isinstance(seed, bool) and seed >= 0:
        return int(seed)
    raise ConfigError(f"{what} must be a non-negative integer, got {seed!r}")


@dataclass(frozen=True)
class SimulationConfig:
    """Run length, retention window and seeding.

    The analysis window is the final ``retain`` steps of the ``steps``
    simulated; ``burn_in`` is the discarded prefix and defaults to
    ``steps - retain``.  Given both, they must add up to ``steps``.
    ``seed`` is a non-negative integer.
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
        _check_seed(self.seed, "seed")

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


def _key_words(key) -> tuple:
    """A key's little-endian uint32 entropy words, as ``np.random.SeedSequence`` coerces it."""
    words = []
    for value in key:
        if value < 0:
            raise ValueError("expected non-negative integer")
        words.append(value & _MASK32)
        while value > _MASK32:
            value >>= 32
            words.append(value & _MASK32)
    return tuple(words)


def _pcg64_seeds(entropy: np.ndarray) -> list:
    """``SeedSequence(key).generate_state(4, uint64)`` for every row of (K, L) words.

    The uint32 arithmetic runs on uint64 arrays masked to 32 bits; the hash
    constant depends only on the number of calls, so it is one scalar for
    all K keys.  Returns four lists of K Python ints: PCG64's seed (high,
    low) and stream (high, low) words.
    """
    k, length = entropy.shape
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> _XSHIFT

    def mix(x, y):
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ result >> _XSHIFT

    pool = [hashmix(entropy[:, i] if i < length else np.zeros(k, np.uint64))
            for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, length):
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(entropy[:, src]))
    hash_const = _INIT_B
    state = []
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        state.append(value ^ value >> _XSHIFT)
    return [(state[2 * i] | state[2 * i + 1] << 32).tolist() for i in range(_POOL_SIZE)]


def _streams(keys):
    """Yield, in key order, a generator that draws what ``np.random.default_rng(key)`` draws.

    Every key's seed is hashed in one numpy pass per word count, and one
    reused PCG64 is re-stated for each key in turn, so a yielded generator
    must be drawn from before the next is taken.
    """
    words = [_key_words(key) for key in keys]
    by_length = {}
    for i, w in enumerate(words):
        by_length.setdefault(len(w), []).append(i)
    states = [None] * len(words)
    for rows in by_length.values():
        seed_hi, seed_lo, seq_hi, seq_lo = _pcg64_seeds(
            np.array([words[i] for i in rows], dtype=np.uint64))
        for j, i in enumerate(rows):
            inc = ((seq_hi[j] << 64 | seq_lo[j]) << 1 | 1) & _MASK128
            seed = seed_hi[j] << 64 | seed_lo[j]
            states[i] = {"state": ((inc + seed) * _PCG64_MULT + inc) & _MASK128, "inc": inc}
    bit_generator = np.random.PCG64(0)
    gen = np.random.Generator(bit_generator)
    for state in states:
        bit_generator.state = {"bit_generator": "PCG64", "state": state,
                               "has_uint32": 0, "uinteger": 0}
        yield gen


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


def _shock_paths(nets, shocks, steps: int, seeds, total) -> None:
    """Add every run's active AR(1) shock layers into the (B, steps, N) sum ``total``.

    Every node of a layer's entity receives that entity's path.  Each path
    draws its innovations from its own (seed, layer, entity) stream, and
    all paths of the batch then step through one recursion.  Each (run,
    layer) is added with one gather, idiosyncratic, then sector, then
    country, so every node's sum is ((0 + u) + v) + z.  Shocks run from
    the first step, burn-in included.
    """
    entities = {}                     # id(net) -> _layer_entities(net)
    adds, keys, sigmas, rhos = [], [], [], []     # adds: (run, nodes, path of each node)
    for r, (net, shock, seed) in enumerate(zip(nets, shocks, seeds)):
        if id(net) not in entities:
            entities[id(net)] = _layer_entities(net)
        for layer, rho, sigma, (nodes, entity, count) in zip(
                (_LAYER_IDIO, _LAYER_SECTOR, _LAYER_COUNTRY),
                (shock.rho_u, shock.rho_v, shock.rho_z),
                (shock.sigma_u, shock.sigma_v, shock.sigma_z), entities[id(net)]):
            if sigma == 0:
                continue
            adds.append((r, nodes, len(keys) + entity))
            keys.extend((seed, layer, j) for j in range(count))
            sigmas.extend([sigma] * count)
            rhos.extend([rho] * count)
    paths = np.zeros((steps, len(keys)))
    for k, (sigma, gen) in enumerate(zip(sigmas, _streams(keys))):
        paths[1:, k] = gen.normal(0.0, sigma, steps - 1)
    _ar1_recursion(paths, np.array(rhos))
    for r, nodes, cols in adds:
        total[r][:, nodes] += paths[:, cols]


def _initial_states(de: np.ndarray, cfg: SimulationConfig, seeds) -> tuple:
    """(B, N) starts at the unit fixed point, optionally perturbed from each run's seed."""
    x = 1.0 / de
    y = np.ones(de.shape)
    if cfg.initial_mode == "perturbed":
        n = de.shape[1]
        for r, rng in enumerate(_streams([(seed, _LAYER_INIT, 0) for seed in seeds])):
            x[r] *= 1.0 + rng.uniform(-_INITIAL_SPREAD, _INITIAL_SPREAD, n)
            y[r] *= 1.0 + rng.uniform(-_INITIAL_SPREAD, _INITIAL_SPREAD, n)
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
