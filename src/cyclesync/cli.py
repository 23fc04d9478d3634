"""Command-line entry point for the experiment suite.

Every experiment reads a flat sectioned key-value config (INI syntax),
optionally starting from a shipped preset.  Its ``cmd_*`` computes from the
resolved config alone; ``main`` writes the plot-ready ``figure-<experiment>.csv``
(x, y, series columns), the module table, every config key read (defaults
filled in) and ``metadata.json``.  ``_SCHEMA`` is the one list of config keys;
a run takes only keys it reads.  Exit codes: 0 success, 2 configuration error,
3 numerical error, 4 data or IO error.
"""

from __future__ import annotations

import argparse
import configparser
import datetime
import json
import os
import sys
import time
from contextlib import suppress
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__, empirics, fixtures, master_stability, phase
from ._format import fmt, write_table
from .dynamics import DEFAULT_QUARTIC, AgentParams, QuarticCoefficients
from .errors import ConfigError, DataError, NumericalError
from .networks import (FlowTable, InteractionNetwork, build_io_network, build_topology,
                       uniform_coupling)
from .simulation import ShockConfig, SimulationConfig, simulate

__all__ = ["main"]

ENV_OUTDIR = "CYCLESYNC_OUTDIR"


def _floats(text: str) -> tuple:
    if text.startswith("linspace:"):
        lo, hi, num = text[len("linspace:"):].split(",")
        values = tuple(np.linspace(float(lo), float(hi), int(num)))
    else:
        values = tuple(float(v) for v in text.split(",") if v.strip())
    if not values:
        raise ValueError("no values")
    return values


#: The [network] keys each network kind reads, besides network.kind.
_NETWORK_KEYS = {"single": (), "demo_io": (), "io": ("flows",), "complete": ("n", "eps"),
                 "star": ("n", "eps"), "chain": ("n", "eps"),
                 "two_clique": ("sizes", "bridge", "eps")}
_KINDS = "|".join(_NETWORK_KEYS)

_FLAGS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}

#: Config value types: name -> parser of the config text.  A trailing "?"
#: in a schema type lets the value be empty, meaning None.
_TYPES = {
    "str": str, "int": int, "float": float,
    "floats": _floats,
    "ints": lambda text: tuple(int(v) for v in text.split(",")),
    "names": lambda text: tuple(v.strip() for v in text.split(",") if v.strip()),
    "bool": lambda text: _FLAGS[text.lower()],
    "5 floats": lambda text: QuarticCoefficients(*map(float, _floats(text))),
    _KINDS: {kind: kind for kind in _NETWORK_KEYS}.__getitem__,
}

#: Every config key: (section, key, type, default, help).  A default is
#: config text, parsed like user input, so the echoed config is exact.  A
#: dict default differs by experiment; "*" covers the others.
_SCHEMA = (
    ("network", "kind", _KINDS, "complete", "network kind: it picks the [network] keys read"),
    ("network", "n", "int", "10", "node count of complete, star and chain"),
    ("network", "eps", "float", "0.2", "uniform coupling in [0, 1] of the four topologies"),
    ("network", "sizes", "ints?", "", "two_clique clique sizes (empty: 3,3)"),
    ("network", "bridge", "ints?", "", "two_clique bridge node pair (empty: the clique ends)"),
    ("network", "flows", "str", "", "flow-table CSV read by kind = io"),
    ("dynamics", "alpha1", "floats", "-0.04", "accumulation dislike: one value or one per node"),
    ("dynamics", "alpha2", "float", "0.4", "adjustment sluggishness in (0, 1)"),
    ("dynamics", "delta", "float", "0.1", "stock depreciation rate in (0, 1]"),
    ("dynamics", "betas", "5 floats", ",".join(map(fmt, DEFAULT_QUARTIC.as_tuple())), "F: b0..b4"),
    ("shocks", "rho_u", "float", "0.0", "idiosyncratic shock persistence in [0, 1)"),
    ("shocks", "sigma_u", "float", "0.0", "idiosyncratic shock s.d."),
    ("shocks", "rho_v", "float", "0.0", "sector shock persistence in [0, 1)"),
    ("shocks", "sigma_v", "float", "0.0", "sector shock s.d."),
    ("shocks", "rho_z", "float", "0.0", "country shock persistence in [0, 1)"),
    ("shocks", "sigma_z", "float", "0.0", "country shock s.d."),
    ("run", "steps", "int", {"*": "2500", "sync-centrality": "2000"}, "simulated steps"),
    ("run", "burn_in", "int?", "", "discarded prefix (empty: steps - retain)"),
    ("run", "retain", "int?", "", "analysis window (empty: steps - burn_in)"),
    ("run", "seed", "int", "0", "random seed (--seed sets it too)"),
    ("run", "initial_mode", "str", "perturbed", "perturbed or fixed_point"),
    ("measure", "min_separation", "int", "5", "minimum steps between peaks"),
    ("measure", "min_prominence", "float?", "", "minimum peak prominence (empty: IQR / 10)"),
    ("measure", "smooth_window", "int", "1", "moving-average window before peak detection"),
    ("sweep", "eps_grid", "floats", "linspace:0,0.5,11", "coupling strengths swept"),
    ("sweep", "entrain_tol", "float", "0.01", "relative frequency spread counted as entrained"),
    ("centrality", "n_draws", "int", "100", "Monte Carlo draws per focus node"),
    ("centrality", "mode", "str", "L", "L or H (focus node at the lowest or highest frequency)"),
    ("centrality", "entrain_tol", "float", "0.05", "relative frequency spread allowed per draw"),
    ("msf", "k_grid", "floats", "linspace:0,2,21", "effective couplings K"),
    ("msf", "window", "int", "100000", "orbit steps averaged"),
    ("msf", "burn_in", "int", "1000", "orbit steps discarded first"),
    ("shock_response", "shock", "floats", "0.1", "deviation of y: node 0 only, or one per node"),
    ("shock_response", "tau", "int?", "", "orbit index of the shock (empty: growth phase)"),
    ("shock_response", "window_periods", "int", "3", "periods in the RMSE / phase-shift window"),
    ("shock_response", "horizon_periods", "int", "10", "periods simulated after the shock"),
    ("scenarios", "dynamics", "names", "cycle,node,focus", "dynamics presets"),
    ("scenarios", "shock_types", "names", "idiosyncratic,country,sector", "shock presets"),
    ("scenarios", "sigma_u_grid", "floats", "0.1,0.2,0.3", "idiosyncratic shock s.d. values"),
    ("scenarios", "n_seeds", "int", "20", "seeds per cell"),
    ("scenarios", "steps", "int", "600", "simulated steps per seed"),
    ("scenarios", "retain", "int", "228", "steps kept for the correlations"),
    ("scenarios", "stride", "int", "4", "steps per aggregated period"),
    ("scenarios", "detrend", "bool", "false", "detrend series before correlating"),
    ("scenarios", "exclusions", "names", "", "sectors left out of the within-country groups"),
)


def _read_config(preset: str = None, path: str = None, overrides=()) -> configparser.ConfigParser:
    # default_section "" is no valid header: no [DEFAULT] keys leak into every section
    cfg = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        if preset:
            presets = resources.files("cyclesync") / "presets"
            if not (presets / f"{preset}.cfg").is_file():
                available = sorted(p.name[:-4] for p in presets.iterdir()
                                   if p.name.endswith(".cfg"))
                raise ConfigError(f"unknown preset {preset!r}; available: {available}")
            cfg.read_string((presets / f"{preset}.cfg").read_text(encoding="utf-8"))
        if path:
            if not Path(path).is_file():
                raise ConfigError(f"config file not found: {path}")
            cfg.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"malformed config: {exc}") from None
    for item in overrides:
        key, eq, value = item.partition("=")
        section, _, option = key.strip().partition(".")
        if not (eq and section and option):
            raise ConfigError(f"override must look like section.key=value, got {item!r}")
        cfg.read_dict({section: {option.strip(): value.strip()}})
    return cfg


def _reads(experiment: str) -> list:
    """The schema rows an experiment reads for any network kind, defaults set for it."""
    reads = _COMMANDS[experiment][1]
    return [(section, key, kind, d.get(experiment, d["*"]) if isinstance(d, dict) else d, text)
            for section, key, kind, d, text in _SCHEMA
            if section in reads or f"{section}.{key}" in reads]


def _resolve(cfg: configparser.ConfigParser, experiment: str):
    """Parse the keys an experiment reads, defaults filled in, to ``{section: {key: value}}``
    and the config to echo, ``{section: {key: text}}``.  A set key the run does not read,
    for its command or its network kind (``_NETWORK_KEYS``), is a ConfigError."""
    values, echo = {}, {}
    for section, key, kind, default, _ in _reads(experiment):
        if section == "network" and key != "kind" \
                and key not in _NETWORK_KEYS[values[section]["kind"]]:
            continue
        text = cfg.get(section, key, fallback=default)
        try:
            value = None if kind.endswith("?") and not text else _TYPES[kind.rstrip("?")](text)
        except (ValueError, TypeError, KeyError):
            raise ConfigError(f"{section}.{key} = {text!r}: expected {kind}") from None
        values.setdefault(section, {})[key] = value
        echo.setdefault(section, {})[key] = text
    for section in cfg.sections():
        unread = [f"{section}.{key}" for key in cfg[section] if key not in echo.get(section, ())]
        if unread:
            where = (f" with network.kind = {values[section]['kind']}"
                     if section == "network" and section in values else "")
            raise ConfigError(f"{experiment} does not read {', '.join(unread)}{where}; it reads "
                              f"[{section}] keys: {', '.join(echo.get(section, ())) or 'none'}")
    return values, echo


def _topology(network: dict):
    return build_topology(**{key: value for key, value in network.items() if key != "eps"})


def _network(network: dict) -> InteractionNetwork:
    kind = network["kind"]
    if kind == "single":
        return InteractionNetwork(weights=np.eye(1))
    if kind == "io":
        if not network["flows"]:
            raise ConfigError("network.kind = io requires network.flows")
        return build_io_network(FlowTable.from_csv(network["flows"]))
    if kind == "demo_io":
        return build_io_network(fixtures.demo_flow_table())
    return uniform_coupling(_topology(network), network["eps"])


def _agent_params(dynamics: dict, n: int) -> list:
    alpha1 = dynamics["alpha1"] * n if len(dynamics["alpha1"]) == 1 else dynamics["alpha1"]
    if len(alpha1) != n:
        raise ConfigError(f"dynamics.alpha1 must give 1 or {n} values, got {len(alpha1)}")
    return [AgentParams.with_steady_state(a1, dynamics["alpha2"], dynamics["delta"],
                                          dynamics["betas"]) for a1 in alpha1]


#: header of the figure tables; a cmd_* returns (summary, table writer, figure columns)
_FIGURE = ("x", "y", "series")


def cmd_simulate(cfg: dict):
    """Simulate the coupled map and measure each node's cycle period."""
    net = _network(cfg["network"])
    dynamics = cfg["dynamics"]
    run = SimulationConfig(**cfg["run"])
    phase._check_peak_options(run.retain, **cfg["measure"])
    traj = simulate(net, _agent_params(dynamics, net.n), dynamics["betas"],
                    ShockConfig(**cfg["shocks"]), run)
    periods, failures = {}, {}
    for i, label in enumerate(traj.labels):
        try:
            omega = phase.measured_frequency(traj.y[:, i], **cfg["measure"])
            periods[label] = 2.0 * np.pi / omega
        except NumericalError as exc:
            periods[label], failures[label] = None, str(exc)
    return ({"measured_periods": periods, "period_failures": failures}, traj.to_csv,
            (np.tile(np.arange(traj.steps, dtype=float), traj.n), traj.y.T.ravel(),
             np.repeat(np.array(traj.labels, dtype=object), traj.steps)))


def cmd_sweep_epsilon(cfg: dict):
    """Sweep the coupling strength and flag where node frequencies entrain."""
    if "eps" not in _NETWORK_KEYS[cfg["network"]["kind"]]:
        raise ConfigError("sweep-epsilon needs an abstract topology: "
                          "network.kind = complete, star, chain or two_clique")
    adj, dynamics = _topology(cfg["network"]), cfg["dynamics"]
    result = phase.epsilon_sweep(
        adj, _agent_params(dynamics, adj.n), **cfg["sweep"],
        cfg=SimulationConfig(**cfg["run"]), q=dynamics["betas"],
        shocks=ShockConfig(**cfg["shocks"]), peak_kwargs=cfg["measure"])
    series = [f"omega_node_{i}" for i in range(adj.n)] + ["coherence", "mean_correlation"]
    return ({"transition_epsilon": result.transition_epsilon()}, result.to_csv,
            (np.repeat(result.eps_grid, len(series)),
             np.column_stack([result.omegas, result.coherence, result.mean_correlation]).ravel(),
             np.tile(series, result.eps_grid.size)))


def cmd_sync_centrality(cfg: dict):
    """Score each node's pull on the common frequency by Monte Carlo."""
    dynamics = cfg["dynamics"]
    result = phase.sync_centrality(
        _network(cfg["network"]), SimulationConfig(**cfg["run"]), **cfg["centrality"],
        q=dynamics["betas"], alpha2=dynamics["alpha2"], delta=dynamics["delta"],
        peak_kwargs=cfg["measure"])
    return ({"benchmark_frequency": result.benchmark_frequency}, result.to_csv,
            (np.arange(result.scores.size, dtype=float), result.scores, result.labels))


def cmd_msf(cfg: dict):
    """Compute the master stability function over effective couplings K."""
    dynamics, msf = cfg["dynamics"], cfg["msf"]
    steps = msf["window"] + msf["burn_in"]
    try:
        orbit = master_stability.synchronized_orbit(_agent_params(dynamics, 1)[0],
                                                    dynamics["betas"], steps=steps)
    except ConfigError as exc:
        raise ConfigError(f"msf.window + msf.burn_in = {steps}: {exc}") from None
    curve = master_stability.master_stability_function(orbit, **msf)
    return ({"orbit_period": orbit.period, "mu1_at_zero": float(curve.mu1[0])}, curve.to_csv,
            (np.tile(curve.k_grid, 2), np.concatenate([curve.mu1, curve.mu2]),
             np.repeat(["mu1", "mu2"], curve.k_grid.size)))


def cmd_shock_response(cfg: dict):
    """Compare linearized and nonlinear propagation of a one-off shock."""
    net = _network(cfg["network"])
    dynamics, options = cfg["dynamics"], cfg["shock_response"]
    params = _agent_params(dynamics, net.n)
    if len(set(params)) > 1:
        raise ConfigError("dynamics.alpha1 must be the same for every node: shock-response "
                          "starts all nodes on one synchronized orbit")
    if len(options["shock"]) == 1 and net.n > 1:
        options["shock"] = np.concatenate([options["shock"], np.zeros(net.n - 1)])
    response = master_stability.shock_response_compare(net, params[0], dynamics["betas"],
                                                       **options)
    steps = response.nonlinear_y.shape[0]
    series = [f"{path}_node_{i}" for path in ("nonlinear", "linear") for i in range(net.n)]
    return ({"rmse": response.rmse, "phase_shift": response.phase_shift}, response.to_csv,
            (np.tile(np.arange(steps, dtype=float), len(series)),
             np.concatenate([response.nonlinear_y.T.ravel(), response.linear_y.T.ravel()]),
             np.repeat(np.array(series, dtype=object), steps)))


def cmd_scenarios(cfg: dict):
    """Compare grouped comovement across dynamics and shock scenarios."""
    rows = empirics.scenario_run(_network(cfg["network"]),
                                 empirics.ScenarioSpec(**cfg["scenarios"]),
                                 q=cfg["dynamics"]["betas"])
    # two rows per cell, one per grouping
    return ({"cells": len(rows) // 2}, lambda path: empirics.write_scenario_csv(rows, path),
            ([r.sigma_u for r in rows], [r.mean_corr for r in rows],
             [f"{r.dynamics}/{r.shock_type}/{r.group}" for r in rows]))


#: the [run] keys of the experiments that pass only a run window and seed on
_RUN_WINDOW = ("run.steps", "run.burn_in", "run.retain", "run.seed")

#: Experiment name: (function, config read as whole sections or section.key,
#: module table); sweep-epsilon reads the topology keys but eps, which its grid sets.
_COMMANDS = {
    "simulate": (cmd_simulate, ("network", "dynamics", "shocks", "run", "measure"),
                 "trajectory.csv"),
    "sweep-epsilon": (cmd_sweep_epsilon,
                      ("network.kind", "network.n", "network.sizes", "network.bridge",
                       "dynamics", "shocks", *_RUN_WINDOW, "measure", "sweep"),
                      "entrainment.csv"),
    "sync-centrality": (cmd_sync_centrality,
                        ("network", "dynamics.alpha2", "dynamics.delta", "dynamics.betas",
                         *_RUN_WINDOW, "measure", "centrality"), "sync-centrality.csv"),
    "msf": (cmd_msf, ("dynamics", "msf"), "msf.csv"),
    "shock-response": (cmd_shock_response, ("network", "dynamics", "shock_response"),
                       "shock-response.csv"),
    "scenarios": (cmd_scenarios, ("network", "dynamics.betas", "scenarios"),
                  "scenario-results.csv"),
}


def _key_listing(experiment: str) -> str:
    return "config keys read (section.key = default):\n" + "\n".join(
        f"  {section}.{key} = {default}\n      {kind}: {text}"
        for section, key, kind, default, text in _reads(experiment))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclesync",
        description="Experiments on synchronization of coupled business-cycle "
                    "oscillators: simulation, entrainment sweeps, centrality, "
                    "master stability, shock responses and scenario comparisons.")
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name, (func, reads, _) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=func.__doc__, description=func.__doc__,
                             epilog=_key_listing(name),
                             formatter_class=argparse.RawDescriptionHelpFormatter)
        cmd.add_argument("--config", help="flat sectioned key-value config file")
        cmd.add_argument("--preset", help="name of a shipped preset config")
        cmd.add_argument("--outdir", help=f"output directory (default ${ENV_OUTDIR} or cwd)")
        if "run" in reads or "run.seed" in reads:
            cmd.add_argument("--seed", type=int, help="override run.seed")
        cmd.add_argument("--set", action="append", default=[], metavar="SECTION.KEY=VALUE",
                         help="override a single config value")
    return parser


def main(argv=None) -> int:
    """Run one experiment; the only writer of its output directory."""
    marks, args = [time.perf_counter()], _build_parser().parse_args(argv)
    outdir, made, code = None, [], 0
    record = {"experiment": args.experiment,
              "versions": {"cyclesync": __version__, "numpy": np.__version__}}
    try:
        overrides = list(args.set)
        if getattr(args, "seed", None) is not None:
            overrides.append(f"run.seed={args.seed}")
        cfg, echo = _resolve(_read_config(args.preset, args.config, overrides), args.experiment)
        record["config"] = echo
        marks.append(time.perf_counter())
        outdir = Path(args.outdir or os.environ.get(ENV_OUTDIR, "."))
        made = [p for p in (outdir, *outdir.parents) if not p.exists()]
        outdir.mkdir(parents=True, exist_ok=True)
        summary, write, figure = _COMMANDS[args.experiment][0](cfg)
        marks.append(time.perf_counter())
        write_table(outdir / f"figure-{args.experiment}.csv", _FIGURE, *figure)
        del figure  # frees the figure columns before the module table is built
        write(outdir / _COMMANDS[args.experiment][2])
        resolved = configparser.ConfigParser(interpolation=None)
        resolved.read_dict(echo)
        with open(outdir / "resolved-config.cfg", "w", encoding="utf-8") as fh:
            fh.write(f"# cyclesync {args.experiment}: every key read, defaults filled in\n")
            resolved.write(fh)
        marks.append(time.perf_counter())
        record.update(summary, timestamp=datetime.datetime.now(datetime.timezone.utc).isoformat())
    except ConfigError as exc:
        for directory in made:  # deepest first; rmdir leaves a directory that is not empty
            with suppress(OSError):
                directory.rmdir()
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, DataError, OSError) as exc:
        code, kind = (3, "numerical") if isinstance(exc, NumericalError) else (4, "data")
        record["error"] = message = str(exc)
    if outdir is not None and os.path.isdir(outdir):  # the config resolved
        record["stages"] = dict(zip(("config_s", "compute_s", "write_s"), np.diff(marks).tolist()))
        try:
            (outdir / "metadata.json").write_text(
                json.dumps(record, indent=2, sort_keys=True, default=str) + "\n", encoding="utf-8")
        except OSError as exc:
            message = f"{message}; metadata.json not written: {exc}" if code else str(exc)
            code, kind = 4, "data"
    if code:
        print(f"{kind} error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
