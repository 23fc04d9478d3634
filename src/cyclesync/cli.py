"""Command-line entry point for the experiment suite.

Every experiment reads a flat sectioned key-value config (INI syntax),
optionally starting from a shipped preset, writes its module CSV outputs
plus a plot-ready ``figure-<experiment>.csv`` (x, y, series columns) into
the output directory, and echoes every config key it read, defaults filled
in, next to them.  ``_SCHEMA`` is the one list of config keys.  Exit codes:
0 success, 2 configuration error, 3 numerical error, 4 data or IO error.
"""

from __future__ import annotations

import argparse
import configparser
import datetime
import os
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from . import empirics, fixtures, master_stability, phase
from ._format import fmt, write_table
from .dynamics import DEFAULT_QUARTIC, AgentParams, QuarticCoefficients
from .errors import ConfigError, DataError, NumericalError
from .networks import (FlowTable, InteractionNetwork, build_io_network, build_topology,
                       uniform_coupling)
from .simulation import ShockConfig, SimulationConfig, simulate, write_metadata

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


_FLAGS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}

#: Config value types: name -> parser of the config text.  A trailing "?"
#: in a schema type lets the value be empty, meaning None.
_TYPES = {
    "str": str, "int": int, "float": float,
    "floats": _floats,
    "ints": lambda text: tuple(int(v) for v in text.split(",")),
    "names": lambda text: tuple(v.strip() for v in text.split(",") if v.strip()),
    "presets": lambda text: tuple(v.strip() for v in text.split(",")),  # ScenarioSpec checks
    "bool": lambda text: _FLAGS[text.lower()],
    "5 floats": lambda text: QuarticCoefficients(*map(float, _floats(text))),
}

#: Every config key: (section, key, type, default, help).  A default is
#: config text, parsed like user input, so the echoed config is exact.  A
#: dict default differs by experiment; "*" covers the others.
_SCHEMA = (
    ("network", "kind", "str", "complete", "single|complete|star|chain|two_clique|io|demo_io"),
    ("network", "n", "int", "10", "node count of complete, star and chain"),
    ("network", "eps", "float", "0.2", "uniform coupling strength in [0, 1]"),
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
    ("run", "stride", "int", "1", "aggregation stride; must divide retain"),
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
    ("scenarios", "dynamics", "presets", "cycle,node,focus", "dynamics presets"),
    ("scenarios", "shock_types", "presets", "idiosyncratic,country,sector", "shock presets"),
    ("scenarios", "sigma_u_grid", "floats", "0.1,0.2,0.3", "idiosyncratic shock s.d. values"),
    ("scenarios", "n_seeds", "int", "20", "seeds per cell"),
    ("scenarios", "steps", "int", "600", "simulated steps per seed"),
    ("scenarios", "retain", "int", "228", "steps kept for the correlations"),
    ("scenarios", "stride", "int", "4", "steps per aggregated period"),
    ("scenarios", "detrend", "bool", "false", "detrend series before correlating"),
    ("scenarios", "exclusions", "names", "", "sectors left out of the within-country groups"),
)

_SECTION_KEYS = {section: [k for s, k, *_ in _SCHEMA if s == section] for section, *_ in _SCHEMA}


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
    for section in cfg.sections():
        known = _SECTION_KEYS.get(section, ())
        unknown = [f"{section}.{key}" for key in cfg[section] if key not in known]
        if not known:
            raise ConfigError(f"unknown config section [{section}], setting {unknown}")
        if unknown:
            raise ConfigError(f"unknown config keys {unknown}; [{section}] takes {known}")
    return cfg


def _resolve(cfg: configparser.ConfigParser, experiment: str):
    """Parse the keys an experiment reads, defaults filled in.

    Returns ``{section: {key: value}}`` for those keys, and the config to
    echo, ``{section: {key: text}}``: those keys plus every key the user set.
    """
    reads = _COMMANDS[experiment][1]
    values, echo = {}, {}
    for section, key, kind, default, _ in _SCHEMA:
        read = section in reads or f"{section}.{key}" in reads
        if not (read or cfg.has_option(section, key)):
            continue
        if isinstance(default, dict):
            default = default.get(experiment, default["*"])
        text = cfg.get(section, key, fallback=default)
        try:
            value = None if kind.endswith("?") and not text else _TYPES[kind.rstrip("?")](text)
        except (ValueError, TypeError, KeyError):
            raise ConfigError(f"{section}.{key} = {text!r}: expected {kind}") from None
        if read:
            values.setdefault(section, {})[key] = value
        echo.setdefault(section, {})[key] = text
    return values, echo


def _network(network: dict):
    kind = network["kind"]
    if kind == "single":
        return InteractionNetwork(weights=np.eye(1)), None
    if kind == "io":
        if not network["flows"]:
            raise ConfigError("network.kind = io requires network.flows")
        return build_io_network(FlowTable.from_csv(network["flows"])), None
    if kind == "demo_io":
        return build_io_network(fixtures.demo_flow_table()), None
    adj = build_topology(kind, network["n"], sizes=network["sizes"], bridge=network["bridge"])
    return uniform_coupling(adj, network["eps"]), adj


def _agent_params(dynamics: dict, n: int) -> list:
    alpha1 = dynamics["alpha1"] * n if len(dynamics["alpha1"]) == 1 else dynamics["alpha1"]
    if len(alpha1) != n:
        raise ConfigError(f"dynamics.alpha1 must give 1 or {n} values, got {len(alpha1)}")
    return [AgentParams.with_steady_state(a1, dynamics["alpha2"], dynamics["delta"],
                                          dynamics["betas"]) for a1 in alpha1]


def _simulation_config(run: dict) -> SimulationConfig:
    """[run] holds the SimulationConfig fields; only ``stride`` is renamed."""
    return SimulationConfig(**{"aggregate_stride" if k == "stride" else k: v
                               for k, v in run.items()})


#: header of the plot-ready long-format figure-<experiment>.csv tables
_FIGURE = ("x", "y", "series")


def cmd_simulate(cfg: dict, args) -> dict:
    """Simulate the coupled map and measure each node's cycle period."""
    net, _ = _network(cfg["network"])
    dynamics = cfg["dynamics"]
    traj = simulate(net, _agent_params(dynamics, net.n), dynamics["betas"],
                    ShockConfig(**cfg["shocks"]), _simulation_config(cfg["run"]))
    periods, failures = {}, {}
    for i, label in enumerate(traj.labels):
        try:
            omega = phase.measured_frequency(traj.y[:, i], **cfg["measure"])
            periods[label] = 2.0 * np.pi / omega
        except NumericalError as exc:
            periods[label], failures[label] = None, str(exc)
    traj.to_csv(args.outdir / "trajectory.csv")
    write_table(args.outdir / "figure-simulate.csv", _FIGURE,
                np.tile(np.arange(traj.steps, dtype=float), traj.n), traj.y.T.ravel(),
                np.repeat(np.array(traj.labels, dtype=object), traj.steps))
    return {"measured_periods": periods, "period_failures": failures, "config_echo": traj.config}


def cmd_sweep_epsilon(cfg: dict, args) -> dict:
    """Sweep the coupling strength and flag where node frequencies entrain."""
    _, adj = _network(cfg["network"])
    if adj is None:
        raise ConfigError("sweep-epsilon needs an abstract topology")
    dynamics, sim_cfg = cfg["dynamics"], _simulation_config(cfg["run"])
    result = phase.epsilon_sweep(
        adj, [p.alpha1 for p in _agent_params(dynamics, adj.n)], **cfg["sweep"],
        alpha2=dynamics["alpha2"], delta=dynamics["delta"], q=dynamics["betas"],
        shocks=ShockConfig(**cfg["shocks"]),
        steps=sim_cfg.steps, burn_in=sim_cfg.burn_in, seed=sim_cfg.seed,
        peak_kwargs=cfg["measure"])
    result.to_csv(args.outdir / "entrainment.csv")
    series = [f"omega_node_{i}" for i in range(adj.n)] + ["coherence", "mean_correlation"]
    write_table(args.outdir / "figure-sweep-epsilon.csv", _FIGURE,
                np.repeat(result.eps_grid, len(series)),
                np.column_stack([result.omegas, result.coherence, result.mean_correlation]).ravel(),
                np.tile(series, result.eps_grid.size))
    return {"transition_epsilon": result.transition_epsilon()}


def cmd_sync_centrality(cfg: dict, args) -> dict:
    """Score each node's pull on the common frequency by Monte Carlo."""
    net, _ = _network(cfg["network"])
    dynamics, sim_cfg = cfg["dynamics"], _simulation_config(cfg["run"])
    result = phase.sync_centrality(
        net, **cfg["centrality"], seed=sim_cfg.seed, q=dynamics["betas"],
        alpha2=dynamics["alpha2"], delta=dynamics["delta"],
        steps=sim_cfg.steps, burn_in=sim_cfg.burn_in, peak_kwargs=cfg["measure"])
    result.to_csv(args.outdir / "sync-centrality.csv")
    write_table(args.outdir / "figure-sync-centrality.csv", _FIGURE,
                np.arange(result.scores.size, dtype=float), result.scores, result.labels)
    return {"benchmark_frequency": result.benchmark_frequency,
            "mode": result.mode, "n_draws": result.n_draws}


def cmd_msf(cfg: dict, args) -> dict:
    """Compute the master stability function over effective couplings K."""
    dynamics, msf = cfg["dynamics"], cfg["msf"]
    orbit = master_stability.synchronized_orbit(
        _agent_params(dynamics, 1)[0], dynamics["betas"], steps=msf["window"] + msf["burn_in"])
    curve = master_stability.master_stability_function(orbit, **msf)
    curve.to_csv(args.outdir / "msf.csv")
    write_table(args.outdir / "figure-msf.csv", _FIGURE, np.tile(curve.k_grid, 2),
                np.concatenate([curve.mu1, curve.mu2]),
                np.repeat(["mu1", "mu2"], curve.k_grid.size))
    return {"orbit_period": orbit.period, "mu1_at_zero": float(curve.mu1[0])}


def cmd_shock_response(cfg: dict, args) -> dict:
    """Compare linearized and nonlinear propagation of a one-off shock."""
    net, _ = _network(cfg["network"])
    dynamics, options = cfg["dynamics"], cfg["shock_response"]
    params = _agent_params(dynamics, net.n)
    if len(set(params)) > 1:
        raise ConfigError("dynamics.alpha1 must be the same for every node: shock-response "
                          "starts all nodes on one synchronized orbit")
    if len(options["shock"]) == 1 and net.n > 1:
        options["shock"] = np.concatenate([options["shock"], np.zeros(net.n - 1)])
    response = master_stability.shock_response_compare(net, params[0], dynamics["betas"],
                                                       **options)
    response.to_csv(args.outdir / "shock-response.csv")
    steps = response.nonlinear_y.shape[0]
    series = [f"{path}_node_{i}" for path in ("nonlinear", "linear") for i in range(net.n)]
    write_table(args.outdir / "figure-shock-response.csv", _FIGURE,
                np.tile(np.arange(steps, dtype=float), len(series)),
                np.concatenate([response.nonlinear_y.T.ravel(), response.linear_y.T.ravel()]),
                np.repeat(np.array(series, dtype=object), steps))
    return {"rmse": response.rmse, "phase_shift": response.phase_shift}


def cmd_scenarios(cfg: dict, args) -> dict:
    """Compare grouped comovement across dynamics and shock scenarios."""
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
    net, _ = _network(cfg["network"])
    spec = empirics.ScenarioSpec(**cfg["scenarios"])
    rows = empirics.scenario_run(net, spec, q=cfg["dynamics"]["betas"], jobs=args.jobs)
    empirics.write_scenario_csv(rows, args.outdir / "scenario-results.csv")
    write_table(args.outdir / "figure-scenarios.csv", _FIGURE, [r.sigma_u for r in rows],
                [r.mean_corr for r in rows],
                [f"{r.dynamics}/{r.shock_type}/{r.group}" for r in rows])
    return {"cells": len(rows), "n_seeds": spec.n_seeds}


#: the [run] keys of the experiments that pass only a run window and seed on
_RUN_WINDOW = ("run.steps", "run.burn_in", "run.retain", "run.seed")

#: Experiment name: (function, config read as whole sections or section.key).
_COMMANDS = {
    "simulate": (cmd_simulate, ("network", "dynamics", "shocks", "run", "measure")),
    "sweep-epsilon": (cmd_sweep_epsilon,
                      ("network", "dynamics", "shocks", *_RUN_WINDOW, "measure", "sweep")),
    "sync-centrality": (cmd_sync_centrality,
                        ("network", "dynamics.alpha2", "dynamics.delta", "dynamics.betas",
                         *_RUN_WINDOW, "measure", "centrality")),
    "msf": (cmd_msf, ("dynamics", "msf")),
    "shock-response": (cmd_shock_response, ("network", "dynamics", "shock_response")),
    "scenarios": (cmd_scenarios, ("network", "dynamics.betas", "scenarios")),
}


def _key_listing(experiment: str) -> str:
    _, echo = _resolve(configparser.ConfigParser(), experiment)
    return "config keys read (section.key = default):\n" + "\n".join(
        f"  {section}.{key} = {echo[section][key]}\n      {kind}: {text}"
        for section, key, kind, _, text in _SCHEMA if key in echo.get(section, ()))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclesync",
        description="Experiments on synchronization of coupled business-cycle "
                    "oscillators: simulation, entrainment sweeps, centrality, "
                    "master stability, shock responses and scenario comparisons.")
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name, (func, reads) in _COMMANDS.items():
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
    sub.choices["scenarios"].add_argument(
        "--jobs", type=int, default=1, help="worker processes, one scenario cell each")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        overrides = list(args.set)
        if getattr(args, "seed", None) is not None:
            overrides.append(f"run.seed={args.seed}")
        cfg, resolved = _resolve(_read_config(args.preset, args.config, overrides),
                                 args.experiment)
        args.outdir = Path(args.outdir or os.environ.get(ENV_OUTDIR, "."))
        args.outdir.mkdir(parents=True, exist_ok=True)
        summary = _COMMANDS[args.experiment][0](cfg, args)
        echo = configparser.ConfigParser(interpolation=None)
        echo.read_dict(resolved)
        with open(args.outdir / "resolved-config.cfg", "w", encoding="utf-8") as fh:
            fh.write(f"# cyclesync {args.experiment}: every key read, defaults filled in\n")
            echo.write(fh)
        write_metadata(args.outdir / "metadata.json", {
            "experiment": args.experiment,
            "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(), **summary})
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
