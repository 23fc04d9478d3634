"""In-process span tracing of cyclesync's public functions, from outside.

The tracer replaces a public function at every module attribute that is
bound to it (``cyclesync.phase.simulate``, ``cyclesync.empirics.simulate``,
...), so each caller resolves the wrapper and nothing in ``src/`` changes.
Spans are kept in memory and written out when the workload ends.  Each span
is ``[name, start, end, parent index, run id, counters]``.

This module imports neither numpy nor cyclesync: the benchmark parent uses
:func:`layer_metrics` on span lists read back from the workload processes.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import sys
import time

NAME, START, END, PARENT, RUN, COUNTS = range(6)


class Tracer:
    """Records nested spans; serial code only (one stack)."""

    def __init__(self, run_id: str, clock=time.perf_counter):
        self.run_id = run_id
        self.clock = clock
        self.spans = []
        self._stack = []

    def span(self, name: str, func, count=None):
        """Wrap ``func`` so each call records a span; ``count`` adds counters."""

        @functools.wraps(func)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            record = [name, self.clock(), None, parent, self.run_id, None]
            self._stack.append(len(self.spans))
            self.spans.append(record)
            try:
                result = func(*args, **kwargs)
            finally:
                record[END] = self.clock()
                self._stack.pop()
            if count is not None:
                record[COUNTS] = count(args, kwargs, result)
            return result

        return traced


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _simulate_counts(args, kwargs, result):
    # node-steps actually iterated: N x cfg.steps (the retained window is shorter)
    net, cfg = args[0], _arg(args, kwargs, 4, "cfg")
    steps = cfg.steps if cfg is not None else 600
    return {"node_steps": net.n * steps}


def _orbit_counts(args, kwargs, result):
    return {"orbit_steps": _arg(args, kwargs, 2, "steps", 100000)
            + _arg(args, kwargs, 3, "burn_in", 2000)}


def _lyapunov_counts(args, kwargs, result):
    orbit = args[0]
    burn_in = _arg(args, kwargs, 2, "burn_in", 1000)
    window = _arg(args, kwargs, 3, "window")
    return {"tangent_steps": burn_in + (orbit.steps - burn_in if window is None else window)}


def _pairs_counts(args, kwargs, result):
    n = result.shape[0]
    return {"pairs": n * (n - 1) // 2}


def _panel_counts(args, kwargs, result):
    return {"rows": len(result.records)}


def _network_counts(args, kwargs, result):
    return {"n": result.n}


def _written_counts(args, kwargs, result):
    path = _arg(args, kwargs, 1, "path")
    return {"bytes": os.path.getsize(path)}


#: span name -> (functions as "module:attribute[.method]", counter)
TARGETS = {
    "cli.main": (["cyclesync.cli:main"], None),
    "simulation.simulate": (["cyclesync.simulation:simulate"], _simulate_counts),
    "simulation.aggregate": (["cyclesync.simulation:aggregate_series"], None),
    "phase.peaks": (["cyclesync.phase:detect_peaks", "cyclesync.phase:measured_frequency",
                     "cyclesync.phase:phase_series"], None),
    "phase.coherence": (["cyclesync.phase:phase_coherence",
                         "cyclesync.phase:mean_pairwise_correlation"], None),
    "phase.montecarlo": (["cyclesync.phase:epsilon_sweep",
                          "cyclesync.phase:sync_centrality"], None),
    "master_stability.orbit": (["cyclesync.master_stability:synchronized_orbit"],
                               _orbit_counts),
    "master_stability.msf": (["cyclesync.master_stability:master_stability_function"], None),
    "master_stability.mode_lyapunov": (["cyclesync.master_stability:mode_lyapunov"],
                                       _lyapunov_counts),
    "master_stability.propagate_deviations": (
        ["cyclesync.master_stability:propagate_deviations"], None),
    "master_stability.shock_response": (
        ["cyclesync.master_stability:shock_response_compare"], None),
    "empirics.scenario_run": (["cyclesync.empirics:scenario_run"], None),
    "empirics.correlation_matrix": (["cyclesync.empirics:correlation_matrix"], _pairs_counts),
    "empirics.cf_bandpass": (["cyclesync.empirics:cf_bandpass"], None),
    "empirics.grouped": (["cyclesync.empirics:grouped_correlations"], None),
    "empirics.load_panel_csv": (["cyclesync.empirics:load_panel_csv"], _panel_counts),
    "empirics.panel_series": (["cyclesync.empirics:PanelSeries.series",
                               "cyclesync.empirics:PanelSeries.keys"], None),
    "networks.ingest": (["cyclesync.networks:FlowTable.from_csv"], None),
    "networks.build_io": (["cyclesync.networks:build_io_network"], _network_counts),
    "networks.topology": (["cyclesync.networks:build_topology",
                           "cyclesync.networks:uniform_coupling"], None),
    "networks.spectral": (["cyclesync.networks:generalized_laplacian",
                           "cyclesync.networks:fiedler_vector",
                           "cyclesync.networks:eigenvector_centrality"], None),
    "output.write": (["cyclesync.simulation:TrajectorySet.to_csv",
                      "cyclesync.phase:EntrainmentResult.to_csv",
                      "cyclesync.phase:SyncCentralityResult.to_csv",
                      "cyclesync.master_stability:MasterStabilityCurve.to_csv",
                      "cyclesync.master_stability:ShockResponse.to_csv",
                      "cyclesync.networks:FlowTable.to_csv",
                      "cyclesync.empirics:write_scenario_csv"], _written_counts),
}


def install(tracer: Tracer) -> list:
    """Patch every traced function where callers resolve it; return the sites."""
    sites = []
    for name, (targets, count) in TARGETS.items():
        for target in targets:
            module_name, attr = target.split(":")
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[method]
                if isinstance(raw, classmethod):
                    setattr(cls, method, classmethod(tracer.span(name, raw.__func__, count)))
                else:
                    setattr(cls, method, tracer.span(name, raw, count))
                sites.append(f"{module_name}.{attr}")
                continue
            original = getattr(module, attr)
            wrapper = tracer.span(name, original, count)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] != "cyclesync":
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        sites.append(f"{mod_name}.{key}")
    return sites


# --------------------------------------------------------------------------
# aggregation (parent side)


def self_times(spans: list) -> list:
    """Each span's duration minus the durations of its direct children."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def by_name(spans: list) -> dict:
    """Per span name: outermost calls, self time, outermost duration, counters.

    A call nested inside a span of the same name (``measured_frequency``
    calling ``detect_peaks``) is not counted again, but its self time is.
    """
    selfs = self_times(spans)
    agg = {}
    for i, s in enumerate(spans):
        entry = agg.setdefault(s[NAME], {"calls": 0, "self_s": 0.0, "total_s": 0.0,
                                         "counts": {}})
        entry["self_s"] += selfs[i]
        if s[PARENT] < 0 or spans[s[PARENT]][NAME] != s[NAME]:
            entry["calls"] += 1
            entry["total_s"] += s[END] - s[START]
        for key, value in (s[COUNTS] or {}).items():
            entry["counts"][key] = entry["counts"].get(key, 0) + value
    return agg


def _rate(count, seconds):
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(spans: list, cache: dict) -> dict:
    """Per-layer metrics of one traced iteration (see ``BENCHMARK.json``).

    ``spans[0]`` is the workload root span; shares are of its duration.
    ``cache`` holds the hits and misses of ``cf_weight_matrix`` in the iteration.
    """
    agg = by_name(spans)
    empty = {"calls": 0, "self_s": 0.0, "total_s": 0.0, "counts": {}}

    def get(name):
        return agg.get(name, empty)

    def counted(name, key):
        return get(name)["counts"].get(key, 0)

    total = spans[0][END] - spans[0][START]
    layers = {}
    for name, entry in agg.items():
        layer = "harness" if name == spans[0][NAME] else name.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + entry["self_s"]

    sim, peaks = get("simulation.simulate"), get("phase.peaks")
    lyap, corr = get("master_stability.mode_lyapunov"), get("empirics.correlation_matrix")
    panel, write = get("empirics.load_panel_csv"), get("output.write")
    lookups = cache["hits"] + cache["misses"]
    m = {
        "simulation.simulate.calls": sim["calls"],
        "simulation.simulate.self_s": sim["self_s"],
        "simulation.node_steps": counted("simulation.simulate", "node_steps"),
        "simulation.node_steps_per_s": _rate(counted("simulation.simulate", "node_steps"),
                                             sim["self_s"]),
        "phase.peaks.calls": peaks["calls"],
        "phase.peaks.self_s": peaks["self_s"],
        "phase.series_per_s": _rate(peaks["calls"], peaks["self_s"]),
        "phase.coherence.self_s": get("phase.coherence")["self_s"],
        "master_stability.orbit.self_s": get("master_stability.orbit")["self_s"],
        "master_stability.orbit_steps": counted("master_stability.orbit", "orbit_steps"),
        "master_stability.mode_lyapunov.calls": lyap["calls"],
        "master_stability.mode_lyapunov.self_s": lyap["self_s"],
        "master_stability.tangent_steps_per_s": _rate(
            counted("master_stability.mode_lyapunov", "tangent_steps"), lyap["self_s"]),
        "master_stability.propagate_deviations.self_s":
            get("master_stability.propagate_deviations")["self_s"],
        "master_stability.shock_response.self_s":
            get("master_stability.shock_response")["self_s"],
        "empirics.correlation_matrix.calls": corr["calls"],
        "empirics.correlation_matrix.self_s": corr["self_s"],
        "empirics.pairs": counted("empirics.correlation_matrix", "pairs"),
        "empirics.pairs_per_s": _rate(counted("empirics.correlation_matrix", "pairs"),
                                      corr["self_s"]),
        "empirics.cf_bandpass.calls": get("empirics.cf_bandpass")["calls"],
        "empirics.cf_bandpass.self_s": get("empirics.cf_bandpass")["self_s"],
        "empirics.cf_weight.hit_ratio": cache["hits"] / lookups if lookups else 0.0,
        "empirics.scenario_run.self_s": get("empirics.scenario_run")["self_s"],
        "empirics.load_panel_csv.self_s": panel["self_s"],
        # rows per second of the whole loader, its own series()/keys() calls included
        "empirics.panel_rows_per_s": _rate(counted("empirics.load_panel_csv", "rows"),
                                           panel["total_s"]),
        "empirics.panel_series.self_s": get("empirics.panel_series")["self_s"],
        "networks.build_io.self_s": get("networks.build_io")["self_s"],
        "networks.spectral.self_s": get("networks.spectral")["self_s"],
        "networks.n": counted("networks.build_io", "n"),
        "cli.main.self_s": get("cli.main")["self_s"],
        "output.write.self_s": write["self_s"],
        "output.bytes": counted("output.write", "bytes"),
        "output.bytes_per_s": _rate(counted("output.write", "bytes"), write["self_s"]),
        "master_stability.mode_lyapunov.share": lyap["self_s"] / total,
        "empirics.correlation_matrix.share": corr["self_s"] / total,
    }
    for layer in LAYERS:
        m[f"{layer}.share"] = layers.get(layer, 0.0) / total
    return m


#: layers whose share of the traced workload time is reported; "harness" is
#: the benchmark's own code and untraced program code around the spans
LAYERS = ("cli", "simulation", "phase", "master_stability", "empirics", "networks",
          "output", "harness")


#: unit of every per-layer metric, in the order they are reported
UNITS = {
    "simulation.simulate.calls": "count", "simulation.simulate.self_s": "s",
    "simulation.node_steps": "count", "simulation.node_steps_per_s": "1/s",
    "phase.peaks.calls": "count", "phase.peaks.self_s": "s",
    "phase.series_per_s": "1/s", "phase.coherence.self_s": "s",
    "master_stability.orbit.self_s": "s", "master_stability.orbit_steps": "count",
    "master_stability.mode_lyapunov.calls": "count",
    "master_stability.mode_lyapunov.self_s": "s",
    "master_stability.tangent_steps_per_s": "1/s",
    "master_stability.propagate_deviations.self_s": "s",
    "master_stability.shock_response.self_s": "s",
    "empirics.correlation_matrix.calls": "count", "empirics.correlation_matrix.self_s": "s",
    "empirics.pairs": "count", "empirics.pairs_per_s": "1/s",
    "empirics.cf_bandpass.calls": "count", "empirics.cf_bandpass.self_s": "s",
    "empirics.cf_weight.hit_ratio": "ratio", "empirics.scenario_run.self_s": "s",
    "empirics.load_panel_csv.self_s": "s", "empirics.panel_rows_per_s": "1/s",
    "empirics.panel_series.self_s": "s",
    "networks.build_io.self_s": "s", "networks.spectral.self_s": "s", "networks.n": "count",
    "cli.main.self_s": "s",
    "output.write.self_s": "s", "output.bytes": "B", "output.bytes_per_s": "B/s",
    "master_stability.mode_lyapunov.share": "ratio",
    "empirics.correlation_matrix.share": "ratio",
    **{f"{layer}.share": "ratio" for layer in LAYERS},
    "trace.overhead_frac": "ratio",
}


def median_metrics(samples: list) -> dict:
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}
