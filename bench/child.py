"""One workload process: import cyclesync, run a plan's commands, report times.

Usage: ``python3 child.py PLAN_JSON LAUNCH_TIME RESULT_JSON TRACE``

``LAUNCH_TIME`` is the parent's ``time.monotonic()`` just before it started
this process (CLOCK_MONOTONIC is shared by all processes), so set-up and
wall time include interpreter start-up.  Set-up ends when ``cyclesync`` and
its CLI module are imported, as for every CLI invocation.  With TRACE = 1
the public functions are wrapped by :mod:`tracer` after set-up and the spans
are written to the result with the rest.
"""

import json
import sys
import time
import traceback
from pathlib import Path


def run_cli(argv: list):
    import cyclesync.cli

    try:
        code = cyclesync.cli.main(argv)
    except SystemExit as exc:      # argparse rejects the arguments
        code = exc.code
    if code != 0:
        raise RuntimeError(f"cyclesync {argv[0]} exited with code {code}")


def run_wide_io(step: dict, outdir: Path):
    """Ingest, spectra, one large simulation, panel loading and correlations."""
    import numpy as np

    from cyclesync import dynamics, empirics, networks, simulation
    from cyclesync._format import fmt

    net = networks.build_io_network(networks.FlowTable.from_csv(step["flows"]))
    spec = networks.generalized_laplacian(net)
    fiedler = networks.fiedler_vector(spec, outputs=net.outputs)
    centrality = networks.eigenvector_centrality(net)
    with open(outdir / "network.csv", "w", encoding="utf-8") as fh:
        fh.write("node,eigenvalue,fiedler,centrality\n")
        for i, label in enumerate(net.labels):
            fh.write(f"{label},{fmt(spec.eigenvalues[i])},{fmt(fiedler[i])},"
                     f"{fmt(centrality[i])}\n")

    q = dynamics.DEFAULT_QUARTIC
    params = dynamics.AgentParams.with_steady_state(-0.04, 0.4, 0.1, q)
    shocks = simulation.ShockConfig(rho_u=0.0, sigma_u=0.05, rho_v=0.3, sigma_v=0.05,
                                    rho_z=0.3, sigma_z=0.05)
    cfg = simulation.SimulationConfig(steps=step["steps"], retain=step["retain"],
                                      seed=step["sim_seed"])
    simulation.simulate(net, params, q, shocks, cfg).to_csv(outdir / "trajectory.csv")

    panel = empirics.load_panel_csv(step["panel"])
    keys = panel.keys()
    series = [panel.series(*key) for key in keys]
    first = min(int(years[0]) for years, _ in series)
    last = max(int(years[-1]) for years, _ in series)
    matrix = np.full((last - first + 1, len(keys)), np.nan)
    for j, (years, values) in enumerate(series):
        matrix[years - first, j] = values
    corr = empirics.correlation_matrix(matrix, detrend=True)
    np.fill_diagonal(corr, np.nan)
    finite = np.isfinite(corr)
    with open(outdir / "panel-summary.csv", "w", encoding="utf-8") as fh:
        fh.write("series,n_obs,first_year,last_year,n_gaps,value_sum,mean_corr,n_corr\n")
        for j, key in enumerate(keys):
            years, values = series[j]
            n_corr = int(finite[:, j].sum())
            mean = float(np.nanmean(corr[:, j])) if n_corr else float("nan")
            fh.write(f"{'|'.join(key)},{years.size},{years[0]},{years[-1]},"
                     f"{len(panel.gaps.get(key, []))},{fmt(values.sum())},"
                     f"{fmt(mean)},{n_corr}\n")


def environment() -> dict:
    import os
    import platform

    import numpy
    import scipy

    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main() -> int:
    plan_path, launch, result_path, trace = sys.argv[1:5]
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))

    import cyclesync.cli  # noqa: F401  (set-up: what every CLI invocation imports)
    from cyclesync import empirics

    setup_done = time.monotonic()
    result = {"launch": float(launch), "setup_done": setup_done, "error": None}
    cache_start = empirics.cf_weight_matrix.cache_info()
    tracer = None
    if trace == "1":
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        import tracer as tracing

        tracer = tracing.Tracer(run_id=f"{plan['workload']}-{plan['seed']}")
        result["traced_sites"] = tracing.install(tracer)
        run = tracer.span("workload", _run_plan)
    else:
        run = _run_plan
    try:
        run(plan)
    except Exception:          # noqa: BLE001  reported to the parent as a failed operation
        result["error"] = traceback.format_exc(limit=8)
    result["outputs_done"] = time.monotonic()
    cache_end = empirics.cf_weight_matrix.cache_info()
    result["cache"] = {"start": [cache_start.hits, cache_start.misses],
                       "hits": cache_end.hits - cache_start.hits,
                       "misses": cache_end.misses - cache_start.misses}
    if tracer is not None:
        result["spans"] = tracer.spans
    result["environment"] = environment()
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 1 if result["error"] else 0


def _run_plan(plan: dict):
    outdir = Path(plan["outdir"])
    outdir.mkdir(parents=True, exist_ok=True)
    for command in plan["commands"]:
        if "cli" in command:
            run_cli(command["cli"])
        else:
            run_wide_io(command, outdir)


if __name__ == "__main__":
    sys.exit(main())
