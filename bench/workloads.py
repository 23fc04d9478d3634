"""The four benchmark workloads: seeded inputs, work units and output checks.

Each workload turns a seed into a *plan*: the commands one workload process
runs (CLI argument lists, or the ``wide-io`` API script with generated
files), the number of work units one iteration does, and what the outputs
must look like.  The same seed gives the same plan and byte-identical input
files.  Standard library only: the benchmark parent never imports numpy or
cyclesync, so its own start-up stays out of the measurements.

Why each workload exists is written down in ``NOTES.md`` next to this file.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import math
import os
import random
from pathlib import Path

#: seed of each run's first iteration, whose outputs are compared with the
#: committed reference summaries in ``reference/``
REFERENCE_SEED = 0

#: numeric agreement with the reference summaries (|a - b| <= ABS + REL |b|);
#: wide enough for reordered floating-point sums, far below any real change
REL_TOL = 1e-6
ABS_TOL = 1e-9


def _rng(workload: str, seed: int) -> random.Random:
    # string seeding hashes with SHA-512: stable across Python versions
    return random.Random(f"cyclesync-bench:{workload}:{seed}")


def _write_cfg(path: Path, sections: dict):
    with open(path, "w", encoding="utf-8") as fh:
        for section, items in sections.items():
            fh.write(f"[{section}]\n")
            for key, value in items.items():
                fh.write(f"{key} = {value}\n")
            fh.write("\n")


def _floats(values) -> str:
    return ",".join(repr(float(v)) for v in values)


# --------------------------------------------------------------------------
# plans


def plan_scenario_grid(seed: int, workdir: Path) -> dict:
    """Full 3 x 3 scenario grid on the demo IO network, band-pass detrended."""
    rng = _rng("scenario-grid", seed)
    sigmas = []
    while len(sigmas) < 3:
        value = round(rng.uniform(0.05, 0.35), 3)
        if value not in sigmas:
            sigmas.append(value)
    sigmas.sort()
    n_seeds = 4
    cfg = workdir / "scenario-grid.cfg"
    _write_cfg(cfg, {
        "network": {"kind": "demo_io"},
        "scenarios": {"dynamics": "cycle,node,focus",
                      "shock_types": "idiosyncratic,country,sector",
                      "sigma_u_grid": _floats(sigmas),
                      "n_seeds": n_seeds, "detrend": "true"},
    })
    out = workdir / "out"
    return {
        "workload": "scenario-grid", "seed": seed, "outdir": str(out),
        "commands": [{"cli": ["scenarios", "--config", str(cfg), "--outdir", str(out)]}],
        "units": 3 * 3 * len(sigmas) * n_seeds, "unit": "scenario cells",
        "expect": {"sigmas": sigmas, "n_seeds": n_seeds},
    }


CENTRALITY_N = 6
CENTRALITY_DRAWS = 10
SWEEP_POINTS = 11


def plan_sync_montecarlo(seed: int, workdir: Path) -> dict:
    """Entrainment sweep, then synchronization centrality on a star."""
    run_seed = _rng("sync-montecarlo", seed).randrange(1_000_000)
    out = workdir / "out"
    sweep = ["sweep-epsilon", "--preset", "entrainment-complete",
             "--seed", str(run_seed), "--outdir", str(out / "sweep")]
    # eps = 0.5 entrains every draw; the default 0.2 does not (NOTES.md)
    centrality = ["sync-centrality", "--set", "network.kind=star",
                  "--set", f"network.n={CENTRALITY_N}", "--set", "network.eps=0.5",
                  "--set", f"centrality.n_draws={CENTRALITY_DRAWS}",
                  "--seed", str(run_seed), "--outdir", str(out / "centrality")]
    sims = SWEEP_POINTS + (CENTRALITY_N + 1) * CENTRALITY_DRAWS
    return {
        "workload": "sync-montecarlo", "seed": seed, "outdir": str(out),
        "commands": [{"cli": sweep}, {"cli": centrality}],
        "units": sims, "unit": "simulations",
        "expect": {},
    }


MSF_K_VALUES = 8
SHOCK_NODES = 18        # nodes of the bundled demo IO network
SHOCK_HORIZON = 40      # periods


def plan_msf_shock(seed: int, workdir: Path) -> dict:
    """Master stability function on a seeded K grid, then a long shock response."""
    rng = _rng("msf-shock", seed)
    k_grid = sorted({round(rng.uniform(0.0, 2.0), 4) for _ in range(4 * MSF_K_VALUES)})
    k_grid = sorted(rng.sample(k_grid, MSF_K_VALUES))
    shock = [round(rng.uniform(-0.05, 0.05), 4) for _ in range(SHOCK_NODES)]
    out = workdir / "out"
    msf = ["msf", "--preset", "msf-default", "--set", f"msf.k_grid={_floats(k_grid)}",
           "--outdir", str(out / "msf")]
    response = ["shock-response", "--set", "network.kind=demo_io",
                "--set", f"shock_response.shock={_floats(shock)}",
                "--set", f"shock_response.horizon_periods={SHOCK_HORIZON}",
                "--outdir", str(out / "shock")]
    return {
        "workload": "msf-shock", "seed": seed, "outdir": str(out),
        "commands": [{"cli": msf}, {"cli": response}],
        "units": len(k_grid), "unit": "K values",
        "expect": {"k_grid": k_grid, "shock": shock},
    }


WIDE_COUNTRIES = 20
WIDE_SECTORS = 12
WIDE_YEARS = (1861, 2020)
#: final demand takes this share of every sector's output; with symmetric
#: intermediate flows the chain is then reversible, so I - W has a real
#: spectrum and a stationary distribution known in closed form
FINAL_SHARE = 0.3


def _codes(prefix, n):
    return [f"{prefix}{i:02d}" for i in range(n)]


def wide_io_flows(seed: int) -> dict:
    """Symmetric intermediate flows, keyed (source sector, source country,
    destination sector, destination country)."""
    rng = _rng("wide-io-flows", seed)
    countries = _codes("C", WIDE_COUNTRIES)
    sectors = _codes("S", WIDE_SECTORS)
    flows = {}

    def add(a, b, value):
        flows[a + b] = flows.get(a + b, 0.0) + value
        if a != b:
            flows[b + a] = flows.get(b + a, 0.0) + value

    for country in countries:
        size = rng.uniform(0.5, 1.5)
        for i, s1 in enumerate(sectors):
            for j in range(i, len(sectors)):
                # the diagonal and a chain keep every country connected
                if j <= i + 1 or rng.random() < 0.5:
                    add((s1, country), (sectors[j], country),
                        round(size * 10 ** rng.uniform(0.0, 2.0), 6))
    links = {(k, (k + 1) % len(countries)) for k in range(len(countries))}
    for k in range(len(countries)):
        links |= {tuple(sorted((k, m))) for m in rng.sample(range(len(countries)), 2) if m != k}
    for k, m in sorted(links):
        for _ in range(3):
            add((rng.choice(sectors), countries[k]), (rng.choice(sectors), countries[m]),
                round(10 ** rng.uniform(0.5, 1.5), 6))
    return flows


def write_wide_io_inputs(seed: int, workdir: Path) -> tuple:
    """Write ``flows.csv`` and ``panel.csv``; return (flow truth, panel truth)."""
    flows = wide_io_flows(seed)
    intermediate = {}
    for (s, c, _, _), value in flows.items():
        intermediate[(s, c)] = intermediate.get((s, c), 0.0) + value
    final = {key: FINAL_SHARE / (1.0 - FINAL_SHARE) * total
             for key, total in intermediate.items()}
    with open(workdir / "flows.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write("source_sector,source_country,dest_sector,dest_country,value\n")
        # sources in country order, so node order follows the country codes
        for (s1, c1, s2, c2), value in sorted(flows.items(),
                                              key=lambda kv: (kv[0][1], kv[0][0], kv[0][3], kv[0][2])):
            fh.write(f"{s1},{c1},{s2},{c2},{value!r}\n")
        for (s, c), value in sorted(final.items(), key=lambda kv: (kv[0][1], kv[0][0])):
            fh.write(f"{s},{c},FinD,{c},{value!r}\n")

    rng = _rng("wide-io-panel", seed)
    first_year, last_year = WIDE_YEARS
    countries = _codes("C", WIDE_COUNTRIES)
    sectors = _codes("S", WIDE_SECTORS)
    panel = {}
    with open(workdir / "panel.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write("country,sector,variable,year,value\n")
        for country in countries:
            period = rng.uniform(6.0, 12.0)
            phase = rng.uniform(0.0, 2.0 * math.pi)
            for sector in sectors:
                start = rng.randint(first_year, 1981)
                end = rng.randint(2005, last_year)
                gaps = set(rng.sample(range(start + 1, end), rng.randint(0, 3)))
                level = math.log(100.0 * rng.uniform(0.5, 2.0))
                years, total = [], 0.0
                for year in range(start, end + 1):
                    level += 0.02 + 0.03 * math.sin(2 * math.pi * year / period + phase) \
                        + rng.gauss(0.0, 0.01)
                    if year in gaps:
                        continue
                    value = round(math.exp(level), 6)
                    fh.write(f"{country},{sector},VA,{year},{value!r}\n")
                    years.append(year)
                    total += value
                panel[f"{country}|{sector}|VA"] = {
                    "n_obs": len(years), "first_year": start, "last_year": end,
                    "n_gaps": len(gaps), "value_sum": total, "run": _longest_run(years)}
    return {"intermediate": intermediate, "final": final}, panel


def _longest_run(years: list) -> list:
    """First and last year of the first longest run of consecutive years."""
    best, first = [years[0], years[0]], years[0]
    for prev, year in zip(years, years[1:] + [None]):
        if year != prev + 1:
            if prev - first > best[1] - best[0]:
                best = [first, prev]
            first = year
    return best


def expected_correlations(panel: dict) -> dict:
    """Finite correlations per series under ``correlation_matrix(detrend=True)``.

    Only the longest observed run of each series is band-pass filtered, and
    only when it has at least 8 years; a pair needs 10 common years.
    """
    runs = {k: v["run"] for k, v in panel.items() if v["run"][1] - v["run"][0] >= 7}
    return {key: sum(1 for other, (lo, hi) in runs.items() if other != key
                     and min(hi, runs[key][1]) - max(lo, runs[key][0]) >= 9)
            if key in runs else 0
            for key in panel}


def plan_wide_io(seed: int, workdir: Path) -> dict:
    """Python-API script on a generated ~260-node IO table and ragged panel."""
    flow_truth, panel_truth = write_wide_io_inputs(seed, workdir)
    out = workdir / "out"
    step = {"api": "wide-io", "flows": str(workdir / "flows.csv"),
            "panel": str(workdir / "panel.csv"),
            "sim_seed": _rng("wide-io-sim", seed).randrange(1_000_000),
            "steps": 4000, "retain": 1600}
    return {
        "workload": "wide-io", "seed": seed, "outdir": str(out),
        "commands": [step], "units": len(panel_truth), "unit": "panel series",
        "expect": {"n": WIDE_COUNTRIES * (WIDE_SECTORS + 1), "panel": panel_truth,
                   "stationary": stationary_distribution(flow_truth),
                   "retain": step["retain"]},
    }


def stationary_distribution(flow_truth) -> dict:
    """Closed-form stationary weights of the reversible generated IO chain.

    Sector ``i`` has weight proportional to its output O_i, and the final-
    demand node of country ``c`` weight FINAL_SHARE * O_c.
    """
    outputs = {key: total + flow_truth["final"][key]
               for key, total in flow_truth["intermediate"].items()}
    weights = dict(outputs)
    for (s, c), value in outputs.items():
        weights[("FinD", c)] = weights.get(("FinD", c), 0.0) + FINAL_SHARE * value
    norm = sum(weights.values())
    return {f"{s}|{c}": w / norm for (s, c), w in weights.items()}


PLANS = {
    "scenario-grid": plan_scenario_grid,
    "sync-montecarlo": plan_sync_montecarlo,
    "msf-shock": plan_msf_shock,
    "wide-io": plan_wide_io,
}


def make_plan(workload: str, seed: int, workdir: Path) -> dict:
    workdir.mkdir(parents=True, exist_ok=True)
    return PLANS[workload](seed, workdir)


# --------------------------------------------------------------------------
# output checks


class Problems(list):
    def need(self, ok: bool, message: str):
        if not ok:
            self.append(message)
        return ok


def _number(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return math.nan


def read_csv(path: Path) -> tuple:
    """(header, rows); a file is parsed once while it is unchanged."""
    stat = os.stat(path)
    return _read_csv(str(path), stat.st_size, stat.st_mtime_ns)


@functools.lru_cache(maxsize=8)
def _read_csv(path: str, size: int, mtime_ns: int) -> tuple:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return (rows[0], rows[1:]) if rows else ([], [])


def forget_tables():
    """Drop the parsed tables of an iteration whose outputs are deleted."""
    _read_csv.cache_clear()


def _table(problems, path: Path, header: list, rows: int = None):
    """Read one CSV, checking it exists, its header and (optionally) its row count."""
    if not problems.need(path.is_file(), f"{path.name}: missing"):
        return []
    got_header, body = read_csv(path)
    problems.need(got_header == header, f"{path.name}: header {got_header} != {header}")
    if rows is not None:
        problems.need(len(body) == rows, f"{path.name}: {len(body)} rows, expected {rows}")
    if any(len(r) != len(header) for r in body):
        problems.append(f"{path.name}: ragged rows")
        return []
    return body


def _finite(problems, name, values):
    bad = [v for v in values if not math.isfinite(_number(v))]
    problems.need(not bad, f"{name}: {len(bad)} non-finite values, e.g. {bad[:3]}")


def _within(problems, name, values, lo, hi):
    nums = [_number(v) for v in values]
    bad = [v for v in nums if not lo - 1e-12 <= v <= hi + 1e-12]
    problems.need(not bad, f"{name}: {len(bad)} values outside [{lo}, {hi}], e.g. {bad[:3]}")


def check_scenario_grid(plan, out: Path, problems):
    sigmas, n_seeds = plan["expect"]["sigmas"], plan["expect"]["n_seeds"]
    keys = [(d, s, repr(float(su)), g)
            for d in ("cycle", "node", "focus")
            for s in ("idiosyncratic", "country", "sector")
            for su in sigmas
            for g in ("within_country_sectors", "across_country_aggregates")]
    body = _table(problems, out / "scenario-results.csv",
                  ["dynamics", "shock_type", "sigma_u", "group", "mean_corr",
                   "sd_corr", "n_seeds"], len(keys))
    if body:
        problems.need([tuple(r[:4]) for r in body] == keys,
                      "scenario-results.csv: scenario keys differ from the grid")
        _within(problems, "mean_corr", [r[4] for r in body], -1.0, 1.0)
        _within(problems, "sd_corr", [r[5] for r in body], 0.0, 2.0)
        problems.need(all(r[6] == str(n_seeds) for r in body), "n_seeds column wrong")
    figure = _table(problems, out / "figure-scenarios.csv", ["x", "y", "series"], len(keys))
    if body and figure:
        problems.need([r[1] for r in figure] == [r[4] for r in body],
                      "figure-scenarios.csv: y differs from mean_corr")


def check_sync_montecarlo(plan, out: Path, problems):
    body = _table(problems, out / "sweep" / "entrainment.csv",
                  ["eps", "coherence", "mean_correlation", "entrained", "spread"],
                  SWEEP_POINTS)
    if body:
        eps = [_number(r[0]) for r in body]
        problems.need(all(abs(e - 0.05 * k) < 1e-12 for k, e in enumerate(eps)),
                      "entrainment.csv: eps grid is not linspace(0, 0.5, 11)")
        _within(problems, "coherence", [r[1] for r in body], 0.0, 1.0)
        _within(problems, "mean_correlation", [r[2] for r in body], -1.0, 1.0)
        _within(problems, "spread", [r[4] for r in body], 0.0, math.inf)
        problems.need(all(r[3] == str(int(_number(r[4]) < 0.01)) for r in body),
                      "entrained flag disagrees with spread < 0.01")
        problems.need(body[0][3] == "0" and body[-1][3] == "1",
                      "uncoupled agents entrained, or eps = 0.5 did not entrain")
    scores = _table(problems, out / "centrality" / "sync-centrality.csv",
                    ["node", "score", "stderr"], CENTRALITY_N)
    if scores:
        values = [_number(r[1]) for r in scores]
        _within(problems, "score", [r[1] for r in scores], 0.0, 1.0)
        _within(problems, "stderr", [r[2] for r in scores], 0.0, math.inf)
        problems.need(abs(sum(values) - 1.0) < 1e-9, f"scores sum to {sum(values)}")
        problems.need(values[0] == max(values), "star hub is not the most central node")
    _table(problems, out / "sweep" / "figure-sweep-epsilon.csv", ["x", "y", "series"],
           SWEEP_POINTS * 12)
    _table(problems, out / "centrality" / "figure-sync-centrality.csv",
           ["x", "y", "series"], CENTRALITY_N)


def check_msf_shock(plan, out: Path, problems):
    k_grid, shock = plan["expect"]["k_grid"], plan["expect"]["shock"]
    body = _table(problems, out / "msf" / "msf.csv", ["K", "mu1", "mu2"], len(k_grid))
    if body:
        problems.need([_number(r[0]) for r in body] == k_grid, "msf.csv: K grid differs")
        _finite(problems, "mu1/mu2", [v for r in body for v in r[1:]])
        # the paper's master stability claims (acceptance criterion 5): a
        # neutral synchronized orbit at K = 0, stable modes for 0 < K <= 2
        problems.need(all(abs(_number(r[1])) <= 1e-3 if _number(r[0]) == 0.0
                          else _number(r[1]) < 0 and _number(r[2]) < 0 for r in body),
                      "msf.csv: mu1 is not ~0 at K = 0 or not negative for K > 0")
    _table(problems, out / "msf" / "figure-msf.csv", ["x", "y", "series"], 2 * len(k_grid))
    body = _table(problems, out / "shock" / "shock-response.csv",
                  ["basis", "node_or_mode", "step", "value"])
    if body:
        per_part = len(body) // (2 * SHOCK_NODES)
        problems.need(per_part > 1 and len(body) == 2 * SHOCK_NODES * per_part,
                      f"shock-response.csv: {len(body)} rows is not 2 x {SHOCK_NODES} x T")
        expected = [(basis, str(i), str(t)) for basis in ("node", "mode")
                    for i in range(SHOCK_NODES) for t in range(per_part)]
        problems.need([tuple(r[:3]) for r in body] == expected,
                      "shock-response.csv: (basis, node, step) keys out of order")
        _finite(problems, "shock-response value", [r[3] for r in body])
        injected = [_number(body[i * per_part][3]) for i in range(SHOCK_NODES)]
        problems.need(injected == shock, "shock-response.csv: step-0 deviation is not the shock")
        _table(problems, out / "shock" / "figure-shock-response.csv", ["x", "y", "series"],
               2 * SHOCK_NODES * (per_part - 1))


def check_wide_io(plan, out: Path, problems):
    expect = plan["expect"]
    n, retain = expect["n"], expect["retain"]
    traj = _table(problems, out / "trajectory.csv", ["node", "step", "x", "y"], n * retain)
    if traj:
        _finite(problems, "trajectory", [v for r in traj for v in r[2:]])
    net = _table(problems, out / "network.csv",
                 ["node", "eigenvalue", "fiedler", "centrality"], n)
    if net:
        lam = [_number(r[1]) for r in net]
        problems.need(lam == sorted(lam) and abs(lam[0]) < 1e-9 and lam[-1] <= 2.0 + 1e-9,
                      "network.csv: eigenvalues not ascending in [0, 2]")
        problems.need(lam[1] > 1e-9, "network.csv: generated network is disconnected")
        stationary = expect["stationary"]
        problems.need(sorted(r[0] for r in net) == sorted(stationary),
                      "network.csv: node labels differ from the flow table")
        worst = max((abs(_number(r[3]) - stationary.get(r[0], math.inf))
                     / stationary.get(r[0], 1.0) for r in net), default=math.inf)
        problems.need(worst < 1e-6, f"centrality off the stationary distribution by {worst:.3g}")
    panel = _table(problems, out / "panel-summary.csv",
                   ["series", "n_obs", "first_year", "last_year", "n_gaps", "value_sum",
                    "mean_corr", "n_corr"], len(expect["panel"]))
    if panel:
        truth = expect["panel"]
        for r in panel:
            want = truth.get(r[0])
            if not problems.need(want is not None, f"panel-summary.csv: unknown series {r[0]}"):
                break
            same = [int(r[1]), int(r[2]), int(r[3]), int(r[4])] == \
                [want["n_obs"], want["first_year"], want["last_year"], want["n_gaps"]]
            close = math.isclose(_number(r[5]), want["value_sum"], rel_tol=1e-12)
            if not problems.need(same and close, f"panel-summary.csv: {r[0]} differs from input"):
                break
        expected = expected_correlations(truth)
        problems.need(all(int(r[7]) == expected.get(r[0]) for r in panel),
                      "panel-summary.csv: finite correlations per series differ from the "
                      "pairs with enough common years")
        problems.need(all((r[6] == "nan") == (r[7] == "0") for r in panel),
                      "panel-summary.csv: mean_corr is NaN exactly when n_corr is 0")
        _within(problems, "mean_corr", [r[6] for r in panel if r[7] != "0"], -1.0, 1.0)


CHECKS = {
    "scenario-grid": check_scenario_grid,
    "sync-montecarlo": check_sync_montecarlo,
    "msf-shock": check_msf_shock,
    "wide-io": check_wide_io,
}


def check_outputs(plan: dict) -> list:
    """Problems found in one iteration's outputs (empty when they are correct)."""
    problems = Problems()
    CHECKS[plan["workload"]](plan, Path(plan["outdir"]), problems)
    return list(problems)


# --------------------------------------------------------------------------
# checksums and reference summaries

SAMPLE_ROWS = 400


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def csv_files(outdir: Path) -> list:
    return sorted(p.relative_to(outdir).as_posix() for p in outdir.rglob("*.csv"))


def checksums(outdir: Path) -> dict:
    return {name: sha256(outdir / name) for name in csv_files(outdir)}


def summarize(outdir: Path) -> dict:
    """Checksum, header, row count, sampled rows and column sums of every CSV."""
    summary = {}
    for name in csv_files(outdir):
        header, body = read_csv(outdir / name)
        step = max(1, math.ceil(len(body) / SAMPLE_ROWS))
        picks = sorted(set(range(0, len(body), step)) | ({len(body) - 1} if body else set()))
        sums = {}
        for c, column in enumerate(header):
            # a column is numeric when its first cell is (labels never parse)
            if not body or math.isnan(_number(body[0][c])) and body[0][c].lower() != "nan":
                continue
            nums = [_number(r[c]) for r in body]
            finite = [v for v in nums if math.isfinite(v)]
            sums[column] = [math.fsum(finite), math.fsum(abs(v) for v in finite)]
        summary[name] = {"sha256": sha256(outdir / name), "header": header,
                         "rows": len(body), "sample_index": picks,
                         "sample": [body[i] for i in picks], "sums": sums}
    return summary


def _close(a: str, b: str) -> bool:
    if a == b:
        return True
    x, y = _number(a), _number(b)
    if math.isnan(x) or math.isnan(y):
        return False
    return abs(x - y) <= ABS_TOL + REL_TOL * abs(y)


def compare_to_reference(summary: dict, reference: dict) -> tuple:
    """(problems, checksum notes): numeric mismatches fail, new checksums only note."""
    problems, notes = [], []
    for name in sorted(set(summary) | set(reference)):
        got, want = summary.get(name), reference.get(name)
        if got is None or want is None:
            problems.append(f"{name}: {'missing' if got is None else 'not in the reference'}")
            continue
        if got["sha256"] == want["sha256"]:
            continue
        notes.append(f"{name}: checksum differs from the reference")
        if got["header"] != want["header"] or got["rows"] != want["rows"]:
            problems.append(f"{name}: header or row count differs from the reference")
            continue
        bad = sum(not _close(a, b)
                  for row_got, row_want in zip(got["sample"], want["sample"])
                  for a, b in zip(row_got, row_want))
        for column, (total, scale) in want["sums"].items():
            have = got["sums"].get(column, [math.nan])[0]
            bad += not abs(have - total) <= ABS_TOL + REL_TOL * scale
        if bad:
            problems.append(f"{name}: {bad} values differ from the reference "
                            f"beyond {REL_TOL:g} relative")
    return problems, notes