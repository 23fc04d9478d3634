#!/usr/bin/env python3
"""cyclesync benchmark: run a workload in fresh processes, check, report.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --all [--seed N] [--seconds S] [--trace 0|1]

Each iteration is one fresh Python process (``child.py``) with single-
threaded BLAS that imports cyclesync and runs the workload's commands.
After one untimed import that fills the file cache, iterations repeat for
``--seconds``: the first on the reference seed, whose outputs are compared
with the committed summaries in ``reference/``, the rest on ``--seed``'s
inputs.  Medians over the iterations are reported.  With ``--trace 1`` every
other ``--seed`` iteration is traced and the per-layer metrics are reported
instead.  Outputs of every iteration are checked; the last stdout line is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  A full record of the run goes to ``bench/_work/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
WORK = BENCH / "_work"
CHILD = BENCH / "child.py"
REFERENCE = BENCH / "reference"

END_TO_END = {"wall_s": "s", "setup_s": "s", "work_per_s": "1/s", "peak_rss_mb": "MB"}
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_ITERATIONS = 3
MAX_ITERATIONS = 40
ITERATION_TIMEOUT = 60.0


def child_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:          # one BLAS thread: at most nproc, and no oversubscription
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = "0"
    return env


def machine() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "cyclesync").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    return {"nproc": os.cpu_count(), "cpu": cpu, "git_commit": commit,
            "src_sha256": digest.hexdigest()}


def _wait(proc, timeout: float):
    """Reap ``proc`` with its own resource usage; kill it past ``timeout``."""
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            pid, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.005)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def launch(plan: dict, trace: bool, tag: str, env: dict) -> dict:
    """Run one workload process on ``plan``; its outputs stay for :func:`evaluate`."""
    workdir = Path(plan["outdir"]).parent
    plan_path = workdir / "plan.json"
    if not plan_path.exists():
        plan_path.write_text(json.dumps(plan), encoding="utf-8")
    result_path, err_path = workdir / f"{tag}.result.json", workdir / f"{tag}.stderr"
    result_path.unlink(missing_ok=True)
    shutil.rmtree(plan["outdir"], ignore_errors=True)
    with open(err_path, "wb") as err:
        started = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(CHILD), str(plan_path), repr(started), str(result_path),
             "1" if trace else "0"],
            env=env, cwd=str(workdir), stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=err)
        try:
            code, usage = _wait(proc, ITERATION_TIMEOUT)
        finally:
            if proc.returncode is None:     # interrupted: leave no process behind
                proc.kill()
                proc.wait()
    it = {"tag": tag, "trace": trace, "exit_code": code, "problems": [],
          "peak_rss_mb": usage.ru_maxrss / 1024.0}
    if result_path.exists():
        result = json.loads(result_path.read_text(encoding="utf-8"))
        it["wall_s"] = result["outputs_done"] - started
        it["setup_s"] = result["setup_done"] - started
        it["work_per_s"] = plan["units"] / (it["wall_s"] - it["setup_s"])
        it["cache"] = result["cache"]
        it["environment"] = result["environment"]
        if result["error"]:
            it["problems"].append(result["error"].strip().splitlines()[-1])
        if trace and not result["error"]:
            it["layers"] = tracer.layer_metrics(result["spans"], result["cache"])
    else:
        it["problems"].append("no result written")
    if code != 0:
        tail = err_path.read_text(encoding="utf-8", errors="replace").strip().splitlines()
        it["problems"].append(f"exit code {code}: {tail[-1] if tail else ''}")
    return it


def evaluate(plan: dict, it: dict, reference: dict = None, previous: dict = None) -> dict:
    """Check an iteration's outputs, then delete them.

    Any problem makes the iteration a failed operation: a process error, an
    output that fails the workload's checks, a numeric difference from the
    ``reference`` summary, or a CSV that is not byte-identical to the
    outputs of the ``previous`` iteration on the same inputs.  A checksum
    that differs from the reference while the numbers agree is only noted.
    """
    if not it["problems"]:
        outdir = Path(plan["outdir"])
        if previous is not None and workloads.checksums(outdir) == {
                f: s["sha256"] for f, s in previous["summary"].items()}:
            # the same bytes were checked already: the same verdict holds
            it["summary"] = previous["summary"]
            it["check_problems"] = list(previous["check_problems"])
        else:
            it["check_problems"] = workloads.check_outputs(plan)
            it["summary"] = workloads.summarize(outdir)
            if previous is not None:
                it["check_problems"].append("outputs not byte-identical on rerun")
        it["problems"] += it["check_problems"]
        if reference is not None:
            problems, it["checksum_notes"] = workloads.compare_to_reference(
                it["summary"], reference)
            it["problems"] += problems
    workloads.forget_tables()
    shutil.rmtree(plan["outdir"], ignore_errors=True)
    return it


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Iterate ``name`` for ``seconds``: the reference seed first, then ``seed``."""
    env = child_env()
    workdir = WORK / f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    # untimed: compiles the .pyc files of a fresh checkout and fills the file cache
    subprocess.run([sys.executable, "-c", "import cyclesync.cli"], env=env, check=False,
                   stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL)
    reference = json.loads((REFERENCE / f"{name}.json").read_text(encoding="utf-8"))
    minimum = 5 if trace else MIN_ITERATIONS     # traced and untraced alternate
    iterations, spent = [], []
    try:
        reference_plan = workloads.make_plan(name, workloads.REFERENCE_SEED,
                                             workdir / "reference")
        plan = workloads.make_plan(name, seed, workdir / "run")
        start = time.monotonic()
        while len(iterations) < minimum or (
                time.monotonic() - start + statistics.median(spent) <= seconds
                and len(iterations) < MAX_ITERATIONS):
            began = time.monotonic()
            if not iterations:
                it = evaluate(reference_plan, launch(reference_plan, False, "reference", env),
                              reference=reference)
            else:
                previous = next((t for t in iterations[1:] if "summary" in t), None)
                tag = f"seed{len(iterations)}"
                it = evaluate(plan, launch(plan, trace and len(iterations) % 2 == 1, tag, env),
                              previous=previous)
            iterations.append(it)
            spent.append(time.monotonic() - began)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(bool(it["problems"]) for it in iterations)
    good = [it for it in iterations if not it["problems"]]
    plain = [it for it in good if not it["trace"]]
    stats = {}
    for metric in END_TO_END:
        values = [it[metric] for it in plain]
        if values:
            q1, q3 = _quartiles(values)
            stats[metric] = {"value": statistics.median(values), "q1": q1, "q3": q3,
                             "n": len(values)}
    if trace:
        traced = [it["layers"] for it in good if it["trace"]]
        metrics = tracer.median_metrics(traced) if traced else {}
        if metrics and "wall_s" in stats:
            metrics["trace.overhead_frac"] = (
                statistics.median(it["wall_s"] for it in good if it["trace"])
                / stats["wall_s"]["value"] - 1.0)
        units = tracer.UNITS
    else:
        metrics = {k: v["value"] for k, v in stats.items()}
        units = END_TO_END
    complete = all(key in metrics for key in units)
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "unit_of_work": plan["unit"], "units_per_iteration": plan["units"],
        "machine": machine(), "environment": iterations[0].get("environment"),
        "checksum_notes": iterations[0].get("checksum_notes", []),
        "attempted": len(iterations), "failed": failed,
        "error_rate": failed / len(iterations), "stats": stats,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units if k in metrics},
        "correct": failed == 0 and complete,
        "iterations": [{k: v for k, v in it.items()
                        if k not in ("summary", "layers", "check_problems")}
                       | {"checksums": {f: s["sha256"] for f, s in it.get("summary", {}).items()}}
                       for it in iterations],
    }


def report(record: dict):
    """Human-readable lines; the JSON result line is printed by the caller."""
    env = record["environment"] or {}
    mach = record["machine"]
    print(f"# {record['workload']}  seed={record['seed']}  seconds={record['seconds']}  "
          f"trace={int(record['trace'])}  unit={record['unit_of_work']} "
          f"({record['units_per_iteration']} per iteration)")
    print(f"# nproc={mach['nproc']}  cpu={mach['cpu']}  python={env.get('python')}  "
          f"numpy={env.get('numpy')}  scipy={env.get('scipy')}  blas={env.get('blas')}  "
          f"threads={env.get('threads')}")
    print(f"# git_commit={mach['git_commit']}  src_sha256={mach['src_sha256'][:16]}")
    for note in record["checksum_notes"]:
        print(f"# checksum note: {note}")
    for it in record["iterations"]:
        for problem in it["problems"]:
            print(f"# FAILED {it['tag']}: {problem}")
    for name, stat in record["stats"].items():
        print(f"{name:<14} {stat['value']:12.6g} {END_TO_END[name]:<4} "
              f"(median of {stat['n']}, quartiles {stat['q1']:.6g} .. {stat['q3']:.6g})")
    print(f"{'error_rate':<14} {record['error_rate']:12.6g} {'1':<4} "
          f"({record['failed']} failed of {record['attempted']} operations)")
    if record["trace"]:
        for name, metric in record["metrics"].items():
            print(f"{name:<46} {metric['value']:14.6g} {metric['unit']}")


def _stop(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _stop)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.PLANS))
    parser.add_argument("--all", action="store_true", help="run all four workloads")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=27.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (args.all or args.workload):
        parser.error("give --workload NAME or --all")
    if not (SRC / "cyclesync" / "__init__.py").is_file():
        print(f"error: no cyclesync sources under {SRC}", file=sys.stderr)
        return 2

    names = sorted(workloads.PLANS) if args.all else [args.workload]
    records = {}
    for name in names:
        record = run_workload(name, args.seed, args.seconds, bool(args.trace))
        out = WORK / "results" / f"{name}-seed{args.seed}-trace{args.trace}.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(record, indent=1), encoding="utf-8")
        report(record)
        records[name] = {k: record[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(records[names[0]] if len(names) == 1 else records))
    return 0 if all(r["correct"] for r in records.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
