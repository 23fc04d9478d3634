#!/usr/bin/env python3
"""Write ``reference/<workload>.json`` from the current sources.

    python3 bench/make_reference.py [WORKLOAD ...]

Runs each workload once on the reference seed, checks its outputs and
stores the summary (checksum, header, row count, sampled rows and column
sums of every CSV) that later runs are compared against.  Run it only on a
commit whose outputs are known to be right.
"""

import json
import shutil
import sys

import run
import workloads


def main(names) -> int:
    env = run.child_env()
    run.REFERENCE.mkdir(exist_ok=True)
    for name in names or sorted(workloads.PLANS):
        workdir = run.WORK / f"reference-{name}"
        try:
            plan = workloads.make_plan(name, workloads.REFERENCE_SEED, workdir)
            it = run.evaluate(plan, run.launch(plan, False, "reference", env))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if it["problems"]:
            print(f"{name}: not written: {it['problems']}", file=sys.stderr)
            return 1
        path = run.REFERENCE / f"{name}.json"
        path.write_text(json.dumps(it["summary"], indent=None, separators=(",", ":")) + "\n",
                        encoding="utf-8")
        print(f"{name}: {path.stat().st_size} bytes, {len(it['summary'])} CSV files")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
