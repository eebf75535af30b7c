#!/usr/bin/env python3
"""Exact work gate of the serving benchmark.

Runs servebench's traced workloads (servebench/run.py --trace 1) at the
seed committed in results/servebench_work.json and compares each run's
work values with that file.  The work values are the per-request counts
and hit ratios servebench marks with a star (scheduler runs, search
probes, short-circuits, levels swept, requests computed, result-cache,
bank and store hit ratios): they depend only on the request stream, so
they repeat to the last digit per seed on any machine.

    python3 scripts/check_servebench_work.py

Each run's standard output is echoed and kept in
.bench_build/servebench/work/<workload>.txt.  Exits 0 when every run
passed its own gate (every response byte-identical, replay cross-check
identical) and every committed value matches exactly; 1 otherwise,
printing the committed and the measured value of each difference.  A
change that alters the served work updates results/servebench_work.json
and says why.
"""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COMMITTED = os.path.join(ROOT, "results", "servebench_work.json")
OUT_DIR = os.path.join(ROOT, ".bench_build", "servebench", "work")


def traced_run(workload, seed):
    """Runs one traced workload; returns its exit code and result line (or None)."""
    cmd = [sys.executable, os.path.join(ROOT, "servebench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "5", "--trace", "1"]
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(p.stdout)
    sys.stdout.flush()
    with open(os.path.join(OUT_DIR, f"{workload}.txt"), "w") as f:
        f.write(p.stdout)
    lines = p.stdout.strip().splitlines()
    try:
        return p.returncode, json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return p.returncode, None


def main():
    with open(COMMITTED) as f:
        committed = json.load(f)
    os.makedirs(OUT_DIR, exist_ok=True)
    failures = []
    for workload, want in committed["workloads"].items():
        code, result = traced_run(workload, committed["seed"])
        if code != 0 or result is None:
            failures.append(f"{workload}: servebench exited {code} (a mismatched response, "
                            "a failed replay cross-check or a broken run)")
            continue
        for name, value in want.items():
            got = result["metrics"].get(name, {}).get("value")
            if got != value:
                failures.append(f"{workload}: {name} committed {value!r}, measured {got!r}")
    for failure in failures:
        print("FAIL " + failure)
    print("servebench work:", f"{len(failures)} difference(s)" if failures else
          "identical to results/servebench_work.json")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
