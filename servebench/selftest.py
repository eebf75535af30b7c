#!/usr/bin/env python3
"""Smoke-size self-test of the serving benchmark.

Runs every workload briefly (bank too, though BENCHMARK.json does not bound
it), untraced and traced, through servebench/run.py
and asserts that each run passed its correctness gate, that every metric
BENCHMARK.json names is printed with its unit, and each workload's
invariants:

    cold  result_cache.hit_ratio == 0, thread_pool.busy_share >= 0.9
    bank  schedule_bank.lease_hit_ratio >= 0.99
    hot   result_cache.hit_ratio == 1, serve.computed_per_req == 0
          (no request computed in the timed phase)

    python3 servebench/selftest.py

Exits 0 when every check holds, 1 otherwise.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SECONDS = 2
SEED = 1

INVARIANTS = {
    "cold": [("result_cache.hit_ratio", "==", 0.0), ("thread_pool.busy_share", ">=", 0.9)],
    "bank": [("schedule_bank.lease_hit_ratio", ">=", 0.99)],
    "hot": [("result_cache.hit_ratio", "==", 1.0), ("serve.computed_per_req", "==", 0.0)],
}


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    return p.returncode, result, p.stderr


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    expected = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}

    failures = []
    for name in INVARIANTS:
        for trace in (0, 1):
            code, result, stderr = run(name, trace)
            tag = f"{name} trace={trace}"
            if code != 0 or result is None:
                failures.append(f"{tag}: exit {code}, result {result}\n{stderr[-1500:]}")
                continue
            problems = []
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"correct={result['correct']} attempted={result['attempted']} "
                                f"failed={result['failed']}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                problems.append(f"metrics/units differ from BENCHMARK.json: {got}")
            if trace == 1:
                for metric, op, bound in INVARIANTS[name]:
                    value = result["metrics"].get(metric, {}).get("value")
                    holds = value is not None and (value == bound if op == "==" else value >= bound)
                    if not holds:
                        problems.append(f"invariant {metric} {op} {bound} broken: {value}")
            status = "ok" if not problems else "FAIL"
            print(f"{tag}: {status} (attempted {result['attempted']})", flush=True)
            failures += [f"{tag}: {p}" for p in problems]
    for f in failures:
        print(f, file=sys.stderr)
    print("selftest:", "passed" if not failures else f"{len(failures)} failure(s)")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
