#!/usr/bin/env python3
"""Exact work-counter gate of the scheduler micro-benchmarks.

Compares a fresh google-benchmark run of bench/perf_scheduler (the JSON
that scripts/run_perf_bench.sh writes) with the committed
results/BENCH_scheduler.json.  Every key of each committed iteration row
is compared exactly, except google-benchmark's own fields (timings,
iteration counts, rates) and the timing fields run_perf_bench.sh adds;
google-benchmark's `label` is compared too.  What remains are the work
counters (schedule_cache.*, search.*): they depend only on the benchmark's
inputs, so they repeat to the last digit on any machine.

    scripts/run_perf_bench.sh build/BENCH_scheduler.json
    python3 scripts/check_bench_counters.py build/BENCH_scheduler.json

Exits 0 when every committed value is matched by every fresh iteration row
of the same name; 1 otherwise, printing the committed and the measured
value of each difference; 2 on unreadable input.  A change that alters
the work updates results/BENCH_scheduler.json and says why.
"""
import argparse
import json
import sys

COMMITTED = "results/BENCH_scheduler.json"

# google-benchmark's own per-row fields, and the timing comparison that
# run_perf_bench.sh merges in from the baseline file.
NOT_WORK = {
    "name", "family_index", "per_family_instance_index", "run_name", "run_type",
    "repetitions", "repetition_index", "threads", "iterations", "real_time", "cpu_time",
    "time_unit", "items_per_second", "bytes_per_second", "aggregate_name", "aggregate_unit",
    "error_occurred", "error_message", "baseline_real_time", "speedup_vs_baseline",
}


def iteration_rows(path):
    try:
        with open(path) as f:
            data = json.load(f)
    except (OSError, ValueError) as e:
        print(f"check_bench_counters: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    rows = {}
    for row in data.get("benchmarks", []):
        if row.get("run_type", "iteration") == "iteration":
            rows.setdefault(row["name"], []).append(row)
    return rows


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("fresh", help="google-benchmark JSON of a fresh perf_scheduler run")
    args = ap.parse_args()

    fresh = iteration_rows(args.fresh)
    committed = iteration_rows(COMMITTED)
    failures = []
    cells = 0
    for name, (want, *_) in committed.items():
        keys = [k for k in want if k not in NOT_WORK]
        got_rows = fresh.get(name)
        if not got_rows:
            failures.append(f"{name}: missing from the fresh run")
            continue
        for got in got_rows:
            for key in keys:
                cells += 1
                if got.get(key) != want[key]:
                    failures.append(f"{name}: {key} committed {want[key]!r}, "
                                    f"measured {got.get(key)!r}")
    for failure in failures:
        print("FAIL " + failure)
    print(f"bench counters: {cells} cells compared,",
          f"{len(failures)} difference(s)" if failures else
          f"identical to {COMMITTED}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
