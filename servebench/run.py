#!/usr/bin/env python3
"""Serving benchmark entry point.

Builds `lamps` and the servebench driver from this source tree (Release,
into .bench_build/servebench; a no-op once built), then runs one workload
against a freshly spawned `lamps serve` daemon:

    python3 servebench/run.py --workload cold|bank|hot --seed N --seconds S --trace 0|1

The last line of standard output is the JSON result.  See servebench/README.md.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "servebench")


def build():
    """Configures once, then brings the daemon and the driver up to date."""
    steps = []
    if not any(os.path.exists(os.path.join(BUILD, f)) for f in ("build.ninja", "Makefile")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"] + generator)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "--target", "lamps", "servebench", "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("servebench: build failed: " + " ".join(cmd), file=sys.stderr)
            sys.exit(2)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["cold", "bank", "hot"])
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=["0", "1"])
    a = p.parse_args()
    build()
    driver = os.path.join(BUILD, "servebench")
    argv = [driver, "--lamps", os.path.join(BUILD, "lamps", "tools", "lamps"),
            "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
            "--trace", a.trace]
    if a.trace == "1":
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        argv += ["--trace-out", os.path.join(traces, f"{a.workload}-{a.seed}.json")]
    sys.stdout.flush()
    os.execv(driver, argv)


if __name__ == "__main__":
    main()
