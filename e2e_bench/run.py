#!/usr/bin/env python3
"""Builds the FEVES end-to-end benchmark from source and runs one workload.

    python3 e2e_bench/run.py --workload hd_1080p --seed 1 --seconds 25 --trace 0
    python3 e2e_bench/run.py --selftest

Run from the repository root. The first run configures and builds a
Release tree under .bench_build/ (a few minutes); later runs only check it
is up to date. Build output goes to stderr; the benchmark's report goes to
stdout, ending with one JSON result line. --selftest runs the benchmark's
own aggregation tests and checks its metric table against BENCHMARK.json.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "feves_e2e")
RUN_TIMEOUT_S = 170


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("e2e_bench: FEVES sources (src/) not found next to e2e_bench/")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            sys.exit("e2e_bench: configure failed")
    jobs = str(os.cpu_count() or 1)
    cmd = ["cmake", "--build", BUILD, "--target", target, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        sys.exit("e2e_bench: build failed")
    return os.path.join(BUILD, target)


def run(cmd):
    """Runs the benchmark binary with stdout passed through; returns its
    exit status (killing it, and failing, past the time limit)."""
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit("e2e_bench: run exceeded %d s" % RUN_TIMEOUT_S)


def selftest():
    status = run([build("feves_e2e_selftest")])
    listed = subprocess.run([build("feves_e2e"), "--list-metrics"],
                            capture_output=True, text=True, check=True)
    table = [tuple(line.split()) for line in listed.stdout.splitlines()]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = [("end_to_end", m["name"], m["unit"]) for m in spec["end_to_end"]]
    declared += [("per_layer", m["name"], m["unit"]) for m in spec["per_layer"]]
    if table != declared:
        print("FAIL metric table differs from BENCHMARK.json:")
        print("  binary:   ", table)
        print("  declared: ", declared)
        status = status or 1
    else:
        print("PASS metric table matches BENCHMARK.json (%d metrics)" % len(table))
    return status


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if args.selftest:
        return selftest()
    if not args.workload:
        ap.error("--workload is required")
    binary = build("feves_e2e")
    sys.stdout.flush()
    return run([binary, "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", repr(args.seconds), "--trace", str(args.trace)])


if __name__ == "__main__":
    sys.exit(main())
