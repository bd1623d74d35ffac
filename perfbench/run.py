#!/usr/bin/env python3
"""Benchmark entry point: builds the harness from source, runs one workload,
and prints its result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. The first run configures and builds
perfbench/ (which compiles the library from src/) into .bench_build/; later
runs only re-check the build. Build output goes to stderr.

stdout ends with two lines: the run record (host fingerprint, tail percentile
and sample count, layers the workload does not exercise) and the result

    {"correct": .., "attempted": .., "failed": .., "metrics": {name: {"value", "unit"}}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list; with
--trace 1 (a separate traced run) its per_layer list. A per-layer metric the
workload does not exercise reads 0 and is named in the record. Exit status is
0 only for a correct run.
"""
import argparse
import ctypes
import json
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
HERE = os.path.relpath(os.path.dirname(os.path.abspath(__file__)), ROOT)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 160
# The held-out seed: never used while the benchmark was written; keep it for
# re-checking a later performance claim on unseen inputs.
HELD_OUT_SEED = 918273645


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def _die_with_parent():
    # The child gets SIGKILL if this process dies first.
    libc = ctypes.CDLL(None, use_errno=True)
    PR_SET_PDEATHSIG = 1
    libc.prctl(PR_SET_PDEATHSIG, signal.SIGKILL)


def run(cmd, timeout):
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=timeout,
                          preexec_fn=_die_with_parent, check=False).returncode


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("library sources (src/) not found; run from the repository root")
    if shutil.which("cmake") is None:
        die("cmake not found")
    configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    compile_ = ["cmake", "--build", BUILD, "--target", "perfbench", "-j", "4"]
    for attempt in range(2):
        fresh = not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt"))
        if (not fresh or run(configure, BUILD_TIMEOUT_S) == 0) and \
                run(compile_, BUILD_TIMEOUT_S) == 0:
            return
        if attempt == 0:
            shutil.rmtree(BUILD, ignore_errors=True)  # stale cache: rebuild once
    die("build failed")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    try:
        with open(SPEC) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        die("cannot read BENCHMARK.json: %s" % e)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        die("unknown workload %r" % args.workload)
    wanted = spec["per_layer"] if args.trace == "1" else spec["end_to_end"]

    build()
    try:
        proc = subprocess.run(
            [BINARY, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", repr(args.seconds), "--trace", args.trace],
            stdout=subprocess.PIPE, stderr=sys.stderr, timeout=RUN_TIMEOUT_S,
            preexec_fn=_die_with_parent, check=False, text=True)
    except subprocess.TimeoutExpired:
        die("workload timed out after %d s" % RUN_TIMEOUT_S, 1)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        die("harness exited with status %d" % proc.returncode, 1)
    raw = json.loads(lines[-1])

    values = raw["values"]
    metrics, not_exercised = {}, []
    for m in wanted:
        if m["name"] in values:
            value = values[m["name"]]
        elif args.trace == "1":
            value = 0.0
            not_exercised.append(m["name"])
        else:
            die("harness did not report end-to-end metric %s" % m["name"], 1)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    record = dict(raw["record"])
    record["held_out_seed"] = str(HELD_OUT_SEED)
    if not_exercised:
        record["not_exercised"] = ",".join(not_exercised)
    correct = bool(raw["correct"]) and raw["failed"] == 0
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
