#!/usr/bin/env python3
"""Compare two sets of benchmark runs, per workload and end-to-end metric.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are directories of saved run.py outputs (one file per run, the
record line followed by the result line). Prints each side's median and
quartiles and the change against the metric's bound in BENCHMARK.json.

Runs are paired only on the same host fingerprint: the comparison refuses
(exit 2) when the SIMD ISA or the pool width differ between the two sides,
since either alone moves the functional workloads by up to 1.7x. Exit 1 when
a metric worsens by more than its bound, else 0.
"""
import collections
import json
import os
import statistics
import sys

STRICT_FACTS = ("substrate.isa", "substrate.threads")
NOTED_FACTS = ("nproc", "build_type", "compiler")


def load(directory):
    runs = collections.defaultdict(list)
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name)) as f:
            lines = [line for line in f.read().splitlines() if line.startswith("{")]
        record = json.loads(lines[-2])["record"]
        result = json.loads(lines[-1])
        runs[record["workload"]].append((record, result))
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    with open("BENCHMARK.json") as f:
        spec = {m["name"]: m for m in json.load(f)["end_to_end"]}
    base, new = load(sys.argv[1]), load(sys.argv[2])
    workloads = sorted(set(base) & set(new))

    def differs(workload, key):
        return {r[key] for r, _ in base[workload]} != {r[key] for r, _ in new[workload]}

    for workload in workloads:
        for key in STRICT_FACTS:
            if differs(workload, key):
                print("refusing to compare %s: %s differs between the two sides"
                      % (workload, key), file=sys.stderr)
                sys.exit(2)
    worse = False
    for workload in workloads:
        for key in NOTED_FACTS:
            if differs(workload, key):
                print("note: %s: %s differs between the two sides" % (workload, key))
        for metric, m in spec.items():
            b = quartiles([res["metrics"][metric]["value"] for _, res in base[workload]])
            n = quartiles([res["metrics"][metric]["value"] for _, res in new[workload]])
            change = (n[1] - b[1]) / b[1]
            regress = change > m["bound"] if m["better"] == "lower" else -change > m["bound"]
            worse |= regress
            print("%-12s %-12s base %.4g [%.4g, %.4g]  new %.4g [%.4g, %.4g]  %+.1f%% (bound %.0f%%)%s"
                  % (workload, metric, b[1], b[0], b[2], n[1], n[0], n[2], 100 * change,
                     100 * m["bound"], "  WORSE" if regress else ""))
    sys.exit(1 if worse else 0)


if __name__ == "__main__":
    main()
