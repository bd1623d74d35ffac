#!/usr/bin/env python3
"""Self-test of the benchmark's traced layer split.

    python3 perfbench/test_layer_split.py [--seconds S] [--seed N]

Run from the repository root. For every workload it makes two traced runs
(run.py --trace 1) with the same seed and checks that

  * the child layer times plus the reported residual add up to the traced op
    time, and the residual is not negative beyond clock resolution;
  * the exact counts repeat identically across the two runs;
  * each workload's heavy layers are exercised and the layers it is meant to
    bypass read 0.

Exits 1 on the first failed check.
"""
import argparse
import json
import os
import subprocess
import sys

# Clock resolution allowance for sums of steady_clock spans (microseconds).
RESOLUTION_US = 1.0

EXACT_COUNTS = {
    "ckks_helr": ["poly.ntt.calls_per_op", "ckks.keyswitch.calls_per_op",
                  "poly.modup.calls_per_op", "substrate.parallel_for_per_op",
                  "precision_bits"],
    "ckks_client": ["poly.ntt.calls_per_op", "ckks.keyswitch.calls_per_op",
                    "substrate.parallel_for_per_op", "precision_bits"],
    "tfhe_gates": ["poly.ntt.calls_per_op", "tfhe.external_product.calls_per_op",
                   "precision_bits"],
    "sim_serve": None,  # every sim.* model metric (not the host timings)
}

HEAVY = {
    "ckks_helr": ["ckks.keyswitch.calls_per_op", "poly.modup.calls_per_op",
                  "poly.ntt.calls_per_op", "substrate.tasks_per_op"],
    "ckks_client": ["ckks.encode.us", "ckks.decode.us", "ckks.encrypt.us",
                    "substrate.tasks_per_op"],
    "tfhe_gates": ["tfhe.blind_rotate.ms", "tfhe.external_product.calls_per_op",
                   "poly.ntt.calls_per_op"],
    "sim_serve": ["sim.ops.bootstrap", "sim.bootstrap_us", "svc.run_us.p50"],
}
BYPASSED = {
    "ckks_helr": ["ckks.encode.us", "tfhe.blind_rotate.ms", "sim.ops.bootstrap"],
    "ckks_client": ["ckks.keyswitch.calls_per_op", "poly.modup.calls_per_op",
                    "tfhe.blind_rotate.ms"],
    "tfhe_gates": ["substrate.tasks_per_op", "ckks.keyswitch.calls_per_op",
                   "poly.modup.calls_per_op", "sim.ops.bootstrap"],
    "sim_serve": ["poly.ntt.calls_per_op", "ckks.keyswitch.calls_per_op",
                  "tfhe.blind_rotate.ms"],
}


def traced_run(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(os.path.dirname(__file__), "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "1"], stdout=subprocess.PIPE, text=True, check=True).stdout
    lines = out.strip().splitlines()
    record = json.loads(lines[-2])["record"]
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise AssertionError("%s: traced run not correct" % workload)
    return record, {k: v["value"] for k, v in result["metrics"].items()}


def split_sum(workload, m):
    """Child layer times + residual, per op, in microseconds."""
    if workload == "ckks_helr":
        return (m["ckks.multiply.self_us"] + m["ckks.relinearize.self_us"] +
                m["ckks.rotate.self_us"] +
                m["ckks.keyswitch.us_per_call"] * m["ckks.keyswitch.calls_per_op"] +
                m["ckks.rescale.self_us"] + m["ckks.mul_plain.self_us"] +
                m["ckks.add.self_us"] + m["ckks.residual_us"]), m["ckks.residual_us"]
    if workload == "ckks_client":
        return (m["ckks.encode.us"] + m["ckks.encrypt.us"] + m["ckks.mul_plain.self_us"] +
                m["ckks.rescale.self_us"] + m["ckks.add.self_us"] + m["ckks.decrypt.us"] +
                m["ckks.decode.us"] + m["ckks.residual_us"]), m["ckks.residual_us"]
    if workload == "tfhe_gates":
        return (1e3 * m["tfhe.blind_rotate.ms"] + m["tfhe.sample_extract.us"] +
                1e3 * m["tfhe.lwe_keyswitch.ms"] + m["tfhe.gate.residual_us"]), \
            m["tfhe.gate.residual_us"]
    return None, None


def check(cond, msg):
    if not cond:
        print("FAIL: " + msg)
        sys.exit(1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", type=float, default=2)
    ap.add_argument("--seed", type=int, default=3)
    args = ap.parse_args()
    for workload in EXACT_COUNTS:
        rec_a, a = traced_run(workload, args.seed, args.seconds)
        rec_b, b = traced_run(workload, args.seed, args.seconds)
        total, residual = split_sum(workload, a)
        if total is not None:
            op_us = float(rec_a["split.op_us"])
            check(abs(total - op_us) <= RESOLUTION_US + 1e-9 * op_us,
                  "%s: layers sum to %.3f us, op is %.3f us" % (workload, total, op_us))
            check(residual >= -RESOLUTION_US and
                  float(rec_a["split.min_residual_us"]) >= -RESOLUTION_US,
                  "%s: negative residual" % workload)
        exact = EXACT_COUNTS[workload] or [
            k for k in a if k.startswith("sim.") and
            not k.startswith(("sim.host_", "sim.observer_overhead."))]
        for k in exact:
            check(a[k] == b[k], "%s: %s differs across runs (%r vs %r)" % (workload, k, a[k], b[k]))
        for k in HEAVY[workload]:
            check(a[k] > 0, "%s: heavy layer metric %s is 0" % (workload, k))
        for k in BYPASSED[workload]:
            check(a[k] == 0, "%s: bypassed layer metric %s is %r" % (workload, k, a[k]))
        print("ok   %-12s exact counts %d, residual %s" %
              (workload, len(exact), "n/a" if residual is None else "%.1f us" % residual))


if __name__ == "__main__":
    main()
