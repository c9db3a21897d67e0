"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 cstar_bench/run.py --workload {coding,channel,source,tensor}
                               --seed N --seconds S --trace {0,1}

Run from the repository root.  Each measurement runs in a fresh child
process (``child.py``) with BLAS pinned to one thread.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median over five
fresh processes, in reference-kernel units scaled to nominal seconds),
``round_ref`` and ``peak_rss_mb``.  ``--trace 1`` runs the
workload twice, untraced and then traced, and prints the per-layer metrics
reduced from the traced run's spans, plus ``trace.overhead_ref``; it also
writes the raw figures to ``cstar_bench/out/traced-<workload>.json``.

Exits 2 without a result when the program's sources are missing, and 1 when
a child process fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(BENCH, "out")
WORKLOADS = ("coding", "channel", "source", "tensor")
SETUP_SAMPLES = 5
# Time allowed per child on top of its --seconds: start-up, set-up, the
# last round's overrun and the checks.  The children of one run must end
# within the sum of their allowances.
CHILD_MARGIN_S = 50.0

# per-layer metric -> (span name, field, unit); fields are summed per span
# name by tracing.reduce and reported per round
PER_LAYER = {
    "algebra.tensor_power.s": ("algebra.tensor_power", "s", "s"),
    "algebra.tensor_power.terms": ("algebra.tensor_power", "terms", "count"),
    "algebra.dense.s": ("algebra.dense", "s", "s"),
    "algebra.mul.s": ("algebra.mul", "s", "s"),
    "algebra.mul.calls": ("algebra.mul", "calls", "count"),
    "algebra.trace.s": ("algebra.trace", "s", "s"),
    "probability.lln_moment_sweep.s": ("probability.lln_moment_sweep", "s", "s"),
    "probability.lln_moment_sweep.calls": ("probability.lln_moment_sweep", "calls", "count"),
    "probability.chebyshev_tail.s": ("probability.chebyshev_tail", "s", "s"),
    "probability.chebyshev_tail.calls": ("probability.chebyshev_tail", "calls", "count"),
    "probability.product_state.s": ("probability.product_state", "s", "s"),
    "information.aep_typical_set.s": ("information.aep_typical_set", "s", "s"),
    "information.aep_typical_set.strings": ("information.aep_typical_set", "strings", "count"),
    "information.huffman_code.s": ("information.huffman_code", "s", "s"),
    "channel.coding_experiment.s": ("channel.coding_experiment", "s", "s"),
    "channel.coding_experiment.trials": ("channel.coding_experiment", "trials", "count"),
    "channel.coding_experiment.cells": ("channel.coding_experiment", "cells", "count"),
    "channel.capacity.s": ("channel.capacity", "s", "s"),
    "channel.capacity.calls": ("channel.capacity", "calls", "count"),
    "channel.capacity.iterations": ("channel.capacity", "iterations", "count"),
    "channel.capacity.failed": ("channel.capacity", "failed", "count"),
    "channel.joint.s": ("channel.joint", "s", "s"),
    "channel.classify.s": ("channel.classify", "s", "s"),
    "cli.main.s": ("cli.main", "s", "s"),
    "cli.artifact_bytes": ("cli.main", "artifact_bytes", "bytes"),
}


class ChildError(RuntimeError):
    """A workload process failed or ran out of time."""


def child(workload, seed, seconds, deadline, *extra):
    """Run child.py in a fresh single-threaded process; return its JSON line."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "CSTAR_INFO_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, os.path.join(BENCH, "child.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--workdir", os.path.join(OUT, workload)] + list(extra)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise ChildError("no time left for the next %s child" % workload)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise ChildError("%s child timed out" % workload)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildError("%s child exited %d" % (workload, proc.returncode))
    return json.loads(lines[-1])


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _report_errors(*results):
    errors = [e for r in results for e in r["errors"]]
    for e in errors:
        print("CHECK FAILED: " + e, file=sys.stderr)
    return not errors


def end_to_end(args, deadline):
    setups = [child(args.workload, args.seed, 0, deadline, "--setup-only")["setup_s"]
              for _ in range(SETUP_SAMPLES - 1)]
    res = child(args.workload, args.seed, args.seconds, deadline)
    setups.append(res["setup_s"])
    return {
        "correct": _report_errors(res),
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {
            "setup_s": _metric(statistics.median(setups), "s"),
            "round_ref": _metric(res["round_ref"], "ref"),
            "peak_rss_mb": _metric(res["peak_rss_mb"], "MB"),
        },
    }


def per_layer(args, deadline):
    spans = os.path.join(OUT, "spans-%s.jsonl" % args.workload)
    plain = child(args.workload, args.seed, args.seconds, deadline)
    traced = child(args.workload, args.seed, args.seconds, deadline, "--trace", spans)
    layers = traced.pop("layers")
    metrics = {}
    for name, (span, field, unit) in PER_LAYER.items():
        metrics[name] = _metric(layers.get(span, {}).get(field, 0) / traced["rounds"], unit)
    metrics["trace.overhead_ref"] = _metric(traced["round_ref"] - plain["round_ref"], "ref")
    with open(os.path.join(OUT, "traced-%s.json" % args.workload), "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "untraced": plain,
                   "traced": traced, "layers": layers}, fh, indent=1, sort_keys=True)
    return {
        "correct": _report_errors(plain, traced),
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["failed"] + traced["failed"],
        "metrics": metrics,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    measuring = 2 if args.trace else 1
    deadline = time.monotonic() + measuring * (args.seconds + CHILD_MARGIN_S)
    if not os.path.isfile(os.path.join(ROOT, "src", "cstar_info", "__init__.py")):
        print("no program sources under %s" % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    os.makedirs(os.path.join(OUT, args.workload), exist_ok=True)
    try:
        result = (per_layer if args.trace else end_to_end)(args, deadline)
    except ChildError as exc:
        print(exc, file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
