"""Self-test of the benchmark.

    python3 cstar_bench/selftest.py

1. BENCHMARK.json names the workloads and metrics that run.py reports.
2. A quick size of each workload runs to its end in a traced child process,
   passes its checks, fails only where expected and records its layers.
3. Every oracle accepts the program's output for each quick job and rejects
   the same output with one value perturbed.

Exits 0 when everything holds, 1 otherwise.
"""

import copy
import json
import os
import sys
import time
import warnings

import child  # puts the program's src/ on sys.path
import oracles
import run
import workloads

import numpy as np


def _bump(path, delta):
    def perturb(output):
        out = copy.deepcopy(output)
        node = out["artifact"]
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] += delta
        return out

    return perturb


def _swap_words(output):
    """Give the heaviest atom the longest word: a valid but suboptimal code."""
    out = copy.deepcopy(output)
    rows = out["artifact"]["results"]
    heavy = max(range(len(rows)), key=lambda i: rows[i]["weight"])
    long = max(range(len(rows)), key=lambda i: rows[i]["length"])
    for key in ("word", "length"):
        rows[heavy][key], rows[long][key] = rows[long][key], rows[heavy][key]
    summary = out["artifact"]["summary"]
    summary["expected_length"] = sum(r["weight"] * r["length"] for r in rows)
    summary["bound_value"] = summary["expected_length"] - summary["entropy_base_n"]
    return out


def _exit_zero(output):
    return dict(output, rc=0)


def _joint(out):
    return out[0], out[1] + 1e-6


def _power(out):
    vec = np.array(out[1])
    vec[0] += 1e-6
    return out[0], vec, out[2], out[3]


def _first_term(out):
    out.terms[next(iter(out.terms))] += 1e-6
    return out


def _embed(out):
    return out[0], out[1], out[2], out[3] + 1e-6


def _pairs(out):
    return out[1:] if out else [(0, 1)]


def _drop_term(out):
    del out.terms[next(iter(out.terms))]
    return out


PERTURB = {
    "numeric_failure": _exit_zero,
    "capacity_closed": _bump(("summary", "capacity"), 1e-6),
    "capacity_random": _bump(("summary", "capacity"), 1e-6),
    "channel_info": _bump(("results", 0, "mutual_information"), 1e-6),
    "coding": _bump(("results", 0, "error_prob"), 1e-6),
    "lln": _bump(("results", -1, "tail_probability"), 1e-6),
    "aep": _bump(("results", -1, "count"), 1),
    "huffman": _swap_words,
    "words": _bump(("summary", "expected_length"), 1e-6),
    "joint": _joint,
    "power": _power,
    "product": _first_term,
    "embed": _embed,
    "words_orthogonal": _pairs,
    "projection": _drop_term,
}

# a span each quick workload must record, and the failed operations per round
EXPECT = {
    "coding": ("channel.coding_experiment", 0),
    "channel": ("channel.capacity", 1),
    "source": ("probability.chebyshev_tail", 0),
    "tensor": ("algebra.mul", 0),
}


def check_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOADS) or \
            run.WORKLOADS != workloads.WORKLOADS:
        problems.append("workload names disagree")
    if {m["name"]: m["unit"] for m in spec["end_to_end"]} != \
            {"setup_s": "s", "round_ref": "ref", "peak_rss_mb": "MB"}:
        problems.append("end-to-end metrics disagree")
    layers = {name: unit for name, (_, _, unit) in run.PER_LAYER.items()}
    layers["trace.overhead_ref"] = "ref"
    if {m["name"]: m["unit"] for m in spec["per_layer"]} != layers:
        problems.append("per-layer metrics disagree")
    return problems


def check_quick_runs():
    problems = []
    deadline = time.monotonic() + 600
    for workload in run.WORKLOADS:
        spans = os.path.join(run.OUT, "selftest-%s.jsonl" % workload)
        res = run.child(workload, 0, 0, deadline, "--quick", "--trace", spans)
        span, failing = EXPECT[workload]
        problems += ["%s: %s" % (workload, e) for e in res["errors"]]
        if res["failed"] != failing * res["rounds"]:
            problems.append("%s: %d failed operations" % (workload, res["failed"]))
        if span not in res["layers"]:
            problems.append("%s: no %s span" % (workload, span))
        print("quick %-8s rounds=%d attempted=%d failed=%d errors=%d"
              % (workload, res["rounds"], res["attempted"], res["failed"], len(res["errors"])))
    return problems


def check_oracles():
    problems = []
    for workload in run.WORKLOADS:
        workdir = os.path.join(run.OUT, "selftest-" + workload)
        jobs, _ = workloads.build(workload, 0, workdir, quick=True)
        for job in jobs:
            _, outcome, stderr = child.run_job(job, child.caller(job))
            output = child.job_output(job, (outcome, stderr))
            accepted = oracles.check(job, output)
            rejected = oracles.check(job, PERTURB[job.meta["check"]](output))
            if accepted:
                problems.append("%s: oracle rejects the program: %s" % (job.name, accepted))
            if not rejected:
                problems.append("%s: oracle accepts a perturbed output" % job.name)
            print("oracle %-8s %-22s accepts=%s rejects-perturbed=%s"
                  % (workload, job.name, not accepted, bool(rejected)))
    return problems


def main():
    warnings.simplefilter("ignore")
    problems = check_benchmark_json() + check_quick_runs() + check_oracles()
    for p in problems:
        print("FAIL: " + p)
    print("self-test %s" % ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
