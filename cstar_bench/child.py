"""One workload in a fresh, single-threaded process.

    python3 cstar_bench/child.py --workload NAME --seed N --seconds S
                                 [--trace SPANS.jsonl] [--setup-only] [--quick]

Imports the program from ``src/``, builds the seeded job list, then runs
whole rounds of it until ``--seconds`` have passed.  A reference kernel is
timed before and after every job, with the garbage collector run between;
a job's cost is its wall time over the mean of its two adjacent kernel
times.  After the rounds it reads the peak RSS, then checks every output
against the oracles and prints one JSON line.  ``run.py`` starts this
script with BLAS pinned to one thread.
"""

import time

_T0 = time.perf_counter()
_C0 = time.process_time()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH), "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

import cstar_info  # noqa: E402
from cstar_info import cli  # noqa: E402

import oracles  # noqa: E402
import workloads  # noqa: E402

SETUP_KERNEL_CALLS = 5


def ref_kernel(shape):
    """Fixed reference work, timed: dict and tuple churn, then fresh arrays.

    Calls nothing in cstar_info.  The churn builds position/atom tuples and
    accumulates them in a dict, like sparse tensor terms; the arrays are
    allocated fresh each time, like the program's dense tables.
    """
    churn, elems, arrays = shape
    start = time.perf_counter()
    table = {}
    for i in range(churn):
        key = ((1, i & 3), (2, (i >> 2) & 3), (3, i % 1021))
        table[key] = table.get(key, 0.0) + 0.5
    total = float(len(table))
    for _ in range(arrays):
        a = np.arange(elems, dtype=float)
        total += float((a * 1.000001).sum())
    return time.perf_counter() - start


def setup_figures(kernel, workload):
    """Set-up time of this process, raw and in reference-kernel units.

    The set-up is the import of numpy and the program plus input generation,
    from this script's first line to here.  Its CPU time is divided by the
    median CPU time of a few kernel calls made right after it, so that
    neither time slicing nor a slower machine moves the ratio.  ``setup_s``
    is that ratio in seconds of a nominal kernel
    (``workloads.KERNEL_CPU_S``), so set-up and rounds share one unit.
    """
    wall = time.perf_counter() - _T0
    cpu = time.process_time() - _C0
    gc.collect()
    kernel_cpu = []
    for _ in range(SETUP_KERNEL_CALLS):
        start = time.process_time()
        ref_kernel(kernel)
        kernel_cpu.append(time.process_time() - start)
    ref = cpu / statistics.median(kernel_cpu)
    return {"setup_wall_s": wall, "setup_cpu_s": cpu, "setup_ref": ref,
            "setup_kernel_cpu_s": statistics.median(kernel_cpu),
            "setup_s": ref * workloads.KERNEL_CPU_S[workload]}


def _digest(path):
    try:
        with open(path, "rb") as handle:
            return hashlib.sha256(handle.read()).hexdigest()
    except FileNotFoundError:
        return None


def run_job(job, call):
    """Run one job once; returns (seconds, outcome, stderr text).

    ``outcome`` is the CLI exit code, 0 for a library call that returned,
    or the exception's repr.  A library result is dropped inside the timed
    interval, like the locals of a CLI call.
    """
    err = io.StringIO()
    sys.stderr = err
    try:
        start = time.perf_counter()
        try:
            outcome = call()
            outcome = outcome if job.argv is not None else 0
        except Exception as exc:  # a crash is a failed operation, reported by the checks
            outcome = repr(exc)
        elapsed = time.perf_counter() - start
    finally:
        sys.stderr = sys.__stderr__
    return elapsed, outcome, err.getvalue()


def caller(job):
    if job.argv is not None:
        return lambda: cli.main(job.argv)
    return job.fn


def timed_rounds(jobs, kernel, seconds, tracer=None):
    """Whole rounds of ``jobs`` until ``seconds`` have passed (at least one).

    ``round_ref`` sums each job's median cost over its repeats; ``round_s``
    does the same for raw wall seconds.
    """
    calls = [caller(job) for job in jobs]
    if tracer is not None:
        calls = [tracer.span("bench." + job.name, call) for job, call in zip(jobs, calls)]
    costs = {job.name: [] for job in jobs}
    walls = {job.name: [] for job in jobs}
    first = {}
    digests = {}
    errors = []
    failed = rounds = 0
    kernel_times = []
    gc.collect()
    ref_prev = ref_kernel(kernel)
    start = time.perf_counter()
    while rounds == 0 or time.perf_counter() - start < seconds:
        for job, call in zip(jobs, calls):
            if job.argv is not None and os.path.exists(job.output_path):
                os.remove(job.output_path)
            gc.collect()
            elapsed, outcome, stderr = run_job(job, call)
            gc.collect()
            ref_next = ref_kernel(kernel)
            kernel_times.append(ref_next)
            costs[job.name].append(elapsed / (0.5 * (ref_prev + ref_next)))
            walls[job.name].append(elapsed)
            ref_prev = ref_next
            failed += outcome != 0
            digest = _digest(job.output_path) if job.argv is not None else None
            if job.name not in first:
                first[job.name] = (outcome, stderr)
                digests[job.name] = digest
            elif (outcome, digest) != (first[job.name][0], digests[job.name]):
                errors.append("%s: repeat %d differs from the first run" % (job.name, rounds))
        rounds += 1
    jobs_out = {name: {"ref": statistics.median(costs[name]), "s": statistics.median(walls[name])}
                for name in costs}
    return {
        "rounds": rounds,
        "attempted": rounds * len(jobs),
        "failed": failed,
        "round_ref": sum(j["ref"] for j in jobs_out.values()),
        "round_s": sum(j["s"] for j in jobs_out.values()),
        "kernel_s": statistics.median(kernel_times),
        "jobs": jobs_out,
        "first": first,
        "errors": errors,
    }


def job_output(job, first):
    """The output an oracle checks: the artifact on disk for a CLI job, a
    fresh run (untraced, after the timed rounds) for a library job."""
    if job.argv is None:
        return job.fn()
    rc, stderr = first
    artifact = None
    if rc == 0 and os.path.exists(job.output_path):
        with open(job.output_path, encoding="utf-8") as handle:
            artifact = json.load(handle)
    return {"rc": rc, "stderr": stderr, "artifact": artifact}


def check_all(jobs, first):
    errors = []
    for job in jobs:
        outcome = first[job.name][0]
        if job.argv is None and outcome != 0:
            errors.append("%s: raised %s" % (job.name, outcome))
            continue
        try:
            errors += oracles.check(job, job_output(job, first[job.name]))
        except Exception as exc:  # an oracle that cannot read the output rejects it
            errors.append("%s: check failed with %r" % (job.name, exc))
    return errors


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace", default=None, help="write spans to this JSON-lines file")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--quick", action="store_true", help="small sizes, for the self-test")
    args = parser.parse_args(argv)
    if not os.path.abspath(cstar_info.__file__).startswith(SRC + os.sep):
        sys.exit("cstar_info was imported from %s, not from %s" % (cstar_info.__file__, SRC))
    warnings.simplefilter("ignore")

    jobs, kernel = workloads.build(args.workload, args.seed, args.workdir, args.quick)
    setup = setup_figures(kernel, args.workload)
    if args.setup_only:
        print(json.dumps(setup))
        return

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    result = timed_rounds(jobs, kernel, args.seconds, tracer)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(args.trace)
    result["errors"] += check_all(jobs, result.pop("first"))
    if args.trace:
        result["layers"] = tracing.reduce(args.trace)
    result.update(setup)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
