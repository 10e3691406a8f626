"""One timed run of a workload, in a fresh interpreter.

Started by run.py with ``src`` on PYTHONPATH.  Builds the workload's jobs
from the seed, warms up on inputs of its own, then runs whole cycles of
the workload's slots as a closed loop (one client, no threads): at least
MIN_CYCLES, and then until ``--seconds`` of timed work are done, or
exactly ``--cycles`` cycles.  Every cycle draws fresh inputs.  Only each
job's ``call`` is timed; building inputs and checking results happen
outside the timed region.  Writes one JSON document to ``--out``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import sys
from time import perf_counter

from jobs import host_reference

MIN_CYCLES = 3
WORKLOADS = {"stream": "stream", "crossval": "crossval", "cli": "clicalls", "defects": "defects"}


def _error(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"[:200]


def execute(job, tracer=None, job_id=None) -> tuple[float, str | None]:
    """Run one job: (timed seconds, None or the reason it failed)."""
    root = None
    if tracer is not None:
        tracer.job = job_id
        root = tracer.open("job")
    start = perf_counter()
    try:
        result = job.call()
        error = None
    except Exception as exc:  # an uncaught exception is a failed job, not a crash
        error = _error(exc)
    elapsed = perf_counter() - start
    if tracer is not None:
        tracer.close(root, error is not None)
        if job.traced_call is not None:
            root = tracer.open("job")
            try:
                job.traced_call()
                tracer.close(root, False)
            except Exception:
                tracer.close(root, True)
        tracer.job = None
    if error is None:
        try:
            error = job.check(result)
        except Exception as exc:
            error = "check raised " + _error(exc)
    return elapsed, error


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--cycles", type=int, default=0, help="run exactly this many cycles")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spans", help="where the traced run writes its spans")
    args = ap.parse_args(argv)

    workload = importlib.import_module(WORKLOADS[args.workload])
    tracer = None
    if args.trace:
        from spans import Tracer, layer_metrics

        tracer = Tracer()
        tracer.install()

    for job in workload.warmup_jobs(args.seed):
        host_reference()
        execute(job)

    jobs, busy, cycle = [], 0.0, 0
    while True:
        for slot in range(len(workload.SLOTS)):
            job = workload.make_job(args.seed, cycle, slot)
            ref = host_reference()
            elapsed, error = execute(job, tracer, len(jobs))
            jobs.append([job.kind, elapsed, error, ref])
            busy += elapsed
        cycle += 1
        if cycle == 1:
            # Peak memory is read after the first cycle, a fixed amount of
            # work; later cycles only add to what the deformed rewriter's
            # process-wide memo holds, in proportion to the run's length.
            rss_kib = [resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
        if args.cycles:
            if cycle >= args.cycles:
                break
        elif cycle >= MIN_CYCLES and busy >= args.seconds:
            break

    report = {
        "jobs": jobs,
        "cycles": cycle,
        # ru_maxrss is in KiB on Linux; the children are the CLI processes.
        "self_rss_mb": rss_kib[0] / 1024,
        "children_rss_mb": rss_kib[1] / 1024,
    }
    if tracer is not None:
        report["layers"] = layer_metrics(tracer.spans)
        report["spans"] = len(tracer.spans)
        if args.spans:
            tracer.write(args.spans)
    with open(args.out, "w") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
