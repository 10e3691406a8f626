"""Run one benchmark workload and print its metrics as the last stdout line.

    python3 bench/run.py --workload stream --seed 1 --seconds 20 --trace 0

Workloads: ``stream``, ``crossval`` and ``cli`` (see BENCHMARK.json for
why each exists), plus the ``defects`` probe, whose jobs fail until the
known defects are fixed.  With ``--trace 0`` the last line carries the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics
of a traced run, and the spans go to ``.bench_out/``.

Set-up is measured first: several fresh interpreters each import
``weylwords`` and exit.  Then a worker process (a fresh interpreter, so
the library's process-wide memo starts empty, as a CLI user's does) runs
the timed loop.  A traced run repeats the untraced worker's cycles in a
second worker with spans on, which gives the tracing overhead.

End-to-end metrics: ``jobs_per_s`` is jobs over their summed timed
seconds (one client, closed loop); ``job_p50_ms`` and ``job_p90_ms`` are
the median and 90th percentile of the job latencies (``attempted`` is the
sample count); ``setup_s`` is the median set-up sample; ``peak_rss_mb``
is the worker's peak resident memory over warm-up and the first cycle,
or for ``cli`` the largest CLI process's; ``success_rate`` is the share
of jobs whose result checked out.

These timings are host-corrected: next to every job and set-up sample the
harness times a reference and rescales the sample to a host on which the
reference takes its nominal time (see ``jobs``): a fixed pure-Python loop
for jobs, a bare interpreter's start-up for set-up samples.  On the shared 2-vCPU host this benchmark was
built on, the same code ran up to 1.6 times slower for minutes at a time,
and the references slowed with it.  The uncorrected figures go to
``.bench_out/result-*.json`` under "raw".  Per-layer metrics are
uncorrected, apart from the ``trace.*`` rates.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from jobs import HOST_REFERENCE_S, SPAWN_REFERENCE_S, child_env, spawn_reference
from worker import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
SAMPLES = 5
DEADLINE_S = 170

_IMPORT_PROBE = (
    "import json, sys, time\n"
    "t = time.perf_counter()\n"
    "import weylwords\n"
    "dt = time.perf_counter() - t\n"
    "np = sys.modules.get('numpy')\n"
    "print(json.dumps({'import_s': dt, 'numpy': np and np.__version__}))\n"
)


def _timed_run(cmd: list[str], timeout: float) -> tuple[float, subprocess.CompletedProcess]:
    start = perf_counter()
    proc = subprocess.run(cmd, env=child_env(ROOT), cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    return perf_counter() - start, proc


def setup_samples() -> tuple[list[tuple[float, float]], list[float], str | None]:
    """(wall time, bare interpreter's time just before) of fresh interpreters
    importing weylwords, the import's own time in each, and the numpy
    version they loaded."""
    walls, imports, numpy_version = [], [], None
    for _ in range(SAMPLES):
        reference = spawn_reference(ROOT)
        wall, proc = _timed_run([sys.executable, "-c", _IMPORT_PROBE], 60)
        if proc.returncode != 0:
            raise RuntimeError(f"importing weylwords failed: {proc.stderr.strip()[-300:]}")
        probe = json.loads(proc.stdout)
        walls.append((wall, reference))
        imports.append(probe["import_s"])
        numpy_version = probe["numpy"]
    return walls, imports, numpy_version


def environment(numpy_version: str | None) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "git_commit": commit,
    }


def run_worker(args, trace: int, deadline: float, cycles: int = 0) -> dict:
    tag = f"{args.workload}-seed{args.seed}-trace{trace}"
    out = OUT_DIR / f"worker-{tag}.json"
    cmd = [
        sys.executable, str(ROOT / "bench" / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(trace), "--cycles", str(cycles), "--out", str(out),
        "--spans", str(OUT_DIR / f"spans-{tag}.json"),
    ]
    _, proc = _timed_run(cmd, max(1.0, deadline - perf_counter()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed: {proc.stderr.strip()[-500:]}")
    with open(out) as fh:
        return json.load(fh)


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[-1]


def job_latencies(report: dict) -> list[float]:
    """Host-corrected job latencies.

    Each job is rescaled to a host on which the reference loop takes
    HOST_REFERENCE_S, using the median of the five references taken just
    before it and its neighbours: that follows the host's speed through
    the run without tracking one noisy sample.
    """
    refs = [reference for *_, reference in report["jobs"]]
    return [
        elapsed * HOST_REFERENCE_S / statistics.median(refs[max(0, i - 2) : i + 3])
        for i, (_, elapsed, _, _) in enumerate(report["jobs"])
    ]


def jobs_per_s(report: dict) -> float:
    latencies = job_latencies(report)
    return len(latencies) / sum(latencies)


def end_to_end(report: dict, setup_walls: list[tuple[float, float]], workload: str) -> dict:
    latencies = job_latencies(report)
    failed = sum(1 for _, _, error, _ in report["jobs"] if error)
    # The CLI's memory is its own processes'; the others run in the worker.
    rss = report["children_rss_mb"] if workload in ("cli", "defects") else report["self_rss_mb"]
    return {
        "jobs_per_s": (len(latencies) / sum(latencies), "1/s"),
        "job_p50_ms": (1000 * statistics.median(latencies), "ms"),
        "job_p90_ms": (1000 * p90(latencies), "ms"),
        "setup_s": (statistics.median(w * SPAWN_REFERENCE_S / r for w, r in setup_walls), "s"),
        "peak_rss_mb": (rss, "MB"),
        "success_rate": (1 - failed / len(latencies), "ratio"),
    }


def raw_timings(report: dict, setup_walls: list[tuple[float, float]]) -> dict:
    """The same timings uncorrected, with the host references, for the record."""
    latencies = [elapsed for _, elapsed, _, _ in report["jobs"]]
    return {
        "jobs_per_s": len(latencies) / sum(latencies),
        "job_p50_ms": 1000 * statistics.median(latencies),
        "job_p90_ms": 1000 * p90(latencies),
        "setup_s": statistics.median(w for w, _ in setup_walls),
        "reference_ms": 1000 * statistics.median(r for *_, r in report["jobs"]),
    }


_UNITS = [
    ("busy_s", "s"), ("self_s", "s"), ("share_pct", "%"), ("ns_per_letter", "ns"),
    ("us_per_member", "us"), ("_ms", "ms"), ("jobs_per_s", "1/s"), ("overhead_pct", "%"),
]


def _unit(name: str) -> str:
    return next((unit for suffix, unit in _UNITS if name.endswith(suffix)), "count")


def per_layer(traced: dict, untraced: dict, setup_walls: list[tuple[float, float]], imports: list[float]) -> dict:
    traced_rate, untraced_rate = jobs_per_s(traced), jobs_per_s(untraced)
    values = dict(traced["layers"])
    values["cli.spawn_ms"] = 1000 * statistics.median(spawn for _, spawn in setup_walls)
    values["cli.import_ms"] = 1000 * statistics.median(imports)
    values["trace.jobs_per_s"] = traced_rate
    values["trace.untraced_jobs_per_s"] = untraced_rate
    values["trace.overhead_pct"] = 100 * (untraced_rate / traced_rate - 1)
    values["trace.spans"] = traced["spans"]
    values["host.reference_ms"] = 1000 * statistics.median(r for *_, r in traced["jobs"])
    return {name: (value, _unit(name)) for name, value in values.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="timed work per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "weylwords" / "__init__.py").is_file():
        print(f"error: no weylwords package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = perf_counter() + DEADLINE_S
    OUT_DIR.mkdir(exist_ok=True)
    try:
        setup_walls, imports, numpy_version = setup_samples()
        untraced = run_worker(args, 0, deadline)
        if args.trace:
            traced = run_worker(args, 1, deadline, cycles=untraced["cycles"])
            report, metrics = traced, per_layer(traced, untraced, setup_walls, imports)
        else:
            report, metrics = untraced, end_to_end(untraced, setup_walls, args.workload)
    except (RuntimeError, OSError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    failures = [(kind, error) for kind, _, error, _ in report["jobs"] if error]
    for kind, error in failures[:10]:
        print(f"failed {kind}: {error}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": len(report["jobs"]),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    env = environment(numpy_version)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "cycles": report["cycles"],
              "environment": env, "raw": raw_timings(report, setup_walls), "result": result}
    with open(OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"environment": env, "cycles": report["cycles"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
