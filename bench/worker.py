"""One benchmark process: set up, run a workload's jobs in a closed loop with
one client, check every output, print one JSON line.

Started by run.py, which pins the BLAS thread count in the environment
before this process loads numpy.  lindreach is imported from the checkout's
``src`` directory and nowhere else.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1
        [--setup-only]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from oracles import Mismatch
from speed import ScaledClock
from tracer import Tracer, metric_units
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
MIN_JOBS = 100      # so that at least ten job times lie beyond p90


def import_lindreach():
    sys.path.insert(0, str(ROOT / "src"))
    import lindreach
    import lindreach.cli
    origin = Path(lindreach.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise ImportError(f"lindreach was imported from {origin}, not {ROOT / 'src'}")
    return lindreach.cli


def blas_threads() -> dict[str, int]:
    """Threads each bundled OpenBLAS reports (numpy's and scipy's); opening
    an already loaded library returns the loaded instance."""
    import ctypes
    import numpy
    import scipy
    out = {}
    for pkg in (numpy, scipy):
        libdir = Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs"
        for path in sorted(libdir.glob("*openblas*.so*")):
            lib = ctypes.CDLL(str(path))
            for sym in ("scipy_openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    out[path.name] = fn()
                    break
    return out


def machine_info() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_env": {v: os.environ.get(v) for v in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        # cli.main copies LINDREACH_THREADS into the BLAS variables only after
        # numpy has loaded, so it has no effect; the benchmark does not use it.
        "LINDREACH_THREADS": os.environ.get("LINDREACH_THREADS"),
    }


class Runner:
    """Runs jobs, times them and checks their outputs."""

    def __init__(self, cli):
        self.cli = cli
        self.attempted = 0
        self.failed = 0

    def run(self, job, tracer=None, job_id=None) -> float:
        self.attempted += 1
        t0 = time.perf_counter()
        if tracer is None:
            code = self.cli.main(job.argv)
        else:
            with tracer.job(job_id):
                code = self.cli.main(job.argv)
        dur = time.perf_counter() - t0
        try:
            if code != 0:
                raise Mismatch(f"exit code {code}")
            with open(job.out) as fh:
                job.check(json.load(fh))
        except (Mismatch, OSError, ValueError, LookupError, TypeError,
                AttributeError) as exc:   # a malformed report is a failed job
            self.failed += 1
            if self.failed <= 5:
                print(f"job {self.attempted - 1} ({job.kind}) failed: {exc!r}\n"
                      f"  argv: {job.argv}", file=sys.stderr)
        return dur


def job_figures(durations: list[float]) -> dict[str, float]:
    return {
        "jobs_per_s": len(durations) / sum(durations),
        "job_p50_s": statistics.median(durations),
        "job_p90_s": statistics.quantiles(durations, n=10, method="inclusive")[8],
    }


def closed_loop(runner, jobs, first, deadline) -> tuple[dict, dict]:
    """End-to-end figures: one client, next job as soon as the last is
    checked, until the deadline and at least MIN_JOBS jobs.  Returns the
    figures on speed-scaled job times (see speed.py) and on raw wall times."""
    clock = ScaledClock()
    job = first
    while True:
        clock.add(runner.run(job))
        if time.monotonic() >= deadline and runner.attempted >= MIN_JOBS:
            break
        job = next(jobs)
    clock.flush()
    metrics = {name: (value, "1/s" if name == "jobs_per_s" else "s")
               for name, value in job_figures(clock.scaled).items()}
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    raw = dict(job_figures(clock.raw), ref_median_s=statistics.median(clock.refs))
    return metrics, raw


def traced_blocks(runner, workload, seed, workdir, deadline, trace_path) -> dict:
    """Per-layer figures: the same block of jobs run untraced and traced in
    turn (order alternating) until the deadline; figures are per block."""
    tracer = Tracer()
    untraced_s = 0.0
    blocks = 0
    while blocks == 0 or time.monotonic() < deadline:
        for traced in ((False, True) if blocks % 2 == 0 else (True, False)):
            jobs = workload.jobs(seed, workdir)
            if traced:
                tracer.install()
            try:
                for i in range(workload.trace_block):
                    job_id = blocks * workload.trace_block + i
                    dur = runner.run(next(jobs), tracer if traced else None, job_id)
                    if not traced:
                        untraced_s += dur
            finally:
                tracer.uninstall()
        blocks += 1
    metrics = tracer.metrics(blocks, untraced_s)
    if metrics["other.self_s"] < 0 or min(tracer.self_s.values()) < 0:
        raise RuntimeError("self times exceed the traced job time")
    tracer.write(trace_path)
    units = metric_units()
    return {name: (metrics[name], unit) for name, unit in units.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    # set-up: what a user pays before the first job is issued
    cli = import_lindreach()
    workload = WORKLOADS[args.workload]
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        jobs = workload.jobs(args.seed, str(workdir))
        first = next(jobs)
        result = {"setup_mark": time.monotonic()}
        if not args.setup_only:
            deadline = time.monotonic() + args.seconds
            runner = Runner(cli)
            if args.trace:
                trace_path = WORK / f"spans-{args.workload}-{args.seed}.jsonl"
                metrics = traced_blocks(runner, workload, args.seed,
                                        str(workdir), deadline, trace_path)
                result["trace_block"] = workload.trace_block
            else:
                metrics, result["raw"] = closed_loop(runner, jobs, first, deadline)
            result["metrics"] = {name: {"value": value, "unit": unit}
                                 for name, (value, unit) in metrics.items()}
            result["attempted"] = runner.attempted
            result["failed"] = runner.failed
            result["machine"] = machine_info()
            result["why"] = workload.why
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
