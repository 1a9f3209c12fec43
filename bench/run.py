"""lindreach benchmark: one command, four workloads, end-to-end or per-layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is a closed loop with one client in one process: every job is
an in-process ``lindreach.cli.main(argv)`` call on input files generated from
the seed, and every job's output is checked by an oracle that does not use
lindreach (bench/oracles.py).  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

Job times are wall times scaled to a fixed machine speed with a reference
kernel timed between jobs (bench/speed.py), because the speed of a shared
core drifts by a third over tens of seconds; the unscaled figures are
printed on the line before the result.  ``peak_rss_mb`` is the measuring
process's ``ru_maxrss``.  ``setup_s`` is the median over several processes
of the wall time from process start until the first job is issued.

BLAS is pinned to one thread here, in the environment, before any process
that loads numpy starts.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 4          # set-up-only processes, besides the measuring one
WORKER_TIMEOUT = 170.0


def start_worker(args, *extra) -> tuple[dict, float]:
    """Run worker.py; return its JSON line and seconds from start to its
    set-up mark (CLOCK_MONOTONIC is shared between processes)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    start = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=WORKER_TIMEOUT,
                          text=True)
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with code {proc.returncode}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return out, out["setup_mark"] - start


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"

    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES // 2):
            setups.append(start_worker(args, "--setup-only")[1])
    result, setup = start_worker(args)
    setups.append(setup)
    if not args.trace:
        for _ in range(SETUP_PROBES - SETUP_PROBES // 2):
            setups.append(start_worker(args, "--setup-only")[1])

    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    print(json.dumps({"workload": args.workload, "why": result["why"],
                      "machine": result["machine"],
                      "setup_s_samples": setups,
                      "raw_wall_figures": result.get("raw"),
                      "trace_block": result.get("trace_block")}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
