"""One measured process of the benchmark (spawned by ``run.py``).

Usage::

    PYTHONPATH=src python3 perfbench/worker.py --workload NAME --seed N \\
        --seconds S --mode {measure,setup,trace} --t0 MONOTONIC --out FILE \\
        [--trace-file FILE]

``--t0`` is the spawning process's ``time.monotonic()`` just before the
spawn, so ``setup_s`` covers interpreter start, ``import repro`` and the
workload's own set-up.  ``setup`` mode stops there.  ``measure`` runs
passes until ``--seconds`` have gone by (and at least the workload's
``min_passes``); ``trace`` runs the workload's ``traced_passes`` under
the span tracer.  The result is written to ``--out`` as JSON; in
``trace`` mode it carries the tracer's aggregates.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import sys
import time


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("measure", "setup", "trace"), required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace-file")
    args = parser.parse_args()

    import repro

    source_root = os.path.abspath(os.path.join("src", "repro"))
    if os.path.dirname(os.path.abspath(repro.__file__)) != source_root:
        raise SystemExit(f"repro was imported from {repro.__file__}, not {source_root}")

    import workloads
    from spans import Tracer

    workload = workloads.make(args.workload, os.path.dirname(os.path.abspath(args.out)))
    result = {
        "meta": {
            "workload": args.workload,
            "seed": args.seed,
            "hash_seed": os.environ.get("PYTHONHASHSEED"),
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "repro_version": repro.__version__,
        }
    }
    try:
        workload.setup()
        result["setup_s"] = time.monotonic() - args.t0
        if args.mode == "setup":
            return _write(args.out, result)

        tracer = Tracer() if args.mode == "trace" else None
        if tracer is not None:
            tracer.install()
        try:
            passes, wall = _timed_phase(workload, tracer, args)
        finally:
            if tracer is not None:
                tracer.uninstall()
        result["passes"] = [{"wall_s": w, "ops": ops} for w, ops in passes]
        result["phase_s"] = wall
        result["mismatches"] = []
        if isinstance(workload, workloads.Serve):
            result["peak_rss_mb"] = workload.peak_rss_mb()
            if args.mode == "measure":
                result["mismatches"] = [
                    f"serve verdict of {name} differs from the in-process run"
                    for name in workload.check_in_process()
                ]
        else:
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            result["trace"] = tracer.aggregates(len(passes))
            if args.trace_file:
                tracer.write_chrome_trace(args.trace_file)
    finally:
        workload.close()
    return _write(args.out, result)


def _timed_phase(workload, tracer, args):
    """Run passes; returns ([(wall_s, ops)], phase wall seconds)."""
    import workloads

    def rng(pass_index):
        return random.Random(f"{args.seed}:{pass_index}")

    start = time.perf_counter()
    if isinstance(workload, workloads.Serve):
        by_connection, wall = workload.run_timed(rng(0), tracer, args.seconds)
        return [p for connection in by_connection for p in connection], wall
    passes = []
    while True:
        pass_start = time.perf_counter()
        ops = workload.run_pass(rng(len(passes)), tracer)
        passes.append((time.perf_counter() - pass_start, ops))
        if tracer is not None:
            if len(passes) >= workload.traced_passes:
                break
        elif (len(passes) >= workload.min_passes
              and time.perf_counter() - start >= args.seconds):
            break
    return passes, time.perf_counter() - start


def _write(path: str, result: dict) -> int:
    with open(path, "w") as handle:
        json.dump(result, handle, default=str)
    return 0


if __name__ == "__main__":
    sys.exit(main())
