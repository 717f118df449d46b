"""Benchmark entry point for the krylov library.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (``basis-full``, ``solve-sweep``, ``sparse-stream`` or
``desk``) in this one process with BLAS pinned to one thread, checks every
result, and prints human-readable lines followed by one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` the per-layer metrics of a traced
run, and writes its spans to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("basis-full", "solve-sweep", "sparse-stream", "desk")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "krylov" / "__init__.py").is_file():
        print(f"perfbench: no krylov sources under {src}", file=sys.stderr)
        return 2
    # Pin BLAS before numpy loads it: one process, one thread of Python,
    # one BLAS thread.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(src))

    import bench
    from workloads import WORKLOADS

    out_dir = HERE / "out"
    scratch = out_dir / f"{args.workload}-{os.getpid()}"
    try:
        outcome = bench.run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    end_to_end, per_layer = bench.metric_units(ROOT / "BENCHMARK.json")
    units = per_layer if args.trace else end_to_end
    print(json.dumps({"env": bench.environment(args.workload, args.seed)}))
    report = outcome.report
    spans = report.pop("spans", None)
    if spans is not None:
        path = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps(spans))
        print(f"spans: {path.relative_to(ROOT)} ({len(spans)} spans)")
    for key, value in report.items():
        print(f"{key}: {json.dumps(value)}")
    print(f"error_rate: {outcome.failed / outcome.attempted:.6g} ({outcome.failed}/{outcome.attempted} checks failed)")
    print(
        json.dumps(
            {
                "correct": outcome.correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {
                    name: {"value": outcome.metrics[name], "unit": unit} for name, unit in units.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
