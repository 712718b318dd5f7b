"""fastpolar benchmark: Monte Carlo frames/s, batch-1 decode latency, per-layer trace.

Run from the repository root (the package is imported from ./src):

    python3 bench/run.py --workload mc_fast_float --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload decode_b1 --seed 1 --seconds 25 --trace 1 --out a.jsonl
    python3 bench/run.py --compare base.jsonl [new.jsonl]

The last line of a run's standard output is one JSON object with the keys
correct, attempted, failed and metrics. A run in which any operation failed
exits with code 1. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
WORKLOAD_NAMES = ("mc_fast_float", "mc_fast_fixed55", "mc_ga_float", "decode_b1")


def _commit() -> str:
    """HEAD of the repository this benchmark sits in, or "unknown"."""
    def git(*args):
        out = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else None
    try:
        top = git("rev-parse", "--show-toplevel")
        if top is None or Path(top).resolve() != ROOT:
            return "unknown"
        return git("rev-parse", "HEAD") or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def fingerprint() -> dict:
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "commit": _commit(),
    }


def _import_program():
    init = SRC / "fastpolar" / "__init__.py"
    if not init.is_file():
        sys.exit(f"bench: {init} not found; run from a fastpolar checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import fastpolar

    if Path(fastpolar.__file__).resolve().parent != init.parent:
        sys.exit(f"bench: imported fastpolar from {fastpolar.__file__}, not {init.parent}")


def run(args) -> int:
    for var in THREAD_VARS:     # before numpy is first imported
        os.environ[var] = "1"
    _import_program()
    import workloads

    env = fingerprint()
    ledger, metrics, info, tracer = workloads.run(args.workload, args.seed, args.seconds,
                                                  bool(args.trace))
    correct = ledger.failed == 0
    for note in ledger.notes:
        print(f"FAILED: {note}")
    if tracer is not None:
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.npz"
        tracer.save(path)
        print(f"spans: {len(tracer.start)} written to {path.relative_to(ROOT)}")
        for name in tracer.missing:
            print(f"not traced, the program has no attribute {name}")
    print(f"env: {json.dumps(env, sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed}: "
          + ", ".join(f"{k}={v}" for k, v in info.items()))
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:.6g} {unit}")
    result = {
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    if args.out:
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "env": env, "info": info, "result": result}
        with open(args.out, "a") as handle:
            handle.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append this run's record to a JSON-lines file")
    parser.add_argument("--compare", nargs="+", metavar="FILE",
                        help="summarise one results file, or compare a base and a new one")
    args = parser.parse_args(argv)
    if args.compare:
        if len(args.compare) > 2:
            parser.error("--compare takes one or two files")
        sys.path.insert(0, str(BENCH_DIR))
        import compare

        return compare.main(args.compare, ROOT / "BENCHMARK.json")
    if args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
