"""One repetition of one workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --spawned-ns T
        --work-dir DIR [--trace]

`--spawned-ns` is the monotonic clock (``time.monotonic_ns``) read by the
parent just before it started this process, so set-up time covers interpreter
start, imports and input construction.  Prints one JSON object: set-up time,
wall time of the timed region, peak resident set size, items attempted and
failed, a digest of the answers and, with --trace, the span counters of
the set-up and of the timed region.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED_DIR = HERE / "expected"


def import_tpcalc():
    """Import tpcalc from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    import tpcalc

    if Path(tpcalc.__file__).resolve().parent != SRC / "tpcalc":
        raise ImportError(f"tpcalc imported from {tpcalc.__file__}, not from {SRC}")


def run_once(workload: str, seed: int, work_dir: Path, trace: bool,
             expected_path: Path | None = None, spawned_ns: int | None = None) -> dict:
    """Set up, run and score one repetition; returns the record a worker prints."""
    import numpy as np
    import workloads
    from tracer import Tracer, tracing

    setup, run, _, score = workloads.WORKLOADS[workload]
    tracers = {"setup": Tracer(), "run": Tracer()} if trace else None
    with tracing(tracers["setup"]) if trace else nullcontext():
        inputs = setup(seed, work_dir)
    ready_ns = time.monotonic_ns()
    started = time.perf_counter()
    with tracing(tracers["run"]) if trace else nullcontext():
        answers = run(inputs)
    wall_s = time.perf_counter() - started
    expected = json.loads((expected_path or EXPECTED_DIR / f"{workload}.json").read_text())
    attempted, failed = score(answers, expected)
    record = {
        "setup_s": None if spawned_ns is None else (ready_ns - spawned_ns) / 1e9,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": attempted,
        "failed": failed,
        "digest": hashlib.sha256(json.dumps(answers, sort_keys=True).encode()).hexdigest(),
        "numpy": np.__version__,
    }
    if trace:
        record["trace"] = {phase: {"calls": dict(t.calls), "fresh": dict(t.fresh),
                                   "self_s": dict(t.self_s), "incl_s": dict(t.incl_s)}
                           for phase, t in tracers.items()}
    return record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-ns", type=int, required=True)
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    import_tpcalc()
    record = run_once(args.workload, args.seed, args.work_dir, args.trace,
                      spawned_ns=args.spawned_ns)
    print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
