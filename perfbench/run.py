"""tpcalc benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs repetitions of one workload (catalog-scan, tp-large or pair-oracle, see
perfbench/design.json), one after another, each in a fresh interpreter, as
long as the next one should end within --seconds; at least three run.  Every
answer is checked against perfbench/expected/.

With --trace 0 it reports the end-to-end metrics of BENCHMARK.json, medians
over the repetitions.  With --trace 1 it alternates untraced and traced
repetitions (untraced first, then two traced) and reports the per-layer
metrics from the traced ones; ``trace.overhead_s`` is the median traced wall
time minus the median untraced one.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Lines before it describe the machine and,
with --trace 1, every span's counters.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from worker import HERE, ROOT, SRC

MIN_REPETITIONS = 3
RUN_LIMIT_S = 170  # no run may take longer, however slow the host


class BenchError(Exception):
    """The benchmark could not produce a result."""


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def stamp(numpy_version: str) -> dict:
    """Where the figures came from: code identity (the git commit when the
    checkout has one, and a digest of the sources) and machine."""
    head = ROOT / ".git" / "HEAD"
    sha = None
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            sha = ref_file.read_text().strip() if ref_file.is_file() else None
        else:
            sha = ref
    digest = hashlib.sha256()
    for path in sorted((SRC / "tpcalc").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"git_sha": sha, "src_sha256": digest.hexdigest(), "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy_version,
            "machine": platform.machine()}


def run_worker(workload: str, seed: int, work_dir: Path, trace: bool, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--work-dir", str(work_dir)]
    if trace:
        cmd.append("--trace")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("no time left for a repetition")
    cmd += ["--spawned-ns", str(time.monotonic_ns())]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise BenchError(f"repetition exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def repetitions(workload: str, seed: int, seconds: int, trace: bool, work_dir: Path):
    """Untraced and traced records; traced ones only with `trace`."""
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    plain, traced, durations = [], [], []
    while True:
        n = len(durations)
        elapsed = time.monotonic() - started
        if n >= MIN_REPETITIONS and elapsed + max(durations) > seconds:
            return plain, traced
        as_traced = trace and n > 0 and (n <= 2 or n % 2 == 0)
        rec = run_worker(workload, seed, work_dir, as_traced, deadline)
        (traced if as_traced else plain).append(rec)
        durations.append(time.monotonic() - started - elapsed)


def median_of(records: list[dict], key) -> float:
    return statistics.median(key(r) for r in records)


def end_to_end_value(name: str, plain: list[dict]) -> float:
    if name not in ("setup_s", "wall_s", "peak_rss_mb"):
        raise BenchError(f"no end-to-end metric named {name!r}")
    return median_of(plain, lambda r: r[name])


def layer_value(name: str, plain: list[dict], traced: list[dict]) -> float:
    """A per-layer metric from the traced records, by its name:
    ``[setup.]<span>.calls|self_s|incl_s|self_pct|incl_pct``, a fresh-table
    counter, or ``trace.overhead_s``."""
    if name == "trace.overhead_s":
        return median_of(traced, lambda r: r["wall_s"]) - median_of(plain, lambda r: r["wall_s"])
    phase = "setup" if name.startswith("setup.") else "run"
    base = name.removeprefix("setup.")
    span, _, stat = base.rpartition(".")
    phases = [r["trace"][phase] for r in traced]
    if stat == "calls":
        return phases[0]["calls"].get(span, 0)
    if stat in ("fresh", "fresh_tables"):
        return phases[0]["fresh"].get(base, 0)
    if stat in ("self_s", "incl_s"):
        return statistics.median(p[stat].get(span, 0.0) for p in phases)
    if stat in ("self_pct", "incl_pct"):
        key = stat.replace("_pct", "_s")
        return statistics.median(100 * p[key].get(span, 0.0) / r["wall_s"]
                                 for p, r in zip(phases, traced))
    raise BenchError(f"no per-layer metric named {name!r}")


def consistency_problems(plain: list[dict], traced: list[dict]) -> list[str]:
    """Every repetition must give the same answers, and traced counts must
    repeat exactly."""
    problems = []
    if len({r["digest"] for r in plain + traced}) != 1:
        problems.append("repetitions gave different answers")
    counts = [{ph: (t["calls"], t["fresh"]) for ph, t in r["trace"].items()} for r in traced]
    if any(c != counts[0] for c in counts[1:]):
        problems.append("traced call counts differ between repetitions")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    # on SIGTERM, unwind: subprocess.run kills and reaps the running worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        if not (SRC / "tpcalc" / "__init__.py").is_file():
            raise BenchError(f"no tpcalc sources at {SRC}")
        spec = load_spec()
        if args.workload not in {w["name"] for w in spec["workloads"]}:
            raise BenchError(f"unknown workload {args.workload!r}")
        work_dir = Path(tempfile.mkdtemp(prefix=".perfbench_work-", dir=ROOT))
        try:
            plain, traced = repetitions(args.workload, args.seed, args.seconds,
                                        bool(args.trace), work_dir)
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
        print(json.dumps({"stamp": stamp(plain[0]["numpy"]), "workload": args.workload,
                          "seed": args.seed, "wall_s": [r["wall_s"] for r in plain],
                          "traced_wall_s": [r["wall_s"] for r in traced]}))
        if args.trace:
            print(json.dumps({"trace": traced[0]["trace"]}))
            metrics = {m["name"]: {"value": layer_value(m["name"], plain, traced),
                                   "unit": m["unit"]} for m in spec["per_layer"]}
        else:
            metrics = {m["name"]: {"value": end_to_end_value(m["name"], plain),
                                   "unit": m["unit"]} for m in spec["end_to_end"]}
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    records = plain + traced
    problems = consistency_problems(plain, traced)
    for problem in problems:
        print(f"inconsistent: {problem}", file=sys.stderr)
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    print(json.dumps({"correct": failed == 0 and not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
