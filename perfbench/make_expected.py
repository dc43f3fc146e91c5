"""Regenerate the expected-answers files in perfbench/expected/.

    python3 perfbench/make_expected.py [WORKLOAD ...]

Runs each workload once at seed 0 and stores the labelling-independent part
of its answers.  Regenerate only on a commit whose answers are trusted: the
benchmark counts every later difference as a failed item.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from worker import EXPECTED_DIR, import_tpcalc


def main(names: list[str]) -> int:
    import_tpcalc()
    import workloads

    EXPECTED_DIR.mkdir(exist_ok=True)
    for name in names or list(workloads.WORKLOADS):
        setup, run, expected_of, _ = workloads.WORKLOADS[name]
        with tempfile.TemporaryDirectory() as tmp:
            answers = run(setup(0, Path(tmp)))
        path = EXPECTED_DIR / f"{name}.json"
        path.write_text(json.dumps(expected_of(answers), indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
