#!/usr/bin/env python
"""Fail unless a perfbench run reports ``correct: true``.

``perfbench/run.py`` always exits 0 and reports its verdict in the
last line of standard output, a JSON object.  This wrapper runs it,
echoes its output, and turns that verdict into an exit status, so a CI
step fails when a run breaks a correctness check.  It makes the traced
service-drift pass (seed 1, 6 s), which guards:

* parity with the committed simulated outcomes (``reference``);
* tracing being observation-only (traced == untraced outcomes);
* the observability layer's share of the traced wall (≤ 5 %).

Usage, from the root of a checkout::

    python scripts/check_perfbench.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

COMMAND = [
    sys.executable,
    str(REPO / "perfbench" / "run.py"),
    "--workload", "service-drift",
    "--seed", "1",
    "--seconds", "6",
    "--trace", "1",
]


def verdict(stdout: str) -> dict:
    """The JSON object on the last non-empty line of ``stdout``."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("perfbench printed nothing")
    result = json.loads(lines[-1])
    if not isinstance(result, dict) or "correct" not in result:
        raise ValueError(f"last line is not a perfbench result: {lines[-1]!r}")
    return result


def main() -> int:
    run = subprocess.run(COMMAND, cwd=REPO, capture_output=True, text=True)
    sys.stdout.write(run.stdout)
    sys.stderr.write(run.stderr)
    if run.returncode != 0:
        print(f"perfbench check FAILED: run.py exited {run.returncode}")
        return 1
    try:
        result = verdict(run.stdout)
    except ValueError as exc:
        print(f"perfbench check FAILED: {exc}")
        return 1
    if result["correct"] is not True:
        print("perfbench check FAILED: correct is not true (see the check lines above)")
        return 1
    print("perfbench check passed (traced service-drift, seed 1)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
