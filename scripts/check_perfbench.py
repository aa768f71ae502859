#!/usr/bin/env python
"""Fail unless every benchmark workload reports ``correct: true``.

``perfbench/run.py`` always exits 0 and reports its verdict in the
last line of standard output, a JSON object.  This wrapper makes the
traced pass (seed 1, 6 s) of every workload ``BENCHMARK.json`` names,
echoes each run's output, and turns the verdicts into an exit status,
so a CI step fails when any run breaks a correctness check.  Each run
guards:

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


def workloads() -> list[str]:
    """The workload names ``BENCHMARK.json`` declares, in its order."""
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    return [workload["name"] for workload in spec["workloads"]]


def command(workload: str) -> list[str]:
    """The traced seed-1, 6 s perfbench run of ``workload``."""
    return [
        sys.executable,
        str(REPO / "perfbench" / "run.py"),
        "--workload", workload,
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


def check(workload: str) -> str | None:
    """Run one workload; the reason it failed, or ``None``."""
    run = subprocess.run(command(workload), cwd=REPO, capture_output=True, text=True)
    sys.stdout.write(run.stdout)
    sys.stderr.write(run.stderr)
    if run.returncode != 0:
        return f"run.py exited {run.returncode}"
    try:
        result = verdict(run.stdout)
    except ValueError as exc:
        return str(exc)
    if result["correct"] is not True:
        return "correct is not true (see the check lines above)"
    return None


def main() -> int:
    failed = []
    for workload in workloads():
        reason = check(workload)
        if reason is not None:
            print(f"perfbench check FAILED on {workload}: {reason}")
            failed.append(workload)
    if failed:
        return 1
    print(f"perfbench check passed (traced, seed 1): {', '.join(workloads())}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
