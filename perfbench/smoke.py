"""Smoke check of the benchmark: every workload, untraced and traced, tiny.

    python3 perfbench/smoke.py

Each workload runs for one second in each mode.  The check fails unless
every result line names exactly the end-to-end (untraced) or per-layer
(traced) metrics of BENCHMARK.json, each with its unit and a numeric
value, and no operation failed.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIMEOUT_S = 600


def check(workload: str, trace: int, expected: List[Dict[str, str]]) -> List[str]:
    """Problems found in one tiny run (empty when it passes)."""
    label = f"{workload} --trace {trace}"
    done = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload", workload,
            "--seed", "0",
            "--seconds", "1",
            "--trace", str(trace),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=TIMEOUT_S,
    )
    if done.returncode != 0:
        return [f"{label}: exit {done.returncode}: {done.stderr.strip()[-800:]}"]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{label}: result keys {sorted(result)}")
    if result.get("failed") != 0 or result.get("correct") is not True:
        problems.append(
            f"{label}: {result.get('failed')} of {result.get('attempted')} "
            "operations failed"
        )
    if not result.get("attempted", 0) >= 1:
        problems.append(f"{label}: nothing attempted")
    want = {metric["name"]: metric["unit"] for metric in expected}
    got = {
        name: metric.get("unit")
        for name, metric in result.get("metrics", {}).items()
        if isinstance(metric.get("value"), (int, float))
    }
    if got != want:
        problems.append(
            f"{label}: missing {sorted(set(want) - set(got))}, "
            f"unexpected {sorted(set(got) - set(want))}, wrong units "
            f"{sorted(n for n in set(got) & set(want) if got[n] != want[n])}"
        )
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems: List[str] = []
    for workload in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            problems += check(workload["name"], trace, spec[key])
    for problem in problems:
        print(problem, file=sys.stderr)
    print(f"smoke: {'ok' if not problems else f'{len(problems)} problem(s)'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
