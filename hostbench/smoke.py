"""Smoke test of the benchmark: every workload at a tiny request count.

    python3 hostbench/smoke.py

For each workload it runs ``run.py`` untraced and traced and checks that
every metric BENCHMARK.json names is printed with its unit, that the two
runs' simulated-output digests agree, and that no file of the checkout
outside ``hostbench/out/`` was written.  Exits non-zero on any failure.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "hostbench" / "out"
SMOKE_REQUESTS = 60


def snapshot() -> dict:
    """(size, mtime) of every file in the checkout outside .git and out/."""
    files = {}
    for directory, subdirs, names in os.walk(ROOT):
        here = Path(directory)
        subdirs[:] = [
            name for name in subdirs
            if here / name not in (ROOT / ".git", OUT_DIR)
        ]
        for name in names:
            stat = (here / name).stat()
            files[str((here / name).relative_to(ROOT))] = (stat.st_size, stat.st_mtime_ns)
    return files


def run(workload: str, trace: int) -> dict:
    command = [
        sys.executable, str(ROOT / "hostbench" / "run.py"),
        "--workload", workload, "--seed", "0", "--seconds", "0",
        "--trace", str(trace), "--requests", str(SMOKE_REQUESTS),
    ]
    completed = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=300
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or len(lines) < 2:
        raise SystemExit(
            f"{workload} trace={trace} exited {completed.returncode}:\n"
            f"{completed.stdout}\n{completed.stderr}"
        )
    result = json.loads(lines[-1])
    result["digest"] = json.loads(lines[-2])["manifest"]["digest"]
    return result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: spec["end_to_end"], 1: spec["per_layer"]}
    failures = []
    before = snapshot()
    for workload in (entry["name"] for entry in spec["workloads"]):
        results = {trace: run(workload, trace) for trace in (0, 1)}
        for trace, result in results.items():
            if not result["correct"] or result["failed"]:
                failures.append(f"{workload} trace={trace}: run not correct")
            printed = result["metrics"]
            for metric in expected[trace]:
                got = printed.get(metric["name"])
                if got is None:
                    failures.append(f"{workload} trace={trace}: {metric['name']} missing")
                elif got["unit"] != metric["unit"]:
                    failures.append(
                        f"{workload} trace={trace}: {metric['name']} unit "
                        f"{got['unit']!r} != {metric['unit']!r}"
                    )
            extra = set(printed) - {metric["name"] for metric in expected[trace]}
            if extra:
                failures.append(f"{workload} trace={trace}: unlisted metrics {sorted(extra)}")
        if results[0]["digest"] != results[1]["digest"]:
            failures.append(f"{workload}: traced digest differs from untraced")
        print(f"{workload}: ok" if not failures else f"{workload}: {failures}")
    after = snapshot()
    changed = sorted(
        path for path in set(before) | set(after) if before.get(path) != after.get(path)
    )
    if changed:
        failures.append(f"files written outside hostbench/out/: {changed}")
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
