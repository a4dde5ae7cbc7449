"""Perf-regression gate: compare a pytest-benchmark JSON run to a baseline.

Usage::

    python -m pytest benchmarks/test_serving_study.py ... \
        --benchmark-json bench.json
    python benchmarks/compare_to_baseline.py bench.json \
        benchmarks/baseline/serving_benchmarks.json [--tolerance 0.25] \
        [--normalize]

Each benchmark's wall-clock is compared against the committed baseline;
any benchmark slower by more than ``--tolerance`` (default 25%) fails
the gate, as does a benchmark that disappeared from the run (a silently
shrinking gate is a broken gate).  New benchmarks missing from the
baseline are reported and pass -- regenerate the baseline to start
guarding them.  The compared statistic is each benchmark's *minimum*
round time: the minimum is the estimator least contaminated by
scheduler noise on shared runners (for the single-round study benches
mean, median and min coincide anyway).

``--normalize`` divides every ratio by the *median* current/baseline
ratio across the shared benchmarks before applying the tolerance.  CI
runners and developer machines differ in raw speed by far more than any
real regression; the median ratio estimates the host-speed factor
(robust to a minority of genuinely regressed benchmarks), so the gate
catches a benchmark that slowed down *relative to the suite* rather
than punishing every machine slower than the one that recorded the
baseline.  A uniform slowdown of the whole suite is invisible in this
mode -- that is the deliberate trade for a committed cross-machine
baseline.

Regenerate the baseline (on any machine, thanks to ``--normalize``)::

    python -m pytest <the gated benchmarks> --benchmark-json \
        benchmarks/baseline/serving_benchmarks.json
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys
from typing import Dict


def benchmark_key(fullname: str) -> str:
    """``fullname`` from its ``benchmarks/`` directory onward.

    pytest-benchmark's ``fullname`` carries whatever path prefix the
    recording checkout had (``root/repo/benchmarks/...`` on one machine,
    ``benchmarks/...`` on another); keying on the repo-relative part lets
    a baseline recorded anywhere gate a run made anywhere else.
    """
    path, separator, test = fullname.partition("::")
    parts = path.split("/")
    if "benchmarks" in parts:
        last = len(parts) - 1 - parts[::-1].index("benchmarks")
        path = "/".join(parts[last:])
    return path + separator + test


def load_times(path: pathlib.Path) -> Dict[str, float]:
    """Map benchmark key (:func:`benchmark_key`) -> min seconds from a
    pytest-benchmark JSON."""
    payload = json.loads(path.read_text())
    times = {}
    for bench in payload.get("benchmarks", []):
        times[benchmark_key(bench["fullname"])] = float(bench["stats"]["min"])
    if not times:
        raise SystemExit(f"no benchmarks found in {path}")
    return times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Fail on wall-clock regressions vs a committed baseline."
    )
    parser.add_argument("current", type=pathlib.Path)
    parser.add_argument("baseline", type=pathlib.Path)
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="allowed fractional slowdown per benchmark (default 0.25)",
    )
    parser.add_argument(
        "--normalize",
        action="store_true",
        help="divide out the median host-speed ratio before comparing",
    )
    args = parser.parse_args(argv)
    if args.tolerance <= 0.0:
        raise SystemExit("tolerance must be positive")

    current = load_times(args.current)
    baseline = load_times(args.baseline)

    shared = sorted(set(current) & set(baseline))
    missing = sorted(set(baseline) - set(current))
    new = sorted(set(current) - set(baseline))
    if missing:
        for name in missing:
            print(f"MISSING  {name}: in the baseline but not in this run")
        print(f"\n{len(missing)} gated benchmark(s) did not run -- failing.")
        return 1
    if not shared:
        raise SystemExit("no overlapping benchmarks between run and baseline")

    host_factor = 1.0
    if args.normalize:
        host_factor = statistics.median(
            current[name] / baseline[name] for name in shared
        )
        print(f"host-speed factor (median ratio): {host_factor:.3f}x\n")

    regressions = []
    for name in shared:
        ratio = current[name] / baseline[name] / host_factor
        verdict = "ok"
        if ratio > 1.0 + args.tolerance:
            verdict = "REGRESSION"
            regressions.append(name)
        elif ratio < 1.0 - args.tolerance:
            verdict = "improved (consider refreshing the baseline)"
        print(
            f"{name}\n    baseline={baseline[name] * 1e3:9.3f}ms "
            f"current={current[name] * 1e3:9.3f}ms "
            f"normalized-ratio={ratio:6.3f}  {verdict}"
        )
    for name in new:
        print(f"{name}\n    NEW (not in baseline -- regenerate to guard it)")

    if regressions:
        print(
            f"\n{len(regressions)} benchmark(s) regressed more than "
            f"{args.tolerance:.0%}: " + ", ".join(regressions)
        )
        return 1
    print(f"\nall {len(shared)} gated benchmarks within {args.tolerance:.0%}.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
