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

The committed baseline is a ``{benchmark_key: min_seconds}`` map (see
:func:`benchmark_key`); a full pytest-benchmark dump is accepted in its
place.  Regenerate it (on any machine, thanks to ``--normalize``) from a
run of the gated benchmarks::

    python -m pytest <the gated benchmarks> --benchmark-json bench.json
    python benchmarks/compare_to_baseline.py bench.json \
        benchmarks/baseline/serving_benchmarks.json --write-baseline
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys
from typing import Dict, List, Tuple


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
    """Map benchmark key (:func:`benchmark_key`) -> min seconds, from a
    pytest-benchmark JSON or from a baseline map already in that form."""
    payload = json.loads(path.read_text())
    if isinstance(payload.get("benchmarks"), list):
        times = {
            benchmark_key(bench["fullname"]): float(bench["stats"]["min"])
            for bench in payload["benchmarks"]
        }
    else:
        times = {benchmark_key(name): float(value) for name, value in payload.items()}
    if not times:
        raise SystemExit(f"no benchmarks found in {path}")
    return times


def write_baseline(run: pathlib.Path, baseline: pathlib.Path) -> None:
    """Write a run's ``{benchmark_key: min_seconds}`` map as the baseline."""
    times = load_times(run)
    baseline.write_text(json.dumps(times, indent=2, sort_keys=True) + "\n")


def compare(
    current: Dict[str, float],
    baseline: Dict[str, float],
    tolerance: float,
    normalize: bool,
) -> Tuple[float, List[Tuple[str, float, str]]]:
    """(host-speed factor, [(key, normalized ratio, verdict)]) over the
    benchmarks both sides share, in key order."""
    shared = sorted(set(current) & set(baseline))
    host_factor = 1.0
    if normalize:
        host_factor = statistics.median(
            current[name] / baseline[name] for name in shared
        )
    rows = []
    for name in shared:
        ratio = current[name] / baseline[name] / host_factor
        verdict = "ok"
        if ratio > 1.0 + tolerance:
            verdict = "REGRESSION"
        elif ratio < 1.0 - tolerance:
            verdict = "improved (consider refreshing the baseline)"
        rows.append((name, ratio, verdict))
    return host_factor, rows


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
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="write the run's timings to BASELINE instead of comparing",
    )
    args = parser.parse_args(argv)
    if args.write_baseline:
        write_baseline(args.current, args.baseline)
        print(f"wrote {args.baseline}")
        return 0
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

    host_factor, rows = compare(current, baseline, args.tolerance, args.normalize)
    if args.normalize:
        print(f"host-speed factor (median ratio): {host_factor:.3f}x\n")

    regressions = [name for name, _, verdict in rows if verdict == "REGRESSION"]
    for name, ratio, verdict in rows:
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
