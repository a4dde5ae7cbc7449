"""Bench A4 -- batching extension: throughput beyond the batch-1 protocol.

Alongside the analytic batching study, this module wall-clocks the
*simulator's own* serving hot path: the vectorised multi-query kernels
(`use_vector_kernels=True`) are benchmarked at Q in {1, 32, 256, 2048}
and pinned against the scalar reference loop.  The committed baseline
guards each kernel benchmark via ``compare_to_baseline.py``; the speedup
pin guarantees the >=5x win over the pre-vectorisation scalar path at
batch >= 256 can never silently regress.
"""

import pathlib
import time

import pytest

from repro.core.mapping import WorkloadMapping
from repro.core.pipeline import IMARSEngine, ServeQuery
from repro.data.movielens import MovieLensDataset, movielens_table_specs
from repro.experiments import run_batch_throughput
from repro.models.youtube_dnn import (
    YouTubeDNNConfig,
    YouTubeDNNFiltering,
    YouTubeDNNRanking,
)

#: Untracked home of host wall-clock reports (see .gitignore): tier-1
#: runs must not rewrite tracked files with timings of the host they ran on.
OUT_DIR = pathlib.Path(__file__).parent / "out"


@pytest.fixture(scope="module")
def serve_setup():
    """(vectorised engine, scalar-path engine, workload) at test scale."""
    dataset = MovieLensDataset(scale=0.03, seed=0)
    config = YouTubeDNNConfig(
        num_items=dataset.num_items,
        demographic_cardinalities=(dataset.num_users, 3, 7, 21, 450),
        seed=0,
    )
    filtering = YouTubeDNNFiltering(config)
    ranking = YouTubeDNNRanking(config)
    mapping = WorkloadMapping(movielens_table_specs())
    workload = [
        ServeQuery.make(
            dataset.histories[user],
            dataset.demographics[user],
            dataset.ranking_context[user],
        )
        for user in range(dataset.num_users)
    ]
    vectorised = IMARSEngine(filtering, ranking, mapping, seed=0)
    scalar = IMARSEngine(
        filtering, ranking, mapping, seed=0, use_vector_kernels=False
    )
    # The pre-vectorisation serving loop also scored through the full
    # concatenated feature width (no serving scorer): disabling the
    # scorer reproduces that path for the before/after speedup record.
    legacy = IMARSEngine(
        filtering, ranking, mapping, seed=0, use_vector_kernels=False
    )
    legacy._scorer = None
    return vectorised, scalar, legacy, workload


def _queries(workload, size):
    return (workload * (size // len(workload) + 1))[:size]


@pytest.mark.parametrize("batch_size", [1, 32, 256, 2048])
def test_serve_kernels(benchmark, serve_setup, batch_size):
    """Wall-clock of the vectorised serve path at each batch size."""
    vectorised, _, _, workload = serve_setup
    queries = _queries(workload, batch_size)
    benchmark.pedantic(
        vectorised.serve_batch, args=(queries,), rounds=3, warmup_rounds=1
    )


def test_vector_speedup_pin(serve_setup):
    """The vectorised kernels must hold >=5x over the scalar serving loop
    at batch >= 256 (the acceptance floor of the vectorisation PR).

    Engines are clocked interleaved -- one call each per round, min over
    the rounds -- so a host slowdown hits every side of a ratio alike
    instead of whichever engine happened to be running.  The host-timing
    report goes to the untracked ``benchmarks/out/``.
    """
    vectorised, scalar, legacy, workload = serve_setup
    engines = (vectorised, scalar, legacy)

    def clock(queries, rounds):
        for engine in engines:
            engine.serve_batch(queries[: min(8, len(queries))])  # warm
        best = [float("inf")] * len(engines)
        for _ in range(rounds):
            for slot, engine in enumerate(engines):
                start = time.perf_counter()
                engine.serve_batch(queries)
                best[slot] = min(best[slot], time.perf_counter() - start)
        return best

    lines = ["vectorised serving kernels vs scalar reference (interleaved min-of-N):"]
    ratios = {}
    for batch_size, rounds in ((1, 7), (32, 7), (256, 5), (2048, 3)):
        vec_s, ref_s, legacy_s = clock(_queries(workload, batch_size), rounds)
        ratios[batch_size] = legacy_s / vec_s
        lines.append(
            f"  Q={batch_size:>4d} (N={rounds}): vec {vec_s * 1e3:8.2f} ms, "
            f"scalar {ref_s * 1e3:8.2f} ms ({ref_s / vec_s:4.1f}x), "
            f"legacy scalar {legacy_s * 1e3:8.2f} ms ({legacy_s / vec_s:4.1f}x)"
        )
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "batch_kernel_speedup.txt").write_text("\n".join(lines) + "\n")
    for batch_size in (256, 2048):
        assert ratios[batch_size] >= 5.0, (
            f"vectorised path only {ratios[batch_size]:.1f}x over the scalar "
            f"serving loop at Q={batch_size}"
        )


def test_batch_throughput(benchmark, save_report):
    report = benchmark(run_batch_throughput)
    lines = [report.format(), "", "batch size -> QPS:"]
    for point in report.extras["points"]:
        lines.append(
            f"  batch {point.batch_size:>4d}: GPU {point.gpu_qps:>12,.0f} q/s, "
            f"iMARS (pipelined) {point.imars_qps:>12,.0f} q/s"
        )
    save_report("batch_throughput", "\n".join(lines))
    by_name = {c.name: c for c in report.comparisons}
    assert by_name["GPU batch-1 QPS (paper protocol)"].within(0.10)
    flags = [c for c in report.comparisons if c.published == 1 and c.unit == ""]
    for comparison in flags:
        assert comparison.measured == 1, comparison.format_row()
