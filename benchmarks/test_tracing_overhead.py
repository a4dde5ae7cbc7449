"""Bench the telemetry plane: full tracing must cost <10% wall-clock.

Two arms, identical sessions (sharded iMARS engine, micro-batching,
TinyLFU cache) over the same bursty request stream: one with a fully
enabled :class:`~repro.obs.Telemetry` (``sample_every=1`` -- every
batch traced, every metric recorded), one given none, which runs the
session's null bundle (:meth:`~repro.obs.Telemetry.null`: the same
instrumentation calls, each returning at its first line).  The pin:
traced wall-clock within 10% of untraced.

A single ~10ms run sits near the host's timer-noise floor, so the
estimator is built for robustness rather than a raw best-of: rounds
interleave the arms (a noisy neighbour inflates both alike), each arm
keeps its own engine (EWMA warm-up is symmetric), the first round is
discarded as warm-up, and each arm is summarised by the sum of its
fastest half (a trimmed sum converges far faster than a single min on
a machine with slow epochs).  If the first measurement still exceeds
the bound, one re-measure at double the rounds must confirm it --
a perf pin in the tier-1 suite must not flake on one bad scheduling
quantum.

``test_traced_serving_session`` additionally lands the traced run in
the perf-regression baseline, so a future telemetry change that slows
the serve path shows up in the committed gate, not just in this
relative pin.
"""

import time

from repro.core.mapping import WorkloadMapping
from repro.core.pipeline import ServeQuery
from repro.data.movielens import MovieLensDataset, movielens_table_specs
from repro.models.youtube_dnn import (
    YouTubeDNNConfig,
    YouTubeDNNFiltering,
    YouTubeDNNRanking,
)
from repro.obs import Telemetry
from repro.serving.cache import ServingCache, TinyLFUAdmission
from repro.serving.scheduler import MicroBatchConfig, MicroBatchScheduler
from repro.serving.session import ServingSession
from repro.serving.shard import make_sharded_engine
from repro.serving.traffic import BurstyTraffic

SCALE = 0.03
NUM_REQUESTS = 150
# Tracing adds a fixed ~0.8 ms per run (2-vCPU SkylakeX host); with the
# serve path at ~10 ms that is ~8%, so the estimate needs enough rounds
# to keep its own noise well inside the remaining margin to the bound.
ROUNDS = 30
OVERHEAD_BOUND = 0.10  # the ISSUE's acceptance pin


def _build_workload(seed=0):
    dataset = MovieLensDataset(scale=SCALE, seed=seed)
    config = YouTubeDNNConfig(
        num_items=dataset.num_items,
        demographic_cardinalities=(dataset.num_users, 3, 7, 21, 450),
        seed=seed,
    )
    filtering = YouTubeDNNFiltering(config)
    ranking = YouTubeDNNRanking(config)
    workload = [
        ServeQuery.make(
            dataset.histories[user],
            dataset.demographics[user],
            dataset.ranking_context[user],
        )
        for user in range(dataset.num_users)
    ]

    def make_engine():
        return make_sharded_engine(
            "imars",
            filtering,
            ranking,
            2,
            mapping=WorkloadMapping(movielens_table_specs()),
            num_candidates=24,
            top_k=5,
            seed=seed,
            replicas_per_shard=1,
        )

    probe = make_engine()
    rate_qps = 16.0 / probe.serve_batch(workload[:16]).cost.latency_s
    requests = BurstyTraffic(
        calm_qps=rate_qps,
        burst_qps=3.0 * rate_qps,
        num_users=dataset.num_users,
        mean_calm_s=15.0 / rate_qps,
        mean_burst_s=15.0 / rate_qps,
        seed=seed,
        stream=11,
    ).generate(NUM_REQUESTS)
    return dataset, make_engine, workload, requests


def _timed_run(engine, dataset, workload, requests, telemetry):
    session = ServingSession(
        engine,
        workload,
        scheduler=MicroBatchScheduler(MicroBatchConfig(max_batch_size=16)),
        cache=ServingCache(
            capacity=max(4, dataset.num_users // 4),
            rows_per_entry=5,
            admission=TinyLFUAdmission(seed=0),
        ),
        label="overhead bench",
        telemetry=telemetry,
    )
    start = time.perf_counter()
    session.run(requests)
    return time.perf_counter() - start


def _measure_overhead(dataset, make_engine, workload, requests, rounds):
    """Trimmed-sum overhead estimate over interleaved rounds."""
    traced_engine = make_engine()
    untraced_engine = make_engine()
    traced_times, untraced_times = [], []
    for _ in range(rounds):
        untraced_times.append(
            _timed_run(untraced_engine, dataset, workload, requests, None)
        )
        traced_times.append(
            _timed_run(traced_engine, dataset, workload, requests, Telemetry())
        )
    # Drop the warm-up round, then sum each arm's fastest half.
    keep = (rounds - 1) // 2
    traced_s = sum(sorted(traced_times[1:])[:keep])
    untraced_s = sum(sorted(untraced_times[1:])[:keep])
    return traced_s / untraced_s - 1.0, traced_s, untraced_s


def test_tracing_overhead_under_ten_percent():
    dataset, make_engine, workload, requests = _build_workload()
    overhead, traced_s, untraced_s = _measure_overhead(
        dataset, make_engine, workload, requests, ROUNDS
    )
    if overhead > OVERHEAD_BOUND:
        # Confirm before failing: one bad scheduling quantum must not
        # fail the tier-1 suite, a real regression will reproduce.
        overhead, traced_s, untraced_s = _measure_overhead(
            dataset, make_engine, workload, requests, 2 * ROUNDS
        )
    assert overhead <= OVERHEAD_BOUND, (
        f"full tracing costs {overhead:+.1%} wall-clock "
        f"(traced {traced_s * 1e3:.2f}ms vs untraced "
        f"{untraced_s * 1e3:.2f}ms, trimmed sums over "
        f"{2 * ROUNDS} interleaved rounds); the pin is <{OVERHEAD_BOUND:.0%}"
    )


def test_traced_serving_session(benchmark):
    dataset, make_engine, workload, requests = _build_workload()
    engine = make_engine()
    benchmark.pedantic(
        lambda: _timed_run(engine, dataset, workload, requests, Telemetry()),
        rounds=3,
        iterations=1,
    )
