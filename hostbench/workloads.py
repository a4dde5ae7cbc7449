"""The benchmark's three serving workloads, built through the public API.

Each workload is ``MovieLensDataset`` -> YouTubeDNN models ->
``make_sharded_engine`` -> traffic -> ``ServingSession``.  The corpus and
models are the same in every run (:data:`SYSTEM_SEED`); the run's seed
draws the inputs.  :func:`build` times every set-up phase; the session it
returns is fresh (engine EWMAs, replica busy clocks, cost-template caches
all cold), so every timed repetition of a run does identical work.

The simulation is an open loop: the seeded traffic generator fixes every
arrival time before the first request is served.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.mapping import WorkloadMapping
from repro.core.pipeline import ServeQuery
from repro.data.movielens import MovieLensDataset, movielens_table_specs
from repro.experiments.chaos_study import CHAOS_STUDY_DEFAULTS
from repro.models.youtube_dnn import (
    YouTubeDNNConfig,
    YouTubeDNNFiltering,
    YouTubeDNNRanking,
)
from repro.obs import Telemetry
from repro.serving.admission import AdmissionConfig, AdmissionController
from repro.serving.cache import ServingCache
from repro.serving.faults import chaos_scenario
from repro.serving.pricing import PriceBook
from repro.serving.resilience import ResilienceConfig
from repro.serving.scheduler import (
    AdaptiveBatchConfig,
    AdaptiveMicroBatchScheduler,
    MicroBatchConfig,
    MicroBatchScheduler,
)
from repro.serving.session import ServingSession
from repro.serving.shard import make_sharded_engine
from repro.serving.traffic import PoissonTraffic, TraceReplayTraffic

#: Workload parameters.  ``why`` is the one-line reason the workload
#: exists; BENCHMARK.json carries the same sentence.
WORKLOADS: Dict[str, Dict[str, object]] = {
    "small-4shard": {
        "why": (
            "E-serve regime: ~2-query micro-batches fanned to 4 shards, so "
            "per-shard query-side work (user tower, LSH hash) and engine/ledger "
            "bookkeeping dominate"
        ),
        "scale": 0.03,
        "num_shards": 4,
        "replicas_per_shard": 1,
        "num_candidates": 24,
        "top_k": 5,
        "num_requests": 500,
        "traffic": "poisson",
        # Offered load as a share of the GPU baseline's batch-1 capacity
        # (the E-serve operating point).
        "load_fraction": 0.75,
        "max_batch_size": 8,
        "max_wait_s": 0.0005,
    },
    "full-1shard": {
        "why": (
            "full MovieLens corpus (6040 x 3000) on 1 shard with 12-16-query "
            "engine calls, so the kernels (candidates, Hamming scan, ranking) "
            "dominate and set-up is large"
        ),
        "scale": 1.0,
        "num_shards": 1,
        "replicas_per_shard": 1,
        "num_candidates": 72,
        "top_k": 10,
        "num_requests": 5000,
        "traffic": "poisson",
        # Offered load as a share of one engine's batch-64 capacity.
        "load_fraction": 0.9,
        "probe_batch_size": 64,
        "max_batch_size": 64,
        "max_wait_s": 0.0002,
    },
    "chaos-replay": {
        "why": (
            "only workload on the fault-aware path: replicas, LRU cache fills and "
            "flush, adaptive batching, admission, chaos faults, telemetry and "
            "pricing all on"
        ),
        "scale": 0.1,
        "num_shards": 2,
        "replicas_per_shard": 2,
        "num_candidates": 24,
        "top_k": 5,
        "num_requests": 3000,
        "traffic": "trace-replay",
        # Offered load as a share of one engine's batch-16 capacity (the
        # E-chaos operating point).
        "load_fraction": 0.6,
        "probe_batch_size": 16,
        "max_batch_size": 8,
        # Scheduler target and admission budget, x batch-1 latency.
        "slo_factor": 6.0,
        "cache_fraction": 4,
        "fault_plan": "moderate",
    },
}

_TRAFFIC_STREAM = 10

#: Seed of the corpus and models: the system under test is the same in
#: every run, and ``--seed`` draws its inputs -- the traffic and, on
#: chaos-replay, the fault plan.
SYSTEM_SEED = 0


@dataclass
class System:
    """The system under test: corpus, models and calibrated load."""

    name: str
    dataset: MovieLensDataset
    #: ``workload[u]`` is the query user ``u`` issues.
    workload: List[ServeQuery]
    filtering: YouTubeDNNFiltering
    ranking: YouTubeDNNRanking
    mapping: WorkloadMapping
    #: Derived run parameters (rates, budgets) for the manifest.
    derived: Dict[str, float]
    #: Host seconds per set-up phase.
    setup_s: Dict[str, float]


@dataclass
class Built:
    """One runnable instance: a cold fleet, its traffic and session."""

    system: System
    session: ServingSession
    requests: List[object]
    #: Host seconds per set-up phase of the instance.
    setup_s: Dict[str, float]


def _fleet(system: System, shards=None, replicas=None, **engine_kwargs):
    params = WORKLOADS[system.name]
    return make_sharded_engine(
        "imars",
        system.filtering,
        system.ranking,
        params["num_shards"] if shards is None else shards,
        mapping=system.mapping,
        num_candidates=params["num_candidates"],
        top_k=params["top_k"],
        seed=SYSTEM_SEED,
        replicas_per_shard=(
            params["replicas_per_shard"] if replicas is None else replicas
        ),
        **engine_kwargs,
    )


def build_system(name: str) -> System:
    """Dataset, models and the calibrated offered load, timed by phase."""
    params = WORKLOADS[name]
    phases: Dict[str, float] = {}
    clock = time.perf_counter

    start = clock()
    dataset = MovieLensDataset(scale=params["scale"], seed=SYSTEM_SEED)
    workload = [
        ServeQuery.make(
            dataset.histories[user],
            dataset.demographics[user],
            dataset.ranking_context[user],
        )
        for user in range(dataset.num_users)
    ]
    phases["dataset"] = clock() - start

    start = clock()
    config = YouTubeDNNConfig(
        num_items=dataset.num_items,
        demographic_cardinalities=(dataset.num_users, 3, 7, 21, 450),
        seed=SYSTEM_SEED,
    )
    system = System(
        name=name,
        dataset=dataset,
        workload=workload,
        filtering=YouTubeDNNFiltering(config),
        ranking=YouTubeDNNRanking(config),
        mapping=WorkloadMapping(movielens_table_specs()),
        derived={},
        setup_s=phases,
    )
    phases["models"] = clock() - start

    # Calibration probes run on throwaway engines so served fleets start
    # cold.
    start = clock()
    if name == "small-4shard":
        probe = make_sharded_engine(
            "gpu",
            system.filtering,
            system.ranking,
            1,
            num_candidates=params["num_candidates"],
            top_k=params["top_k"],
        )
        batch_one_s = probe.recommend_query(workload[0]).cost.latency_s
        rate_qps = params["load_fraction"] / batch_one_s
    else:
        probe = _fleet(system, shards=1, replicas=1)
        batch_one_s = probe.recommend_query(workload[0]).cost.latency_s
        size = params["probe_batch_size"]
        probe_batch = probe.serve_batch(
            [workload[user % len(workload)] for user in range(size)]
        )
        rate_qps = params["load_fraction"] * size / probe_batch.cost.latency_s
    system.derived["batch_one_s"] = batch_one_s
    system.derived["rate_qps"] = rate_qps
    if "slo_factor" in params:
        system.derived["slo_s"] = params["slo_factor"] * batch_one_s
    phases["calibrate"] = clock() - start
    return system


def build(system: System, seed: int, num_requests: Optional[int] = None) -> Built:
    """A cold fleet, traffic drawn from ``seed`` and the session, timed by
    phase."""
    params = WORKLOADS[system.name]
    count = params["num_requests"] if num_requests is None else num_requests
    phases: Dict[str, float] = {}
    clock = time.perf_counter

    start = clock()
    fleet = _fleet(system)
    phases["engine_build"] = clock() - start

    start = clock()
    rate_qps = system.derived["rate_qps"]
    if params["traffic"] == "poisson":
        traffic = PoissonTraffic(
            rate_qps,
            num_users=system.dataset.num_users,
            seed=seed,
            stream=_TRAFFIC_STREAM,
        )
    else:
        traffic = TraceReplayTraffic.from_movielens(
            system.dataset, rate_qps, seed=seed, stream=_TRAFFIC_STREAM
        )
    requests = traffic.generate(count)
    phases["traffic"] = clock() - start

    start = clock()
    label = f"{system.name} seed={seed}"
    if system.name == "chaos-replay":
        session = _chaos_session(system, fleet, requests, seed, label)
    else:
        session = ServingSession(
            fleet,
            system.workload,
            scheduler=MicroBatchScheduler(
                MicroBatchConfig(
                    max_batch_size=params["max_batch_size"],
                    max_wait_s=params["max_wait_s"],
                )
            ),
            label=label,
        )
    phases["session"] = clock() - start
    return Built(system=system, session=session, requests=requests, setup_s=phases)


def _chaos_session(system: System, fleet, requests, seed, label) -> ServingSession:
    """Everything the other two workloads leave off, on one session."""
    params = WORKLOADS[system.name]
    chaos = CHAOS_STUDY_DEFAULTS
    batch_one_s = system.derived["batch_one_s"]
    slo_s = system.derived["slo_s"]
    duration_s = max(request.arrival_s for request in requests)
    plan = chaos_scenario(
        duration_s, params["num_shards"], params["replicas_per_shard"], seed=seed
    )
    resilience = ResilienceConfig(
        timeout_factor=chaos["timeout_factor"],
        default_timeout_s=batch_one_s,
        max_retries=chaos["max_retries"],
        backoff_base_s=chaos["backoff_batch_ones"] * batch_one_s,
        breaker_failure_threshold=chaos["breaker_failure_threshold"],
        breaker_cooldown_s=chaos["cooldown_batch_ones"] * batch_one_s,
        hedge_factor=chaos["hedge_factor"],
        hedge_delay_factor=chaos["hedge_delay_factor"],
    )
    return ServingSession(
        fleet,
        system.workload,
        scheduler=AdaptiveMicroBatchScheduler(
            AdaptiveBatchConfig(
                target_p95_s=slo_s,
                max_batch_size=params["max_batch_size"],
                max_wait_s=chaos["max_wait_fraction"] * slo_s,
            )
        ),
        cache=ServingCache(
            capacity=max(4, system.dataset.num_users // params["cache_fraction"]),
            rows_per_entry=params["top_k"],
        ),
        label=label,
        admission=AdmissionController(AdmissionConfig(slo_ms=slo_s * 1e3)),
        telemetry=Telemetry(),
        faults=plan,
        resilience=resilience,
        price_book=PriceBook(),
    )


def digest(result) -> str:
    """SHA-256 of the simulated outputs of one run.

    Per request: id, served items and the failed/shed/degraded/cache-hit
    flags; then the SLO report's p95 and energy per request.  Floats are
    written to 9 significant digits: the model's outputs, not the last
    bits a BLAS kernel choice can move.
    """
    report = result.report
    lines = [
        f"{record.request.request_id} {','.join(map(str, record.items))} "
        f"{int(record.failed)}{int(record.shed)}{int(record.degraded)}"
        f"{int(record.cache_hit)}"
        for record in result.records
    ]
    lines.append(f"p95_ms {report.p95_ms:.9g}")
    lines.append(f"uj_per_request {report.energy_per_request_uj:.9g}")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def oracle_mismatches(built: Built, result, sample: int = 24) -> int:
    """Recommendations that disagree with the scalar reference path.

    Rebuilds the fleet's shard layout with ``use_vector_kernels=False``
    (the per-query oracle the equivalence suite pins) and replays the
    first ``sample`` distinct users whose answer was neither failed, shed
    nor degraded -- cache hits included, since a hit must return what the
    engine computed.  Replicas are seed-identical, so one per shard is
    enough.
    """
    reference = _fleet(built.system, replicas=1, use_vector_kernels=False)
    checked = set()
    mismatches = 0
    for record in result.records:
        if record.failed or record.shed or record.degraded:
            continue
        user = record.request.user
        if user in checked:
            continue
        checked.add(user)
        query = built.system.workload[user % len(built.system.workload)]
        if tuple(reference.recommend_query(query).items) != tuple(record.items):
            mismatches += 1
        if len(checked) >= sample:
            break
    if not checked:
        return 1  # nothing answered: the run cannot be vouched for
    return mismatches
