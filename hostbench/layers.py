"""Host-time spans around the public calls into each serving layer.

The traced run patches the layer entry points listed in :data:`TIMED`
with wrappers that record a span (name, start, end, parent) per call,
plus count-only wrappers (:data:`COUNTED`) around the cost algebra, which
is too fine-grained to time.  Spans stay in memory; :func:`layer_metrics`
folds them into per-layer self times -- a span's duration minus its
children's -- and the run's counts.  Every patch is undone on exit, and
the wrappers only observe (arguments and results pass through), so a
traced run's simulated outputs equal an untraced run's.
"""

from __future__ import annotations

import contextlib
import functools
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional, Tuple

import repro.core.pipeline as pipeline_module
import repro.serving.session as session_module
from repro.core.pipeline import IMARSEngine
from repro.energy.accounting import Cost, Ledger
from repro.models.youtube_dnn import RankingServingScorer, YouTubeDNNFiltering
from repro.nns.lsh_search import LSHHammingIndex
from repro.obs.tracer import Tracer
from repro.serving.admission import AdmissionController
from repro.serving.cache import ServingCache
from repro.serving.shard import ReplicaGroup, ShardedEngine


def _count_rows(key: str) -> Callable:
    def count(counts, self, result):
        counts[key] += result.shape[0]

    return count


def _count_router(counts, self, result):
    counts["router_queries"] += len(result.results)


def _count_engine(counts, self, result):
    queries = len(result.results)
    counts["engine_queries"] += queries
    counts["engine_batch1"] += queries == 1


def _count_scan(counts, self, result):
    counts["lsh_items"] += result.size


def _count_candidates(counts, self, result):
    padded, found = result
    counts["candidate_queries"] += found.shape[0]
    counts["candidates"] += int(found.sum())


#: (owner, attribute, span name, counter).  ``owner`` is a class or a
#: module; the span name's prefix is the layer's ``<module>`` in the
#: metric names.
TIMED = (
    (ShardedEngine, "serve_batch", "shard.router", _count_router),
    (ReplicaGroup, "serve_batch", "shard.replica", None),
    (IMARSEngine, "serve_batch", "pipeline.engine", _count_engine),
    (YouTubeDNNFiltering, "user_embedding", "models.user_tower", _count_rows("user_rows")),
    (LSHHammingIndex, "distances_batch", "lsh.distances", _count_scan),
    (pipeline_module, "fixed_radius_candidates_batch", "nns.candidates", _count_candidates),
    (pipeline_module, "topk_indices_batch", "nns.topk", None),
    (RankingServingScorer, "query_constants", "models.rank_constants", None),
    (RankingServingScorer, "score_grouped", "models.rank_score", _count_rows("rows_scored")),
    (ServingCache, "lookup", "cache.lookup", None),
    (ServingCache, "insert", "cache.insert", None),
    (AdmissionController, "decide", "admission.decide", None),
    (Tracer, "start_batch", "obs.tracer", None),
    (Tracer, "end_batch", "obs.tracer", None),
    (Tracer, "open", "obs.tracer", None),
    (Tracer, "close", "obs.tracer", None),
    (Tracer, "add", "obs.tracer", None),
    (Tracer, "instant", "obs.tracer", None),
    (session_module, "price_serving_run", "pricing.price", None),
    (session_module, "summarize", "slo.summarize", None),
)

#: (owner, attribute, counter key): calls counted, not timed.
COUNTED = (
    (Cost, "then", "cost_folds"),
    (Cost, "sequence", "cost_folds"),
    (Cost, "concurrent", "cost_folds"),
    (Ledger, "__init__", "ledgers"),
)

#: Span name of the instance wrapper around the session's scheduler.
SCHEDULER_SPAN = "session.scheduler_run"


class SpanRecorder:
    """Nested host-time spans, kept in memory as parallel lists."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts: List[int] = []
        self.ends: List[int] = []
        self.parents: List[int] = []
        self.counts: Dict[str, int] = _zero_counts()
        self._stack: List[int] = []

    def timed(self, function: Callable, name: str, counter=None) -> Callable:
        """``function`` wrapped in a span; ``counter(counts, self, result)``
        updates the counts after each call."""
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        stack, counts = self._stack, self.counts

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            index = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(index)
            starts.append(perf_counter_ns())
            try:
                result = function(*args, **kwargs)
            finally:
                ends[index] = perf_counter_ns()
                stack.pop()
            if counter is not None:
                counter(counts, args[0] if args else None, result)
            return result

        return wrapper

    def counted(self, function: Callable, key: str) -> Callable:
        counts = self.counts

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return function(*args, **kwargs)

        return wrapper

    def self_times_ns(self) -> Dict[str, int]:
        """Per span name: total duration minus time covered by children.

        Calls run on one thread and nest strictly, so children never
        overlap and their summed duration is the covered time.
        """
        child_ns = [0] * len(self.names)
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                child_ns[parent] += self.ends[index] - self.starts[index]
        totals: Dict[str, int] = {}
        for index, name in enumerate(self.names):
            duration = self.ends[index] - self.starts[index]
            totals[name] = totals.get(name, 0) + duration - child_ns[index]
        return totals

    def root_ns(self) -> int:
        """Summed duration of the top-level spans."""
        return sum(
            self.ends[index] - self.starts[index]
            for index, parent in enumerate(self.parents)
            if parent < 0
        )

    def as_json(self) -> Dict[str, object]:
        """Compact span dump: name table + [name, start_ns, end_ns, parent]."""
        table = sorted(set(self.names))
        lookup = {name: position for position, name in enumerate(table)}
        origin = self.starts[0] if self.starts else 0
        return {
            "names": table,
            "fields": ["name", "start_ns", "end_ns", "parent"],
            "spans": [
                [lookup[name], start - origin, end - origin, parent]
                for name, start, end, parent in zip(
                    self.names, self.starts, self.ends, self.parents
                )
            ],
        }


def _zero_counts() -> Dict[str, int]:
    keys = ("router_queries", "engine_queries", "engine_batch1", "user_rows",
            "lsh_items", "candidate_queries", "candidates", "rows_scored",
            "cost_folds", "ledgers")
    return dict.fromkeys(keys, 0)


@contextlib.contextmanager
def patched(recorder: SpanRecorder):
    """Install the layer wrappers for the duration of the block."""
    undo = []
    try:
        for owner, attribute, name, counter in TIMED:
            undo.append(_replace(owner, attribute, lambda fn, n=name, c=counter:
                                 recorder.timed(fn, n, c)))
        for owner, attribute, key in COUNTED:
            undo.append(_replace(owner, attribute, lambda fn, k=key:
                                 recorder.counted(fn, k)))
        yield recorder
    finally:
        for restore in reversed(undo):
            restore()


def _replace(owner, attribute: str, make_wrapper) -> Callable[[], None]:
    """Swap ``owner.attribute`` for a wrapper; return the undo action."""
    missing = object()
    own = vars(owner).get(attribute, missing)
    if isinstance(own, staticmethod):
        setattr(owner, attribute, staticmethod(make_wrapper(own.__func__)))
    else:
        setattr(owner, attribute, make_wrapper(getattr(owner, attribute)))

    def restore() -> None:
        if own is missing:
            delattr(owner, attribute)
        else:
            setattr(owner, attribute, own)

    return restore


def time_scheduler(session, batch_ns: List[int], recorder: Optional[SpanRecorder]):
    """Wrap the ``run`` of the scheduler ``session`` was given.

    Every ``service(batch)`` call the scheduler makes is timed into
    ``batch_ns``; with a recorder, the whole ``scheduler.run`` is also a
    span, whose self time is the session's own bookkeeping.
    """
    scheduler = session.scheduler
    inner = scheduler.run

    def run(requests, service):
        def timed_service(batch):
            start = perf_counter_ns()
            occupied = service(batch)
            batch_ns.append(perf_counter_ns() - start)
            return occupied

        return inner(requests, timed_service)

    scheduler.run = run if recorder is None else recorder.timed(run, SCHEDULER_SPAN)


#: (metric, span name): each metric is the summed self time of its spans.
SELF_TIME_METRICS = (
    ("models.user_tower_s", "models.user_tower"),
    ("lsh.distances_s", "lsh.distances"),
    ("models.rank_constants_s", "models.rank_constants"),
    ("models.rank_score_s", "models.rank_score"),
    ("nns.candidates_s", "nns.candidates"),
    ("nns.topk_s", "nns.topk"),
    ("pipeline.engine_self_s", "pipeline.engine"),
    ("shard.router_self_s", "shard.router"),
    ("shard.replica_self_s", "shard.replica"),
    ("session.self_s", SCHEDULER_SPAN),
    ("admission.decide_s", "admission.decide"),
    ("cache.lookup_s", "cache.lookup"),
    ("cache.insert_s", "cache.insert"),
    ("obs.tracer_s", "obs.tracer"),
    ("pricing.price_s", "pricing.price"),
    ("slo.summarize_s", "slo.summarize"),
)


def layer_metrics(reps: List[Dict[str, object]]) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics as ``{name: (value, unit)}``.

    Each entry of ``reps`` holds one traced repetition's ``recorder``,
    ``wall_ns``, ``batches``, ``requests`` and ``repo_spans``; the first
    also holds its simulated ``result``.  Host times are means per
    repetition; counts repeat exactly from one repetition to the next, so
    the first one's are reported.
    """
    count = len(reps)
    totals_ns: Dict[str, int] = {}
    wall_ns = 0
    for rep in reps:
        wall_ns += rep["wall_ns"]
        for name, value in rep["recorder"].self_times_ns().items():
            totals_ns[name] = totals_ns.get(name, 0) + value
    metrics: Dict[str, Tuple[float, str]] = {}
    for metric, span in SELF_TIME_METRICS:
        metrics[metric] = (totals_ns.get(span, 0) / count / 1e9, "s")
    metrics["unattributed_s"] = ((wall_ns - sum(totals_ns.values())) / count / 1e9, "s")
    metrics["trace.wall_s"] = (wall_ns / count / 1e9, "s")

    first = reps[0]
    counts = first["recorder"].counts
    names = first["recorder"].names
    engine_calls = names.count("pipeline.engine")
    router_calls = names.count("shard.router")
    batches = first["batches"]
    result = first["result"]
    stats = result.cache_stats or {}
    lookups = stats.get("hits", 0) + stats.get("misses", 0)
    fault_counters = (result.fault_stats or {}).get("counters", {})
    report = result.report
    ratios = {
        "models.user_rows_per_query": (counts["user_rows"], counts["router_queries"]),
        "nns.candidates_per_query": (counts["candidates"], counts["candidate_queries"]),
        "pipeline.queries_per_call": (counts["engine_queries"], engine_calls),
        "pipeline.batch1_share": (counts["engine_batch1"], engine_calls),
        "shard.member_calls_per_batch": (engine_calls, router_calls),
        "scheduler.queries_per_batch": (first["requests"], batches),
        "cache.hit_ratio": (stats.get("hits", 0), lookups),
        "session.failed_share": (
            report.failed_count + report.shed_count, report.num_requests
        ),
    }
    for metric, (numerator, denominator) in ratios.items():
        metrics[metric] = (numerator / denominator if denominator else 0.0, "ratio")
    tallies = {
        "models.rows_scored": counts["rows_scored"],
        "lsh.items_scanned": counts["lsh_items"],
        "pipeline.engine_calls": engine_calls,
        "energy.cost_folds": counts["cost_folds"],
        "energy.ledgers": counts["ledgers"],
        "scheduler.batches": batches,
        "cache.lookups": lookups,
        "cache.inserts": stats.get("insertions", 0),
        "obs.spans": first["repo_spans"],
    }
    for key in ("retries", "hedges", "failovers", "failed_queries"):
        tallies[f"resilience.{key}"] = fault_counters.get(key, 0)
    metrics.update({metric: (value, "count") for metric, value in tallies.items()})
    metrics["slo.sim_p95_ms"] = (report.p95_ms, "sim_ms")
    metrics["energy.sim_uj_per_req"] = (report.energy_per_request_uj, "sim_uJ")
    return metrics


def attribution_gap_s(reps: List[Dict[str, object]]) -> float:
    """Worst repetition's gap between its top-level span time and its
    summed self times; non-zero only if spans failed to nest."""
    worst = 0
    for rep in reps:
        recorder = rep["recorder"]
        worst = max(worst, abs(recorder.root_ns() - sum(recorder.self_times_ns().values())))
    return worst / 1e9
