"""Scalar-vs-vectorised serving equivalence suite (the fast CI pin).

The vectorised multi-query kernels must be *bit-identical* to the
scalar reference path (``use_vector_kernels=False``): same items, same
CTR bits, same per-query ledgers, same batched cost, same EWMA state
afterwards -- across plain engines, shards, replica groups and
heterogeneous spillover.  Likewise a router's prepared batch (query-side
work computed once, shared across shards, row-sliced for replicas) must
serve exactly what engines computing their own rows serve.  CI runs
this file as its own job before the coverage gate so an equivalence
break fails fast.
"""

import copy

import numpy as np
import pytest

from repro.core.pipeline import GPUSpilloverEngine, IMARSEngine, PreparedBatch
from repro.energy.accounting import Cost
from repro.models.youtube_dnn import RankingServingScorer, YouTubeDNNFiltering
from repro.nn.stable import stable_matmul
from repro.serving.faults import CRASH, FaultEvent, FaultPlan
from repro.serving.resilience import FaultContext, ResilienceConfig, attach_faults
from repro.serving.shard import (
    ReplicaGroup,
    ShardedEngine,
    _member_merge_cost,
    make_sharded_engine,
)


def _snapshot(results):
    return [
        (
            result.items,
            tuple(result.scores),
            result.candidate_count,
            result.cost,
            tuple(result.ledger),
        )
        for result in results
    ]


def _engine_pair(engine_cls, serving_setup, **kwargs):
    _, filtering, ranking, mapping, _ = serving_setup
    return (
        engine_cls(
            filtering, ranking, mapping, seed=0, use_vector_kernels=True, **kwargs
        ),
        engine_cls(
            filtering, ranking, mapping, seed=0, use_vector_kernels=False, **kwargs
        ),
    )


@pytest.mark.parametrize("engine_cls", [IMARSEngine, GPUSpilloverEngine])
class TestEngineBitIdentity:
    def test_batch_identical_to_scalar(self, engine_cls, serving_setup):
        *_, workload = serving_setup
        vectorised, scalar = _engine_pair(engine_cls, serving_setup)
        queries = (workload * 2)[:60]  # includes duplicate queries
        vec_batch = vectorised.serve_batch(queries)
        ref_batch = scalar.serve_batch(queries)
        assert _snapshot(vec_batch.results) == _snapshot(ref_batch.results)
        assert vec_batch.cost == ref_batch.cost
        # The EWMA telemetry both feed downstream routing from must match.
        assert (
            vectorised.expected_query_latency_s
            == scalar.expected_query_latency_s
        )
        assert (
            vectorised.expected_query_energy_pj
            == scalar.expected_query_energy_pj
        )

    def test_batch_of_one_matches_recommend(self, engine_cls, serving_setup):
        *_, workload = serving_setup
        vectorised, scalar = _engine_pair(engine_cls, serving_setup)
        query = workload[3]
        vec = vectorised.serve_batch([query]).results[0]
        ref = scalar.recommend_query(query)
        assert _snapshot([vec]) == _snapshot([ref])

    def test_empty_batch(self, engine_cls, serving_setup):
        vectorised, scalar = _engine_pair(engine_cls, serving_setup)
        assert vectorised.serve_batch([]).results == []
        assert vectorised.serve_batch([]).cost == scalar.serve_batch([]).cost


@pytest.mark.parametrize("vectorised", [True, False], ids=["vector", "scalar"])
def test_pipelined_cost_uses_each_ledgers_slowest_stage(vectorised, serving_setup):
    """The batch cost's cached per-count slowest stage equals folding each
    query's own ledger by category, as the pipelining model defines it."""
    _, filtering, ranking, mapping, workload = serving_setup
    engine = IMARSEngine(
        filtering, ranking, mapping, seed=0, use_vector_kernels=vectorised
    )
    batch = engine.serve_batch((workload * 2)[:30])
    results = batch.results
    assert len({result.candidate_count for result in results}) > 1
    latency_ns = results[0].cost.latency_ns
    for result in results[1:]:
        latency_ns += max(
            cost.latency_ns for cost in result.ledger.by_category().values()
        )
    assert batch.cost == Cost(
        energy_pj=sum(result.cost.energy_pj for result in results),
        latency_ns=latency_ns,
    )


class TestShardedBitIdentity:
    @pytest.mark.parametrize(
        "topology",
        [
            dict(num_shards=3),
            dict(num_shards=2, replicas_per_shard=2),
            dict(
                num_shards=2,
                spillover_replicas_per_shard=1,
                spillover_slo_s=0.5,
            ),
        ],
        ids=["shards", "replicas", "spillover"],
    )
    def test_topology(self, topology, serving_setup):
        _, filtering, ranking, mapping, workload = serving_setup
        queries = (workload * 2)[:50]
        batches = []
        for vectorised in (True, False):
            router = make_sharded_engine(
                "imars",
                filtering,
                ranking,
                mapping=mapping,
                seed=0,
                use_vector_kernels=vectorised,
                **topology,
            )
            batches.append(router.serve_batch(queries))
        assert _snapshot(batches[0].results) == _snapshot(batches[1].results)
        assert batches[0].cost == batches[1].cost


class TestAnalogFallsBackToScalar:
    def test_analog_disables_vector_kernels(self, serving_setup):
        _, filtering, ranking, mapping, workload = serving_setup
        engine = IMARSEngine(
            filtering,
            ranking,
            mapping,
            seed=0,
            analog_dnn=True,
            use_vector_kernels=True,
        )
        # Crossbar noise is drawn per recommend() call, so the analog
        # engine must serve through the scalar reference path.
        assert engine.use_vector_kernels is False
        batch = engine.serve_batch(workload[:3])
        assert len(batch.results) == 3


class TestMergeEnergyIdentity:
    def test_batched_merge_charges_equal_per_query(self, serving_setup):
        """Satellite pin: one cached merge price per entry count must
        charge exactly what the old per-query ``merge_cost`` call did."""
        _, filtering, ranking, mapping, workload = serving_setup
        router = make_sharded_engine(
            "imars", filtering, ranking, mapping=mapping, num_shards=3, seed=0
        )
        queries = workload[:12]
        # Gathered entries per query: each shard contributes its ranked
        # list (shard engines are deterministic, so re-serving them here
        # observes exactly what the router's scatter gathered).
        shard_results = [
            shard.serve_batch(queries).results for shard in router.shards
        ]
        entry_counts = [
            sum(len(results[position].items) for results in shard_results)
            for position in range(len(queries))
        ]
        batch = router.serve_batch(queries)
        merge_total = Cost()
        for position, (query, result) in enumerate(zip(queries, batch.results)):
            merge_entries = [
                cost for category, cost in result.ledger if category == "Merge"
            ]
            assert len(merge_entries) == 1
            # The cached price equals the direct platform model call ...
            assert merge_entries[0] == _member_merge_cost(
                router.shards, entry_counts[position]
            )
            merge_total = merge_total.then(merge_entries[0])
            # ... and a batch-of-1 serve charges the identical merge.
            solo = router.serve_batch([query]).results[0]
            solo_merge = [
                cost for category, cost in solo.ledger if category == "Merge"
            ]
            assert solo_merge == merge_entries
            assert solo.cost == result.cost
            assert solo.items == result.items
            assert solo.scores == result.scores
        # The batch merge bill is the sequential fold of per-query merges.
        scatter = Cost.concurrent(
            shard.serve_batch(queries).cost for shard in router.shards
        )
        assert batch.cost == scatter.then(merge_total)


class TestScorerConsistency:
    def test_score_paths_agree(self, serving_setup):
        _, filtering, ranking, mapping, workload = serving_setup
        engine = IMARSEngine(filtering, ranking, mapping, seed=0)
        scorer = engine._scorer
        assert isinstance(scorer, RankingServingScorer)
        rng = np.random.default_rng(0)
        users = rng.normal(size=(4, filtering.config.embedding_dim))
        contexts = np.asarray([workload[i].context for i in range(4)])
        items = rng.integers(0, scorer.num_items, size=4)
        constants = scorer.query_constants(users, contexts)
        paired = scorer.score_pairs(constants, items)
        grouped = scorer.score_grouped(constants, np.arange(4), items)
        np.testing.assert_array_equal(paired, grouped)
        for row in range(4):
            solo = scorer.score_query(
                users[row], np.asarray([items[row]]), contexts[row]
            )
            assert solo[0] == paired[row]


class TestStableMatmulRowStability:
    def test_rows_independent_of_batch(self):
        rng = np.random.default_rng(0)
        weights = rng.normal(size=(32, 1))  # the narrow CTR head shape
        inputs = rng.normal(size=(64, 32))
        full = stable_matmul(inputs, weights)
        for rows in (1, 2, 3, 63, 64):
            prefix = stable_matmul(inputs[:rows], weights)
            np.testing.assert_array_equal(prefix, full[:rows])


def _count_calls(monkeypatch, owner, name):
    """Wrap ``owner.name`` so every call bumps the returned counter."""
    calls = [0]
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def _faulted(router, plan):
    """``router`` with a fault plane (full resilience) attached."""
    attach_faults(router, FaultContext(plan, resilience=ResilienceConfig()))
    return router


_CRASH_REPLICA_0 = FaultPlan((FaultEvent(CRASH, 0.0, 1.0, shard=0, replica=0),))


class TestPreparedBatch:
    @pytest.mark.parametrize(
        "topology, plan",
        [
            (dict(num_shards=4), None),
            (dict(num_shards=4), FaultPlan(())),
            (dict(num_shards=2, replicas_per_shard=2), None),
            (dict(num_shards=2, replicas_per_shard=2), _CRASH_REPLICA_0),
            (
                dict(
                    num_shards=2,
                    spillover_replicas_per_shard=1,
                    spillover_slo_s=0.5,
                ),
                None,
            ),
        ],
        ids=["shards", "shards-empty-plan", "replicas", "replicas-crash", "spillover"],
    )
    def test_query_side_work_runs_once_per_batch(
        self, topology, plan, serving_setup, monkeypatch
    ):
        """One router batch runs the user tower and the ranking query
        constants once, however many shards, replicas, retries and
        failovers consume them."""
        _, filtering, ranking, mapping, workload = serving_setup
        router = make_sharded_engine(
            "imars", filtering, ranking, mapping=mapping, seed=0, **topology
        )
        if plan is not None:
            _faulted(router, plan)
        towers = _count_calls(monkeypatch, YouTubeDNNFiltering, "user_embedding")
        constants = _count_calls(monkeypatch, RankingServingScorer, "query_constants")
        for size in (1, 7):
            router.serve_batch(workload[:size])
        assert towers[0] == 2
        assert constants[0] == 2
        if plan is _CRASH_REPLICA_0:
            assert router._faults.counters["failovers"] > 0

    @pytest.mark.parametrize(
        "plan", [FaultPlan(()), _CRASH_REPLICA_0], ids=["empty-plan", "crash"]
    )
    def test_sliced_rows_match_self_computed(self, plan, serving_setup, monkeypatch):
        """A 2x2 replica fleet fed row slices of one prepared batch serves
        exactly what the same fleet serves when every engine computes its
        own rows (routers passing plain query lists)."""
        _, filtering, ranking, mapping, workload = serving_setup
        queries = (workload * 2)[:40]
        sizes = (40, 1, 13, 6)
        fleets = [
            _faulted(
                make_sharded_engine(
                    "imars",
                    filtering,
                    ranking,
                    mapping=mapping,
                    seed=0,
                    num_shards=2,
                    replicas_per_shard=2,
                ),
                plan,
            )
            for _ in range(2)
        ]
        prepared = [fleets[0].serve_batch(queries[:size]) for size in sizes]
        with monkeypatch.context() as patch:
            for router in (ShardedEngine, ReplicaGroup):
                patch.setattr(router, "prepare_batch", lambda self, batch: batch)
            own = [fleets[1].serve_batch(queries[:size]) for size in sizes]
        for shared, computed in zip(prepared, own):
            assert _snapshot(shared.results) == _snapshot(computed.results)
            assert shared.cost == computed.cost
        assert fleets[0]._faults.counters == fleets[1]._faults.counters
        for shard_a, shard_b in zip(fleets[0].shards, fleets[1].shards):
            assert shard_a.busy_s == shard_b.busy_s
            assert shard_a.assigned == shard_b.assigned

    def test_batch_for_other_models_is_recomputed(self, serving_setup):
        """Carried rows are used only by engines serving the very model
        objects they were computed from: rows prepared for equal-valued
        copies are ignored, even when they are garbage."""
        _, filtering, ranking, mapping, workload = serving_setup
        engine = IMARSEngine(filtering, ranking, mapping, seed=0)
        queries = workload[:9]
        expected = _snapshot(engine.serve_batch(queries).results)

        def garbage(filtering_model, ranking_model):
            honest = engine.prepare_batch(queries)
            return PreparedBatch(
                list(queries),
                honest.demographics,
                honest.contexts,
                np.zeros_like(honest.users),
                np.zeros_like(honest.constants),
                filtering_model,
                ranking_model,
            )

        for foreign in (
            garbage(copy.deepcopy(filtering), ranking),
            garbage(filtering, copy.deepcopy(ranking)),
        ):
            assert engine.prepare_batch(foreign) is not foreign
            assert _snapshot(engine.serve_batch(foreign).results) == expected
        # The identity check is what guards: rows claiming this engine's
        # own models are trusted as they are.
        own = garbage(filtering, ranking)
        assert engine.prepare_batch(own) is own
        assert _snapshot(engine.serve_batch(own).results) != expected

    def test_prepared_batch_is_a_query_sequence(self, serving_setup):
        _, filtering, ranking, mapping, workload = serving_setup
        engine = IMARSEngine(filtering, ranking, mapping, seed=0)
        queries = workload[:5]
        prepared = engine.prepare_batch(queries)
        assert len(prepared) == 5
        assert list(prepared) == list(queries)
        assert prepared[2] == queries[2]
        sub = prepared.take([1, 3])
        assert list(sub) == [queries[1], queries[3]]
        np.testing.assert_array_equal(sub.users, prepared.users[[1, 3]])
        np.testing.assert_array_equal(sub.constants, prepared.constants[[1, 3]])
        # The scalar reference path has nothing to share.
        scalar = IMARSEngine(
            filtering, ranking, mapping, seed=0, use_vector_kernels=False
        )
        assert scalar.prepare_batch(queries) is queries
