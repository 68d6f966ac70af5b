"""The optimizer service layer: fingerprints, plan cache, batching, pools."""

from __future__ import annotations

import dataclasses
import random
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.cluster.executors import PersistentProcessPoolExecutor
from repro.config import MULTI_OBJECTIVE, OptimizerSettings, PlanSpace
from repro.core.serial import best_plan, optimize_serial
from repro.query.generator import SteinbrunnGenerator
from repro.query.query import JoinGraphKind, Query
from repro.service import (
    OptimizerService,
    TieredPlanCache,
    canonicalize,
    fingerprint,
    remap_plan,
)
from repro.service.remap import invert
from tests.conftest import make_manual_query


def permute_query(query: Query, permutation: tuple[int, ...]) -> Query:
    """Relabel table numbers: table ``i`` becomes table ``permutation[i]``."""
    inverse = invert(permutation)
    tables = tuple(query.tables[inverse[new]] for new in range(query.n_tables))
    predicates = tuple(
        dataclasses.replace(
            predicate,
            left_table=permutation[predicate.left_table],
            right_table=permutation[predicate.right_table],
        )
        for predicate in query.predicates
    )
    return Query(tables=tables, predicates=predicates, name=f"{query.name}-relabeled")


def shuffled(n: int, seed: int) -> tuple[int, ...]:
    permutation = list(range(n))
    random.Random(seed).shuffle(permutation)
    return tuple(permutation)


class TestFingerprint:
    def test_invariant_under_relation_relabeling(self):
        settings = OptimizerSettings()
        for kind in (JoinGraphKind.STAR, JoinGraphKind.CHAIN, JoinGraphKind.CYCLE):
            query = SteinbrunnGenerator(21).query(7, kind)
            for seed in range(5):
                relabeled = permute_query(query, shuffled(query.n_tables, seed))
                assert fingerprint(query, settings) == fingerprint(relabeled, settings)

    def test_names_are_aliases(self):
        settings = OptimizerSettings()
        query = make_manual_query([100, 200, 300], [(0, 1, 0.1), (1, 2, 0.2)])
        renamed = Query(
            tables=tuple(
                dataclasses.replace(table, name=f"other{i}")
                for i, table in enumerate(query.tables)
            ),
            predicates=query.predicates,
            name="completely-different",
        )
        assert fingerprint(query, settings) == fingerprint(renamed, settings)

    def test_sensitive_to_statistics(self):
        settings = OptimizerSettings()
        query = make_manual_query([100, 200, 300], [(0, 1, 0.1), (1, 2, 0.2)])
        bigger = make_manual_query([100, 201, 300], [(0, 1, 0.1), (1, 2, 0.2)])
        resel = make_manual_query([100, 200, 300], [(0, 1, 0.1), (1, 2, 0.25)])
        rewired = make_manual_query([100, 200, 300], [(0, 1, 0.1), (0, 2, 0.2)])
        assert fingerprint(query, settings) != fingerprint(bigger, settings)
        assert fingerprint(query, settings) != fingerprint(resel, settings)
        assert fingerprint(query, settings) != fingerprint(rewired, settings)

    def test_sensitive_to_settings_and_workers(self):
        query = make_manual_query([100, 200, 300], [(0, 1, 0.1), (1, 2, 0.2)])
        linear = OptimizerSettings(plan_space=PlanSpace.LINEAR)
        bushy = OptimizerSettings(plan_space=PlanSpace.BUSHY)
        multi = OptimizerSettings(objectives=MULTI_OBJECTIVE, alpha=2.0)
        assert fingerprint(query, linear) != fingerprint(query, bushy)
        assert fingerprint(query, linear) != fingerprint(query, multi)
        # 1 worker and 2 workers resolve to different partition counts on a
        # 3-table linear query (1 vs 2): distinct runs, distinct keys.
        assert fingerprint(query, linear, 1) != fingerprint(query, linear, 2)

    def test_equivalent_parallelism_shares_a_fingerprint(self):
        # Regression: the fingerprint must hash the *resolved* partition
        # count, not the raw worker request.  A 6-table linear query admits
        # at most 2^(6//2) = 8 partitions, so requests for 8, 9, and 12
        # workers all run identically and must share one cache key —
        # previously each produced a spurious miss and a duplicate entry.
        query = SteinbrunnGenerator(29).query(6)
        settings = OptimizerSettings()
        reference = fingerprint(query, settings, 8)
        assert fingerprint(query, settings, 9) == reference
        assert fingerprint(query, settings, 12) == reference
        assert fingerprint(query, settings, 4) != reference

    def test_invariant_with_partial_symmetry(self):
        # Regression: the individualization target must be picked by a
        # labeling-invariant key.  This query has two symmetric classes of
        # equal size ({0,1} and {3,5} by cardinality/position), so a
        # tie-break on original table numbers canonicalized two labelings
        # of it differently.
        settings = OptimizerSettings()
        query = make_manual_query(
            [500, 500, 200, 200, 100, 200],
            [(0, 3, 0.1), (1, 3, 0.1), (2, 3, 0.1), (3, 4, 0.1), (3, 5, 0.1)],
        )
        relabeled = permute_query(query, (2, 4, 3, 5, 0, 1))
        assert fingerprint(query, settings) == fingerprint(relabeled, settings)
        for seed in range(6):
            shuffled_query = permute_query(query, shuffled(6, seed))
            assert fingerprint(query, settings) == fingerprint(shuffled_query, settings)

    def test_symmetric_query_has_stable_fingerprint(self):
        # All tables identical, clique-connected: maximal symmetry exercises
        # the individualization search rather than plain refinement.
        settings = OptimizerSettings()
        query = make_manual_query(
            [500] * 5, [(i, j, 0.1) for i in range(5) for j in range(i + 1, 5)]
        )
        for seed in range(4):
            relabeled = permute_query(query, shuffled(5, seed))
            assert fingerprint(query, settings) == fingerprint(relabeled, settings)

    def test_numbering_is_a_permutation(self):
        query = SteinbrunnGenerator(22).query(6)
        canonical = canonicalize(query)
        assert sorted(canonical.numbering) == list(range(6))
        plan = best_plan(optimize_serial(query))
        assert remap_plan(plan, canonical.numbering).mask == query.all_tables_mask


class TestMemoryLRU:
    def test_hits_and_misses_counted(self):
        cache = TieredPlanCache(memory_capacity=4)
        assert cache.get("a") is None
        cache.put("a", "plan-a")
        assert cache.get("a") == "plan-a"
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        assert cache.stats.hit_rate == 0.5

    def test_lru_eviction(self):
        cache = TieredPlanCache(memory_capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh "a"; "b" is now least recently used
        cache.put("c", 3)
        assert "a" in cache and "c" in cache and "b" not in cache
        assert cache.stats.evictions == 1
        assert len(cache) == 2

    def test_peek_does_not_touch_stats_or_recency(self):
        cache = TieredPlanCache(memory_capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.peek("a") == 1
        assert cache.peek("nope") is None
        assert cache.stats.lookups == 0
        cache.put("c", 3)  # "a" was NOT refreshed by peek -> evicted first
        assert "a" not in cache

    def test_rejects_silly_capacity(self):
        # capacity=0 is the supported cache-disabled mode (see
        # test_cache_boundaries.py); only negatives are nonsense.
        with pytest.raises(ValueError):
            TieredPlanCache(memory_capacity=-1)


class TestOptimizerService:
    def test_miss_then_hit_same_plans(self, star6):
        service = OptimizerService(n_workers=4)
        first = service.optimize(star6)
        second = service.optimize(star6)
        assert not first.cached and second.cached
        assert second.fingerprint == first.fingerprint
        assert [plan.cost for plan in second.plans] == [
            plan.cost for plan in first.plans
        ]
        assert first.best.cost == best_plan(optimize_serial(star6)).cost

    def test_isomorphic_hit_is_remapped_to_request_numbering(self):
        query = SteinbrunnGenerator(23).query(8)
        relabeled = permute_query(query, shuffled(8, seed=9))
        service = OptimizerService(n_workers=4)
        service.optimize(query)
        served = service.optimize(relabeled)
        assert served.cached
        assert served.best.mask == relabeled.all_tables_mask
        # The remapped plan is optimal for the relabeled query; costs agree
        # with a from-scratch run up to float accumulation order.
        reference = best_plan(optimize_serial(relabeled))
        assert served.best.cost[0] == pytest.approx(reference.cost[0], rel=1e-9)
        assert sorted(served.best.join_order()) == list(range(8))

    def test_remapped_plan_tree_is_internally_consistent(self, star6):
        canonical = canonicalize(star6)
        plan = best_plan(optimize_serial(star6))
        remapped = remap_plan(plan, canonical.numbering)
        assert remapped.cost == plan.cost
        assert remapped.rows == plan.rows
        assert remapped.mask == star6.all_tables_mask
        back = remap_plan(remapped, invert(canonical.numbering))
        assert back == plan

    def test_equivalent_parallelism_shares_one_cache_entry(self):
        # workers=8, 9, and 12 all clamp to 8 partitions on a 6-table linear
        # query: one optimization, one resident entry, two cache hits.
        query = SteinbrunnGenerator(30).query(6)
        service = OptimizerService(n_workers=8)
        first = service.optimize(query)
        for workers in (9, 12):
            served = service.optimize(query, n_workers=workers)
            assert served.cached
            assert served.fingerprint == first.fingerprint
            assert served.n_partitions == first.n_partitions
        assert len(service.cache) == 1

    def test_cache_eviction_bounded(self):
        generator = SteinbrunnGenerator(24)
        service = OptimizerService(n_workers=2, cache_capacity=2)
        for __ in range(4):
            service.optimize(generator.query(4))
        assert len(service.cache) == 2
        assert service.cache.stats.evictions == 2

    def test_concurrent_requests_match_serial(self):
        # A bare service has no singleflight (that is the gateway's job), so
        # a racing herd may run a fingerprint twice — but every answer is
        # still serial optimization's.
        generator = SteinbrunnGenerator(31)
        queries = [generator.query(6) for __ in range(3)]
        references = [best_plan(optimize_serial(query)).cost for query in queries]
        service = OptimizerService(n_workers=4)
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(service.optimize, queries * 8))
        assert [result.best.cost for result in results] == references * 8

    def test_multi_objective_frontier_cached(self, star6, multi_settings):
        service = OptimizerService(n_workers=4, settings=multi_settings)
        first = service.optimize(star6)
        second = service.optimize(star6)
        assert second.cached
        assert {plan.cost for plan in second.plans} == {
            plan.cost for plan in first.plans
        }
        reference = optimize_serial(star6, multi_settings)
        assert {plan.cost for plan in first.plans} == {
            plan.cost for plan in reference.plans
        }


class TestOptimizeBatch:
    def test_batch_matches_serial_optimize(self, linear_settings, bushy_settings):
        generator = SteinbrunnGenerator(25)
        queries = [generator.query(6) for __ in range(3)]
        for settings in (linear_settings, bushy_settings):
            service = OptimizerService(n_workers=4, settings=settings)
            results = service.optimize_batch(queries)
            warm = service.optimize_batch(queries)
            assert not any(result.cached for result in results)
            assert all(result.cached for result in warm)
            for query, result, hit in zip(queries, results, warm):
                reference = best_plan(optimize_serial(query, settings)).cost
                assert result.best.cost == reference
                assert hit.best.cost == reference

    def test_duplicates_within_batch_computed_once(self):
        generator = SteinbrunnGenerator(26)
        query = generator.query(6)
        relabeled = permute_query(query, shuffled(6, seed=3))
        other = generator.query(6)
        service = OptimizerService(n_workers=4)
        results = service.optimize_batch([query, other, query, relabeled])
        assert [result.cached for result in results] == [False, False, True, True]
        assert results[2].best.cost == results[0].best.cost
        assert results[3].fingerprint == results[0].fingerprint
        # Duplicates served from the batch count as hits, so the operator's
        # hit rate agrees with the ``cached`` flags above.
        assert service.cache.stats.hits == 2
        assert service.cache.stats.misses == 2

    def test_batch_then_single_hits(self, chain5):
        service = OptimizerService(n_workers=4)
        service.optimize_batch([chain5])
        assert service.optimize(chain5).cached


class TestRunManyErrorHandling:
    def test_broken_process_pool_imported_eagerly(self):
        # Regression: the except clause used to evaluate
        # ``concurrent.futures.process.BrokenProcessPool`` lazily inside the
        # handler; when that submodule was never imported, the handler
        # itself raised AttributeError and masked the real error.
        from concurrent.futures.process import BrokenProcessPool

        import repro.cluster.executors as executors_module

        assert executors_module.BrokenProcessPool is BrokenProcessPool


class TestPersistentPool:
    def test_pool_reused_across_queries(self):
        generator = SteinbrunnGenerator(27)
        queries = [generator.query(6) for __ in range(3)]
        with PersistentProcessPoolExecutor(max_workers=2) as executor:
            service = OptimizerService(n_workers=4, executor=executor)
            for query in queries:
                result = service.optimize(query)
                assert result.best.cost == best_plan(optimize_serial(query)).cost
            assert executor.pools_started == 1
            assert executor.tasks_run == sum(
                service.optimize(query).n_partitions for query in queries
            )

    def test_batch_interleaves_onto_one_pool(self):
        generator = SteinbrunnGenerator(28)
        queries = [generator.query(6) for __ in range(4)]
        with PersistentProcessPoolExecutor(max_workers=2) as executor:
            with OptimizerService(n_workers=2, executor=executor) as service:
                results = service.optimize_batch(queries)
            assert executor.pools_started == 1
            for query, result in zip(queries, results):
                assert result.best.cost == best_plan(optimize_serial(query)).cost

    def test_map_partitions_matches_serial(self, star6, linear_settings):
        with PersistentProcessPoolExecutor(max_workers=2) as executor:
            pooled = executor.map_partitions(star6, 4, linear_settings)
        serial = [optimize_serial(star6, linear_settings)]  # reference flavor only
        assert [result.stats.partition_id for result in pooled] == [0, 1, 2, 3]
        best = min(
            (plan for result in pooled for plan in result.plans),
            key=lambda plan: plan.cost[0],
        )
        assert best.cost == best_plan(serial[0]).cost
