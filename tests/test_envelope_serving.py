"""θ-free canonicalization and envelope serving, across every front door.

The refactor's contract has three parts, and each gets its own section:

* **θ-free keys** — a parametric request's θ never reaches the fingerprint,
  so every θ of one query shape maps to one cache entry;
* **envelope entries** — a parametric miss materializes the whole
  lower-envelope frontier plus its breakpoint index once, and every later
  θ-specific request binds against it with zero additional DP runs — through
  the plain service, the threaded sharded gateway, the asyncio front-end,
  and the out-of-process shard server alike;
* **bit-identity** — a θ bound from a cached envelope is the *same plan*
  a fresh optimization at that θ produces, differentially checked on a
  seeded 200-request sweep, and envelope entries survive the disk-tier and
  network wire codecs bit-identically.
"""

from __future__ import annotations

import dataclasses
import json
import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.pqo import optimize_parametric, parametric_settings
from repro.config import OptimizerSettings
from repro.core.envelope import (
    FULL_THETA_DOMAIN,
    EnvelopeIndex,
    best_index_at,
    build_envelope_index,
    theta_selection_key,
)
from repro.cost.parametric import envelope_filter, switching_points
from repro.cluster.serialization import settings_from_wire, settings_to_wire
from repro.plans.plan import JoinPlan, ScanPlan
from repro.query.generator import SteinbrunnGenerator
from repro.query.query import JoinGraphKind
from repro.service import (
    ENVELOPE_ENTRY,
    SCALAR_ENTRY,
    DiskTier,
    InvalidationPredicate,
    OptimizerService,
    ShardedOptimizerGateway,
    TieredPlanCache,
    canonicalize,
    fingerprint,
)
from repro.service.fingerprint import CanonicalForm
from repro.service.net import result_from_wire, result_to_wire
from repro.service.remap import invert, remap_plan
from repro.service.service import relabel
from repro.service.tiers import CacheEntry, entry_from_wire, entry_to_wire
from tests.test_service import permute_query, shuffled

PARAMETRIC = parametric_settings()


def query_pool(seed: int, count: int, tables=(4, 6)):
    """A deterministic pool of mixed-topology queries."""
    rng = random.Random(seed)
    generator = SteinbrunnGenerator(seed, clustered_tables=True)
    kinds = (JoinGraphKind.STAR, JoinGraphKind.CHAIN, JoinGraphKind.CYCLE)
    return [
        generator.query(rng.randint(*tables), rng.choice(kinds))
        for __ in range(count)
    ]


def oracle_bind(frontier, theta):
    """The reference θ-binding over an independent frontier (plan equality)."""
    return frontier[
        min(
            range(len(frontier)),
            key=lambda i: theta_selection_key(frontier[i].cost, theta),
        )
    ]


# ------------------------------------------------------------- θ-free keys


class TestThetaFreeFingerprint:
    def test_every_theta_shares_one_fingerprint(self):
        query = query_pool(3, 1)[0]
        unbound = fingerprint(query, PARAMETRIC, 4)
        assert {
            fingerprint(query, PARAMETRIC.replace(theta=theta), 4)
            for theta in (0.0, 0.25, 0.5, 0.75, 1.0)
        } == {unbound}

    def test_parametric_and_plain_do_not_collide(self):
        query = query_pool(3, 1)[0]
        assert fingerprint(query, PARAMETRIC, 4) != fingerprint(
            query, OptimizerSettings(), 4
        )

    def test_theta_requires_parametric(self):
        with pytest.raises(ValueError, match="parametric"):
            OptimizerSettings(theta=0.5)

    @pytest.mark.parametrize("theta", [-0.1, 1.1, 7.0])
    def test_theta_domain_validated(self, theta):
        with pytest.raises(ValueError):
            PARAMETRIC.replace(theta=theta)

    def test_without_theta(self):
        bound = PARAMETRIC.replace(theta=0.4)
        assert bound.without_theta() == PARAMETRIC
        # Already unbound: identity, not a copy.
        assert PARAMETRIC.without_theta() is PARAMETRIC


# --------------------------------------------------------- envelope index


def random_frontiers(seed: int, count: int):
    """Seeded synthetic envelope-filtered cost frontiers of varied size."""
    rng = random.Random(seed)
    frontiers = []
    while len(frontiers) < count:
        lines = [
            (rng.uniform(0, 100), rng.uniform(0, 100))
            for __ in range(rng.randint(1, 9))
        ]
        keep = envelope_filter(lines)  # returns surviving *indices*
        if keep:
            frontiers.append([lines[i] for i in keep])
    return frontiers


class TestEnvelopeIndex:
    def test_select_matches_reference_everywhere(self):
        rng = random.Random(99)
        for costs in random_frontiers(17, 60):
            index = build_envelope_index_from_costs(costs)
            probes = [0.0, 1.0, *(rng.random() for __ in range(20))]
            # Exact breakpoints are the adversarial probes: two owners tie.
            probes.extend(index.breakpoints)
            for theta in probes:
                assert index.select(costs, theta) == best_index_at(costs, theta)

    def test_every_frontier_plan_owns_a_segment(self):
        # envelope_filter keeps only plans that strictly win somewhere, so
        # the index must reference every position — the guarantee that makes
        # adjacent-segment candidate lookup in select() sufficient.
        for costs in random_frontiers(23, 40):
            index = build_envelope_index_from_costs(costs)
            assert set(index.segments) == set(range(len(costs)))

    def test_wire_round_trip_is_bit_identical(self):
        for costs in random_frontiers(31, 25):
            index = build_envelope_index_from_costs(costs)
            decoded = EnvelopeIndex.from_wire(
                json.loads(json.dumps(index.to_wire()))
            )
            assert decoded == index
            for theta in (0.0, 0.5, 1.0, *index.breakpoints):
                assert decoded.select(costs, theta) == index.select(costs, theta)

    def test_validation_rejects_malformed_indexes(self):
        with pytest.raises(ValueError, match="segment owners"):
            EnvelopeIndex(breakpoints=(0.5,), segments=(0,))
        with pytest.raises(ValueError, match="sorted"):
            EnvelopeIndex(breakpoints=(0.7, 0.3), segments=(0, 1, 0))
        with pytest.raises(ValueError, match=r"\(0, 1\)"):
            EnvelopeIndex(breakpoints=(1.5,), segments=(0, 1))

    def test_empty_frontier_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            best_index_at([], 0.5)
        with pytest.raises(ValueError, match="empty"):
            build_envelope_index([])


def build_envelope_index_from_costs(costs):
    """Index synthetic cost vectors without building Plan objects."""
    points = switching_points(costs)
    bounds = [0.0, *points, 1.0]
    return EnvelopeIndex(
        breakpoints=tuple(points),
        segments=tuple(
            best_index_at(costs, (low + high) / 2.0)
            for low, high in zip(bounds, bounds[1:])
        ),
    )


# ------------------------------------------------------- the answer function


def left_deep_plan(order, cost):
    """A left-deep join over ``order`` (table numbers) costing ``cost``."""
    plan = ScanPlan(mask=1 << order[0], rows=1.0, cost=cost, order=None, table=order[0])
    for table in order[1:]:
        scan = ScanPlan(mask=1 << table, rows=1.0, cost=cost, order=None, table=table)
        plan = JoinPlan(
            mask=plan.mask | scan.mask, rows=1.0, cost=cost, order=None,
            left=plan, right=scan,
        )
    return plan


@st.composite
def envelope_entries(draw):
    """A synthetic envelope entry over 2–6 tables: one random left-deep
    plan per cost vector of a random envelope-filtered frontier."""
    n_tables = draw(st.integers(2, 6))
    cost = st.floats(0.0, 100.0, allow_nan=False)
    lines = draw(st.lists(st.tuples(cost, cost), min_size=1, max_size=9))
    plans = [
        left_deep_plan(draw(st.permutations(range(n_tables))), lines[index])
        for index in envelope_filter(lines)
    ]
    return n_tables, CacheEntry(
        canonical_plans=plans,
        n_partitions=1,
        backend_used="synthetic",
        kind=ENVELOPE_ENTRY,
        envelope=build_envelope_index(plans),
    )


class TestAnswerFunction:
    """``OptimizerService.answer`` is the one θ-bind + relabel site."""

    @settings(max_examples=150, deadline=None)
    @given(drawn=envelope_entries(), data=st.data())
    def test_answer_commutes_with_relabeling_and_matches_linear_reference(
        self, drawn, data
    ):
        n_tables, entry = drawn
        theta = data.draw(
            st.sampled_from([None, 0.0, 1.0, *entry.envelope.breakpoints])
        )
        form_a, form_b = (
            CanonicalForm("", tuple(data.draw(st.permutations(range(n_tables)))))
            for __ in range(2)
        )
        service = OptimizerService()
        answer_a = service.answer(entry, form_a, "k", theta)
        answer_b = service.answer(entry, form_b, "k", theta)
        # Answering in numbering A and relabeling A→B is answering in B.
        a_to_b = tuple(invert(form_b.numbering)[c] for c in form_a.numbering)
        assert answer_b == dataclasses.replace(
            answer_a, plans=[remap_plan(plan, a_to_b) for plan in answer_a.plans]
        )
        # Without an envelope index (a pre-envelope log's entry) the linear
        # reference rule answers bit-identically.
        unindexed = dataclasses.replace(entry, kind=SCALAR_ENTRY, envelope=None)
        assert service.answer(unindexed, form_b, "k", theta) == answer_b
        expected = entry.canonical_plans
        if theta is not None:
            costs = [plan.cost for plan in expected]
            expected = [expected[best_index_at(costs, theta)]]
        to_b = invert(form_b.numbering)
        assert answer_b.plans == [remap_plan(plan, to_b) for plan in expected]
        assert answer_b.theta == theta and answer_b.cached
        assert service.envelope_hits == (0 if theta is None else 3)


# ------------------------------------------------------------ render memo


def multi_segment_query():
    """A pool query whose envelope has two or more segments."""
    with OptimizerService(n_workers=1, settings=PARAMETRIC) as service:
        for query in query_pool(5, 30):
            service.optimize(query)
            if service.cache.peek(fingerprint(query, PARAMETRIC, 1)).envelope.breakpoints:
                return query
    raise AssertionError("no multi-segment envelope in the pool")


class TestRenderMemo:
    """``answer`` relabels once per (entry, θ slot, numbering) into ``render_memo``."""

    @pytest.fixture(scope="class")
    def query(self):
        return multi_segment_query()

    @staticmethod
    def entry_of(service, query):
        return service.cache.peek(fingerprint(query, PARAMETRIC, 1))

    def test_repeat_shares_plans_in_a_new_list(self, query):
        with OptimizerService(n_workers=1, settings=PARAMETRIC) as service:
            service.optimize(query)
            first, second = (service.optimize(query) for __ in range(2))
            assert second.plans is not first.plans
            assert all(a is b for a, b in zip(first.plans, second.plans, strict=True))

    def test_mutating_an_answer_never_leaks(self, query):
        with OptimizerService(n_workers=1, settings=PARAMETRIC) as service:
            reference = list(service.optimize(query).plans)
            mutated = service.optimize(query)
            mutated.plans.reverse()
            mutated.plans.append(mutated.plans[0])
            assert service.optimize(query).plans == reference
            mutated = service.optimize(query)
            mutated.plans.clear()
            assert service.optimize(query).plans == reference

    def test_numberings_interleaved(self, query):
        relabelled = permute_query(query, shuffled(query.n_tables, seed=4))
        with OptimizerService(n_workers=1, settings=PARAMETRIC) as service:
            service.optimize(query)
            entry = self.entry_of(service, query)
            forms = {q: canonicalize(q) for q in (query, relabelled)}
            assert forms[query].numbering != forms[relabelled].numbering
            for requester in (query, relabelled, relabelled, query, relabelled):
                served = service.optimize(requester)
                assert served.plans == relabel(
                    entry.canonical_plans, forms[requester].numbering
                )
                assert served.best.mask == requester.all_tables_mask
                assert entry.render_memo[None][0] == forms[requester].numbering

    def test_theta_slots_interleaved(self, query):
        with OptimizerService(n_workers=1, settings=PARAMETRIC) as service:
            service.optimize(query)
            entry = self.entry_of(service, query)
            breakpoints = entry.envelope.breakpoints
            thetas = (breakpoints[0] / 2, (breakpoints[-1] + 1.0) / 2)
            slots = [entry.select_index(theta) for theta in thetas]
            assert slots[0] != slots[1]
            numbering = canonicalize(query).numbering
            for theta in (*thetas, *thetas, thetas[1], thetas[0]):
                served = service.optimize(query, PARAMETRIC.replace(theta=theta))
                chosen = entry.canonical_plans[entry.select_index(theta)]
                assert served.plans == relabel([chosen], numbering)
                assert served.theta == theta
            assert set(entry.render_memo) == {None, *slots}  # None: the fill above

    def test_fresh_entries_start_empty(self, query, tmp_path):
        def rendered(service):
            service.optimize(query)
            entry = self.entry_of(service, query)
            assert entry is not None and entry.render_memo
            return entry

        with OptimizerService(
            n_workers=1,
            settings=PARAMETRIC,
            cache=TieredPlanCache(memory_capacity=1, disk=DiskTier(tmp_path / "c.log")),
        ) as service:
            entry = rendered(service)
            # A copy does not share the memo (``init=False``).
            assert dataclasses.replace(entry).render_memo == {}
            # Demote (another shape takes the one memory slot), read the
            # disk record back, promote it: a new object, an empty memo.
            other = query_pool(6, 1)[0]
            key = fingerprint(query, PARAMETRIC, 1)
            assert fingerprint(other, PARAMETRIC, 1) != key
            service.optimize(other)
            assert self.entry_of(service, query) is None
            promoted = service.cache.get(key)
            assert promoted is not entry and promoted.render_memo == {}
            assert rendered(service) is promoted
            # Invalidate and re-run: the new entry renders afresh.
            assert service.cache.invalidate(InvalidationPredicate())
            assert not service.optimize(query).cached
            rerun = self.entry_of(service, query)
            assert rerun is not promoted and rerun is not entry
            assert list(rerun.render_memo) == [None]

    def test_canonical_none_returns_the_entrys_own_plans(self, query):
        with OptimizerService(n_workers=1, settings=PARAMETRIC) as service:
            service.optimize(query)
            entry = self.entry_of(service, query)
            key = fingerprint(query, PARAMETRIC, 1)
            unbound = service.answer(entry, None, key, None)
            assert all(
                a is b for a, b in zip(unbound.plans, entry.canonical_plans, strict=True)
            )
            for theta in (0.0, 0.5, 1.0):
                [plan] = service.answer(entry, None, key, theta).plans
                assert plan is entry.canonical_plans[entry.select_index(theta)]

    def test_threads_on_one_key_with_two_numberings(self, query):
        requesters = [query, permute_query(query, shuffled(query.n_tables, seed=9))]
        with OptimizerService(n_workers=1, settings=PARAMETRIC) as service:
            service.optimize(query)
            entry = self.entry_of(service, query)
            expected = [
                relabel(entry.canonical_plans, canonicalize(q).numbering)
                for q in requesters
            ]
            barrier = threading.Barrier(8, timeout=30)

            def worker(index):
                barrier.wait()
                for round_ in range(50):
                    which = (index + round_) % 2
                    served = service.optimize(requesters[which])
                    # A memo slot torn between the two numberings would
                    # hand one requester the other's plans.
                    assert served.cached and served.plans == expected[which]

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                with ThreadPoolExecutor(max_workers=8) as pool:
                    for future in [pool.submit(worker, i) for i in range(8)]:
                        future.result(timeout=60)
            finally:
                sys.setswitchinterval(interval)
            assert service.cache.snapshot().misses == 1


# ------------------------------------------------------- service envelope


class TestServiceEnvelopes:
    def test_parametric_miss_materializes_envelope_entry(self):
        query = query_pool(5, 1)[0]
        with OptimizerService(n_workers=1, settings=PARAMETRIC) as service:
            service.optimize(query)
            entry = service.cache.peek(fingerprint(query, PARAMETRIC, 1))
            assert entry.kind == ENVELOPE_ENTRY
            assert entry.envelope is not None
            assert len(entry.envelope.segments) == len(entry.envelope.breakpoints) + 1
            assert entry.provenance.theta_domain == FULL_THETA_DOMAIN

    def test_plain_miss_stays_scalar(self):
        query = query_pool(5, 1)[0]
        with OptimizerService(n_workers=1) as service:
            service.optimize(query)
            entry = service.cache.peek(fingerprint(query, service.settings, 1))
            assert entry.kind == SCALAR_ENTRY
            assert entry.envelope is None
            assert entry.provenance.theta_domain is None

    def test_bound_request_returns_single_plan_with_theta(self):
        query = query_pool(5, 1)[0]
        with OptimizerService(n_workers=1, settings=PARAMETRIC) as service:
            unbound = service.optimize(query)
            assert unbound.theta is None
            bound = service.optimize(query, PARAMETRIC.replace(theta=0.3))
            assert bound.theta == 0.3
            assert len(bound.plans) == 1
            assert bound.cached

    def test_leader_bound_request_runs_one_dp_and_binds(self):
        # A θ-bound request on a cold cache: the DP runs θ-free (the entry
        # holds the full frontier) but the requester gets its bound plan.
        query = query_pool(8, 1)[0]
        with OptimizerService(n_workers=1, settings=PARAMETRIC) as service:
            bound = service.optimize(query, PARAMETRIC.replace(theta=0.6))
            assert not bound.cached
            assert bound.theta == 0.6
            assert len(bound.plans) == 1
            entry = service.cache.peek(fingerprint(query, PARAMETRIC, 1))
            assert entry.kind == ENVELOPE_ENTRY
            assert len(entry.canonical_plans) >= 1
            # The leader's own bind does not count as an envelope hit...
            assert service.envelope_hits == 0
            # ...but the next θ does.
            service.optimize(query, PARAMETRIC.replace(theta=0.1))
            assert service.envelope_hits == 1

    def test_differential_oracle_200_request_sweep(self):
        """Acceptance sweep: 200 seeded θ-requests, every answer bit-identical
        to an independent per-θ optimization, zero DP runs after the first
        materialization per shape."""
        pool = query_pool(41, 10, tables=(4, 6))
        rng = random.Random(41)
        oracles = {
            query.name: optimize_parametric(query).plans for query in pool
        }
        requests = []
        for __ in range(200):
            query = rng.choice(pool)
            # Mix uniform θs with exact switching θs (the tie cases).
            frontier = oracles[query.name]
            switching = switching_points([plan.cost for plan in frontier])
            theta = (
                rng.choice(switching)
                if switching and rng.random() < 0.3
                else rng.random()
            )
            requests.append((query, theta))

        with OptimizerService(n_workers=1, settings=PARAMETRIC) as service:
            for query in pool:  # materialize one envelope per shape
                service.optimize(query)
            stats_before = service.cache.snapshot()
            for query, theta in requests:
                served = service.optimize(query, PARAMETRIC.replace(theta=theta))
                assert served.cached
                assert len(served.plans) == 1
                expected = oracle_bind(oracles[query.name], theta)
                assert served.plans[0] == expected, (query.name, theta)
            stats_after = service.cache.snapshot()
            # Every one of the 200 was a cache hit — zero additional DP runs.
            assert stats_after.misses == stats_before.misses
            assert stats_after.hits == stats_before.hits + 200
            assert service.envelope_hits == 200


# ----------------------------------------------------- gateway replays


class TestGatewayThetaReplay:
    def test_threaded_replay_zero_additional_dp_runs(self):
        from repro.bench.traffic import (
            TrafficProfile,
            generate_traffic,
            replay_threaded,
            unique_fingerprints,
        )

        profile = TrafficProfile(
            n_requests=96,
            n_unique=8,
            tables=(4, 5),
            features=(("parametric", 1.0),),
            parametric_thetas=(0.0, 0.2, 0.4, 0.6, 0.8, 1.0),
            seed=29,
        )
        schedule = generate_traffic(profile)
        assert any(request.theta is not None for request in schedule)
        expected_runs = len(unique_fingerprints(schedule))
        with ShardedOptimizerGateway(n_shards=3, settings=PARAMETRIC) as gateway:
            report = replay_threaded(gateway, schedule, n_clients=6)
            stats = gateway.stats()
        # θ never splits a fingerprint: DP runs == unique shapes exactly.
        assert stats.optimizations == expected_runs
        assert stats.envelope_hits > 0
        for request, result in zip(schedule, report.results):
            assert result.theta == request.theta
            if request.theta is not None:
                assert len(result.plans) == 1

    def test_threaded_bound_answers_match_fresh_optimization(self):
        pool = query_pool(61, 4, tables=(4, 5))
        oracles = {q.name: optimize_parametric(q).plans for q in pool}
        thetas = (0.0, 0.15, 0.5, 0.85, 1.0)
        with ShardedOptimizerGateway(
            n_shards=2, n_workers=1, settings=PARAMETRIC
        ) as gateway:
            for query in pool:
                for theta in thetas:
                    served = gateway.optimize(
                        query, PARAMETRIC.replace(theta=theta)
                    )
                    assert served.plans[0] == oracle_bind(
                        oracles[query.name], theta
                    ), (query.name, theta)
            assert gateway.stats().optimizations == len(pool)

    def test_concurrent_distinct_thetas_coalesce_to_one_run(self):
        # N cold requests for different θs of one shape race: singleflight
        # must collapse them onto one envelope-producing DP run, and each
        # follower binds its own θ.
        query = query_pool(71, 1, tables=(5, 5))[0]
        oracle = optimize_parametric(query).plans
        thetas = [0.05, 0.2, 0.35, 0.5, 0.65, 0.8, 0.95]
        results: dict[float, object] = {}
        errors: list[BaseException] = []
        with ShardedOptimizerGateway(
            n_shards=1, n_workers=1, settings=PARAMETRIC
        ) as gateway:
            barrier = threading.Barrier(len(thetas))

            def request(theta: float) -> None:
                barrier.wait()
                try:
                    results[theta] = gateway.optimize(
                        query, PARAMETRIC.replace(theta=theta)
                    )
                except BaseException as error:  # noqa: BLE001
                    errors.append(error)

            threads = [
                threading.Thread(target=request, args=(theta,))
                for theta in thetas
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            stats = gateway.stats()
        assert not errors
        assert stats.optimizations == 1
        for theta in thetas:
            assert results[theta].plans[0] == oracle_bind(oracle, theta)

    def test_async_replay_zero_additional_dp_runs(self):
        import asyncio

        from repro.bench.traffic import (
            TrafficProfile,
            generate_traffic,
            replay_async,
            unique_fingerprints,
        )
        from repro.service import AsyncOptimizerGateway

        profile = TrafficProfile(
            n_requests=96,
            n_unique=8,
            tables=(4, 5),
            features=(("parametric", 1.0),),
            parametric_thetas=(0.1, 0.3, 0.5, 0.7, 0.9),
            seed=37,
        )
        schedule = generate_traffic(profile)
        expected_runs = len(unique_fingerprints(schedule))

        async def run():
            async with AsyncOptimizerGateway(
                n_shards=3, settings=PARAMETRIC, tenant_share=1.0
            ) as front:
                report = await replay_async(front, schedule, n_clients=6)
                return report, front.stats()

        report, stats = asyncio.run(run())
        assert stats.gateway.optimizations == expected_runs
        assert stats.gateway.envelope_hits > 0
        for request, result in zip(schedule, report.results):
            assert result.theta == request.theta

    def test_async_bound_answers_match_fresh_optimization(self):
        import asyncio

        from repro.service import AsyncOptimizerGateway

        pool = query_pool(83, 3, tables=(4, 5))
        oracles = {q.name: optimize_parametric(q).plans for q in pool}
        thetas = (0.0, 0.25, 0.5, 0.75, 1.0)

        async def run():
            async with AsyncOptimizerGateway(
                n_shards=2, n_workers=1, settings=PARAMETRIC, tenant_share=1.0
            ) as front:
                # Different θs of one shape submitted concurrently coalesce.
                for query in pool:
                    served = await asyncio.gather(
                        *[
                            front.optimize(query, PARAMETRIC.replace(theta=theta))
                            for theta in thetas
                        ]
                    )
                    for theta, result in zip(thetas, served):
                        assert result.plans[0] == oracle_bind(
                            oracles[query.name], theta
                        ), (query.name, theta)
                return front.stats()

        stats = asyncio.run(run())
        assert stats.gateway.optimizations == len(pool)


# ------------------------------------------------------- network serving


class TestNetworkThetaServing:
    def test_shard_server_binds_from_cached_envelope(self, tmp_path):
        from repro.service import NetworkOptimizerGateway
        from tests.test_net import ServerThread

        pool = query_pool(97, 3, tables=(4, 5))
        oracles = {q.name: optimize_parametric(q).plans for q in pool}
        thetas = (0.0, 0.2, 0.5, 0.8, 1.0)
        listen = f"unix:{tmp_path / 'shard.sock'}"
        with ServerThread(listen, n_workers=1, settings=PARAMETRIC) as running:
            assert running.server.address is not None
            gateway = NetworkOptimizerGateway(
                [listen], settings=PARAMETRIC, n_workers=1
            )
            try:
                for query in pool:
                    for theta in thetas:
                        served = gateway.optimize(
                            query, PARAMETRIC.replace(theta=theta)
                        )
                        assert served.theta == theta
                        assert len(served.plans) == 1
                        assert served.plans[0] == oracle_bind(
                            oracles[query.name], theta
                        ), (query.name, theta)
                stats = gateway.stats()
            finally:
                gateway.close()
        (shard_stats,) = stats["shards"].values()
        # One DP run per shape server-side; every other θ answered from the
        # cached envelope.
        assert shard_stats["optimizations"] == len(pool)
        assert shard_stats["envelope_hits"] == len(pool) * (len(thetas) - 1)


# ------------------------------------------------------------ wire codecs


def make_envelope_entry(seed: int = 47):
    """A real envelope entry produced through the service."""
    query = query_pool(seed, 1, tables=(5, 6))[0]
    with OptimizerService(n_workers=1, settings=PARAMETRIC) as service:
        service.optimize(query)
        return service.cache.peek(fingerprint(query, PARAMETRIC, 1))


class TestEnvelopeWire:
    def test_entry_round_trips_bit_identically(self):
        entry = make_envelope_entry()
        decoded = entry_from_wire(json.loads(json.dumps(entry_to_wire(entry))))
        assert decoded.kind == ENVELOPE_ENTRY
        assert decoded.envelope == entry.envelope
        assert decoded.canonical_plans == entry.canonical_plans
        assert decoded.provenance == entry.provenance
        # Both sides bind every θ — including exact breakpoints — the same.
        for theta in (0.0, 0.33, 1.0, *entry.envelope.breakpoints):
            assert decoded.select_index(theta) == entry.select_index(theta)

    def test_scalar_entry_wire_stays_backward_compatible(self):
        entry = make_envelope_entry()
        wire = entry_to_wire(entry)
        # A pre-envelope record has neither field; decode must default.
        wire.pop("kind")
        wire.pop("envelope")
        legacy = entry_from_wire(wire)
        assert legacy.kind == SCALAR_ENTRY
        assert legacy.envelope is None

    def test_disk_tier_round_trip(self, tmp_path):
        entry = make_envelope_entry()
        log = tmp_path / "cache.log"
        with DiskTier(log) as tier:
            tier.put("deadbeef", entry)
            assert list(tier.entries()) == [
                ("deadbeef", entry.provenance, ENVELOPE_ENTRY)
            ]
        with DiskTier(log) as tier:  # restart: recovered from the log
            recovered = tier.peek("deadbeef")
            assert recovered.kind == ENVELOPE_ENTRY
            assert recovered.envelope == entry.envelope
            assert recovered.canonical_plans == entry.canonical_plans
            assert list(tier.entries()) == [
                ("deadbeef", entry.provenance, ENVELOPE_ENTRY)
            ]

    def test_settings_codec_carries_theta(self):
        bound = PARAMETRIC.replace(theta=0.375)
        wire = json.loads(json.dumps(settings_to_wire(bound)))
        assert settings_from_wire(wire) == bound
        unbound_wire = json.loads(json.dumps(settings_to_wire(PARAMETRIC)))
        assert "theta" not in unbound_wire  # old peers keep decoding
        assert settings_from_wire(unbound_wire) == PARAMETRIC

    def test_result_codec_carries_theta(self):
        query = query_pool(53, 1)[0]
        with OptimizerService(n_workers=1, settings=PARAMETRIC) as service:
            bound = service.optimize(query, PARAMETRIC.replace(theta=0.7))
        wire = json.loads(json.dumps(result_to_wire(bound)))
        decoded = result_from_wire(wire)
        assert decoded.theta == 0.7
        assert decoded.plans == bound.plans
        # Absent θ decodes to None (backward compatibility).
        wire.pop("theta")
        assert result_from_wire(wire).theta is None
