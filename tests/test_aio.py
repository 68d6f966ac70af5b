"""The asyncio front-end: dispatch, backpressure, cancellation, soak replay."""

from __future__ import annotations

import asyncio
import dataclasses
import threading

import pytest

from repro.bench.traffic import (
    TrafficProfile,
    generate_traffic,
    replay_async,
    unique_fingerprints,
)
from repro.cli import main
from repro.cluster.executors import SerialPartitionExecutor
from repro.core.serial import best_plan, optimize_serial
from repro.query.generator import SteinbrunnGenerator
from repro.service import (
    AsyncOptimizerGateway,
    GatewayOverloadedError,
    InvalidationPredicate,
    ShardedOptimizerGateway,
    aio,
    canonicalize,
)
from tests.test_service import permute_query, shuffled

WAIT_S = 30.0


def run(coroutine):
    return asyncio.run(coroutine)


class GatedSerialExecutor:
    """Blocks every DP run until ``gate`` is set; counts runs."""

    def __init__(self, gate: threading.Event) -> None:
        self.gate = gate
        self.calls = 0
        self._lock = threading.Lock()
        self._inner = SerialPartitionExecutor()

    def map_partitions(self, query, n_partitions, settings):
        with self._lock:
            self.calls += 1
        assert self.gate.wait(timeout=WAIT_S), "test gate never opened"
        return self._inner.map_partitions(query, n_partitions, settings)


class FailingExecutor:
    """Every DP run fails — for error propagation through the front-end."""

    def map_partitions(self, query, n_partitions, settings):
        raise ConnectionError("worker fleet unreachable")


def gated_gateway(gate, n_shards=2, n_workers=2):
    executors: list[GatedSerialExecutor] = []

    def factory():
        executor = GatedSerialExecutor(gate)
        executors.append(executor)
        return executor

    gateway = ShardedOptimizerGateway(
        n_shards=n_shards, n_workers=n_workers, executor_factory=factory
    )
    return gateway, executors


async def poll(predicate, timeout=WAIT_S):
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while loop.time() < deadline:
        if predicate():
            return True
        await asyncio.sleep(0.002)
    return predicate()


class TestValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            AsyncOptimizerGateway(max_pending=0)
        with pytest.raises(ValueError):
            AsyncOptimizerGateway(tenant_share=0.0)
        with pytest.raises(ValueError):
            AsyncOptimizerGateway(tenant_share=1.5)

    def test_requests_rejected_after_close(self):
        async def scenario():
            front = AsyncOptimizerGateway(n_shards=2, n_workers=2)
            await front.close()
            with pytest.raises(RuntimeError, match="closed"):
                await front.optimize(SteinbrunnGenerator(50).query(4))

        run(scenario())

    def test_close_is_idempotent(self):
        async def scenario():
            front = AsyncOptimizerGateway(n_shards=2, n_workers=2)
            await front.close()
            await front.close()

        run(scenario())


class TestCorrectness:
    def test_single_requests_match_serial_then_hit(self):
        async def scenario():
            generator = SteinbrunnGenerator(51)
            queries = [generator.query(6) for __ in range(4)]
            async with AsyncOptimizerGateway(n_shards=3, n_workers=4) as front:
                for query in queries:
                    result = await front.optimize(query)
                    assert not result.cached
                    reference = best_plan(optimize_serial(query))
                    assert result.best.cost == reference.cost
                for query in queries:
                    again = await front.optimize(query)
                    assert again.cached
                stats = front.stats()
                assert stats.fast_path_hits == 4
                assert stats.gateway.optimizations == 4
                assert stats.queue_depth == 0
                assert stats.outstanding == 0

        run(scenario())

    def test_isomorphic_coalesced_waiters_each_get_their_numbering(self):
        # Waiters for permuted copies of one query attach to the same queued
        # entry; each must be answered in its *own* table numbering.
        async def scenario():
            base = SteinbrunnGenerator(52).query(7)
            variants = [base] + [
                permute_query(base, shuffled(7, seed=seed)) for seed in range(5)
            ]
            gate = threading.Event()
            gateway, executors = gated_gateway(gate, n_shards=2, n_workers=4)
            with gateway:
                async with AsyncOptimizerGateway(gateway) as front:
                    tasks = [
                        asyncio.ensure_future(front.optimize(variant))
                        for variant in variants
                    ]
                    assert await poll(
                        lambda: sum(executor.calls for executor in executors) == 1
                    )
                    gate.set()
                    results = await asyncio.gather(*tasks)
                    stats = front.stats()
            assert stats.gateway.optimizations == 1
            assert sum(executor.calls for executor in executors) == 1
            reference = best_plan(optimize_serial(base)).cost[0]
            for variant, result in zip(variants, results):
                assert result.best.mask == variant.all_tables_mask
                assert result.best.cost[0] == pytest.approx(reference, rel=1e-9)
            # Exactly one fresh answer; the coalesced rest are cache-flagged.
            assert sum(not result.cached for result in results) == 1

        run(scenario())

    def test_each_led_flight_is_one_dispatch(self):
        # Misses queued together behind a busy pool still dispatch one
        # flight each: batching lives in ``optimize_batch`` only.
        async def scenario():
            generator = SteinbrunnGenerator(53)
            query = generator.query(6)
            other = generator.query(6)
            gate = threading.Event()
            gateway, executors = gated_gateway(gate, n_shards=1, n_workers=2)
            with gateway:
                async with AsyncOptimizerGateway(gateway) as front:
                    first = asyncio.ensure_future(front.optimize(query, n_workers=2))
                    assert await poll(
                        lambda: sum(executor.calls for executor in executors) >= 1
                    )
                    # Queued behind the gated dispatch: same query at different
                    # parallelism, plus a different query at each parallelism.
                    tasks = [
                        asyncio.ensure_future(front.optimize(query, n_workers=4)),
                        asyncio.ensure_future(front.optimize(other, n_workers=2)),
                        asyncio.ensure_future(front.optimize(other, n_workers=4)),
                    ]
                    await asyncio.sleep(0)
                    gate.set()
                    await asyncio.gather(first, *tasks)
                    stats = front.stats()
            assert stats.dispatched_batches == 4
            assert stats.batch_sizes == {1: 4}

        run(scenario())

    def test_batch_sizes_survive_asdict(self):
        # Regression: asdict rebuilds a Counter from its items, so a Counter
        # {2: 3} would come out as Counter({(2, 3): 1}); the snapshot must
        # hold a plain dict for serve-batch's stats tree to read {size: count}.
        async def scenario():
            generator = SteinbrunnGenerator(55)
            queries = [generator.query(5) for __ in range(3)]
            async with AsyncOptimizerGateway(n_shards=1, n_workers=2) as front:
                await asyncio.gather(*map(front.optimize, queries))
                return front.stats()

        stats = run(scenario())
        assert type(stats.batch_sizes) is dict and stats.batch_sizes
        assert sum(size * count for size, count in stats.batch_sizes.items()) == 3
        assert dataclasses.asdict(stats)["batch_sizes"] == stats.batch_sizes

    def test_dp_errors_propagate_to_all_waiters(self):
        async def scenario():
            query = SteinbrunnGenerator(54).query(5)
            gateway = ShardedOptimizerGateway(
                n_shards=2, n_workers=2, executor_factory=FailingExecutor
            )
            with gateway:
                async with AsyncOptimizerGateway(gateway) as front:
                    tasks = [
                        asyncio.ensure_future(front.optimize(query)) for __ in range(3)
                    ]
                    outcomes = await asyncio.gather(*tasks, return_exceptions=True)
                    assert all(
                        isinstance(outcome, ConnectionError) for outcome in outcomes
                    )
                    stats = front.stats()
                    assert stats.outstanding == 0
                    assert stats.gateway.in_flight == 0
                    # A retry after the failure leads afresh (and fails afresh).
                    with pytest.raises(ConnectionError):
                        await front.optimize(query)

        run(scenario())


class TestResultMemo:
    def test_repeated_query_served_from_edge_memo(self):
        async def scenario():
            query = SteinbrunnGenerator(62).query(6)
            async with AsyncOptimizerGateway(n_shards=2, n_workers=2) as front:
                fresh = await front.optimize(query)
                first_hit = await front.optimize(query)
                second_hit = await front.optimize(query)
                stats = front.stats()
                assert first_hit.cached and second_hit.cached
                assert first_hit.best.cost == fresh.best.cost
                assert second_hit.plans == fresh.plans
                # The second hit (and beyond) never re-relabels: it is served
                # from the memo populated when the miss settled.
                assert stats.result_memo_hits >= 1
                assert stats.fast_path_hits == 2
                # Served answers are fresh envelopes: mutating any caller's
                # plan list — including the original miss's result, which is
                # what the memo was populated from — cannot corrupt later
                # answers.
                reference = list(fresh.plans)
                fresh.plans.clear()
                first_hit.plans.clear()
                third_hit = await front.optimize(query)
                assert third_hit.plans == reference

        run(scenario())

    def test_permuted_request_bypasses_memo_but_serves_correctly(self):
        async def scenario():
            query = SteinbrunnGenerator(63).query(6)
            permuted = permute_query(query, shuffled(6, seed=2))
            async with AsyncOptimizerGateway(n_shards=2, n_workers=2) as front:
                await front.optimize(query)
                served = await front.optimize(permuted)
                assert served.cached
                assert served.best.mask == permuted.all_tables_mask
                stats = front.stats()
                # Different numbering: the memo entry does not apply.
                assert stats.result_memo_hits == 0

        run(scenario())

    def test_another_numbering_keeps_the_first_answer(self):
        # A, B, A: B's answer lands beside A's, so the second A is served
        # from the edge memo.
        async def scenario():
            query = SteinbrunnGenerator(64).query(6)
            permuted = permute_query(query, shuffled(6, seed=2))
            async with AsyncOptimizerGateway(n_shards=2, n_workers=2) as front:
                first = await front.optimize(query)
                await front.optimize(permuted)
                before = front.stats().result_memo_hits
                again = await front.optimize(query)
                assert front.stats().result_memo_hits == before + 1
                assert again.plans == first.plans
                assert all(a is b for a, b in zip(first.plans, again.plans, strict=True))

        run(scenario())

    def test_cached_copy_matches_dataclasses_replace(self):
        # The edge memo builds its copies positionally for speed; this is
        # the reference formulation, field for field.
        from repro.service.aio import _cached_copy
        from repro.service.service import ServiceResult

        plans = [object(), object()]
        result = ServiceResult(plans, 3, "key", False, "vecdp", 0.25)
        copy = _cached_copy(result)
        assert copy == dataclasses.replace(result, plans=list(plans), cached=True)
        assert copy.plans is not plans
        assert all(a is b for a, b in zip(copy.plans, plans))

    def test_memo_is_lru_bounded(self, monkeypatch):
        monkeypatch.setattr(aio, "RESULT_MEMO_SIZE", 2)

        async def scenario():
            generator = SteinbrunnGenerator(65)
            queries = [generator.query(4) for __ in range(4)]
            async with AsyncOptimizerGateway(n_shards=1, n_workers=2) as front:
                for query in queries:
                    await front.optimize(query)
                assert len(front._served) == 2
                # Each numbering of one key counts against the bound on its
                # own: three numberings of the last query keep the two
                # most recently served.
                numberings = []
                for seed in (1, 2):
                    permuted = permute_query(queries[-1], shuffled(4, seed=seed))
                    await front.optimize(permuted)
                    numberings.append(canonicalize(permuted).numbering)
                assert len(set(numberings)) == 2
                assert [memo_key[2] for memo_key in front._served] == numberings

        run(scenario())


class TestMemoDiesWithItsEntry:
    """An edge-memo answer is served only while the entry behind it is live."""

    @staticmethod
    def retire(cache, how, key, backend):
        if how == "evict":
            assert cache.evict(key)
        else:
            assert cache.invalidate(InvalidationPredicate(backend=backend)) == [key]

    @pytest.mark.parametrize("how", ["evict", "invalidate"])
    def test_a_dropped_entry_runs_again_as_at_the_threaded_door(self, how):
        query = SteinbrunnGenerator(67).query(6)
        with ShardedOptimizerGateway(n_shards=1, n_workers=2) as gateway:
            first = gateway.optimize(query)
            gateway.optimize(query)
            self.retire(gateway.shards[0].cache, how, first.fingerprint, first.backend_used)
            assert not gateway.optimize(query).cached
            threaded_runs = gateway.stats().optimizations

        async def scenario():
            async with AsyncOptimizerGateway(n_shards=1, n_workers=2) as front:
                first = await front.optimize(query)
                await front.optimize(query)
                assert front.stats().result_memo_hits == 1
                cache = front.gateway.shards[0].cache
                self.retire(cache, how, first.fingerprint, first.backend_used)
                again = await front.optimize(query)
                return first, again, front.stats()

        first, again, stats = run(scenario())
        assert not again.cached and again.plans == first.plans
        assert stats.gateway.optimizations == threaded_runs == 2
        assert stats.result_memo_hits == 1

    def test_a_replaced_entry_serves_the_new_plans(self):
        async def scenario():
            generator = SteinbrunnGenerator(68)
            query, other = generator.query(6), generator.query(6)
            async with AsyncOptimizerGateway(n_shards=1, n_workers=2) as front:
                first = await front.optimize(query)
                donor = await front.optimize(other)
                await front.optimize(query)
                shard = front.gateway.shards[0]
                [record] = shard.cache.export_records([donor.fingerprint])
                assert shard.cache.import_records([{**record, "k": first.fingerprint}]) == 1
                again = await front.optimize(query)
                entry = shard.cache.peek(first.fingerprint)
                expected = shard.answer(entry, canonicalize(query), first.fingerprint, None)
                return first, again, expected, front.stats()

        first, again, expected, stats = run(scenario())
        assert again.cached and again.plans == expected.plans
        assert again.plans != first.plans
        assert stats.gateway.optimizations == 2
        assert stats.result_memo_hits == 1


class TestBackpressure:
    def test_queue_full_rejection_carries_retry_after(self):
        async def scenario():
            generator = SteinbrunnGenerator(55)
            gate = threading.Event()
            gateway, __ = gated_gateway(gate)
            with gateway:
                async with AsyncOptimizerGateway(
                    gateway, max_pending=2, tenant_share=1.0
                ) as front:
                    tasks = [
                        asyncio.ensure_future(front.optimize(generator.query(5)))
                        for __ in range(2)
                    ]
                    assert await poll(lambda: front.stats().outstanding == 2)
                    with pytest.raises(GatewayOverloadedError) as rejection:
                        await front.optimize(generator.query(5))
                    assert rejection.value.reason == "queue-full"
                    assert rejection.value.retry_after_s > 0
                    gate.set()
                    await asyncio.gather(*tasks)
                    stats = front.stats()
                    assert stats.rejected_queue_full == 1
                    assert stats.rejections == 1
                    # After the queue drained, admission works again.
                    assert (await front.optimize(generator.query(5))) is not None

        run(scenario())

    def test_hot_tenant_cannot_starve_others(self):
        async def scenario():
            generator = SteinbrunnGenerator(56)
            gate = threading.Event()
            gateway, __ = gated_gateway(gate)
            with gateway:
                async with AsyncOptimizerGateway(
                    gateway, max_pending=4, tenant_share=0.5
                ) as front:
                    # The hot tenant fills its share (2 of 4 slots) ...
                    hot = [
                        asyncio.ensure_future(
                            front.optimize(generator.query(5), tenant="hot")
                        )
                        for __ in range(2)
                    ]
                    assert await poll(lambda: front.stats().outstanding == 2)
                    # ... and its next request is rejected for fairness ...
                    with pytest.raises(GatewayOverloadedError) as rejection:
                        await front.optimize(generator.query(5), tenant="hot")
                    assert rejection.value.reason == "tenant-share"
                    assert rejection.value.tenant == "hot"
                    # ... while another tenant is still admitted.
                    cold = asyncio.ensure_future(
                        front.optimize(generator.query(5), tenant="cold")
                    )
                    assert await poll(lambda: front.stats().outstanding == 3)
                    gate.set()
                    await asyncio.gather(*hot, cold)
                    stats = front.stats()
                    assert stats.rejected_tenant_share == 1
                    assert stats.tenants["hot"].rejected == 1
                    assert stats.tenants["cold"].rejected == 0
                    assert stats.tenants["cold"].completed == 1

        run(scenario())

    def test_fast_path_hits_bypass_admission_control(self):
        # A full queue must not reject requests the cache can answer.
        async def scenario():
            generator = SteinbrunnGenerator(57)
            cached_query = generator.query(5)
            gate = threading.Event()
            gateway, __ = gated_gateway(gate)
            with gateway:
                async with AsyncOptimizerGateway(
                    gateway, max_pending=1, tenant_share=1.0
                ) as front:
                    gate.set()
                    await front.optimize(cached_query)  # warm the cache
                    gate.clear()
                    blocked = asyncio.ensure_future(
                        front.optimize(generator.query(5))
                    )
                    assert await poll(lambda: front.stats().outstanding == 1)  # full
                    hit = await front.optimize(cached_query)
                    assert hit.cached
                    gate.set()
                    await blocked

        run(scenario())


class TestCancellation:
    def test_cancelled_queued_entry_never_runs(self):
        # All waiters of a flight queued behind a busy 1-thread handler pool
        # cancel before it starts: the DP for that fingerprint must never
        # run, and every gauge returns to zero.
        async def scenario():
            generator = SteinbrunnGenerator(58)
            blocker, doomed = generator.query(5), generator.query(5)
            gate = threading.Event()
            gateway, executors = gated_gateway(gate, n_shards=1)
            # Borrowed, and closed below: a flight left admitted would make
            # an owned gateway's close wait forever instead of failing.
            async with AsyncOptimizerGateway(gateway) as front:
                leader = asyncio.ensure_future(front.optimize(blocker))
                assert await poll(
                    lambda: sum(executor.calls for executor in executors) == 1
                )
                victim = asyncio.ensure_future(front.optimize(doomed))
                await asyncio.sleep(0)  # let it queue behind the busy pool
                assert front.stats().queue_depth == 1
                victim.cancel()
                assert await poll(lambda: front.stats().cancelled == 1)
                gate.set()
                await leader
                stats = front.stats()
                assert stats.outstanding == 0
                assert stats.queue_depth == 0
                assert stats.gateway.in_flight == 0
            gateway.close()
            # Only the blocker's DP ran.
            assert sum(executor.calls for executor in executors) == 1

        run(scenario())

    def test_leader_cancelling_leaves_the_flight_to_its_follower(self):
        # The waiter that led a queued flight cancels while a follower still
        # waits: the flight must run, and the follower gets its plans.
        async def scenario():
            generator = SteinbrunnGenerator(66)
            blocker, shared = generator.query(5), generator.query(6)
            gate = threading.Event()
            gateway, executors = gated_gateway(gate, n_shards=1)
            with gateway:
                async with AsyncOptimizerGateway(gateway) as front:
                    first = asyncio.ensure_future(front.optimize(blocker))
                    assert await poll(
                        lambda: sum(executor.calls for executor in executors) == 1
                    )
                    leader = asyncio.ensure_future(front.optimize(shared))
                    follower = asyncio.ensure_future(front.optimize(shared))
                    assert await poll(lambda: front.stats().coalesced == 1)
                    assert front.stats().queue_depth == 1
                    leader.cancel()
                    assert await poll(lambda: front.stats().cancelled == 1)
                    gate.set()
                    result = await asyncio.wait_for(follower, WAIT_S)
                    await first
                    assert result.best.cost == best_plan(optimize_serial(shared)).cost
                    stats = front.stats()
                    assert stats.outstanding == 0
                    assert stats.gateway.in_flight == 0
            assert sum(executor.calls for executor in executors) == 2

        run(scenario())

    def test_cancelling_one_coalesced_waiter_leaves_the_rest(self):
        async def scenario():
            query = SteinbrunnGenerator(59).query(6)
            gate = threading.Event()
            gateway, executors = gated_gateway(gate, n_shards=1)
            with gateway:
                async with AsyncOptimizerGateway(gateway) as front:
                    blocker = asyncio.ensure_future(
                        front.optimize(SteinbrunnGenerator(60).query(5))
                    )
                    assert await poll(
                        lambda: sum(executor.calls for executor in executors) == 1
                    )
                    survivors = [
                        asyncio.ensure_future(front.optimize(query)) for __ in range(2)
                    ]
                    casualty = asyncio.ensure_future(front.optimize(query))
                    await asyncio.sleep(0)
                    assert front.stats().coalesced == 2
                    casualty.cancel()
                    await asyncio.sleep(0)
                    gate.set()
                    await blocker
                    results = await asyncio.gather(*survivors)
                    assert all(
                        result.best.cost == best_plan(optimize_serial(query)).cost
                        for result in results
                    )
                    stats = front.stats()
                    assert stats.cancelled == 1
                    assert stats.outstanding == 0
                    assert stats.gateway.in_flight == 0

        run(scenario())

    def test_cancellation_after_dispatch_releases_gauges(self):
        # Cancelling a waiter whose batch is already running discards only
        # that waiter's answer; every gauge still returns to zero.
        async def scenario():
            query = SteinbrunnGenerator(61).query(5)
            gate = threading.Event()
            gateway, executors = gated_gateway(gate, n_shards=1)
            with gateway:
                async with AsyncOptimizerGateway(gateway) as front:
                    doomed = asyncio.ensure_future(front.optimize(query))
                    assert await poll(
                        lambda: sum(executor.calls for executor in executors) == 1
                    )
                    doomed.cancel()
                    await asyncio.sleep(0)
                    gate.set()
                    await poll(lambda: front.stats().in_flight_batches == 0)
                    stats = front.stats()
                    assert stats.cancelled == 1
                    assert stats.outstanding == 0
                    assert stats.gateway.in_flight == 0
                    # The run still completed and filled the cache: a retry hits.
                    result = await front.optimize(query)
                    assert result.cached

        run(scenario())


class TestOneFlightTable:
    def test_follower_of_running_flight_parks_no_dispatch_thread(self):
        # A request for a key already in flight attaches to the flight's
        # future; it must not occupy the (single) handler thread, and
        # cancelling it must not cancel the flight the others share.
        class GateSixTableQueries(SerialPartitionExecutor):
            def __init__(self, gate):
                self.gate = gate

            def map_partitions(self, query, n_partitions, settings):
                if query.n_tables == 6:
                    assert self.gate.wait(timeout=WAIT_S), "test gate never opened"
                return super().map_partitions(query, n_partitions, settings)

        async def scenario():
            gated = SteinbrunnGenerator(70).query(6)
            unrelated = SteinbrunnGenerator(71).query(5)
            gate = threading.Event()
            gateway = ShardedOptimizerGateway(
                n_shards=1,
                n_workers=2,
                executor_factory=lambda: GateSixTableQueries(gate),
                gateway_threads=1,
            )
            loop = asyncio.get_running_loop()
            with gateway:
                async with AsyncOptimizerGateway(gateway) as front:
                    # A thread leads the gated flight straight on the gateway.
                    leader = loop.run_in_executor(None, gateway.optimize, gated)
                    assert await poll(lambda: gateway.stats().in_flight == 1)
                    follower = asyncio.ensure_future(front.optimize(gated))
                    doomed = asyncio.ensure_future(front.optimize(gated))
                    assert await poll(lambda: front.stats().coalesced == 2)
                    # The handler thread is free: an unrelated key runs to
                    # completion while the followed flight is still gated.
                    other = await asyncio.wait_for(front.optimize(unrelated), WAIT_S)
                    assert not other.cached and not gate.is_set()
                    doomed.cancel()
                    await asyncio.sleep(0)
                    assert front.stats().cancelled == 1
                    gate.set()
                    led = await asyncio.wait_for(leader, WAIT_S)
                    followed = await asyncio.wait_for(follower, WAIT_S)
                    assert not led.cached and followed.cached
                    assert followed.plans == led.plans
                    stats = front.stats()
            assert stats.outstanding == 0
            assert stats.dispatched_batches == 1  # only the unrelated key
            assert stats.gateway.optimizations == 2
            assert stats.gateway.in_flight == 0

        run(scenario())


class TestSoakReplay:
    def test_64_client_zipf_replay_runs_each_fingerprint_once(self):
        """Acceptance: a seeded 64-client Zipf replay preserves
        exactly-one-DP-run-per-unique-fingerprint, with plans matching
        serial and every gauge back to zero."""
        profile = TrafficProfile(
            n_requests=128, n_unique=10, tables=(4, 5), seed=13
        )
        schedule = generate_traffic(profile)
        expected = unique_fingerprints(schedule)

        class CountingExecutor(SerialPartitionExecutor):
            def __init__(self) -> None:
                self.calls = 0
                self._lock = threading.Lock()

            def map_partitions(self, query, n_partitions, settings):
                with self._lock:
                    self.calls += 1
                return super().map_partitions(query, n_partitions, settings)

        async def scenario():
            executors = []

            def factory():
                executor = CountingExecutor()
                executors.append(executor)
                return executor

            gateway = ShardedOptimizerGateway(
                n_shards=4, n_workers=4, executor_factory=factory
            )
            with gateway:
                async with AsyncOptimizerGateway(gateway, max_pending=48) as front:
                    report = await replay_async(front, schedule, n_clients=64)
                    stats = front.stats()
            return report, stats, sum(executor.calls for executor in executors)

        report, stats, executor_runs = run(scenario())
        assert stats.gateway.optimizations == len(expected)
        assert executor_runs == len(expected)
        assert stats.outstanding == 0
        assert stats.queue_depth == 0
        assert stats.gateway.in_flight == 0
        assert len(report.results) == len(schedule)
        # Every answer equals serial optimization under its own settings.
        references: dict[str, tuple] = {}
        for request, result in zip(schedule, report.results):
            key = f"{id(request.query)}-{request.feature}"
            if key not in references:
                references[key] = best_plan(
                    optimize_serial(request.query, request.settings)
                ).cost
            assert result.best.cost == references[key]
        # The replay covered all tenants and the retry path stayed sane.
        assert set(stats.tenants) == {"alpha", "beta", "gamma"}
        assert stats.requests >= len(schedule)

    @pytest.mark.slow
    def test_large_soak_with_tight_admission_and_small_cache(self):
        """Soak: heavy replay against a deliberately under-provisioned
        front-end (tiny queue, small cache) — rejections and evictions occur,
        yet every request is eventually answered correctly and no gauge
        leaks."""
        profile = TrafficProfile(
            n_requests=384, n_unique=24, tables=(4, 6), seed=29
        )
        schedule = generate_traffic(profile)

        async def scenario():
            async with AsyncOptimizerGateway(
                n_shards=4,
                n_workers=4,
                cache_capacity=8,  # smaller than the unique pool: evictions
                max_pending=16,
                tenant_share=0.5,
            ) as front:
                report = await replay_async(front, schedule, n_clients=64)
                stats = front.stats()
            return report, stats

        report, stats = run(scenario())
        assert len(report.results) == len(schedule)
        assert stats.outstanding == 0
        assert stats.queue_depth == 0
        assert stats.gateway.in_flight == 0
        assert stats.gateway.evictions > 0
        for request, result in zip(schedule, report.results):
            assert result.best.mask == request.query.all_tables_mask


class TestServeBatchCLIAsync:
    def test_async_serve_batch_json(self, tmp_path, capsys):
        paths = []
        for index in range(3):
            path = tmp_path / f"q{index}.json"
            main(
                ["generate", "--tables", "5", "--seed", str(index), "-o", str(path)]
            )
            paths.append(str(path))
        capsys.readouterr()
        assert (
            main(
                [
                    "serve-batch",
                    *paths,
                    paths[0],
                    "--shards",
                    "2",
                    "--async",
                    "--repeat",
                    "2",
                    "--json",
                ]
            )
            == 0
        )
        import json as json_module

        payload = json_module.loads(capsys.readouterr().out)
        assert payload["async"] is True
        assert payload["max_pending"] == 256  # effective options: header
        front = payload["stats"]
        assert (front["rejected_queue_full"], front["rejected_tenant_share"]) == (0, 0)
        # Three led misses, one dispatch each.  q0's in-batch duplicate is
        # dispatched at once, so it either joins q0's flight or, when that
        # run already finished, hits the entry it left: no DP run either way.
        assert front["dispatched_batches"] == 3
        assert front["coalesced"] + front["fast_path_hits"] == 1 + 4
        assert front["gateway"]["optimizations"] == 3
        cached_flags = [
            result["cached"]
            for round_payload in payload["rounds"]
            for result in round_payload["results"]
        ]
        # Round 1: three fresh runs, the duplicate answered without a run;
        # round 2 all hit.
        assert cached_flags == [False, False, False, True, True, True, True, True]
        assert front["tenants"]["cli"]["completed"] == 8

    def test_cli_single_tenant_gets_the_full_pending_bound(self, tmp_path, capsys):
        # Regression: the CLI's lone "cli" tenant must get all of
        # --max-pending, not a tenant_share-halved allowance.
        paths = []
        for index in range(4):
            path = tmp_path / f"q{index}.json"
            main(
                ["generate", "--tables", "4", "--seed", str(index), "-o", str(path)]
            )
            paths.append(str(path))
        capsys.readouterr()
        assert (
            main(
                ["serve-batch", *paths, "--async", "--max-pending", "4", "--json"]
            )
            == 0
        )
        import json as json_module

        payload = json_module.loads(capsys.readouterr().out)
        assert payload["max_pending"] == 4
        front = payload["stats"]
        assert (front["rejected_queue_full"], front["rejected_tenant_share"]) == (0, 0)

    def test_gateway_threads_size_the_async_handler_pool(self, tmp_path, monkeypatch):
        # At the default --shards 1 the async door still runs its led misses
        # on a handler pool, and --gateway-threads sizes it.
        from repro import cli

        path = tmp_path / "q.json"
        main(["generate", "--tables", "4", "-o", str(path)])
        doors = []
        open_door = cli._open_door

        def spying_open_door(args, settings):
            doors.append(open_door(args, settings))
            return doors[-1]

        monkeypatch.setattr(cli, "_open_door", spying_open_door)
        assert main(["serve-batch", str(path), "--async", "--gateway-threads", "3"]) == 0
        [door] = doors
        assert door._front.gateway.gateway_threads == 3

    def test_async_flags_require_async(self, tmp_path):
        path = tmp_path / "q.json"
        main(["generate", "--tables", "4", "-o", str(path)])
        with pytest.raises(SystemExit):
            main(["serve-batch", str(path), "--max-pending", "5"])
