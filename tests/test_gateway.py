"""The sharded optimizer gateway: routing, coalescing, stats, lifecycle."""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.cli import main
from repro.cluster.executors import SerialPartitionExecutor
from repro.core.serial import best_plan, optimize_serial
from repro.query.generator import SteinbrunnGenerator
from repro.service import (
    ShardedOptimizerGateway,
    canonicalize,
    fingerprint,
    remap_plan,
)
from repro.service.service import OptimizerService
from tests.test_service import permute_query, shuffled

#: Generous upper bound for anything a test thread waits on; a healthy run
#: never comes close, a deadlocked run fails instead of hanging CI.
WAIT_S = 30.0


class GatedSerialExecutor:
    """Serial executor that blocks every run until ``gate`` is set.

    Lets tests hold an optimization in flight deliberately, so concurrent
    requests for the same fingerprint *must* coalesce rather than racing
    the leader to a cache hit.  ``calls`` counts DP runs (``map_partitions``
    invocations) — the ground truth the coalescing counters are checked
    against.
    """

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


class FailingGatedExecutor:
    """Blocks until released, then fails — for leader-error propagation."""

    def __init__(self, gate: threading.Event) -> None:
        self.gate = gate

    def map_partitions(self, query, n_partitions, settings):
        assert self.gate.wait(timeout=WAIT_S), "test gate never opened"
        raise ConnectionError("worker fleet unreachable")


class RecordingExecutor(SerialPartitionExecutor):
    """Serial executor that records whether the gateway closed it."""

    def __init__(self) -> None:
        self.closed = False

    def close(self) -> None:
        self.closed = True


def _poll(predicate, timeout: float = WAIT_S) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.002)
    return predicate()


class TestRouting:
    def test_shard_in_range_and_deterministic(self):
        generator = SteinbrunnGenerator(33)
        gateway = ShardedOptimizerGateway(n_shards=5, n_workers=2)
        settings = gateway.settings
        for __ in range(20):
            key = fingerprint(generator.query(5), settings, 2)
            shard = gateway.shard_for(key)
            assert 0 <= shard < 5
            assert gateway.shard_for(key) == shard
        gateway.close()

    def test_range_partitioning_is_monotone(self):
        # Contiguous ranges: ordering keys by their routing prefix orders
        # their shards too.
        gateway = ShardedOptimizerGateway(n_shards=4, n_workers=2)
        keys = [f"{value:08x}" for value in (0, 1, 2**30, 2**31, 2**32 - 1)]
        shards = [gateway.shard_for(key) for key in sorted(keys)]
        assert shards == sorted(shards)
        assert shards[0] == 0 and shards[-1] == 3
        gateway.close()

    def test_rejects_silly_shard_counts(self):
        with pytest.raises(ValueError):
            ShardedOptimizerGateway(n_shards=0)
        with pytest.raises(ValueError):
            ShardedOptimizerGateway(n_shards=2, gateway_threads=0)


class TestGatewayCorrectness:
    def test_single_requests_match_serial(self):
        generator = SteinbrunnGenerator(34)
        queries = [generator.query(6) for __ in range(4)]
        with ShardedOptimizerGateway(n_shards=3, n_workers=4) as gateway:
            for query in queries:
                result = gateway.optimize(query)
                assert not result.cached
                assert result.best.cost == best_plan(optimize_serial(query)).cost
            for query in queries:
                assert gateway.optimize(query).cached

    def test_batch_matches_serial_and_dedups(self):
        generator = SteinbrunnGenerator(35)
        query = generator.query(6)
        relabeled = permute_query(query, shuffled(6, seed=5))
        other = generator.query(6)
        with ShardedOptimizerGateway(n_shards=4, n_workers=4) as gateway:
            results = gateway.optimize_batch([query, other, query, relabeled])
            assert [result.cached for result in results] == [
                False,
                False,
                True,
                True,
            ]
            assert results[3].fingerprint == results[0].fingerprint
            assert results[0].best.cost == best_plan(optimize_serial(query)).cost
            assert results[1].best.cost == best_plan(optimize_serial(other)).cost
            assert results[2].best.cost == results[0].best.cost
            assert results[3].best.cost[0] == pytest.approx(
                best_plan(optimize_serial(relabeled)).cost[0], rel=1e-9
            )
            stats = gateway.stats()
            assert stats.optimizations == 2
            assert stats.requests == 4

    def test_isomorphic_hit_remapped_to_each_numbering(self):
        query = SteinbrunnGenerator(36).query(7)
        relabeled = permute_query(query, shuffled(7, seed=8))
        with ShardedOptimizerGateway(n_shards=2, n_workers=4) as gateway:
            gateway.optimize(query)
            served = gateway.optimize(relabeled)
            assert served.cached
            assert served.best.mask == relabeled.all_tables_mask
            reference = best_plan(optimize_serial(relabeled))
            assert served.best.cost[0] == pytest.approx(reference.cost[0], rel=1e-9)

    def test_shards_partition_the_cache(self):
        # No fingerprint is resident on more than one shard.
        generator = SteinbrunnGenerator(37)
        queries = [generator.query(5) for __ in range(8)]
        with ShardedOptimizerGateway(n_shards=4, n_workers=2) as gateway:
            gateway.optimize_batch(queries)
            entries = sum(len(shard.cache) for shard in gateway.shards)
            unique = len({fingerprint(q, gateway.settings, 2) for q in queries})
            assert entries == unique


class TestCoalescing:
    N_THREADS = 8

    def _run_concurrent(self, gateway, variants):
        results: list = [None] * len(variants)
        errors: list = [None] * len(variants)
        barrier = threading.Barrier(len(variants))

        def work(index):
            barrier.wait(timeout=WAIT_S)
            try:
                results[index] = gateway.optimize(variants[index])
            except BaseException as error:  # noqa: BLE001 - surfaced in asserts
                errors[index] = error

        threads = [
            threading.Thread(target=work, args=(index,))
            for index in range(len(variants))
        ]
        for thread in threads:
            thread.start()
        return threads, results, errors

    def test_concurrent_isomorphic_misses_share_one_run(self):
        """The acceptance stress test: >= 8 concurrent threads, isomorphic
        queries, exactly one DP run, bit-identical frontiers for everyone."""
        base = SteinbrunnGenerator(38).query(7)
        variants = [base] + [
            permute_query(base, shuffled(7, seed=seed))
            for seed in range(self.N_THREADS - 1)
        ]
        gate = threading.Event()
        executors: list[GatedSerialExecutor] = []

        def factory():
            executor = GatedSerialExecutor(gate)
            executors.append(executor)
            return executor

        with ShardedOptimizerGateway(
            n_shards=4, n_workers=4, executor_factory=factory
        ) as gateway:
            threads, results, errors = self._run_concurrent(gateway, variants)
            # The leader is now blocked inside the DP; every other thread
            # must have registered as a follower before we open the gate.
            assert _poll(
                lambda: gateway.stats().coalesced == self.N_THREADS - 1
            ), f"stalled coalescing: {gateway.stats()}"
            gate.set()
            for thread in threads:
                thread.join(timeout=WAIT_S)
                assert not thread.is_alive()
            assert errors == [None] * self.N_THREADS

            stats = gateway.stats()
            assert stats.optimizations == 1, stats
            assert sum(executor.calls for executor in executors) == 1
            assert stats.coalesced == self.N_THREADS - 1
            assert stats.requests == self.N_THREADS
            assert stats.in_flight == 0
            assert stats.peak_in_flight == self.N_THREADS
            # Exactly one requester saw a fresh run; everyone else was
            # coalesced (reclassified as cache hits).
            assert sum(not result.cached for result in results) == 1
            assert stats.hits == self.N_THREADS - 1

            # Zero frontier mismatches: remapping every requester's frontier back
            # to canonical numbering must reproduce one identical plan list.
            canonical_frontiers = {
                tuple(
                    remap_plan(plan, canonicalize(variant).numbering)
                    for plan in result.plans
                )
                for variant, result in zip(variants, results)
            }
            assert len(canonical_frontiers) == 1

    def test_exactly_one_run_per_unique_fingerprint_without_gating(self):
        # The singleflight invariant holds under free-running concurrency
        # too: optimizations == unique fingerprints, whatever the timing.
        generator = SteinbrunnGenerator(39)
        unique = [generator.query(6) for __ in range(3)]
        variants = [unique[index % len(unique)] for index in range(12)]
        open_gate = threading.Event()
        open_gate.set()
        executors: list[GatedSerialExecutor] = []

        def factory():
            executor = GatedSerialExecutor(open_gate)
            executors.append(executor)
            return executor

        with ShardedOptimizerGateway(
            n_shards=4, n_workers=4, executor_factory=factory
        ) as gateway:
            threads, results, errors = self._run_concurrent(gateway, variants)
            for thread in threads:
                thread.join(timeout=WAIT_S)
                assert not thread.is_alive()
            assert errors == [None] * len(variants)
            stats = gateway.stats()
            assert stats.optimizations == len(unique)
            # The counter agrees with the DP runs the executors really made.
            assert sum(executor.calls for executor in executors) == len(unique)
            for query, result in zip(variants, results):
                assert result.best.cost == best_plan(optimize_serial(query)).cost

    def test_coalescing_survives_a_cache_that_retains_nothing(self):
        # Regression: with cache_capacity=0 (the supported cache-disabled
        # mode) the leader's peek finds no entry; followers must be served
        # by relabeling the leader's own result — one DP run, not N.
        base = SteinbrunnGenerator(41).query(7)
        variants = [base] + [
            permute_query(base, shuffled(7, seed=seed)) for seed in range(3)
        ]
        gate = threading.Event()
        executors: list[GatedSerialExecutor] = []

        def factory():
            executor = GatedSerialExecutor(gate)
            executors.append(executor)
            return executor

        with ShardedOptimizerGateway(
            n_shards=2, n_workers=4, executor_factory=factory, cache_capacity=0
        ) as gateway:
            threads, results, errors = self._run_concurrent(gateway, variants)
            assert _poll(lambda: gateway.stats().coalesced == len(variants) - 1)
            gate.set()
            for thread in threads:
                thread.join(timeout=WAIT_S)
                assert not thread.is_alive()
            assert errors == [None] * len(variants)
            stats = gateway.stats()
            assert stats.optimizations == 1, stats
            assert sum(executor.calls for executor in executors) == 1
            reference = best_plan(optimize_serial(base)).cost[0]
            for variant, result in zip(variants, results):
                assert result.best.mask == variant.all_tables_mask
                assert result.best.cost[0] == pytest.approx(reference, rel=1e-9)
            # Nothing was retained — the next identical request runs afresh.
            assert sum(len(shard.cache) for shard in gateway.shards) == 0

    def test_leader_failure_propagates_to_followers(self):
        query = SteinbrunnGenerator(40).query(6)
        gate = threading.Event()
        with ShardedOptimizerGateway(
            n_shards=2, n_workers=2, executor_factory=lambda: FailingGatedExecutor(gate)
        ) as gateway:
            threads, results, errors = self._run_concurrent(gateway, [query, query])
            assert _poll(lambda: gateway.stats().coalesced == 1)
            gate.set()
            for thread in threads:
                thread.join(timeout=WAIT_S)
                assert not thread.is_alive()
            assert results == [None, None]
            assert all(isinstance(error, ConnectionError) for error in errors)
            stats = gateway.stats()
            assert stats.in_flight == 0, "in-flight gauge leaked"
            assert stats.peak_in_flight == 2
            # The failed flight was deregistered: a retry leads afresh (and
            # fails on its own run) rather than following the dead flight.
            with pytest.raises(ConnectionError):
                gateway.optimize(query)
            stats = gateway.stats()
            assert (stats.coalesced, stats.in_flight) == (1, 0)

    def test_batch_coalesces_against_inflight_single_request(self):
        query = SteinbrunnGenerator(42).query(6)
        gate = threading.Event()
        executors: list[GatedSerialExecutor] = []

        def factory():
            executor = GatedSerialExecutor(gate)
            executors.append(executor)
            return executor

        with ShardedOptimizerGateway(
            n_shards=2, n_workers=2, executor_factory=factory
        ) as gateway:
            single: list = [None]
            leader = threading.Thread(
                target=lambda: single.__setitem__(0, gateway.optimize(query))
            )
            leader.start()
            # Leader in flight; a batch containing the same query must ride
            # along instead of running a second DP.
            assert _poll(lambda: sum(e.calls for e in executors) == 1)
            batch_results: list = [None]
            follower = threading.Thread(
                target=lambda: batch_results.__setitem__(
                    0, gateway.optimize_batch([query])
                )
            )
            follower.start()
            assert _poll(lambda: gateway.stats().coalesced == 1)
            gate.set()
            leader.join(timeout=WAIT_S)
            follower.join(timeout=WAIT_S)
            assert not leader.is_alive() and not follower.is_alive()
            assert sum(executor.calls for executor in executors) == 1
            assert batch_results[0][0].cached
            assert batch_results[0][0].best.cost == single[0].best.cost


class TestLifecycleAndStats:
    def test_close_fans_out_to_shard_executors(self):
        executors: list[RecordingExecutor] = []

        def factory():
            executor = RecordingExecutor()
            executors.append(executor)
            return executor

        gateway = ShardedOptimizerGateway(n_shards=3, executor_factory=factory)
        assert len(executors) == 3
        gateway.close()
        assert all(executor.closed for executor in executors)
        gateway.close()  # idempotent

    def test_close_waits_for_inflight_requests(self):
        # Tearing a shard executor down under a running DP would fail the
        # request (and a self-healing pool could resurrect workers after
        # close): close must drain admitted requests first.
        gate = threading.Event()
        executors: list[GatedSerialExecutor] = []

        def factory():
            executor = GatedSerialExecutor(gate)
            executors.append(executor)
            return executor

        gateway = ShardedOptimizerGateway(
            n_shards=2, n_workers=2, executor_factory=factory
        )
        query = SteinbrunnGenerator(48).query(6)
        box: list = [None]
        worker = threading.Thread(
            target=lambda: box.__setitem__(0, gateway.optimize(query))
        )
        worker.start()
        assert _poll(lambda: sum(executor.calls for executor in executors) == 1)
        closer = threading.Thread(target=gateway.close)
        closer.start()
        time.sleep(0.05)
        assert closer.is_alive(), "close returned while a request was in flight"
        gate.set()
        worker.join(timeout=WAIT_S)
        closer.join(timeout=WAIT_S)
        assert not worker.is_alive() and not closer.is_alive()
        assert box[0] is not None and not box[0].cached

    def test_requests_rejected_after_close(self):
        gateway = ShardedOptimizerGateway(n_shards=2, n_workers=2)
        query = SteinbrunnGenerator(43).query(4)
        gateway.close()
        with pytest.raises(RuntimeError, match="closed"):
            gateway.optimize(query)
        with pytest.raises(RuntimeError, match="closed"):
            gateway.optimize_batch([query])

    def test_context_manager_closes(self):
        executors: list[RecordingExecutor] = []
        with ShardedOptimizerGateway(
            n_shards=2,
            executor_factory=lambda: executors.append(RecordingExecutor())
            or executors[-1],
        ):
            pass
        assert all(executor.closed for executor in executors)

    def test_stats_aggregate_per_shard_counters(self):
        generator = SteinbrunnGenerator(44)
        queries = [generator.query(5) for __ in range(6)]
        with ShardedOptimizerGateway(n_shards=3, n_workers=2) as gateway:
            gateway.optimize_batch(queries)
            gateway.optimize_batch(queries)
            stats = gateway.stats()
            assert stats.hits == sum(shard.cache.hits for shard in stats.shards)
            assert stats.misses == sum(
                shard.cache.misses for shard in stats.shards
            )
            assert stats.requests == 12
            assert stats.misses == stats.optimizations == len(
                {fingerprint(q, gateway.settings, 2) for q in queries}
            )
            assert 0.0 < stats.hit_rate < 1.0
            assert stats.in_flight == 0

    def test_gateway_matches_single_service_results(self):
        # The gateway is a routing layer, not a different optimizer: its
        # answers are exactly a single service's answers.
        generator = SteinbrunnGenerator(45)
        queries = [generator.query(6) for __ in range(4)]
        with ShardedOptimizerGateway(n_shards=4, n_workers=4) as gateway:
            gateway_results = gateway.optimize_batch(queries)
        with OptimizerService(n_workers=4) as service:
            service_results = service.optimize_batch(queries)
        for via_gateway, via_service in zip(gateway_results, service_results):
            assert via_gateway.fingerprint == via_service.fingerprint
            assert via_gateway.plans == via_service.plans
            assert via_gateway.n_partitions == via_service.n_partitions


class TestServeBatchCLI:
    def test_gateway_serve_batch_json(self, tmp_path, capsys):
        paths = []
        for index in range(3):
            path = tmp_path / f"q{index}.json"
            main(
                ["generate", "--tables", "6", "--seed", str(index), "-o", str(path)]
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
                    "--gateway-threads",
                    "4",
                    "--workers",
                    "4",
                    "--repeat",
                    "2",
                    "--json",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["shards"] == 2
        gateway = payload["stats"]
        assert gateway["requests"] == 8
        assert gateway["optimizations"] == 3
        assert gateway["coalesced"] == 1  # in-batch duplicate of q0
        assert len(gateway["shards"]) == 2
        cached_flags = [
            result["cached"]
            for round_payload in payload["rounds"]
            for result in round_payload["results"]
        ]
        assert cached_flags == [False, False, False, True, True, True, True, True]

    def test_gateway_threads_requires_shards(self, tmp_path):
        path = tmp_path / "q.json"
        main(["generate", "--tables", "4", "-o", str(path)])
        with pytest.raises(SystemExit):
            main(["serve-batch", str(path), "--gateway-threads", "2"])
