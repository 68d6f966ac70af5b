"""Execution back-ends: the serial reference, and the warm process pool's
recovery from a worker that really dies."""

from __future__ import annotations

import functools
import os
import signal
from concurrent.futures.process import BrokenProcessPool

import pytest

import repro.cluster.executors as executors_module
from repro.algorithms.mpq import optimize_mpq
from repro.cluster.executors import (
    PersistentProcessPoolExecutor,
    SerialPartitionExecutor,
)
from repro.config import OptimizerSettings
from repro.core.worker import optimize_partition
from repro.query.generator import SteinbrunnGenerator
from repro.service import OptimizerService
from tests.conftest import search_outcome


@pytest.fixture
def query():
    return SteinbrunnGenerator(4).query(6)


@pytest.fixture
def settings():
    return OptimizerSettings()


class TestSerialExecutor:
    def test_runs_all_partitions(self, query, settings):
        results = SerialPartitionExecutor().map_partitions(query, 4, settings)
        assert [r.stats.partition_id for r in results] == [0, 1, 2, 3]


def _killing_partition(
    marker_dir, deaths, victim_tables, query, partition_id, n_partitions, settings
):
    """``optimize_partition``, except that partition 1 of a ``victim_tables``
    query ``SIGKILL``s its own worker process the first ``deaths`` times it
    runs (one marker file per death, so a rebuilt pool sees the count)."""
    if partition_id == 1 and query.n_tables == victim_tables:
        died = len(os.listdir(marker_dir))
        if died < deaths:
            (marker_dir / f"death-{died}").touch()
            os.kill(os.getpid(), signal.SIGKILL)
    return optimize_partition(query, partition_id, n_partitions, settings)


def _raising_partition(query, partition_id, n_partitions, settings):
    if partition_id == 1:
        raise ValueError("worker returned garbage")
    return optimize_partition(query, partition_id, n_partitions, settings)


@pytest.fixture
def kill_partition_one(monkeypatch, tmp_path):
    """Make partition 1 of every ``victim_tables``-table query kill its worker
    ``deaths`` times.  The pool pickles whatever ``optimize_partition`` the
    executor module names at submission, so workers run the patch."""

    def install(deaths, victim_tables):
        monkeypatch.setattr(
            executors_module,
            "optimize_partition",
            functools.partial(_killing_partition, tmp_path, deaths, victim_tables),
        )

    return install


def outcomes(partition_results):
    """Plans, partition ids, every ``WorkerStats`` counter and the backend of
    each partition result — all an executor must leave unchanged."""
    return [
        (search_outcome(result), result.stats.backend_used)
        for result in partition_results
    ]


class TestWorkerDeath:
    """A partition task is pure, so a killed worker's batch is resubmitted
    once and the answer is bit-identical to the serial executor's."""

    def test_optimize_mpq_recovers_bit_identical(
        self, query, settings, kill_partition_one
    ):
        serial = optimize_mpq(query, 4, settings)
        kill_partition_one(deaths=1, victim_tables=query.n_tables)
        with PersistentProcessPoolExecutor(max_workers=2) as pool:
            pooled = optimize_mpq(query, 4, settings, executor=pool)
            assert pool.pools_started == 2
            # Both submissions of the 4 partition tasks are counted.
            assert pool.tasks_run == 2 * 4
        assert pooled.n_partitions == 4
        assert pooled.result.plans == serial.result.plans
        assert outcomes(pooled.result.partition_results) == outcomes(
            serial.result.partition_results
        )

    def test_service_batch_recovers_bit_identical(self, kill_partition_one):
        generator = SteinbrunnGenerator(48)
        queries = [generator.query(n_tables) for n_tables in (5, 6, 7)]
        serial = OptimizerService(n_workers=4).optimize_batch(queries)
        kill_partition_one(deaths=1, victim_tables=6)
        with PersistentProcessPoolExecutor(max_workers=2) as pool:
            service = OptimizerService(n_workers=4, executor=pool)
            pooled = service.optimize_batch(queries)
            assert pool.pools_started == 2
        assert pooled == serial

    def test_second_death_in_one_call_propagates(
        self, query, settings, kill_partition_one
    ):
        kill_partition_one(deaths=2, victim_tables=query.n_tables)
        with PersistentProcessPoolExecutor(max_workers=2) as pool:
            with pytest.raises(BrokenProcessPool):
                pool.map_partitions(query, 4, settings)
            assert pool.pools_started == 2  # one rebuild, not retried again
            # The next call rebuilds the pool and, deaths spent, succeeds.
            results = pool.map_partitions(query, 4, settings)
            assert pool.pools_started == 3
        serial = SerialPartitionExecutor().map_partitions(query, 4, settings)
        assert outcomes(results) == outcomes(serial)

    def test_worker_errors_surface_unmasked(self, monkeypatch):
        monkeypatch.setattr(executors_module, "optimize_partition", _raising_partition)
        query = SteinbrunnGenerator(46).query(4)
        with PersistentProcessPoolExecutor(max_workers=2) as pool:
            service = OptimizerService(n_workers=2, executor=pool)
            with pytest.raises(ValueError, match="worker returned garbage"):
                service.optimize(query)
            assert pool.pools_started == 1  # an error is not a dead worker
