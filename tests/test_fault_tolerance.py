"""Retry executor and skew-freeness."""

from __future__ import annotations

import pytest

from repro.cluster.executors import (
    RetryingPartitionExecutor,
    SerialPartitionExecutor,
)
from repro.config import OptimizerSettings, PlanSpace
from repro.core.master import optimize_parallel
from repro.core.serial import best_plan, optimize_serial
from repro.core.worker import optimize_partition
from repro.query.generator import SteinbrunnGenerator


@pytest.fixture
def query():
    return SteinbrunnGenerator(91).query(6)


class TestRetryingExecutor:
    def test_passthrough_when_inner_works(self, query, linear_settings):
        executor = RetryingPartitionExecutor(inner=SerialPartitionExecutor())
        results = executor.map_partitions(query, 4, linear_settings)
        assert len(results) == 4
        assert executor.retries == 0

    def test_recovers_from_inner_failure(self, query, linear_settings):
        class CrashingExecutor:
            def map_partitions(self, query, n_partitions, settings):
                raise ConnectionError("cluster gone")

        executor = RetryingPartitionExecutor(inner=CrashingExecutor())
        result = optimize_parallel(query, 4, linear_settings, executor=executor)
        serial = best_plan(optimize_serial(query, linear_settings))
        assert result.best.cost[0] == pytest.approx(serial.cost[0])
        assert executor.retries >= 1

    def test_wholesale_failure_counts_per_partition_resubmissions(
        self, query, linear_settings
    ):
        # Regression: a wholesale inner-executor failure re-runs all
        # ``n_partitions`` tasks but used to count as one retry.  The
        # counter's unit is task *resubmissions*, so it advances by the
        # partition count.
        class CrashingExecutor:
            def map_partitions(self, query, n_partitions, settings):
                raise ConnectionError("cluster gone")

        executor = RetryingPartitionExecutor(inner=CrashingExecutor())
        executor.map_partitions(query, 4, linear_settings)
        assert executor.retries == 4
        executor.map_partitions(query, 2, linear_settings)
        assert executor.retries == 6

    def test_per_partition_flake_counts_each_resubmission(
        self, query, linear_settings, monkeypatch
    ):
        # One partition task fails twice before succeeding: two
        # resubmissions of that task, zero for the other partitions.
        import repro.cluster.executors as executors_module

        real = executors_module.optimize_partition
        failures = {"remaining": 2}

        def flaky(query, partition_id, n_partitions, settings):
            if partition_id == 1 and failures["remaining"] > 0:
                failures["remaining"] -= 1
                raise OSError("transient worker failure")
            return real(query, partition_id, n_partitions, settings)

        monkeypatch.setattr(executors_module, "optimize_partition", flaky)
        executor = RetryingPartitionExecutor(max_attempts=3)
        results = executor.map_partitions(query, 4, linear_settings)
        assert [r.stats.partition_id for r in results] == [0, 1, 2, 3]
        assert executor.retries == 2

    def test_exhausted_attempts_raise_the_real_error(
        self, query, linear_settings, monkeypatch
    ):
        import repro.cluster.executors as executors_module

        def always_failing(query, partition_id, n_partitions, settings):
            raise OSError("worker host is gone")

        monkeypatch.setattr(
            executors_module, "optimize_partition", always_failing
        )
        executor = RetryingPartitionExecutor(max_attempts=3)
        with pytest.raises(OSError, match="worker host is gone"):
            executor.map_partitions(query, 2, linear_settings)
        # Two resubmissions for the first partition (its final failure
        # propagates rather than being resubmitted).
        assert executor.retries == 2

    def test_no_inner_runs_inline(self, query, linear_settings):
        executor = RetryingPartitionExecutor()
        results = executor.map_partitions(query, 2, linear_settings)
        assert [r.stats.partition_id for r in results] == [0, 1]

    def test_attempts_validated(self):
        with pytest.raises(ValueError):
            RetryingPartitionExecutor(max_attempts=0)


class TestSkewFreeness:
    """The paper: "All plan space partitions have the same size which
    guarantees skew-free parallelization." — verify at the worker level."""

    def test_linear_partitions_identical_work(self, query, linear_settings):
        stats = [
            optimize_partition(query, pid, 8, linear_settings).stats
            for pid in range(8)
        ]
        assert len({s.admissible_results for s in stats}) == 1
        assert len({s.splits_considered for s in stats}) == 1
        assert len({s.table_entries for s in stats}) == 1

    def test_bushy_partitions_identical_work(self, bushy_settings):
        query = SteinbrunnGenerator(92).query(6)
        stats = [
            optimize_partition(query, pid, 4, bushy_settings).stats
            for pid in range(4)
        ]
        assert len({s.admissible_results for s in stats}) == 1
        assert len({s.splits_considered for s in stats}) == 1

    def test_candidate_counts_near_uniform(self, query, linear_settings):
        """Costed candidates may differ slightly (operator applicability),
        but never by more than a small factor — no real skew."""
        considered = [
            optimize_partition(query, pid, 8, linear_settings).stats.plans_considered
            for pid in range(8)
        ]
        assert max(considered) <= 2 * min(considered)
