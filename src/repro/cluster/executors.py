"""Execution back-ends for running partition tasks.

The master (:mod:`repro.core.master`) is generic over *how* partition tasks
run; these executors provide the options:

* :class:`SerialPartitionExecutor` — run partitions one after another in this
  process.  The default; deterministic, and the basis for simulated-cluster
  timing (per-partition work is counted, wall-clock is composed afterwards).
* :class:`ThreadPoolPartitionExecutor` — thread-based concurrency.  Python's
  GIL serializes the DP's bytecode, so this demonstrates API shape rather
  than speedup (the repro-band note about the GIL made explicit).
* :class:`ProcessPoolPartitionExecutor` — genuine parallelism via
  ``multiprocessing``; each partition task is shipped (pickled) to another
  process, which mirrors a real shared-nothing deployment: the child rebuilds
  cost model and pruning from ``(query, settings)`` and shares no state.
"""

from __future__ import annotations

import concurrent.futures

# Imported eagerly: referencing it lazily inside an ``except`` clause would
# itself raise AttributeError (masking the real error) whenever
# ``concurrent.futures.process`` had not been imported yet — e.g. a serial
# executor raising before any process pool was ever created.
from concurrent.futures.process import BrokenProcessPool

from repro.config import OptimizerSettings
# Re-exported: the serial executor lives beside the master that defaults to
# it (importing it from here would cycle through cluster.simulator).
from repro.core.master import SerialPartitionExecutor
from repro.core.worker import PartitionResult, optimize_partition
from repro.query.query import Query


def _run_partition_task(
    args: tuple[Query, int, int, OptimizerSettings],
) -> PartitionResult:
    """Module-level task entry point (must be picklable for process pools)."""
    query, partition_id, n_partitions, settings = args
    return optimize_partition(query, partition_id, n_partitions, settings)


class RetryingPartitionExecutor:
    """Fault tolerance: re-run failed partition tasks on a fallback path.

    MPQ's coarse-grained decomposition makes recovery trivial — a partition
    task is a pure function of ``(query, partition_id, m, settings)``, so a
    crashed worker's task can simply be resubmitted (to the pool, or inline
    as a last resort) without touching any other worker.  The paper's
    single-round protocol means there is no partial state to reconcile.

    Wraps any inner executor; if the inner executor raises, every partition
    is retried individually up to ``max_attempts`` times, falling back to
    in-process execution on the final attempt.
    """

    def __init__(self, inner: object | None = None, max_attempts: int = 3) -> None:
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        self._inner = inner
        self._max_attempts = max_attempts
        #: Number of per-partition task *resubmissions* performed — each
        #: partition task re-run beyond its first submission counts once, so
        #: a wholesale inner-executor failure that re-runs all ``m`` tasks
        #: contributes ``m``, not 1.
        self.retries = 0

    def map_partitions(
        self, query: Query, n_partitions: int, settings: OptimizerSettings
    ) -> list[PartitionResult]:
        if self._inner is not None:
            try:
                return self._inner.map_partitions(query, n_partitions, settings)
            except Exception:
                # The whole batch failed: every partition task is resubmitted
                # (inline below), so the counter advances by one per task.
                self.retries += n_partitions
        results = []
        for partition_id in range(n_partitions):
            results.append(self._run_one(query, partition_id, n_partitions, settings))
        return results

    def _run_one(
        self,
        query: Query,
        partition_id: int,
        n_partitions: int,
        settings: OptimizerSettings,
    ) -> PartitionResult:
        last_error: Exception | None = None
        for attempt in range(self._max_attempts):
            try:
                return optimize_partition(query, partition_id, n_partitions, settings)
            except Exception as error:
                last_error = error
                # Only a failure that is followed by another attempt is a
                # resubmission; the final attempt's failure propagates.
                if attempt + 1 < self._max_attempts:
                    self.retries += 1
        assert last_error is not None
        raise last_error


class ThreadPoolPartitionExecutor:
    """Run partitions on a thread pool (concurrency, not parallelism)."""

    def __init__(self, max_workers: int | None = None) -> None:
        self._max_workers = max_workers

    def map_partitions(
        self, query: Query, n_partitions: int, settings: OptimizerSettings
    ) -> list[PartitionResult]:
        with concurrent.futures.ThreadPoolExecutor(
            max_workers=self._max_workers
        ) as pool:
            futures = [
                pool.submit(optimize_partition, query, pid, n_partitions, settings)
                for pid in range(n_partitions)
            ]
            return [future.result() for future in futures]


class ProcessPoolPartitionExecutor:
    """Run partitions on separate processes (true shared-nothing workers).

    Each task's payload is exactly what the paper's master ships: the query
    (with statistics), the partition ID, the partition count, and the
    optimizer settings.  Results come back as complete partition-optimal
    plans — one round of communication, as in Algorithm 1.

    A fresh pool is created (and torn down) per ``map_partitions`` call —
    faithful to a one-shot optimization, but the wrong shape for a service
    optimizing a stream of queries; see
    :class:`PersistentProcessPoolExecutor`.
    """

    def __init__(self, max_workers: int | None = None) -> None:
        self._max_workers = max_workers

    def map_partitions(
        self, query: Query, n_partitions: int, settings: OptimizerSettings
    ) -> list[PartitionResult]:
        tasks = [
            (query, partition_id, n_partitions, settings)
            for partition_id in range(n_partitions)
        ]
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=self._max_workers
        ) as pool:
            return list(pool.map(_run_partition_task, tasks))


class PersistentProcessPoolExecutor:
    """Process-pool executor whose workers stay warm across queries.

    Per-query pool startup costs hundreds of milliseconds — acceptable for
    one optimization, ruinous for a service.  This executor creates its pool
    lazily on first use and reuses it for every subsequent call, so a stream
    of queries pays the fork/spawn tax once.  :meth:`submit_partitions`
    additionally exposes the underlying futures, letting
    :meth:`~repro.service.OptimizerService.optimize_batch` interleave
    partition tasks from *many* concurrent queries onto the one pool instead
    of serializing query-by-query.

    Observability counters: ``pools_started`` (how many times worker
    processes were actually spawned — 1 for a healthy service lifetime) and
    ``tasks_run`` (partition tasks dispatched).  If the pool breaks (a
    worker was killed), it is discarded and rebuilt once per call — the same
    pure-task property that powers :class:`RetryingPartitionExecutor`.

    Use as a context manager, or call :meth:`close` when done; a finalizer
    also shuts the pool down if the executor is garbage collected.
    """

    def __init__(self, max_workers: int | None = None) -> None:
        self._max_workers = max_workers
        self._pool: concurrent.futures.ProcessPoolExecutor | None = None
        #: Times a pool of worker processes was (re)started.
        self.pools_started = 0
        #: Partition tasks dispatched over this executor's lifetime.
        self.tasks_run = 0

    def _ensure_pool(self) -> concurrent.futures.ProcessPoolExecutor:
        if self._pool is None:
            self._pool = concurrent.futures.ProcessPoolExecutor(
                max_workers=self._max_workers
            )
            self.pools_started += 1
        return self._pool

    def submit_partitions(
        self, query: Query, n_partitions: int, settings: OptimizerSettings
    ) -> list[concurrent.futures.Future]:
        """Submit all partition tasks for one query; return their futures.

        Does not block: callers batching several queries submit them all
        first, then gather, so every warm worker stays busy throughout.
        """
        pool = self._ensure_pool()
        self.tasks_run += n_partitions
        return [
            pool.submit(
                _run_partition_task, (query, partition_id, n_partitions, settings)
            )
            for partition_id in range(n_partitions)
        ]

    def map_partitions(
        self, query: Query, n_partitions: int, settings: OptimizerSettings
    ) -> list[PartitionResult]:
        try:
            return [
                future.result()
                for future in self.submit_partitions(query, n_partitions, settings)
            ]
        except BrokenProcessPool:
            self.close()
            return [
                future.result()
                for future in self.submit_partitions(query, n_partitions, settings)
            ]

    def close(self) -> None:
        """Shut the worker pool down; the next use starts a fresh one."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __enter__(self) -> "PersistentProcessPoolExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        self.close()
