"""Execution back-ends for running partition tasks.

The master (:mod:`repro.core.master`) is generic over *how* partition tasks
run; there are two executors:

* :class:`SerialPartitionExecutor` — run partitions one after another in this
  process.  The default and the reference; deterministic, and the basis for
  simulated-cluster timing (per-partition work is counted, wall-clock is
  composed afterwards).
* :class:`PersistentProcessPoolExecutor` — genuine parallelism on a warm
  pool of worker processes; each partition task is shipped (pickled) to
  another process, which mirrors a real shared-nothing deployment: the
  child rebuilds cost model and pruning from ``(query, settings)`` and
  shares no state.

A partition task is a pure function of ``(query, partition_id, m,
settings)``, and the paper's single-round protocol leaves no partial state
to reconcile, so recovering a crashed worker is resubmitting its task —
without touching any other worker.
"""

from __future__ import annotations

import concurrent.futures
from collections.abc import Sequence

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


class PersistentProcessPoolExecutor:
    """Process-pool executor whose workers stay warm across queries.

    Per-query pool startup costs hundreds of milliseconds — acceptable for
    one optimization, ruinous for a service.  This executor creates its pool
    lazily on first use and reuses it for every subsequent call, so a stream
    of queries pays the fork/spawn tax once.  :meth:`map_batch` submits the
    partition tasks of *many* queries before awaiting any, letting
    :meth:`~repro.service.OptimizerService.optimize_batch` interleave them
    on the one pool instead of serializing query-by-query.

    Observability counters: ``pools_started`` (how many times worker
    processes were actually spawned — 1 for a healthy service lifetime) and
    ``tasks_run`` (partition tasks submitted).  If the pool breaks (a worker
    was killed), it is discarded and the call's tasks are resubmitted to a
    fresh pool, once per call.

    Use as a context manager, or call :meth:`close` when done; a finalizer
    also shuts the pool down if the executor is garbage collected.
    """

    def __init__(self, max_workers: int | None = None) -> None:
        self._max_workers = max_workers
        self._pool: concurrent.futures.ProcessPoolExecutor | None = None
        #: Times a pool of worker processes was (re)started.
        self.pools_started = 0
        #: Partition tasks submitted over this executor's lifetime.
        self.tasks_run = 0

    def _ensure_pool(self) -> concurrent.futures.ProcessPoolExecutor:
        if self._pool is None:
            self._pool = concurrent.futures.ProcessPoolExecutor(
                max_workers=self._max_workers
            )
            self.pools_started += 1
        return self._pool

    def map_batch(
        self, tasks: Sequence[tuple[Query, int, OptimizerSettings]]
    ) -> list[list[PartitionResult]]:
        """Run every ``(query, n_partitions, settings)`` task's partitions.

        All partition tasks of all queries are submitted before any result
        is awaited, so the warm workers drain one interleaved queue.  If a
        worker dies, the broken pool is closed and the whole batch is
        resubmitted once; a second break in the same call propagates.
        """
        try:
            return self._gather(tasks)
        except BrokenProcessPool:
            self.close()
            return self._gather(tasks)

    def _gather(
        self, tasks: Sequence[tuple[Query, int, OptimizerSettings]]
    ) -> list[list[PartitionResult]]:
        pool = self._ensure_pool()
        self.tasks_run += sum(m for __, m, __ in tasks)
        futures = [
            [
                pool.submit(optimize_partition, query, pid, m, settings)
                for pid in range(m)
            ]
            for query, m, settings in tasks
        ]
        return [[future.result() for future in batch] for batch in futures]

    def map_partitions(
        self, query: Query, n_partitions: int, settings: OptimizerSettings
    ) -> list[PartitionResult]:
        return self.map_batch([(query, n_partitions, settings)])[0]

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
