"""Shared-nothing cluster substrate: bytes, network, timing, executors."""

from repro.cluster.serialization import (
    MEMO_ENTRY_BYTES,
    PLAN_NODE_BYTES,
    TASK_HEADER_BYTES,
    memo_entries_bytes,
    plans_bytes,
    query_bytes,
    task_bytes,
)
from repro.cluster.network import NetworkAccountant, NetworkModel
from repro.cluster.simulator import (
    DEFAULT_CLUSTER,
    ClusterModel,
    SimulatedTiming,
    simulate_mpq_run,
    worker_compute_seconds,
)
from repro.cluster.executors import (
    PersistentProcessPoolExecutor,
    SerialPartitionExecutor,
)

__all__ = [
    "MEMO_ENTRY_BYTES",
    "PLAN_NODE_BYTES",
    "TASK_HEADER_BYTES",
    "memo_entries_bytes",
    "plans_bytes",
    "query_bytes",
    "task_bytes",
    "NetworkAccountant",
    "NetworkModel",
    "DEFAULT_CLUSTER",
    "ClusterModel",
    "SimulatedTiming",
    "simulate_mpq_run",
    "worker_compute_seconds",
    "PersistentProcessPoolExecutor",
    "SerialPartitionExecutor",
]
