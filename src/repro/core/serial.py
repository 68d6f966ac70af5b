"""Serial dynamic-programming optimization (the single-node baseline).

Running MPQ with a single partition imposes no constraints, so the worker
explores the full plan space in the classical table-set order — the paper
notes that "if we use one worker then MPQ is equivalent to the classical
query optimization algorithms as it treats the same table sets in the same
order".  This module exposes that case directly: it is both the baseline the
paper computes speedups against and the reference answer for tests.
"""

from __future__ import annotations

from repro.config import DEFAULT_SETTINGS, OptimizerSettings
from repro.core.worker import PartitionResult, optimize_partition
from repro.plans.plan import Plan, plan_tie_key
from repro.query.query import Query


def optimize_serial(
    query: Query, settings: OptimizerSettings = DEFAULT_SETTINGS
) -> PartitionResult:
    """Optimize ``query`` with classical (unpartitioned) dynamic programming.

    Equivalent to Selinger's algorithm for linear plan spaces and to
    DP over all subsets (Vance & Maier) for bushy plan spaces; for multiple
    objectives it is the serial multi-objective DP of Trummer & Koch.

    The enumeration core is chosen by ``settings.backend`` through the
    worker's capability table (the default ``AUTO`` resolves to the
    fastest capable backend); the core that ran is recorded in
    ``result.stats.backend_used``.
    """
    return optimize_partition(query, partition_id=0, n_partitions=1, settings=settings)


def best_plan(result: PartitionResult) -> Plan:
    """The cheapest plan by the first metric, with a deterministic tie rule.

    Ties on the first metric are broken by the remaining cost metrics and
    then by the structural plan signature
    (:func:`repro.plans.plan.plan_tie_key`), *never* by generation order —
    so the selected plan is identical across enumeration backends and
    across any reordering of the result list.
    """
    if not result.plans:
        raise ValueError("optimization produced no plan")
    return min(result.plans, key=plan_tie_key)
