"""The worker-side optimizer (paper Algorithm 2 with Algorithm 5's TrySplits).

Each worker receives ``(query, partition_id, n_partitions, settings)``,
decodes its partition ID into join-order constraints, generates the
admissible join results, and runs the Selinger dynamic-programming scheme
restricted to those results.  No other input is needed — in a shared-nothing
deployment this function *is* the single task shipped to a worker node.

Two split-enumeration strategies, as in the paper:

* **linear** — enumerate every table of the join result as candidate inner
  operand and check the constraints (complexity linear in *possible* splits;
  cheap because left-deep splits are few);
* **bushy** — generate only *admissible* operand pairs in the first place via
  a per-triple Cartesian product (complexity linear in admissible splits; the
  naive enumerate-and-check alternative is benchmarked as an ablation).

:func:`split_source` is the one definition of which splits a partition
admits and of the order they are tried in: the legacy DP below, both fastdp
kernels and the SMA baseline iterate it, and vecdp's array rectangles are
tested cell for cell against it.  :func:`solve_table_set` is the
object-based DP step over those splits, shared by the legacy DP and SMA.
"""

from __future__ import annotations

import enum
import time
from collections.abc import Callable
from dataclasses import dataclass

from repro.config import Backend, OptimizerSettings, PlanSpace
from repro.core.constraints import (
    BushyConstraint,
    Constraint,
    LinearConstraint,
    constraint_groups,
    partition_constraints,
)
from repro.core.partitioning import _constraints_by_group, admissible_results_by_size
from repro.cost.costmodel import CostModel
from repro.cost.pruning import PlanTable, PruningPolicy, make_pruning
from repro.plans.plan import Plan
from repro.query.query import Query
from repro.util.bitset import iter_subsets, mask_of


@dataclass
class WorkerStats:
    """Instrumentation of one partition's optimization run.

    These counters are the raw material for the simulated-cluster timing
    model and reproduce the paper's measured quantities: ``table_entries``
    is the "Memory (relations)" axis of Figures 2/5, and the operation
    counts drive simulated worker time.
    """

    partition_id: int
    n_partitions: int
    n_constraints: int
    #: Admissible join results of cardinality >= 2 (Theorems 2/3 quantity).
    admissible_results: int = 0
    #: Operand pairs tried across all join results (Theorems 6/7 quantity).
    splits_considered: int = 0
    #: Costed join candidates (splits x operator variants x stored sub-plans).
    plans_considered: int = 0
    #: Candidates that survived pruning.
    plans_kept: int = 0
    #: Table sets with at least one stored plan (memory in "relations").
    table_entries: int = 0
    #: Total stored plans (> table_entries for orders / multi-objective).
    stored_plans: int = 0
    #: Plans returned to the master (1, or the partition's Pareto frontier).
    result_plans: int = 0
    wall_time_s: float = 0.0
    #: Name of the enumeration backend that actually ran this partition
    #: (``"legacy"``/``"fastdp"``/``"vecdp"``).  Makes a routing decision
    #: observable end to end: a run that silently landed on a slower core
    #: is distinguishable from one that used the requested backend.
    backend_used: str = ""


@dataclass
class PartitionResult:
    """What a worker sends back: partition-optimal plan(s) plus statistics."""

    plans: list[Plan]
    stats: WorkerStats


# ------------------------------------------------------------------- backends


class Capability(enum.Flag):
    """Optimizer features an enumeration backend can declare support for.

    :func:`required_capabilities` derives the needed set from an
    :class:`~repro.config.OptimizerSettings`; dispatch refuses to route
    settings to a backend whose declaration does not cover them, so a core
    can never be handed a query class it would silently approximate.
    """

    #: Pareto frontiers over several cost metrics (exact, α = 1).
    MULTI_OBJECTIVE = enum.auto()
    #: Selinger interesting orders: one best plan per (table set, order).
    INTERESTING_ORDERS = enum.auto()
    #: Parametric costs: lower-envelope pruning over ``(1-θ)·a + θ·b``.
    PARAMETRIC_COSTS = enum.auto()
    #: Bushy plan spaces (admissible-split generation per Algorithm 5).
    BUSHY_SPACE = enum.auto()
    #: α-approximate Pareto pruning with α > 1.  Split out from
    #: MULTI_OBJECTIVE because α-dominance is not transitive: pruning
    #: decisions depend on candidate arrival order, which rules out the
    #: order-parallel dominance filtering a vectorized core relies on —
    #: exactly the kind of silent approximation the declaration system
    #: exists to prevent.
    ALPHA_APPROXIMATION = enum.auto()


#: Everything a backend can currently be asked to do.
ALL_CAPABILITIES = (
    Capability.MULTI_OBJECTIVE
    | Capability.INTERESTING_ORDERS
    | Capability.PARAMETRIC_COSTS
    | Capability.BUSHY_SPACE
    | Capability.ALPHA_APPROXIMATION
)


def required_capabilities(settings: OptimizerSettings) -> Capability:
    """The capability set a backend must declare to run these settings."""
    needed = Capability(0)
    if settings.is_multi_objective:
        needed |= Capability.MULTI_OBJECTIVE
        # The parametric path prunes by lower envelope and ignores alpha,
        # so the order-sensitivity of α-dominance never arises there.
        if settings.alpha != 1.0 and not settings.parametric:
            needed |= Capability.ALPHA_APPROXIMATION
    if settings.consider_orders:
        needed |= Capability.INTERESTING_ORDERS
    if settings.parametric:
        needed |= Capability.PARAMETRIC_COSTS
    if settings.plan_space is PlanSpace.BUSHY:
        needed |= Capability.BUSHY_SPACE
    return needed


#: The enumeration cores and the capabilities each declares, in AUTO's
#: preference order: AUTO resolves to the first entry covering the settings.
BACKEND_CAPABILITIES: dict[Backend, Capability] = {
    # Plain and exact multi-objective only: α-dominance is not transitive,
    # and orders / parametric envelopes have no array formulation here.
    Backend.VECDP: Capability.MULTI_OBJECTIVE | Capability.BUSHY_SPACE,
    Backend.FASTDP: ALL_CAPABILITIES,
    Backend.LEGACY: ALL_CAPABILITIES,
}


def capability_matrix() -> dict[str, dict[str, bool]]:
    """``{backend name: {capability name: declared}}`` — the README matrix."""
    return {
        backend.value: {
            capability.name.lower(): bool(capability & declared)
            for capability in Capability
        }
        for backend, declared in BACKEND_CAPABILITIES.items()
    }


def resolve_backend(settings: OptimizerSettings) -> Backend:
    """The backend that will run these settings.

    :attr:`~repro.config.Backend.AUTO` resolves to the first capable entry
    of :data:`BACKEND_CAPABILITIES`.  An explicitly requested backend must
    declare every needed capability — routing around an incapable core
    silently would make a fallback indistinguishable from the requested
    run, which is exactly the failure mode ``WorkerStats.backend_used``
    exists to rule out.  Resolution imports no core.
    """
    needed = required_capabilities(settings)
    if settings.backend is Backend.AUTO:
        return next(
            backend
            for backend, declared in BACKEND_CAPABILITIES.items()
            if needed & declared == needed
        )
    missing = needed & ~BACKEND_CAPABILITIES[settings.backend]
    if missing:
        raise ValueError(
            f"backend {settings.backend.value!r} does not declare {missing!r}; "
            f"use Backend.AUTO to pick a capable backend"
        )
    return settings.backend


@dataclass
class _BushyGroup:
    """Precomputed per-group data for bushy split generation."""

    group_mask: int
    x_bit: int = 0
    yz_mask: int = 0
    constrained: bool = False


def optimize_partition(
    query: Query,
    partition_id: int,
    n_partitions: int,
    settings: OptimizerSettings,
) -> PartitionResult:
    """Find the optimal plan(s) within one plan-space partition.

    With ``n_partitions == 1`` this is exactly the classical (serial) DP —
    the baseline the paper computes speedups against.

    ``settings.backend`` selects the enumeration core
    (:func:`resolve_backend`): the object-based DP of this module
    (:attr:`~repro.config.Backend.LEGACY`), the flat bitset core of
    :mod:`repro.core.fastdp` (:attr:`~repro.config.Backend.FASTDP`), the
    array core of :mod:`repro.core.vecdp`
    (:attr:`~repro.config.Backend.VECDP`), or — the default —
    :attr:`~repro.config.Backend.AUTO`, the first entry of
    :data:`BACKEND_CAPABILITIES` whose declared :class:`Capability` set
    covers the settings.  All backends produce identical plans and
    statistics; each core stamps ``stats.backend_used`` itself, so a
    runner that routes elsewhere is observable.  The runner is looked up
    at call time — a core module is imported only when a partition runs on
    it.  This function is the single task the MPQ partition executors ship
    to worker processes.
    """
    backend = resolve_backend(settings)
    if backend is Backend.VECDP:
        from repro.core import vecdp

        run = vecdp.optimize_partition_vecdp
    elif backend is Backend.FASTDP:
        from repro.core import fastdp

        run = fastdp.optimize_partition_fastdp
    else:
        run = _optimize_partition_legacy
    started = time.perf_counter()
    constraints = partition_constraints(
        query.n_tables, partition_id, n_partitions, settings.plan_space
    )
    stats = WorkerStats(partition_id, n_partitions, len(constraints))
    plans = run(query, constraints, settings, stats)
    stats.result_plans = len(plans)
    stats.wall_time_s = time.perf_counter() - started
    return PartitionResult(plans=plans, stats=stats)


def _optimize_partition_legacy(
    query: Query, constraints: tuple, settings: OptimizerSettings, stats: WorkerStats
) -> list[Plan]:
    """The object-based reference DP (the ``legacy`` backend's kernel): the
    partition's plans, with ``stats`` filled in."""
    stats.backend_used = Backend.LEGACY.value
    n = query.n_tables
    by_size = admissible_results_by_size(n, constraints, settings.plan_space)
    stats.admissible_results = sum(len(masks) for masks in by_size.values())

    cost_model = CostModel(query, settings)
    pruning = make_pruning(settings, n_tables=n)
    table = scan_table(cost_model, pruning)
    splits_of = split_source(n, constraints, settings.plan_space)
    for masks in by_size.values():  # ascending cardinality
        for mask in masks:
            solve_table_set(mask, splits_of(mask), table, cost_model, pruning, stats)

    stats.table_entries = len(table)
    stats.stored_plans = sum(len(entry) for entry in table.values())
    return list(table.get(query.all_tables_mask, []))


def scan_table(cost_model: CostModel, pruning: PruningPolicy) -> PlanTable:
    """A plan table holding every base table's pruned scan plans."""
    table: PlanTable = {}
    for table_number in range(cost_model.query.n_tables):
        for scan in cost_model.scan_plans(table_number):
            pruning.consider(table, scan.mask, scan.cost, scan.order, lambda s=scan: s)
    return table


def solve_table_set(
    mask: int,
    splits: list[tuple[int, int]],
    table: PlanTable,
    cost_model: CostModel,
    pruning: PruningPolicy,
    stats: WorkerStats,
) -> None:
    """Algorithm 2's step for one table set over its admissible ``splits``.

    A split counts in ``splits_considered`` only when both operands have
    stored plans; then every operator variant over every stored sub-plan
    pair is costed (``plans_considered``) and offered to ``pruning``
    (``plans_kept``).
    """
    for left_mask, right_mask in splits:
        left_plans = table.get(left_mask)
        right_plans = table.get(right_mask)
        if left_plans is None or right_plans is None:
            continue
        stats.splits_considered += 1
        for left in left_plans:
            for right in right_plans:
                for candidate in cost_model.join_candidates(left, right):
                    stats.plans_considered += 1
                    if pruning.consider(
                        table,
                        mask,
                        candidate.cost,
                        candidate.order,
                        lambda l=left, r=right, c=candidate: cost_model.build_join(l, r, c),
                    ):
                        stats.plans_kept += 1


def linear_after_masks(
    n_tables: int, constraints: tuple[Constraint, ...]
) -> list[int]:
    """``after_masks[u]`` = tables that must be joined after ``u``.

    Table ``u`` cannot be joined last if some constraint ``u ≺ v`` has ``v``
    inside the join result; ``after_masks[u]`` collects those ``v`` bits so
    the admissibility check is one AND per candidate split.
    """
    after_masks = [0] * n_tables
    for constraint in constraints:
        assert isinstance(constraint, LinearConstraint)
        after_masks[constraint.before] |= 1 << constraint.after
    return after_masks


def _bushy_groups(
    n_tables: int, constraints: tuple[Constraint, ...]
) -> list[_BushyGroup]:
    """Precompute group masks and constraint bit patterns for split generation."""
    groups = constraint_groups(n_tables, PlanSpace.BUSHY)
    assigned = _constraints_by_group(groups, constraints)
    prepared = []
    for group, constraint in zip(groups, assigned):
        info = _BushyGroup(group_mask=mask_of(group))
        if constraint is not None:
            assert isinstance(constraint, BushyConstraint)
            info.constrained = True
            info.x_bit = 1 << constraint.x
            info.yz_mask = (1 << constraint.y) | (1 << constraint.z)
        prepared.append(info)
    return prepared


def bushy_operands(mask: int, groups: list[_BushyGroup]) -> list[int]:
    """Admissible left operands for splitting ``mask`` (Algorithm 5, bushy).

    Generates, by per-group Cartesian product, every subset ``L`` of ``mask``
    such that both ``L`` and ``mask \\ L`` are admissible intermediate
    results.  The returned list includes the degenerate operands ``0`` and
    ``mask`` (callers skip them) — keeping them makes the product's size
    match the closed-form split counts of Theorem 7 exactly.
    """
    operands = [0]
    for group in groups:
        local = group.group_mask & mask
        if local == 0:
            continue
        subsets = list(iter_subsets(local))
        if group.constrained and mask & group.yz_mask == group.yz_mask:
            # Both y and z are in the join result; since the result is
            # admissible, x is too.  Remove operand sides violating the
            # constraint: the side containing {y, z} must also contain x.
            x_bit, yz = group.x_bit, group.yz_mask
            subsets = [
                sub
                for sub in subsets
                if not (sub & yz == yz and not sub & x_bit)
                and not (sub & yz == 0 and sub & x_bit)
            ]
        operands = [partial | sub for partial in operands for sub in subsets]
    return operands


def split_source(
    n_tables: int, constraints: tuple[Constraint, ...], plan_space: PlanSpace
) -> Callable[[int], list[tuple[int, int]]]:
    """``splits_of(mask)``: the ``(left, right)`` splits a partition admits.

    Algorithm 5's TrySplits, in the generation order every scalar core
    shares — order-sensitive tie-breaking and α-pruning (α > 1) depend on
    it.  Linear (TrySplits[Linear]): each table of ``mask`` in ascending bit
    order as the inner (right) operand, skipping any that
    :func:`linear_after_masks` blocks.  Bushy (TrySplits[Bushy]):
    :func:`bushy_operands` order as the left operand, minus the degenerate
    ``0`` and ``mask``.
    """
    if plan_space is PlanSpace.LINEAR:
        after = linear_after_masks(n_tables, constraints)

        def splits_of(mask: int) -> list[tuple[int, int]]:
            splits = []
            remaining = mask
            while remaining:
                low = remaining & -remaining
                remaining ^= low
                if not after[low.bit_length() - 1] & mask:
                    splits.append((mask ^ low, low))
            return splits

        return splits_of
    groups = _bushy_groups(n_tables, constraints)

    def splits_of(mask: int) -> list[tuple[int, int]]:
        return [
            (left, mask ^ left)
            for left in bushy_operands(mask, groups)
            if left and left != mask
        ]

    return splits_of
