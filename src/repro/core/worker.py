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
"""

from __future__ import annotations

import enum
import importlib.util
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import lru_cache

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
from repro.util.bitset import bits, iter_subsets, mask_of


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


@lru_cache(maxsize=None)
def _module_importable(module: str) -> bool:
    """Whether ``module`` can be imported (spec probe, no actual import)."""
    return importlib.util.find_spec(module) is not None


def _find_module(module: str) -> bool:
    """Availability probe seam: tests monkeypatch this to simulate absence."""
    return _module_importable(module)


#: A backend's entry point: same contract as :func:`optimize_partition`.
PartitionRunner = Callable[
    ["Query", int, int, OptimizerSettings], "PartitionResult"
]


@dataclass(frozen=True)
class EnumerationBackend:
    """A registered enumeration core: identity, capabilities, entry point.

    ``speed_rank`` orders backends for :attr:`~repro.config.Backend.AUTO`
    resolution — lower ranks win among the capable.  ``loader`` is called
    lazily so registering a backend does not import its (possibly heavy)
    module; the resolved runner is cached after the first call.
    """

    backend: Backend
    capabilities: Capability
    #: AUTO picks the capable backend with the smallest rank.
    speed_rank: int
    loader: Callable[[], PartitionRunner]
    #: Modules the backend needs at run time (e.g. ``("numpy",)``).
    #: Registration is unconditional — the matrix always shows the backend —
    #: but resolution treats it as unavailable while any requirement is
    #: missing, with the reason reportable instead of a silent omission.
    requires: tuple[str, ...] = ()
    _runner: list = field(default_factory=list, repr=False, compare=False)

    @property
    def name(self) -> str:
        """The backend's wire name (the :class:`Backend` enum value)."""
        return self.backend.value

    def unavailable_reason(self) -> str | None:
        """Why this backend cannot run here, or ``None`` if it can.

        Checked against the declared ``requires`` modules; the string is
        surfaced by ``python -m repro backends`` and by the error raised
        when the backend is requested explicitly.
        """
        missing = [module for module in self.requires if not _find_module(module)]
        if missing:
            return f"{', '.join(missing)} not installed"
        return None

    def available(self) -> bool:
        """Whether every required module is importable."""
        return self.unavailable_reason() is None

    def supports(self, settings: OptimizerSettings) -> bool:
        """Whether the declared capabilities cover these settings."""
        needed = required_capabilities(settings)
        return needed & self.capabilities == needed

    def missing(self, settings: OptimizerSettings) -> Capability:
        """The capabilities these settings need but this backend lacks."""
        return required_capabilities(settings) & ~self.capabilities

    def run(
        self,
        query: Query,
        partition_id: int,
        n_partitions: int,
        settings: OptimizerSettings,
    ) -> PartitionResult:
        """Run one partition on this backend (resolving the runner lazily)."""
        if not self._runner:
            self._runner.append(self.loader())
        return self._runner[0](query, partition_id, n_partitions, settings)


_BACKEND_REGISTRY: dict[Backend, EnumerationBackend] = {}

#: Bumped on every (re-)registration; memoizers keyed on settings values
#: that embed AUTO's *resolution* (the service fingerprint) include this so
#: a registry change invalidates them instead of serving stale signatures.
_REGISTRY_GENERATION = 0


def registry_generation() -> int:
    """A counter that changes whenever the backend registry changes.

    Built-in backends are import-registered first: a generation observed by
    a memoizer (e.g. the service's settings-signature cache) must describe
    the *fully initialized* registry, or a signature computed before the
    lazy built-in imports would be keyed to a generation that silently
    advances moments later — the mid-process-registration instability this
    counter exists to make observable.
    """
    _ensure_builtin_backends()
    return _REGISTRY_GENERATION


def register_backend(descriptor: EnumerationBackend) -> None:
    """Register (or replace) an enumeration backend.

    Re-registration under the same :class:`~repro.config.Backend` key
    replaces the previous descriptor — the hook tests and future backends
    use to swap in instrumented cores.
    """
    global _REGISTRY_GENERATION
    if descriptor.backend is Backend.AUTO:
        raise ValueError("AUTO is a resolution rule, not a registrable backend")
    _BACKEND_REGISTRY[descriptor.backend] = descriptor
    _REGISTRY_GENERATION += 1


def registered_backends() -> tuple[EnumerationBackend, ...]:
    """All registered backends, fastest (lowest rank) first."""
    _ensure_builtin_backends()
    return tuple(
        sorted(_BACKEND_REGISTRY.values(), key=lambda d: d.speed_rank)
    )


def capability_matrix() -> dict[str, dict[str, bool]]:
    """``{backend name: {capability name: declared}}`` — the README matrix."""
    return {
        descriptor.name: {
            capability.name.lower(): bool(capability & descriptor.capabilities)
            for capability in Capability
        }
        for descriptor in registered_backends()
    }


def _ensure_builtin_backends() -> None:
    """Import-register the built-in cores that self-register on import."""
    if Backend.FASTDP not in _BACKEND_REGISTRY:
        from repro.core import fastdp  # noqa: F401  (registers itself)
    if Backend.VECDP not in _BACKEND_REGISTRY:
        from repro.core import vecdp  # noqa: F401  (registers itself)


def resolve_backend(settings: OptimizerSettings) -> EnumerationBackend:
    """The backend that will run these settings.

    :attr:`~repro.config.Backend.AUTO` resolves to the fastest capable
    *available* registered backend (a backend whose required modules are
    missing is skipped, not an error).  An explicitly requested backend must
    declare every needed capability and be available — routing around an
    incapable or absent core silently would make a fallback
    indistinguishable from the requested run, which is exactly the failure
    mode ``WorkerStats.backend_used`` exists to rule out.
    """
    _ensure_builtin_backends()
    if settings.backend is Backend.AUTO:
        capable = [
            descriptor
            for descriptor in _BACKEND_REGISTRY.values()
            if descriptor.supports(settings) and descriptor.available()
        ]
        if not capable:
            raise ValueError(
                f"no registered backend supports "
                f"{required_capabilities(settings)!r}"
            )
        return min(capable, key=lambda descriptor: descriptor.speed_rank)
    descriptor = _BACKEND_REGISTRY.get(settings.backend)
    if descriptor is None:
        raise ValueError(f"backend {settings.backend.value!r} is not registered")
    reason = descriptor.unavailable_reason()
    if reason is not None:
        raise ValueError(
            f"backend {descriptor.name!r} is unavailable: {reason}; use "
            f"Backend.AUTO to pick an available backend"
        )
    if not descriptor.supports(settings):
        raise ValueError(
            f"backend {descriptor.name!r} does not declare "
            f"{descriptor.missing(settings)!r}; use Backend.AUTO to pick a "
            f"capable backend"
        )
    return descriptor


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

    ``settings.backend`` selects the enumeration core from the backend
    registry (:func:`resolve_backend`): the object-based DP of this module
    (:attr:`~repro.config.Backend.LEGACY`), the flat bitset core of
    :mod:`repro.core.fastdp` (:attr:`~repro.config.Backend.FASTDP`), or —
    the default — :attr:`~repro.config.Backend.AUTO`, which picks the
    fastest backend whose declared :class:`Capability` set covers the
    settings.  All backends produce identical plans and statistics; the one
    that ran is recorded in ``stats.backend_used``.  This function is the
    single task the MPQ partition executors ship to worker processes.
    """
    descriptor = resolve_backend(settings)
    result = descriptor.run(query, partition_id, n_partitions, settings)
    # The cores stamp backend_used themselves — the stamp reports what
    # actually ran, not what the registry *meant* to run, so a descriptor
    # whose loader routes elsewhere is observable.  Only fill in the name
    # for third-party runners that left it empty.
    if not result.stats.backend_used:
        result.stats.backend_used = descriptor.name
    return result


def _optimize_partition_legacy(
    query: Query,
    partition_id: int,
    n_partitions: int,
    settings: OptimizerSettings,
) -> PartitionResult:
    """The object-based reference DP (the ``legacy`` backend's entry point)."""
    started = time.perf_counter()
    n = query.n_tables
    constraints = partition_constraints(
        n, partition_id, n_partitions, settings.plan_space
    )
    stats = WorkerStats(
        partition_id=partition_id,
        n_partitions=n_partitions,
        n_constraints=len(constraints),
        backend_used=Backend.LEGACY.value,
    )
    by_size = admissible_results_by_size(n, constraints, settings.plan_space)
    stats.admissible_results = sum(len(masks) for masks in by_size.values())

    cost_model = CostModel(query, settings)
    pruning = make_pruning(settings, n_tables=n)
    table: PlanTable = {}
    for table_number in range(n):
        for scan in cost_model.scan_plans(table_number):
            pruning.consider(table, scan.mask, scan.cost, scan.order, lambda s=scan: s)

    if settings.plan_space is PlanSpace.LINEAR:
        _run_linear(query, constraints, by_size, table, cost_model, pruning, stats)
    else:
        _run_bushy(query, constraints, by_size, table, cost_model, pruning, stats)

    stats.table_entries = len(table)
    stats.stored_plans = sum(len(entry) for entry in table.values())
    full_mask = query.all_tables_mask
    plans = list(table.get(full_mask, []))
    stats.result_plans = len(plans)
    stats.wall_time_s = time.perf_counter() - started
    return PartitionResult(plans=plans, stats=stats)


def _consider_joins(
    left_plans: list[Plan],
    right_plans: list[Plan],
    mask: int,
    table: PlanTable,
    cost_model: CostModel,
    pruning: PruningPolicy,
    stats: WorkerStats,
) -> None:
    """Cost and prune every operator variant over stored sub-plan pairs."""
    for left in left_plans:
        for right in right_plans:
            for candidate in cost_model.join_candidates(left, right):
                stats.plans_considered += 1
                kept = pruning.consider(
                    table,
                    mask,
                    candidate.cost,
                    candidate.order,
                    lambda l=left, r=right, c=candidate: cost_model.build_join(l, r, c),
                )
                if kept:
                    stats.plans_kept += 1


def linear_after_masks(
    n_tables: int, constraints: tuple[Constraint, ...]
) -> list[int]:
    """``after_masks[u]`` = tables that must be joined after ``u``.

    Table ``u`` cannot be joined last if some constraint ``u ≺ v`` has ``v``
    inside the join result; ``after_masks[u]`` collects those ``v`` bits so
    the admissibility check is one AND per candidate split.  Shared by the
    legacy linear DP below and the fastdp core, so the two backends can
    never drift on which splits a partition admits.
    """
    after_masks = [0] * n_tables
    for constraint in constraints:
        assert isinstance(constraint, LinearConstraint)
        after_masks[constraint.before] |= 1 << constraint.after
    return after_masks


def _run_linear(
    query: Query,
    constraints: tuple[Constraint, ...],
    by_size: dict[int, list[int]],
    table: PlanTable,
    cost_model: CostModel,
    pruning: PruningPolicy,
    stats: WorkerStats,
) -> None:
    """TrySplits[Linear]: every table may be inner operand unless blocked."""
    n = query.n_tables
    after_masks = linear_after_masks(n, constraints)
    for size in range(2, n + 1):
        for mask in by_size.get(size, ()):
            for inner in bits(mask):
                if after_masks[inner] & mask:
                    continue
                rest = mask ^ (1 << inner)
                left_plans = table.get(rest)
                if left_plans is None:
                    continue
                stats.splits_considered += 1
                _consider_joins(
                    left_plans,
                    table[1 << inner],
                    mask,
                    table,
                    cost_model,
                    pruning,
                    stats,
                )


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


def _run_bushy(
    query: Query,
    constraints: tuple[Constraint, ...],
    by_size: dict[int, list[int]],
    table: PlanTable,
    cost_model: CostModel,
    pruning: PruningPolicy,
    stats: WorkerStats,
) -> None:
    """TrySplits[Bushy]: generate only admissible splits, then cost them."""
    n = query.n_tables
    groups = _bushy_groups(n, constraints)
    for size in range(2, n + 1):
        for mask in by_size.get(size, ()):
            for left_mask in bushy_operands(mask, groups):
                if left_mask == 0 or left_mask == mask:
                    continue
                right_mask = mask ^ left_mask
                left_plans = table.get(left_mask)
                right_plans = table.get(right_mask)
                if left_plans is None or right_plans is None:
                    continue
                stats.splits_considered += 1
                _consider_joins(
                    left_plans, right_plans, mask, table, cost_model, pruning, stats
                )


# The reference core registers here; the fastdp core self-registers from
# repro.core.fastdp (imported on first resolution), declaring the same full
# capability set with a better speed rank — so AUTO resolves to fastdp for
# every settings value while LEGACY stays selectable for differential runs.
register_backend(
    EnumerationBackend(
        backend=Backend.LEGACY,
        capabilities=ALL_CAPABILITIES,
        speed_rank=100,
        loader=lambda: _optimize_partition_legacy,
    )
)
