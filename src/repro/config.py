"""Optimizer configuration shared by master, workers, and cost model.

A single :class:`OptimizerSettings` value describes *what* is being optimized
(plan space, operators, objectives, pruning precision).  It is a small,
picklable, frozen object: in a shared-nothing deployment the master ships it
to every worker together with the query, so workers can rebuild their cost
model and pruning function locally without any shared state — the paper's
"no communication between workers" property.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class PlanSpace(enum.Enum):
    """The two plan spaces of the paper: left-deep (linear) and bushy."""

    LINEAR = "linear"
    BUSHY = "bushy"

    @property
    def group_size(self) -> int:
        """Tables per constraint group: pairs for linear, triples for bushy."""
        return 2 if self is PlanSpace.LINEAR else 3

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class Backend(enum.Enum):
    """Enumeration-core implementations of the worker DP.

    Every backend searches exactly the same plan space and produces the same
    cost frontiers — equivalence is enforced by the differential-testing
    oracle in :mod:`repro.testing` — they differ only in how the hot path is
    executed:

    * :attr:`LEGACY` — the original object-based DP in ``repro.core.worker``:
      one :class:`~repro.plans.plan.Plan` object per stored sub-plan, pruning
      dispatched through a :class:`~repro.cost.pruning.PruningPolicy`.
    * :attr:`FASTDP` — the flat enumeration core in ``repro.core.fastdp``:
      level-wise bitset subset enumeration over precomputed admissible-mask
      lists, packed cost/order-id/back-pointer state instead of plan
      objects, and pruning rules chosen once per run.  Covers interesting
      orders (interned order ids) and parametric costs (lower-envelope
      frontiers) natively; plan trees are materialized once, at the end.
      Plain single-objective runs take its frontier kernel's scalar-min
      rule, at reference speed — ``AUTO`` sends them to ``vecdp``.
    * :attr:`VECDP` — the array-native core in ``repro.core.vecdp``:
      level-at-a-time DP over contiguous numpy arrays (dense per-mask cost
      columns, bulk split generation, whole-array join costing, vectorized
      dominance pruning).  Declares plain and multi-objective optimization
      over both plan spaces; interesting orders, parametric costs, and
      α-approximation are honestly undeclared, so ``AUTO`` routes those to
      ``fastdp``.
    * :attr:`AUTO` — not a core of its own: the dispatch in
      :mod:`repro.core.worker` resolves it to the first backend, in the
      order ``vecdp``, ``fastdp``, ``legacy``, whose declared capabilities
      cover the settings (see
      :data:`repro.core.worker.BACKEND_CAPABILITIES`): ``vecdp`` for plain
      and exact multi-objective settings, ``fastdp`` for the rest.  This is
      the default.

    Explicitly requesting a backend that does not declare the capabilities a
    settings value needs is an error — there is no silent fallback; the
    backend that actually ran is recorded in
    :attr:`repro.core.worker.WorkerStats.backend_used`.
    """

    LEGACY = "legacy"
    FASTDP = "fastdp"
    VECDP = "vecdp"
    AUTO = "auto"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class Objective(enum.Enum):
    """Plan cost metrics.

    The paper's evaluation uses execution time and buffer space; output rows
    (the classical ``C_out`` metric, additive like time) additionally powers
    the parametric-optimization extension.
    """

    EXECUTION_TIME = "time"
    BUFFER_SPACE = "buffer"
    OUTPUT_ROWS = "io"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Default single-objective configuration (paper's first experiment series).
SINGLE_OBJECTIVE: tuple[Objective, ...] = (Objective.EXECUTION_TIME,)

#: Two-metric configuration (paper's second series: time + buffer space).
MULTI_OBJECTIVE: tuple[Objective, ...] = (
    Objective.EXECUTION_TIME,
    Objective.BUFFER_SPACE,
)

#: Parametric configuration: both metrics additive, so the scalarization
#: ``(1-θ)·time + θ·io`` admits exact dynamic programming for every θ.
PARAMETRIC_OBJECTIVES: tuple[Objective, ...] = (
    Objective.EXECUTION_TIME,
    Objective.OUTPUT_ROWS,
)


@dataclass(frozen=True)
class OptimizerSettings:
    """Everything a worker needs, beyond the query, to run its partition.

    Attributes:
        plan_space: search left-deep (:attr:`PlanSpace.LINEAR`) or bushy plans.
        objectives: one cost metric for classical optimization, several for
            multi-objective optimization.
        alpha: approximation factor for multi-objective pruning; ``1.0`` keeps
            the exact Pareto frontier, larger values prune more aggressively
            with a formal factor-``alpha`` near-optimality guarantee
            (Trummer & Koch, SIGMOD 2014).  Ignored for single objectives.
        consider_orders: track interesting orders (sort-merge output order)
            and keep one best plan per (table set, order).
        use_all_join_algorithms: when False, only block-nested-loop join is
            considered — useful to make tests' expected costs easy to derive.
        parametric: treat the two (additive) objectives as the endpoints of
            a parametric cost function ``(1-θ)·cost[0] + θ·cost[1]`` and keep
            exactly the plans optimal for some θ in [0, 1] (lower-envelope
            pruning; see ``repro.algorithms.pqo``).
        theta: an optional θ *binding* for a parametric request: the caller
            wants the single plan optimal at this θ, not the whole envelope.
            θ is a request parameter, **not** part of the optimization
            problem — the DP always computes the full lower envelope, and
            the serving layer answers a bound request by envelope lookup
            (:mod:`repro.core.envelope`).  Accordingly θ is excluded from
            settings signatures and cache fingerprints
            (:mod:`repro.service.fingerprint`), so every θ of one query
            shape shares one cache entry.  Requires ``parametric=True``.
        backend: which enumeration core runs the worker DP (see
            :class:`Backend`).  Accepts the enum or its string value.  The
            default :attr:`Backend.AUTO` resolves to the fastest backend
            capable of the settings — ``vecdp`` for plain and exact
            multi-objective settings, ``fastdp`` for interesting orders,
            parametric costs and multi-objective α > 1.
    """

    plan_space: PlanSpace = PlanSpace.LINEAR
    objectives: tuple[Objective, ...] = SINGLE_OBJECTIVE
    alpha: float = 1.0
    consider_orders: bool = False
    use_all_join_algorithms: bool = True
    parametric: bool = False
    backend: Backend = Backend.AUTO
    theta: float | None = None

    def __post_init__(self) -> None:
        if isinstance(self.backend, str):
            object.__setattr__(self, "backend", Backend(self.backend))
        if not self.objectives:
            raise ValueError("at least one objective is required")
        if len(set(self.objectives)) != len(self.objectives):
            raise ValueError("objectives must be distinct")
        if self.alpha < 1.0:
            raise ValueError(f"alpha must be >= 1.0, got {self.alpha}")
        if self.parametric:
            if len(self.objectives) != 2:
                raise ValueError("parametric optimization needs exactly 2 objectives")
            if Objective.BUFFER_SPACE in self.objectives:
                raise ValueError(
                    "parametric optimization requires additive metrics; "
                    "buffer space composes via max"
                )
            if self.consider_orders:
                raise ValueError(
                    "parametric optimization does not support interesting orders"
                )
        if self.theta is not None:
            if not self.parametric:
                raise ValueError("theta requires parametric=True")
            if not 0.0 <= self.theta <= 1.0:
                raise ValueError(f"theta must be in [0, 1], got {self.theta}")

    @property
    def is_multi_objective(self) -> bool:
        """Whether plans are compared by Pareto dominance over several metrics."""
        return len(self.objectives) > 1

    def replace(self, **changes: object) -> "OptimizerSettings":
        """Return a copy with the given fields changed (dataclasses.replace)."""
        import dataclasses

        return dataclasses.replace(self, **changes)

    def without_theta(self) -> "OptimizerSettings":
        """The θ-free base settings — what fingerprints and DP runs use.

        Identity (no copy) when no θ is bound, so the common non-parametric
        path pays nothing.
        """
        if self.theta is None:
            return self
        return self.replace(theta=None)


#: Settings used when none are supplied: classical single-objective
#: optimization of left-deep plans with all join operators.
DEFAULT_SETTINGS = OptimizerSettings()
