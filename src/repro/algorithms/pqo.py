"""Parametric query optimization (PQO) on top of MPQ.

The paper points out (Sections 2 and 4) that its partitioning scheme applies
unchanged to parametric query optimization — DP variants whose plan costs
depend on unknown parameters (Ganguly, VLDB 1998; Hulgeri & Sudarshan,
VLDB 2003; Ioannidis et al., VLDBJ 1997).  This module realizes that claim:
only the pruning function changes.

The parametric cost model here is linear in one parameter θ ∈ [0, 1]::

    cost(plan, θ) = (1-θ) · execution_time(plan) + θ · output_rows(plan)

Both endpoint metrics are additive, so for every fixed θ the scalarized
problem is a classical DP; keeping the *lower envelope* of cost lines per
table set yields, in a single pass, a plan set containing an optimal plan
for every θ simultaneously.  The master's FinalPrune merges partitions'
envelopes into the global one, exactly as for Pareto frontiers.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.algorithms.mpq import MPQReport, optimize_mpq
from repro.cluster.simulator import DEFAULT_CLUSTER, ClusterModel
from repro.config import PARAMETRIC_OBJECTIVES, Backend, OptimizerSettings, PlanSpace
from repro.core.envelope import best_index_at
from repro.core.master import PartitionExecutor
from repro.cost.parametric import scalarize, switching_points
from repro.plans.plan import Plan
from repro.query.query import Query


@dataclass
class PQOResult:
    """The parametric-optimal plan set of one query."""

    report: MPQReport

    @property
    def plans(self) -> list[Plan]:
        """Plans on the lower envelope — each optimal for some θ."""
        return self.report.plans

    def best_plan_for(self, theta: float) -> Plan:
        """The cheapest plan at a concrete parameter value.

        Ties at a switching θ resolve by
        :func:`repro.core.envelope.best_index_at`, the rule every serving
        door binds θ with, so the library and a served answer name the
        same plan.
        """
        if not self.plans:
            raise ValueError("optimization produced no plan")
        costs = [plan.cost for plan in self.plans]
        return self.plans[best_index_at(costs, theta)]

    def cost_at(self, theta: float) -> float:
        """Scalarized cost of the optimal plan at θ (the envelope value)."""
        return scalarize(self.best_plan_for(theta).cost, theta)

    def switching_thetas(self) -> list[float]:
        """θ values where the optimal plan changes identity."""
        return switching_points([plan.cost for plan in self.plans])


def parametric_settings(
    plan_space: PlanSpace = PlanSpace.LINEAR,
    backend: Backend = Backend.AUTO,
) -> OptimizerSettings:
    """Optimizer settings for one-parameter linear parametric optimization.

    ``backend`` selects the enumeration core; the default ``AUTO`` resolves
    to the fastest backend declaring
    :attr:`repro.core.worker.Capability.PARAMETRIC_COSTS`.
    """
    return OptimizerSettings(
        plan_space=plan_space,
        objectives=PARAMETRIC_OBJECTIVES,
        parametric=True,
        backend=backend,
    )


def optimize_parametric(
    query: Query,
    n_workers: int = 1,
    plan_space: PlanSpace = PlanSpace.LINEAR,
    cluster: ClusterModel = DEFAULT_CLUSTER,
    executor: PartitionExecutor | None = None,
    backend: Backend = Backend.AUTO,
) -> PQOResult:
    """Find plans covering every parameter value, in parallel via MPQ."""
    report = optimize_mpq(
        query, n_workers, parametric_settings(plan_space, backend),
        cluster, executor,
    )
    return PQOResult(report=report)
