"""Golden-plan snapshot tests.

The expected join orders, costs, and frontiers below were computed once and
committed.  They pin the optimizer's *output* — not its internals — so a
hot-path refactor (a new enumeration backend, a pruning rewrite) cannot
silently change which plan is chosen or what it costs.  If one of these
fails after an intentional cost-model change, regenerate the literals and
say so in the commit; if it fails after a "pure refactor", the refactor is
not pure.

Every snapshot is asserted for *both* enumeration backends, and best-plan
selection goes through the documented deterministic tie rule
(:func:`repro.plans.plan.plan_tie_key`), so the snapshots are
backend-independent by construction.
"""

from __future__ import annotations

import pytest

from repro.config import (
    MULTI_OBJECTIVE,
    PARAMETRIC_OBJECTIVES,
    Backend,
    OptimizerSettings,
    PlanSpace,
)
from repro.core.serial import best_plan, optimize_serial
from repro.core.worker import PartitionResult, WorkerStats
from repro.plans.plan import plan_signature, plan_tie_key
from repro.query.generator import (
    SteinbrunnGenerator,
    make_chain_query,
    make_clique_query,
    make_cycle_query,
    make_star_query,
)
from repro.query.query import JoinGraphKind

BACKENDS = [Backend.LEGACY, Backend.FASTDP]

#: Snapshots for the capabilities vecdp declares (plain and multi-objective
#: over both plan spaces) additionally run on the array core; the
#: orders/parametric snapshots keep the two scalar backends.
PLAIN_BACKENDS = [*BACKENDS, Backend.VECDP]

#: (query factory, seed, expected left-deep join order, expected cost).
LEFTDEEP_GOLDEN = [
    ("chain6-seed11", make_chain_query, 6, 11, (1, 0, 2, 3, 4, 5), 2105652550075529.8),
    ("star6-seed7", make_star_query, 6, 7, (1, 0, 4, 5, 3, 2), 1.0672956989504826e16),
    ("clique5-seed3", make_clique_query, 5, 3, (3, 0, 4, 2, 1), 998907.0237956364),
    ("cycle6-seed5", make_cycle_query, 6, 5, (3, 2, 4, 5, 0, 1), 453512101314.11084),
]

#: star-5 seed 7, time+buffer objectives: the exact Pareto frontier.
MULTI_GOLDEN_FRONTIER = [
    (4162697778021.978, 76241.0),
    (4168515360514.373, 55652.0),
    (165741642426792.78, 42455.0),
    (168895808565079.1, 28150.0),
    (2077286470233918.8, 6115.0),
    (1.930719320326567e17, 100.0),
]

#: chain-5 seed 11, bushy space: structural signature of the best plan.
BUSHY_GOLDEN_COST = 1996796630.0239124
BUSHY_GOLDEN_SIGNATURE = (
    1,
    "hash",
    (
        1,
        "hash",
        (0, 2, "full_scan"),
        (1, "hash", (0, 1, "full_scan"), (0, 0, "full_scan")),
    ),
    (1, "hash", (0, 3, "full_scan"), (0, 4, "full_scan")),
)


@pytest.mark.parametrize("backend", PLAIN_BACKENDS, ids=lambda b: b.value)
@pytest.mark.parametrize(
    "label,factory,n_tables,seed,expected_order,expected_cost",
    LEFTDEEP_GOLDEN,
    ids=[case[0] for case in LEFTDEEP_GOLDEN],
)
def test_leftdeep_golden_plan(
    label, factory, n_tables, seed, expected_order, expected_cost, backend
):
    query = factory(n_tables, seed=seed)
    result = optimize_serial(query, OptimizerSettings(backend=backend))
    plan = best_plan(result)
    assert plan.join_order() == expected_order
    assert plan.cost[0] == pytest.approx(expected_cost, rel=1e-12)


@pytest.mark.parametrize("backend", PLAIN_BACKENDS, ids=lambda b: b.value)
def test_multi_objective_golden_frontier(backend):
    query = make_star_query(5, seed=7)
    settings = OptimizerSettings(objectives=MULTI_OBJECTIVE, backend=backend)
    result = optimize_serial(query, settings)
    frontier = sorted(plan.cost for plan in result.plans)
    assert len(frontier) == len(MULTI_GOLDEN_FRONTIER)
    for got, expected in zip(frontier, MULTI_GOLDEN_FRONTIER):
        assert got == pytest.approx(expected, rel=1e-12)
    best = best_plan(result)
    assert best.cost == pytest.approx(MULTI_GOLDEN_FRONTIER[0], rel=1e-12)
    assert best.join_order() == (0, 3, 1, 4, 2)


@pytest.mark.parametrize("backend", PLAIN_BACKENDS, ids=lambda b: b.value)
def test_bushy_golden_plan(backend):
    query = make_chain_query(5, seed=11)
    settings = OptimizerSettings(plan_space=PlanSpace.BUSHY, backend=backend)
    plan = best_plan(optimize_serial(query, settings))
    assert plan.cost[0] == pytest.approx(BUSHY_GOLDEN_COST, rel=1e-12)
    assert plan_signature(plan) == BUSHY_GOLDEN_SIGNATURE


#: chain-6 seed 13 over clustered tables, interesting orders on: the full
#: per-order frontier at the final table set — (first-metric cost, output
#: order rendered as str or None) in stored order — and the best plan.
ORDERS_GOLDEN_FRONTIER = [
    (10778022908424.549, None),
    (394846880051123.06, "T1.c0"),
    (2.3556122884843844e16, "T0.c0"),
    (1250064738706076.2, "T1.c1"),
    (1.4121503692576332e16, "T2.c1"),
    (9.383302999321702e17, "T3.c1"),
    (1680172263749727.0, "T4.c1"),
]
ORDERS_GOLDEN_BEST_ORDER = (5, 4, 3, 2, 1, 0)
ORDERS_GOLDEN_BEST_COST = 10778022908424.549


@pytest.mark.parametrize("backend", BACKENDS, ids=lambda b: b.value)
def test_interesting_orders_golden_frontier(backend):
    """Pin the multi-(mask, order) frontier, not just the best plan."""
    query = SteinbrunnGenerator(seed=13, clustered_tables=True).query(
        6, JoinGraphKind.CHAIN
    )
    settings = OptimizerSettings(consider_orders=True, backend=backend)
    result = optimize_serial(query, settings)
    got = [
        (plan.cost[0], str(plan.order) if plan.order else None)
        for plan in result.plans
    ]
    assert len(got) == len(ORDERS_GOLDEN_FRONTIER)
    for (got_cost, got_order), (want_cost, want_order) in zip(
        got, ORDERS_GOLDEN_FRONTIER
    ):
        assert got_cost == pytest.approx(want_cost, rel=1e-12)
        assert got_order == want_order
    best = best_plan(result)
    assert best.join_order() == ORDERS_GOLDEN_BEST_ORDER
    assert best.cost[0] == pytest.approx(ORDERS_GOLDEN_BEST_COST, rel=1e-12)


@pytest.mark.parametrize("backend", BACKENDS, ids=lambda b: b.value)
def test_interesting_orders_tie_rule_ignores_frontier_order(backend):
    """plan_tie_key decides among per-order plans, not generation order."""
    query = SteinbrunnGenerator(seed=13, clustered_tables=True).query(
        6, JoinGraphKind.CHAIN
    )
    settings = OptimizerSettings(consider_orders=True, backend=backend)
    result = optimize_serial(query, settings)
    stats = WorkerStats(partition_id=0, n_partitions=1, n_constraints=0)
    reversed_result = PartitionResult(
        plans=list(reversed(result.plans)), stats=stats
    )
    assert plan_signature(best_plan(result)) == plan_signature(
        best_plan(reversed_result)
    )


#: clique-7 seed 16, parametric (time, io): the lower envelope — two lines
#: crossing once inside (0, 1) — with the θ ranges each plan wins.
PARAMETRIC_GOLDEN_ENVELOPE = [
    (4935954.915994024, 3333047.9299950195),
    (4943874.5140040405, 3328847.095003367),
]
PARAMETRIC_GOLDEN_SWITCH = 0.6534088352227998
PARAMETRIC_GOLDEN_ORDERS = {
    (4935954.915994024, 3333047.9299950195): (1, 0, 2, 4, 5, 6, 3),
    (4943874.5140040405, 3328847.095003367): (1, 0, 2, 3, 4, 5, 6),
}


@pytest.mark.parametrize("backend", BACKENDS, ids=lambda b: b.value)
def test_parametric_golden_envelope(backend):
    from repro.cost.parametric import switching_points

    query = SteinbrunnGenerator(seed=16).query(7, JoinGraphKind.CLIQUE)
    settings = OptimizerSettings(
        objectives=PARAMETRIC_OBJECTIVES, parametric=True, backend=backend
    )
    result = optimize_serial(query, settings)
    envelope = sorted(plan.cost for plan in result.plans)
    assert len(envelope) == len(PARAMETRIC_GOLDEN_ENVELOPE)
    for got, want in zip(envelope, sorted(PARAMETRIC_GOLDEN_ENVELOPE)):
        assert got == pytest.approx(want, rel=1e-12)
    points = switching_points([plan.cost for plan in result.plans])
    assert len(points) == 1
    assert points[0] == pytest.approx(PARAMETRIC_GOLDEN_SWITCH, rel=1e-9)
    for plan in result.plans:
        assert plan.join_order() == PARAMETRIC_GOLDEN_ORDERS[plan.cost]


@pytest.mark.parametrize("backend", BACKENDS, ids=lambda b: b.value)
def test_parametric_golden_theta_selection(backend):
    """best_plan_for picks each envelope line on its side of the switch."""
    from repro.algorithms.pqo import optimize_parametric

    query = SteinbrunnGenerator(seed=16).query(7, JoinGraphKind.CLIQUE)
    result = optimize_parametric(query, backend=backend)
    time_heavy = result.best_plan_for(0.0)
    io_heavy = result.best_plan_for(1.0)
    assert time_heavy.cost == pytest.approx(PARAMETRIC_GOLDEN_ENVELOPE[0])
    assert io_heavy.cost == pytest.approx(PARAMETRIC_GOLDEN_ENVELOPE[1])
    assert result.switching_thetas() == [
        pytest.approx(PARAMETRIC_GOLDEN_SWITCH, rel=1e-9)
    ]


class TestDeterministicTieBreaking:
    """The documented tie rule: cost, then full cost vector, then structure.

    Generation order must never decide the best plan — the same plan set in
    any order selects the same plan, on any backend.
    """

    @staticmethod
    def _result(plans):
        stats = WorkerStats(partition_id=0, n_partitions=1, n_constraints=0)
        return PartitionResult(plans=list(plans), stats=stats)

    def _equal_cost_plans(self):
        """All optimal-cost plans of a symmetric 2-table query."""
        from repro.core.exhaustive import iter_leftdeep_plans
        from repro.cost.costmodel import CostModel
        from tests.conftest import make_manual_query

        query = make_manual_query([1000, 1000], [(0, 1, 0.01)])
        cost_model = CostModel(query, OptimizerSettings())
        plans = list(iter_leftdeep_plans(query, cost_model))
        cheapest = min(plan.cost[0] for plan in plans)
        ties = [plan for plan in plans if plan.cost[0] == cheapest]
        assert len(ties) >= 2, "symmetric query must produce tied plans"
        return ties

    def test_best_plan_ignores_list_order(self):
        ties = self._equal_cost_plans()
        forward = best_plan(self._result(ties))
        backward = best_plan(self._result(reversed(ties)))
        assert plan_signature(forward) == plan_signature(backward)

    def test_best_plan_picks_smallest_tie_key(self):
        ties = self._equal_cost_plans()
        chosen = best_plan(self._result(ties))
        assert plan_tie_key(chosen) == min(plan_tie_key(plan) for plan in ties)

    def test_master_and_service_results_agree_with_serial_rule(self):
        from repro.core.master import MasterResult
        from repro.service.service import ServiceResult

        ties = self._equal_cost_plans()
        reference = best_plan(self._result(ties))
        master = MasterResult(
            plans=list(reversed(ties)), n_partitions=1, requested_workers=1
        )
        service = ServiceResult(
            plans=list(reversed(ties)),
            n_partitions=1,
            fingerprint="golden",
            cached=False,
        )
        assert plan_signature(master.best) == plan_signature(reference)
        assert plan_signature(service.best) == plan_signature(reference)

    def test_signature_distinguishes_structure(self):
        ties = self._equal_cost_plans()
        signatures = {plan_signature(plan) for plan in ties}
        assert len(signatures) == len(ties)
