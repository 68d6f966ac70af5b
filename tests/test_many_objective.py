"""Three-objective optimization (the "many-objective" setting of T&K 2014).

The paper's Section 5.4 analysis covers any number of cost metrics: memory
and traffic grow linearly in plans-per-set, time cubically.  The metric set
here (time, buffer, C_out) exercises a genuine tri-objective configuration.
"""

from __future__ import annotations

import pytest

from repro.algorithms.moq import approximation_ratio
from repro.config import Objective, OptimizerSettings, PlanSpace
from repro.core.exhaustive import all_leftdeep_cost_vectors
from repro.core.master import optimize_parallel
from repro.core.serial import optimize_serial
from repro.cost.pareto import dominates, pareto_filter
from repro.query.generator import SteinbrunnGenerator

TRI = (Objective.EXECUTION_TIME, Objective.BUFFER_SPACE, Objective.OUTPUT_ROWS)


def tri_settings(alpha=1.0):
    return OptimizerSettings(objectives=TRI, alpha=alpha)


class TestTriObjective:
    def test_cost_vectors_have_three_components(self):
        query = SteinbrunnGenerator(1).query(5)
        result = optimize_serial(query, tri_settings())
        assert all(len(plan.cost) == 3 for plan in result.plans)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_exact_frontier_matches_exhaustive(self, seed):
        query = SteinbrunnGenerator(seed).query(5)
        settings = tri_settings()
        reference = set(pareto_filter(all_leftdeep_cost_vectors(query, settings)))
        produced = {plan.cost for plan in optimize_serial(query, settings).plans}
        assert produced == reference

    def test_frontier_is_antichain(self):
        query = SteinbrunnGenerator(4).query(6)
        result = optimize_serial(query, tri_settings())
        for a in result.plans:
            for b in result.plans:
                if a is not b:
                    assert not dominates(a.cost, b.cost)

    @pytest.mark.parametrize("workers", [2, 4, 8])
    def test_parallel_frontier_equals_serial(self, workers):
        query = SteinbrunnGenerator(5).query(6)
        settings = tri_settings()
        serial_costs = {plan.cost for plan in optimize_serial(query, settings).plans}
        parallel = optimize_parallel(query, workers, settings)
        assert {plan.cost for plan in parallel.plans} == serial_costs

    @pytest.mark.parametrize("alpha", [2.0, 10.0])
    def test_alpha_guarantee_three_metrics(self, alpha):
        query = SteinbrunnGenerator(6).query(6)
        exact = optimize_serial(query, tri_settings())
        approx = optimize_serial(query, tri_settings(alpha=alpha))
        ratio = approximation_ratio(approx.plans, exact.plans)
        assert ratio <= alpha * (1 + 1e-9)

    def test_tri_frontier_at_least_pairwise(self):
        """Adding a metric can only grow (never shrink) the frontier size."""
        query = SteinbrunnGenerator(7).query(6)
        two = optimize_serial(
            query,
            OptimizerSettings(
                objectives=(Objective.EXECUTION_TIME, Objective.BUFFER_SPACE)
            ),
        )
        three = optimize_serial(query, tri_settings())
        assert len(three.plans) >= len(two.plans)

    def test_bushy_tri_objective(self):
        query = SteinbrunnGenerator(8).query(5)
        settings = OptimizerSettings(objectives=TRI, plan_space=PlanSpace.BUSHY)
        serial = optimize_serial(query, settings)
        parallel = optimize_parallel(query, 2, settings)
        assert {p.cost for p in parallel.plans} == {p.cost for p in serial.plans}

    def test_work_grows_with_metric_count(self):
        """Section 5.4: more metrics, more plans per set, more DP work."""
        query = SteinbrunnGenerator(9).query(8)
        considered, stored = [], []
        for objectives in (
            (Objective.EXECUTION_TIME,),
            (Objective.EXECUTION_TIME, Objective.BUFFER_SPACE),
            TRI,
        ):
            settings = OptimizerSettings(objectives=objectives)
            stats = optimize_serial(query, settings).stats
            considered.append(stats.plans_considered)
            stored.append(stats.stored_plans)
        assert considered[0] <= considered[1] <= considered[2]
        assert considered[2] > considered[0]
        assert stored[0] < stored[1] < stored[2]
