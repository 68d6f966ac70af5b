"""Property-based differential tests of the enumeration backends.

The acceptance bar for any hot-path rewrite: on seeded random queries across
chain/star/cycle/clique topologies and 1–3 objectives, the fastdp core, the
legacy worker, and exhaustive enumeration must agree on the exact Pareto
frontier.  The two sweep tests below run 200 such queries end to end (the
oracle cycles kinds × objective sets internally); the remaining tests pin
the oracle machinery itself — shrinking, sub-query induction, guards.
"""

from __future__ import annotations

import pytest

from repro.config import (
    MULTI_OBJECTIVE,
    PARAMETRIC_OBJECTIVES,
    Backend,
    Objective,
    OptimizerSettings,
    PlanSpace,
)
from repro.core.serial import best_plan, optimize_serial
from repro.query.generator import SteinbrunnGenerator
from repro.query.query import JoinGraphKind
from repro.testing import (
    ORACLE_FEATURES,
    ORACLE_OBJECTIVE_SETS,
    BackendRoutingError,
    FrontierMismatch,
    assert_equivalent_frontiers,
    frontier,
    induced_subquery,
    run_differential_oracle,
)
from repro.testing.differential import _legacy_backend

#: The plain sweeps must add up to the acceptance bar of the oracle; the
#: feature sweeps below add interesting-order and parametric coverage on
#: top (the acceptance criterion requires 200+ cases *including* those).
LINEAR_SWEEP_QUERIES = 120
BUSHY_SWEEP_QUERIES = 80
ORDERS_SWEEP_QUERIES = 72
PARAMETRIC_SWEEP_QUERIES = 48
assert LINEAR_SWEEP_QUERIES + BUSHY_SWEEP_QUERIES >= 200

THREE_OBJECTIVES = (
    Objective.EXECUTION_TIME,
    Objective.BUFFER_SPACE,
    Objective.OUTPUT_ROWS,
)

#: vecdp sweep sizes: 200 linear + 120 bushy = 320 seeded queries pitting
#: the array core against both scalar cores and ground truth on every
#: capability it declares (1/2/3 objectives, both plan spaces).
VECDP_LINEAR_SWEEP_QUERIES = 200
VECDP_BUSHY_SWEEP_QUERIES = 120
VECDP_BACKENDS = ("legacy", "fastdp", "vecdp", "exhaustive")


class TestOracleSweeps:
    """≥200 seeded random queries where all three backends must agree."""

    def test_linear_sweep(self):
        outcome = run_differential_oracle(
            n_queries=LINEAR_SWEEP_QUERIES,
            seed=0,
            table_range=(3, 5),
            plan_spaces=(PlanSpace.LINEAR,),
        )
        assert outcome.cases_run == LINEAR_SWEEP_QUERIES
        assert outcome.passed, "\n\n".join(str(f) for f in outcome.failures)

    def test_bushy_sweep(self):
        outcome = run_differential_oracle(
            n_queries=BUSHY_SWEEP_QUERIES,
            seed=1,
            table_range=(3, 4),
            plan_spaces=(PlanSpace.BUSHY,),
        )
        assert outcome.cases_run == BUSHY_SWEEP_QUERIES
        assert outcome.passed, "\n\n".join(str(f) for f in outcome.failures)

    def test_sweeps_cover_every_kind_and_objective_count(self):
        """The oracle cycles topologies and 1/2/3-objective sets by design."""
        outcome = run_differential_oracle(
            n_queries=len(JoinGraphKind) * len(ORACLE_OBJECTIVE_SETS),
            seed=2,
            table_range=(3, 4),
            plan_spaces=(PlanSpace.LINEAR,),
        )
        log = "\n".join(outcome.case_log)
        for kind in JoinGraphKind:
            assert kind.value in log
        for objectives in ORACLE_OBJECTIVE_SETS:
            assert str([o.value for o in objectives]) in log

    def test_orders_sweep(self):
        """Interesting orders across all topologies, objective counts, spaces."""
        outcome = run_differential_oracle(
            n_queries=ORDERS_SWEEP_QUERIES,
            seed=10,
            table_range=(3, 4),
            features=("orders",),
        )
        assert outcome.cases_run == ORDERS_SWEEP_QUERIES
        assert outcome.passed, "\n\n".join(str(f) for f in outcome.failures)
        assert all("feature=orders" in line for line in outcome.case_log)

    def test_parametric_sweep(self):
        """Parametric costs: envelopes must match exactly across backends."""
        outcome = run_differential_oracle(
            n_queries=PARAMETRIC_SWEEP_QUERIES,
            seed=11,
            table_range=(3, 4),
            features=("parametric",),
        )
        assert outcome.cases_run == PARAMETRIC_SWEEP_QUERIES
        assert outcome.passed, "\n\n".join(str(f) for f in outcome.failures)
        assert all("feature=parametric" in line for line in outcome.case_log)

    def test_mixed_feature_sweep_cycles_all_features(self):
        """One full mixed-radix period covers plain, orders, and parametric."""
        period = (
            len(JoinGraphKind)
            * len(ORACLE_OBJECTIVE_SETS)
            * len((PlanSpace.LINEAR, PlanSpace.BUSHY))
            * len(ORACLE_FEATURES)
        )
        outcome = run_differential_oracle(
            n_queries=period,
            seed=12,
            table_range=(3, 3),
            features=ORACLE_FEATURES,
            backends=("legacy", "fastdp"),
        )
        assert outcome.passed
        for feature in ORACLE_FEATURES:
            assert any(
                f"feature={feature}" in line for line in outcome.case_log
            ), f"sweep never exercises {feature}"

    def test_default_sweep_crosses_topology_with_plan_space(self):
        """No (kind, plan space) pair may be structurally untestable."""
        cases = (
            len(JoinGraphKind)
            * len(ORACLE_OBJECTIVE_SETS)
            * len((PlanSpace.LINEAR, PlanSpace.BUSHY))
        )
        outcome = run_differential_oracle(
            n_queries=cases,
            seed=3,
            table_range=(3, 4),
            backends=("legacy", "fastdp"),
        )
        assert outcome.passed
        for kind in JoinGraphKind:
            for space in PlanSpace:
                assert any(
                    f"-{kind.value}-" in line and f"space={space.value}" in line
                    for line in outcome.case_log
                ), f"sweep never pairs {kind.value} with {space.value}"


class TestVecdpSweeps:
    """320 seeded queries where the array core must match both scalar cores
    and exhaustive ground truth on every capability vecdp declares."""

    def test_linear_sweep(self):
        outcome = run_differential_oracle(
            n_queries=VECDP_LINEAR_SWEEP_QUERIES,
            seed=20,
            table_range=(3, 5),
            plan_spaces=(PlanSpace.LINEAR,),
            backends=VECDP_BACKENDS,
        )
        assert outcome.cases_run == VECDP_LINEAR_SWEEP_QUERIES
        assert outcome.passed, "\n\n".join(str(f) for f in outcome.failures)

    def test_bushy_sweep(self):
        outcome = run_differential_oracle(
            n_queries=VECDP_BUSHY_SWEEP_QUERIES,
            seed=21,
            table_range=(3, 4),
            plan_spaces=(PlanSpace.BUSHY,),
            backends=VECDP_BACKENDS,
        )
        assert outcome.cases_run == VECDP_BUSHY_SWEEP_QUERIES
        assert outcome.passed, "\n\n".join(str(f) for f in outcome.failures)

    @pytest.mark.parametrize("kind", list(JoinGraphKind))
    @pytest.mark.parametrize("n_tables", [8, 10])
    def test_linear_at_scale_without_exhaustive(self, kind, n_tables):
        query = SteinbrunnGenerator(seed=25).query(n_tables, kind)
        assert_equivalent_frontiers(
            query, OptimizerSettings(), backends=("fastdp", "vecdp")
        )

    @pytest.mark.parametrize("kind", [JoinGraphKind.CHAIN, JoinGraphKind.STAR])
    def test_bushy_multi_objective_at_scale(self, kind):
        query = SteinbrunnGenerator(seed=26).query(8, kind)
        assert_equivalent_frontiers(
            query,
            OptimizerSettings(
                plan_space=PlanSpace.BUSHY, objectives=MULTI_OBJECTIVE
            ),
            backends=("legacy", "fastdp", "vecdp"),
        )

    @pytest.mark.parametrize("kind", list(JoinGraphKind))
    def test_three_objectives(self, kind):
        query = SteinbrunnGenerator(seed=27).query(7, kind)
        assert_equivalent_frontiers(
            query,
            OptimizerSettings(objectives=THREE_OBJECTIVES),
            backends=("legacy", "fastdp", "vecdp"),
        )

    def test_undeclared_capability_is_a_loud_error(self):
        """The oracle must not be able to compare vecdp on settings it does
        not declare — explicit resolution raises instead of falling back."""
        query = SteinbrunnGenerator(seed=28).query(4, JoinGraphKind.CHAIN)
        with pytest.raises(ValueError, match="INTERESTING_ORDERS"):
            frontier(
                query, OptimizerSettings(consider_orders=True), "vecdp"
            )
        with pytest.raises(ValueError, match="PARAMETRIC_COSTS"):
            frontier(
                query,
                OptimizerSettings(
                    objectives=PARAMETRIC_OBJECTIVES, parametric=True
                ),
                "vecdp",
            )


class TestExplicitTopologies:
    """Direct (non-sweep) spot checks, readable per topology/objective."""

    @pytest.mark.parametrize("kind", list(JoinGraphKind))
    @pytest.mark.parametrize(
        "objectives",
        [
            (Objective.EXECUTION_TIME,),
            MULTI_OBJECTIVE,
            THREE_OBJECTIVES,
        ],
        ids=["1obj", "2obj", "3obj"],
    )
    def test_all_backends_agree(self, kind, objectives):
        query = SteinbrunnGenerator(seed=99).query(5, kind)
        assert_equivalent_frontiers(
            query, OptimizerSettings(objectives=objectives)
        )

    @pytest.mark.parametrize("kind", list(JoinGraphKind))
    def test_bushy_all_backends_agree(self, kind):
        query = SteinbrunnGenerator(seed=98).query(4, kind)
        assert_equivalent_frontiers(
            query,
            OptimizerSettings(
                plan_space=PlanSpace.BUSHY, objectives=MULTI_OBJECTIVE
            ),
        )

    @pytest.mark.parametrize("kind", list(JoinGraphKind))
    @pytest.mark.parametrize("space", list(PlanSpace))
    def test_interesting_orders_all_backends_agree(self, kind, space):
        query = SteinbrunnGenerator(seed=97, clustered_tables=True).query(
            4, kind
        )
        assert_equivalent_frontiers(
            query,
            OptimizerSettings(plan_space=space, consider_orders=True),
        )

    @pytest.mark.parametrize("kind", list(JoinGraphKind))
    @pytest.mark.parametrize("space", list(PlanSpace))
    def test_parametric_all_backends_agree(self, kind, space):
        query = SteinbrunnGenerator(seed=96).query(4, kind)
        assert_equivalent_frontiers(
            query,
            OptimizerSettings(
                plan_space=space,
                objectives=PARAMETRIC_OBJECTIVES,
                parametric=True,
            ),
        )


class TestLargerQueriesWithoutExhaustive:
    """fastdp vs legacy at sizes exhaustive enumeration cannot reach."""

    @pytest.mark.parametrize("kind", list(JoinGraphKind))
    @pytest.mark.parametrize("n_tables", [8, 10])
    def test_linear(self, kind, n_tables):
        query = SteinbrunnGenerator(seed=5).query(n_tables, kind)
        assert_equivalent_frontiers(
            query, OptimizerSettings(), backends=("legacy", "fastdp")
        )

    @pytest.mark.parametrize("kind", [JoinGraphKind.CHAIN, JoinGraphKind.STAR])
    def test_bushy_multi_objective(self, kind):
        query = SteinbrunnGenerator(seed=6).query(8, kind)
        assert_equivalent_frontiers(
            query,
            OptimizerSettings(
                plan_space=PlanSpace.BUSHY, objectives=MULTI_OBJECTIVE
            ),
            backends=("legacy", "fastdp"),
        )

    @pytest.mark.parametrize("kind", [JoinGraphKind.CHAIN, JoinGraphKind.CYCLE])
    def test_orders_at_scale(self, kind):
        query = SteinbrunnGenerator(seed=9, clustered_tables=True).query(
            9, kind
        )
        assert_equivalent_frontiers(
            query,
            OptimizerSettings(consider_orders=True),
            backends=("legacy", "fastdp"),
        )

    @pytest.mark.parametrize("kind", [JoinGraphKind.STAR, JoinGraphKind.CLIQUE])
    def test_parametric_at_scale(self, kind):
        query = SteinbrunnGenerator(seed=9).query(8, kind)
        assert_equivalent_frontiers(
            query,
            OptimizerSettings(
                objectives=PARAMETRIC_OBJECTIVES, parametric=True
            ),
            backends=("legacy", "fastdp"),
        )

    def test_alpha_approximate_pruning_matches_decision_for_decision(self):
        """α > 1 pruning is order-sensitive; the cores must still agree."""
        query = SteinbrunnGenerator(seed=7).query(9, JoinGraphKind.STAR)
        settings = OptimizerSettings(objectives=MULTI_OBJECTIVE, alpha=10.0)
        legacy = optimize_serial(query, settings.replace(backend=Backend.LEGACY))
        fast = optimize_serial(query, settings.replace(backend=Backend.FASTDP))
        assert [p.cost for p in legacy.plans] == [p.cost for p in fast.plans]

    def test_best_plan_cost_agrees(self):
        query = SteinbrunnGenerator(seed=8).query(10, JoinGraphKind.CHAIN)
        settings = OptimizerSettings()
        legacy = best_plan(optimize_serial(query, settings))
        fast = best_plan(
            optimize_serial(query, settings.replace(backend=Backend.FASTDP))
        )
        assert legacy.cost == fast.cost
        assert legacy.join_order() == fast.join_order()


class TestOracleMachinery:
    """The oracle itself: mismatch reporting, shrinking, guards."""

    @staticmethod
    def _broken_backend(query, settings):
        """Diverges exactly when ≥3 tables participate (shrinks to any 3)."""
        vectors = _legacy_backend(query, settings)
        if query.n_tables >= 3:
            return [tuple(value * 2 for value in vector) for vector in vectors]
        return vectors

    def test_mismatch_reports_minimal_subset(self):
        query = SteinbrunnGenerator(seed=11).query(5, JoinGraphKind.STAR)
        with pytest.raises(FrontierMismatch) as excinfo:
            assert_equivalent_frontiers(
                query,
                OptimizerSettings(),
                backends=("legacy", self._broken_backend),
            )
        mismatch = excinfo.value
        # 1-minimal: exactly 3 tables survive shrinking, and the sub-query
        # still carries the original numbering in its report.
        assert len(mismatch.minimal_tables) == 3
        assert mismatch.minimal_query.n_tables == 3
        assert "minimal offending table subset" in str(mismatch)
        assert mismatch.frontiers["legacy"] != mismatch.frontiers["_broken_backend"]

    def test_mismatch_without_minimize_keeps_full_query(self):
        query = SteinbrunnGenerator(seed=11).query(4, JoinGraphKind.CHAIN)
        with pytest.raises(FrontierMismatch) as excinfo:
            assert_equivalent_frontiers(
                query,
                OptimizerSettings(),
                backends=("legacy", self._broken_backend),
                minimize=False,
            )
        assert excinfo.value.minimal_tables == (0, 1, 2, 3)

    def test_induced_subquery_renumbers_and_keeps_selectivity(self):
        query = SteinbrunnGenerator(seed=12).query(5, JoinGraphKind.CHAIN)
        sub = induced_subquery(query, (1, 3, 4))
        assert sub.n_tables == 3
        assert [t.name for t in sub.tables] == ["T1", "T3", "T4"]
        # Chain edges: (1,2),(2,3),(3,4); only (3,4) survives, renumbered.
        assert len(sub.predicates) == 1
        predicate = sub.predicates[0]
        assert {predicate.left_table, predicate.right_table} == {1, 2}
        original = next(
            p
            for p in query.predicates
            if {p.left_table, p.right_table} == {3, 4}
        )
        assert predicate.selectivity == original.selectivity

    def test_induced_subquery_rejects_empty(self):
        query = SteinbrunnGenerator(seed=12).query(3, JoinGraphKind.CHAIN)
        with pytest.raises(ValueError):
            induced_subquery(query, ())

    def test_exhaustive_guard_rejects_large_queries(self):
        query = SteinbrunnGenerator(seed=13).query(8, JoinGraphKind.CHAIN)
        with pytest.raises(ValueError, match="capped"):
            frontier(query, OptimizerSettings(), "exhaustive")

    def test_exhaustive_guard_rejects_alpha_approximation(self):
        query = SteinbrunnGenerator(seed=13).query(4, JoinGraphKind.CHAIN)
        settings = OptimizerSettings(objectives=MULTI_OBJECTIVE, alpha=2.0)
        with pytest.raises(ValueError, match="alpha"):
            frontier(query, settings, "exhaustive")

    def test_unknown_backend_name(self):
        query = SteinbrunnGenerator(seed=13).query(3, JoinGraphKind.CHAIN)
        with pytest.raises(ValueError, match="unknown backend"):
            frontier(query, OptimizerSettings(), "quantum")

    def test_unknown_feature_name(self):
        with pytest.raises(ValueError, match="unknown feature"):
            run_differential_oracle(n_queries=1, features=("quantum",))

    def test_silent_backend_substitution_raises_routing_error(self, monkeypatch):
        """A backend that routes to a different core must not pass silently."""
        from repro.core import fastdp, worker

        monkeypatch.setattr(
            fastdp, "optimize_partition_fastdp", worker._optimize_partition_legacy
        )
        query = SteinbrunnGenerator(seed=13).query(3, JoinGraphKind.CHAIN)
        with pytest.raises(BackendRoutingError, match="fastdp"):
            frontier(query, OptimizerSettings(), "fastdp")

    def test_needs_two_backends(self):
        query = SteinbrunnGenerator(seed=13).query(3, JoinGraphKind.CHAIN)
        with pytest.raises(ValueError, match="two backends"):
            assert_equivalent_frontiers(
                query, OptimizerSettings(), backends=("legacy",)
            )

    def test_oracle_rejects_table_range_beyond_exhaustive_cap(self):
        with pytest.raises(ValueError, match="cap"):
            run_differential_oracle(n_queries=1, table_range=(7, 9))
        # Without the exhaustive backend, larger queries are fine.
        outcome = run_differential_oracle(
            n_queries=2, table_range=(7, 8), backends=("legacy", "fastdp")
        )
        assert outcome.passed

    def test_oracle_rejects_inverted_table_range(self):
        with pytest.raises(ValueError, match="exceeds high"):
            run_differential_oracle(n_queries=1, table_range=(5, 3))

    def test_success_returns_identical_frontiers(self):
        query = SteinbrunnGenerator(seed=14).query(4, JoinGraphKind.STAR)
        frontiers = assert_equivalent_frontiers(query, OptimizerSettings())
        assert set(frontiers) == {"legacy", "fastdp", "exhaustive"}
        assert len({signature for signature in frontiers.values()}) == 1
