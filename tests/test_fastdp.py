"""Unit tests of the fastdp enumeration core and its backend plumbing.

The differential tests prove frontier equivalence; these tests pin the
stronger drop-in contract — identical worker *statistics* (the raw material
of the simulated-cluster accounting), identical plan trees (including
interesting-order and parametric settings, which the fast core handles
natively), the capability-declaring backend registry with its ``AUTO``
resolution, ``backend_used`` observability end to end, and the
config/CLI/service wiring of ``OptimizerSettings.backend``.
"""

from __future__ import annotations

import importlib.util

import pytest

from repro.config import (
    MULTI_OBJECTIVE,
    PARAMETRIC_OBJECTIVES,
    Backend,
    Objective,
    OptimizerSettings,
    PlanSpace,
)
from repro.core import fastdp
from repro.core.constraints import partition_constraints
from repro.core.partitioning import admissible_results_by_size
from repro.core.serial import optimize_serial
from repro.core.worker import (
    ALL_CAPABILITIES,
    Capability,
    EnumerationBackend,
    WorkerStats,
    capability_matrix,
    optimize_partition,
    registered_backends,
    required_capabilities,
    resolve_backend,
)
from repro.cost.costmodel import CostModel
from repro.plans.plan import plan_signature
from repro.query.generator import SteinbrunnGenerator
from repro.query.query import JoinGraphKind
from tests.conftest import legacy_and_fastdp as _pair
from tests.conftest import search_outcome

#: vecdp registers unconditionally but is *available* only with numpy, so
#: what AUTO resolves to for a plain query depends on the environment.  The
#: tests assert the resolution honestly instead of assuming either extreme.
HAS_NUMPY = importlib.util.find_spec("numpy") is not None
AUTO_BACKEND = "vecdp" if HAS_NUMPY else "fastdp"

STAT_FIELDS = (
    "n_constraints",
    "admissible_results",
    "splits_considered",
    "plans_considered",
    "plans_kept",
    "table_entries",
    "stored_plans",
    "result_plans",
)


def _assert_stats_equal(legacy, fast, context=""):
    for field in STAT_FIELDS:
        assert getattr(legacy.stats, field) == getattr(fast.stats, field), (
            f"{context}: WorkerStats.{field} diverged "
            f"(legacy={getattr(legacy.stats, field)}, "
            f"fastdp={getattr(fast.stats, field)})"
        )


class TestStatisticsParity:
    """Every counter the cluster simulator consumes must match exactly."""

    @pytest.mark.parametrize("kind", list(JoinGraphKind))
    @pytest.mark.parametrize("space", list(PlanSpace))
    def test_serial_single_objective(self, kind, space):
        query = SteinbrunnGenerator(seed=21).query(7, kind)
        legacy, fast = _pair(query, OptimizerSettings(plan_space=space))
        _assert_stats_equal(legacy, fast, f"{kind.value}/{space.value}")

    @pytest.mark.parametrize("space", list(PlanSpace))
    def test_serial_multi_objective(self, space):
        query = SteinbrunnGenerator(seed=22).query(7, JoinGraphKind.STAR)
        settings = OptimizerSettings(plan_space=space, objectives=MULTI_OBJECTIVE)
        legacy, fast = _pair(query, settings)
        _assert_stats_equal(legacy, fast, f"multi/{space.value}")
        assert [p.cost for p in legacy.plans] == [p.cost for p in fast.plans]

    def test_partitioned_runs(self):
        query = SteinbrunnGenerator(seed=23).query(8, JoinGraphKind.CYCLE)
        for n_partitions in (2, 4, 8):
            for partition_id in range(n_partitions):
                legacy, fast = _pair(
                    query,
                    OptimizerSettings(),
                    partition_id=partition_id,
                    n_partitions=n_partitions,
                )
                _assert_stats_equal(
                    legacy, fast, f"partition {partition_id}/{n_partitions}"
                )

    def test_bnl_only_operator_set(self):
        query = SteinbrunnGenerator(seed=24).query(6, JoinGraphKind.CHAIN)
        settings = OptimizerSettings(use_all_join_algorithms=False)
        legacy, fast = _pair(query, settings)
        _assert_stats_equal(legacy, fast, "bnl-only")
        assert legacy.plans[0].cost == fast.plans[0].cost

    def test_single_objective_io_metric_uses_generic_kernel(self):
        query = SteinbrunnGenerator(seed=25).query(6, JoinGraphKind.STAR)
        settings = OptimizerSettings(objectives=(Objective.OUTPUT_ROWS,))
        legacy, fast = _pair(query, settings)
        _assert_stats_equal(legacy, fast, "io-metric")
        assert legacy.plans[0].cost == fast.plans[0].cost

    @pytest.mark.parametrize("space", list(PlanSpace))
    @pytest.mark.parametrize("clustered", [False, True], ids=["flat", "clustered"])
    def test_interesting_orders(self, space, clustered):
        query = SteinbrunnGenerator(
            seed=26, clustered_tables=clustered
        ).query(6, JoinGraphKind.CYCLE)
        settings = OptimizerSettings(plan_space=space, consider_orders=True)
        legacy, fast = _pair(query, settings)
        _assert_stats_equal(legacy, fast, f"orders/{space.value}/{clustered}")
        assert [p.cost for p in legacy.plans] == [p.cost for p in fast.plans]
        assert [p.order for p in legacy.plans] == [p.order for p in fast.plans]

    @pytest.mark.parametrize("space", list(PlanSpace))
    def test_multi_objective_with_orders(self, space):
        query = SteinbrunnGenerator(seed=27, clustered_tables=True).query(
            6, JoinGraphKind.CHAIN
        )
        settings = OptimizerSettings(
            plan_space=space, objectives=MULTI_OBJECTIVE, consider_orders=True
        )
        legacy, fast = _pair(query, settings)
        _assert_stats_equal(legacy, fast, f"multi-orders/{space.value}")
        assert [p.cost for p in legacy.plans] == [p.cost for p in fast.plans]
        assert [p.order for p in legacy.plans] == [p.order for p in fast.plans]

    def test_multi_objective_orders_alpha_approximate(self):
        """α > 1 with orders: pruning is order-sensitive; must still match."""
        query = SteinbrunnGenerator(seed=28, clustered_tables=True).query(
            7, JoinGraphKind.STAR
        )
        settings = OptimizerSettings(
            objectives=MULTI_OBJECTIVE, consider_orders=True, alpha=10.0
        )
        legacy, fast = _pair(query, settings)
        _assert_stats_equal(legacy, fast, "multi-orders-alpha")
        assert [p.cost for p in legacy.plans] == [p.cost for p in fast.plans]

    @pytest.mark.parametrize("space", list(PlanSpace))
    def test_parametric(self, space):
        query = SteinbrunnGenerator(seed=29).query(6, JoinGraphKind.STAR)
        settings = OptimizerSettings(
            plan_space=space, objectives=PARAMETRIC_OBJECTIVES, parametric=True
        )
        legacy, fast = _pair(query, settings)
        _assert_stats_equal(legacy, fast, f"parametric/{space.value}")
        assert [p.cost for p in legacy.plans] == [p.cost for p in fast.plans]

    def test_orders_partitioned_runs(self):
        query = SteinbrunnGenerator(seed=30, clustered_tables=True).query(
            8, JoinGraphKind.CYCLE
        )
        settings = OptimizerSettings(consider_orders=True)
        for n_partitions in (2, 8):
            for partition_id in range(n_partitions):
                legacy, fast = _pair(
                    query,
                    settings,
                    partition_id=partition_id,
                    n_partitions=n_partitions,
                )
                _assert_stats_equal(
                    legacy, fast, f"orders partition {partition_id}/{n_partitions}"
                )


class TestPlanTreeEquality:
    """Same decisions in the same order ⇒ bit-identical plan trees."""

    @pytest.mark.parametrize("kind", list(JoinGraphKind))
    def test_single_objective_trees_identical(self, kind):
        query = SteinbrunnGenerator(seed=31).query(8, kind)
        legacy, fast = _pair(query, OptimizerSettings())
        assert plan_signature(legacy.plans[0]) == plan_signature(fast.plans[0])
        assert legacy.plans[0].cost == fast.plans[0].cost
        assert legacy.plans[0].rows == fast.plans[0].rows

    def test_bushy_trees_identical(self):
        query = SteinbrunnGenerator(seed=32).query(7, JoinGraphKind.CHAIN)
        legacy, fast = _pair(query, OptimizerSettings(plan_space=PlanSpace.BUSHY))
        assert plan_signature(legacy.plans[0]) == plan_signature(fast.plans[0])

    def test_multi_objective_frontier_trees_identical_in_order(self):
        query = SteinbrunnGenerator(seed=33).query(6, JoinGraphKind.STAR)
        settings = OptimizerSettings(objectives=MULTI_OBJECTIVE)
        legacy, fast = _pair(query, settings)
        assert len(legacy.plans) == len(fast.plans)
        for legacy_plan, fast_plan in zip(legacy.plans, fast.plans):
            assert plan_signature(legacy_plan) == plan_signature(fast_plan)

    def test_orders_frontier_trees_identical_in_order(self):
        query = SteinbrunnGenerator(seed=34, clustered_tables=True).query(
            6, JoinGraphKind.CHAIN
        )
        settings = OptimizerSettings(consider_orders=True)
        legacy, fast = _pair(query, settings)
        assert len(legacy.plans) == len(fast.plans)
        for legacy_plan, fast_plan in zip(legacy.plans, fast.plans):
            assert plan_signature(legacy_plan) == plan_signature(fast_plan)
            assert legacy_plan.order == fast_plan.order

    def test_parametric_envelope_trees_identical_in_order(self):
        query = SteinbrunnGenerator(seed=35).query(6, JoinGraphKind.CYCLE)
        settings = OptimizerSettings(
            objectives=PARAMETRIC_OBJECTIVES, parametric=True
        )
        legacy, fast = _pair(query, settings)
        assert len(legacy.plans) == len(fast.plans)
        for legacy_plan, fast_plan in zip(legacy.plans, fast.plans):
            assert plan_signature(legacy_plan) == plan_signature(fast_plan)


class TestParametricPartitionedParity:
    """The incremental envelope against the literal legacy policy, per
    partition: the 320-query differential sweep runs one partition only."""

    @pytest.mark.parametrize(
        "kind", [JoinGraphKind.STAR, JoinGraphKind.CHAIN, JoinGraphKind.CYCLE]
    )
    @pytest.mark.parametrize("space", list(PlanSpace))
    @pytest.mark.parametrize("n_partitions", [1, 2, 4])
    def test_counters_and_trees_per_partition(self, kind, space, n_partitions):
        query = SteinbrunnGenerator(seed=36).query(7, kind)
        settings = OptimizerSettings(
            plan_space=space, objectives=PARAMETRIC_OBJECTIVES, parametric=True
        )
        for partition_id in range(n_partitions):
            legacy, fast = _pair(query, settings, partition_id, n_partitions)
            context = f"{kind.value}/{space.value}/{partition_id}of{n_partitions}"
            _assert_stats_equal(legacy, fast, context)
            assert [plan.cost for plan in legacy.plans] == [
                plan.cost for plan in fast.plans
            ], context
            assert [plan_signature(plan) for plan in legacy.plans] == [
                plan_signature(plan) for plan in fast.plans
            ], context


class TestOrdersGenericMetricParity:
    """Single-objective orders under a metric other than execution time:
    the ``join_cost`` half of ``_run_single_orders``, which no other test
    executes.  Buffer space composes by ``max``, so nearly every candidate
    ties with a kept entry — the case where ``<`` versus ``<=`` decides."""

    @pytest.mark.parametrize(
        "objective", [Objective.BUFFER_SPACE, Objective.OUTPUT_ROWS]
    )
    @pytest.mark.parametrize("space", list(PlanSpace))
    @pytest.mark.parametrize("all_algos", [True, False], ids=["all", "bnl"])
    @pytest.mark.parametrize("n_partitions", [1, 2, 4])
    def test_plans_and_counters_per_partition(
        self, objective, space, all_algos, n_partitions
    ):
        query = SteinbrunnGenerator(seed=38, clustered_tables=True).query(
            6, JoinGraphKind.CYCLE
        )
        settings = OptimizerSettings(
            plan_space=space,
            objectives=(objective,),
            consider_orders=True,
            use_all_join_algorithms=all_algos,
        )
        for partition_id in range(n_partitions):
            legacy, fast = _pair(query, settings, partition_id, n_partitions)
            context = f"{objective.value}/{space.value}/{partition_id}of{n_partitions}"
            assert fast.stats.backend_used == "fastdp"
            assert search_outcome(legacy) == search_outcome(fast), context


def _run_frontier_directly(query, settings):
    """``fastdp._run_frontier`` on one partition, whatever the dispatcher
    would have picked for ``settings`` (it never sends one metric there)."""
    constraints = partition_constraints(query.n_tables, 0, 1, settings.plan_space)
    stats = WorkerStats(partition_id=0, n_partitions=1, n_constraints=0)
    plans = fastdp._run_frontier(
        query,
        constraints,
        admissible_results_by_size(query.n_tables, constraints, settings.plan_space),
        CostModel(query, settings),
        fastdp._adjacency_masks(query),
        stats,
    )
    return plans, stats


class TestCostVectorBuilderArity:
    """One, two and three metrics through ``_run_frontier``: the unrolled
    two-metric builder and the generic one cost candidates identically."""

    THREE = (Objective.EXECUTION_TIME, Objective.BUFFER_SPACE, Objective.OUTPUT_ROWS)

    @pytest.mark.parametrize(
        "objectives,alpha,orders",
        [
            ((Objective.EXECUTION_TIME,), 1.0, False),
            (MULTI_OBJECTIVE, 1.0, False),
            (MULTI_OBJECTIVE, 10.0, False),
            (MULTI_OBJECTIVE, 1.0, True),
            (THREE, 1.0, False),
            (THREE, 10.0, True),
        ],
        ids=["one", "two", "two-alpha", "two-orders", "three", "three-alpha-orders"],
    )
    def test_matches_legacy(self, objectives, alpha, orders):
        query = SteinbrunnGenerator(seed=37, clustered_tables=True).query(
            6, JoinGraphKind.CYCLE
        )
        settings = OptimizerSettings(
            objectives=objectives, alpha=alpha, consider_orders=orders
        )
        legacy = optimize_partition(
            query, 0, 1, settings.replace(backend=Backend.LEGACY)
        )
        plans, stats = _run_frontier_directly(query, settings)
        for field in ("splits_considered", "plans_considered", "plans_kept",
                      "table_entries", "stored_plans"):
            assert getattr(stats, field) == getattr(legacy.stats, field), field
        assert [plan.cost for plan in plans] == [plan.cost for plan in legacy.plans]
        assert [plan_signature(plan) for plan in plans] == [
            plan_signature(plan) for plan in legacy.plans
        ]


def _vec_pair(query, settings, partition_id=0, n_partitions=1):
    legacy = optimize_partition(
        query, partition_id, n_partitions, settings.replace(backend=Backend.LEGACY)
    )
    vec = optimize_partition(
        query, partition_id, n_partitions, settings.replace(backend=Backend.VECDP)
    )
    assert legacy.stats.backend_used == "legacy"
    assert vec.stats.backend_used == "vecdp"
    return legacy, vec


@pytest.mark.skipif(not HAS_NUMPY, reason="vecdp requires numpy")
class TestVecdpStatisticsParity:
    """The array core is a drop-in on its declared capabilities: identical
    WorkerStats counters, identical plan trees, honest backend_used."""

    @pytest.mark.parametrize("kind", list(JoinGraphKind))
    @pytest.mark.parametrize("space", list(PlanSpace))
    def test_serial_single_objective(self, kind, space):
        query = SteinbrunnGenerator(seed=21).query(7, kind)
        legacy, vec = _vec_pair(query, OptimizerSettings(plan_space=space))
        _assert_stats_equal(legacy, vec, f"vecdp {kind.value}/{space.value}")

    @pytest.mark.parametrize("space", list(PlanSpace))
    def test_serial_multi_objective(self, space):
        query = SteinbrunnGenerator(seed=22).query(7, JoinGraphKind.STAR)
        settings = OptimizerSettings(plan_space=space, objectives=MULTI_OBJECTIVE)
        legacy, vec = _vec_pair(query, settings)
        _assert_stats_equal(legacy, vec, f"vecdp multi/{space.value}")
        assert [p.cost for p in legacy.plans] == [p.cost for p in vec.plans]

    def test_partitioned_runs(self):
        query = SteinbrunnGenerator(seed=23).query(8, JoinGraphKind.CYCLE)
        for n_partitions in (2, 4, 8):
            for partition_id in range(n_partitions):
                legacy, vec = _vec_pair(
                    query,
                    OptimizerSettings(),
                    partition_id=partition_id,
                    n_partitions=n_partitions,
                )
                _assert_stats_equal(
                    legacy, vec, f"vecdp partition {partition_id}/{n_partitions}"
                )

    @pytest.mark.parametrize("space", list(PlanSpace))
    def test_plan_trees_identical_in_order(self, space):
        query = SteinbrunnGenerator(seed=24).query(7, JoinGraphKind.CHAIN)
        settings = OptimizerSettings(plan_space=space, objectives=MULTI_OBJECTIVE)
        legacy, vec = _vec_pair(query, settings)
        assert len(legacy.plans) == len(vec.plans)
        for legacy_plan, vec_plan in zip(legacy.plans, vec.plans):
            assert plan_signature(legacy_plan) == plan_signature(vec_plan)

    def test_bnl_only_operator_restriction(self):
        query = SteinbrunnGenerator(seed=25).query(6, JoinGraphKind.CLIQUE)
        settings = OptimizerSettings(use_all_join_algorithms=False)
        legacy, vec = _vec_pair(query, settings)
        _assert_stats_equal(legacy, vec, "vecdp bnl-only")
        assert [p.cost for p in legacy.plans] == [p.cost for p in vec.plans]


def _vecdp_partition_grid():
    """objective × space × p × join graph.  Six tables admit p ≤ 8 linear
    partitions but only p ≤ 4 bushy ones (one constraint per table triple),
    so bushy p = 8 runs at nine tables — single metrics only: the legacy
    oracle needs 5–300 s per nine-table bushy frontier query."""
    time, buffer, io = (
        Objective.EXECUTION_TIME, Objective.BUFFER_SPACE, Objective.OUTPUT_ROWS
    )
    objectives = {
        "time": (time,),
        "buffer": (buffer,),
        "io": (io,),
        "multi-2": (time, buffer),
        "multi-3": (time, buffer, io),
    }
    for name, objective in objectives.items():
        for space in PlanSpace:
            for n_partitions in (1, 2, 4, 8):
                n_tables = 6
                if space is PlanSpace.BUSHY and n_partitions == 8:
                    if len(objective) > 1:
                        continue
                    n_tables = 9
                for kind in (JoinGraphKind.STAR, JoinGraphKind.CHAIN, JoinGraphKind.CYCLE):
                    yield pytest.param(
                        objective, space, n_partitions, n_tables, kind,
                        id=f"{name}-{space.value}-p{n_partitions}-{kind.value}",
                    )


def _assert_results_equal(expected, actual, context):
    """Every counter, cost and plan tree of two runs of one partition."""
    _assert_stats_equal(expected, actual, context)
    assert [p.cost for p in expected.plans] == [p.cost for p in actual.plans], context
    assert [plan_signature(p) for p in expected.plans] == [
        plan_signature(p) for p in actual.plans
    ], context


@pytest.mark.skipif(not HAS_NUMPY, reason="vecdp requires numpy")
class TestVecdpPartitionedParity:
    """Constrained partitions run the same array path as serial ones: every
    counter, cost and plan tree per partition against the legacy oracle."""

    @staticmethod
    def _assert_partitions_equal(query, settings, n_partitions):
        for partition_id in range(n_partitions):
            legacy, vec = _vec_pair(
                query, settings, partition_id, n_partitions
            )
            _assert_results_equal(legacy, vec, f"vecdp partition {partition_id}/{n_partitions}")

    @pytest.mark.parametrize(
        "objectives,space,n_partitions,n_tables,kind", _vecdp_partition_grid()
    )
    def test_counters_costs_and_trees_per_partition(
        self, objectives, space, n_partitions, n_tables, kind
    ):
        query = SteinbrunnGenerator(seed=41, clustered_tables=True).query(n_tables, kind)
        settings = OptimizerSettings(plan_space=space, objectives=objectives)
        self._assert_partitions_equal(query, settings, n_partitions)

    @pytest.mark.parametrize("space", list(PlanSpace))
    @pytest.mark.parametrize("objectives", [(Objective.EXECUTION_TIME,), MULTI_OBJECTIVE])
    def test_bnl_only_on_constrained_partitions(self, space, objectives):
        query = SteinbrunnGenerator(seed=42).query(7, JoinGraphKind.CYCLE)
        settings = OptimizerSettings(
            plan_space=space, objectives=objectives, use_all_join_algorithms=False
        )
        self._assert_partitions_equal(query, settings, 4)


class TestCapabilityRegistry:
    """The capability-declaring backend architecture and AUTO resolution."""

    def test_fastdp_declares_everything(self):
        assert fastdp.CAPABILITIES == ALL_CAPABILITIES
        matrix = capability_matrix()
        assert set(matrix) == {"legacy", "fastdp", "vecdp"}
        for name in ("legacy", "fastdp"):
            assert all(matrix[name].values()), matrix
        # vecdp is honest about its narrower feature set.
        assert matrix["vecdp"]["multi_objective"]
        assert matrix["vecdp"]["bushy_space"]
        assert not matrix["vecdp"]["interesting_orders"]
        assert not matrix["vecdp"]["parametric_costs"]
        assert not matrix["vecdp"]["alpha_approximation"]

    def test_required_capabilities_derivation(self):
        assert required_capabilities(OptimizerSettings()) == Capability(0)
        assert (
            required_capabilities(OptimizerSettings(consider_orders=True))
            == Capability.INTERESTING_ORDERS
        )
        needed = required_capabilities(
            OptimizerSettings(
                plan_space=PlanSpace.BUSHY,
                objectives=PARAMETRIC_OBJECTIVES,
                parametric=True,
            )
        )
        assert Capability.PARAMETRIC_COSTS in needed
        assert Capability.BUSHY_SPACE in needed
        assert Capability.MULTI_OBJECTIVE in needed
        assert Capability.INTERESTING_ORDERS not in needed
        # alpha > 1 pruning is its own capability: it matters only for
        # multi-objective non-parametric runs, where it changes the frontier.
        alpha = required_capabilities(
            OptimizerSettings(objectives=MULTI_OBJECTIVE, alpha=2.0)
        )
        assert Capability.ALPHA_APPROXIMATION in alpha
        assert (
            Capability.ALPHA_APPROXIMATION
            not in required_capabilities(OptimizerSettings(alpha=2.0))
        )

    @pytest.mark.parametrize(
        ("settings", "expected"),
        [
            (OptimizerSettings(), AUTO_BACKEND),
            (OptimizerSettings(consider_orders=True), "fastdp"),
            (OptimizerSettings(objectives=MULTI_OBJECTIVE, alpha=10.0), "fastdp"),
            (
                OptimizerSettings(objectives=PARAMETRIC_OBJECTIVES, parametric=True),
                "fastdp",
            ),
        ],
        ids=["plain", "orders", "multi-alpha", "parametric"],
    )
    def test_auto_resolves_to_fastest_capable_backend(self, settings, expected):
        assert settings.backend is Backend.AUTO
        assert resolve_backend(settings).backend.value == expected

    def test_explicit_backends_resolve_to_themselves(self):
        for backend in (Backend.LEGACY, Backend.FASTDP):
            settings = OptimizerSettings(
                consider_orders=True, backend=backend
            )
            assert resolve_backend(settings).backend is backend

    def test_incapable_explicit_backend_is_an_error_not_a_fallback(self):
        """Requesting a backend that lacks a capability must fail loudly."""
        from repro.core import worker

        limited = EnumerationBackend(
            backend=Backend.FASTDP,
            capabilities=ALL_CAPABILITIES & ~Capability.INTERESTING_ORDERS,
            speed_rank=10,
            loader=lambda: fastdp.optimize_partition_fastdp,
        )
        original = worker._BACKEND_REGISTRY[Backend.FASTDP]
        worker.register_backend(limited)
        try:
            settings = OptimizerSettings(
                consider_orders=True, backend=Backend.FASTDP
            )
            with pytest.raises(ValueError, match="INTERESTING_ORDERS"):
                resolve_backend(settings)
            # AUTO routes around the gap instead of failing.
            auto = resolve_backend(settings.replace(backend=Backend.AUTO))
            assert auto.backend is Backend.LEGACY
        finally:
            worker.register_backend(original)

    def test_registered_backends_sorted_by_speed_rank(self):
        ranks = [d.speed_rank for d in registered_backends()]
        assert ranks == sorted(ranks)
        assert registered_backends()[0].backend is Backend.VECDP
        available = [d for d in registered_backends() if d.available()]
        expected = Backend.VECDP if HAS_NUMPY else Backend.FASTDP
        assert available[0].backend is expected

    def test_auto_is_not_registrable(self):
        from repro.core import worker

        with pytest.raises(ValueError, match="AUTO"):
            worker.register_backend(
                EnumerationBackend(
                    backend=Backend.AUTO,
                    capabilities=ALL_CAPABILITIES,
                    speed_rank=1,
                    loader=lambda: fastdp.optimize_partition_fastdp,
                )
            )

    def test_auto_falls_back_to_fastdp_without_numpy(self, monkeypatch):
        """With numpy absent, vecdp stays registered but unavailable: AUTO
        routes plain queries to fastdp, and requesting vecdp explicitly is a
        loud error naming the missing module."""
        from repro.core import worker

        monkeypatch.setattr(
            worker, "_find_module", lambda module: module != "numpy"
        )
        try:
            vec = worker._BACKEND_REGISTRY[Backend.VECDP]
            assert not vec.available()
            assert "numpy not installed" == vec.unavailable_reason()
            assert resolve_backend(OptimizerSettings()).backend is Backend.FASTDP
            with pytest.raises(ValueError, match="numpy not installed"):
                resolve_backend(OptimizerSettings(backend=Backend.VECDP))
        finally:
            monkeypatch.undo()


class TestBackendUsedObservability:
    """backend_used is recorded per partition and surfaced at every layer."""

    def test_worker_stats_record_backend(self):
        query = SteinbrunnGenerator(seed=50).query(5, JoinGraphKind.CHAIN)
        auto = optimize_partition(query, 0, 1, OptimizerSettings())
        assert auto.stats.backend_used == AUTO_BACKEND
        legacy = optimize_partition(
            query, 0, 1, OptimizerSettings(backend=Backend.LEGACY)
        )
        assert legacy.stats.backend_used == "legacy"

    def test_master_result_surfaces_backend(self):
        from repro.core.master import optimize_parallel

        query = SteinbrunnGenerator(seed=51).query(7, JoinGraphKind.STAR)
        result = optimize_parallel(query, 4, OptimizerSettings())
        assert result.backend_used == AUTO_BACKEND
        assert all(
            r.stats.backend_used == AUTO_BACKEND
            for r in result.partition_results
        )

    def test_mpq_report_surfaces_backend(self):
        from repro.algorithms.mpq import optimize_mpq

        query = SteinbrunnGenerator(seed=52).query(6, JoinGraphKind.CYCLE)
        report = optimize_mpq(
            query, 2, OptimizerSettings(backend=Backend.LEGACY)
        )
        assert report.backend_used == "legacy"

    def test_service_result_surfaces_backend_and_replays_it_on_hits(self):
        from repro.service import OptimizerService

        query = SteinbrunnGenerator(seed=53).query(6, JoinGraphKind.CHAIN)
        with OptimizerService(n_workers=2) as service:
            fresh = service.optimize(query)
            hit = service.optimize(query)
        assert not fresh.cached and hit.cached
        assert fresh.backend_used == AUTO_BACKEND
        assert hit.backend_used == AUTO_BACKEND

    def test_serve_batch_json_reports_backend(self, tmp_path, capsys):
        import json

        from repro.cli import main
        from repro.query.generator import make_chain_query
        from repro.query.io import save_query

        path = tmp_path / "query.json"
        save_query(make_chain_query(5, seed=3), str(path))
        assert main(["serve-batch", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        result = payload["rounds"][0]["results"][0]
        assert result["backend_used"] == AUTO_BACKEND

    def test_cli_backends_command_lists_matrix(self, capsys):
        import json

        from repro.cli import main

        assert main(["backends", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"legacy", "fastdp", "vecdp"}
        assert payload["fastdp"]["capabilities"]["interesting_orders"]
        assert payload["fastdp"]["capabilities"]["parametric_costs"]
        assert payload["vecdp"]["requires"] == ["numpy"]
        assert payload["vecdp"]["available"] is HAS_NUMPY
        if HAS_NUMPY:
            assert payload["vecdp"]["unavailable_reason"] is None
        else:
            assert "numpy" in payload["vecdp"]["unavailable_reason"]


class TestBackendWiring:
    """Config coercion, MPQ, service cache keys, and the CLI flag."""

    def test_settings_coerce_backend_string(self):
        assert OptimizerSettings(backend="fastdp").backend is Backend.FASTDP
        assert OptimizerSettings(backend="legacy").backend is Backend.LEGACY
        assert OptimizerSettings(backend="auto").backend is Backend.AUTO

    def test_settings_reject_unknown_backend(self):
        with pytest.raises(ValueError):
            OptimizerSettings(backend="warp-speed")

    def test_mpq_same_best_cost_across_backends(self):
        from repro.algorithms.mpq import optimize_mpq

        query = SteinbrunnGenerator(seed=43).query(9, JoinGraphKind.STAR)
        legacy = optimize_mpq(query, 8, OptimizerSettings())
        fast = optimize_mpq(query, 8, OptimizerSettings(backend=Backend.FASTDP))
        assert legacy.n_partitions == fast.n_partitions
        assert legacy.best.cost == fast.best.cost
        assert plan_signature(legacy.best) == plan_signature(fast.best)

    def test_service_serves_both_backends_with_distinct_fingerprints(self):
        from repro.service import OptimizerService

        query = SteinbrunnGenerator(seed=44).query(7, JoinGraphKind.CHAIN)
        with OptimizerService(n_workers=4) as service:
            legacy = service.optimize(
                query, OptimizerSettings(backend=Backend.LEGACY)
            )
            fast = service.optimize(
                query, OptimizerSettings(backend=Backend.FASTDP)
            )
            fast_again = service.optimize(
                query, OptimizerSettings(backend=Backend.FASTDP)
            )
        assert legacy.best.cost == fast.best.cost
        assert legacy.fingerprint != fast.fingerprint
        assert not fast.cached and fast_again.cached
        assert fast_again.best.cost == fast.best.cost

    def test_service_auto_and_explicit_backend_share_cache_entries(self):
        """AUTO is fingerprinted as the backend it resolves to."""
        from repro.service import OptimizerService

        query = SteinbrunnGenerator(seed=46).query(6, JoinGraphKind.STAR)
        with OptimizerService(n_workers=2) as service:
            via_auto = service.optimize(query, OptimizerSettings())
            via_explicit = service.optimize(
                query, OptimizerSettings(backend=AUTO_BACKEND)
            )
        assert via_auto.fingerprint == via_explicit.fingerprint
        assert not via_auto.cached and via_explicit.cached

    def test_cli_backend_flag(self, tmp_path, capsys):
        import json

        from repro.cli import main
        from repro.query.generator import make_star_query
        from repro.query.io import save_query

        path = tmp_path / "query.json"
        save_query(make_star_query(6, seed=9), str(path))
        assert main(["optimize", str(path), "--backend", "fastdp", "--json"]) == 0
        fast_payload = json.loads(capsys.readouterr().out)
        assert main(["optimize", str(path), "--backend", "legacy", "--json"]) == 0
        legacy_payload = json.loads(capsys.readouterr().out)
        assert fast_payload["plans"] == legacy_payload["plans"]

    def test_default_backend_is_auto_resolving_to_fastest_available(self):
        assert OptimizerSettings().backend is Backend.AUTO
        assert resolve_backend(OptimizerSettings()).backend.value == AUTO_BACKEND

    def test_empty_partition_result_possible(self):
        """A 1-table query exercises the degenerate no-join path."""
        query = SteinbrunnGenerator(seed=45).query(1, JoinGraphKind.CHAIN)
        result = optimize_serial(query, OptimizerSettings(backend=Backend.FASTDP))
        assert len(result.plans) == 1
        assert result.plans[0].mask == 1
