"""Parametric query optimization: envelopes and the end-to-end guarantee."""

from __future__ import annotations

import math
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.pqo import optimize_parametric, parametric_settings
from repro.config import (
    MULTI_OBJECTIVE,
    Objective,
    OptimizerSettings,
    PlanSpace,
)
from repro.core.master import optimize_parallel
from repro.core.serial import best_plan, optimize_serial
from repro.cost.metrics import OutputRowsMetric
from repro.cost.parametric import (
    IncrementalEnvelope,
    envelope_filter,
    needed_on_envelope,
    scalarize,
    switching_points,
)
from repro.cost.pruning import ParametricPruning
from repro.plans.plan import ScanPlan
from repro.query.generator import SteinbrunnGenerator

cost_vectors = st.tuples(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
)


class TestScalarize:
    def test_endpoints(self):
        assert scalarize((3.0, 7.0), 0.0) == 3.0
        assert scalarize((3.0, 7.0), 1.0) == 7.0

    def test_midpoint(self):
        assert scalarize((2.0, 4.0), 0.5) == 3.0

    def test_range_checked(self):
        with pytest.raises(ValueError):
            scalarize((1.0, 1.0), 1.5)


class TestEnvelope:
    def test_single_always_needed(self):
        assert needed_on_envelope((5.0, 5.0), [])

    def test_dominated_line_not_needed(self):
        assert not needed_on_envelope((5.0, 5.0), [(1.0, 1.0)])

    def test_crossing_lines_both_needed(self):
        assert needed_on_envelope((1.0, 10.0), [(10.0, 1.0)])
        assert needed_on_envelope((10.0, 1.0), [(1.0, 10.0)])

    def test_middle_line_above_crossing_not_needed(self):
        # Lines (0, 10) and (10, 0) cross at theta=0.5 with value 5;
        # a flat line at 6 never wins.
        assert not needed_on_envelope((6.0, 6.0), [(0.0, 10.0), (10.0, 0.0)])

    def test_middle_line_below_crossing_needed(self):
        assert needed_on_envelope((4.0, 4.0), [(0.0, 10.0), (10.0, 0.0)])

    def test_duplicate_not_needed(self):
        assert not needed_on_envelope((2.0, 3.0), [(2.0, 3.0)])

    def test_envelope_filter_keeps_extremes(self):
        keep = envelope_filter([(0.0, 10.0), (10.0, 0.0), (6.0, 6.0)])
        assert keep == [0, 1]

    def test_envelope_filter_dedupes(self):
        keep = envelope_filter([(1.0, 1.0), (1.0, 1.0)])
        assert keep == [0]

    def test_switching_points(self):
        points = switching_points([(0.0, 10.0), (10.0, 0.0)])
        assert points == [pytest.approx(0.5)]

    @given(st.lists(cost_vectors, min_size=1, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_envelope_preserves_optimum_everywhere(self, costs):
        keep = envelope_filter(costs)
        kept = [costs[i] for i in keep]
        for theta in (0.0, 0.25, 0.5, 0.75, 1.0):
            full = min(scalarize(c, theta) for c in costs)
            reduced = min(scalarize(c, theta) for c in kept)
            assert reduced == pytest.approx(full, rel=1e-6, abs=1e-6)


class TestSettingsValidation:
    def test_parametric_requires_two_objectives(self):
        with pytest.raises(ValueError):
            OptimizerSettings(parametric=True)

    def test_parametric_rejects_buffer(self):
        with pytest.raises(ValueError):
            OptimizerSettings(objectives=MULTI_OBJECTIVE, parametric=True)

    def test_parametric_rejects_orders(self):
        with pytest.raises(ValueError):
            OptimizerSettings(
                objectives=(Objective.EXECUTION_TIME, Objective.OUTPUT_ROWS),
                parametric=True,
                consider_orders=True,
            )

    def test_helper_builds_valid_settings(self):
        assert parametric_settings().parametric


class TestOutputRowsMetric:
    def test_scan_free(self):
        from repro.query.schema import Table

        assert OutputRowsMetric().scan_cost(Table("R", 100), 100.0) == 0.0

    def test_join_adds_output(self):
        from repro.plans.operators import JoinAlgorithm

        cost = OutputRowsMetric().join_cost(
            10.0, 20.0, 5.0, 5.0, 42.0, JoinAlgorithm.HASH, True, True
        )
        assert cost == 72.0


class TestParametricOptimality:
    """The envelope matches scalarized single-objective DP at every θ."""

    THETAS = (0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0)

    def scalarized_optimum(self, query, theta):
        """Ground truth via exhaustive enumeration of left-deep plans."""
        from repro.core.exhaustive import iter_leftdeep_plans
        from repro.cost.costmodel import CostModel

        model = CostModel(query, parametric_settings())
        return min(
            scalarize(plan.cost, theta)
            for plan in iter_leftdeep_plans(query, model)
        )

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_serial_envelope_optimal_everywhere(self, seed):
        query = SteinbrunnGenerator(seed).query(5)
        result = optimize_parametric(query)
        for theta in self.THETAS:
            assert result.cost_at(theta) == pytest.approx(
                self.scalarized_optimum(query, theta)
            )

    @pytest.mark.parametrize("workers", [2, 4, 8])
    def test_parallel_matches_serial(self, workers):
        query = SteinbrunnGenerator(9).query(6)
        serial = optimize_parametric(query, 1)
        parallel = optimize_parametric(query, workers)
        for theta in self.THETAS:
            assert parallel.cost_at(theta) == pytest.approx(serial.cost_at(theta))

    def test_bushy_space(self):
        query = SteinbrunnGenerator(11).query(6)
        linear = optimize_parametric(query, 1, PlanSpace.LINEAR)
        bushy = optimize_parametric(query, 4, PlanSpace.BUSHY)
        for theta in self.THETAS:
            assert bushy.cost_at(theta) <= linear.cost_at(theta) * (1 + 1e-9)

    def test_time_endpoint_matches_single_objective(self):
        query = SteinbrunnGenerator(12).query(7)
        single = best_plan(optimize_serial(query, OptimizerSettings()))
        parametric = optimize_parametric(query)
        assert parametric.cost_at(0.0) == pytest.approx(single.cost[0])

    def test_switching_thetas_in_range(self):
        query = SteinbrunnGenerator(13).query(7)
        result = optimize_parametric(query, 4)
        for theta in result.switching_thetas():
            assert 0.0 < theta < 1.0

    def test_envelope_smaller_than_frontier(self):
        """The envelope is a subset of the Pareto frontier (convex hull)."""
        query = SteinbrunnGenerator(14).query(7)
        parametric = optimize_parametric(query)
        frontier = optimize_serial(
            query,
            OptimizerSettings(
                objectives=(Objective.EXECUTION_TIME, Objective.OUTPUT_ROWS),
                alpha=1.0,
            ),
        )
        assert len(parametric.plans) <= len(frontier.plans)
        frontier_costs = {plan.cost for plan in frontier.plans}
        for plan in parametric.plans:
            assert plan.cost in frontier_costs

    def test_worker_stats_present(self):
        query = SteinbrunnGenerator(15).query(6)
        result = optimize_parametric(query, 4)
        assert result.report.n_partitions == 4
        assert result.report.network_bytes > 0


class TestBestPlanTieRule:
    """``best_plan_for`` binds θ the way the serving doors do."""

    def test_breakpoint_tie_follows_the_serving_rule(self):
        from repro.algorithms.pqo import PQOResult
        from repro.core.envelope import best_index_at

        # Both lines cost 5.0 at θ = 0.5; frontier order lists the one with
        # the larger cost vector first, which a bare min(scalarize) returns.
        plans = [
            ScanPlan(mask=1, rows=1.0, cost=(10.0, 0.0), order=None, table=0),
            ScanPlan(mask=1, rows=1.0, cost=(0.0, 10.0), order=None, table=0),
        ]
        result = PQOResult(report=SimpleNamespace(plans=plans))
        costs = [plan.cost for plan in plans]
        assert scalarize(costs[0], 0.5) == scalarize(costs[1], 0.5)
        assert result.best_plan_for(0.5) is plans[best_index_at(costs, 0.5)]
        assert result.best_plan_for(0.5) is plans[1]
        assert result.best_plan_for(0.0) is plans[1]
        assert result.best_plan_for(1.0) is plans[0]


# ------------------------------------------------- incremental envelope


def replay_reference(lines):
    """Feed ``lines`` to ``ParametricPruning.consider``, the specification.

    Yields per step the keep / reject answer and the entry as
    ``(cost, step)`` pairs; ``rows`` carries the step so kept plans can be
    told apart even when their costs are equal.
    """
    policy, table = ParametricPruning(), {}
    for step, cost in enumerate(lines):
        kept = policy.consider(
            table, 1, cost, None,
            lambda: ScanPlan(mask=1, rows=float(step), cost=cost, order=None, table=0),
        )
        yield kept, [(plan.cost, int(plan.rows)) for plan in table[1]]


def assert_replays_like_reference(lines):
    envelope = IncrementalEnvelope()
    for step, (kept, entry) in enumerate(replay_reference(lines)):
        assert envelope.offer(lines[step], step) == kept, (step, lines)
        assert list(zip(envelope.lines, envelope.payloads)) == entry, (step, lines)


_unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
_scales = st.sampled_from([1.0, 2.0, 1e3, 1e9, 1e19])
_fresh_lines = st.one_of(
    st.tuples(_unit, _unit),  # below the max(1.0, .) kink of the slack
    st.builds(lambda a, b, k: (a * k, b * k), _unit, _unit, _scales),
    st.builds(lambda a, k: (a * k, 0.0), _unit, _scales),  # scan-shaped
    st.builds(lambda a, b, k, m: (a * k, b * m), _unit, _unit, _scales, _scales),
)
_nudges = st.sampled_from(
    ["same", "ulp-up", "ulp-down", 5e-10, -5e-10, 2e-9, -2e-9, 1e-9, -1e-9]
)


def _nudged(value, nudge):
    if nudge == "same":
        return value
    if nudge == "ulp-up":
        return math.nextafter(value, math.inf)
    if nudge == "ulp-down":
        return max(math.nextafter(value, -math.inf), 0.0)
    return value * (1.0 + nudge)


@st.composite
def insertion_sequences(draw):
    """Lines in insertion order, later ones often a near-tie of an earlier.

    Near-ties are 1 ulp, 5e-10 and 2e-9 relative (either side of the 1e-9
    slack) and 1e-9 itself, per coordinate; ``same``/``same`` is an exact
    duplicate; a parallel shift gives equal slopes.
    """
    lines = [draw(_fresh_lines)]
    for _ in range(draw(st.integers(min_value=1, max_value=9))):
        kind = draw(st.sampled_from(["fresh", "near", "parallel"]))
        base = draw(st.sampled_from(lines))
        if kind == "near":
            lines.append((_nudged(base[0], draw(_nudges)), _nudged(base[1], draw(_nudges))))
        elif kind == "parallel":
            shift = draw(_unit) * draw(st.sampled_from([1e-9, 1e-3, 1.0, 1e9]))
            lines.append((base[0] + shift, base[1] + shift))
        else:
            lines.append(draw(_fresh_lines))
    return lines


class TestIncrementalEnvelope:
    """The kernel's envelope equals replaying the reference policy."""

    @given(insertion_sequences())
    @settings(max_examples=400, deadline=None)
    def test_replays_like_the_reference(self, lines):
        assert_replays_like_reference(lines)

    def test_realistic_magnitudes(self):
        rng = random.Random(5)
        for _ in range(300):
            lines = [
                (rng.uniform(0.0, 1e6), rng.uniform(0.0, 1e4))
                for _ in range(rng.randint(2, 12))
            ]
            assert_replays_like_reference(lines)

    def test_own_crossing_can_be_the_only_witness(self):
        """With endpoints 1e11 apart a line's own crossing, computed a few
        ulp off, is where it undercuts the envelope by more than the slack
        — those θ cannot be skipped."""
        left = (188293315846.10068, 7.792288961444344)
        right = (198460722508.71512, 3.77534100279966)
        line = (197066675769.48358, 4.3260979591672495)
        assert needed_on_envelope(line, [left, right])
        assert_replays_like_reference([left, right, line])

    #: Sequences (found by random search) whose stored list the reference
    #: does *not* reproduce when it replays it on the next accept: the
    #: last line is accepted against a shorter list than the one stored.
    NON_IDENTITY_REPLAYS = [
        [
            (3.8272734416749967e18, 0.0),
            (5.28210936622041e18, 3.4442049800639252e16),
            (58376066.86554915, 78691215690.38849),
            (58376066.86554914, 78691215690.3885),
            (5.282109371501991e18, 3.4442049800639256e16),
            (1.128973139794548e18, 4.87337425898832e18),
            (3.946328842294289e18, 2.832455967839934e18),
            (5.282109371501991e18, 3.4442049783418228e16),
            (58376066.74879701, 78691215769.07971),
            (1.6777294244810314e18, 0.0),
            (3.205612606619363e16, 0.0),
        ],
        [
            (0.1468943297044244, 0.9999136077186841),
            (1562992817739863.5, 0.06207575573234867),
            (0.6073111754668884, 0.21699809487768895),
            (4845866647976.621, 1660099179.9021788),
            (0.67067613566503, 0.9748130726217129),
            (0.7142049067011226, 0.754928302303272),
            (1.2946382190815304, 0.06365887510435497),
            (0.05878182071084748, 0.35449361419292214),
            (0.0, 0.5101380514788434),
        ],
    ]

    @pytest.mark.parametrize("lines", NON_IDENTITY_REPLAYS)
    def test_stored_list_the_reference_does_not_reproduce(self, lines):
        stored = [entry for _, entry in replay_reference(lines[:-1])][-1]
        costs = [cost for cost, _ in stored]
        assert len(envelope_filter(costs)) < len(costs)
        assert_replays_like_reference(lines)
