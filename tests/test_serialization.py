"""Serialization: the byte model and the wire codecs."""

from __future__ import annotations

import dataclasses
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.serialization import (
    MEMO_ENTRY_BYTES,
    float_to_wire,
    settings_from_wire,
    settings_to_wire,
    MESSAGE_HEADER_BYTES,
    PER_METRIC_BYTES,
    PER_PREDICATE_BYTES,
    PER_TABLE_BYTES,
    PLAN_NODE_BYTES,
    SET_ID_BYTES,
    TASK_HEADER_BYTES,
    memo_entries_bytes,
    plan_from_wire,
    plan_to_wire,
    plans_bytes,
    plans_from_wire,
    plans_to_wire,
    query_bytes,
    sma_task_bytes,
    task_bytes,
)
from repro.config import (
    MULTI_OBJECTIVE,
    PARAMETRIC_OBJECTIVES,
    OptimizerSettings,
    PlanSpace,
)
from repro.core.serial import best_plan, optimize_serial
from repro.plans.operators import JoinAlgorithm, ScanAlgorithm
from repro.plans.orders import SortOrder
from repro.plans.plan import JoinPlan, ScanPlan, plan_join_count
from repro.query.generator import SteinbrunnGenerator
from repro.query.query import JoinGraphKind
from repro.service.remap import remap_plan
from repro.util.readers import float_from_wire
from tests.test_edge_cases import _overflowing_query


@pytest.fixture
def query():
    return SteinbrunnGenerator(1).query(6)


@pytest.fixture
def plan(query):
    return best_plan(optimize_serial(query, OptimizerSettings()))


class TestQueryBytes:
    def test_formula(self, query):
        expected = (
            MESSAGE_HEADER_BYTES + 6 * PER_TABLE_BYTES + 5 * PER_PREDICATE_BYTES
        )
        assert query_bytes(query) == expected

    def test_grows_with_tables(self):
        small = query_bytes(SteinbrunnGenerator(1).query(4))
        large = query_bytes(SteinbrunnGenerator(1).query(8))
        assert large - small == 4 * (PER_TABLE_BYTES + PER_PREDICATE_BYTES)

    def test_task_adds_header(self, query):
        assert task_bytes(query) == query_bytes(query) + TASK_HEADER_BYTES


class TestPlanBytes:
    def test_node_count(self, plan):
        assert 2 * plan_join_count(plan) + 1 == 2 * 6 - 1

    def test_plan_bytes_formula(self, plan):
        expected = (
            MESSAGE_HEADER_BYTES
            + PLAN_NODE_BYTES * 11
            + PER_METRIC_BYTES * len(plan.cost)
        )
        assert plans_bytes([plan]) == expected

    def test_plans_bytes_single_header(self, plan):
        two = plans_bytes([plan, plan])
        one = plans_bytes([plan])
        assert two - one == one - MESSAGE_HEADER_BYTES

    def test_empty_result_still_costs_header(self):
        assert plans_bytes([]) == MESSAGE_HEADER_BYTES


class TestMemoBytes:
    def test_zero_entries_free(self):
        assert memo_entries_bytes(0) == 0

    def test_linear_in_entries(self):
        assert (
            memo_entries_bytes(100) - memo_entries_bytes(50)
            == 50 * MEMO_ENTRY_BYTES
        )

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            memo_entries_bytes(-1)


class TestSmaTaskBytes:
    def test_formula(self):
        assert sma_task_bytes(10) == TASK_HEADER_BYTES + 10 * SET_ID_BYTES

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            sma_task_bytes(-1)


# ------------------------------------------------------------------ wire codecs


#: The three query classes of the serving tier's feature mix; a frontier of
#: each must survive the wire bit-identically (plain = one optimal plan,
#: orders = order-tagged Pareto plans, parametric = a lower-envelope
#: frontier with multi-metric cost vectors).
QUERY_CLASSES = {
    "plain": OptimizerSettings(),
    "orders": OptimizerSettings(consider_orders=True),
    "parametric": OptimizerSettings(
        objectives=PARAMETRIC_OBJECTIVES, parametric=True
    ),
}


def nested_plan_wire(plan) -> dict:
    """The nested form versions before the flat rows wrote: one object per
    node, children inside.  Only read today, by logs and snapshots that
    hold it; this is its encoder, kept for the tests of that reader."""
    common = {
        "mask": plan.mask,
        "rows": float_to_wire(plan.rows),
        "cost": [float_to_wire(value) for value in plan.cost],
        "order": None if plan.order is None else [plan.order.table, plan.order.column],
    }
    if isinstance(plan, ScanPlan):
        return {"op": "scan", "table": plan.table, "alg": plan.algorithm.value, **common}
    return {
        "op": "join",
        "alg": plan.algorithm.value,
        "left": nested_plan_wire(plan.left),
        "right": nested_plan_wire(plan.right),
        **common,
    }


def small_plan():
    return best_plan(optimize_serial(SteinbrunnGenerator(1).query(4), OptimizerSettings()))


class TestPlanNode:
    """The node is immutable, pickles, and compares field by field."""

    def test_a_node_holds_its_fields_only(self, plan):
        def names(node):
            return [field.name for field in dataclasses.fields(node)]

        common = ["mask", "rows", "cost", "order"]
        assert names(plan.right) == [*common, "table", "algorithm"]
        assert names(plan) == [*common, "left", "right", "algorithm"]
        assert [field.name for field in dataclasses.fields(SortOrder)] == ["table", "column"]
        for node in (plan, plan.right, SortOrder(0, "c0")):
            assert not hasattr(node, "__dict__")
            # Not a field: refused as a field is, and nothing is set.
            with pytest.raises(dataclasses.FrozenInstanceError):
                node.extra = 1
            with pytest.raises(dataclasses.FrozenInstanceError):
                del node.extra
            assert not hasattr(node, "extra")

    def test_fields_cannot_be_assigned_or_deleted(self, plan):
        for node in (plan, plan.right):
            for field in dataclasses.fields(node):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(node, field.name, getattr(node, field.name))
                with pytest.raises(dataclasses.FrozenInstanceError):
                    delattr(node, field.name)

    def test_pickle_round_trip_is_equal(self, plan):
        import pickle

        copy = pickle.loads(pickle.dumps(plan))
        assert copy == plan and type(copy) is JoinPlan
        assert plan_to_wire(copy) == plan_to_wire(plan)
        order = SortOrder(2, "c1")
        copy = pickle.loads(pickle.dumps(order))
        assert copy == order and hash(copy) == hash((2, "c1"))
        assert sorted([order, SortOrder(0, "c9"), SortOrder(2, "c0")]) == [
            SortOrder(0, "c9"), SortOrder(2, "c0"), order,
        ]

    def test_a_scan_never_equals_a_join(self):
        scan = ScanPlan(1, 1.0, (1.0,), None, 0)
        join = JoinPlan(3, 1.0, (1.0,), None, scan, ScanPlan(2, 1.0, (1.0,), None, 1))
        assert scan != join and join != scan
        assert scan != ScanPlan(1, 1.0, (1.0,), None, 1) and scan == join.left

    def test_equal_plans_hash_equal(self, query):
        first = best_plan(optimize_serial(query, OptimizerSettings()))
        second = plan_from_wire(json.loads(json.dumps(plan_to_wire(first))))
        assert first is not second and first == second
        assert hash(first) == hash(second)
        assert len({first, second}) == 1

    def test_positional_keyword_and_default_construction_agree(self):
        scan = ScanPlan(mask=1, rows=2.0, cost=(3.0,), order=None, table=0)
        assert scan == ScanPlan(1, 2.0, (3.0,), None, 0, ScanAlgorithm.FULL_SCAN)
        join = JoinPlan(3, 4.0, (5.0,), None, scan, ScanPlan(2, 2.0, (3.0,), None, 1))
        assert join.algorithm is JoinAlgorithm.BLOCK_NESTED_LOOP
        assert join == JoinPlan(
            mask=3, rows=4.0, cost=(5.0,), order=None, left=scan, right=join.right,
            algorithm=JoinAlgorithm.BLOCK_NESTED_LOOP,
        )
        assert dataclasses.replace(join, rows=6.0) == JoinPlan(3, 6.0, (5.0,), None, scan, join.right)


class TestWireCodecs:
    @pytest.mark.parametrize("class_name", sorted(QUERY_CLASSES))
    @pytest.mark.parametrize("seed", [1, 7, 23])
    @pytest.mark.parametrize(
        "kind", [JoinGraphKind.STAR, JoinGraphKind.CHAIN, JoinGraphKind.CYCLE]
    )
    def test_frontiers_round_trip_bit_identically(self, class_name, seed, kind):
        """Property sweep: every plan of every frontier of every class
        survives encode -> JSON text -> decode with equality on every field
        — plan nodes compare field by field, so ``==`` is bit-identity for
        the float cost vectors and cardinalities too."""
        settings = QUERY_CLASSES[class_name]
        query = SteinbrunnGenerator(seed, clustered_tables=True).query(6, kind)
        frontier = optimize_serial(query, settings).plans
        assert frontier, "sweep must exercise non-empty frontiers"
        # Through actual JSON text, exactly as the disk tier stores records.
        decoded = plans_from_wire(json.loads(json.dumps(plans_to_wire(frontier))))
        assert decoded == frontier
        assert [plan.cost for plan in decoded] == [plan.cost for plan in frontier]
        assert [plan.order for plan in decoded] == [plan.order for plan in frontier]

    def test_frontier_order_preserved_verbatim(self):
        query = SteinbrunnGenerator(3).query(5)
        frontier = optimize_serial(
            query, OptimizerSettings(objectives=PARAMETRIC_OBJECTIVES, parametric=True)
        ).plans
        decoded = plans_from_wire(plans_to_wire(frontier))
        assert [plan.mask for plan in decoded] == [plan.mask for plan in frontier]

    def test_rows_are_post_order_without_masks(self):
        plan = small_plan()
        rows = plan_to_wire(plan)
        assert len(rows) == 2 * plan_join_count(plan) + 1
        assert rows[-1] == [1, plan.algorithm.value, plan.rows, list(plan.cost), None]
        right = plan.right  # left-deep: the last join's inner is a scan
        assert rows[-2] == [0, right.table, right.algorithm.value, right.rows, list(right.cost), None]
        assert [row[0] for row in rows[:2]] == [0, 0]

    def test_json_type_tells_the_form(self, query):
        """An array is flat rows, an object the nested form older versions
        wrote: both read back to the same plan, and a frontier may mix
        them."""
        frontier = optimize_serial(query, QUERY_CLASSES["parametric"]).plans
        nested = [nested_plan_wire(plan) for plan in frontier]
        flat = plans_to_wire(frontier)
        assert plans_from_wire(json.loads(json.dumps(nested))) == frontier
        mixed = [nested[0], *flat[1:]]
        assert plans_from_wire(mixed) == frontier
        for wire in (5, "x", None, True):
            with pytest.raises(ValueError, match="array or object"):
                plan_from_wire(wire)

    @pytest.mark.parametrize(
        "damage",
        [
            lambda rows: rows[0].pop(),  # arity
            lambda rows: rows[0].append(None),  # arity
            lambda rows: rows[0].__setitem__(0, 7),  # tag
            lambda rows: rows[-1].__setitem__(0, True),  # a boolean is no tag
            lambda rows: rows.pop(0),  # a join runs out of operands
            lambda rows: rows.append(list(rows[0])),  # a row left over
            lambda rows: rows.clear(),  # no tree at all
            lambda rows: rows[1].__setitem__(1, rows[0][1]),  # a table twice
            lambda rows: rows[0].__setitem__(2, "quantum"),
            lambda rows: rows[-1].__setitem__(1, "quantum"),
            lambda rows: rows[0].__setitem__(1, 64),  # past any mask
            lambda rows: rows[0].__setitem__(1, 10**18),
            lambda rows: rows.__setitem__(0, {"op": "scan"}),  # no mixing in one plan
        ],
    )
    @pytest.mark.parametrize("mapping", [None, (0, 1, 2, 3)])
    def test_malformed_rows_fail_loudly(self, damage, mapping):
        rows = plan_to_wire(small_plan())
        damage(rows)
        with pytest.raises(ValueError):
            plan_from_wire(rows, mapping)
        with pytest.raises(ValueError):
            plans_from_wire([rows], mapping)

    def test_malformed_nested_record_fails_loudly(self):
        record = nested_plan_wire(small_plan())
        del record["cost"]
        with pytest.raises(ValueError):
            plan_from_wire(record)
        with pytest.raises(ValueError):
            plan_from_wire({"op": "reduce", "mask": 1})
        record = nested_plan_wire(small_plan())
        record["left"]["alg"] = "quantum"
        with pytest.raises(ValueError):
            plan_from_wire(record)
        with pytest.raises(ValueError):
            plans_from_wire([record], (0, 1, 2, 3))
        record = nested_plan_wire(small_plan())
        record["left"] = plan_to_wire(small_plan().left)
        with pytest.raises(ValueError, match="JSON object"):
            plan_from_wire(record)
        record = nested_plan_wire(small_plan())
        record["right"]["mask"] = record["left"]["mask"]  # not the scan's table
        with pytest.raises(ValueError, match="mask"):
            plan_from_wire(record)
        assert plan_from_wire(record, (0, 1, 2, 3)) == small_plan()  # a mapping derives masks

    @pytest.mark.parametrize("form", ["flat", "nested"])
    @pytest.mark.parametrize("where", ["scan", "order"])
    @pytest.mark.parametrize("table", [4, -1])
    def test_table_outside_the_mapping_fails_loudly(self, form, where, table):
        """A scan or order naming a table a 4-table mapping does not cover
        — past its end, or negative, which a tuple index would silently
        wrap — is a malformed record, not an ``IndexError``."""
        plan = small_plan()
        if form == "flat":
            record = plan_to_wire(plan)
            scan = record[-2]  # left-deep: the last join's inner is a scan
            scan[1 if where == "scan" else 5] = table if where == "scan" else [table, "c0"]
        else:
            record = nested_plan_wire(plan)
            scan = record["right"]
            if where == "scan":
                scan["table"] = table
            else:
                scan["order"] = [table, "c0"]
        mapping = (3, 2, 1, 0)
        with pytest.raises(ValueError):
            plan_from_wire(record, mapping)
        with pytest.raises(ValueError):
            plans_from_wire([record], mapping)


class TestNonFiniteFloats:
    """Non-finite costs must cross the wire as *standard* JSON.

    Parametric lower envelopes legitimately use ``±inf`` sentinels;
    ``json.dumps`` would emit bare ``Infinity`` for them — a token no
    strict parser (or non-Python peer) accepts.  The codecs carry them as
    sentinel strings instead, and reject NaN in both directions.
    """

    @pytest.mark.parametrize(
        "value",
        [0.0, -0.0, 1.0 / 3.0, 2.5e-308, 1.8e308, -7.7, math.inf, -math.inf],
    )
    def test_values_round_trip_bit_identically(self, value):
        wire = float_to_wire(value)
        decoded = float_from_wire(json.loads(json.dumps(wire, allow_nan=False)))
        assert decoded == value
        assert math.copysign(1.0, decoded) == math.copysign(1.0, value)

    def test_infinities_become_sentinel_strings(self):
        assert float_to_wire(math.inf) == "inf"
        assert float_to_wire(-math.inf) == "-inf"
        assert float_from_wire("inf") == math.inf
        assert float_from_wire("-inf") == -math.inf

    def test_nan_rejected_on_encode_and_decode(self):
        with pytest.raises(ValueError):
            float_to_wire(math.nan)
        with pytest.raises(ValueError):
            float_from_wire(math.nan)
        with pytest.raises(ValueError):
            float_from_wire("nan")

    def test_unknown_sentinel_rejected(self):
        with pytest.raises(ValueError):
            float_from_wire("infinity")

    @pytest.mark.parametrize("value", [True, False])
    def test_booleans_rejected_on_decode(self, value):
        # float(True) == 1.0: without the check a JSON boolean decodes silently.
        with pytest.raises(ValueError):
            float_from_wire(value)

    @pytest.mark.parametrize("form", ["flat", "nested"])
    @pytest.mark.parametrize("field", ["rows", "cost"])
    @pytest.mark.parametrize("mapping", [None, (0, 1, 2, 3)])
    def test_boolean_in_a_plan_record_fails_loudly(self, form, field, mapping):
        value = True if field == "rows" else [False]
        if form == "flat":
            record = plan_to_wire(small_plan())
            record[0][3 if field == "rows" else 4] = value
        else:
            record = nested_plan_wire(small_plan())
            record["left"][field] = value
        with pytest.raises(ValueError):
            plan_from_wire(json.loads(json.dumps(record)), mapping)

    def test_legacy_bare_infinity_still_decodes(self):
        # Logs written before sentinel encoding hold bare Infinity tokens;
        # Python's json parses them to float inf, which decode tolerates.
        assert float_from_wire(json.loads("Infinity")) == math.inf

    @pytest.mark.parametrize("class_name", sorted(QUERY_CLASSES))
    @pytest.mark.parametrize("seed", [1, 7, 23])
    def test_infinite_costs_survive_strict_json(self, class_name, seed):
        """The bit-identity sweep extended to non-finite cost vectors: a
        frontier whose every cost vector carries an inf round-trips through
        ``json.dumps(..., allow_nan=False)`` — i.e. the encoding really is
        standard JSON even with non-finite members."""
        settings = QUERY_CLASSES[class_name]
        query = SteinbrunnGenerator(seed, clustered_tables=True).query(5)
        frontier = [
            dataclasses.replace(
                plan, cost=(math.inf,) + tuple(plan.cost[1:]), rows=math.inf
            )
            for plan in optimize_serial(query, settings).plans
        ]
        text = json.dumps(plans_to_wire(frontier), allow_nan=False)
        assert "Infinity" not in text and "NaN" not in text
        decoded = plans_from_wire(json.loads(text))
        assert decoded == frontier

    def test_nan_cost_refused_at_encode_time(self, plan):
        poisoned = JoinPlan(
            plan.mask, plan.rows, (math.nan,), plan.order, plan.left, plan.right, plan.algorithm
        )
        with pytest.raises(ValueError):
            plan_to_wire(poisoned)

    @pytest.mark.parametrize("class_name", sorted(QUERY_CLASSES))
    def test_settings_round_trip(self, class_name):
        settings = dataclasses.replace(QUERY_CLASSES[class_name], alpha=1.1 + 0.2)
        decoded = settings_from_wire(
            json.loads(json.dumps(settings_to_wire(settings), allow_nan=False))
        )
        assert decoded == settings

    def test_malformed_settings_fail_loudly(self):
        record = settings_to_wire(OptimizerSettings())
        del record["objectives"]
        with pytest.raises(ValueError):
            settings_from_wire(record)


# ------------------------------------------------- decoding into a numbering


#: Every plan class that crosses the wire: plain in both plan spaces,
#: interesting orders, parametric envelopes and exact multi-objective
#: frontiers.
WIRE_CLASSES = {
    "plain_linear": OptimizerSettings(),
    "plain_bushy": OptimizerSettings(plan_space=PlanSpace.BUSHY),
    "orders": OptimizerSettings(consider_orders=True),
    "parametric": OptimizerSettings(objectives=PARAMETRIC_OBJECTIVES, parametric=True),
    "multi": OptimizerSettings(objectives=MULTI_OBJECTIVE),
}

#: Six 10**100-row tables in a star: costs overflow to ``inf`` from the
#: second join on (``tests/test_edge_cases.py``).
OVERFLOW_QUERY = _overflowing_query(10**100, 0)


def frontier(query, class_name):
    return optimize_serial(query, WIRE_CLASSES[class_name]).plans


#: Clustered tables give scans an order, so non-null orders occur.
wire_queries = st.one_of(
    st.builds(
        lambda seed, kind, n_tables: SteinbrunnGenerator(
            seed, clustered_tables=True
        ).query(n_tables, kind),
        st.integers(0, 10**6),
        st.sampled_from(list(JoinGraphKind)),
        st.integers(2, 7),
    ),
    st.just(OVERFLOW_QUERY),
)


class TestDecodeIntoNumbering:
    """``plan_from_wire(data, mapping)`` is held to ``remap_plan``: decoding
    straight into a numbering equals decoding, then relabelling."""

    @settings(max_examples=60, deadline=None)
    @given(
        query=wire_queries,
        class_name=st.sampled_from(sorted(WIRE_CLASSES)),
        data=st.data(),
    )
    def test_equals_decode_then_remap(self, query, class_name, data):
        plans = frontier(query, class_name)
        mapping = tuple(data.draw(st.permutations(range(query.n_tables))))
        for encode in (plan_to_wire, nested_plan_wire):
            wire = json.loads(json.dumps([encode(plan) for plan in plans], allow_nan=False))
            for plan, record in zip(plans, wire):
                assert plan_from_wire(record, mapping) == remap_plan(plan, mapping)
                assert plan_from_wire(record) == plan
            assert plans_from_wire(wire, mapping) == [
                remap_plan(plan, mapping) for plan in plans
            ]

    def test_overflow_query_ships_infinite_costs_and_orders(self):
        """What the property draws reaches the cases that matter: the
        overflow query's frontiers carry ``inf`` costs, and the orders
        class carries non-null orders."""
        shipped = {name: frontier(OVERFLOW_QUERY, name) for name in WIRE_CLASSES}
        for name in ("orders", "parametric", "multi"):
            assert any(math.inf in plan.cost for plan in shipped[name]), name
        clustered = SteinbrunnGenerator(1, clustered_tables=True).query(5)
        assert any(plan.order for plan in frontier(clustered, "orders"))
