"""The strict field readers, and every decoder of outside input built on them.

The contract (``repro.util.readers``): a decoder raises ``ValueError`` on
malformed input and no other exception, and it never misreads — what it
returns re-encodes to the input it was given.  Checked three ways:

* the reader rules themselves, and the misreads the ad-hoc coercions they
  replaced used to commit;
* one Hypothesis property per decoder: a valid object is encoded, one
  field of the wire form is mutated (a JSON type swap, the infinity
  sentinel, a dropped key, an out-of-range index or enum value) and the
  result is decoded — it must raise ``ValueError`` or read back exactly,
  up to integral floats (``3.0`` is ``3``) and ``null`` standing for an
  absent optional field;
* for a plan's flat rows, the same property under mutations of the row
  structure: a tag, a row's arity, a dropped or an extra row, and a scan
  table repeated (which must be refused), decoded with and without a
  mapping.
"""

from __future__ import annotations

import json
from functools import cache
from typing import Any, Callable

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.serialization import (
    plan_from_wire,
    plan_to_wire,
    plans_from_wire,
    plans_to_wire,
    settings_from_wire,
    settings_to_wire,
    snapshot_from_wire,
    snapshot_to_wire,
)
from repro.config import PARAMETRIC_OBJECTIVES, Backend, OptimizerSettings, PlanSpace
from repro.core.envelope import FULL_THETA_DOMAIN, EnvelopeIndex, build_envelope_index
from repro.core.serial import optimize_serial
from repro.query.generator import SteinbrunnGenerator
from repro.query.io import catalog_from_dict, catalog_to_dict, query_from_dict, query_to_dict
from repro.query.query import JoinGraphKind
from repro.query.schema import Catalog
from repro.service import CacheEntry, Provenance
from repro.service.net import result_from_wire, result_to_wire
from repro.service.remap import remap_plan
from repro.service.service import ServiceResult
from repro.service.tiers import ENVELOPE_ENTRY, decode_put_record, entry_from_wire, entry_to_wire
from repro.util.readers import MISSING, read, read_enum, read_float, read_int
from tests.test_serialization import nested_plan_wire

# ---------------------------------------------------------------- the readers


class TestReaders:
    @pytest.mark.parametrize(
        "reader, value",
        [
            (read_int, True),
            (read_int, 2.5),
            (read_int, "3"),
            (read_int, float("inf")),
            (read_float, False),
            (read_float, "0.5"),
            (read_float, "inf"),
            (read_float, float("nan")),
            (lambda data, key: read(data, key, bool), 0),
            (lambda data, key: read(data, key, bool), "false"),
            (lambda data, key: read(data, key, str), 5),
            (lambda data, key: read(data, key, list), {}),
            (lambda data, key: read(data, key, dict), []),
            (lambda data, key: read_enum(data, key, PlanSpace), "diagonal"),
            (lambda data, key: read_enum(data, key, PlanSpace), ["linear"]),
        ],
    )
    def test_wrong_json_type_names_the_field(self, reader, value):
        with pytest.raises(ValueError, match="field 'x'"):
            reader({"x": value}, "x")

    @pytest.mark.parametrize("data", [None, 5, "x", [1], {"y": 1}])
    def test_missing_field_or_non_object_names_the_field(self, data):
        with pytest.raises(ValueError, match="field 'x'"):
            read_int(data, "x")

    def test_accepted_forms(self):
        assert read_int({"x": 3.0}, "x") == 3 and type(read_int({"x": 3.0}, "x")) is int
        assert read_float({"x": 2}, "x") == 2.0
        assert read_float({"x": "-inf"}, "x", infinite=True) == float("-inf")
        assert read_enum({"x": "bushy"}, "x", PlanSpace) is PlanSpace.BUSHY
        assert read(["a", "b"], 1, str) == "b"
        assert read({}, "x", list, [], item=read_int) == []
        assert read({"x": [1, 2.0]}, "x", list, item=read_int) == [1, 2]
        # A default of None makes null mean absent; another default does not.
        assert read_float({"x": None}, "x", None) is None
        with pytest.raises(ValueError):
            read({"x": None}, "x", str, "")

    def test_bounds(self):
        assert read_int({"x": 0}, "x", low=0) == 0
        with pytest.raises(ValueError, match=r"in \[1, "):
            read_int({"x": 0}, "x", low=1)
        with pytest.raises(ValueError):
            read_float({"x": 1.5}, "x", low=0.0, high=1.0)


# ------------------------------------------ misreads of the replaced coercions


def _valid_settings() -> dict[str, Any]:
    return settings_to_wire(OptimizerSettings())


def _valid_parametric_settings() -> dict[str, Any]:
    return settings_to_wire(OptimizerSettings(objectives=PARAMETRIC_OBJECTIVES, parametric=True))


def _valid_provenance() -> dict[str, Any]:
    return Provenance("vecdp", "sig", 100.0, 2, {"plans_kept": 3}).to_wire()


def _valid_result() -> dict[str, Any]:
    return result_to_wire(ServiceResult(_frontiers()[0][1], 2, "f" * 64, False, "vecdp"))


MISREADS = [
    ("settings-orders-string", settings_from_wire, _valid_settings, {"consider_orders": "false"}),
    ("settings-algorithms-list", settings_from_wire, _valid_settings, {"use_all_join_algorithms": [0]}),
    ("settings-theta-string", settings_from_wire, _valid_parametric_settings, {"theta": "0.5"}),
    ("provenance-backend-number", Provenance.from_wire, _valid_provenance, {"backend_used": 1}),
    ("provenance-created-boolean", Provenance.from_wire, _valid_provenance, {"created_at_s": True}),
    ("provenance-partitions-fraction", Provenance.from_wire, _valid_provenance, {"n_partitions": 2.9}),
    ("provenance-backend-missing", Provenance.from_wire, _valid_provenance, {"backend_used": MISSING}),
    ("result-partitions-boolean", result_from_wire, _valid_result, {"n_partitions": True}),
    ("result-fingerprint-number", result_from_wire, _valid_result, {"fingerprint": 5}),
    ("result-cached-string", result_from_wire, _valid_result, {"cached": "no"}),
    ("result-theta-string", result_from_wire, _valid_result, {"theta": "0.5"}),
]


@pytest.mark.parametrize(
    "decode, valid, edits", [case[1:] for case in MISREADS], ids=[case[0] for case in MISREADS]
)
def test_former_misread_is_a_value_error(decode, valid, edits):
    data = valid()
    decode(data)  # the unedited record decodes
    for key, value in edits.items():
        if value is MISSING:
            del data[key]
        else:
            data[key] = value
    with pytest.raises(ValueError):
        decode(data)


@pytest.mark.parametrize("owner", [-1, 2])
def test_envelope_segment_outside_the_plans_is_refused(owner):
    """An in-range-looking index still has to name one of the entry's own
    plans: ``-1`` would select the last plan, a position past the end
    would fail every θ lookup of that key."""
    entry = next(e for e in _entries() if e.envelope is not None)
    wire = entry_to_wire(entry)
    wire["plans"] = wire["plans"][:1] * 2
    wire["envelope"] = {"breakpoints": [], "segments": [owner]}
    with pytest.raises(ValueError, match="segments"):
        entry_from_wire(wire)
    wire["envelope"]["segments"] = [1]
    assert entry_from_wire(wire).envelope.segments == (1,)


# ------------------------------------------------------ the mutation property


@cache
def _frontiers() -> list[tuple[OptimizerSettings, list]]:
    """One frontier per plan class: plain, bushy, orders, parametric."""
    classes = [
        OptimizerSettings(),
        OptimizerSettings(plan_space=PlanSpace.BUSHY, backend=Backend.LEGACY),
        OptimizerSettings(consider_orders=True),
        OptimizerSettings(objectives=PARAMETRIC_OBJECTIVES, parametric=True),
    ]
    generator = SteinbrunnGenerator(11, clustered_tables=True)
    return [(each, optimize_serial(generator.query(4), each).plans) for each in classes]


def _entries() -> list[CacheEntry]:
    entries = []
    for settings_, plans in _frontiers():
        provenance = Provenance(
            "vecdp", repr(settings_), 1700000000.5, 2, {"plans_kept": 4, "wall_time_s": 0.25},
            FULL_THETA_DOMAIN if settings_.parametric else None,
        )
        envelope = build_envelope_index(plans) if settings_.parametric else None
        kind = ENVELOPE_ENTRY if settings_.parametric else "scalar"
        entries.append(CacheEntry(plans, 2, "vecdp", provenance, kind, envelope))
    return entries + [CacheEntry(_frontiers()[0][1], 1)]


def _put(entry: CacheEntry, key: str = "ab" * 32) -> dict[str, Any]:
    return {"t": "put", "k": key, "entry": entry_to_wire(entry)}


@cache
def _decoders() -> dict[str, tuple[list, Callable, Callable, frozenset]]:
    """name → (samples, encode, decode, keys a decoder may fill in by default)."""
    queries = [
        SteinbrunnGenerator(seed, clustered_tables=seed % 2 == 0).query(4, kind)
        for seed, kind in [(1, JoinGraphKind.CHAIN), (2, JoinGraphKind.STAR), (3, JoinGraphKind.CYCLE)]
    ]
    catalog = Catalog()
    for table in queries[1].tables:
        catalog.add(table)
    entries = _entries()
    parametric = _frontiers()[-1][1]
    settings_samples = [each for each, __ in _frontiers()] + [
        OptimizerSettings(objectives=PARAMETRIC_OBJECTIVES, parametric=True, theta=0.25, alpha=1.5)
    ]
    records = [_put(entry, f"{n:064x}") for n, entry in enumerate(entries)]

    entry_defaults = frozenset({"backend_used", "worker_stats"})
    return {
        "query": (queries, query_to_dict, query_from_dict,
                  frozenset({"row_bytes", "columns", "predicates", "name", "selectivity"})),
        "catalog": ([catalog], catalog_to_dict, catalog_from_dict, frozenset({"row_bytes", "columns", "tables"})),
        "plans": ([plans for __, plans in _frontiers()], plans_to_wire, plans_from_wire, frozenset()),
        "nested-plans": ([plans for __, plans in _frontiers()],
                         lambda plans: [nested_plan_wire(plan) for plan in plans], plans_from_wire, frozenset()),
        "settings": (settings_samples, settings_to_wire, settings_from_wire, frozenset()),
        "snapshot": ([records], snapshot_to_wire, snapshot_from_wire, frozenset()),
        "envelope": ([build_envelope_index(parametric)], EnvelopeIndex.to_wire, EnvelopeIndex.from_wire, frozenset()),
        "provenance": ([e.provenance for e in entries if e.provenance], Provenance.to_wire,
                       Provenance.from_wire, frozenset({"worker_stats"})),
        "entry": (entries, entry_to_wire, entry_from_wire, entry_defaults),
        "put-record": ([(r["k"], e) for r, e in zip(records, entries)], lambda pair: _put(pair[1], pair[0]),
                       decode_put_record, entry_defaults),
        "result": ([ServiceResult(plans, 2, "f" * 64, n % 2 == 0, "vecdp", 0.5 if s.parametric else None)
                    for n, (s, plans) in enumerate(_frontiers())], result_to_wire, result_from_wire,
                   frozenset({"backend_used"})),
    }


#: Replacement values: every JSON type, the infinity sentinel, an integral
#: float, and out-of-range numbers and enum values.
REPLACEMENTS = [True, False, 0, 1, -1, 3.0, 2.5, 10**6, "x", "zzz", "inf", None, [], {}]


def _paths(node: Any, path: tuple = ()) -> list[tuple]:
    found = [path] if path else []
    if type(node) is dict:
        for key, child in node.items():
            found += _paths(child, path + (key,))
    elif type(node) is list:
        for index, child in enumerate(node):
            found += _paths(child, path + (index,))
    return found


def _normal(node: Any) -> Any:
    """Integral floats as ints, and null fields dropped."""
    if type(node) is dict:
        return {key: _normal(value) for key, value in node.items() if value is not None}
    if type(node) is list:
        return [_normal(value) for value in node]
    if type(node) is float and node.is_integer():
        return int(node)
    return node


def _reads_back(encoded: Any, mutated: Any, defaults: frozenset) -> bool:
    """``encoded`` equals ``mutated``, except for keys a decoder defaulted."""
    if type(encoded) is dict and type(mutated) is dict:
        extra = encoded.keys() - mutated.keys()
        return extra <= defaults and mutated.keys() <= encoded.keys() and all(
            _reads_back(encoded[key], mutated[key], defaults) for key in mutated
        )
    if type(encoded) is list and type(mutated) is list:
        return len(encoded) == len(mutated) and all(
            _reads_back(a, b, defaults) for a, b in zip(encoded, mutated)
        )
    return encoded == mutated and type(encoded) is type(mutated)


def _check_mutation(name: str, data: st.DataObject) -> None:
    samples, encode, decode, defaults = _decoders()[name]
    wire = json.loads(json.dumps(encode(data.draw(st.sampled_from(samples)))))
    path = data.draw(st.sampled_from(_paths(wire)))
    parent = wire
    for step in path[:-1]:
        parent = parent[step]
    if type(parent) is dict and data.draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = data.draw(st.sampled_from(REPLACEMENTS))
    try:
        decoded = decode(wire)
    except ValueError:
        return
    encoded = json.loads(json.dumps(encode(decoded), allow_nan=False))
    assert _reads_back(_normal(encoded), _normal(wire), defaults), (path, wire, encoded)


DECODER_NAMES = [
    "catalog", "entry", "envelope", "nested-plans", "plans", "provenance", "put-record", "query",
    "result", "settings", "snapshot",
]


@pytest.mark.parametrize("name", DECODER_NAMES)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_mutated_input_is_refused_or_read_back(name, data):
    _check_mutation(name, data)


@pytest.mark.slow
@pytest.mark.parametrize("name", DECODER_NAMES)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_mutated_input_is_refused_or_read_back_soak(name, data):
    _check_mutation(name, data)


# ------------------------------------------------------ a plan's row structure

ROW_MUTATIONS = ["tag", "arity", "drop", "extra", "repeat-table"]


def _check_row_mutation(data: st.DataObject) -> None:
    plans = data.draw(st.sampled_from([plans for __, plans in _frontiers()]))
    rows = json.loads(json.dumps(plan_to_wire(data.draw(st.sampled_from(plans)))))
    mutation = data.draw(st.sampled_from(ROW_MUTATIONS))
    position = data.draw(st.integers(0, len(rows) - 1))
    row = rows[position]
    if mutation == "tag":
        row[0] = data.draw(st.sampled_from([0, 1, 2, -1, 0.0, 1.0, True, False, "1", None]))
    elif mutation == "arity" and data.draw(st.booleans()):
        del row[data.draw(st.integers(0, len(row) - 1))]
    elif mutation == "arity":
        row.insert(data.draw(st.integers(0, len(row))), data.draw(st.sampled_from(REPLACEMENTS)))
    elif mutation == "drop":
        del rows[position]
    elif mutation == "extra":
        rows.insert(data.draw(st.integers(0, len(rows))), list(data.draw(st.sampled_from(rows))))
    else:
        scans = [each for each in rows if each[0] == 0]
        first, second = data.draw(st.permutations(scans))[:2]
        second[1] = first[1]
    mapping = tuple(data.draw(st.permutations(range(4))))
    try:
        decoded = plan_from_wire(rows)
    except ValueError:
        with pytest.raises(ValueError):
            plan_from_wire(rows, mapping)
        return
    assert mutation != "repeat-table", rows
    assert _normal(plan_to_wire(decoded)) == _normal(rows), (mutation, rows)
    assert plan_from_wire(rows, mapping) == remap_plan(decoded, mapping)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_mutated_plan_rows_are_refused_or_read_back(data):
    _check_row_mutation(data)


@pytest.mark.slow
@settings(max_examples=1000, deadline=None)
@given(data=st.data())
def test_mutated_plan_rows_are_refused_or_read_back_soak(data):
    _check_row_mutation(data)
