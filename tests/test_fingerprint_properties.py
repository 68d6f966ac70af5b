"""Property-based fingerprint/remap coverage over seeded random queries.

The example-based tests in ``test_service.py`` pin specific regressions;
these sweeps assert the *properties* the serving layer is built on, over a
few hundred seeded random queries spanning every join-graph topology:

* fingerprint invariance under relation relabeling, predicate reordering,
  and predicate endpoint swaps (none of which change query semantics);
* worker-count coherence: two requested parallelism levels share a
  fingerprint exactly when they resolve to the same partition count;
* remap round-trips: relabeling a plan through a permutation and back is
  the identity, canonical numbering is a true permutation, and serving an
  isomorphic request yields plans in the requester's own numbering;
* the rank-colored search itself: invariance on Hypothesis-drawn queries
  and on the fully symmetric family the seeded sweeps never reach, the
  branch cap, no cyclic garbage, the same answer under every hash seed,
  and ``remap_plan`` against the ``dataclasses.replace`` formulation.

Everything is seeded — a failure reproduces with the printed seed.
"""

from __future__ import annotations

import dataclasses
import gc
import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.config import (
    MULTI_OBJECTIVE,
    PARAMETRIC_OBJECTIVES,
    OptimizerSettings,
    PlanSpace,
)
from repro.core.constraints import usable_partitions
from repro.core.serial import optimize_serial
from repro.plans.orders import SortOrder
from repro.plans.plan import JoinPlan, Plan, ScanPlan
from repro.query.generator import SteinbrunnGenerator
from repro.query.query import JoinGraphKind, Query
from repro.service import OptimizerService, canonicalize, fingerprint
from repro.service.fingerprint import (
    MAX_BRANCHES,
    CanonicalForm,
    fingerprint_canonical,
)
from repro.service.remap import invert, remap_mask, remap_plan
from tests.test_service import permute_query, shuffled

#: The module itself: ``repro.service.fingerprint`` as an attribute is the
#: re-exported *function*.
fingerprint_module = sys.modules["repro.service.fingerprint"]

KINDS = (
    JoinGraphKind.STAR,
    JoinGraphKind.CHAIN,
    JoinGraphKind.CYCLE,
    JoinGraphKind.CLIQUE,
)

SETTINGS_VARIANTS = (
    OptimizerSettings(),
    OptimizerSettings(consider_orders=True),
    OptimizerSettings(objectives=MULTI_OBJECTIVE, alpha=2.0),
    OptimizerSettings(objectives=PARAMETRIC_OBJECTIVES, parametric=True),
)


def random_queries(count: int, seed: int, tables=(3, 8)):
    """``count`` seeded random queries cycling topologies and sizes."""
    rng = random.Random(seed)
    generator = SteinbrunnGenerator(seed)
    return [
        generator.query(rng.randint(*tables), KINDS[index % len(KINDS)])
        for index in range(count)
    ]


def reorder_predicates(query: Query, seed: int) -> Query:
    """Shuffle predicate order and swap random predicates' endpoints."""
    rng = random.Random(seed)
    predicates = list(query.predicates)
    rng.shuffle(predicates)
    swapped = tuple(
        dataclasses.replace(
            predicate,
            left_table=predicate.right_table,
            left_column=predicate.right_column,
            right_table=predicate.left_table,
            right_column=predicate.left_column,
        )
        if rng.random() < 0.5
        else predicate
        for predicate in predicates
    )
    return Query(tables=query.tables, predicates=swapped, name=query.name)


class TestFingerprintInvariance:
    def test_invariant_under_relabeling_200_queries(self):
        # The headline sweep: ~200 queries x several permutations each.
        settings = OptimizerSettings()
        for index, query in enumerate(random_queries(200, seed=101)):
            reference = fingerprint(query, settings)
            for permutation_seed in range(3):
                relabeled = permute_query(
                    query, shuffled(query.n_tables, seed=permutation_seed)
                )
                assert fingerprint(relabeled, settings) == reference, (
                    f"query #{index} ({query.name}) fingerprint changed under "
                    f"permutation seed {permutation_seed}"
                )

    def test_invariant_under_predicate_rewrites(self):
        settings = OptimizerSettings()
        for index, query in enumerate(random_queries(100, seed=102)):
            reference = fingerprint(query, settings)
            for rewrite_seed in range(3):
                rewritten = reorder_predicates(query, seed=rewrite_seed)
                assert fingerprint(rewritten, settings) == reference, (
                    f"query #{index} fingerprint changed under predicate "
                    f"rewrite seed {rewrite_seed}"
                )

    def test_invariant_under_combined_rewrites_across_settings(self):
        # Permute AND rewrite predicates, under every settings variant.
        for index, query in enumerate(random_queries(48, seed=103)):
            mangled = reorder_predicates(
                permute_query(query, shuffled(query.n_tables, seed=index)),
                seed=index,
            )
            for settings in SETTINGS_VARIANTS:
                assert fingerprint(query, settings) == fingerprint(
                    mangled, settings
                ), f"query #{index} under {settings}"

    def test_distinct_settings_never_collide(self):
        for query in random_queries(24, seed=104):
            keys = {
                fingerprint(query, settings) for settings in SETTINGS_VARIANTS
            }
            assert len(keys) == len(SETTINGS_VARIANTS)

    def test_worker_counts_share_keys_iff_partitions_agree(self):
        settings = OptimizerSettings()
        rng = random.Random(105)
        for index, query in enumerate(random_queries(100, seed=105)):
            workers_a = rng.randint(1, 64)
            workers_b = rng.randint(1, 64)
            partitions_a = usable_partitions(
                query.n_tables, workers_a, settings.plan_space
            )
            partitions_b = usable_partitions(
                query.n_tables, workers_b, settings.plan_space
            )
            key_a = fingerprint(query, settings, workers_a)
            key_b = fingerprint(query, settings, workers_b)
            assert (key_a == key_b) == (partitions_a == partitions_b), (
                f"query #{index}: workers {workers_a} vs {workers_b} resolved "
                f"to partitions {partitions_a} vs {partitions_b}"
            )

    def test_memoized_canonicalization_matches_fresh(self):
        # The hot-path memo must be an invisible optimization: a fresh
        # equal-content query object canonicalizes to the identical form.
        for query in random_queries(24, seed=106):
            twin = Query(
                tables=query.tables, predicates=query.predicates, name="twin"
            )
            first = canonicalize(query)
            second = canonicalize(twin)
            assert first.encoding == second.encoding
            assert first.numbering == second.numbering


class TestCanonicalNumbering:
    def test_numbering_is_a_permutation(self):
        for query in random_queries(100, seed=107):
            numbering = canonicalize(query).numbering
            assert sorted(numbering) == list(range(query.n_tables))
            assert invert(invert(numbering)) == numbering

    def test_isomorphic_queries_map_to_one_canonical_query(self):
        # numbering(q) and numbering(permuted q) compose to the permutation.
        for index, query in enumerate(random_queries(48, seed=108)):
            permutation = shuffled(query.n_tables, seed=index)
            relabeled = permute_query(query, permutation)
            numbering = canonicalize(query).numbering
            relabeled_numbering = canonicalize(relabeled).numbering
            for original in range(query.n_tables):
                assert (
                    relabeled_numbering[permutation[original]]
                    == numbering[original]
                )


class TestRemapRoundTrips:
    def test_mask_round_trip_under_random_permutations(self):
        rng = random.Random(109)
        for n_tables in range(1, 12):
            for __ in range(20):
                permutation = shuffled(n_tables, seed=rng.randint(0, 10_000))
                mask = rng.randint(0, (1 << n_tables) - 1)
                there = remap_mask(mask, permutation)
                assert remap_mask(there, invert(permutation)) == mask
                assert bin(there).count("1") == bin(mask).count("1")

    def test_plan_round_trip_on_real_frontiers(self):
        # Real DP output (multi-objective, so frontiers have several plans):
        # remapping there and back must reproduce the identical plan values.
        settings = OptimizerSettings(objectives=MULTI_OBJECTIVE)
        for index, query in enumerate(random_queries(24, seed=110, tables=(3, 6))):
            plans = optimize_serial(query, settings).plans
            assert plans
            permutation = shuffled(query.n_tables, seed=index)
            for plan in plans:
                there = remap_plan(plan, permutation)
                assert remap_plan(there, invert(permutation)) == plan
                assert there.cost == plan.cost

    def test_service_serves_permuted_requests_in_their_numbering(self):
        # End to end: optimize a query, then request a permuted copy; the
        # hit must come back renumbered for the permuted query.
        with OptimizerService(n_workers=4) as service:
            for index, query in enumerate(
                random_queries(16, seed=111, tables=(4, 6))
            ):
                original = service.optimize(query)
                permuted = permute_query(
                    query, shuffled(query.n_tables, seed=index)
                )
                served = service.optimize(permuted)
                assert served.cached
                assert served.fingerprint == original.fingerprint
                assert served.best.mask == permuted.all_tables_mask
                assert served.best.cost[0] == pytest.approx(
                    original.best.cost[0], rel=1e-9
                )


def symmetric_query(n_tables: int, kind: JoinGraphKind, seed: int = 0) -> Query:
    """Every table with table 0's statistics, every predicate alike.

    Color refinement cannot tell such tables apart beyond their degree, so
    canonicalization has to individualize — the path no Steinbrunn query
    (pairwise distinct cardinalities) ever takes.
    """
    query = SteinbrunnGenerator(seed, clustered_tables=True).query(n_tables, kind)
    column = query.tables[0].columns[0].name
    return Query(
        tables=tuple(
            dataclasses.replace(query.tables[0], name=f"S{number}")
            for number in range(n_tables)
        ),
        predicates=tuple(
            dataclasses.replace(
                predicate, left_column=column, right_column=column, selectivity=0.01
            )
            for predicate in query.predicates
        ),
        name=f"symmetric-{kind.value}-{n_tables}",
    )


def two_tone_clique(*cycles: int) -> Query:
    """A symmetric clique whose edges along disjoint cycles are more selective.

    Every table sees the same two special edges, so refinement alone splits
    nothing, yet tables on cycles of different lengths are not automorphic:
    the search tree has inequivalent leaves and the minimum must pick among
    them the same way under every labeling.
    """
    query = symmetric_query(sum(cycles), JoinGraphKind.CLIQUE)
    special, start = set(), 0
    for length in cycles:
        special |= {
            frozenset((start + step, start + (step + 1) % length))
            for step in range(length)
        }
        start += length
    return Query(
        tables=query.tables,
        predicates=tuple(
            dataclasses.replace(predicate, selectivity=0.02)
            if predicate.table_pair in special
            else predicate
            for predicate in query.predicates
        ),
        name=f"two-tone-{cycles}",
    )


@st.composite
def steinbrunn_queries(draw) -> Query:
    generator = SteinbrunnGenerator(
        draw(st.integers(0, 2**32)), clustered_tables=draw(st.booleans())
    )
    return generator.query(draw(st.integers(3, 8)), draw(st.sampled_from(KINDS)))


symmetric_queries = st.builds(
    symmetric_query, st.integers(3, 7), st.sampled_from(KINDS), st.integers(0, 50)
) | st.builds(two_tone_clique, st.integers(3, 4), st.integers(3, 4))


def reference_remap(plan: Plan, mapping: tuple[int, ...]) -> Plan:
    """``remap_plan`` as ``dataclasses.replace`` wrote it: every field the
    call does not name is copied, whatever fields ``Plan`` grows."""
    order = plan.order
    if order is not None:
        order = SortOrder(table=mapping[order.table], column=order.column)
    if isinstance(plan, ScanPlan):
        return dataclasses.replace(
            plan,
            mask=remap_mask(plan.mask, mapping),
            order=order,
            table=mapping[plan.table],
        )
    return dataclasses.replace(
        plan,
        mask=remap_mask(plan.mask, mapping),
        order=order,
        left=reference_remap(plan.left, mapping),
        right=reference_remap(plan.right, mapping),
    )


def assert_same_fields(actual: Plan, expected: Plan) -> None:
    assert type(actual) is type(expected)
    for spec in dataclasses.fields(expected):
        ours, theirs = getattr(actual, spec.name), getattr(expected, spec.name)
        if isinstance(theirs, Plan):
            assert_same_fields(ours, theirs)
        else:
            assert ours == theirs, spec.name


def content(query: Query) -> tuple:
    """A query minus its accidents: table names, predicate order and direction."""
    return (
        [dataclasses.replace(table, name="") for table in query.tables],
        {
            frozenset([(p.left_table, p.left_column), (p.right_table, p.right_column)]): p.selectivity
            for p in query.predicates
        },
    )


def nodes(plan: Plan):
    yield plan
    if isinstance(plan, JoinPlan):
        yield from nodes(plan.left)
        yield from nodes(plan.right)


class TestRankCanonicalization:
    @settings(max_examples=40, deadline=None)
    @given(query=st.one_of(steinbrunn_queries(), symmetric_queries), data=st.data())
    def test_drawn_relabelings_share_encoding_and_fingerprint(self, query, data):
        reference = canonicalize(query)
        assert sorted(reference.numbering) == list(range(query.n_tables))
        key = fingerprint(query, OptimizerSettings(), 4)
        for __ in range(20):
            relabeled = permute_query(
                query, tuple(data.draw(st.permutations(range(query.n_tables))))
            )
            form = canonicalize(relabeled)
            assert sorted(form.numbering) == list(range(query.n_tables))
            assert form.encoding == reference.encoding
            assert fingerprint(relabeled, OptimizerSettings(), 4) == key

    @pytest.mark.parametrize(
        "query",
        [
            # 7 identical clique-connected tables: 7! = 5,040 equal leaves.
            symmetric_query(7, JoinGraphKind.CLIQUE),
            # 1,152 leaves of two inequivalent kinds: here the cap does
            # make relabelings disagree.
            two_tone_clique(3, 3, 4),
        ],
        ids=["clique-7", "two-tone-10"],
    )
    def test_branch_cap_bounds_the_search_and_never_certifies_a_wrong_hit(
        self, query, monkeypatch
    ):
        encode, calls = fingerprint_module._encode, []

        def counting(*args):
            calls.append(1)
            return encode(*args)

        monkeypatch.setattr(fingerprint_module, "_encode", counting)
        forms = {}
        for seed in range(6):
            relabeled = permute_query(query, shuffled(query.n_tables, seed=seed))
            del calls[:]
            forms[relabeled] = fingerprint_module._canonicalize(relabeled)
            assert len(calls) == MAX_BRANCHES
        # Equal encodings must certify an isomorphism: renumbering one query
        # through the composed numberings reproduces the other, table
        # statistics and predicates alike.
        certified = 0
        for (first, form_a), (second, form_b) in itertools.combinations(
            forms.items(), 2
        ):
            if form_a.encoding != form_b.encoding:
                continue  # the cap may lose a hit
            a_to_b = tuple(invert(form_b.numbering)[c] for c in form_a.numbering)
            assert content(permute_query(first, a_to_b)) == content(second)
            certified += 1
        assert certified

    def test_fresh_canonicalization_leaves_no_cyclic_garbage(self):
        # A server that pauses the collector must not accumulate a stranded
        # search closure (and the adjacency it holds) per fresh numbering.
        query = SteinbrunnGenerator(2121, clustered_tables=True).query(
            8, JoinGraphKind.CYCLE
        )
        fresh = [
            permute_query(query, shuffled(8, seed=seed)) for seed in range(200)
        ]
        gc.collect()
        gc.disable()
        try:
            forms = [canonicalize(relabeled) for relabeled in fresh]
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert len({form.encoding for form in forms}) == 1

    def test_same_answer_under_every_hash_seed(self):
        # Ranks come from ``sorted``, never from set/dict iteration order.
        script = (
            "from repro.config import OptimizerSettings\n"
            "from repro.query.query import JoinGraphKind\n"
            "from repro.service import canonicalize, fingerprint\n"
            "from tests.test_fingerprint_properties import "
            "SteinbrunnGenerator, symmetric_query\n"
            "clustered = SteinbrunnGenerator(8, clustered_tables=True)"
            ".query(8, JoinGraphKind.STAR)\n"
            "for query in (clustered, symmetric_query(6, JoinGraphKind.CYCLE)):\n"
            "    form = canonicalize(query)\n"
            "    print(form.encoding, form.numbering,"
            " fingerprint(query, OptimizerSettings(), 4))\n"
        )
        root = Path(repro.__file__).resolve().parents[2]
        outputs = [
            subprocess.run(
                [sys.executable, "-c", script],
                env={
                    **os.environ,
                    "PYTHONHASHSEED": hash_seed,
                    "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root)]),
                },
                capture_output=True,
                text=True,
                timeout=120,
                check=True,
            ).stdout
            for hash_seed in ("1", "2")
        ]
        assert outputs[0] == outputs[1]
        assert outputs[0].count("\n") == 2

    def test_hand_built_form_yields_a_usable_fingerprint(self):
        # tests/test_envelope_serving.py builds forms from two arguments.
        form = CanonicalForm("", (2, 0, 1))
        assert (form.encoding, form.numbering) == ("", (2, 0, 1))
        key = fingerprint_canonical(form, OptimizerSettings(), 2)
        assert len(key) == 64 and int(key, 16) >= 0
        assert key == fingerprint_canonical(
            CanonicalForm("", (0, 1, 2)), OptimizerSettings(), 2
        )
        assert key != fingerprint_canonical(
            CanonicalForm("x", (2, 0, 1)), OptimizerSettings(), 2
        )
        assert key != fingerprint_canonical(form, OptimizerSettings(), 1)


class TestRemapAgainstReference:
    def test_remap_plan_equals_the_replace_formulation_field_for_field(self):
        classes = (
            OptimizerSettings(),
            OptimizerSettings(plan_space=PlanSpace.BUSHY),
            OptimizerSettings(objectives=MULTI_OBJECTIVE),
            OptimizerSettings(consider_orders=True),
            OptimizerSettings(objectives=PARAMETRIC_OBJECTIVES, parametric=True),
        )
        generator = SteinbrunnGenerator(112, clustered_tables=True)
        seen_bushy = seen_order = False
        for index, kind in enumerate(KINDS[:3]):
            query = generator.query(5 + index, kind)
            mapping = shuffled(query.n_tables, seed=index)
            for settings_ in classes:
                for plan in optimize_serial(query, settings_).plans:
                    assert_same_fields(
                        remap_plan(plan, mapping), reference_remap(plan, mapping)
                    )
                    for node in nodes(plan):
                        seen_order |= node.order is not None
                        seen_bushy |= isinstance(node, JoinPlan) and isinstance(
                            node.right, JoinPlan
                        )
        assert seen_bushy and seen_order
