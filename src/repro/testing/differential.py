"""Cross-algorithm differential-testing oracle.

The only safe way to rewrite the DP hot path is an oracle that proves the
rewrite plan-for-plan equivalent to what it replaces.  This module compares
the Pareto frontier of final plans produced by independent enumeration
*backends* for the same query and settings:

* ``"legacy"`` — the object-based worker DP (:mod:`repro.core.worker`);
* ``"fastdp"`` — the flat bitset core (:mod:`repro.core.fastdp`);
* ``"vecdp"`` — the array-native numpy core (:mod:`repro.core.vecdp`);
  it declares only plain and multi-objective optimization, so sweeps
  include it for exactly those feature sets;
* ``"exhaustive"`` — brute-force enumeration of the *entire* plan space
  (:mod:`repro.core.exhaustive`), ground truth for small queries;
* any callable ``(query, settings) -> iterable of cost vectors`` — useful
  for testing the oracle itself, or for vetting a future backend.

Frontiers are compared exactly (the backends are required to perform the
same float arithmetic, not merely be "close").  On a mismatch the oracle
does what a counterexample reporter should: it *shrinks*, re-running the
disagreeing backends on induced sub-queries to find a minimal offending
table subset, and raises a :class:`FrontierMismatch` that names the subset,
the shrunken query, and every backend's frontier on it — the analogue of a
provenance explanation for "why do these optimizers diverge?".

For parametric settings frontiers are canonicalized with the *lower
envelope* instead of Pareto dominance: the DP keeps exactly the plans
optimal for some θ, which is a strict subset of the Pareto frontier, so the
comparable signature is the envelope of each backend's returned cost lines.

The oracle also verifies *routing*: a named DP backend must actually run —
``WorkerStats.backend_used`` is checked against the requested backend and a
:class:`BackendRoutingError` is raised on any silent substitution, so "zero
legacy fallbacks" is a property the sweeps enforce, not an assumption.

Typical use::

    from repro.testing import assert_equivalent_frontiers
    assert_equivalent_frontiers(query, settings)          # raises on divergence

    from repro.testing import run_differential_oracle
    outcome = run_differential_oracle(n_queries=200, seed=0)
    assert not outcome.failures

    # Include interesting orders and parametric costs in the sweep:
    run_differential_oracle(n_queries=200, features=("plain", "orders", "parametric"))

Adding a new backend safely: give it a row in
:data:`repro.core.worker.BACKEND_CAPABILITIES` declaring its capabilities
and a dispatch branch in :func:`repro.core.worker.optimize_partition` (or
pass a plain callable here), then add it to the ``backends`` tuple of the
property tests in ``tests/test_differential.py`` — the oracle takes care of
the rest.
"""

from __future__ import annotations

import dataclasses
import random
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field

from repro.config import (
    PARAMETRIC_OBJECTIVES,
    Backend,
    Objective,
    OptimizerSettings,
    PlanSpace,
)
from repro.core.exhaustive import iter_bushy_plans, iter_leftdeep_plans
from repro.core.serial import optimize_serial
from repro.cost.costmodel import CostModel
from repro.cost.parametric import envelope_filter
from repro.cost.pareto import pareto_filter
from repro.query.generator import SteinbrunnGenerator
from repro.query.query import JoinGraphKind, Query
from repro.util.bitset import iter_subsets

#: A frontier signature: the exact Pareto frontier as a sorted tuple of
#: cost vectors.  Two backends are equivalent on a query iff their
#: signatures are equal (bitwise — no tolerance).
FrontierSignature = tuple[tuple[float, ...], ...]

#: A backend is a registered name or a callable yielding final-plan cost
#: vectors for ``(query, settings)``.
BackendSpec = str | Callable[[Query, OptimizerSettings], Iterable[Sequence[float]]]

#: Exhaustive enumeration is exponential; refuse sizes where it would
#: silently take minutes.  (n! orders for linear, n!·Catalan(n-1) trees
#: for bushy, times up to 3^(n-1) operator choices.)
EXHAUSTIVE_MAX_TABLES = {PlanSpace.LINEAR: 6, PlanSpace.BUSHY: 5}


class BackendRoutingError(AssertionError):
    """A named DP backend did not actually run the request.

    Raised when ``WorkerStats.backend_used`` disagrees with the backend the
    oracle asked for — the observable form of a silent fallback, which would
    make a differential comparison vacuous (both sides running the same
    core trivially agree).
    """


def _dp_cost_vectors(
    query: Query, settings: OptimizerSettings, backend: Backend
) -> list[tuple[float, ...]]:
    result = optimize_serial(query, settings.replace(backend=backend))
    if result.stats.backend_used != backend.value:
        raise BackendRoutingError(
            f"requested backend {backend.value!r} but "
            f"{result.stats.backend_used!r} ran {query.name!r}"
        )
    return [plan.cost for plan in result.plans]


def _legacy_backend(query: Query, settings: OptimizerSettings):
    return _dp_cost_vectors(query, settings, Backend.LEGACY)


def _fastdp_backend(query: Query, settings: OptimizerSettings):
    return _dp_cost_vectors(query, settings, Backend.FASTDP)


def _vecdp_backend(query: Query, settings: OptimizerSettings):
    return _dp_cost_vectors(query, settings, Backend.VECDP)


def naive_bushy_operands(mask: int, constraints: tuple) -> list[int]:
    """Ablation baseline: enumerate *all* splits, then filter by constraints.

    This is the strategy the paper deliberately avoids for bushy spaces
    because its complexity is linear in the number of *possible* rather than
    admissible splits.  Kept beside the oracle for the split-generation
    ablation benchmark and the worker tests; returns the same operand set as
    :func:`repro.core.worker.bushy_operands` (including the degenerate
    0/mask entries) on admissible ``mask`` values.
    """
    operands = []
    for left_mask in iter_subsets(mask):
        right_mask = mask ^ left_mask
        left_ok = not any(c.excludes(left_mask) for c in constraints)
        right_ok = not any(c.excludes(right_mask) for c in constraints)
        if left_ok and right_ok:
            operands.append(left_mask)
    return operands


def _exhaustive_backend(query: Query, settings: OptimizerSettings):
    if settings.alpha != 1.0:
        raise ValueError(
            "the exhaustive backend yields the exact frontier; comparing it "
            "against an alpha-approximate DP (alpha != 1) is not meaningful"
        )
    limit = EXHAUSTIVE_MAX_TABLES[settings.plan_space]
    if query.n_tables > limit:
        raise ValueError(
            f"exhaustive enumeration capped at {limit} tables for the "
            f"{settings.plan_space} space; got {query.n_tables}"
        )
    cost_model = CostModel(query, settings)
    if settings.plan_space is PlanSpace.LINEAR:
        plans = iter_leftdeep_plans(query, cost_model)
    else:
        plans = iter_bushy_plans(query, cost_model)
    return [plan.cost for plan in plans]


_NAMED_BACKENDS: dict[str, Callable[[Query, OptimizerSettings], Iterable]] = {
    "legacy": _legacy_backend,
    "fastdp": _fastdp_backend,
    "vecdp": _vecdp_backend,
    "exhaustive": _exhaustive_backend,
}

#: Default comparison set: both DP cores plus ground truth.
DEFAULT_BACKENDS: tuple[BackendSpec, ...] = ("legacy", "fastdp", "exhaustive")


def _resolve(spec: BackendSpec) -> tuple[str, Callable]:
    if callable(spec):
        return getattr(spec, "__name__", "custom"), spec
    try:
        return spec, _NAMED_BACKENDS[spec]
    except KeyError:
        raise ValueError(
            f"unknown backend {spec!r}; known: {sorted(_NAMED_BACKENDS)}"
        ) from None


def _canonical_signature(
    vectors: Iterable[Sequence[float]], settings: OptimizerSettings
) -> FrontierSignature:
    """Canonicalize a backend's final cost vectors into a comparable set.

    Pareto filtering for ordinary (single/multi-objective) settings; for
    parametric settings the *lower envelope*, because the parametric DP
    keeps exactly the θ-optimal plans — a strict subset of the Pareto
    frontier — and the exhaustive backend's full plan list must be reduced
    by the same rule to compare meaningfully.
    """
    if settings.parametric:
        flat = [tuple(vector) for vector in vectors]
        return tuple(sorted(flat[index] for index in envelope_filter(flat)))
    return tuple(sorted(pareto_filter(vectors)))


def frontier(
    query: Query, settings: OptimizerSettings, backend: BackendSpec
) -> FrontierSignature:
    """The canonical frontier of ``backend``'s final plans, sorted.

    For the DP backends the returned plans already form the frontier when
    ``alpha == 1``; applying :func:`_canonical_signature` uniformly also
    canonicalizes the exhaustive backend's full plan list and de-duplicates
    equal-cost plans, so signatures compare exactly.
    """
    _name, runner = _resolve(backend)
    return _canonical_signature(runner(query, settings), settings)


class FrontierMismatch(AssertionError):
    """Raised when backends disagree; carries the minimal counterexample.

    Attributes:
        query: the query the disagreement was first observed on.
        settings: the optimizer settings used.
        frontiers: backend name -> frontier signature on the full query.
        minimal_tables: table numbers (in ``query``'s numbering) of a
            1-minimal subset on which the backends still disagree — removing
            any single table makes them agree.
        minimal_query: the induced sub-query over ``minimal_tables``.
        minimal_frontiers: backend name -> frontier on ``minimal_query``.
    """

    def __init__(
        self,
        query: Query,
        settings: OptimizerSettings,
        frontiers: dict[str, FrontierSignature],
        minimal_tables: tuple[int, ...],
        minimal_query: Query,
        minimal_frontiers: dict[str, FrontierSignature],
    ) -> None:
        self.query = query
        self.settings = settings
        self.frontiers = frontiers
        self.minimal_tables = minimal_tables
        self.minimal_query = minimal_query
        self.minimal_frontiers = minimal_frontiers
        lines = [
            f"backends disagree on {query.name!r} "
            f"({query.n_tables} tables, {settings.plan_space} space, "
            f"objectives={[o.value for o in settings.objectives]}, "
            f"alpha={settings.alpha})",
            f"minimal offending table subset: {list(minimal_tables)} "
            f"-> {minimal_query.describe()}",
        ]
        for name, signature in minimal_frontiers.items():
            lines.append(f"  {name:>12}: {_format_frontier(signature)}")
        super().__init__("\n".join(lines))


def _format_frontier(signature: FrontierSignature, limit: int = 6) -> str:
    shown = ", ".join(
        "(" + ", ".join(f"{value:.6g}" for value in vector) + ")"
        for vector in signature[:limit]
    )
    extra = len(signature) - limit
    return f"[{shown}{f', … +{extra} more' if extra > 0 else ''}]"


def induced_subquery(query: Query, keep: Sequence[int]) -> Query:
    """The sub-query over the given tables, renumbered consecutively.

    Keeps every predicate whose endpoints both survive (selectivities
    unchanged).  The induced join graph may be disconnected — that is fine,
    cross products are part of the plan space.
    """
    keep = tuple(sorted(keep))
    if not keep:
        raise ValueError("cannot induce a sub-query on zero tables")
    renumber = {old: new for new, old in enumerate(keep)}
    tables = tuple(query.tables[old] for old in keep)
    predicates = tuple(
        dataclasses.replace(
            predicate,
            left_table=renumber[predicate.left_table],
            right_table=renumber[predicate.right_table],
        )
        for predicate in query.predicates
        if predicate.left_table in renumber and predicate.right_table in renumber
    )
    name = f"{query.name}[{','.join(str(t) for t in keep)}]"
    return Query(tables=tables, predicates=predicates, name=name)


def _frontiers_disagree(
    query: Query, settings: OptimizerSettings, resolved: list[tuple[str, Callable]]
) -> dict[str, FrontierSignature] | None:
    """All backends' frontiers if they disagree, else None."""
    frontiers = {
        name: _canonical_signature(runner(query, settings), settings)
        for name, runner in resolved
    }
    reference = next(iter(frontiers.values()))
    if all(signature == reference for signature in frontiers.values()):
        return None
    return frontiers


def _shrink(
    query: Query,
    settings: OptimizerSettings,
    resolved: list[tuple[str, Callable]],
) -> tuple[tuple[int, ...], Query, dict[str, FrontierSignature]]:
    """Greedy delta-debugging: drop tables while the disagreement persists.

    Returns a 1-minimal subset (removing any single further table makes the
    backends agree), the induced sub-query, and the frontiers on it.
    """
    current = tuple(range(query.n_tables))
    current_query = query
    current_frontiers = _frontiers_disagree(query, settings, resolved)
    assert current_frontiers is not None
    shrunk = True
    while shrunk and len(current) > 1:
        shrunk = False
        for drop in current:
            candidate = tuple(t for t in current if t != drop)
            candidate_query = induced_subquery(query, candidate)
            frontiers = _frontiers_disagree(candidate_query, settings, resolved)
            if frontiers is not None:
                current = candidate
                current_query = candidate_query
                current_frontiers = frontiers
                shrunk = True
                break
    return current, current_query, current_frontiers


def assert_equivalent_frontiers(
    query: Query,
    settings: OptimizerSettings | None = None,
    backends: Sequence[BackendSpec] = DEFAULT_BACKENDS,
    minimize: bool = True,
) -> dict[str, FrontierSignature]:
    """Assert every backend produces the same Pareto frontier for ``query``.

    Returns the (identical) frontiers by backend name on success.  On
    divergence raises :class:`FrontierMismatch`; with ``minimize`` (the
    default) the mismatch carries a 1-minimal offending table subset found
    by re-running the backends on induced sub-queries.
    """
    if settings is None:
        settings = OptimizerSettings()
    if len(backends) < 2:
        raise ValueError("need at least two backends to compare")
    resolved = [_resolve(spec) for spec in backends]
    names = [name for name, _runner in resolved]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate backend names in {names}")
    frontiers = _frontiers_disagree(query, settings, resolved)
    if frontiers is None:
        reference = frontier(query, settings, backends[0])
        return {name: reference for name in names}
    if minimize:
        tables, minimal_query, minimal_frontiers = _shrink(
            query, settings, resolved
        )
    else:
        tables = tuple(range(query.n_tables))
        minimal_query, minimal_frontiers = query, frontiers
    raise FrontierMismatch(
        query, settings, frontiers, tables, minimal_query, minimal_frontiers
    )


# ------------------------------------------------------------------ the oracle


#: Objective vectors the random oracle cycles through (1, 2, and 3 metrics).
ORACLE_OBJECTIVE_SETS: tuple[tuple[Objective, ...], ...] = (
    (Objective.EXECUTION_TIME,),
    (Objective.EXECUTION_TIME, Objective.BUFFER_SPACE),
    (
        Objective.EXECUTION_TIME,
        Objective.BUFFER_SPACE,
        Objective.OUTPUT_ROWS,
    ),
)

#: Query-class features a sweep can cycle through.  ``plain`` is classical
#: optimization under the cycled objective sets; ``orders`` switches on
#: interesting-order tracking (over clustered tables, so sorted scans
#: exist); ``parametric`` optimizes the one-parameter cost function over
#: :data:`~repro.config.PARAMETRIC_OBJECTIVES` (the objective-set dimension
#: is fixed by definition there).
ORACLE_FEATURES: tuple[str, ...] = ("plain", "orders", "parametric")


@dataclass
class OracleOutcome:
    """What a random differential sweep observed."""

    cases_run: int = 0
    #: One entry per disagreeing case (empty means full agreement).
    failures: list[FrontierMismatch] = field(default_factory=list)
    #: Human-readable description of each case run (query name + settings).
    case_log: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        """Whether every case agreed across all backends."""
        return not self.failures


def run_differential_oracle(
    n_queries: int = 200,
    seed: int = 0,
    table_range: tuple[int, int] = (3, 5),
    kinds: Sequence[JoinGraphKind] = tuple(JoinGraphKind),
    objective_sets: Sequence[tuple[Objective, ...]] = ORACLE_OBJECTIVE_SETS,
    plan_spaces: Sequence[PlanSpace] = (PlanSpace.LINEAR, PlanSpace.BUSHY),
    backends: Sequence[BackendSpec] = DEFAULT_BACKENDS,
    features: Sequence[str] = ("plain",),
    fail_fast: bool = False,
) -> OracleOutcome:
    """Sweep seeded random queries through :func:`assert_equivalent_frontiers`.

    Query shapes cycle deterministically through ``kinds`` × sizes ×
    ``objective_sets`` × ``plan_spaces`` × ``features`` (seeded by
    ``seed``), so a failing case reproduces from the same arguments.  Sizes
    respect :data:`EXHAUSTIVE_MAX_TABLES` whenever the exhaustive backend is
    in the comparison set.  ``features`` selects query classes from
    :data:`ORACLE_FEATURES` — ``orders`` cases generate clustered tables so
    sorted scans participate, and ``parametric`` cases fix the objective
    vector to :data:`~repro.config.PARAMETRIC_OBJECTIVES`.
    """
    rng = random.Random(seed)
    low, high = table_range
    if low > high:
        raise ValueError(f"table_range low {low} exceeds high {high}")
    for feature in features:
        if feature not in ORACLE_FEATURES:
            raise ValueError(
                f"unknown feature {feature!r}; known: {list(ORACLE_FEATURES)}"
            )
    include_exhaustive = "exhaustive" in backends
    if include_exhaustive:
        for plan_space in plan_spaces:
            limit = EXHAUSTIVE_MAX_TABLES[plan_space]
            if low > limit:
                raise ValueError(
                    f"table_range low bound {low} exceeds the exhaustive "
                    f"backend's cap of {limit} tables for the "
                    f"{plan_space} space; lower the bound or drop "
                    "'exhaustive' from backends"
                )
    outcome = OracleOutcome()
    for index in range(n_queries):
        # Mixed-radix counter over (kind, objectives, plan space, feature):
        # every len(kinds)·len(objective_sets)·len(plan_spaces)·len(features)
        # consecutive cases cover the full cross product — no pair of
        # dimensions can lock in phase the way parallel modular counters
        # would.
        kind = kinds[index % len(kinds)]
        objectives = objective_sets[(index // len(kinds)) % len(objective_sets)]
        plan_space = plan_spaces[
            (index // (len(kinds) * len(objective_sets))) % len(plan_spaces)
        ]
        feature = features[
            (index // (len(kinds) * len(objective_sets) * len(plan_spaces)))
            % len(features)
        ]
        cap = high
        if include_exhaustive:
            cap = min(cap, EXHAUSTIVE_MAX_TABLES[plan_space])
        n_tables = rng.randint(low, max(low, cap))
        if feature == "orders":
            settings = OptimizerSettings(
                plan_space=plan_space,
                objectives=objectives,
                consider_orders=True,
            )
        elif feature == "parametric":
            settings = OptimizerSettings(
                plan_space=plan_space,
                objectives=PARAMETRIC_OBJECTIVES,
                parametric=True,
            )
        else:
            settings = OptimizerSettings(
                plan_space=plan_space, objectives=objectives
            )
        query = SteinbrunnGenerator(
            seed=rng.randrange(1 << 30),
            clustered_tables=feature == "orders",
        ).query(n_tables, kind, name=f"oracle-{index}-{kind.value}-{n_tables}")
        outcome.case_log.append(
            f"{query.name}: space={plan_space.value} "
            f"objectives={[o.value for o in settings.objectives]} "
            f"feature={feature}"
        )
        try:
            assert_equivalent_frontiers(query, settings, backends)
        except FrontierMismatch as mismatch:
            outcome.failures.append(mismatch)
            if fail_fast:
                outcome.cases_run = index + 1
                raise
        outcome.cases_run = index + 1
    return outcome
