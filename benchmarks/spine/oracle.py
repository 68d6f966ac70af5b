"""The correctness gate: every timed answer is checked back to a reference.

The reference is computed once per unique *shape* (a query up to table
relabelling, under one feature) by in-process ``optimize_serial`` on
``Backend.LEGACY`` — the object-based oracle core, never the backend being
timed.  A relabelled request is the same shape, so its best cost must agree
up to float re-association (1e-9 relative); a θ-bound answer must equal the
``best_index_at`` selection on the reference's θ-free frontier.  Checks run
after a round, outside the timed region.
"""

from __future__ import annotations

import math

from repro.bench.traffic import TrafficRequest, settings_for
from repro.config import Backend, OptimizerSettings
from repro.core.envelope import best_index_at
from repro.core.serial import optimize_serial
from repro.query.query import Query
from repro.service.service import ServiceResult

REL_TOL = 1e-9


def legacy_frontier(query: Query, settings: OptimizerSettings) -> list[tuple]:
    """Cost vectors of the serial frontier on the legacy oracle backend."""
    result = optimize_serial(
        query, settings.without_theta().replace(backend=Backend.LEGACY)
    )
    return [tuple(plan.cost) for plan in result.plans]


def _close(left: tuple, right: tuple) -> bool:
    return len(left) == len(right) and all(
        math.isclose(a, b, rel_tol=REL_TOL) for a, b in zip(left, right)
    )


class Oracle:
    """Reference frontiers by ``(shape name, feature)``, filled lazily."""

    def __init__(self) -> None:
        #: Per shape: the reference frontier and its best first-metric cost.
        self._frontiers: dict[tuple[str, str], tuple[list[tuple], float]] = {}

    def prepare(self, requests: list[TrafficRequest]) -> int:
        """Compute the reference of every shape in ``requests``; returns count."""
        before = len(self._frontiers)
        for request in requests:
            self._frontier(request)
        return len(self._frontiers) - before

    def _frontier(self, request: TrafficRequest) -> tuple[list[tuple], float]:
        key = (request.query.name, request.feature)
        known = self._frontiers.get(key)
        if known is None:
            frontier = legacy_frontier(request.query, settings_for(request.feature))
            known = (frontier, min(cost[0] for cost in frontier))
            self._frontiers[key] = known
        return known

    def verify(self, request: TrafficRequest, result: ServiceResult) -> str | None:
        """``None`` when ``result`` answers ``request`` correctly, else why not."""
        frontier, expected_best = self._frontier(request)
        query = request.query
        if not result.plans:
            return "no plan"
        if any(plan.mask != query.all_tables_mask for plan in result.plans):
            return "plan does not cover the query"
        if request.theta is not None:
            if result.theta != request.theta or len(result.plans) != 1:
                return f"not bound to theta={request.theta}"
            expected = frontier[best_index_at(frontier, request.theta)]
            if not _close(tuple(result.plans[0].cost), expected):
                return (
                    f"theta={request.theta} cost {result.plans[0].cost} "
                    f"!= reference {expected}"
                )
            return None
        if not math.isclose(result.best.cost[0], expected_best, rel_tol=REL_TOL):
            return f"best cost {result.best.cost[0]} != reference {expected_best}"
        return None


def count_failures(
    oracle: Oracle,
    requests: list[TrafficRequest],
    results: list,
    sample: set[int] | None = None,
) -> list[str]:
    """Failure messages of one round: exceptions, refusals, wrong answers.

    ``results[i]`` is a :class:`ServiceResult` or the exception the request
    raised.  With ``sample``, only those positions are checked against the
    reference (others still fail on an exception or an empty answer).
    """
    failures = []
    for index, (request, result) in enumerate(zip(requests, results)):
        if isinstance(result, BaseException):
            failures.append(f"request {index}: {type(result).__name__}: {result}")
            continue
        if sample is not None and index not in sample:
            if not result.plans:
                failures.append(f"request {index}: no plan")
            continue
        problem = oracle.verify(request, result)
        if problem is not None:
            failures.append(f"request {index} ({request.query.name}): {problem}")
    return failures
