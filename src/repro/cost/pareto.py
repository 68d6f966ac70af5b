"""Pareto dominance and approximate dominance on cost vectors.

Multi-objective query optimization compares plans by dominance: a plan is
Pareto-optimal if no other plan is at least as good in every metric.  The
paper's multi-objective experiments use the α-approximation scheme of
Trummer & Koch (SIGMOD 2014): a stored plan *α-dominates* a candidate if its
cost vector is within factor α of the candidate's in every component —
pruning with α > 1 keeps a smaller frontier while guaranteeing that some kept
plan is within factor α of every possible plan.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence


def dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """Exact Pareto dominance: ``a`` at least as good as ``b`` everywhere.

    Equal vectors dominate each other; callers that must keep one of two
    equal-cost plans break the tie by insertion order.
    """
    if len(a) != len(b):
        raise ValueError("cost vectors must have equal length")
    return all(x <= y for x, y in zip(a, b))


def alpha_dominates(a: Sequence[float], b: Sequence[float], alpha: float) -> bool:
    """Approximate dominance: ``a <= alpha * b`` component-wise.

    With ``alpha == 1`` this is exact dominance.  Note the relation is not
    transitive for α > 1, which is why pruning only ever compares candidates
    against *kept* plans.
    """
    if alpha < 1.0:
        raise ValueError(f"alpha must be >= 1.0, got {alpha}")
    if len(a) != len(b):
        raise ValueError("cost vectors must have equal length")
    return all(x <= alpha * y for x, y in zip(a, b))


def pareto_filter(vectors: Iterable[Sequence[float]]) -> list[tuple[float, ...]]:
    """Return the exact Pareto frontier of the given cost vectors.

    Duplicates collapse to a single representative.  Quadratic in the number
    of vectors; intended for result assembly and tests, not the DP inner
    loop (which uses incremental insertion in ``repro.cost.pruning``).
    """
    frontier: list[tuple[float, ...]] = []
    for vector in vectors:
        candidate = tuple(vector)
        if any(dominates(kept, candidate) for kept in frontier):
            continue
        frontier = [kept for kept in frontier if not dominates(candidate, kept)]
        frontier.append(candidate)
    return frontier
