"""Breakpoint index over a parametric lower-envelope frontier.

A parametric DP run (:mod:`repro.algorithms.pqo`) returns the *lower
envelope*: one plan optimal for every θ ∈ [0, 1] of the scalarized cost
``(1-θ)·cost[0] + θ·cost[1]``.  The serving layer caches that whole
frontier once per query shape and answers each θ-specific request by
lookup instead of re-optimizing.  This module is the lookup structure:

* :func:`build_envelope_index` extracts the sorted switching θs
  (breakpoints) and the owning plan per segment from a frontier, once, at
  materialization time;
* :meth:`EnvelopeIndex.select` binds a concrete θ in O(log n): bisect the
  breakpoint list to a segment, then compare the segment owner against its
  neighbors under the exact selection rule (the neighbors matter only when
  θ lands on — or within float slack of — a breakpoint).

**Determinism / bit-identity contract.**  θ-binding must pick the *same*
plan no matter where it happens — on a fresh result, on a cached entry in
canonical numbering, on a relabeled result after a network hop — or a
cached answer would not be bit-identical to per-θ optimization.  The
selection key is therefore :func:`theta_selection_key` =
``(scalarized cost, full cost vector)``, which never reads table numbers:
plan costs are invariant under relabeling, and envelope filtering
(:func:`repro.cost.parametric.envelope_filter`) already collapsed
equal-cost duplicates, so the key is decisive wherever cost vectors are
distinct; in the residual duplicate-cost case the *first* plan in frontier
order wins, and frontier order is preserved by remapping and by every wire
codec.  The index stores plan *positions* in that order, so a serialized
index keeps meaning the same plans after a JSON round trip.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Any, Sequence

from repro.cost.parametric import scalarize, switching_points
from repro.plans.plan import Plan
from repro.util.readers import read, read_float, read_int

#: The full parameter domain a cached envelope covers.  Recorded in entry
#: provenance; a future drift-invalidation policy can narrow it.
FULL_THETA_DOMAIN: tuple[float, float] = (0.0, 1.0)


def theta_selection_key(cost: Sequence[float], theta: float) -> tuple:
    """The numbering-invariant ordering key for θ-binding (see module doc)."""
    return (scalarize(cost, theta), tuple(cost))


def best_index_at(costs: Sequence[Sequence[float]], theta: float) -> int:
    """Reference rule: position of the θ-optimal cost vector, linear scan.

    ``min`` is stable, so duplicate-cost ties resolve to the first frontier
    position — exactly what :meth:`EnvelopeIndex.select` reproduces.
    """
    if not costs:
        raise ValueError("cannot bind theta over an empty frontier")
    return min(
        range(len(costs)), key=lambda i: theta_selection_key(costs[i], theta)
    )


@dataclass(frozen=True)
class EnvelopeIndex:
    """Sorted breakpoints plus the owning frontier position per segment.

    ``breakpoints`` are the switching θs in (0, 1); ``segments`` has one
    entry per gap between consecutive breakpoints (``len(breakpoints)+1``
    entries), each the index into the frontier's plan list of the plan
    optimal on that open segment.  All values are finite, so the structure
    survives strict JSON bit-identically.
    """

    breakpoints: tuple[float, ...]
    segments: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.segments) != len(self.breakpoints) + 1:
            raise ValueError(
                f"need {len(self.breakpoints) + 1} segment owners for "
                f"{len(self.breakpoints)} breakpoints, got {len(self.segments)}"
            )
        if any(not 0.0 < point < 1.0 for point in self.breakpoints):
            raise ValueError(f"breakpoints must lie in (0, 1): {self.breakpoints}")
        if list(self.breakpoints) != sorted(self.breakpoints):
            raise ValueError(f"breakpoints must be sorted: {self.breakpoints}")

    def select(self, costs: Sequence[Sequence[float]], theta: float) -> int:
        """Position of the θ-optimal plan in ``costs`` — O(log breakpoints).

        Bisecting alone is exact strictly inside a segment; at (or within
        float slack of) a breakpoint two owners tie, so the adjacent
        segments' owners join the candidate set and the selection key
        breaks the tie the same way the linear reference rule does.
        Equal keys fall to the lower position, preserving the stable-``min``
        first-position tiebreak.
        """
        segment = bisect_right(self.breakpoints, theta)
        return min(
            (theta_selection_key(costs[i], theta), i)
            for i in self.segments[max(segment - 1, 0) : segment + 2]
        )[1]

    # ------------------------------------------------------------------ wire

    def to_wire(self) -> dict[str, Any]:
        """JSON-compatible encoding (all values finite; inverse below).

        Breakpoints ship as-is rather than being recomputed on the far
        side: ``json.dumps``/``loads`` round-trips finite floats exactly
        (shortest-repr), so both ends of a wire hop bind every θ to the
        same segment.
        """
        return {
            "breakpoints": list(self.breakpoints),
            "segments": list(self.segments),
        }

    @classmethod
    def from_wire(cls, data: dict[str, Any]) -> "EnvelopeIndex":
        """Rebuild an index from :meth:`to_wire` output."""
        points = tuple(read(data, "breakpoints", list, item=read_float))
        return cls(points, tuple(read(data, "segments", list, item=read_int)))


def build_envelope_index(plans: Sequence[Plan]) -> EnvelopeIndex:
    """Extract the breakpoint index from an envelope-filtered frontier.

    Breakpoints are the θs where the scalarized optimum changes identity
    (:func:`repro.cost.parametric.switching_points`); each segment's owner
    is the reference rule evaluated at the segment midpoint, which is exact
    because the optimum's identity is constant on the open segment.
    """
    if not plans:
        raise ValueError("cannot index an empty frontier")
    costs = [plan.cost for plan in plans]
    points = switching_points(costs)
    bounds = [0.0, *points, 1.0]
    segments = tuple(
        best_index_at(costs, (low + high) / 2.0)
        for low, high in zip(bounds, bounds[1:])
    )
    return EnvelopeIndex(breakpoints=tuple(points), segments=segments)
