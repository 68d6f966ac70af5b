"""Lower-envelope computations for parametric query optimization.

A plan with (additive) cost vector ``(a, b)`` has scalarized cost
``f(θ) = (1-θ)·a + θ·b = a + θ·(b - a)`` — a line over the parameter
θ ∈ [0, 1].  The plans worth keeping are exactly those appearing on the
*lower envelope* of these lines: optimal for at least one θ.  The envelope
is a minimum of linear functions, so a candidate is needed iff it dips
strictly below the incumbent envelope at an endpoint or at a pairwise
crossing of lines — a finite, exact test.
"""

from __future__ import annotations

from collections.abc import Sequence
from math import inf


def _tolerance(value: float) -> float:
    """Absolute comparison slack scaled to the magnitude at hand."""
    return 1e-9 * max(1.0, abs(value))


def scalarize(cost: Sequence[float], theta: float) -> float:
    """Scalarized cost ``(1-θ)·cost[0] + θ·cost[1]``."""
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"theta must be in [0, 1], got {theta}")
    return (1.0 - theta) * cost[0] + theta * cost[1]


def _line_intersections(costs: Sequence[Sequence[float]]) -> list[float]:
    """θ values in (0, 1) where two of the cost lines cross."""
    thetas = []
    for i in range(len(costs)):
        slope_i = costs[i][1] - costs[i][0]
        for j in range(i + 1, len(costs)):
            slope_j = costs[j][1] - costs[j][0]
            denominator = slope_i - slope_j
            if denominator == 0.0:
                continue
            theta = (costs[j][0] - costs[i][0]) / denominator
            if 0.0 < theta < 1.0:
                thetas.append(theta)
    return thetas


def candidate_thetas(costs: Sequence[Sequence[float]]) -> list[float]:
    """θ values at which envelope comparisons must be evaluated.

    The minimum of linear functions changes structure only at pairwise
    crossings; adding the endpoints makes the test over [0, 1] exact.
    """
    return [0.0, 1.0, *_line_intersections(costs)]


def needed_on_envelope(
    cost: Sequence[float], others: Sequence[Sequence[float]]
) -> bool:
    """Whether ``cost``'s line dips strictly below the envelope of ``others``.

    With no competitors every plan is needed.  Ties (a line touching but
    never undercutting the envelope) are *not* needed — this deduplicates
    equal-cost plans.
    """
    if not others:
        return True
    for theta in candidate_thetas([cost, *others]):
        own = scalarize(cost, theta)
        best_other = min(scalarize(other, theta) for other in others)
        if own < best_other - _tolerance(best_other):
            return True
    return False


def envelope_filter(costs: Sequence[Sequence[float]]) -> list[int]:
    """Indices of the cost vectors on the lower envelope.

    Incremental construction: a vector joins the survivor set only if it
    dips strictly below the current envelope, and joining may evict
    survivors it renders redundant.  (Near-)duplicates collapse to their
    first occurrence, and the result is never empty for non-empty input.
    """
    survivors: list[int] = []
    for index, cost in enumerate(costs):
        current = [costs[i] for i in survivors]
        if not needed_on_envelope(cost, current):
            continue
        survivors.append(index)
        evicted = True
        while evicted:
            evicted = False
            for position, kept_index in enumerate(survivors):
                others = [
                    costs[i]
                    for j, i in enumerate(survivors)
                    if j != position
                ]
                if others and not needed_on_envelope(costs[kept_index], others):
                    survivors.pop(position)
                    evicted = True
                    break
    return survivors


def switching_points(costs: Sequence[Sequence[float]]) -> list[float]:
    """θ values where the identity of the scalarized optimum changes.

    Input should already be envelope-filtered; returns sorted θ in (0, 1).
    """
    points = []
    for theta in sorted(set(_line_intersections(costs))):
        best = min(scalarize(cost, theta) for cost in costs)
        touching = sum(
            1
            for cost in costs
            if scalarize(cost, theta) <= best + _tolerance(best)
        )
        if touching >= 2:
            points.append(theta)
    return points


def _sweep(lines: Sequence[Sequence[float]]) -> tuple[int | None, list[tuple]]:
    """Every line of ``lines`` tested against all the others in one pass.

    ``needed_on_envelope(lines[p], lines without p)`` evaluates, for every
    ``p``, the same θ — the endpoints and *all* pairwise crossings, a pair's
    crossing being one float whichever of the two is listed first.  At one
    θ only the strictly lowest line can undercut the rest, and what it has
    to undercut is the runner-up, so one minimum / runner-up scan per θ
    answers the question for every ``p`` at once.  Returns the first
    position that is not needed (``None`` if all are, or the line is alone)
    and per θ the triple ``(1-θ, θ, minimum)`` a further line is tested
    against.
    """
    needed = [len(lines) == 1] * len(lines)
    minima = []
    for theta in candidate_thetas(lines):
        rest = 1.0 - theta
        best = runner_up = inf
        owner = 0
        for position, (at_zero, at_one) in enumerate(lines):
            value = rest * at_zero + theta * at_one
            if value < best:
                runner_up, best, owner = best, value, position
            elif value < runner_up:
                runner_up = value
        if not needed[owner]:  # the slack is _tolerance, inlined (hot)
            needed[owner] = best < runner_up - 1e-9 * max(1.0, abs(runner_up))
        minima.append((rest, theta, best))
    return (needed.index(False) if False in needed else None), minima


class IncrementalEnvelope:
    """The parametric frontier policy: one table set's envelope, kept
    insert by insert.

    :meth:`offer` makes the decisions of
    :meth:`repro.cost.pruning.ParametricPruning.consider` — which stays the
    specification and rebuilds the envelope through
    :func:`envelope_filter` on every accept — and leaves ``lines`` /
    ``payloads`` equal to the entry that would hold, order included.  Every
    float expression is the reference's; what changes is how often each is
    evaluated:

    * **the stored prefix is not re-derived.**  ``envelope_filter`` replays
      the kept lines before it reaches the new one.  While that replay is
      the identity (``_replays``) its outcome is known: the new line is
      appended and only the eviction loop it triggers — first unneeded
      position, then restart — has to run, one :func:`_sweep` per restart.
      Appending without an eviction extends an identity replay by exactly
      the two checks just made, so the flag survives for free.  After an
      eviction the shorter list has never been replayed.  In exact
      arithmetic a line needed against a set is needed against every
      subset, but with the test taken at finitely many θ and
      ``max(1.0, ·)`` in the slack a near-tie can break that (random
      near-tie sequences do produce such lists), so the list's proper
      prefixes are replayed once, through a scratch instance (the last
      step of the replay is the sweep just made); should that not be the
      identity, accepts go through the literal filter until a replay is
      the identity again.
    * **a candidate is tested against cached minima** at θ = 0, 1 and the
      crossings among the kept lines (``_minima``, left by the last sweep).
      The reference also evaluates the candidate's own crossing with each
      kept line.  There the two agree up to rounding, which exceeds the
      1e-9 slack only when a line's endpoints differ by ~1e6× and the
      crossing sits within ~1e-7 of θ = 0 or 1 — rare, not impossible — so
      those θ are evaluated too, last: nearly every needed line has
      already shown it at a cached θ.
    * the θ-endpoint dominance short-circuit comes first: a kept line no
      higher at both ends is no higher anywhere, in floats too.

    Costs are assumed finite.
    """

    __slots__ = ("lines", "payloads", "_minima", "_replays")

    def __init__(self) -> None:
        self.lines: list[Sequence[float]] = []
        self.payloads: list[object] = []
        self._minima: list[tuple] = []
        self._replays = True

    def _needed(self, at_zero: float, at_one: float) -> bool:
        """``needed_on_envelope((at_zero, at_one), self.lines)``."""
        for rest, theta, best in self._minima:
            if rest * at_zero + theta * at_one < best - 1e-9 * max(1.0, abs(best)):
                return True
        slope = at_one - at_zero
        for kept_zero, kept_one in self.lines:
            denominator = slope - (kept_one - kept_zero)
            if denominator == 0.0:
                continue
            theta = (kept_zero - at_zero) / denominator
            if 0.0 < theta < 1.0:
                rest = 1.0 - theta
                best = min(rest * a + theta * b for a, b in self.lines)
                if rest * at_zero + theta * at_one < best - _tolerance(best):
                    return True
        return False

    def offer(self, cost: Sequence[float], payload: object = None) -> bool:
        """Consider one more line; ``True`` iff it is on the envelope after."""
        at_zero, at_one = cost
        lines, payloads = self.lines, self.payloads
        for kept_zero, kept_one in lines:
            if kept_zero <= at_zero and kept_one <= at_one:
                return False
        if lines and not self._needed(at_zero, at_one):
            return False
        lines.append(cost)
        payloads.append(payload)
        reverify = not self._replays
        if reverify:
            keep = envelope_filter(lines)
            lines[:] = [lines[index] for index in keep]
            payloads[:] = [payloads[index] for index in keep]
        unneeded, self._minima = _sweep(lines)
        while unneeded is not None:
            reverify = True
            del lines[unneeded], payloads[unneeded]
            unneeded, self._minima = _sweep(lines)
        if reverify:
            prefix = lines[:-1] if len(lines) > 2 else []
            scratch = IncrementalEnvelope()
            for line in prefix:
                scratch.offer(line)
            self._replays = scratch.lines == prefix
        return lines[-1] is cost
