"""Per-entry provenance for cached plans, and predicates over it.

A persistent plan cache outlives the code that filled it: the enumeration
backend that produced an entry may have been replaced, the cost model
retuned.  Serving such an entry silently would be wrong in exactly the way
ProvSQL warns about — a cached answer with no record of *how it was
derived* can neither be audited nor selectively retired.  So every cached
entry carries a :class:`Provenance` record stamped at creation, and
invalidation is expressed as an :class:`InvalidationPredicate` over those
records: "everything produced by backend X before time T" removes
precisely the suspect entries and leaves the rest serving, instead of
flushing the whole cache because one backend changed.  A timestamp, unlike
a per-process counter, means the same thing after a restart.

Both types are plain JSON-compatible data so they travel inside disk-tier
records and cache snapshots unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.util.readers import read, read_float, read_int


@dataclass(frozen=True)
class Provenance:
    """How one cached entry came to be.

    ``settings_signature`` is the resolved signature from
    :func:`repro.service.fingerprint.settings_signature` — it embeds what
    ``Backend.AUTO`` resolved to, so an entry is attributable to a concrete
    core even when the request only said "auto".  ``worker_stats`` holds
    the creation run's aggregated :class:`~repro.core.worker.WorkerStats`
    counters (summed over partitions, wall time as the max), which is what
    makes a served-from-cache answer auditable against a fresh run.
    """

    #: Enumeration backend that computed the plans (``"vecdp"`` etc.).
    backend_used: str
    #: Resolved settings signature (see module docstring).
    settings_signature: str
    #: Unix timestamp of entry creation.
    created_at_s: float
    #: Partition count of the creating run.
    n_partitions: int
    #: Aggregated creation WorkerStats counters.
    worker_stats: Mapping[str, float] = field(default_factory=dict)
    #: For an envelope entry: the θ interval the cached frontier covers
    #: (today always the full ``(0.0, 1.0)``; a drift-aware policy can
    #: narrow it).  ``None`` for scalar entries — and omitted on the wire,
    #: so pre-envelope logs and snapshots decode unchanged.
    theta_domain: tuple[float, float] | None = None

    def to_wire(self) -> dict[str, Any]:
        """JSON-compatible encoding (inverse: :meth:`from_wire`)."""
        wire = {
            "backend_used": self.backend_used,
            "settings_signature": self.settings_signature,
            "created_at_s": self.created_at_s,
            "n_partitions": self.n_partitions,
            "worker_stats": dict(self.worker_stats),
        }
        if self.theta_domain is not None:
            wire["theta_domain"] = list(self.theta_domain)
        return wire

    @classmethod
    def from_wire(cls, data: Mapping[str, Any]) -> "Provenance":
        """Rebuild a record from :meth:`to_wire` output.

        Keys this version does not read are ignored: records written by
        older versions also carry a backend-registry generation counter,
        and decode unchanged.
        """
        domain = read(data, "theta_domain", list, None, item=read_float)
        if domain is not None and len(domain) != 2:
            raise ValueError(f"field 'theta_domain' must be [low, high], got {domain!r}")
        return cls(
            backend_used=read(data, "backend_used", str),
            settings_signature=read(data, "settings_signature", str),
            created_at_s=read_float(data, "created_at_s"),
            n_partitions=read_int(data, "n_partitions", low=1),
            worker_stats=dict(read(data, "worker_stats", dict, {})),
            theta_domain=None if domain is None else tuple(domain),
        )


def aggregate_worker_stats(stats_list: list) -> dict[str, float]:
    """Collapse per-partition WorkerStats into one provenance-sized summary.

    Operation counters sum (they are per-partition work); ``wall_time_s``
    takes the max (partitions run in parallel, so the slowest one is the
    run's wall time).  Key names match the ``WorkerStats`` fields so the
    summary reads like one synthetic worker.
    """
    summed = (
        "admissible_results",
        "splits_considered",
        "plans_considered",
        "plans_kept",
        "table_entries",
        "stored_plans",
        "result_plans",
    )
    aggregated: dict[str, float] = {
        name: sum(getattr(stats, name) for stats in stats_list) for name in summed
    }
    aggregated["wall_time_s"] = max(
        (stats.wall_time_s for stats in stats_list), default=0.0
    )
    return aggregated


@dataclass(frozen=True)
class InvalidationPredicate:
    """A conjunction of conditions over :class:`Provenance` records.

    Every supplied condition must hold for an entry to match (``None``
    conditions are skipped); a predicate with *no* conditions matches every
    entry — the explicit "flush everything" spelling.  An entry without a
    provenance record (hand-built, or written by a pre-provenance cache)
    matches only the match-everything predicate: conditional invalidation
    refuses to guess about entries it cannot attribute.
    """

    #: Match entries produced by this backend (``"fastdp"``/``"legacy"``).
    backend: str | None = None
    #: Match entries created before this Unix timestamp.
    created_before_s: float | None = None
    #: Match entries whose resolved settings signature equals this.
    settings_signature: str | None = None

    @property
    def matches_everything(self) -> bool:
        """Whether this is the unconditional (flush-all) predicate."""
        return (
            self.backend is None
            and self.created_before_s is None
            and self.settings_signature is None
        )

    def matches(self, provenance: Provenance | None) -> bool:
        """Whether an entry with this provenance should be invalidated."""
        if self.matches_everything:
            return True
        if provenance is None:
            return False
        if self.backend is not None and provenance.backend_used != self.backend:
            return False
        if (
            self.created_before_s is not None
            and provenance.created_at_s >= self.created_before_s
        ):
            return False
        if (
            self.settings_signature is not None
            and provenance.settings_signature != self.settings_signature
        ):
            return False
        return True
