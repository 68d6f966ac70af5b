"""Bitmask helpers for table sets.

Throughout the library, a *table set* (a subset of the query's tables) is
represented as a Python ``int`` used as a bitmask: bit ``i`` is set iff table
number ``i`` is a member.  This matches the paper's convention of numbering
query tables consecutively from ``0`` to ``|Q| - 1`` and keeps the dynamic
programming memotable compact and hashable.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator


def bit(index: int) -> int:
    """Return the bitmask containing exactly table ``index``."""
    return 1 << index


def mask_of(indices: Iterable[int]) -> int:
    """Return the bitmask containing every table index in ``indices``."""
    mask = 0
    for index in indices:
        mask |= 1 << index
    return mask


def popcount(mask: int) -> int:
    """Return the number of tables in the set ``mask``."""
    return mask.bit_count()


def bits(mask: int) -> Iterator[int]:
    """Yield the table indices contained in ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def iter_subsets(mask: int) -> Iterator[int]:
    """Yield every subset of ``mask`` including the empty set and ``mask``.

    Uses the standard ``sub = (sub - 1) & mask`` enumeration which visits each
    of the ``2**popcount(mask)`` subsets exactly once.
    """
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def iter_proper_nonempty_subsets(mask: int) -> Iterator[int]:
    """Yield every subset of ``mask`` except the empty set and ``mask`` itself.

    These are exactly the candidate left operands when splitting a join
    result ``mask`` into two non-empty operands.
    """
    sub = (mask - 1) & mask
    while sub:
        yield sub
        sub = (sub - 1) & mask
