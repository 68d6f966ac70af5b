"""Small shared utilities (bitmask table sets, deterministic RNG helpers)."""

from repro.util.bitset import (
    bit,
    bits,
    iter_subsets,
    iter_proper_nonempty_subsets,
    mask_of,
    popcount,
)

__all__ = [
    "bit",
    "bits",
    "iter_subsets",
    "iter_proper_nonempty_subsets",
    "mask_of",
    "popcount",
]
