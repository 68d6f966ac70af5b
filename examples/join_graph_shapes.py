"""Join-graph topology barely affects DP optimization time (mini Figure 3).

Because MPQ (like the classical DP it parallelizes) enumerates table sets
regardless of the join graph — cross products are permitted — chain, star,
cycle, and clique queries of the same size cost nearly the same to optimize.

Run:  python examples/join_graph_shapes.py
"""

from __future__ import annotations

import statistics
import time

from repro import OptimizerSettings, SteinbrunnGenerator, optimize_serial
from repro.query.query import JoinGraphKind


def main() -> None:
    settings = OptimizerSettings()
    kinds = (
        JoinGraphKind.CHAIN,
        JoinGraphKind.STAR,
        JoinGraphKind.CYCLE,
        JoinGraphKind.CLIQUE,
    )

    print("DP work is topology-independent (the paper's Figure 3):")
    print(f"{'topology':>9} {'wall_ms':>9} {'splits':>8} {'candidates':>11}")
    splits_seen = set()
    for kind in kinds:
        queries = SteinbrunnGenerator(57).queries(3, 10, kind)
        times, splits, candidates = [], [], []
        for query in queries:
            started = time.perf_counter()
            result = optimize_serial(query, settings)
            times.append((time.perf_counter() - started) * 1e3)
            splits.append(result.stats.splits_considered)
            candidates.append(result.stats.plans_considered)
        print(
            f"{kind.value:>9} {statistics.median(times):>9.1f} "
            f"{splits[0]:>8d} {statistics.median(candidates):>11.0f}"
        )
        splits_seen.add(splits[0])
    assert len(splits_seen) == 1, "split counts depend only on query size"
    print("-> identical split counts for every topology.")


if __name__ == "__main__":
    main()
