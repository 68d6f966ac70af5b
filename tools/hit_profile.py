"""Where does one cache hit's time go?  Median µs per stage of the hit path.

Builds the spine's shape pool (``benchmarks/spine/schedules.shape_pool``),
fills an ``OptimizerService`` with one parametric envelope per shape, then
walks ``--requests`` θ-bound requests through the stages of a hit by hand —
once with the pool's own (memoised) query objects, once with a never-seen
relabelling of each — and through the door (``service.optimize``) itself:
the measurement perf issues on the serving hit path are chosen from.

    python tools/hit_profile.py [--requests 2000] [--tables 5 6 7 8]
"""

import argparse
import random
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks" / "spine")]

import schedules  # noqa: E402  (benchmarks/spine, path set above)
from repro.service.fingerprint import canonicalize, fingerprint_canonical  # noqa: E402
from repro.service.service import OptimizerService, relabel  # noqa: E402


def timed(sink: list[float], call, *args):
    started = time.perf_counter_ns()
    result = call(*args)
    sink.append((time.perf_counter_ns() - started) / 1e3)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--requests", type=int, default=2000)
    parser.add_argument("--tables", type=int, nargs="+", default=list(schedules.SERVING_TABLES))
    args = parser.parse_args()
    pool = schedules.shape_pool(0, 32, tuple(args.tables))
    settings = schedules.CLASS_SETTINGS["parametric"][0].replace(theta=0.5)
    rng = random.Random(0)

    def fresh(query):
        return schedules.permute_query(query, schedules.shuffled(query.n_tables, rng))

    columns = {"memoised": lambda query: query, "fresh relabelling": fresh}
    samples = {column: defaultdict(list) for column in columns}
    with OptimizerService(n_workers=1, settings=settings) as service:
        for query in pool:
            service.optimize(query)
        for index in range(args.requests):
            for column, request in columns.items():
                query, us = request(pool[index % len(pool)]), samples[column]
                canonical = timed(us["canonicalize"], canonicalize, query)
                key = timed(us["fingerprint_canonical"], fingerprint_canonical, canonical, settings, 1)
                entry = timed(us["cache get"], service.cache.get, key)
                chosen = timed(us["select_index"], entry.select_index, settings.theta)
                timed(us["relabel"], relabel, [entry.canonical_plans[chosen]], canonical.numbering)
                # The door gets its own request: the one above is memoised by now.
                served = timed(us["door total"], service.optimize, request(query))
                assert served.cached, "the fill above covers every shape"
    print(f"{args.requests} requests over {len(pool)} shapes of {args.tables} tables, median us")
    print(f"{'stage':24s}" + "".join(f"{column:>20s}" for column in samples))
    for stage in samples["memoised"]:
        print(f"{stage:24s}" + "".join(f"{statistics.median(samples[column][stage]):20.1f}" for column in samples))
    return 0


if __name__ == "__main__":
    sys.exit(main())
