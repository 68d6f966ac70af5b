"""Where does one cache hit's time go?  Median µs per stage of the hit path.

Builds the spine's shape pool (``benchmarks/spine/schedules.shape_pool``),
fills an ``OptimizerService`` with one parametric envelope per shape, then
walks ``--requests`` θ-bound requests through the stages of a hit by hand —
once with the pool's own (memoised) query objects, once with a never-seen
relabelling of each — and through the door (``service.optimize``) itself:
the measurement perf issues on the serving hit path are chosen from.

A third column, ``decoded relabelling``, sends each fresh relabelling
through a JSON round trip first (``query_from_dict(query_to_dict(query))``),
which builds new Table objects as a JSON client's request does: they carry
no cached hash or signature text, so its ``canonicalize`` is the search
where those caches cannot help.

``service.answer`` is timed twice per request, on an entry whose render
memo was just cleared: a first render (the relabel) and a repeat in the
same numbering (the memo hit).  The repeat leaves the memo holding the
requester's numbering, so a memoised request's door total is a memo hit
too, and a fresh relabelling's door total is a render.

The network client's two hit stages ride along: ``json.loads`` of the
canonical reply bytes a shard memoises per entry (made once per shape, as the
shard server makes them) and ``result_from_wire`` into the requester's
numbering.

    python tools/hit_profile.py [--requests 2000] [--tables 5 6 7 8]
"""

import argparse
import json
import random
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks" / "spine")]

import schedules  # noqa: E402  (benchmarks/spine, path set above)
from repro.cluster.network import encode_body  # noqa: E402
from repro.query.io import query_from_dict, query_to_dict  # noqa: E402
from repro.service.fingerprint import canonicalize, fingerprint_canonical  # noqa: E402
from repro.service.net import result_from_wire, result_to_wire  # noqa: E402
from repro.service.remap import invert  # noqa: E402
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

    def decoded(query):
        return query_from_dict(query_to_dict(fresh(query)))

    columns = {"memoised": lambda query: query, "fresh relabelling": fresh, "decoded relabelling": decoded}
    samples = {column: defaultdict(list) for column in columns}
    replies = {}  # key -> the canonical reply bytes a shard memoises
    with OptimizerService(n_workers=1, settings=settings) as service:
        for query in pool:
            service.optimize(query)
            key = fingerprint_canonical(canonicalize(query), settings, 1)
            result = service.answer(service.cache.peek(key), None, key, settings.theta)
            result.theta = None  # as the shard does: θ rides beside these bytes
            replies[key] = encode_body(result_to_wire(result))
        for index in range(args.requests):
            for column, request in columns.items():
                query, us = request(pool[index % len(pool)]), samples[column]
                canonical = timed(us["canonicalize"], canonicalize, query)
                key = timed(us["fingerprint_canonical"], fingerprint_canonical, canonical, settings, 1)
                entry = timed(us["cache get"], service.cache.get, key)
                chosen = timed(us["select_index"], entry.select_index, settings.theta)
                timed(us["relabel"], relabel, [entry.canonical_plans[chosen]], canonical.numbering)
                entry.render_memo.clear()
                for stage in ("answer, first render", "answer, repeat (memo)"):
                    timed(us[stage], service.answer, entry, canonical, key, settings.theta)
                reply = timed(us["wire json.loads"], json.loads, replies[key])
                reply["theta"] = settings.theta
                timed(us["wire result_from_wire"], lambda: result_from_wire(reply, invert(canonical.numbering)))
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
