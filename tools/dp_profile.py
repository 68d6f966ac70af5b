"""Where does one DP case's time go?  ``cProfile`` of a spine-style case.

Builds the case exactly as ``benchmarks/spine/schedules.dp_cases`` does
(``CATALOGUE_SEED``, clustered tables, ``CLASS_SETTINGS``), runs one
partition of it once warm and once under ``cProfile``, and prints the top
rows by ``tottime`` — the measurement perf issues on the DP cores are
chosen from.

    python tools/dp_profile.py --class plain_bushy --tables 12 --kind chain
        [--partition i/p] [--top 15]
"""

import argparse
import cProfile
import functools
import pstats
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks" / "spine")]

import schedules  # noqa: E402  (benchmarks/spine, path set above)
from repro.core.worker import optimize_partition  # noqa: E402
from repro.query.query import JoinGraphKind  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--class", dest="kernel", default="plain_bushy",
                        choices=sorted(schedules.CLASS_SETTINGS))
    parser.add_argument("--tables", type=int, default=12)
    parser.add_argument("--kind", default="chain",
                        choices=[kind.value for kind in JoinGraphKind])
    parser.add_argument("--partition", default="0/1", metavar="i/p")
    parser.add_argument("--top", type=int, default=15)
    args = parser.parse_args()
    shape = (args.tables, JoinGraphKind(args.kind))
    case = schedules.dp_cases(0, {args.kernel: (shape,)})[0]
    partition_id, n_partitions = map(int, args.partition.split("/"))
    run = functools.partial(
        optimize_partition, case.query, partition_id, n_partitions, case.settings
    )
    run()  # warm: imports, numpy, estimator memos
    started = time.perf_counter()
    stats = run().stats
    wall_ms = (time.perf_counter() - started) * 1e3
    print(f"{case.query.name} partition {args.partition} on {stats.backend_used}: "
          f"{wall_ms:.1f} ms unprofiled, {stats.splits_considered} splits, "
          f"{stats.plans_considered} plans considered")
    profile = cProfile.Profile()
    profile.runcall(run)
    pstats.Stats(profile).sort_stats("tottime").print_stats(args.top)
    return 0


if __name__ == "__main__":
    sys.exit(main())
