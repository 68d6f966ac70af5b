"""Where does one DP case's time go?  ``cProfile`` of a spine-style case.

Builds the case exactly as ``benchmarks/spine/schedules.dp_cases`` does
(``CATALOGUE_SEED``, clustered tables, ``CLASS_SETTINGS``), runs one
partition of it once warm and once under ``cProfile``, and prints the top
rows by ``tottime`` — the measurement perf issues on the DP cores are
chosen from — under a header with the unprofiled wall time, the splits and
plans considered, ns per plan considered and the accepted share
(``plans_kept / plans_considered``: how much the accept path weighs
against the reject path).

``--phases`` replaces the ``cProfile`` table, which cannot see inside a
kernel that is one function body of numpy calls, by ms per phase of the
vecdp cores, clocked from outside with ``perf_counter_ns`` wrappers around
``_levels``, ``_prefill``, ``_Splits.__init__``, ``_Splits.blocks`` (the
time spent *inside* the generator) and plan materialisation; what is left
of the run is costing + reduction.  ``--by-level`` splits split generation
and that remainder per DP level.

    python tools/dp_profile.py --class plain_bushy --tables 12 --kind chain
        [--partition i/p] [--top 15] [--phases [--by-level]]
"""

import argparse
import contextlib
import cProfile
import functools
import gc
import pstats
import sys
import time
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks" / "spine")]

import schedules  # noqa: E402  (benchmarks/spine, path set above)
from repro.core import vecdp  # noqa: E402
from repro.core.worker import optimize_partition  # noqa: E402
from repro.query.query import JoinGraphKind  # noqa: E402

SPLIT_GEN, BUILD, REST = "_Splits.blocks", "plan build", "costing + reduction"


def phase_profile(run):
    """Run ``run`` with vecdp's phase functions wrapped in ``perf_counter_ns``.

    Returns ``(wall ns, {phase: ns}, {level: [masks, blocks, split-gen ns,
    level wall ns]})``.  The wrappers replace module and class attributes for
    the duration of the call, so nothing is clocked inside a phase and the
    sweep itself runs unobserved (a ``sys.setprofile`` / ``settrace`` hook
    costs 12–30 % on a block-heavy bushy case).  ``blocks`` is clocked
    around each ``next``; plan materialisation, a closure in the frontier
    DP, runs from the first ``JoinPlan`` either kernel constructs to the
    end of the run.
    """
    clock = time.perf_counter_ns
    phases = dict.fromkeys(("_levels", "_prefill", "_Splits.__init__", SPLIT_GEN, BUILD), 0)
    levels: dict[int, list[int]] = {}
    build_started: list[int] = []  # when either kernel constructed its first JoinPlan

    def clocked(name, function):
        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            started = clock()
            try:
                return function(*args, **kwargs)
            finally:
                phases[name] += clock() - started
        return wrapper

    def blocks(self, masks, size):
        level = levels[size] = [len(masks), 0, 0, clock()]
        generator = original_blocks(self, masks, size)
        while True:
            started = clock()
            block = next(generator, None)
            level[2] += clock() - started
            if block is None:
                return
            level[1] += 1
            yield block

    def join_plan(*args, **kwargs):
        if not build_started:
            build_started.append(clock())
        return original_join_plan(*args, **kwargs)

    original_blocks, original_join_plan = vecdp._Splits.blocks, vecdp.JoinPlan
    patches = [
        (vecdp, "_levels", clocked("_levels", vecdp._levels)),
        (vecdp, "_prefill", clocked("_prefill", vecdp._prefill)),
        (vecdp._Splits, "__init__", clocked("_Splits.__init__", vecdp._Splits.__init__)),
        (vecdp._Splits, "blocks", blocks),
        (vecdp, "JoinPlan", join_plan),
    ]
    with contextlib.ExitStack() as stack:
        for owner, name, wrapper in patches:
            stack.enter_context(mock.patch.object(owner, name, wrapper))
        started = clock()
        run()
        ended = clock()
    # Plan materialisation is a kernel's last act: what follows its return
    # (two stats fields, the result object) is microseconds.
    build_started.append(ended)
    phases[SPLIT_GEN] = sum(level[2] for level in levels.values())
    phases[BUILD] = ended - build_started[0]
    by_size = [level for _, level in sorted(levels.items())]
    for level, left in zip(by_size, [level[3] for level in by_size[1:]] + build_started[:1]):
        level[3] = left - level[3]
    return ended - started, phases, levels


def print_phases(wall, phases, levels, by_level: bool) -> None:
    phases = {**phases, REST: wall - sum(phases.values())}
    print(f"{'phase':<22}{'ms':>9}{'%':>7}")
    for name, spent in phases.items():
        print(f"{name:<22}{spent / 1e6:9.2f}{100 * spent / wall:7.1f}")
    print(f"{'total':<22}{wall / 1e6:9.2f}")
    if by_level:
        print(f"\n{'level':>5}{'masks':>8}{'blocks':>8}{SPLIT_GEN + ' ms':>18}{REST + ' ms':>24}")
        for size, (masks, blocks, split_gen, level_wall) in sorted(levels.items()):
            print(f"{size:5d}{masks:8d}{blocks:8d}{split_gen / 1e6:18.2f}"
                  f"{(level_wall - split_gen) / 1e6:24.2f}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--class", dest="kernel", default="plain_bushy",
                        choices=sorted(schedules.CLASS_SETTINGS))
    parser.add_argument("--tables", type=int, default=12)
    parser.add_argument("--kind", default="chain",
                        choices=[kind.value for kind in JoinGraphKind])
    parser.add_argument("--partition", default="0/1", metavar="i/p")
    parser.add_argument("--top", type=int, default=15)
    parser.add_argument("--phases", action="store_true",
                        help="ms per vecdp phase instead of the cProfile table")
    parser.add_argument("--by-level", action="store_true",
                        help="with --phases: split generation and the rest per DP level")
    args = parser.parse_args()
    shape = (args.tables, JoinGraphKind(args.kind))
    case = schedules.dp_cases(0, {args.kernel: (shape,)})[0]
    partition_id, n_partitions = map(int, args.partition.split("/"))
    run = functools.partial(
        optimize_partition, case.query, partition_id, n_partitions, case.settings
    )
    run()  # warm: imports, numpy, estimator memos
    gc.collect()
    gc.disable()  # as the spine does inside its rounds: a full collection is ≈ 4 ms
    started = time.perf_counter()
    stats = run().stats
    wall_ms = (time.perf_counter() - started) * 1e3
    print(f"{case.query.name} partition {args.partition} on {stats.backend_used}: "
          f"{wall_ms:.1f} ms unprofiled, {stats.splits_considered} splits, "
          f"{stats.plans_considered} plans considered "
          f"({wall_ms * 1e6 / max(stats.plans_considered, 1):.0f} ns per plan considered, "
          f"{100 * stats.plans_kept / max(stats.plans_considered, 1):.0f} % accepted)")
    if args.phases:
        if stats.backend_used != "vecdp":
            print("--phases clocks the vecdp cores; this class runs on " + stats.backend_used)
            return 2
        print_phases(*phase_profile(run), args.by_level)
        return 0
    profile = cProfile.Profile()
    profile.runcall(run)
    pstats.Stats(profile).sort_stats("tottime").print_stats(args.top)
    return 0


if __name__ == "__main__":
    sys.exit(main())
