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
vecdp cores, clocked from outside with ``perf_counter_ns`` wrappers.
First the fastest of three cold runs, each with an empty skeleton cache:
its total and the skeleton build (levels, bushy half-tables and operand
blocks — what every later query of that shape reuses).  Then a warm run:
``_prefill``, ``_Splits.__init__``, ``_Splits.blocks`` (the time spent
*inside* the generator) and plan materialisation; what is left of the run
is costing + reduction.  ``--by-level`` splits split generation
and that remainder per DP level, beside the level's splits considered and
the operand cells its blocks held: the cells costed.  A bushy level of the
time or io metric costs one split of each mirrored pair, so there the
splits are twice the cells (less the padding).

``--memory`` prints, instead, a warm run's ``tracemalloc`` peak and every
array the vecdp kernel holds, each at its largest over the run — the dense
per-mask state, its ``_Splits``' arrays, the widest level's vectors and the
largest block's temporaries — with bytes per mask of the ``2**n`` state,
then the bytes of the partition's skeleton, which the process keeps across
runs.

    python tools/dp_profile.py --class plain_bushy --tables 12 --kind chain
        [--partition i/p] [--top 15] [--phases [--by-level] | --memory]
"""

import argparse
import collections
import contextlib
import cProfile
import functools
import gc
import pstats
import sys
import time
import tracemalloc
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks" / "spine")]

import schedules  # noqa: E402  (benchmarks/spine, path set above)
from repro.core import vecdp  # noqa: E402
from repro.core.worker import optimize_partition  # noqa: E402
from repro.query.query import JoinGraphKind  # noqa: E402

SPLIT_GEN, BUILD, REST = "_Splits.blocks", "plan build", "costing + reduction"
SKELETON = "skeleton build"


def cold_profile(run, repeats: int = 3):
    """``(wall ns, skeleton build ns)`` of the fastest of ``repeats`` runs,
    each with an empty skeleton cache (the process's own is left as it was)."""
    clock = time.perf_counter_ns
    original = vecdp._Skeleton
    best = None
    for _ in range(repeats):
        spent = []

        def build(*args):
            started = clock()
            try:
                return original(*args)
            finally:
                spent.append(clock() - started)

        with mock.patch.object(vecdp, "_skeletons", collections.OrderedDict()), \
                mock.patch.object(vecdp, "_Skeleton", build):
            started = clock()
            run()
            ended = clock()
        best = min(best or (ended - started, sum(spent)), (ended - started, sum(spent)))
    return best


def phase_profile(run):
    """Run ``run`` with vecdp's phase functions wrapped in ``perf_counter_ns``.

    Returns ``(wall ns, {phase: ns}, {level: [masks, blocks, cells,
    split-gen ns, level wall ns, splits considered]})``.  The wrappers
    replace module and class attributes for the duration of the call, so
    nothing is clocked inside a phase and the sweep itself runs unobserved
    (a ``sys.setprofile`` / ``settrace`` hook costs 12–30 % on a
    block-heavy bushy case).  ``blocks`` is clocked around each ``next``;
    plan materialisation, a closure in the frontier DP, runs from the first
    ``JoinPlan`` either kernel constructs to the end of the run.  A level's
    splits are read off the kernel's ``WorkerStats`` as its blocks begin.
    """
    clock = time.perf_counter_ns
    phases = dict.fromkeys(("_prefill", "_Splits.__init__", SPLIT_GEN, BUILD), 0)
    levels: dict[int, list[int]] = {}
    build_started: list[int] = []  # when either kernel constructed its first JoinPlan
    kernel_stats = []  # the kernel's WorkerStats, its last argument

    def clocked(name, function):
        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            started = clock()
            try:
                return function(*args, **kwargs)
            finally:
                phases[name] += clock() - started
        return wrapper

    def kernel(original):
        def wrapper(*args):
            kernel_stats.append(args[-1])
            return original(*args)
        return wrapper

    def blocks(self, size, *args, **kwargs):
        level = levels[size] = [
            len(self.skeleton.levels[size]), 0, 0, 0, clock(), kernel_stats[0].splits_considered
        ]
        generator = original_blocks(self, size, *args, **kwargs)
        while True:
            started = clock()
            block = next(generator, None)
            level[3] += clock() - started
            if block is None:
                return
            level[1] += 1
            level[2] += block[1].size
            yield block

    def join_plan(*args, **kwargs):
        if not build_started:
            build_started.append(clock())
        return original_join_plan(*args, **kwargs)

    original_blocks, original_join_plan = vecdp._Splits.blocks, vecdp.JoinPlan
    patches = [
        (vecdp, "_prefill", clocked("_prefill", vecdp._prefill)),
        (vecdp._Splits, "__init__", clocked("_Splits.__init__", vecdp._Splits.__init__)),
        (vecdp._Splits, "blocks", blocks),
        (vecdp, "_run_single_vec", kernel(vecdp._run_single_vec)),
        (vecdp, "_run_frontier_vec", kernel(vecdp._run_frontier_vec)),
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
    phases[SPLIT_GEN] = sum(level[3] for level in levels.values())
    phases[BUILD] = ended - build_started[0]
    by_size = [level for _, level in sorted(levels.items())]
    for level, left in zip(by_size, [level[4] for level in by_size[1:]] + build_started[:1]):
        level[4] = left - level[4]
    # A level's splits are all counted before the next level's blocks begin.
    splits = [level[5] for level in by_size[1:]] + [kernel_stats[0].splits_considered]
    for level, counted in zip(by_size, splits):
        level[5] = counted - level[5]
    return ended - started, phases, levels


def print_phases(cold, wall, phases, levels, by_level: bool) -> None:
    cold_wall, skeleton = cold
    print(f"{'cold run':<22}{'ms':>9}{'%':>7}")
    print(f"{SKELETON:<22}{skeleton / 1e6:9.2f}{100 * skeleton / cold_wall:7.1f}")
    print(f"{'total':<22}{cold_wall / 1e6:9.2f}\n")
    phases = {**phases, REST: wall - sum(phases.values())}
    print(f"{'warm run':<22}{'ms':>9}{'%':>7}")
    for name, spent in phases.items():
        print(f"{name:<22}{spent / 1e6:9.2f}{100 * spent / wall:7.1f}")
    print(f"{'total':<22}{wall / 1e6:9.2f}")
    if by_level:
        print(f"\n{'level':>5}{'masks':>8}{'blocks':>8}{'splits':>10}{'cells':>10}"
              f"{SPLIT_GEN + ' ms':>18}{REST + ' ms':>24}")
        for size, (masks, blocks, cells, split_gen, level_wall, splits) in sorted(levels.items()):
            print(f"{size:5d}{masks:8d}{blocks:8d}{splits:10d}{cells:10d}{split_gen / 1e6:18.2f}"
                  f"{(level_wall - split_gen) / 1e6:24.2f}")


def print_memory(run, n_tables: int) -> None:
    """Print one run's ``tracemalloc`` peak, then the arrays of another: a
    profile hook reads them off the vecdp kernel's frame at every call it
    makes and keeps each name's largest — the widest level's vectors and the
    largest block's, which are not all live at once."""
    tracemalloc.start()
    run()
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    kernels = {vecdp._run_single_vec.__code__, vecdp._run_frontier_vec.__code__}
    largest: dict[str, tuple] = {}
    skeletons = set()

    def hook(frame, event, arg):
        if frame.f_code in kernels:
            local = frame.f_locals
            skeletons.add(local["source"].skeleton)
            source = vars(local["source"])
            named = {**local, **{"source." + name: array for name, array in source.items()}}
            for name, array in named.items():
                if isinstance(array, vecdp.np.ndarray):
                    size = (array.nbytes, str(array.dtype), array.size)
                    largest[name] = max(largest.get(name, size), size)

    sys.setprofile(hook)
    run()
    sys.setprofile(None)
    print(f"traced peak {peak / 2**20:.2f} MiB, {peak / 2**n_tables:.1f} B per mask "
          f"of 2**{n_tables}")
    print(f"{'array (largest)':<18}{'dtype':>9}{'elements':>10}{'MiB':>8}{'B/mask':>8}")
    for name, (size, dtype, elements) in sorted(largest.items(), key=lambda item: -item[1][0]):
        print(f"{name:<18}{dtype:>9}{elements:10d}{size / 2**20:8.3f}{size / 2**n_tables:8.2f}")
    (skeleton,) = skeletons
    print(f"skeleton (kept by the process, not traced above): {skeleton.nbytes / 2**20:.3f} MiB, "
          f"{skeleton.nbytes / 2**n_tables:.2f} B per mask"
          + ("" if skeleton.linear or skeleton.blocks is not None else ", over budget: not kept"))


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
    parser.add_argument("--memory", action="store_true",
                        help="traced peak and the vecdp arrays instead of the cProfile table")
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
    if args.phases or args.memory:
        if stats.backend_used != "vecdp":
            print("--phases and --memory read the vecdp cores; this class runs on "
                  + stats.backend_used)
            return 2
        if args.memory:
            print_memory(run, args.tables)
        else:
            print_phases(cold_profile(run), *phase_profile(run), args.by_level)
        return 0
    profile = cProfile.Profile()
    profile.runcall(run)
    pstats.Stats(profile).sort_stats("tottime").print_stats(args.top)
    return 0


if __name__ == "__main__":
    sys.exit(main())
