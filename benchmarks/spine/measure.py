"""Measuring primitives: calibration, blocks, process-tree CPU/RSS, statistics.

Why times of CPU-bound work are reported *normalised*.  The reference box is
a 2-vCPU VM (two SMT siblings) whose speed flips between a fast and a
1.4–1.9x slower mode on a 0.1–10 s timescale; CPU time inflates with it, and
the median of five rounds of an unchanged build moved by ±15–25 % between
identical runs.  No statistic over raw times survives that, so every timed
region is cut into *blocks* of ≈ 20–40 ms, a fixed *calibration kernel*
(≈ 0.9 ms of stdlib-only work shaped like the hit path: dataclass rebuilds,
``repr`` + SHA-256, dict traffic) runs between blocks, and each block's times
are scaled by ``CAL_REF_S / (mean of the two calibrations around it)``.  The
kernel shares no code with the program, so a regression in the program moves
the normalised number exactly as it moves the raw one; only the machine's
speed cancels — exactly for interpreter-bound work, partly for array-bound
work (SPEC.md gives the measured slopes).  Raw values are kept beside the
normalised ones in every result; nothing is dropped.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import hashlib
import math
import os
import platform
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

from repro.bench.traffic import latency_percentiles

#: The calibration kernel's time on the reference box in its fast mode: the
#: unit that makes normalised times read "as if the whole run had been in
#: that mode".  It divides out of every comparison and is written into every
#: result (``environment.cal_ref_ms``) beside the calibrations measured.
CAL_REF_S = 0.86e-3

#: A round is *noisy* when its calibration exceeds the run's fastest by this.
NOISY_FACTOR = 1.15


# ------------------------------------------------------------------ calibration


@dataclass(frozen=True)
class _Node:
    mask: int
    cost: tuple
    left: "_Node | None" = None
    right: "_Node | None" = None


def _build(depth: int) -> _Node:
    if depth == 0:
        return _Node(1, (1.0, 2.0))
    return _Node(depth, (float(depth), 2.0), _build(depth - 1), _Node(1, (1.0,)))


def _rebuild(node: _Node) -> _Node:
    if node.left is None:
        return dataclasses.replace(node, mask=node.mask + 1)
    return dataclasses.replace(
        node, mask=node.mask + 1, left=_rebuild(node.left), right=_rebuild(node.right)
    )


_TREE = _build(7)
_PAYLOAD = tuple((i, f"c{i}", 0.001 * i, (i, i + 1)) for i in range(40))


def _kernel(iterations: int) -> float:
    started = time.perf_counter()
    for _ in range(iterations):
        _rebuild(_TREE)
        hashlib.sha256(repr(_PAYLOAD).encode()).hexdigest()
        table: dict[int, int] = {}
        for i in range(60):
            table[i] = table.get(i - 1, 0) + 1
    return time.perf_counter() - started


def calibrate() -> float:
    """Seconds the fixed kernel takes right now.

    Two halves, the faster one doubled: a preemption spike lands in one half
    and is discarded, a slow *mode* slows both and is kept.
    """
    return 2.0 * min(_kernel(6), _kernel(6))


@contextlib.contextmanager
def collector_paused():
    """Keep the cyclic garbage collector out of a timed region.

    The benchmark itself holds a round's requests and answers — tens of
    thousands of plan trees — so a full collection inside a round costs
    ≈ 90 ms of walking *the benchmark's* heap (one 20 ms block read 110 ms,
    6 % of a round, at a position that moved from round to round).
    Collection runs here instead, before the region and outside any clock;
    reference counting still frees the program's own garbage as it goes.
    """
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


# ----------------------------------------------------------------- process tree


def _read(path: str) -> str:
    try:
        with open(path) as handle:
            return handle.read()
    except OSError:
        return ""


class ProcessTree:
    """This process and its live descendants, read from ``/proc``.

    CPU is summed over every task's ``schedstat`` (on-CPU nanoseconds; the
    ``utime + stime`` of ``/proc/<pid>/stat`` only ticks every 10 ms, too
    coarse for a 30 ms block) and falls back to ``stat`` where ``schedstat``
    is absent.  Peak memory is the sum of ``VmHWM``.
    """

    def __init__(self) -> None:
        self.pids: list[int] = [os.getpid()]
        self._ticks = os.sysconf("SC_CLK_TCK")

    def refresh(self) -> None:
        """Re-discover live descendants (call after spawning a pool/fleet)."""
        parents: dict[int, int] = {}
        for entry in os.listdir("/proc"):
            if entry.isdigit():
                fields = _read(f"/proc/{entry}/stat").rpartition(")")[2].split()
                if len(fields) > 1:
                    parents[int(entry)] = int(fields[1])
        root = os.getpid()
        tree = [root]
        frontier = [root]
        while frontier:
            parent = frontier.pop()
            children = [pid for pid, ppid in parents.items() if ppid == parent]
            tree.extend(children)
            frontier.extend(children)
        self.pids = tree

    def _pid_cpu_s(self, pid: int) -> float:
        total_ns = 0
        found = False
        try:
            tasks = os.listdir(f"/proc/{pid}/task")
        except OSError:
            return 0.0
        for task in tasks:
            fields = _read(f"/proc/{pid}/task/{task}/schedstat").split()
            if fields:
                total_ns += int(fields[0])
                found = True
        if found:
            return total_ns / 1e9
        fields = _read(f"/proc/{pid}/stat").rpartition(")")[2].split()
        if len(fields) > 12:
            return (int(fields[11]) + int(fields[12])) / self._ticks
        return 0.0

    def cpu_s(self) -> float:
        """User+system CPU seconds consumed so far by the whole tree."""
        return time.process_time() + sum(
            self._pid_cpu_s(pid) for pid in self.pids[1:]
        )

    def children_cpu_s(self) -> float:
        """CPU seconds of the descendants alone."""
        return sum(self._pid_cpu_s(pid) for pid in self.pids[1:])

    def peak_rss_mb(self) -> float:
        """Sum of ``VmHWM`` over the tree, in MB."""
        total_kb = 0
        for pid in self.pids:
            for line in _read(f"/proc/{pid}/status").splitlines():
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
        return total_kb / 1024.0


# ----------------------------------------------------------------------- blocks


@dataclass
class Block:
    """One timed slice of a round, bracketed by two calibrations."""

    wall_s: float
    cpu_s: float
    latencies_s: list[float]
    calibration_s: float

    @property
    def scale(self) -> float:
        """Factor that maps this block's raw times to reference-box times."""
        return CAL_REF_S / self.calibration_s


def timed_blocks(
    run_block: Callable[[Sequence], tuple[list, list[float]]],
    items: Sequence,
    block_size: int,
    tree: ProcessTree,
) -> tuple[list, list[Block]]:
    """Replay ``items`` in blocks; calibrate between blocks, outside the clock.

    ``run_block(chunk)`` drives one block through the door with whatever
    client shape the workload prescribes and returns ``(results,
    per-request latencies in seconds)``.
    """
    results: list = []
    blocks: list[Block] = []
    calibration = calibrate()
    for start in range(0, len(items), block_size):
        chunk = items[start : start + block_size]
        cpu_before = tree.cpu_s()
        started = time.perf_counter()
        chunk_results, latencies = run_block(chunk)
        wall = time.perf_counter() - started
        cpu = tree.cpu_s() - cpu_before
        following = calibrate()
        blocks.append(Block(wall, cpu, latencies, (calibration + following) / 2.0))
        calibration = following
        results.extend(chunk_results)
    return results, blocks


def round_metrics(blocks: list[Block]) -> dict[str, float]:
    """One round's end-to-end numbers, normalised and raw."""
    requests = sum(len(block.latencies_s) for block in blocks)
    wall = sum(block.wall_s * block.scale for block in blocks)
    cpu = sum(block.cpu_s * block.scale for block in blocks)
    latency = latency_percentiles(
        [
            value * block.scale * 1e3
            for block in blocks
            for value in block.latencies_s
        ],
        (50, 95, 99),
    )
    raw_wall = sum(block.wall_s for block in blocks)
    raw_latency = latency_percentiles(
        [value * 1e3 for block in blocks for value in block.latencies_s], (50, 95)
    )
    return {
        "throughput_rps": requests / wall,
        "latency_p50_ms": latency["p50"],
        "latency_p95_ms": latency["p95"],
        "latency_p99_ms": latency["p99"],
        "cpu_ms_per_request": cpu / requests * 1e3,
        "raw.throughput_rps": requests / raw_wall,
        "raw.latency_p50_ms": raw_latency["p50"],
        "raw.latency_p95_ms": raw_latency["p95"],
        "raw.cpu_ms_per_request": sum(block.cpu_s for block in blocks) / requests * 1e3,
        "raw.wall_s": raw_wall,
        "calibration_ms": statistics.median(
            block.calibration_s for block in blocks
        ) * 1e3,
        "requests": requests,
        "samples_beyond_p95": requests - math.ceil(requests * 0.95),
    }


# ------------------------------------------------------------------- statistics


def summary(values: Sequence[float]) -> dict[str, object]:
    """Median, quartiles and the per-round list of one metric."""
    values = list(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "rounds": values,
    }


@dataclass
class Timer:
    """Accumulates normalised and raw seconds of calibrated single calls."""

    tree: ProcessTree
    calibration_s: float = field(default_factory=calibrate)

    def call(self, function: Callable, *args: object) -> tuple[object, Block]:
        """Run ``function(*args)`` once as a one-request block."""
        cpu_before = self.tree.cpu_s()
        started = time.perf_counter()
        value = function(*args)
        wall = time.perf_counter() - started
        cpu = self.tree.cpu_s() - cpu_before
        following = calibrate()
        block = Block(wall, cpu, [wall], (self.calibration_s + following) / 2.0)
        self.calibration_s = following
        return value, block


# ------------------------------------------------------------------ environment


def environment(root: Path, seed: int, rounds: int) -> dict[str, object]:
    """The block every result carries: where and what was measured."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": available_cpus(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "platform": platform.platform(),
        "git_commit": git_commit(root),
        "seed": seed,
        "rounds": rounds,
        "cal_ref_ms": CAL_REF_S * 1e3,
    }


def git_commit(root: Path) -> str | None:
    """HEAD's commit id read from ``.git`` directly (no subprocess)."""
    head = _read(str(root / ".git" / "HEAD")).strip()
    if head.startswith("ref: "):
        ref = head[5:]
        commit = _read(str(root / ".git" / ref)).strip()
        if commit:
            return commit
        for line in _read(str(root / ".git" / "packed-refs")).splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
        return None
    return head or None


def available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1
