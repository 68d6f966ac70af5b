"""The four workloads: set-up ×3, fill, 1 discarded + 5 measured rounds, checks.

Every run is: three cold set-ups in fresh processes (``setup_s``), the
reference answers, an untimed fill pass, then one discarded and five
measured rounds of a *fixed schedule*; each reported value is the median of
the five per-round values.  Checks run after a round, outside the timed
region.  A serving run ends with the miss probe (``kernels.miss_probe``),
which supplies the DP metrics the driver wants from every workload.  A
traced run replaces the rounds by one warm, one traced and one untraced
round on the same stack, then measures every layer (``layers``,
``kernels``) and writes the spans to ``out/trace-<workload>.json``.
"""

from __future__ import annotations

import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.bench.traffic import unique_fingerprints

import kernels
import layers
import schedules
import stacks
from measure import (
    NOISY_FACTOR,
    ProcessTree,
    Timer,
    available_cpus,
    collector_paused,
    environment,
    round_metrics,
    summary,
    timed_blocks,
)
from oracle import Oracle, count_failures
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: Rounds per run: one discarded, then this many measured.
MEASURED_ROUNDS = 5
SETUP_SAMPLES = 3
#: ``run_seconds`` of BENCHMARK.json: six rounds of ≈ 1.5 s on the reference box.
REFERENCE_SECONDS = 9
#: Requests of the standard sample the layer ladder replays (traced runs).
LADDER_REQUESTS = 1200
#: Novel answers checked against the legacy oracle per round; the rest are
#: only checked to be answers (SPEC.md, "Correctness gate").
NOVEL_ORACLE_SAMPLE = 24
REOPEN_REPLAY = 1000
#: The discarded round warms sockets, memos and the tiers' LRU; a thousand
#: requests do that, and on the wire a whole round more would cost 5 s a run.
WARM_REQUESTS = 1000

WORKLOADS = ("mpq_fanout", "hot_hits", "spill_tiered", "net_herd")

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "cpu_ms_per_request": "ms",
    "peak_rss_mb": "MB",
    "mpq_speedup": "ratio",
    "plan_ms.plain_linear": "ms",
    "plan_ms.plain_bushy": "ms",
    "plan_ms.multi": "ms",
    "plan_ms.orders": "ms",
    "plan_ms.parametric": "ms",
}


@dataclass(frozen=True)
class ServingSpec:
    """What distinguishes the three serving workloads."""

    kind: str  # "memory" (asyncio door) | "tiered" | "net"
    #: A round is ``rate * seconds / 6`` requests, rounded down to whole
    #: thousands — a fixed count, never a duration.
    rate: float
    #: Requests between two calibrations (≈ 20–40 ms); divides 1000.
    block: int
    n_shapes: int
    zipf_skew: float
    relabel_share: float = 0.0
    novel_share: float = 0.0
    #: Memory-tier capacity per shard (tiered only).
    memory_capacity: int = 0
    #: Tables per popularity rank, cycled (see ``schedules.shape_pool``).
    tables: tuple[int, ...] = schedules.SERVING_TABLES
    #: Times a round replays the schedule, each pass freshly relabelled.
    passes: int = 1


#: ``hot_hits`` and ``net_herd`` replay the *same* schedule — same count, same
#: digest (checked in every ``net_herd`` run) — so the gap between them is the
#: wire.  4 000 requests at 9 s: 200 samples beyond p95 per round on the wire.
#: In process a pass takes a quarter of a second, so a ``hot_hits`` round is
#: three passes: a run has to outlast the box's speed flips (SPEC.md).
HERD = dict(rate=2700, n_shapes=24, zipf_skew=1.0, relabel_share=0.25)

SERVING = {
    "hot_hits": ServingSpec("memory", block=250, passes=3, **HERD),
    # 48 shapes x 3 features x 3 partition counts = 432 possible fingerprints
    # against 2 x 27 memory slots: a working set 8x the memory tier.
    "spill_tiered": ServingSpec(
        "tiered", rate=3400, block=100, n_shapes=48, zipf_skew=1.55,
        novel_share=0.02, memory_capacity=27, tables=(5, 6, 7),
    ),
    "net_herd": ServingSpec("net", block=40, **HERD),
}


# ----------------------------------------------------------------------- set-up


def build_stack(workload: str):
    """Build one workload's stack to the point where it can serve.

    Returns the stack and, for the tiered workload, the directory holding
    its logs (the caller removes it).
    """
    if workload == "mpq_fanout":
        return kernels.spawn_pool(available_cpus())[0], None
    spec = SERVING[workload]
    if spec.kind == "memory":
        return stacks.build_async(), None
    if spec.kind == "tiered":
        cache_dir = stacks.scratch_dir("tier")
        return stacks.build_tiered(cache_dir, spec.memory_capacity), cache_dir
    door = stacks.build_net(available_cpus())
    door.gateway.check_health()
    return door, None


def setup_probe(workload: str) -> int:
    """Child mode of ``run.py``: cold start to ready, say so, tear down."""
    stack, cache_dir = build_stack(workload)
    print("ready", flush=True)
    stack.close()
    if cache_dir is not None:
        shutil.rmtree(cache_dir, ignore_errors=True)
    return 0


def measure_setup(workload: str) -> list[float]:
    """``setup_s`` samples: interpreter start + imports + stack build.

    A fresh process each time, so every sample pays the imports a cold start
    pays.  Raw seconds: the two calibrations around a 0.3 s child process
    say little about the speed it ran at (normalised, the across-run spread
    of ``setup_s`` was wider than raw on three workloads of four).
    """
    samples = []
    for _ in range(SETUP_SAMPLES):
        started = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--setup-probe", workload],
            stdout=subprocess.PIPE,
            text=True,
        )
        assert child.stdout is not None
        line = child.stdout.readline()
        wall = time.perf_counter() - started
        child.stdout.read()
        if child.wait() != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe for {workload} failed")
        samples.append(wall)
    return samples


# ------------------------------------------------------------------ bookkeeping


@dataclass
class Ledger:
    """Requests attempted and failed, and every failed check, of one run."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def requests(self, count: int, problems: list[str]) -> None:
        """``count`` timed requests, of which ``problems`` went wrong."""
        self.attempted += count
        self.failed += len(problems)
        self.failures += problems

    def check(self, problems: list[str]) -> None:
        """A check that is not a request (an invariant, a warm-up answer)."""
        self.failures += problems


def result_of(
    workload: str, trace: bool, env: dict, digest: str, ledger: Ledger, body: dict
) -> dict:
    return {
        "workload": workload,
        "trace": trace,
        "environment": env,
        "schedule_sha256": digest,
        "attempted": max(1, ledger.attempted),
        "failed": ledger.failed,
        "failed_share": ledger.failed / max(1, ledger.attempted),
        "correct": not ledger.failures,
        "failures": ledger.failures[:20],
        **body,
    }


def end_to_end(
    rounds: list[dict[str, float]],
    setup: list[float],
    peak_rss_mb: float,
    probe: list[dict[str, float]] = (),
) -> dict[str, dict]:
    """Median of the per-round values, with quartiles and the round list.

    ``probe`` holds the rounds of a serving workload's miss probe, which
    supply the metrics its own rounds do not have.
    """
    out = {}
    for name, unit in END_TO_END_UNITS.items():
        if name == "setup_s":
            entry = summary(setup)
        elif name == "peak_rss_mb":
            entry = summary([peak_rss_mb])
        else:
            source = rounds if name in rounds[0] else probe
            entry = summary([round_[name] for round_ in source])
            raw = [round_[f"raw.{name}"] for round_ in source if f"raw.{name}" in round_]
            if raw:
                entry["raw_median"] = statistics.median(raw)
        entry["unit"] = unit
        out[name] = entry
    return out


def client_block(rounds: list[dict[str, float]]) -> dict:
    """Interference guard: noisy rounds are counted and flagged, never dropped."""
    calibrations = [round_["calibration_ms"] for round_ in rounds]
    fastest = min(calibrations)
    noisy = [
        index for index, value in enumerate(calibrations) if value > NOISY_FACTOR * fastest
    ]
    return {
        "calibration_ms": calibrations,
        "noisy_rounds": len(noisy),
        "noisy_round_indices": noisy,
        "round_wall_s": [round_["raw.wall_s"] for round_ in rounds],
        "requests_per_round": rounds[0]["requests"],
        "samples_beyond_p95_per_round": rounds[0]["samples_beyond_p95"],
        "latency_p99_ms": statistics.median(r["latency_p99_ms"] for r in rounds),
    }


def backends_used(round_: kernels.KernelRound) -> dict[str, str]:
    return {run.case.kernel: run.serial.stats.backend_used for run in round_.runs}


def kernel_layer_block(
    cases, pool, timer, tracer, ledger: Ledger, env: dict
) -> dict[str, float]:
    """The DP pass's per-layer metrics: p = nproc (traced), then p = 8."""
    narrow = kernels.kernel_pass(cases, available_cpus(), timer, pool, tracer=tracer)
    wide = kernels.kernel_pass(cases, 8, timer, pool)
    ledger.check(narrow.failures + wide.failures)
    env["backend_used"] = backends_used(narrow)
    out = kernels.kernel_layers(narrow)
    out.update(kernels.partition_layers(wide, "p8"))
    out["cluster.executors.small_fanout_ms"] = kernels.small_fanout_ms(pool)
    return out


def write_trace(tracer: Tracer, workload: str, seed: int) -> None:
    tracer.write(HERE / "out" / f"trace-{workload}.json", {"workload": workload, "seed": seed})


# ------------------------------------------------------------------- mpq_fanout


def run_mpq_fanout(seed: int, seconds: float, trace: bool) -> dict:
    """The paper's experiment: each DP case serial, then MPQ on a process pool
    at p = nproc."""
    nproc = available_cpus()
    env = environment(ROOT, seed, MEASURED_ROUNDS)
    tree = ProcessTree()
    ledger = Ledger()
    setup = [] if trace else measure_setup("mpq_fanout")

    started = time.perf_counter()
    cases = schedules.dp_cases(seed, schedules.FANOUT_SHAPES)
    schedule_gen_s = time.perf_counter() - started
    digest = schedules.schedule_digest(cases)
    cases = cases * max(1, round(seconds / REFERENCE_SECONDS))
    ledger.check(kernels.check_against_legacy())

    pool, pool_spawn_s = kernels.spawn_pool(nproc)
    try:
        tree.refresh()
        timer = Timer(tree)
        warm = kernels.kernel_pass(cases, nproc, timer, pool)
        ledger.check(warm.failures)
        env["backend_used"] = backends_used(warm)
        if trace:
            per_layer = _trace_mpq_fanout(seed, cases, pool, timer, tree, ledger, env)
            per_layer["cluster.executors.pool_spawn_s"] = pool_spawn_s
            per_layer["client.schedule_gen_s"] = schedule_gen_s
            return result_of("mpq_fanout", True, env, digest, ledger, {"per_layer": per_layer})
        rounds = []
        for _ in range(MEASURED_ROUNDS):
            with collector_paused():
                round_ = kernels.kernel_pass(cases, nproc, timer, pool)
            ledger.requests(len(round_.runs), round_.failures)
            rounds.append({**round_.request_metrics(), **round_.metrics()})
        peak_rss_mb = tree.peak_rss_mb()
    finally:
        pool.close()
    return result_of(
        "mpq_fanout", False, env, digest, ledger,
        {
            "end_to_end": end_to_end(rounds, setup, peak_rss_mb),
            "client": {**client_block(rounds), "schedule_gen_s": schedule_gen_s},
            "counters": {"cases": len(cases), "pool_spawn_s": pool_spawn_s},
        },
    )


def _trace_mpq_fanout(
    seed, cases, pool, timer, tree, ledger: Ledger, env: dict
) -> dict[str, float]:
    tracer = Tracer()
    per_layer = kernel_layer_block(cases, pool, timer, tracer, ledger, env)
    untraced = kernels.kernel_pass(cases, available_cpus(), timer, pool)
    ledger.requests(len(cases), untraced.failures)
    # The traced pass is the p = nproc pass of the layer block.  Its spans are
    # laid around the timer's own clock readings, so both passes time the same
    # calls; what differs is the bookkeeping between them.
    traced_wall = sum(
        (end - start) / 1e9
        for name, start, end, _, _ in tracer.spans
        if name in ("core.serial.optimize_serial", "algorithms.mpq.optimize_mpq")
    )
    untraced_wall = sum(
        run.serial_block.wall_s + run.pooled_block.wall_s for run in untraced.runs
    )
    request = untraced.request_metrics()
    per_layer["client.trace_overhead_pct"] = 100.0 * (traced_wall / untraced_wall - 1.0)
    per_layer["client.latency_p99_ms"] = request["latency_p99_ms"]
    per_layer["client.calibration_ms"] = request["calibration_ms"]
    per_layer["client.noisy_rounds"] = 0
    pool.close()
    tree.refresh()
    per_layer.update(layers.door_ladder(seed, LADDER_REQUESTS, tree))
    write_trace(tracer, "mpq_fanout", seed)
    return per_layer


# ------------------------------------------------------------ serving workloads


def requests_per_round(spec: ServingSpec, seconds: float) -> int:
    wanted = spec.rate * seconds / (MEASURED_ROUNDS + 1)
    return max(1000, int(wanted // 1000) * 1000)


def base_schedule(spec: ServingSpec, seed: int, n_requests: int):
    return schedules.serving_schedule(
        seed, n_requests, spec.n_shapes, spec.zipf_skew, spec.tables
    )


def round_requests(spec: ServingSpec, base, seed: int, index: int):
    """One round's schedule: fresh relabellings, then never-seen shapes."""
    requests: list = []
    relabelled = 0
    for pass_ in range(spec.passes):
        fresh, count = schedules.relabel_round(
            base, seed, index * spec.passes + pass_, spec.relabel_share
        )
        requests += fresh
        relabelled += count
    novel: list[int] = []
    if spec.novel_share:
        requests, novel = schedules.novel_round(requests, seed, index, spec.novel_share)
    return requests, relabelled, novel


def check_round(oracle: Oracle, requests, results, novel: list[int]) -> list[str]:
    """Correctness of one round; novel shapes go to the oracle by sample."""
    if len(novel) <= NOVEL_ORACLE_SAMPLE:
        return count_failures(oracle, requests, results)
    sample = set(range(len(requests))) - set(novel[NOVEL_ORACLE_SAMPLE:])
    return count_failures(oracle, requests, results, sample)


def gateway_of(door):
    """The in-process ``ShardedOptimizerGateway`` behind a door, if any."""
    if isinstance(door, stacks.AsyncDoor):
        return door.gateway.gateway
    if isinstance(door, stacks.ThreadedDoor):
        return door.gateway
    return None


def invariants(door, expected_fingerprints: int) -> list[str]:
    """One DP run per unique fingerprint; every gauge back to zero."""
    problems = []
    gateway = gateway_of(door)
    if gateway is not None:
        stats = gateway.stats()
        dp_runs = stats.optimizations
        if stats.in_flight:
            problems.append(f"gateway in_flight gauge at {stats.in_flight}")
        if isinstance(door, stacks.AsyncDoor):
            front = door.gateway.stats()
            if front.outstanding or front.queue_depth:
                problems.append(
                    f"aio outstanding={front.outstanding} queue_depth={front.queue_depth}"
                )
    else:
        shards = door.gateway.stats()["shards"].values()
        dp_runs = sum(shard.get("optimizations", 0) for shard in shards)
        busy = sum(shard.get("in_flight", 0) for shard in shards)
        if busy:
            problems.append(f"shard servers report {busy} requests in flight")
    if dp_runs != expected_fingerprints:
        problems.append(
            f"{dp_runs} DP runs for {expected_fingerprints} unique fingerprints"
        )
    return problems


def reopen_check(cache_dir: Path, spec: ServingSpec, oracle: Oracle, requests) -> list[str]:
    """Durability: reopen over the same logs, replay, expect zero DP runs."""
    reopened = stacks.build_tiered(cache_dir, spec.memory_capacity)
    try:
        results, _ = reopened.run_block(requests)
        problems = count_failures(oracle, requests, results)
        dp_runs = reopened.gateway.stats().optimizations
        if dp_runs:
            problems.append(f"{dp_runs} DP runs after reopen over the same logs")
    finally:
        reopened.close()
    return problems


def stack_counters(door, spec: ServingSpec) -> dict[str, float]:
    """Per-layer counters of the layers this workload's own stack has."""
    out: dict[str, float] = {}
    gateway = gateway_of(door)
    if gateway is not None:
        out.update(layers.gateway_counters(gateway))
    if spec.kind == "memory":
        out.update(layers.aio_counters(door.gateway))
    elif spec.kind == "tiered":
        out.update(layers.tier_counters(gateway))
    return out


def run_serving(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """A serving workload: fill, rounds of the fixed schedule, invariants."""
    spec = SERVING[workload]
    env = environment(ROOT, seed, MEASURED_ROUNDS)
    tree = ProcessTree()
    ledger = Ledger()
    setup = [] if trace else measure_setup(workload)

    per_round = requests_per_round(spec, seconds)
    if trace:
        per_round = max(spec.block, per_round // 3 // spec.block * spec.block)
    started = time.perf_counter()
    base = base_schedule(spec, seed, per_round)
    schedule_gen_s = time.perf_counter() - started
    digest = schedules.schedule_digest(base)
    if spec.kind == "net":
        twin = schedules.schedule_digest(base_schedule(SERVING["hot_hits"], seed, per_round))
        if twin != digest:
            ledger.check([f"net_herd schedule {digest[:12]} is not hot_hits' {twin[:12]}"])
    probe = schedules.dp_cases(seed, schedules.PROBE_SHAPES)

    oracle = Oracle()
    oracle.prepare(base)
    fill = layers.unique_requests(base)
    expected_fingerprints = len(unique_fingerprints(fill))

    door, cache_dir = build_stack(workload)
    try:
        tree.refresh()
        started = time.perf_counter()
        fill_results, _ = door.run_block(fill)
        fill_s = time.perf_counter() - started
        ledger.check(count_failures(oracle, fill, fill_results))

        if trace:
            per_layer = _trace_serving(
                workload, spec, seed, base, door, cache_dir, oracle, tree, probe,
                ledger, env,
            )
            if spec.kind == "memory":
                per_layer["service.aio.fill_s"] = fill_s
            per_layer["client.schedule_gen_s"] = schedule_gen_s
            return result_of(workload, True, env, digest, ledger, {"per_layer": per_layer})

        rounds = []
        requests: list = []
        for index in range(MEASURED_ROUNDS + 1):
            requests, relabelled, novel = round_requests(spec, base, seed, index)
            if index == 0:  # the discarded round: its first thousand, checks only
                requests = requests[:WARM_REQUESTS]
                novel = [position for position in novel if position < WARM_REQUESTS]
                expected_fingerprints += len(novel)
                results, _ = timed_blocks(door.run_block, requests, spec.block, tree)
                ledger.check(check_round(oracle, requests, results, novel))
                continue
            expected_fingerprints += len(novel)
            with collector_paused():
                results, blocks = timed_blocks(door.run_block, requests, spec.block, tree)
            ledger.requests(len(requests), check_round(oracle, requests, results, novel))
            rounds.append(
                {
                    **round_metrics(blocks),
                    "relabel_share": relabelled / len(requests),
                    "novel_share": len(novel) / len(requests),
                }
            )
        ledger.check(invariants(door, expected_fingerprints))
        peak_rss_mb = tree.peak_rss_mb()
        counters = stack_counters(door, spec)
        if spec.kind == "tiered":
            door.close()
            tail = requests[-REOPEN_REPLAY:]
            ledger.requests(len(tail), reopen_check(cache_dir, spec, oracle, tail))
    finally:
        door.close()
        if cache_dir is not None:
            shutil.rmtree(cache_dir, ignore_errors=True)
    probe_rounds = kernels.miss_probe(probe, tree, MEASURED_ROUNDS)
    ledger.check([failure for round_ in probe_rounds for failure in round_.failures])
    env["backend_used"] = backends_used(probe_rounds[0])
    return result_of(
        workload, False, env, digest, ledger,
        {
            "end_to_end": end_to_end(
                rounds, setup, peak_rss_mb, [round_.metrics() for round_ in probe_rounds]
            ),
            "client": {
                **client_block(rounds),
                "schedule_gen_s": schedule_gen_s,
                "fill_s": fill_s,
                "relabel_share": statistics.mean(r["relabel_share"] for r in rounds),
                "novel_share": statistics.mean(r["novel_share"] for r in rounds),
            },
            "counters": {"unique_fingerprints": expected_fingerprints, **counters},
        },
    )


def _trace_serving(
    workload, spec, seed, base, door, cache_dir, oracle, tree, probe, ledger, env
) -> dict[str, float]:
    """Warm, traced and untraced rounds on the workload's own stack; then the
    DP pass on a pool and the layer ladder.  The stack's own counters
    override the ladder's for the layers this workload has."""
    tracer = Tracer()
    observer = layers.StageObserver(tracer, spec.kind, gateway_of(door), seed)
    walls = {}
    metrics: dict[str, float] = {}
    server_cpu_s = 0.0
    for index, label in enumerate(("warm", "traced", "untraced")):
        requests, _, novel = round_requests(spec, base, seed, index)
        door.observe = observer if label == "traced" else None
        children_before = tree.children_cpu_s()
        with collector_paused():
            results, blocks = timed_blocks(door.run_block, requests, spec.block, tree)
        door.observe = None
        problems = check_round(oracle, requests, results, novel)
        if label == "warm":
            ledger.check(problems)
            continue
        ledger.requests(len(requests), problems)
        metrics = round_metrics(blocks)
        walls[label] = metrics["requests"] / metrics["throughput_rps"]
        server_cpu_s = tree.children_cpu_s() - children_before
    per_layer: dict[str, float] = {
        "client.trace_overhead_pct": 100.0 * (walls["traced"] / walls["untraced"] - 1.0),
        "client.latency_p99_ms": metrics["latency_p99_ms"],
        "client.calibration_ms": metrics["calibration_ms"],
        "client.noisy_rounds": 0,
    }
    own = stack_counters(door, spec)
    if spec.kind == "net":
        own.update(layers.net_counters(door, server_cpu_s, len(base)))
        own["service.service.dp_runs"] = layers.net_dp_runs(door)
    if spec.kind == "tiered":
        disks = [shard.cache.disk for shard in door.gateway.shards]
        own["service.tiers.log_bytes_per_entry"] = sum(
            disk.log_bytes() for disk in disks
        ) / max(1, sum(len(disk) for disk in disks))
    door.close()
    if spec.kind == "tiered":
        own.update(layers.reopen_and_compact(cache_dir))
    tree.refresh()

    pool, pool_spawn_s = kernels.spawn_pool(available_cpus())
    try:
        tree.refresh()
        per_layer.update(kernel_layer_block(probe, pool, Timer(tree), None, ledger, env))
        per_layer["cluster.executors.pool_spawn_s"] = pool_spawn_s
    finally:
        pool.close()
    per_layer.update(layers.door_ladder(seed, LADDER_REQUESTS, tree))
    per_layer.update(own)
    write_trace(tracer, workload, seed)
    return per_layer


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if workload == "mpq_fanout":
        return run_mpq_fanout(seed, seconds, trace)
    return run_serving(workload, seed, seconds, trace)
