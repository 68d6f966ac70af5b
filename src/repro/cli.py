"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``generate`` — write a random Steinbrunn-style query to a JSON file;
* ``optimize`` — optimize a JSON query with MPQ and print the chosen plan
  (or Pareto frontier) plus the cluster accounting the paper reports;
* ``serve-batch`` — run a batch of query files through the
  :class:`~repro.service.OptimizerService` (plan cache + warm worker pool)
  and report per-query plans plus the door's statistics tree,
  ``dataclasses.asdict(door.stats())`` — under ``"stats"`` with ``--json``,
  else one ``dotted.path: value`` line per leaf; with ``--shards N``
  (N > 1) the batch is served by a
  :class:`~repro.service.ShardedOptimizerGateway` — fingerprint-range
  routing to N independent shards, driven by ``--gateway-threads`` request
  handlers, with in-flight coalescing and aggregated gateway statistics;
  with ``--async`` the batch is submitted concurrently through the
  :class:`~repro.service.AsyncOptimizerGateway` front-end (each led miss
  dispatched alone to the gateway's handler pool, admission control
  bounded by ``--max-pending``) and the tree adds
  queue/dispatch/rejection counters — without ``--async`` the batch goes
  through ``optimize_batch``, the one path that batches misses;
  with ``--cache-dir DIR`` each shard's plan cache gains a persistent disk
  tier (append-only log ``DIR/shard-N.log``), so a later invocation with
  the same directory serves previously-seen queries from disk without
  re-optimizing — warm-restart serving;
  with ``--connect ADDR[,ADDR...]`` the batch is instead routed to
  out-of-process shard servers through the
  :class:`~repro.service.NetworkOptimizerGateway` (consistent-hash
  fingerprint routing, per-shard circuit breakers);
* ``shard-server`` — run one optimizer shard as a long-lived server
  process speaking the length-prefixed frame protocol on a unix socket or
  TCP port; N of these behind a ``--connect`` router are the
  out-of-process deployment shape (each owns its worker pool and, with
  ``--cache-dir``, its own single-writer disk cache log);
* ``shard-fleet`` — run a supervised fleet of N shard servers behind one
  command: the :class:`~repro.service.ShardFleet` supervisor spawns the
  processes on unix sockets under ``--socket-dir``, restarts crashed ones
  with exponential backoff, mirrors the live endpoint map to
  ``--socket-dir/membership.json`` after every change, and (as a library,
  via :meth:`~repro.service.ShardFleet.add_shard` /
  :meth:`~repro.service.ShardFleet.remove_shard`) rebalances the ring live
  by shipping moved keys' cache entries to their new owner first;
* ``cache`` — inspect and manage those persistent plan-cache logs:
  ``inspect`` (entries and their provenance records), ``export`` (write a
  compacted snapshot shippable to another shard or machine), ``import``
  (merge a snapshot into a log), and ``invalidate`` (selectively retire
  entries by provenance predicate — backend, creation time, settings
  signature — without touching other entries);
* ``backends`` — print the enumeration backends and their declared
  capability matrix, in the order ``--backend auto`` tries them.

Examples::

    python -m repro generate --tables 10 --kind star -o query.json
    python -m repro optimize query.json --workers 16
    python -m repro optimize query.json --space bushy --workers 8
    python -m repro optimize query.json --objectives time,buffer --alpha 10
    python -m repro optimize query.json --orders --backend legacy
    python -m repro serve-batch q1.json q2.json --workers 8 --repeat 3
    python -m repro serve-batch q*.json --pool persistent --json
    python -m repro serve-batch q*.json --shards 4 --gateway-threads 8
    python -m repro serve-batch q*.json --shards 4 --async --max-pending 256
    python -m repro serve-batch q*.json --shards 4 --cache-dir /var/cache/mpq
    python -m repro shard-server --listen unix:/run/mpq/shard-0.sock --shard-id 0
    python -m repro shard-server --listen 127.0.0.1:7401 --cache-dir /var/cache/mpq
    python -m repro shard-fleet --shards 3 --socket-dir /run/mpq --cache-dir /var/cache/mpq
    python -m repro serve-batch q*.json --connect unix:/run/mpq/shard-0.sock,unix:/run/mpq/shard-1.sock
    python -m repro cache inspect /var/cache/mpq/shard-*.log
    python -m repro cache export /var/cache/mpq/shard-0.log -o snapshot.log
    python -m repro cache import snapshot.log --into /var/cache/mpq/shard-0.log
    python -m repro cache invalidate /var/cache/mpq/*.log --backend fastdp --created-before 1767225600
    python -m repro backends --json
"""

from __future__ import annotations

import argparse
import asyncio
import dataclasses
import json
import sys
import time

from repro.algorithms.mpq import optimize_mpq
from repro.config import Backend, Objective, OptimizerSettings, PlanSpace
from repro.core.envelope import best_index_at
from repro.query.generator import SteinbrunnGenerator
from repro.query.io import load_query, plan_to_dict, save_query
from repro.query.query import JoinGraphKind


def _positive_int(text: str) -> int:
    """argparse ``type`` for counts that must be at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_settings_flags(command: argparse.ArgumentParser, parametric: bool = True) -> None:
    """The flags :func:`_settings_from_args` reads, declared once."""
    command.add_argument(
        "--space",
        choices=[space.value for space in PlanSpace],
        default=PlanSpace.LINEAR.value,
    )
    command.add_argument(
        "--objectives",
        default="time",
        help="comma-separated cost metrics: time[,buffer]",
    )
    command.add_argument("--alpha", type=float, default=1.0)
    command.add_argument(
        "--orders", action="store_true", help="track interesting orders"
    )
    command.add_argument(
        "--backend",
        choices=[backend.value for backend in Backend],
        default=Backend.AUTO.value,
        help="enumeration core: auto (fastest capable, default), the legacy "
        "object DP, the fastdp bitset core (plain queries at reference "
        "speed), or the vecdp array core",
    )
    if not parametric:
        return
    command.add_argument(
        "--parametric",
        action="store_true",
        help="optimize over the parameter theta in [0,1] weighting the two "
        "objectives; returns the full lower-envelope frontier unless "
        "--theta picks one point",
    )
    command.add_argument(
        "--theta",
        type=float,
        default=None,
        metavar="T",
        help="bind the parametric request at this theta (requires "
        "--parametric); served from a cached envelope when one exists",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="MPQ — massively parallel query optimization "
        "(Trummer & Koch, VLDB 2016).",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser("generate", help="generate a random query")
    generate.add_argument("--tables", type=int, default=8)
    generate.add_argument(
        "--kind",
        choices=[kind.value for kind in JoinGraphKind],
        default=JoinGraphKind.STAR.value,
    )
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("-o", "--output", required=True, help="output JSON file")

    optimize = commands.add_parser("optimize", help="optimize a JSON or SQL query")
    optimize.add_argument(
        "query", nargs="?", default=None, help="query JSON file"
    )
    optimize.add_argument(
        "--sql",
        default=None,
        help="SPJ SQL text (requires --catalog) instead of a query file",
    )
    optimize.add_argument(
        "--catalog", default=None, help="catalog JSON file for --sql"
    )
    optimize.add_argument("--workers", type=_positive_int, default=1)
    _add_settings_flags(optimize)
    optimize.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )

    serve = commands.add_parser(
        "serve-batch",
        help="optimize a batch of query files through the caching service",
    )
    serve.add_argument("queries", nargs="+", help="query JSON files")
    serve.add_argument("--workers", type=_positive_int, default=4)
    _add_settings_flags(serve)
    serve.add_argument(
        "--repeat",
        type=int,
        default=1,
        help="serve the batch this many times (later rounds hit the cache)",
    )
    serve.add_argument(
        "--pool",
        choices=("serial", "persistent"),
        default="serial",
        help="partition executor: in-process serial, or a warm process pool",
    )
    serve.add_argument(
        "--cache-size", type=int, default=256, help="plan-cache capacity"
    )
    serve.add_argument(
        "--cache-dir",
        default=None,
        help="directory of persistent plan-cache logs (one shard-N.log per "
        "shard); entries survive into later invocations with the same "
        "directory and are served from disk instead of re-optimized",
    )
    serve.add_argument(
        "--shards",
        type=int,
        default=1,
        help="serve through a sharded gateway with this many independent "
        "OptimizerService shards (1 = a single service, the default)",
    )
    serve.add_argument(
        "--gateway-threads",
        type=int,
        default=None,
        help="request-handler threads driving the gateway's per-shard "
        "sub-batches and, with --async, its led misses (default: one per "
        "shard; requires a handler pool: --shards > 1 or --async)",
    )
    serve.add_argument(
        "--async",
        dest="use_async",
        action="store_true",
        help="serve the batch through the asyncio front-end "
        "(AsyncOptimizerGateway): requests are submitted concurrently, "
        "each miss dispatched alone, and admission control enforced "
        "(without it each shard's misses run as one sub-batch)",
    )
    serve.add_argument(
        "--max-pending",
        type=_positive_int,
        default=None,
        help="async admission-control bound on outstanding requests; "
        "beyond it requests are rejected with a retry-after "
        "(requires --async; default 256)",
    )
    serve.add_argument(
        "--connect",
        default=None,
        metavar="ADDR[,ADDR...]",
        help="route the batch to running shard servers at these endpoints "
        "(unix:/path or host:port, comma-separated) through the "
        "consistent-hash network gateway instead of optimizing in-process",
    )
    serve.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )

    shard_server = commands.add_parser(
        "shard-server",
        help="serve one optimizer shard over a unix socket or TCP port",
    )
    shard_server.add_argument(
        "--listen",
        required=True,
        help="endpoint to bind: unix:/path/to.sock or host:port",
    )
    shard_server.add_argument(
        "--shard-id",
        type=int,
        default=0,
        help="this shard's number (names its cache log and hello frame)",
    )
    shard_server.add_argument("--workers", type=_positive_int, default=4)
    _add_settings_flags(shard_server, parametric=False)
    shard_server.add_argument(
        "--cache-size", type=int, default=256, help="plan-cache capacity"
    )
    shard_server.add_argument(
        "--cache-dir",
        default=None,
        help="directory for this shard's persistent cache log "
        "(shard-<id>.log; single-writer, flock-protected)",
    )
    shard_server.add_argument(
        "--max-in-flight",
        type=int,
        default=8,
        help="admission bound on concurrently running optimizations; "
        "beyond it requests are rejected 'overloaded' with a retry-after",
    )
    shard_server.add_argument(
        "--inject-latency-ms",
        type=float,
        default=0.0,
        help="fault injection for tests/benchmarks: sleep this long before "
        "every optimization, simulating a degraded shard (default 0: off)",
    )

    shard_fleet = commands.add_parser(
        "shard-fleet",
        help="run a supervised fleet of shard servers on unix sockets",
    )
    shard_fleet.add_argument(
        "--shards", type=int, default=3, help="initial shard count"
    )
    shard_fleet.add_argument(
        "--socket-dir",
        required=True,
        help="directory for the fleet's unix sockets and membership.json",
    )
    shard_fleet.add_argument(
        "--cache-dir",
        default=None,
        help="directory for per-shard persistent cache logs (shard-<i>.log); "
        "also what lets a restarted shard come back warm",
    )
    shard_fleet.add_argument("--workers", type=_positive_int, default=4)
    shard_fleet.add_argument(
        "--cache-size", type=int, default=256, help="plan-cache capacity per shard"
    )
    shard_fleet.add_argument(
        "--max-in-flight",
        type=int,
        default=16,
        help="per-shard admission bound on concurrently running optimizations",
    )
    shard_fleet.add_argument(
        "--log-dir",
        default=None,
        help="append each shard's stdout/stderr to <log-dir>/<name>.log "
        "(default: inherit the supervisor's stderr)",
    )

    cache = commands.add_parser(
        "cache",
        help="inspect and manage persistent plan-cache logs",
    )
    cache_commands = cache.add_subparsers(dest="cache_command", required=True)

    inspect = cache_commands.add_parser(
        "inspect", help="list a log's entries and their provenance records"
    )
    inspect.add_argument("logs", nargs="+", help="plan-cache log files")
    inspect.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )

    export = cache_commands.add_parser(
        "export",
        help="write a compacted snapshot of a log's live entries "
        "(openable as a log on another shard, or imported into one)",
    )
    export.add_argument("log", help="plan-cache log file")
    export.add_argument("-o", "--output", required=True, help="snapshot file")

    cache_import = cache_commands.add_parser(
        "import", help="merge a snapshot's entries into a log"
    )
    cache_import.add_argument("snapshot", help="snapshot (or log: its live entries) to read")
    cache_import.add_argument(
        "--into", required=True, help="plan-cache log to merge into"
    )
    cache_import.add_argument(
        "--keep-existing",
        action="store_true",
        help="keep entries already in the target when keys collide "
        "(default: the snapshot wins)",
    )

    invalidate = cache_commands.add_parser(
        "invalidate",
        help="retire entries matching a provenance predicate (all supplied "
        "conditions must hold); other entries keep serving",
    )
    invalidate.add_argument("logs", nargs="+", help="plan-cache log files")
    invalidate.add_argument(
        "--backend", default=None, help="match entries produced by this backend"
    )
    invalidate.add_argument(
        "--created-before",
        type=float,
        default=None,
        help="match entries created before this Unix timestamp",
    )
    invalidate.add_argument(
        "--settings-signature",
        default=None,
        help="match entries with this resolved settings signature",
    )
    invalidate.add_argument(
        "--all",
        dest="match_all",
        action="store_true",
        help="flush every entry (required spelling for the unconditional "
        "predicate; conditions above cannot be combined with it)",
    )
    invalidate.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )

    backends = commands.add_parser(
        "backends",
        help="list the enumeration backends and their capabilities",
    )
    backends.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    return parser


def _settings_from_args(args: argparse.Namespace) -> OptimizerSettings:
    objectives = []
    for token in args.objectives.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            objectives.append(Objective(token))
        except ValueError:
            raise SystemExit(
                f"unknown objective {token!r}; choose from "
                f"{[o.value for o in Objective]}"
            )
    theta = getattr(args, "theta", None)
    parametric = getattr(args, "parametric", False)
    if theta is not None and not parametric:
        raise SystemExit("--theta requires --parametric")
    if parametric and len(objectives) != 2:
        raise SystemExit(
            "--parametric needs exactly two objectives "
            "(e.g. --objectives time,io)"
        )
    try:
        return OptimizerSettings(
            plan_space=PlanSpace(args.space),
            objectives=tuple(objectives),
            alpha=args.alpha,
            consider_orders=args.orders,
            backend=Backend(args.backend),
            parametric=parametric,
            theta=theta,
        )
    except ValueError as error:
        raise SystemExit(str(error)) from None


def _run_generate(args: argparse.Namespace) -> int:
    query = SteinbrunnGenerator(args.seed).query(
        args.tables, JoinGraphKind(args.kind)
    )
    save_query(query, args.output)
    print(f"wrote {query.name} ({args.tables} tables) to {args.output}")
    return 0


def _load_query_from_args(args: argparse.Namespace):
    if args.sql is not None:
        if args.catalog is None:
            raise SystemExit("--sql requires --catalog")
        from repro.query.io import load_catalog
        from repro.query.sql import parse_sql

        return parse_sql(args.sql, load_catalog(args.catalog))
    if args.query is None:
        raise SystemExit("provide a query JSON file or --sql with --catalog")
    return load_query(args.query)


def _run_optimize(args: argparse.Namespace) -> int:
    query = _load_query_from_args(args)
    settings = _settings_from_args(args)
    report = optimize_mpq(query, args.workers, settings)
    plans, best = report.plans, report.best
    if settings.theta is not None:
        # The DP returns the whole envelope; the bound θ picks one plan.
        best = plans[best_index_at([plan.cost for plan in plans], settings.theta)]
        plans = [best]
    names = tuple(table.name for table in query.tables)
    if args.json:
        payload = {
            "query": query.name,
            "partitions": report.n_partitions,
            "backend_used": report.backend_used,
            "simulated_time_ms": report.simulated_time_ms,
            "network_bytes": report.network_bytes,
            "max_worker_memory_relations": report.max_worker_memory_relations,
            "plans": [plan_to_dict(plan, names) for plan in plans],
        }
        print(json.dumps(payload, indent=2))
        return 0
    print(f"query: {query.name} ({query.n_tables} tables)")
    print(
        f"partitions: {report.n_partitions} "
        f"(requested {args.workers} workers, {settings.plan_space} space)"
    )
    print(f"backend: {report.backend_used} (requested {args.backend})")
    print(f"simulated time: {report.simulated_time_ms:.2f} ms")
    print(f"network: {report.network_bytes:,} bytes")
    print(f"max worker memory: {report.max_worker_memory_relations} relations")
    if settings.is_multi_objective:
        print(f"pareto frontier: {len(plans)} plans (alpha={args.alpha})")
    print()
    print(best.pretty(names))
    print(f"\nbest cost: {tuple(best.cost)}")
    return 0


#: ``serve-batch --async``'s admission bound when ``--max-pending`` is not given.
_DEFAULT_MAX_PENDING = 256


class _AsyncDoor:
    """The asyncio front-end behind the blocking ``optimize_batch`` /
    ``stats`` / ``close`` surface every other front door already has."""

    def __init__(self, **kwargs) -> None:
        from repro.service import AsyncOptimizerGateway

        self._loop = asyncio.new_event_loop()
        self._front = AsyncOptimizerGateway(**kwargs)

    async def _submit(self, query):
        from repro.service import GatewayOverloadedError

        for __ in range(1000):
            try:
                return await self._front.optimize(query, tenant="cli")
            except GatewayOverloadedError as rejection:
                await asyncio.sleep(rejection.retry_after_s)
        raise SystemExit("async gateway kept rejecting; raise --max-pending")

    def optimize_batch(self, queries):
        async def submit_all():
            return list(await asyncio.gather(*map(self._submit, queries)))

        return self._loop.run_until_complete(submit_all())

    def stats(self):
        return self._front.stats()

    def close(self) -> None:
        self._loop.run_until_complete(self._front.close())
        self._loop.close()


def _connect_specs(args: argparse.Namespace) -> list[str]:
    return [spec.strip() for spec in args.connect.split(",") if spec.strip()]


def _open_door(args: argparse.Namespace, settings: OptimizerSettings):
    """The front door ``serve-batch``'s flags select.

    All four answer ``optimize_batch(queries)``, ``stats()`` and
    ``close()``, which is everything :func:`_run_serve_batch` uses.
    """
    from repro.cluster.executors import PersistentProcessPoolExecutor
    from repro.service import (
        NetworkOptimizerGateway,
        OptimizerService,
        ShardedOptimizerGateway,
    )
    from repro.service.tiers import shard_cache_factory

    if args.connect is not None:
        specs = _connect_specs(args)
        if not specs:
            raise SystemExit("--connect needs at least one endpoint")
        return NetworkOptimizerGateway(
            specs,
            settings=settings,
            n_workers=args.workers,
            # The CLI submits the whole batch at once; ride out the servers'
            # admission control instead of failing the batch on a burst.
            overload_retries=1000,
        )

    def executor():
        return PersistentProcessPoolExecutor(max_workers=args.workers)

    persistent = args.pool == "persistent"
    cache_factory = (
        shard_cache_factory(args.cache_dir, args.cache_size)
        if args.cache_dir is not None
        else None
    )
    if args.shards == 1 and not args.use_async:
        return OptimizerService(
            n_workers=args.workers,
            settings=settings,
            executor=executor() if persistent else None,
            cache_capacity=args.cache_size,
            cache=cache_factory(0) if cache_factory is not None else None,
        )
    gateway_options = dict(
        n_shards=args.shards,
        n_workers=args.workers,
        settings=settings,
        executor_factory=executor if persistent else None,
        cache_capacity=args.cache_size,
        cache_factory=cache_factory,
        gateway_threads=args.gateway_threads,
    )
    if not args.use_async:
        return ShardedOptimizerGateway(**gateway_options)
    # The CLI is a single tenant; a fairness share would silently halve
    # --max-pending for it.
    max_pending = args.max_pending or _DEFAULT_MAX_PENDING
    return _AsyncDoor(**gateway_options, max_pending=max_pending, tenant_share=1.0)


def _leaves(tree, path: str = ""):
    """``(dotted.path, value)`` for every leaf of a JSON-shaped stats tree."""
    if not isinstance(tree, (dict, list, tuple)):
        yield path, tree
        return
    for key, value in tree.items() if isinstance(tree, dict) else enumerate(tree):
        yield from _leaves(value, f"{path}.{key}" if path else str(key))


def _run_serve_batch(args: argparse.Namespace) -> int:
    if args.shards < 1:
        raise SystemExit(f"--shards must be >= 1, got {args.shards}")
    if args.gateway_threads is not None and args.shards < 2 and not args.use_async:
        raise SystemExit("--gateway-threads requires --shards > 1 or --async")
    if args.connect is not None:
        if args.shards > 1 or args.use_async or args.cache_dir is not None:
            raise SystemExit(
                "--connect routes to remote shard servers; "
                "--shards/--async/--cache-dir are server-side options"
            )
    elif not args.use_async and args.max_pending is not None:
        raise SystemExit("--max-pending requires --async")
    settings = _settings_from_args(args)
    queries = [load_query(path) for path in args.queries]
    door = _open_door(args, settings)
    try:
        rounds = []
        for __ in range(max(1, args.repeat)):
            started = time.perf_counter()
            results = door.optimize_batch(queries)
            rounds.append((time.perf_counter() - started, results))
        stats = door.stats()
    finally:
        door.close()
    # The network door's stats() is a JSON dict already; every other door's
    # is a tree of field-only dataclasses.
    stats = stats if isinstance(stats, dict) else dataclasses.asdict(stats)

    if args.json:
        if args.connect is not None:
            header = {"workers": args.workers, "connect": _connect_specs(args)}
        else:
            header = {
                "workers": args.workers,
                "pool": args.pool,
                "shards": args.shards,
                "async": args.use_async,
                "cache_dir": args.cache_dir,
                **({"max_pending": args.max_pending or _DEFAULT_MAX_PENDING} if args.use_async else {}),
            }
        header["rounds"] = [
            {
                "wall_s": wall,
                "results": [
                    {
                        "query": query.name,
                        "cached": result.cached,
                        "fingerprint": result.fingerprint,
                        "partitions": result.n_partitions,
                        "backend_used": result.backend_used,
                        "best_cost": list(result.best.cost),
                        "plans": len(result.plans),
                    }
                    for query, result in zip(queries, results)
                ],
            }
            for wall, results in rounds
        ]
        print(json.dumps({**header, "stats": stats}, indent=2))
        return 0

    for round_number, (wall, results) in enumerate(rounds, start=1):
        print(f"round {round_number}: {len(results)} queries in {wall * 1e3:.1f} ms")
        for query, result in zip(queries, results):
            marker = "HIT " if result.cached else "MISS"
            print(
                f"  [{marker}] {query.name}: best cost {tuple(result.best.cost)} "
                f"({result.n_partitions} partitions, "
                f"backend {result.backend_used})"
            )
    for path, value in _leaves(stats):
        print(f"{path}: {value}")
    return 0


def _run_shard_server(args: argparse.Namespace) -> int:
    from repro.service import run_shard_server

    settings = _settings_from_args(args)
    print(
        f"shard-server {args.shard_id} listening on {args.listen} "
        f"(workers={args.workers}, max in-flight={args.max_in_flight}"
        + (f", cache log in {args.cache_dir}" if args.cache_dir else "")
        + ")",
        flush=True,
    )
    run_shard_server(
        listen=args.listen,
        shard_id=args.shard_id,
        n_workers=args.workers,
        settings=settings,
        cache_capacity=args.cache_size,
        cache_dir=args.cache_dir,
        max_in_flight=args.max_in_flight,
        inject_latency_s=args.inject_latency_ms / 1000.0,
    )
    return 0


def _run_shard_fleet(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.service import run_shard_fleet

    socket_dir = Path(args.socket_dir)
    print(
        f"shard-fleet: {args.shards} shards under {socket_dir} "
        f"(workers={args.workers}, max in-flight={args.max_in_flight}"
        + (f", cache logs in {args.cache_dir}" if args.cache_dir else "")
        + ")",
        flush=True,
    )
    run_shard_fleet(
        n_shards=args.shards,
        socket_dir=socket_dir,
        cache_dir=args.cache_dir,
        n_workers=args.workers,
        max_in_flight=args.max_in_flight,
        cache_capacity=args.cache_size,
        log_dir=args.log_dir,
        membership_path=socket_dir / "membership.json",
    )
    return 0


def _open_log(path: str):
    """The plan-cache log at ``path``; a file that is not one, or a log
    another process holds, ends the command with a one-line refusal."""
    from repro.service import DiskTier, DiskTierLockedError

    try:
        return DiskTier(path)
    except (ValueError, DiskTierLockedError) as error:
        raise SystemExit(f"nothing done: {error}") from None


def _run_cache(args: argparse.Namespace) -> int:
    from repro.service import InvalidationPredicate

    if args.cache_command == "inspect":
        now_s = time.time()
        reports = []
        for path in args.logs:
            with _open_log(path) as tier:
                entries = [
                    {
                        "fingerprint": key,
                        "kind": kind,
                        "age_s": (
                            round(max(0.0, now_s - provenance.created_at_s), 3)
                            if provenance is not None
                            else None
                        ),
                        "provenance": (
                            provenance.to_wire() if provenance is not None else None
                        ),
                    }
                    for key, provenance, kind in tier.entries()
                ]
                reports.append(
                    {
                        "log": path,
                        "entries": len(tier),
                        "log_bytes": tier.log_bytes(),
                        "records": entries,
                    }
                )
        if args.json:
            print(json.dumps(reports, indent=2))
            return 0
        for report in reports:
            print(
                f"{report['log']}: {report['entries']} entries, "
                f"{report['log_bytes']:,} bytes"
            )
            for record in report["records"]:
                provenance = record["provenance"]
                if provenance is None:
                    print(
                        f"  {record['fingerprint'][:16]}…  "
                        f"kind={record['kind']} (no provenance)"
                    )
                    continue
                print(
                    f"  {record['fingerprint'][:16]}…  "
                    f"kind={record['kind']} "
                    f"backend={provenance['backend_used']} "
                    f"partitions={provenance['n_partitions']} "
                    f"age={record['age_s']:.0f}s"
                )
        return 0

    if args.cache_command == "export":
        with _open_log(args.log) as tier:
            try:
                exported = tier.export_snapshot(args.output)
            except ValueError as error:
                raise SystemExit(f"nothing done: {error}") from None
        print(f"exported {exported} entries from {args.log} to {args.output}")
        return 0

    if args.cache_command == "import":
        with _open_log(args.into) as tier:
            try:
                imported = tier.import_snapshot(
                    args.snapshot, overwrite=not args.keep_existing
                )
            except ValueError as error:
                raise SystemExit(f"nothing imported: {error}") from None
        print(f"imported {imported} entries from {args.snapshot} into {args.into}")
        return 0

    assert args.cache_command == "invalidate"
    conditions = (args.backend, args.created_before, args.settings_signature)
    if args.match_all and any(value is not None for value in conditions):
        raise SystemExit("--all cannot be combined with other conditions")
    if not args.match_all and all(value is None for value in conditions):
        raise SystemExit(
            "refusing the implicit match-everything predicate: supply at "
            "least one condition, or spell out --all to flush every entry"
        )
    predicate = InvalidationPredicate(
        backend=args.backend,
        created_before_s=args.created_before,
        settings_signature=args.settings_signature,
    )
    reports = []
    for path in args.logs:
        with _open_log(path) as tier:
            removed = tier.invalidate(predicate)
            reports.append(
                {"log": path, "invalidated": len(removed), "remaining": len(tier)}
            )
    if args.json:
        supplied = {
            name: value
            for name, value in dataclasses.asdict(predicate).items()
            if value is not None
        }
        print(json.dumps({"predicate": supplied, "logs": reports}, indent=2))
        return 0
    for report in reports:
        print(
            f"{report['log']}: invalidated {report['invalidated']} entries, "
            f"{report['remaining']} remaining"
        )
    return 0


def _run_backends(args: argparse.Namespace) -> int:
    from repro.core.worker import capability_matrix

    matrix = capability_matrix()
    if args.json:
        payload = {name: {"capabilities": flags} for name, flags in matrix.items()}
        print(json.dumps(payload, indent=2))
        return 0
    print("enumeration backends (AUTO picks the first capable one):")
    for name, flags in matrix.items():
        declared = ", ".join(flag for flag, on in flags.items() if on)
        print(f"  {name:>8}: {declared}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    if args.command == "generate":
        return _run_generate(args)
    if args.command == "serve-batch":
        return _run_serve_batch(args)
    if args.command == "shard-server":
        return _run_shard_server(args)
    if args.command == "shard-fleet":
        return _run_shard_fleet(args)
    if args.command == "cache":
        return _run_cache(args)
    if args.command == "backends":
        return _run_backends(args)
    return _run_optimize(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
