"""Query JSON round-tripping and the command-line interface."""

from __future__ import annotations

import argparse
import dataclasses
import json
import re
import shutil
from pathlib import Path

import pytest

import repro.service
from repro import cli
from repro.algorithms.mpq import optimize_mpq
from repro.cli import main
from repro.cluster.executors import PersistentProcessPoolExecutor
from repro.config import PARAMETRIC_OBJECTIVES, OptimizerSettings
from repro.core.envelope import best_index_at
from repro.core.serial import best_plan, optimize_serial
from repro.query.generator import SteinbrunnGenerator
from repro.query.query import JoinGraphKind
from repro.service import (
    AsyncGatewayStats,
    GatewayStats,
    ShardStats,
    settings_signature,
)
from repro.query.io import (
    catalog_from_dict,
    load_query,
    plan_to_dict,
    query_from_dict,
    query_to_dict,
    save_query,
)
from tests.conftest import make_manual_query
from tests.test_net import ServerThread

#: Cached provenance records the backend AUTO resolved to for plain queries.
AUTO_BACKEND = "vecdp"


class TestQueryRoundTrip:
    def test_roundtrip_preserves_everything(self):
        query = SteinbrunnGenerator(5).query(6)
        clone = query_from_dict(query_to_dict(query))
        assert clone.name == query.name
        assert clone.predicates == query.predicates
        assert [t.cardinality for t in clone.tables] == [
            t.cardinality for t in query.tables
        ]
        assert [t.columns for t in clone.tables] == [t.columns for t in query.tables]

    def test_file_roundtrip(self, tmp_path):
        query = make_manual_query([100, 200], [(0, 1, 0.25)])
        path = tmp_path / "q.json"
        save_query(query, path)
        loaded = load_query(path)
        assert loaded.predicates == query.predicates

    def test_default_selectivity(self):
        data = query_to_dict(make_manual_query([10, 20], [(0, 1, 0.5)]))
        del data["predicates"][0]["selectivity"]
        loaded = query_from_dict(data)
        # Columns have domain 100 in the manual query -> Steinbrunn 1/100.
        assert loaded.predicates[0].selectivity == pytest.approx(0.01)

    def test_malformed_table_rejected(self):
        with pytest.raises(ValueError, match="table"):
            query_from_dict({"tables": [{"name": "X"}], "predicates": []})

    def test_malformed_predicate_rejected(self):
        data = query_to_dict(make_manual_query([10, 20]))
        data["predicates"] = [{"left_table": 0}]
        with pytest.raises(ValueError, match="predicate"):
            query_from_dict(data)

    @pytest.mark.parametrize(
        "endpoint, match",
        [
            ({"left_table": 5}, "references table 5"),
            ({"left_column": "missing"}, "has no column 'missing'"),
            ({"left_table": True, "right_table": 0}, "must be an integer"),
        ],
        ids=["out-of-range", "unknown-column", "boolean"],
    )
    def test_bad_endpoint_without_selectivity_is_value_error(self, endpoint, match):
        data = query_to_dict(make_manual_query([10, 20], [(0, 1, 0.5)]))
        del data["predicates"][0]["selectivity"]
        data["predicates"][0].update(endpoint)
        with pytest.raises(ValueError, match=match):
            query_from_dict(data)

    def test_optimization_equivalent_after_roundtrip(self):
        query = SteinbrunnGenerator(6).query(6)
        clone = query_from_dict(query_to_dict(query))
        original = best_plan(optimize_serial(query, OptimizerSettings()))
        reloaded = best_plan(optimize_serial(clone, OptimizerSettings()))
        assert original.cost == reloaded.cost

    def test_clustering_survives_roundtrip(self):
        # Regression: clustered_on used to be dropped by the codec, so a
        # clustered query crossing the wire lost its leaf orders — changing
        # both its plans and its fingerprint relative to the sender's.
        query = SteinbrunnGenerator(7, clustered_tables=True).query(5)
        assert any(table.clustered_on for table in query.tables)
        clone = query_from_dict(json.loads(json.dumps(query_to_dict(query))))
        assert clone == query
        from repro.service import fingerprint

        settings = OptimizerSettings()
        assert fingerprint(clone, settings, 8) == fingerprint(query, settings, 8)

    def test_unclustered_tables_omit_the_field(self):
        data = query_to_dict(make_manual_query([10, 20], [(0, 1, 0.5)]))
        assert all("clustered_on" not in table for table in data["tables"])


def _query_with(**edits):
    """A valid two-table query dict with one predicate, then ``edits``.

    Keys are ``"query"``, ``"table"``, ``"column"`` or ``"predicate"`` (the
    first of each) and map to the fields to overwrite there.
    """
    data = query_to_dict(make_manual_query([10, 20], [(0, 1, 0.5)]))
    targets = {
        "query": data,
        "table": data["tables"][0],
        "column": data["tables"][0]["columns"][0],
        "predicate": data["predicates"][0],
    }
    for where, fields in edits.items():
        targets[where].update(fields)
    return data


#: (id, malformed query, message fragment) — every one must be a ValueError.
MALFORMED_QUERIES = [
    ("not-an-object", [1, 2], "malformed"),
    ("null", None, "malformed"),
    ("no-tables-key", {"predicates": []}, "malformed"),
    ("tables-not-a-list", {"tables": 5}, "malformed"),
    ("zero-tables", _query_with(query={"tables": [], "predicates": []}), "at least one table"),
    ("table-not-an-object", _query_with(query={"tables": ["T0"]}), "malformed table"),
    ("cardinality-string", _query_with(table={"cardinality": "10"}), "cardinality"),
    ("cardinality-fraction", _query_with(table={"cardinality": 1.5}), "cardinality"),
    ("cardinality-boolean", _query_with(table={"cardinality": True}), "cardinality"),
    ("cardinality-infinite", _query_with(table={"cardinality": float("inf")}), "cardinality"),
    ("cardinality-negative", _query_with(table={"cardinality": -1}), "cardinality"),
    ("row-bytes-zero", _query_with(table={"row_bytes": 0}), "row_bytes"),
    ("columns-not-a-list", _query_with(table={"columns": 3}), "malformed table"),
    ("domain-size-infinite", _query_with(column={"domain_size": float("inf")}), "domain_size"),
    ("domain-size-zero", _query_with(column={"domain_size": 0}), "domain_size"),
    ("clustered-on-unknown", _query_with(table={"clustered_on": "zz"}), "clustered on"),
    ("predicates-not-a-list", _query_with(query={"predicates": 5}), "malformed query"),
    ("predicate-not-an-object", _query_with(query={"predicates": ["p"]}), "malformed predicate"),
    ("index-fraction", _query_with(predicate={"left_table": 0.5}), "must be an integer"),
    ("index-string", _query_with(predicate={"right_table": "1"}), "must be an integer"),
    ("index-infinite", _query_with(predicate={"left_table": float("inf")}), "must be an integer"),
    ("index-negative", _query_with(predicate={"left_table": -1}), "references table -1"),
    ("self-join", _query_with(predicate={"right_table": 0}), "distinct tables"),
    ("unknown-column-with-selectivity", _query_with(predicate={"right_column": "zz"}), "has no column"),
    ("column-not-string", _query_with(predicate={"left_column": 0}), "has no column"),
    ("selectivity-boolean", _query_with(predicate={"selectivity": True}), "selectivity"),
    ("selectivity-list", _query_with(predicate={"selectivity": [0.5]}), "selectivity"),
    ("selectivity-string", _query_with(predicate={"selectivity": "0.5"}), "selectivity"),
    ("selectivity-zero", _query_with(predicate={"selectivity": 0}), "selectivity"),
    ("selectivity-nan", _query_with(predicate={"selectivity": float("nan")}), "selectivity"),
]


class TestMalformedQuery:
    """``query_from_dict`` keeps its contract: malformed input is a ``ValueError``,
    never another exception and never a silently misread query."""

    @pytest.mark.parametrize(
        "data, match",
        [case[1:] for case in MALFORMED_QUERIES],
        ids=[case[0] for case in MALFORMED_QUERIES],
    )
    def test_is_value_error(self, data, match):
        with pytest.raises(ValueError, match=match):
            query_from_dict(data)

    def test_integral_float_still_accepted(self):
        """JSON writers that print every number as a float stay readable."""
        data = _query_with(table={"cardinality": 10.0}, predicate={"left_table": 0.0})
        assert query_from_dict(data) == make_manual_query([10, 20], [(0, 1, 0.5)])

    @pytest.mark.parametrize(
        "data",
        [[], {"tables": {"R": 1}}, {"tables": [{"name": "R", "cardinality": "many"}]}],
        ids=["not-an-object", "tables-not-a-list", "bad-table"],
    )
    def test_catalog_is_value_error(self, data):
        with pytest.raises(ValueError):
            catalog_from_dict(data)


class TestPlanToDict:
    def test_structure(self):
        query = make_manual_query([100, 200], [(0, 1, 0.1)])
        plan = best_plan(optimize_serial(query, OptimizerSettings()))
        data = plan_to_dict(plan, ("A", "B"))
        assert data["operator"] == "join"
        assert {data["outer"]["operator"], data["inner"]["operator"]} == {"scan"}
        assert {data["outer"]["table"], data["inner"]["table"]} == {"A", "B"}
        assert data["cost"] == list(plan.cost)


class TestCLI:
    def test_generate_then_optimize(self, tmp_path, capsys):
        path = tmp_path / "query.json"
        assert main(["generate", "--tables", "6", "-o", str(path)]) == 0
        assert path.exists()
        assert main([
            "optimize", str(path), "--workers", "4",
        ]) == 0
        out = capsys.readouterr().out
        assert "partitions: 4" in out
        assert "best cost" in out

    def test_optimize_json_output(self, tmp_path, capsys):
        path = tmp_path / "query.json"
        main(["generate", "--tables", "5", "-o", str(path)])
        capsys.readouterr()
        assert main(["optimize", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["partitions"] == 1
        assert payload["plans"][0]["operator"] == "join"

    def test_optimize_multi_objective(self, tmp_path, capsys):
        path = tmp_path / "query.json"
        main(["generate", "--tables", "6", "-o", str(path)])
        assert main([
            "optimize", str(path),
            "--objectives", "time,buffer", "--alpha", "5", "--workers", "4",
        ]) == 0
        out = capsys.readouterr().out
        assert "pareto frontier" in out

    def test_optimize_bushy(self, tmp_path, capsys):
        path = tmp_path / "query.json"
        main(["generate", "--tables", "6", "-o", str(path)])
        assert main(["optimize", str(path), "--space", "bushy"]) == 0
        assert "bushy" in capsys.readouterr().out

    def test_unknown_objective_rejected(self, tmp_path):
        path = tmp_path / "query.json"
        main(["generate", "--tables", "4", "-o", str(path)])
        with pytest.raises(SystemExit):
            main(["optimize", str(path), "--objectives", "carbon"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_generate_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["generate", "--tables", "5", "--seed", "3", "-o", str(a)])
        main(["generate", "--tables", "5", "--seed", "3", "-o", str(b)])
        assert a.read_text() == b.read_text()

    def test_generate_kind_and_output(self, tmp_path):
        path = tmp_path / "chain.json"
        argv = ["generate", "--tables", "5", "--kind", "chain", "--seed", "3"]
        assert main(argv + ["--output", str(path)]) == 0
        expected = SteinbrunnGenerator(3).query(5, JoinGraphKind.CHAIN)
        assert load_query(path).predicates == expected.predicates


@pytest.fixture
def clique_query(tmp_path):
    """A query whose interesting orders lower the best cost and whose
    parametric envelope holds two plans, the second optimal at θ = 0.25."""
    query = SteinbrunnGenerator(1, clustered_tables=True).query(
        6, JoinGraphKind.CLIQUE
    )
    path = tmp_path / "clique.json"
    save_query(query, path)
    return load_query(path), str(path)


def _optimize_json(argv, capsys) -> list:
    capsys.readouterr()
    assert main(["optimize", *argv, "--json"]) == 0
    return json.loads(capsys.readouterr().out)["plans"]


def _as_json(query, plans) -> list:
    names = tuple(table.name for table in query.tables)
    return json.loads(json.dumps([plan_to_dict(plan, names) for plan in plans]))


class TestOptimizeQueryClasses:
    """``optimize --orders / --parametric / --theta`` select the paper's classes."""

    def test_orders(self, clique_query, capsys):
        query, path = clique_query
        expected = optimize_mpq(query, 1, OptimizerSettings(consider_orders=True))
        assert expected.plans != optimize_mpq(query, 1).plans
        assert _optimize_json([path, "--orders"], capsys) == _as_json(
            query, expected.plans
        )

    def test_parametric_returns_the_envelope(self, clique_query, capsys):
        query, path = clique_query
        settings = OptimizerSettings(objectives=PARAMETRIC_OBJECTIVES, parametric=True)
        frontier = optimize_mpq(query, 1, settings).plans
        assert len(frontier) == 2
        argv = [path, "--parametric", "--objectives", "time,io"]
        assert _optimize_json(argv, capsys) == _as_json(query, frontier)

    def test_theta_binds_one_plan(self, clique_query, capsys):
        query, path = clique_query
        settings = OptimizerSettings(objectives=PARAMETRIC_OBJECTIVES, parametric=True)
        frontier = optimize_mpq(query, 1, settings).plans
        chosen = frontier[best_index_at([plan.cost for plan in frontier], 0.25)]
        assert chosen is not frontier[0]
        argv = [path, "--parametric", "--objectives", "time,io", "--theta", "0.25"]
        assert _optimize_json(argv, capsys) == _as_json(query, [chosen])

    def test_theta_requires_parametric(self, clique_query):
        __, path = clique_query
        with pytest.raises(SystemExit, match="--theta requires --parametric"):
            main(["optimize", path, "--theta", "0.25"])


class TestSettingsErrors:
    """A rejected setting ends the command with its message, not a traceback."""

    CASES = {
        "alpha": (["optimize", "--alpha", "0.5"], "alpha must be >= 1.0"),
        "theta": (
            ["optimize", "--parametric", "--objectives", "time,io", "--theta", "1.5"],
            "theta must be in [0, 1]",
        ),
        "no-objective": (["optimize", "--objectives", ","], "at least one objective"),
        "parametric-hint": (["optimize", "--parametric"], "--objectives time,io"),
        "parametric-buffer": (
            ["optimize", "--parametric", "--objectives", "time,buffer"],
            "requires additive metrics",
        ),
        "optimize-workers": (["optimize", "--workers", "0"], "must be >= 1, got 0"),
        "serve-workers": (["serve-batch", "--workers", "0"], "must be >= 1, got 0"),
        "max-pending": (
            ["serve-batch", "--async", "--max-pending", "0"],
            "must be >= 1, got 0",
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_clean_exit_with_message(self, case, tmp_path, capsys):
        argv, message = self.CASES[case]
        path = tmp_path / "q.json"
        main(["generate", "--tables", "4", "-o", str(path)])
        capsys.readouterr()
        # A raw ValueError would escape pytest.raises as a traceback.
        with pytest.raises(SystemExit) as exit_info:
            main([argv[0], str(path), *argv[1:]])
        code = exit_info.value.code
        assert code not in (0, None)
        # argparse prints its message and exits 2; ours is the exit value.
        assert message in f"{code}\n{capsys.readouterr().err}"


def leaves(tree, path: str = "") -> list[tuple[str, object]]:
    """Every ``(dotted path, value)`` leaf of a JSON-shaped tree."""
    if isinstance(tree, dict):
        children = tree.items()
    elif isinstance(tree, (list, tuple)):
        children = enumerate(tree)
    else:
        return [(path, tree)]
    return [
        leaf
        for key, child in children
        for leaf in leaves(child, f"{path}.{key}" if path else str(key))
    ]


class TestServeBatchStatsTree:
    """Every door's report is ``dataclasses.asdict`` of its stats snapshot."""

    #: door -> (serve-batch flags, snapshot type, a leaf the tree must have)
    DOORS = {
        "service": ([], ShardStats, "cache.hits"),
        "shards": (["--shards", "2"], GatewayStats, "shards.1.cache.hits"),
        "async": (["--async"], AsyncGatewayStats, "gateway.shards.0.cache.hits"),
        "cache-dir": (["--cache-dir"], ShardStats, "cache.disk_writes"),
    }

    @pytest.mark.parametrize("door", sorted(DOORS))
    def test_report_is_asdict_of_the_snapshot(
        self, door, tmp_path, monkeypatch, capsys
    ):
        flags, snapshot_type, expected_leaf = self.DOORS[door]
        paths = []
        for seed in (21, 22):
            path = tmp_path / f"q{seed}.json"
            main(["generate", "--tables", "5", "--seed", str(seed), "-o", str(path)])
            paths.append(str(path))
        snapshots = []
        open_door = cli._open_door

        def spying_open_door(args, settings):
            opened = open_door(args, settings)
            real_stats = opened.stats

            def stats():
                snapshots.append(real_stats())
                return snapshots[-1]

            opened.stats = stats
            return opened

        monkeypatch.setattr(cli, "_open_door", spying_open_door)
        outputs = {}
        for mode in ("json", "text"):
            door_flags = flags + [str(tmp_path / mode)] if door == "cache-dir" else flags
            json_flag = ["--json"] if mode == "json" else []
            capsys.readouterr()
            argv = ["serve-batch", *paths, paths[0], "--repeat", "2", *door_flags]
            assert main(argv + json_flag) == 0
            outputs[mode] = capsys.readouterr().out
        json_snapshot, text_snapshot = snapshots
        assert type(json_snapshot) is snapshot_type
        payload = json.loads(outputs["json"])
        assert payload["stats"] == json.loads(
            json.dumps(dataclasses.asdict(json_snapshot))
        )
        text_leaves = leaves(dataclasses.asdict(text_snapshot))
        assert expected_leaf in dict(text_leaves)
        lines = set(outputs["text"].splitlines())
        for path, value in text_leaves:
            assert f"{path}: {value}" in lines


class TestServeBatchFlags:
    @pytest.fixture
    def two_queries(self, tmp_path):
        paths = []
        for seed in (25, 26):
            path = tmp_path / f"q{seed}.json"
            main(["generate", "--tables", "5", "--seed", str(seed), "-o", str(path)])
            paths.append(str(path))
        return paths

    def serve(self, capsys, *argv) -> dict:
        capsys.readouterr()
        assert main(["serve-batch", *argv, "--json"]) == 0
        return json.loads(capsys.readouterr().out)

    def test_pool_persistent(self, two_queries, monkeypatch, capsys):
        doors = []
        open_door = cli._open_door

        def spying_open_door(args, settings):
            doors.append(open_door(args, settings))
            return doors[-1]

        monkeypatch.setattr(cli, "_open_door", spying_open_door)
        pooled = self.serve(
            capsys, *two_queries, "--pool", "persistent", "--workers", "2"
        )
        serial = self.serve(capsys, *two_queries, "--workers", "2")
        assert (pooled["pool"], serial["pool"]) == ("persistent", "serial")
        assert isinstance(doors[0].executor, PersistentProcessPoolExecutor)
        assert not isinstance(doors[1].executor, PersistentProcessPoolExecutor)

        def best_costs(report):
            return [result["best_cost"] for result in report["rounds"][0]["results"]]

        assert best_costs(pooled) == best_costs(serial)

    def test_cache_size(self, two_queries, capsys):
        def round_two(*flags):
            report = self.serve(capsys, *two_queries, "--repeat", "2", *flags)
            hits = [result["cached"] for result in report["rounds"][1]["results"]]
            return hits, report["stats"]["entries"]

        assert round_two() == ([True, True], 2)
        # One slot keeps only the answer stored last, so the first query's
        # repeat misses again.
        assert round_two("--cache-size", "1") == ([False, True], 1)

    def test_memory_only_json_keeps_the_lru_counters(self, two_queries, capsys):
        # Without --cache-dir every shard's cache has no disk tier, and its
        # counters still report hits, misses and evictions.
        assert repro.service.OptimizerService().cache.disk is None
        report = self.serve(
            capsys, *two_queries, "--repeat", "2", "--cache-size", "1",
            "--shards", "2",
        )
        caches = [shard["cache"] for shard in report["stats"]["shards"]]
        assert sum(cache["hits"] for cache in caches) >= 1
        assert sum(cache["misses"] for cache in caches) >= 2
        for cache in caches:
            assert {"hits", "misses", "evictions"} <= cache.keys()
            assert cache["disk_hits"] == cache["disk_writes"] == 0


class TestShardFleetCLI:
    def test_deployment_paths_reach_the_fleet(self, tmp_path, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(
            repro.service, "run_shard_fleet", lambda **kwargs: calls.append(kwargs)
        )
        socket_dir, log_dir = tmp_path / "run", tmp_path / "logs"
        argv = ["shard-fleet", "--shards", "2", "--socket-dir", str(socket_dir)]
        assert main(argv + ["--log-dir", str(log_dir)]) == 0
        [kwargs] = calls
        assert kwargs["n_shards"] == 2
        assert Path(kwargs["socket_dir"]) == socket_dir
        assert Path(kwargs["membership_path"]) == socket_dir / "membership.json"
        assert Path(kwargs["log_dir"]) == log_dir
        assert str(socket_dir) in capsys.readouterr().out


class TestServeBatchConnect:
    def test_batch_routed_to_a_running_shard_server(self, tmp_path, capsys):
        paths = []
        for seed in (23, 24):
            path = tmp_path / f"q{seed}.json"
            main(["generate", "--tables", "5", "--seed", str(seed), "-o", str(path)])
            paths.append(str(path))
        listen = f"unix:{tmp_path / 'shard.sock'}"
        argv = ["serve-batch", *paths, paths[0], "--connect", listen, "--json"]
        with ServerThread(listen, n_workers=2):
            capsys.readouterr()
            assert main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["connect"] == [listen]
        stats = report["stats"]
        assert set(stats) == {"requests", "breaker_rejections", "shards"}
        assert stats["requests"] == 3
        (shard,) = stats["shards"].values()
        assert shard["reachable"] is True
        # The repeated query is answered from the shard's cache or flight.
        assert shard["optimizations"] == 2


class TestCacheCLI:
    """serve-batch --cache-dir and the cache management subcommand."""

    @pytest.fixture
    def query_files(self, tmp_path):
        paths = []
        for seed in (11, 12):
            path = tmp_path / f"query-{seed}.json"
            assert (
                main([
                    "generate", "--tables", "5", "--seed", str(seed),
                    "-o", str(path),
                ])
                == 0
            )
            paths.append(str(path))
        return paths

    def serve(self, query_files, cache_dir, capsys, *extra):
        assert (
            main([
                "serve-batch", *query_files,
                "--cache-dir", str(cache_dir), "--json", *extra,
            ])
            == 0
        )
        return json.loads(capsys.readouterr().out)

    def test_cache_dir_survives_restart(self, tmp_path, query_files, capsys):
        cache_dir = tmp_path / "plans"
        cold = self.serve(query_files, cache_dir, capsys)
        assert [r["cached"] for r in cold["rounds"][0]["results"]] == [
            False,
            False,
        ]
        assert cold["cache_dir"] == str(cache_dir)
        # A second CLI invocation is a genuine process-restart stand-in at
        # the API boundary: new service, new memory tier, same logs.
        warm = self.serve(query_files, cache_dir, capsys)
        assert [r["cached"] for r in warm["rounds"][0]["results"]] == [
            True,
            True,
        ]
        assert warm["stats"]["cache"]["disk_hits"] == 2
        assert warm["stats"]["cache"]["misses"] == 0

    def test_sharded_json_with_tiers_is_serializable(
        self, tmp_path, query_files, capsys
    ):
        # Per-shard CacheStats, disk counters included, reach --json
        # through the one stats tree.
        payload = self.serve(
            query_files, tmp_path / "plans", capsys, "--shards", "2"
        )
        for shard in payload["stats"]["shards"]:
            assert "disk_hits" in shard["cache"]
        warm = self.serve(
            query_files, tmp_path / "plans", capsys, "--shards", "2"
        )
        shards = warm["stats"]["shards"]
        assert sum(shard["cache"]["disk_hits"] for shard in shards) == 2

    def test_text_output_reports_tiers(self, tmp_path, query_files, capsys):
        cache_dir = tmp_path / "plans"
        assert (
            main(["serve-batch", *query_files, "--cache-dir", str(cache_dir)])
            == 0
        )
        out = capsys.readouterr().out
        assert "cache.disk_hits: 0" in out and "cache.disk_writes: 2" in out

    def test_inspect_lists_provenance(self, tmp_path, query_files, capsys):
        cache_dir = tmp_path / "plans"
        self.serve(query_files, cache_dir, capsys)
        log = str(cache_dir / "shard-0.log")
        assert main(["cache", "inspect", log, "--json"]) == 0
        [report] = json.loads(capsys.readouterr().out)
        assert report["entries"] == 2
        for record in report["records"]:
            assert record["provenance"]["backend_used"] == AUTO_BACKEND
            assert record["provenance"]["created_at_s"] > 0
        # The human-readable rendering works on the same log.
        assert main(["cache", "inspect", log]) == 0
        assert f"backend={AUTO_BACKEND}" in capsys.readouterr().out

    def test_export_then_import_moves_entries(
        self, tmp_path, query_files, capsys
    ):
        cache_dir = tmp_path / "plans"
        self.serve(query_files, cache_dir, capsys)
        snapshot = str(tmp_path / "plans.snap")
        log = str(cache_dir / "shard-0.log")
        assert main(["cache", "export", log, "-o", snapshot]) == 0
        other = str(tmp_path / "other-shard.log")
        assert main(["cache", "import", snapshot, "--into", other]) == 0
        capsys.readouterr()
        assert main(["cache", "inspect", other, "--json"]) == 0
        [report] = json.loads(capsys.readouterr().out)
        assert report["entries"] == 2

    def created_at(self, log, capsys) -> dict[str, float]:
        capsys.readouterr()
        assert main(["cache", "inspect", str(log), "--json"]) == 0
        [report] = json.loads(capsys.readouterr().out)
        return {
            record["fingerprint"]: record["provenance"]["created_at_s"]
            for record in report["records"]
        }

    def test_import_keep_existing(self, tmp_path, query_files, capsys):
        # The target holds the first query; a later snapshot holds both, so
        # the first query's key collides with a newer entry.
        self.serve(query_files[:1], tmp_path / "target", capsys)
        self.serve(query_files, tmp_path / "source", capsys)
        target = tmp_path / "target" / "shard-0.log"
        snapshot = str(tmp_path / "source.snap")
        source = tmp_path / "source" / "shard-0.log"
        main(["cache", "export", str(source), "-o", snapshot])
        older = self.created_at(target, capsys)
        newer = self.created_at(snapshot, capsys)
        [collision] = older
        assert older[collision] < newer[collision]
        kept, replaced = tmp_path / "kept.log", tmp_path / "replaced.log"
        shutil.copy(target, kept)
        shutil.copy(target, replaced)
        capsys.readouterr()
        argv = ["cache", "import", snapshot, "--into"]
        assert main(argv + [str(kept), "--keep-existing"]) == 0
        assert "imported 1 entries" in capsys.readouterr().out
        assert main(argv + [str(replaced)]) == 0
        assert "imported 2 entries" in capsys.readouterr().out
        assert self.created_at(kept, capsys)[collision] == older[collision]
        assert self.created_at(replaced, capsys) == newer

    def test_invalidate_by_settings_signature(self, tmp_path, query_files, capsys):
        cache_dir = tmp_path / "plans"
        self.serve(query_files, cache_dir, capsys)
        self.serve(query_files[:1], cache_dir, capsys, "--orders")
        log = str(cache_dir / "shard-0.log")

        def signatures():
            capsys.readouterr()
            assert main(["cache", "inspect", log, "--json"]) == 0
            [report] = json.loads(capsys.readouterr().out)
            records = report["records"]
            return sorted(r["provenance"]["settings_signature"] for r in records)

        plain = settings_signature(OptimizerSettings())
        orders = settings_signature(OptimizerSettings(consider_orders=True))
        assert signatures() == sorted([plain, plain, orders])
        argv = ["cache", "invalidate", log, "--settings-signature", orders, "--json"]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["predicate"] == {"settings_signature": orders}
        assert payload["logs"][0]["invalidated"] == 1
        assert signatures() == [plain, plain]

    def test_invalidate_selectively_forces_reoptimization(
        self, tmp_path, query_files, capsys
    ):
        cache_dir = tmp_path / "plans"
        self.serve(query_files, cache_dir, capsys)
        log = str(cache_dir / "shard-0.log")
        assert (
            main([
                "cache", "invalidate", log,
                "--backend", AUTO_BACKEND, "--created-before", "1e12",
                "--json",
            ])
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["logs"][0]["invalidated"] == 2
        assert payload["logs"][0]["remaining"] == 0
        # The retired entries really are gone: the next serve re-optimizes.
        rerun = self.serve(query_files, cache_dir, capsys)
        assert [r["cached"] for r in rerun["rounds"][0]["results"]] == [
            False,
            False,
        ]

    def test_invalidate_misses_non_matching_backend(
        self, tmp_path, query_files, capsys
    ):
        cache_dir = tmp_path / "plans"
        self.serve(query_files, cache_dir, capsys)
        log = str(cache_dir / "shard-0.log")
        assert main(["cache", "invalidate", log, "--backend", "legacy"]) == 0
        assert "invalidated 0 entries, 2 remaining" in capsys.readouterr().out

    def test_invalidate_refuses_implicit_match_everything(self, tmp_path):
        log = str(tmp_path / "empty.log")
        with pytest.raises(SystemExit, match="match-everything"):
            main(["cache", "invalidate", log])
        with pytest.raises(SystemExit, match="cannot be combined"):
            main(["cache", "invalidate", log, "--all", "--backend", "fastdp"])

    def test_invalidate_all_flushes(self, tmp_path, query_files, capsys):
        cache_dir = tmp_path / "plans"
        self.serve(query_files, cache_dir, capsys)
        log = str(cache_dir / "shard-0.log")
        assert main(["cache", "invalidate", log, "--all"]) == 0
        assert "2 entries, 0 remaining" in capsys.readouterr().out


def _long_options(parser: argparse.ArgumentParser):
    """Every ``--flag`` of ``parser`` and its subcommands, argparse's own
    ``--help`` aside."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for command in action.choices.values():
                yield from _long_options(command)
        elif not isinstance(action, argparse._HelpAction):
            yield from (o for o in action.option_strings if o.startswith("--"))


def test_every_cli_flag_is_exercised():
    """A flag must appear literally in a test or in a module other than the
    CLI that passes it (the fleet's ``argv`` for the shard server), so an
    untested flag cannot be added silently."""
    root = Path(__file__).resolve().parent.parent
    cli_module = Path(cli.__file__).resolve()
    corpus = [path.read_text() for path in (root / "tests").rglob("*.py")] + [
        path.read_text()
        for path in Path(repro.service.__file__).resolve().parent.parent.rglob("*.py")
        if path.resolve() != cli_module
    ]
    untested = sorted(
        option
        for option in set(_long_options(cli._build_parser()))
        if not any(
            re.search(rf"(?<![\w-]){re.escape(option)}(?![\w-])", text)
            for text in corpus
        )
    )
    assert untested == []
