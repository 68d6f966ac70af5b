"""Upgrade corpus: plan-cache logs written by earlier versions keep serving.

Each log under ``tests/data/`` was filled by an older checkout of this
repository and committed as is.  Opening one with today's code must serve
every key it holds with zero DP runs — which is also the proof that neither
fingerprints nor settings signatures moved — and the ``cache`` commands
must read and rewrite it.

``registry-era.log`` was written while a backend-registry generation was
still stamped into every provenance record; today's decoder ignores that
key.  ``simulated-era-export.log`` (a ``cache export`` file) and
``simulated-era-snapshot.json`` (a fleet snapshot frame, the
``snapshot_to_wire`` payload a shard ships when rebalancing) were written
while every entry still carried a modelled ``"simulated"`` cluster timing;
today's decoder ignores that block too.  ``nested-era.log`` was written
while plans were stored as nested objects, one per node, before the flat
post-order rows; today's decoder still reads that form, and tells it from
the rows by its JSON type.

To write an artifact for a new corpus entry, put the older checkout's
``src`` first on ``PYTHONPATH`` and run::

    python tests/test_upgrade_corpus.py OUT.log    # a disk-tier log
    python tests/test_upgrade_corpus.py OUT.json   # a snapshot frame

and, for an export file, ``python -m repro cache export OUT.log -o
EXPORT.log`` with the same ``PYTHONPATH``.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import pytest

from repro.algorithms.pqo import parametric_settings
from repro.cluster.executors import SerialPartitionExecutor
from repro.cluster.serialization import (
    settings_to_wire,
    snapshot_from_wire,
    snapshot_to_wire,
)
from repro.config import MULTI_OBJECTIVE, Backend, OptimizerSettings
from repro.query.generator import SteinbrunnGenerator
from repro.query.io import query_to_dict
from repro.query.query import JoinGraphKind
from repro.service import DiskTier, OptimizerService, ServiceResult, TieredPlanCache
from repro.service.net import result_from_wire
from repro.service.tiers import LOG_MAGIC

DATA = Path(__file__).parent / "data"
REGISTRY_ERA_LOG = DATA / "registry-era.log"
SIMULATED_ERA_EXPORT = DATA / "simulated-era-export.log"
SIMULATED_ERA_SNAPSHOT = DATA / "simulated-era-snapshot.json"
NESTED_ERA_LOG = DATA / "nested-era.log"

WORKERS = 2

#: One entry per cached query class: ``name -> (query, settings)``.
CORPUS = {
    "plain": (
        SteinbrunnGenerator(seed=81).query(6, JoinGraphKind.CHAIN),
        OptimizerSettings(),
    ),
    "orders": (
        SteinbrunnGenerator(seed=82, clustered_tables=True).query(6, JoinGraphKind.STAR),
        OptimizerSettings(consider_orders=True),
    ),
    "parametric": (  # a three-plan envelope: two switching θ
        SteinbrunnGenerator(seed=259, clustered_tables=True).query(6, JoinGraphKind.CHAIN),
        parametric_settings(),
    ),
    "multi": (
        SteinbrunnGenerator(seed=84).query(6, JoinGraphKind.STAR),
        OptimizerSettings(objectives=MULTI_OBJECTIVE),
    ),
}


def write_corpus(path: str) -> None:
    """Fill a fresh disk-tier log at ``path`` with one entry per case."""
    cache = TieredPlanCache(memory_capacity=0, disk=DiskTier(path))
    with OptimizerService(
        n_workers=WORKERS, executor=SerialPartitionExecutor(), cache=cache
    ) as service:
        for query, settings in CORPUS.values():
            service.optimize(query, settings)


def write_snapshot_frame(path: str) -> None:
    """Write one snapshot frame holding one entry per case to ``path``."""
    cache = TieredPlanCache(memory_capacity=len(CORPUS))
    with OptimizerService(
        n_workers=WORKERS, executor=SerialPartitionExecutor(), cache=cache
    ) as service:
        for query, settings in CORPUS.values():
            service.optimize(query, settings)
        frame = snapshot_to_wire(cache.export_records())
    Path(path).write_text(json.dumps(frame, separators=(",", ":")) + "\n")


def test_registry_era_log_is_what_it_claims():
    records = [json.loads(line) for line in REGISTRY_ERA_LOG.read_text().splitlines()]
    puts = [record for record in records if record.get("t") == "put"]
    assert len(puts) == len(CORPUS)
    assert all("registry_generation" in put["entry"]["provenance"] for put in puts)


def serve_corpus_without_dp(cache: TieredPlanCache) -> dict[str, ServiceResult]:
    """Serve every case from ``cache`` and require zero DP runs."""
    from tests.test_tiers import CountingSerialExecutor

    executor = CountingSerialExecutor()
    with OptimizerService(n_workers=WORKERS, executor=executor, cache=cache) as service:
        served = {
            name: service.optimize(query, settings)
            for name, (query, settings) in CORPUS.items()
        }
    assert executor.calls == 0
    assert all(result.cached for result in served.values())
    return served


def assert_fresh_plans(served: dict[str, list]) -> None:
    """Each case's served plans equal a fresh run's on the reference core."""
    with OptimizerService(
        n_workers=WORKERS, executor=SerialPartitionExecutor()
    ) as reference:
        for name, (query, settings) in CORPUS.items():
            fresh = reference.optimize(query, settings.replace(backend=Backend.LEGACY))
            assert served[name] == fresh.plans, name


def test_registry_era_log_serves_every_key_without_dp(tmp_path):
    log = tmp_path / "cache.log"
    shutil.copyfile(REGISTRY_ERA_LOG, log)
    served = serve_corpus_without_dp(
        TieredPlanCache(memory_capacity=0, disk=DiskTier(log))
    )
    assert {name: result.backend_used for name, result in served.items()} == {
        "plain": "vecdp",
        "orders": "fastdp",
        "parametric": "fastdp",
        "multi": "vecdp",
    }
    assert_fresh_plans({name: result.plans for name, result in served.items()})


def log_puts(log: Path) -> list[dict]:
    records = [json.loads(line) for line in log.read_text().splitlines()]
    return [record for record in records if record.get("t") == "put"]


def test_nested_era_log_is_what_it_claims():
    puts = log_puts(NESTED_ERA_LOG)
    assert len(puts) == len(CORPUS)
    assert all(type(plan) is dict for put in puts for plan in put["entry"]["plans"])


def test_nested_era_log_serves_every_key_without_dp(tmp_path):
    log = tmp_path / "cache.log"
    shutil.copyfile(NESTED_ERA_LOG, log)
    served = serve_corpus_without_dp(
        TieredPlanCache(memory_capacity=0, disk=DiskTier(log))
    )
    assert_fresh_plans({name: result.plans for name, result in served.items()})


def test_nested_era_log_after_flat_appends_reopens_and_serves_both_forms(tmp_path):
    """Today's appends land as flat rows in the older log; reopened, it
    serves its nested entries and the new flat ones, all without DP."""
    log = tmp_path / "cache.log"
    shutil.copyfile(NESTED_ERA_LOG, log)
    extra = SteinbrunnGenerator(seed=85).query(5, JoinGraphKind.CYCLE)
    with OptimizerService(
        n_workers=WORKERS,
        executor=SerialPartitionExecutor(),
        cache=TieredPlanCache(memory_capacity=0, disk=DiskTier(log)),
    ) as service:
        fresh = service.optimize(extra)
    assert not fresh.cached
    forms = [type(put["entry"]["plans"][0]) for put in log_puts(log)]
    assert forms == [dict] * len(CORPUS) + [list]

    from tests.test_tiers import CountingSerialExecutor

    executor = CountingSerialExecutor()
    cache = TieredPlanCache(memory_capacity=0, disk=DiskTier(log))
    with OptimizerService(n_workers=WORKERS, executor=executor, cache=cache) as service:
        again = service.optimize(extra)
        served = {name: service.optimize(query, settings) for name, (query, settings) in CORPUS.items()}
    assert executor.calls == 0 and again.cached and again.plans == fresh.plans
    assert all(result.cached for result in served.values())
    assert_fresh_plans({name: result.plans for name, result in served.items()})


def simulated_era_records(artifact: Path) -> list[dict]:
    """The ``put`` records of a committed export file or snapshot frame."""
    if artifact.suffix == ".json":
        return snapshot_from_wire(json.loads(artifact.read_text()))
    return [json.loads(line) for line in artifact.read_text().splitlines()[1:]]


SIMULATED_ERA = pytest.mark.parametrize(
    "artifact", [SIMULATED_ERA_EXPORT, SIMULATED_ERA_SNAPSHOT], ids=lambda path: path.name
)


@SIMULATED_ERA
def test_simulated_era_artifact_is_what_it_claims(artifact):
    records = simulated_era_records(artifact)
    assert len(records) == len(CORPUS)
    assert all("simulated" in record["entry"] for record in records)


@SIMULATED_ERA
def test_simulated_era_artifact_loads_through_cache_import(artifact, tmp_path, capsys):
    from repro.cli import main

    snapshot = artifact
    if artifact.suffix == ".json":  # the frame's records as a snapshot file
        snapshot = tmp_path / "frame.snap"
        snapshot.write_text(
            "".join(
                json.dumps(record) + "\n"
                for record in (LOG_MAGIC, *simulated_era_records(artifact))
            )
        )
    log = tmp_path / "cache.log"
    assert main(["cache", "import", str(snapshot), "--into", str(log)]) == 0
    assert capsys.readouterr().out.startswith(f"imported {len(CORPUS)} entries")
    served = serve_corpus_without_dp(
        TieredPlanCache(memory_capacity=0, disk=DiskTier(log))
    )
    assert_fresh_plans({name: result.plans for name, result in served.items()})


@SIMULATED_ERA
def test_simulated_era_artifact_loads_through_a_shard_servers_import(artifact, tmp_path):
    from tests.test_fleet import request
    from tests.test_net import ServerThread

    frame = snapshot_to_wire(simulated_era_records(artifact))
    with ServerThread(f"unix:{tmp_path / 'shard.sock'}", n_workers=WORKERS) as server:
        imported = request(server, {"op": "snapshot", "mode": "import", "snapshot": frame})
        assert imported["imported"] == len(CORPUS)
        served = {}
        for name, (query, settings) in CORPUS.items():
            response = request(
                server,
                {
                    "op": "optimize",
                    "query": query_to_dict(query),
                    "settings": settings_to_wire(settings),
                },
            )
            assert response["result"]["cached"] is True, name
            served[name] = result_from_wire(response["result"]).plans
        assert request(server, {"op": "stats"})["stats"]["optimizations"] == 0
    assert_fresh_plans(served)


def test_cache_commands_read_and_rewrite_the_log(tmp_path, capsys):
    from repro.cli import main

    log = tmp_path / "cache.log"
    shutil.copyfile(REGISTRY_ERA_LOG, log)
    assert main(["cache", "inspect", str(log), "--json"]) == 0
    [report] = json.loads(capsys.readouterr().out)
    assert report["entries"] == len(CORPUS)
    backends = sorted(record["provenance"]["backend_used"] for record in report["records"])
    assert backends == ["fastdp", "fastdp", "vecdp", "vecdp"]
    assert main(["cache", "inspect", str(log)]) == 0
    assert capsys.readouterr().out.count("backend=") == len(CORPUS)

    assert main(["cache", "invalidate", str(log), "--backend", "fastdp", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["predicate"] == {"backend": "fastdp"}
    assert payload["logs"][0]["invalidated"] == 2
    with DiskTier(log) as tier:
        assert sorted(prov.backend_used for __, prov, __kind in tier.entries()) == [
            "vecdp",
            "vecdp",
        ]


if __name__ == "__main__":
    if sys.argv[1].endswith(".json"):
        write_snapshot_frame(sys.argv[1])
    else:
        write_corpus(sys.argv[1])
