"""Upgrade corpus: plan-cache logs written by earlier versions keep serving.

Each log under ``tests/data/`` was filled by an older checkout of this
repository and committed as is.  Opening one with today's code must serve
every key it holds with zero DP runs — which is also the proof that neither
fingerprints nor settings signatures moved — and the ``cache`` commands
must read and rewrite it.

``registry-era.log`` was written while a backend-registry generation was
still stamped into every provenance record; today's decoder ignores that
key.  To write a log for a new corpus entry, put the older checkout's
``src`` first on ``PYTHONPATH`` and run::

    python tests/test_upgrade_corpus.py OUT.log
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

from repro.algorithms.pqo import parametric_settings
from repro.cluster.executors import SerialPartitionExecutor
from repro.config import MULTI_OBJECTIVE, Backend, OptimizerSettings
from repro.query.generator import SteinbrunnGenerator
from repro.query.query import JoinGraphKind
from repro.service import DiskTier, OptimizerService, TieredPlanCache

REGISTRY_ERA_LOG = Path(__file__).parent / "data" / "registry-era.log"

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


def test_registry_era_log_is_what_it_claims():
    records = [json.loads(line) for line in REGISTRY_ERA_LOG.read_text().splitlines()]
    puts = [record for record in records if record.get("t") == "put"]
    assert len(puts) == len(CORPUS)
    assert all("registry_generation" in put["entry"]["provenance"] for put in puts)


def test_registry_era_log_serves_every_key_without_dp(tmp_path):
    from tests.test_tiers import CountingSerialExecutor

    log = tmp_path / "cache.log"
    shutil.copyfile(REGISTRY_ERA_LOG, log)
    executor = CountingSerialExecutor()
    cache = TieredPlanCache(memory_capacity=0, disk=DiskTier(log))
    with OptimizerService(n_workers=WORKERS, executor=executor, cache=cache) as service:
        served = {
            name: service.optimize(query, settings)
            for name, (query, settings) in CORPUS.items()
        }
    assert executor.calls == 0
    assert all(result.cached for result in served.values())
    assert {name: result.backend_used for name, result in served.items()} == {
        "plain": "vecdp",
        "orders": "fastdp",
        "parametric": "fastdp",
        "multi": "vecdp",
    }
    with OptimizerService(
        n_workers=WORKERS, executor=SerialPartitionExecutor()
    ) as reference:
        for name, (query, settings) in CORPUS.items():
            fresh = reference.optimize(query, settings.replace(backend=Backend.LEGACY))
            assert served[name].plans == fresh.plans, name


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
    write_corpus(sys.argv[1])
