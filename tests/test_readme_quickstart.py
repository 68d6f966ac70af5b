"""Guards against doc rot: the README quickstart, executed verbatim, and
every script or report path the live docs tell a reader to use."""

from __future__ import annotations

import re
from pathlib import Path

from repro import (
    OptimizerSettings,
    PlanSpace,
    make_star_query,
    optimize_mpq,
    optimize_multi_objective,
    optimize_serial,
)
from repro.core.serial import best_plan

ROOT = Path(__file__).resolve().parents[1]

#: Documents that tell a reader what to run today.  CHANGES.md and ROADMAP.md
#: are history and SPEC.md is frozen, so they may name files that are gone.
LIVE_DOCS = ("README.md", ".github/workflows/ci.yml", ".claude/skills/verify/SKILL.md")

#: A repo-relative script or report path, not the tail of a longer path.
CITED_PATH = re.compile(
    r"(?<![\w/.-])(?:benchmarks/(?:[\w-]+/)*[\w-]+\.py|(?:tools|examples|tests)/[\w-]+\.py"
    r"|BENCH_\w+\.json)"
)


def test_readme_quickstart():
    query = make_star_query(10, seed=1)

    serial = optimize_serial(query)
    assert best_plan(serial).pretty()

    report = optimize_mpq(query, n_workers=16)
    assert report.best.cost[0] == best_plan(serial).cost[0]
    assert report.simulated_time_ms > 0
    assert report.network_bytes > 0
    assert report.max_worker_memory_relations > 0

    bushy = optimize_mpq(query, 8, OptimizerSettings(plan_space=PlanSpace.BUSHY))
    assert bushy.best.cost[0] <= report.best.cost[0] * (1 + 1e-9)

    frontier = optimize_multi_objective(query, 8, alpha=10.0)
    assert len(frontier.plans) >= 1


def test_every_cited_path_exists():
    cited = {
        (doc, path)
        for doc in LIVE_DOCS
        for path in CITED_PATH.findall((ROOT / doc).read_text(encoding="utf-8"))
    }
    assert ("README.md", "benchmarks/spine/run.py") in cited  # the regex still bites
    missing = sorted(f"{doc}: {path}" for doc, path in cited if not (ROOT / path).is_file())
    assert not missing, missing
