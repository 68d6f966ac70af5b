"""Unit tests of the spine benchmark's own machinery (fast, no subprocesses).

Collected by tier-1.  They pin what a later PR relies on when it names a
metric from this benchmark: schedules are a pure function of the seed, the
tracer's self-time arithmetic is right, the normalisation is the stated
formula, and ``compare.py`` reaches the stated verdicts.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

import compare
import measure
import schedules
import tracer as tracing
import workloads
from oracle import Oracle, count_failures
from repro.core.serial import optimize_serial
from repro.service.fingerprint import fingerprint
from repro.service.service import ServiceResult

# ------------------------------------------------------------------- schedules

#: Digests of seed 0, computed once.  A process that derives a different
#: value has a different schedule: equal digests across *processes* is what
#: these constants assert (string-seeded ``random.Random`` and ``repr`` of
#: ints/floats/str do not depend on ``PYTHONHASHSEED``).
GOLDEN_SERVING = "b14031465a8a442c"
GOLDEN_CASES = "d938b211ab34f365"


def test_same_seed_same_schedule_and_golden_digest():
    first = schedules.serving_schedule(0, 300)
    second = schedules.serving_schedule(0, 300)
    assert schedules.schedule_digest(first) == schedules.schedule_digest(second)
    assert schedules.schedule_digest(first).startswith(GOLDEN_SERVING)
    cases = schedules.dp_cases(0, schedules.FANOUT_SHAPES)
    assert schedules.schedule_digest(cases) == schedules.schedule_digest(
        schedules.dp_cases(0, schedules.FANOUT_SHAPES)
    )
    assert schedules.schedule_digest(cases).startswith(GOLDEN_CASES)


def test_different_seed_different_schedule():
    digests = {
        schedules.schedule_digest(schedules.serving_schedule(seed, 300))
        for seed in range(4)
    }
    assert len(digests) == 4
    case_digests = {
        schedules.schedule_digest(schedules.dp_cases(seed, schedules.PROBE_SHAPES))
        for seed in range(4)
    }
    assert len(case_digests) == 4


def test_net_herd_replays_hot_hits_schedule():
    """Same request count, same digest: the gap between the two is the wire."""
    hot, net = workloads.SERVING["hot_hits"], workloads.SERVING["net_herd"]
    count = workloads.requests_per_round(hot, 9)
    assert count == workloads.requests_per_round(net, 9) == 4000
    assert count % hot.block == count % net.block == 0
    assert schedules.schedule_digest(
        workloads.base_schedule(hot, 3, 300)
    ) == schedules.schedule_digest(workloads.base_schedule(net, 3, 300))


def test_pool_structure_is_stratified_not_drawn():
    for seed in (0, 1):
        sizes = [query.n_tables for query in schedules.shape_pool(seed, 8)]
        assert sizes == [5, 6, 7, 8, 5, 6, 7, 8]


def test_relabel_and_novel_shares_are_realised():
    base = schedules.serving_schedule(5, 12000)
    requests, relabelled = schedules.relabel_round(base, 5, 1, 0.25)
    assert abs(relabelled / len(base) - 0.25) < 0.01
    again, _ = schedules.relabel_round(base, 5, 1, 0.25)
    assert schedules.schedule_digest(requests) == schedules.schedule_digest(again)
    other, _ = schedules.relabel_round(base, 5, 2, 0.25)
    assert schedules.schedule_digest(requests) != schedules.schedule_digest(other)
    _, novel = schedules.novel_round(base, 5, 1, 0.02)
    assert abs(len(novel) / len(base) - 0.02) < 0.01


def test_relabelled_request_keeps_its_fingerprint():
    base = schedules.serving_schedule(2, 40)
    requests, _ = schedules.relabel_round(base, 2, 0, 1.0)
    for before, after in zip(base, requests):
        assert after.query.name == before.query.name
        assert fingerprint(after.query, after.settings, after.n_workers) == fingerprint(
            before.query, before.settings, before.n_workers
        )


def test_novel_shapes_are_new_every_round():
    base = schedules.serving_schedule(2, 600)
    first, positions_1 = schedules.novel_round(base, 2, 1, 0.05)
    second, positions_2 = schedules.novel_round(base, 2, 2, 0.05)
    names_1 = {first[i].query.name for i in positions_1}
    names_2 = {second[i].query.name for i in positions_2}
    assert names_1 and names_2 and not names_1 & names_2
    assert all(first[i].rank == -1 for i in positions_1)


# ---------------------------------------------------------------------- tracer


def test_self_time_nested_adjacent_and_overlapping_children():
    spans = [
        ["root", 0, 100, -1, 1],  # 0
        ["nested", 10, 50, 0, 1],  # 1: child of root
        ["leaf", 20, 30, 1, 1],  # 2: child of nested
        ["adjacent", 50, 60, 0, 1],  # 3: starts where `nested` ends
        ["overlap-a", 70, 90, 0, 1],  # 4
        ["overlap-b", 80, 95, 0, 1],  # 5: overlaps 4 by 10
    ]
    selfs = tracing.self_times_ns(spans)
    # root: 100 - (40 + 10 + union(70..95) = 25) = 25
    assert selfs == [25, 30, 10, 10, 20, 15]


def test_self_time_clips_children_to_the_parent():
    spans = [["parent", 10, 20, -1, 1], ["late-child", 15, 40, 0, 1]]
    assert tracing.self_times_ns(spans) == [5, 25]
    assert tracing.covered_ns([(0, 5), (3, 8), (20, 30)], 2, 25) == 11


def test_tracer_records_parent_and_request(tmp_path):
    recorder = tracing.Tracer()
    root = recorder.begin("request", request=7)
    child = recorder.begin("door", root, 7)
    assert recorder.end(child) >= 0
    recorder.end(root)
    assert recorder.spans[child][3] == root and recorder.spans[child][4] == 7
    recorder.write(tmp_path / "trace.json", {"workload": "x"})
    document = json.loads((tmp_path / "trace.json").read_text())
    assert document["fields"] == ["name", "start_ns", "end_ns", "parent", "request"]
    assert document["summary"]["door"]["count"] == 1
    assert len(document["spans"]) == 2


# --------------------------------------------------------------------- measure


def test_round_metrics_scale_each_block_by_its_own_calibration():
    fast = measure.Block(1.0, 1.0, [0.001] * 100, measure.CAL_REF_S)
    slow = measure.Block(2.0, 2.0, [0.002] * 100, 2 * measure.CAL_REF_S)
    metrics = measure.round_metrics([fast, slow])
    # the slow block ran at half speed: normalised it equals the fast one
    assert metrics["throughput_rps"] == pytest.approx(100.0)
    assert metrics["latency_p50_ms"] == pytest.approx(1.0)
    assert metrics["latency_p95_ms"] == pytest.approx(1.0)
    assert metrics["cpu_ms_per_request"] == pytest.approx(10.0)
    assert metrics["raw.throughput_rps"] == pytest.approx(200 / 3.0)
    assert metrics["requests"] == 200 and metrics["samples_beyond_p95"] == 10


def test_summary_reports_median_quartiles_and_rounds():
    entry = measure.summary([5.0, 1.0, 3.0, 2.0, 4.0])
    assert entry["median"] == 3.0 and entry["q1"] == 1.5 and entry["q3"] == 4.5
    assert entry["rounds"] == [5.0, 1.0, 3.0, 2.0, 4.0]
    assert measure.summary([7.0])["q1"] == 7.0


def test_calibration_and_process_tree_read_something():
    assert 0.0 < measure.calibrate() < 1.0
    tree = measure.ProcessTree()
    tree.refresh()
    assert tree.pids[0] > 0 and tree.cpu_s() > 0.0 and tree.peak_rss_mb() > 1.0


# ---------------------------------------------------------------------- oracle


def test_oracle_accepts_the_reference_and_rejects_a_wrong_cost():
    request = schedules.serving_schedule(1, 30)[0]
    request = dataclasses.replace(request, feature="plain", theta=None)
    plans = optimize_serial(request.query, request.settings).plans
    good = ServiceResult(plans, 1, "f", False, 0.0, 0)
    oracle = Oracle()
    assert count_failures(oracle, [request], [good]) == []
    worse = dataclasses.replace(plans[0], cost=(plans[0].cost[0] * 1.001,))
    bad = ServiceResult([worse], 1, "f", False, 0.0, 0)
    assert len(count_failures(oracle, [request], [bad])) == 1
    assert len(count_failures(oracle, [request], [RuntimeError("refused")])) == 1


# --------------------------------------------------------------------- compare


def _entry(values):
    return measure.summary(values)


@pytest.mark.parametrize(
    "base, change, better, expected",
    [
        ([10, 10.1, 9.9, 10, 10], [10.3, 10.2, 10.4, 10.3, 10.3], "lower", "within"),
        ([10, 10.1, 9.9, 10, 10], [12, 12.1, 11.9, 12, 12], "lower", "regressed"),
        ([10, 10.1, 9.9, 10, 10], [8, 8.1, 7.9, 8, 8], "lower", "improved"),
        ([10, 10.1, 9.9, 10, 10], [8, 8.1, 7.9, 8, 8], "higher", "regressed"),
        ([10, 13, 8, 11, 9], [10.5, 13, 8, 12, 9], "lower", "unresolved"),
        ([10, 13, 8, 11, 9], [5, 6, 4, 5.5, 4.5], "lower", "improved"),
    ],
)
def test_compare_verdicts(base, change, better, expected):
    assert compare.verdict(_entry(base), _entry(change), better, 0.10) == expected


def test_compare_rows_carry_base_and_bound():
    metrics = [{"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1}]
    a = {"w": {"end_to_end": {"latency_p50_ms": _entry([1.0, 1.0, 1.0])}}}
    b = {"w": {"end_to_end": {"latency_p50_ms": _entry([1.2, 1.2, 1.2])}}}
    (row,) = compare.compare(a, b, metrics)
    assert row["verdict"] == "regressed"
    assert row["relative_change"] == pytest.approx(0.2)
    assert row["base"]["median"] == 1.0 and row["bound"] == 0.1


def test_compare_notes_sides_whose_calibration_or_python_differ():
    def side(python, calibration):
        return {
            "w": {
                "environment": {"python": python, "numpy": "2"},
                "client": {"calibration_ms": [calibration] * 5},
            }
        }

    assert compare.comparability_notes(side("3.11", 0.9), side("3.11", 1.0)) == []
    notes = compare.comparability_notes(side("3.11", 0.9), side("3.12", 1.2))
    assert len(notes) == 2 and "python" in notes[0] and "calibration" in notes[1]


def test_compare_merges_a_set_of_runs_into_run_medians(tmp_path):
    names = []
    for index, median in enumerate((1.0, 2.0, 3.0)):
        entry = {"median": median, "q1": median, "q3": median, "rounds": [median]}
        path = tmp_path / f"run{index}.json"
        path.write_text(
            json.dumps({"workloads": {"w": {"end_to_end": {"latency_p50_ms": entry}}}})
        )
        names.append(str(path))
    merged = compare.load_side(",".join(names))["w"]["end_to_end"]["latency_p50_ms"]
    assert merged["median"] == 2.0 and merged["rounds"] == [1.0, 2.0, 3.0]
    single = compare.load_side(names[0])["w"]["end_to_end"]["latency_p50_ms"]
    assert single["median"] == 1.0
