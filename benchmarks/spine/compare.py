#!/usr/bin/env python3
"""Compare two result files of the spine benchmark, metric by metric.

    python3 benchmarks/spine/compare.py A.json B.json
    python3 benchmarks/spine/compare.py A1.json,A2.json,... B1.json,B2.json,...

``A`` is the base (parent), ``B`` the change; both are files written by
``run.py --json`` (or one workload's ``out/result-<workload>.json``).  A side
given as several comma-separated files is a *set of runs*: each run
contributes its median, and the side's median, quartiles and spread are taken
over the runs instead of over one run's rounds.  For
every (workload, end-to-end metric) pair the table gives both medians with
their quartiles, the relative change *with its base*, and a verdict against
the bound fixed in ``BENCHMARK.json``:

* ``within``     — no worse than the bound, no better than it either;
* ``improved``   — better by more than the bound;
* ``regressed``  — worse by more than the bound (exit status 1);
* ``unresolved`` — the spread between rounds or runs (IQR / median, either
  side) is wider than the bound, so the medians cannot settle it — unless
  every value of one side reads better than every value of the other.

Times are normalised by a calibration kernel (SPEC.md), which is only fair
between two sides whose kernel ran alike: a note is printed when the sides'
Python or numpy versions differ, or their calibration medians differ by more
than 15 % — compare the raw medians in the result files then.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def load_results(path: Path) -> dict[str, dict]:
    """``{workload: result}`` from a ``--json`` file or a single result."""
    document = json.loads(path.read_text())
    if "workloads" in document:
        return document["workloads"]
    return {document["workload"]: document}


def load_side(argument: str) -> dict[str, dict]:
    """One side of the comparison: a file, or a comma-separated set of runs."""
    runs = [load_results(Path(name)) for name in argument.split(",")]
    if len(runs) == 1:
        return runs[0]
    merged: dict[str, dict] = {}
    for workload in runs[0]:
        entries: dict[str, dict] = {}
        for name in runs[0][workload].get("end_to_end", {}):
            medians = [
                run[workload]["end_to_end"][name]["median"]
                for run in runs
                if name in run.get(workload, {}).get("end_to_end", {})
            ]
            q1, median, q3 = statistics.quantiles(medians, n=4)
            entries[name] = {"median": median, "q1": q1, "q3": q3, "rounds": medians}
        merged[workload] = {
            "end_to_end": entries,
            "environment": runs[0][workload].get("environment", {}),
            "client": {
                "calibration_ms": [
                    value
                    for run in runs
                    if (value := calibration_ms(run.get(workload, {}))) is not None
                ]
            },
        }
    return merged


def calibration_ms(result: dict) -> float | None:
    """Median calibration-kernel time over a result's rounds (or runs)."""
    values = result.get("client", {}).get("calibration_ms")
    return statistics.median(values) if values else None


def comparability_notes(base: dict[str, dict], change: dict[str, dict]) -> list[str]:
    """Reasons the normalised values of the two sides may not be comparable."""
    notes = []
    for workload, left in base.items():
        right = change.get(workload)
        if right is None:
            continue
        for key in ("python", "numpy"):
            a = left.get("environment", {}).get(key)
            b = right.get("environment", {}).get(key)
            if a != b:
                notes.append(f"{workload}: {key} {a} vs {b}")
        a, b = calibration_ms(left), calibration_ms(right)
        if a and b and max(a, b) / min(a, b) > 1.15:
            notes.append(f"{workload}: calibration {a:.3f} ms vs {b:.3f} ms")
    return notes


def relative_spread(entry: dict) -> float:
    return (entry["q3"] - entry["q1"]) / entry["median"] if entry["median"] else 0.0


def worsening(base: float, change: float, better: str) -> float:
    """Relative change, signed so that positive means *worse*."""
    if better == "lower":
        return (change - base) / base
    return (base - change) / base


def verdict(base: dict, change: dict, better: str, bound: float) -> str:
    worse = worsening(base["median"], change["median"], better)
    if max(relative_spread(base), relative_spread(change)) > bound:
        sign = 1.0 if better == "lower" else -1.0
        base_rounds = [sign * value for value in base["rounds"]]
        change_rounds = [sign * value for value in change["rounds"]]
        if max(change_rounds) < min(base_rounds) and worse < -bound:
            return "improved"
        if min(change_rounds) > max(base_rounds) and worse > bound:
            return "regressed"
        return "unresolved"
    if worse > bound:
        return "regressed"
    if worse < -bound:
        return "improved"
    return "within"


def compare(base: dict[str, dict], change: dict[str, dict], metrics: list[dict]) -> list[dict]:
    """One row per (workload, metric) present on both sides."""
    rows = []
    for workload, base_result in base.items():
        change_result = change.get(workload)
        if change_result is None or "end_to_end" not in base_result:
            continue
        for metric in metrics:
            name = metric["name"]
            left = base_result["end_to_end"].get(name)
            right = change_result.get("end_to_end", {}).get(name)
            if left is None or right is None:
                continue
            rows.append(
                {
                    "workload": workload,
                    "metric": name,
                    "unit": metric["unit"],
                    "base": left,
                    "change": right,
                    "relative_change": (right["median"] - left["median"]) / left["median"],
                    "bound": metric["bound"],
                    "verdict": verdict(left, right, metric["better"], metric["bound"]),
                }
            )
    return rows


def _cell(entry: dict) -> str:
    return f"{entry['median']:.4g} [{entry['q1']:.4g}, {entry['q3']:.4g}]"


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    base, change = load_side(args[0]), load_side(args[1])
    rows = compare(base, change, metrics)
    for note in comparability_notes(base, change):
        print(f"NOTE normalised times may not be comparable — {note}")
    print(
        f"{'workload':<13} {'metric':<22} {'A median [q1, q3]':<32} "
        f"{'B median [q1, q3]':<32} {'change vs A':>12} {'bound':>6}  verdict"
    )
    for row in rows:
        print(
            f"{row['workload']:<13} {row['metric']:<22} {_cell(row['base']):<32} "
            f"{_cell(row['change']):<32} {row['relative_change']:>+11.1%} "
            f"{row['bound']:>6.0%}  {row['verdict']} ({row['unit']}, base {row['base']['median']:.4g})"
        )
    counts: dict[str, int] = {}
    for row in rows:
        counts[row["verdict"]] = counts.get(row["verdict"], 0) + 1
    print(", ".join(f"{count} {name}" for name, count in sorted(counts.items())))
    return 1 if counts.get("regressed") else 0


if __name__ == "__main__":
    sys.exit(main())
