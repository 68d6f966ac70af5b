#!/usr/bin/env python3
"""Spine benchmark: one command, four workloads, every metric by name.

    python3 benchmarks/spine/run.py --workload <name|all> --seed N \
        [--seconds S] [--trace [0|1]] [--json PATH]

Builds each stack through its public API, replays a seeded fixed schedule,
prints every metric with its unit, verifies every answer against an
independent reference, and exits non-zero on a failed check.  The last line
of standard output is the result object the driver parses.  SPEC.md records
why each workload exists and which layer metric should move which
end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))
if str(ROOT / "src") not in sys.path:
    sys.path.insert(1, str(ROOT / "src"))


def contract_line(result: dict, per_layer_units: dict[str, str]) -> str:
    """The one JSON object the driver reads from the last line of stdout."""
    if result["trace"]:
        metrics = {
            name: {"value": result["per_layer"][name], "unit": unit}
            for name, unit in per_layer_units.items()
        }
    else:
        metrics = {
            name: {"value": entry["median"], "unit": entry["unit"]}
            for name, entry in result["end_to_end"].items()
        }
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics,
        }
    )


def print_report(result: dict, per_layer_units: dict[str, str]) -> None:
    env = result["environment"]
    print(
        f"== {result['workload']}  seed={env['seed']} nproc={env['nproc']} "
        f"python={env['python']} numpy={env['numpy']} commit={env['git_commit']}"
    )
    print(f"   schedule sha256 {result['schedule_sha256']}")
    print(f"   backend_used {env.get('backend_used')}")
    if result["trace"]:
        for name, unit in per_layer_units.items():
            print(f"   {name:<50} {result['per_layer'][name]:>16.4f} {unit}")
    else:
        print(
            f"   {'metric (normalised, see SPEC.md)':<34} {'median':>12} {'q1':>12} "
            f"{'q3':>12} unit    (raw median)"
        )
        for name, entry in result["end_to_end"].items():
            raw = entry.get("raw_median")
            print(
                f"   {name:<34} {entry['median']:>12.4f} {entry['q1']:>12.4f} "
                f"{entry['q3']:>12.4f} {entry['unit']:<7}"
                + (f" ({raw:.4f})" if raw is not None else "")
            )
        client = result["client"]
        flagged = (
            f" — NOISY rounds {client['noisy_round_indices']}: kept, not dropped"
            if client["noisy_rounds"]
            else ""
        )
        print(
            f"   {env['rounds']} rounds x {client['requests_per_round']} requests, "
            f"{client['samples_beyond_p95_per_round']} samples beyond p95 per round; "
            f"client.noisy_rounds={client['noisy_rounds']}{flagged}"
        )
    print(
        f"   attempted={result['attempted']} failed={result['failed']} "
        f"failed_share={result['failed_share']:.6f} correct={result['correct']}"
    )
    for failure in result["failures"]:
        print(f"   CHECK FAILED: {failure}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=(__doc__ or "").split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", nargs="?", const=1, default=0, type=int, choices=(0, 1))
    parser.add_argument("--json", type=Path, help="also write every result to this file")
    parser.add_argument("--setup-probe", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        import workloads
    except ImportError as error:
        print(f"cannot import the program under test: {error}", file=sys.stderr)
        return 2
    if args.setup_probe:
        return workloads.setup_probe(args.setup_probe)
    if args.workload != "all" and args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer_units = {metric["name"]: metric["unit"] for metric in benchmark["per_layer"]}
    seconds = args.seconds if args.seconds is not None else workloads.REFERENCE_SECONDS
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    for name in names:
        result = workloads.run_workload(name, args.seed, seconds, bool(args.trace))
        results[name] = result
        print_report(result, per_layer_units)
        suffix = "-trace" if args.trace else ""
        (out / f"result-{name}{suffix}.json").write_text(json.dumps(result, indent=1))
    if args.json:
        args.json.write_text(json.dumps({"workloads": results}, indent=1))
    for name in names:
        print(contract_line(results[name], per_layer_units))
    return 0 if all(result["correct"] for result in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
