#!/usr/bin/env python3
"""Alternating parent/change pairs of one benchmark workload.

    python3 tools/ab_pairs.py PARENT CHANGE --workload desk --pairs 10 [--seed 1] [--seconds 40]

PARENT and CHANGE are two checkouts of the repository.  Each pair runs
`perfbench/run.py --trace 0` once in each, one run after the other (never
two at once), and the side that runs first alternates from pair to pair.
The last line of every run is parsed; a run that exits non-zero, reads
`"correct": false` or reports a failed op stops the tool with exit code 1.

Then, for every end-to-end metric of BENCHMARK.json, it prints both
medians, the parent's quartile spread (the distance between the quartiles
of its runs), how many pairs the change won (ties count for neither side),
and the change/parent ratio of the medians next to the metric's bound,
with "worse" where the change's median is worse than the parent's by more
than the bound.  The run length defaults to BENCHMARK.json's run_seconds.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_once(checkout, workload, seed, seconds):
    """The metric values of one benchmark run in `checkout`, by name."""
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError("%s exited %d: %s" % (checkout, proc.returncode, proc.stderr.strip()))
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    if not last["correct"] or last["failed"]:
        raise RuntimeError(
            "%s: correct=%s, %d failed ops" % (checkout, last["correct"], last["failed"])
        )
    return {name: metric["value"] for name, metric in last["metrics"].items()}


def summarize(parent_runs, change_runs, end_to_end):
    """One row per end-to-end metric from runs paired by index."""
    rows = []
    for metric in end_to_end:
        name, lower = metric["name"], metric["better"] == "lower"
        parent = [run[name] for run in parent_runs]
        change = [run[name] for run in change_runs]
        q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
        p_med, c_med = statistics.median(parent), statistics.median(change)
        ratio = c_med / p_med
        rows.append({
            "name": name,
            "parent": p_med,
            "change": c_med,
            "spread": q3 - q1,
            "wins": sum((c < p) if lower else (c > p) for p, c in zip(parent, change)),
            "pairs": len(parent),
            "ratio": ratio,
            "bound": metric["bound"],
            "worse": ratio > 1 + metric["bound"] if lower else ratio < 1 - metric["bound"],
        })
    return rows


def format_rows(rows):
    lines = ["%-14s %12s %12s %10s %6s %7s %6s" % (
        "metric", "parent", "change", "p-spread", "wins", "ratio", "bound")]
    for row in rows:
        lines.append("%-14s %12.4g %12.4g %10.3g %3d/%-2d %7.3f %6.2f%s" % (
            row["name"], row["parent"], row["change"], row["spread"], row["wins"],
            row["pairs"], row["ratio"], row["bound"], "  worse" if row["worse"] else ""))
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2: quartiles need two runs a side")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    checkouts = {"parent": args.parent, "change": args.change}
    runs = {"parent": [], "change": []}
    try:
        for i in range(args.pairs):
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                values = run_once(checkouts[side], args.workload, args.seed, seconds)
                runs[side].append(values)
                print("pair %d %s: %s" % (i + 1, side, " ".join(
                    "%s=%.6g" % (name, values[name]) for name in sorted(values))), flush=True)
    except RuntimeError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    print("%s, seed %d, %g s, %d pairs" % (args.workload, args.seed, seconds, args.pairs))
    print(format_rows(summarize(runs["parent"], runs["change"], bench["end_to_end"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
