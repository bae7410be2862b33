#!/usr/bin/env python3
"""One line per solve of a benchmark workload's seeded pool.

    python3 tools/pool_records.py --workload desk --seed 1

Builds the pool of `perfbench/workloads.py` for the workload and seed
(`make_pool`), runs the workload's op on every item (`op`) and prints,
per solve, the record its own check keeps (`check(...)["records"]`):
pool item, label, support, reason, hybrid stage and the work counters
iterations, nodes_expanded, paths_opened, equivalent_hits and
singular_skips.  A failed solve prints its error instead.  BLAS is
pinned to one thread before numpy loads.  The benchmark's fingerprint
covers only the first ops of a pool; a change that claims to keep every
search decision runs this on its parent and on itself and diffs the two
outputs.  On a 2-core host desk and deep take a few seconds a seed and
image about ten.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import COUNTER_FIELDS, WORKLOADS  # noqa: E402


def record_line(index, record):
    """The text of one fingerprint record of pool item `index`."""
    if len(record) != 5:  # a failed solve: its label or "error", then the message
        return "%d %s" % (index, " ".join(str(part) for part in record))
    label, support, reason, stage, counters = record
    values = " ".join("%s=%d" % pair for pair in zip(COUNTER_FIELDS, counters))
    return "%d %s %s %s stage=%s %s" % (index, label, list(support), reason, stage, values)


def pool_lines(name, seed, items=None):
    """The record lines of the first `items` pool items (all by default)."""
    wl = WORKLOADS[name]()
    pool = wl.make_pool(seed)[:items]
    for index, item in enumerate(pool):
        for record in wl.check(item, wl.op(item))["records"]:
            yield record_line(index, record)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="one line per solve of a benchmark pool")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    for line in pool_lines(args.workload, args.seed):
        print(line)
