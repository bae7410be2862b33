#!/usr/bin/env python3
"""One sha256 over the outputs of every solver label on fixed seeds.

    python3 tools/output_digest.py [--list]

Every label of `experiments.SOLVERS` solves the same fixed-seed problems:
five shapes, three value ensembles and two seeds each, and every problem
a second time on a dictionary whose columns come in adjacent twins
(`np.repeat(phi, 2, axis=1)[:, :n]`), where supports turn dependent.  The
hash covers, per solve, the label, support, reason, work counters,
hybrid stage, `residual_norm` and the bytes of `xhat`; a solve that
raises a numerical error contributes its message.  BLAS is pinned to one
thread before numpy loads.  A change that claims to leave every output
byte-identical runs this on its parent and on itself and shows the same
digest twice; the last line printed is the digest.  `--list` first prints
one line per solve, the problem name and the text head of its record
(label, support, reason, counters and stage, or the failure), so that a
change to the numerics can diff its solves against the parent's and
explain every line that differs; the digest stays the same.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import struct
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from treepursuit.experiments import SOLVERS, make_solver
from treepursuit.results import attempt
from treepursuit.siggen import gen_problem

# (M, N, K): K <= M / 2 so SP takes every shape
SHAPES = ((10, 16, 3), (20, 40, 5), (24, 64, 8), (32, 64, 10), (40, 80, 12))
ENSEMBLES = ("gaussian", "uniform", "cars")
SEEDS = (1, 2)
COUNTERS = ("iterations", "paths_opened", "nodes_expanded", "equivalent_hits", "singular_skips")


def problems():
    """(name, phi, y, k) of every problem, the twin-column variant after
    its original."""
    for m, n, k in SHAPES:
        for ensemble in ENSEMBLES:
            for seed in SEEDS:
                ens, inst = gen_problem(m, n, k, ensemble, seed)
                name = "%dx%d k=%d %s seed=%d" % (m, n, k, ensemble, seed)
                yield name, ens.phi, inst.y, k
                yield name + " twins", np.repeat(ens.phi, 2, axis=1)[:, :n], inst.y, k


def solve_record(label, phi, y, k):
    """The text head of one solve and the bytes it adds to the digest."""
    out, reason = attempt(make_solver(label), phi, y, k)
    if out is None:
        head = "%s failed %s\n" % (label, reason)
        return head, head.encode()
    counters = " ".join("%s=%d" % (key, getattr(out, key)) for key in COUNTERS)
    head = "%s %s %s %s stage=%s\n" % (
        label, list(out.support), out.reason, counters, out.hybrid_stage,
    )
    return head, head.encode() + struct.pack("<d", out.residual_norm) + out.xhat.tobytes()


def digest(listing=None):
    """(sha256, number of solves); each solve's problem name and head go
    to the text stream `listing` when one is given."""
    h = hashlib.sha256()
    solves = 0
    for name, phi, y, k in problems():
        h.update(name.encode())
        for label in SOLVERS:
            head, record = solve_record(label, phi, y, k)
            h.update(record)
            if listing is not None:
                listing.write("%s: %s" % (name, head))
            solves += 1
    return h.hexdigest(), solves


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="sha256 over every solver label's outputs")
    parser.add_argument("--list", action="store_true",
                        help="first print one line per solve: problem name and record head")
    args = parser.parse_args()
    value, solves = digest(sys.stdout if args.list else None)
    print("%d solves over %d labels" % (solves, len(SOLVERS)))
    print(value)
