#!/usr/bin/env python3
"""Per-solve times of two source trees, interleaved in one process.

    python3 tools/solve_pairs.py PARENT CHANGE --workload image [--seed 1] [--items 8]

PARENT and CHANGE are two checkouts of the repository.  The
`src/treepursuit` of each is copied under a private package name into a
temporary directory and imported, so both trees run in this process.
The solves are those of the benchmark's seeded pools, built by the
change's tree: for `image`, the 64 block problems of each of the first
`--items` images (64x64, K = 12, M = 40, the image command's search
settings, recorded from `recover_image`); for `desk`, the first
`--items` problems (256/100/30, Gaussian) under aomp, hybrid, omp and
sp.  Each solve runs once in each tree, timed alone, and the side that
runs first alternates from solve to solve of each label, so a drift of
the host's speed, and the warm cache of a second run, fall on both sides
alike.

A difference in a decision (support, reason, hybrid stage or any of the
five work counters) stops the tool with exit code 1 and names the solve.
Otherwise it prints how many solves differ in the bytes of xhat and the
largest ||xhat' - xhat|| / ||xhat|| among them, or "every output
identical" when none does, then, per label and over all solves, the
median of the per-solve change/parent time ratios, its quartiles and
the share of solves the change ran faster.  BLAS is pinned to one thread
before numpy loads.  Run-level pairs (`tools/ab_pairs.py`) cannot
resolve a few percent on a noisy host; per-solve pairs can, but they
time the solves alone, not what surrounds them in an op.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import math
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

COUNTERS = ("iterations", "nodes_expanded", "paths_opened", "equivalent_hits", "singular_skips")

# the benchmark's settings (perfbench/workloads.py)
IMAGE_SIZE, IMAGE_K, IMAGE_M, IMAGE_MATRIX_SEED = 64, 12, 40, 0
IMAGE_SOLVER = ("aomp", {"kmax": 20, "alpha_amul": 0.85})
DESK_SHAPE = (100, 256, 30, "gaussian")
DESK_SOLVERS = [(name, {}) for name in ("aomp", "hybrid", "omp", "sp")]


def load_tree(checkout, name, into):
    """The package of `checkout`/src/treepursuit, imported as `name`."""
    shutil.copytree(
        Path(checkout) / "src" / "treepursuit", Path(into) / name,
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    return importlib.import_module(name)


class _Recorder:
    """A solver for `recover_image` that keeps each block's problem."""

    def __init__(self, spec):
        self.spec, self.label, self.problems = spec, spec.label, []

    def run(self, phi, y, k):
        self.problems.append((phi, y, k))
        return self.spec.run(phi, y, k)


def solves(pkg, workload, seed, items):
    """(solver index, phi, y, k) of every solve, and the solver settings."""
    derive_seed = pkg.siggen.derive_seed
    if workload == "image":
        name, params = IMAGE_SOLVER
        out = []
        for index in range(items):
            image = pkg.synthetic_image(IMAGE_SIZE, seed=derive_seed(seed, "image", index))
            recorder = _Recorder(pkg.make_solver(name, **params))
            pkg.recover_image(image, IMAGE_K, IMAGE_M, recorder, IMAGE_MATRIX_SEED)
            out.extend((0,) + problem for problem in recorder.problems)
        return out, [IMAGE_SOLVER]
    m, n, k, ensemble = DESK_SHAPE
    out = []
    for index in range(items):
        ens, inst = pkg.gen_problem(m, n, k, ensemble, derive_seed(seed, "desk", index))
        out.extend((s, ens.phi, inst.y, k) for s in range(len(DESK_SOLVERS)))
    return out, DESK_SOLVERS


def differences(parent, change):
    """The names of the output fields in which two solves differ."""
    fields = ["reason", "hybrid_stage"] + list(COUNTERS)
    names = [f for f in fields if getattr(parent, f) != getattr(change, f)]
    if tuple(parent.support) != tuple(change.support):
        names.insert(0, "support")
    if parent.xhat.tobytes() != change.xhat.tobytes():
        names.append("xhat")
    return names


def relative_change(parent, change):
    """||change - parent|| / ||parent|| of two xhat vectors; 0 for two zero
    vectors, inf when only the parent's is zero."""
    moved = float(np.linalg.norm(change - parent))
    scale = float(np.linalg.norm(parent))
    if scale > 0.0:
        return moved / scale
    return 0.0 if moved == 0.0 else math.inf


def timed(spec, phi, y, k):
    t0 = time.perf_counter()
    out = spec.run(phi, y, k)
    return time.perf_counter() - t0, out


def ratio_line(name, ratios):
    median = statistics.median(ratios)
    q1 = q3 = median
    if len(ratios) > 1:
        q1, _, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
    faster = sum(r < 1.0 for r in ratios) / len(ratios)
    return "%-12s %6d %8.4f %8.4f %8.4f %7.1f%%" % (name, len(ratios), median, q1, q3, 100 * faster)


def time_pairs(trees, args):
    """(ratios, moves): the change/parent time ratios of every solve, by
    label, and the `relative_change` of xhat of every solve whose xhat
    bytes differ; None, with an error line, as soon as two decisions
    differ."""
    problems, settings = solves(trees[1], args.workload, args.seed, args.items)
    specs = [[tree.make_solver(name, **params) for name, params in settings] for tree in trees]
    labels = [spec.label for spec in specs[1]]
    # one untimed solve per tree first, so neither side pays the first call
    s, phi, y, k = problems[0]
    for side in specs:
        side[s].run(phi, y, k)
    ratios = {label: [] for label in labels}
    moves = []
    for i, (s, phi, y, k) in enumerate(problems):
        # the second run of a problem finds it in cache, so the first side
        # alternates within each label
        order = (0, 1) if len(ratios[labels[s]]) % 2 == 0 else (1, 0)
        results = {side: timed(specs[side][s], phi, y, k) for side in order}
        (t_parent, parent), (t_change, change) = results[0], results[1]
        differ = differences(parent, change)
        if "xhat" in differ:
            differ.remove("xhat")
            moves.append(relative_change(parent.xhat, change.xhat))
        if differ:
            print("error: solve %d (%s) differs in %s" % (i, labels[s], ", ".join(differ)),
                  file=sys.stderr)
            return None
        ratios[labels[s]].append(t_change / t_parent)
    return ratios, moves


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True, choices=("image", "desk"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--items", type=int, default=8)
    args = parser.parse_args(argv)
    if args.items < 1:
        parser.error("--items must be at least 1")
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        try:
            trees = [load_tree(args.parent, "_solve_pairs_parent", tmp),
                     load_tree(args.change, "_solve_pairs_change", tmp)]
            timings = time_pairs(trees, args)
        finally:
            sys.path.remove(tmp)
            for name in list(sys.modules):
                if name.startswith("_solve_pairs_"):
                    del sys.modules[name]
    if timings is None:
        return 1
    ratios, moves = timings
    every = [r for label_ratios in ratios.values() for r in label_ratios]
    same = "every output identical"
    if moves:
        same = ("every decision identical, %d differ in xhat bytes"
                " (largest relative change %.3g)" % (len(moves), max(moves)))
    print("%s, seed %d, %d items, %d solves; %s"
          % (args.workload, args.seed, args.items, len(every), same))
    print("%-12s %6s %8s %8s %8s %8s" % ("label", "solves", "median", "q1", "q3", "faster"))
    for label, label_ratios in ratios.items():
        print(ratio_line(label, label_ratios))
    if len(ratios) > 1:
        print(ratio_line("all", every))
    return 0


if __name__ == "__main__":
    sys.exit(main())
