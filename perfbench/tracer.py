"""Outside-in span tracer for the treepursuit layers.

The tracer wraps public functions and methods of the package from the
benchmark's side: every wrapped call appends one span (layer, start, end,
parent span, op) to flat in-memory arrays, and the spans are reduced to
per-layer numbers only after the timed loop.  A layer's self time is its
span's duration minus the part its child spans cover; spans nest because
every call is synchronous on one thread.

Hooks read exact work counts off arguments and return values (search
reports, trie sizes, array sizes).  Counting is limited to a fixed window
of ops, so the counts repeat bit for bit whatever the run length.
"""

import sys
import time
from array import array
from collections import defaultdict

import numpy as np

from treepursuit.linalg import SingularSupportError

# (layer, module, attribute path) of every wrapped call site
TARGETS = (
    ("linalg.correlations", "treepursuit.linalg", "correlations"),
    ("linalg.top_indices", "treepursuit.linalg", "top_indices"),
    ("linalg.project", "treepursuit.linalg", "project"),
    ("linalg.appended", "treepursuit.linalg", "IncrementalFactorization.appended"),
    ("linalg.coefficients", "treepursuit.linalg", "IncrementalFactorization.coefficients"),
    ("trie.insert", "treepursuit.trie", "SearchTrie.insert"),
    ("trie.remove", "treepursuit.trie", "SearchTrie.remove"),
    ("trie.has_equivalent", "treepursuit.trie", "SearchTrie.has_equivalent"),
    ("trie.paths", "treepursuit.trie", "SearchTrie.paths"),
    ("astar.aomp_recover", "treepursuit.astar", "aomp_recover"),
    ("astar.hybrid", "treepursuit.astar", "hybrid_recover"),
    ("astar.init_search", "treepursuit.astar", "init_search"),
    ("astar.select", "treepursuit.astar", "select_best_incomplete"),
    ("astar.expand", "treepursuit.astar", "expand"),
    ("baselines.omp", "treepursuit.baselines", "omp_recover"),
    ("baselines.sp", "treepursuit.baselines", "sp_recover"),
    ("experiments.SolverSpec.run", "treepursuit.experiments", "SolverSpec.run"),
    ("imaging.recover_image", "treepursuit.imaging", "recover_image"),
    ("haar.sparsify_blocks", "treepursuit.haar", "sparsify_blocks"),
    ("siggen.gen_problem", "treepursuit.siggen", "gen_problem"),
)

ROOT_LAYER = "op"


def _array_bytes(*arrays):
    return sum(a.nbytes for a in arrays)


def _after_appended(counts, args, result):
    # inputs read plus outputs written, from the array sizes alone
    old, column = args[0], args[2]
    counts["linalg.appended.bytes_computed"] += _array_bytes(
        old.q, old.rmat, old.qty, old.residue, column,
        result.q, result.rmat, result.qty, result.residue,
    )


def _after_correlations(counts, args, result):
    phi, r = args[0], args[1]
    counts["linalg.correlations.bytes_computed"] += _array_bytes(phi, r, result)


def _after_has_equivalent(counts, args, result):
    if result:
        counts["trie.has_equivalent.hits"] += 1


def _after_insert(counts, args, result):
    live = args[0].live_count
    if live > counts["trie.live_peak"]:
        counts["trie.live_peak"] = live


def _after_expand(counts, args, report):
    counts["astar.children_evaluated"] += report.children_evaluated
    counts["astar.accepted"] += report.accepted
    counts["astar.cost_rejected"] += report.cost_rejected
    counts["astar.expand.equivalent_hits"] += report.equivalent_hits


def _after_aomp(counts, args, out):
    counts["astar.iterations"] += out.iterations
    counts["astar.nodes_expanded"] += out.nodes_expanded
    counts["astar.paths_opened"] += out.paths_opened
    counts["astar.equivalent_hits"] += out.equivalent_hits


def _after_hybrid(counts, args, out):
    counts["astar.hybrid.stage1"] += out.hybrid_stage == "omp"


def _after_omp(counts, args, out):
    counts["baselines.omp.iterations"] += out.iterations


AFTER = {
    "linalg.appended": _after_appended,
    "linalg.correlations": _after_correlations,
    "trie.has_equivalent": _after_has_equivalent,
    "trie.insert": _after_insert,
    "astar.expand": _after_expand,
    "astar.aomp_recover": _after_aomp,
    "astar.hybrid": _after_hybrid,
    "baselines.omp": _after_omp,
}


def _resolve(module_name, path):
    owner = sys.modules[module_name]
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Tracer:
    """Spans and counts of one traced run.

    install() swaps the wrappers in, remove() puts the originals back.
    Spans recorded while op < 0 belong to set-up; ops 0 .. count_ops - 1
    form the counting window.
    """

    def __init__(self, count_ops, extra_modules=()):
        self.count_ops = count_ops
        self.extra_modules = tuple(extra_modules)
        self.layers = [ROOT_LAYER]
        self._ids = {ROOT_LAYER: 0}
        self.starts = array("d")
        self.ends = array("d")
        self.layer = array("i")
        self.parent = array("i")
        self.op_of = array("i")
        self.stack = [-1]
        self.op = -1
        self.counting = False
        self.counts = defaultdict(int)
        self._restore = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, layer, fn):
        lid = self._ids.get(layer)
        if lid is None:
            lid = self._ids[layer] = len(self.layers)
            self.layers.append(layer)
        starts, ends, layers, parents, ops = (
            self.starts, self.ends, self.layer, self.parent, self.op_of,
        )
        stack = self.stack
        counts = self.counts
        clock = time.perf_counter
        after = AFTER.get(layer)
        count_singular = layer == "linalg.appended"
        tracer = self

        def traced(*args, **kwargs):
            idx = len(starts)
            parents.append(stack[-1])
            layers.append(lid)
            ops.append(tracer.op)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except SingularSupportError:
                if count_singular and tracer.counting:
                    counts["linalg.appended.singular"] += 1
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None and tracer.counting:
                after(counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every target wherever the package or the benchmark holds it."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        for layer, module_name, path in TARGETS:
            owner, attr = _resolve(module_name, path)
            original = getattr(owner, attr)
            wrapped = self._wrap(layer, original)
            if isinstance(owner, type):
                self._restore.append((owner, attr, original))
                setattr(owner, attr, wrapped)
                continue
            # module-level functions are also held by from-imports elsewhere
            for name, module in list(sys.modules.items()):
                if not (name.startswith("treepursuit") or name in self.extra_modules):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapped)

    def remove(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []

    # -- ops --------------------------------------------------------------

    def begin_op(self, index):
        self.op = index
        self.counting = 0 <= index < self.count_ops
        idx = len(self.starts)
        self.parent.append(-1)
        self.layer.append(0)
        self.op_of.append(index)
        self.ends.append(0.0)
        self.stack.append(idx)
        self.starts.append(time.perf_counter())

    def end_op(self):
        self.ends[self.stack.pop()] = time.perf_counter()
        self.op = -1
        self.counting = False

    # -- reduction --------------------------------------------------------

    def span_arrays(self):
        n = len(self.ends)
        return {
            "layers": np.array(self.layers),
            "start": np.frombuffer(self.starts, dtype=np.float64, count=n).copy(),
            "end": np.frombuffer(self.ends, dtype=np.float64, count=n).copy(),
            "layer": np.frombuffer(self.layer, dtype=np.int32, count=n).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32, count=n).copy(),
            "op": np.frombuffer(self.op_of, dtype=np.int32, count=n).copy(),
        }

    def summary(self):
        """Per-layer calls and self time, split into set-up, window and loop.

        Returns {layer: {"calls_window", "calls_loop", "self_s_loop",
        "calls_setup", "self_s_setup"}} with loop meaning every op >= 0.
        """
        s = self.span_arrays()
        dur = s["end"] - s["start"]
        has_parent = s["parent"] >= 0
        covered = np.zeros_like(dur)
        np.add.at(covered, s["parent"][has_parent], dur[has_parent])
        self_time = dur - covered
        n_layers = len(self.layers)
        layer, op = s["layer"], s["op"]

        def per_layer(mask, weights=None):
            w = None if weights is None else weights[mask]
            return np.bincount(layer[mask], weights=w, minlength=n_layers)

        loop = op >= 0
        setup = ~loop
        window = loop & (op < self.count_ops)
        calls_loop = per_layer(loop)
        self_loop = per_layer(loop, self_time)
        calls_window = per_layer(window)
        calls_setup = per_layer(setup)
        self_setup = per_layer(setup, self_time)
        return {
            name: {
                "calls_window": int(calls_window[i]),
                "calls_loop": int(calls_loop[i]),
                "self_s_loop": float(self_loop[i]),
                "calls_setup": int(calls_setup[i]),
                "self_s_setup": float(self_setup[i]),
            }
            for i, name in enumerate(self.layers)
        }
