"""Timed loop, output checks, fingerprints and metrics of one workload run.

Imported only after the program itself, so that importing the program
can be timed on its own.
"""

import hashlib
import resource
import statistics
import time

import numpy as np

from tracer import ROOT_LAYER, Tracer
from workloads import COUNTER_FIELDS, WORKLOADS, describe

SETUP_REPS = 3
# the loop stops here even when its pass over the pool is unfinished
MAX_LOOP_S = 120.0


def fingerprint(op_records):
    """Exact counter totals per solver label plus a digest of every output."""
    totals = {}
    for records in op_records:
        for rec in records:
            if len(rec) == 5:  # records of failed solves carry no counters
                row = totals.setdefault(rec[0], [0] * len(COUNTER_FIELDS))
                for i, v in enumerate(rec[4]):
                    row[i] += v
    return {
        "ops": len(op_records),
        "totals": {label: dict(zip(COUNTER_FIELDS, row)) for label, row in sorted(totals.items())},
        "digest": hashlib.sha256(repr(op_records).encode()).hexdigest()[:32],
    }


def run_op(wl, item, tracer=None, index=-1):
    """One timed op; returns (seconds, raw output, error text)."""
    if tracer is not None:
        tracer.begin_op(index)
    t0 = time.perf_counter()
    try:
        raw, error = wl.op(item), ""
    except Exception as exc:  # a failed op is recorded and the loop goes on
        raw, error = None, describe(exc)
    elapsed = time.perf_counter() - t0
    if tracer is not None:
        tracer.end_op()
    return elapsed, raw, error


class Checker:
    """Checks every op as it completes, so no output is kept.

    The first op on each pool item sets the quality figures and the
    fingerprint records; every later op on the same item must repeat its
    records exactly.
    """

    def __init__(self, wl, pool):
        self.wl = wl
        self.pool = pool
        self.first = {}
        self.attempted = self.failed = self.exact = self.solves_first = 0
        self.psnr_db = []
        self.problems = []
        self.records = []  # fingerprint records of first ops, in op order

    def add(self, index, raw, error):
        wl = self.wl
        if error:
            report = {"solves": wl.solves_per_op, "failed": wl.solves_per_op, "exact": 0,
                      "records": [("error", error)], "problems": [error]}
        else:
            report = wl.check(self.pool[index], raw)
        self.attempted += report["solves"]
        self.failed += report["failed"]
        self.problems.extend(report["problems"])
        if index not in self.first:
            self.first[index] = report["records"]
            self.records.append(report["records"])
            self.exact += report["exact"]
            self.solves_first += report["solves"]
            if "psnr_db" in report:
                self.psnr_db.append(report["psnr_db"])
        elif report["records"] != self.first[index]:
            self.failed += report["solves"]
            self.problems.append("pool item %d gave another result when repeated" % index)


def timed_loop(wl, pool, seconds, min_ops, checker, tracer=None, first=0, host=None):
    """Closed loop over the pool, from op number `first`, until `seconds`
    of loop time have passed and at least `min_ops` ops are done.

    Loop time leaves out the output checks and the host reference samples,
    which are the benchmark's own work.  Returns (op times, loop time).
    """
    times = []
    busy = 0.0
    mark = time.perf_counter()
    while (busy < seconds or len(times) < min_ops) and busy < MAX_LOOP_S:
        op = first + len(times)
        t, raw, error = run_op(wl, pool[op % len(pool)], tracer, op)
        times.append(t)
        busy += time.perf_counter() - mark
        checker.add(op % len(pool), raw, error)
        if host is not None:
            host.sample()
        mark = time.perf_counter()
    return times, busy


def setup(wl, seed):
    """Generate the pool and run one warm-up op, SETUP_REPS times.

    Returns the pool and the duration of each repetition.
    """
    reps = []
    for _ in range(SETUP_REPS):
        pool = None  # let the previous pool go before building the next
        t0 = time.perf_counter()
        pool = wl.make_pool(seed)
        _, _, error = run_op(wl, wl.warmup_item())
        reps.append(time.perf_counter() - t0)
        if error:
            raise RuntimeError("warm-up op failed: %s" % error)
    return pool, reps


class HostReference:
    """A fixed task that uses none of the program, timed after every op.

    The task is a greedy pursuit written here, on one fixed 40x64 problem:
    the same mix of small matrix products, sorting and Python bookkeeping
    that the solvers run, in about a millisecond.  The host this benchmark
    runs on changes speed by a fifth within seconds, so op times are also
    reported in units of the reference timed beside them.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.phi = rng.standard_normal((40, 64))
        x = np.zeros(64)
        x[rng.choice(64, 10, replace=False)] = rng.standard_normal(10)
        self.y = self.phi @ x
        self.samples = []

    def sample(self):
        phi, y = self.phi, self.y
        t0 = time.perf_counter()
        for _ in range(3):
            r, q, support, seen = y, np.empty((40, 0)), [], set()
            for _ in range(10):
                scores = np.abs(phi.T @ r)
                j = sorted(range(64), key=lambda i: -scores[i])[0]
                support.append(j)
                seen.add(tuple(sorted(support)))
                col = phi[:, j] - q @ (q.T @ phi[:, j])
                q = np.column_stack([q, col / np.linalg.norm(col)])
                r = y - q @ (q.T @ y)
        self.samples.append(time.perf_counter() - t0)

    def relative(self, times, half_width=10):
        """Each time over the median reference sample around it."""
        ref = self.samples
        return [
            t / statistics.median(ref[max(0, i - half_width): i + half_width + 1])
            for i, t in enumerate(times)
        ]


def p90_with_tail(ms, tail=10):
    """The 90th percentile, or None with fewer than `tail` samples beyond it."""
    if len(ms) * 0.1 < tail:
        return None
    return statistics.quantiles(ms, n=10)[-1]


def e2e_metrics(import_s, setup_reps, times, wall, checker, host):
    """Gated end-to-end metrics, and the reported-only ones."""
    ms = [t * 1e3 for t in times]
    relative = host.relative(times)
    metrics = {
        "op_ref_p50": (statistics.median(relative), "ref"),
        "ops_per_kref": (1e3 * len(relative) / sum(relative), "1/kref"),
        "exact_rate": (checker.exact / checker.solves_first, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (import_s + statistics.median(setup_reps), "s"),
    }
    # raw times drift with the host; p90 needs ten samples beyond it;
    # failures are 0 at a sound commit; only images have a PSNR
    reported = {
        "op_ms_p50": (statistics.median(ms), "ms"),
        "ops_per_s": (len(times) / wall, "1/s"),
        "host_ref_ms": (1e3 * statistics.median(host.samples), "ms"),
        "op_ms_p90": (p90_with_tail(ms), "ms"),
        "failed_frac": (checker.failed / checker.attempted, "ratio"),
        "psnr_db": (statistics.fmean(checker.psnr_db) if checker.psnr_db else None, "dB"),
    }
    return metrics, reported


COUNT_METRICS = (
    "linalg.appended.singular", "trie.has_equivalent.hits", "trie.live_peak",
    "baselines.omp.iterations", "astar.iterations", "astar.nodes_expanded",
    "astar.paths_opened", "astar.equivalent_hits", "astar.children_evaluated",
    "astar.accepted", "astar.cost_rejected",
)
BYTE_METRICS = ("linalg.appended.bytes_computed", "linalg.correlations.bytes_computed")


def layer_metrics(tracer, ops):
    """Per-layer metrics: self time per op over the whole traced loop,
    calls and work counts over the counting window."""
    summary = tracer.summary()
    counts = tracer.counts
    metrics = {}
    for layer, row in summary.items():
        if layer != "siggen.gen_problem":
            metrics[layer + ".self_ms"] = (1e3 * row["self_s_loop"] / ops, "ms/op")
        if layer not in ("siggen.gen_problem", ROOT_LAYER):
            metrics[layer + ".calls"] = (row["calls_window"], "count")
    # inputs are generated during set-up only
    gen = summary["siggen.gen_problem"]
    metrics["siggen.gen_problem.calls"] = (gen["calls_setup"], "count")
    metrics["siggen.gen_problem.self_ms"] = (
        1e3 * gen["self_s_setup"] / gen["calls_setup"] if gen["calls_setup"] else 0.0, "ms/call",
    )
    for name in BYTE_METRICS:
        metrics[name] = (counts[name], "B")
    for name in COUNT_METRICS:
        metrics[name] = (counts[name], "count")
    evaluated = counts["astar.children_evaluated"]
    metrics["astar.accept_ratio"] = (
        counts["astar.accepted"] / evaluated if evaluated else 0.0, "ratio",
    )
    hybrids = summary["astar.hybrid"]["calls_window"]
    metrics["astar.hybrid_stage1_frac"] = (
        counts["astar.hybrid.stage1"] / hybrids if hybrids else 0.0, "ratio",
    )
    metrics["trace.spans"] = (len(tracer.ends), "count")
    # the tracer's own counts must agree with the search's counters
    problems = []
    for what, a, b in (
        ("iterations vs expand calls",
         counts["astar.iterations"], summary["astar.expand"]["calls_window"]),
        ("nodes_expanded vs children evaluated",
         counts["astar.nodes_expanded"], counts["astar.children_evaluated"]),
        ("paths_opened vs trie inserts",
         counts["astar.paths_opened"], summary["trie.insert"]["calls_window"]),
        ("equivalent_hits vs has_equivalent hits",
         counts["astar.equivalent_hits"], counts["trie.has_equivalent.hits"]),
    ):
        if a != b:
            problems.append("traced %s disagree: %d != %d" % (what, a, b))
    return metrics, problems


def run_untraced(wl, seed, seconds, import_s):
    pool, reps = setup(wl, seed)
    checker = Checker(wl, pool)
    host = HostReference()
    times, wall = timed_loop(wl, pool, seconds, len(pool), checker, host=host)
    metrics, reported = e2e_metrics(import_s, reps, times, wall, checker, host)
    return dict(pool=pool, times=times, wall=wall, checker=checker, metrics=metrics,
                reported=reported, problems=[], extra={"setup_reps_s": reps})


def window_pass(wl, pool, checker, tracer=None):
    """One op on each of the first wl.window pool items; returns op times."""
    times = []
    for i in range(wl.window):
        t, raw, error = run_op(wl, pool[i], tracer, i)
        times.append(t)
        checker.add(i, raw, error)
    return times


def run_traced(wl, seed, seconds, spans_path):
    """Traced set-up; the window untraced, traced and untraced again; then
    the traced loop.

    The three passes over the window must agree bit for bit.  The traced
    pass against the mean of the untraced passes around it gives the
    tracing overhead with the host's drift cancelled to first order.
    """
    tracer = Tracer(wl.window, extra_modules=("workloads",))
    tracer.install()
    try:
        pool, _ = setup(wl, seed)
    finally:
        tracer.remove()
    before, after, checker = Checker(wl, pool), Checker(wl, pool), Checker(wl, pool)
    untraced = window_pass(wl, pool, before)
    tracer.install()
    try:
        window_times = window_pass(wl, pool, checker, tracer)
    finally:
        tracer.remove()
    untraced = [(a + b) / 2 for a, b in zip(untraced, window_pass(wl, pool, after))]
    tracer.install()
    try:
        times, wall = timed_loop(wl, pool, seconds, 0, checker, tracer, first=wl.window)
    finally:
        tracer.remove()
    times = window_times + times
    metrics, problems = layer_metrics(tracer, len(times))
    ratios = [t / u for t, u in zip(window_times, untraced)]
    metrics["trace.overhead_pct"] = (100.0 * (statistics.median(ratios) - 1.0), "%")
    plain_fp = fingerprint(before.records)
    if not plain_fp == fingerprint(after.records) == fingerprint(checker.records[: wl.window]):
        problems.append("fingerprint differs between the untraced and the traced passes")
    for plain in (before, after):
        checker.attempted += plain.attempted
        checker.failed += plain.failed
        checker.problems += plain.problems
    np.savez(spans_path, **tracer.span_arrays())
    extra = {"untraced_fingerprint": plain_fp, "spans_file": spans_path.name}
    return dict(pool=pool, times=times, wall=wall + sum(window_times), checker=checker,
                metrics=metrics, reported={}, problems=problems, extra=extra)


def run_workload(name, seed, seconds, trace, import_s, out_dir):
    wl = WORKLOADS[name]()
    if trace:
        spans_path = out_dir / ("%s-spans.npz" % name)
        run = run_traced(wl, seed, seconds, spans_path)
    else:
        run = run_untraced(wl, seed, seconds, import_s)
    checker, times = run["checker"], run["times"]
    problems = checker.problems + run["problems"]
    result = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "import_s": import_s,
        "ops": len(times),
        "loop_s": run["wall"],
        "op_ms": [t * 1e3 for t in times],
        "pool_size": len(run["pool"]),
        "pool_items_checked": min(len(times), len(run["pool"])),
        "window_ops": wl.window,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "correct": checker.failed == 0 and not problems,
        "problems": problems[:20],
        "fingerprint": fingerprint(checker.records[: wl.window]),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in run["metrics"].items()},
        "reported": {
            k: {"value": v, "unit": u} for k, (v, u) in run["reported"].items() if v is not None
        },
    }
    result.update(run["extra"])
    return result
