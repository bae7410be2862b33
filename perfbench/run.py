#!/usr/bin/env python3
"""Seeded closed-loop benchmark of treepursuit.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 40 --trace 0

Workloads: desk, deep, large, image, or all (every workload in one
process); BENCHMARK.json gates desk and image, and predictions.json says
why.  One caller runs one op after another with BLAS pinned to one
thread.  Set-up (input generation and one warm-up op) runs three times
and its median, plus the import time, is reported.  Every output is
checked against its inputs as it completes, outside the loop time.

With --trace 0 the end-to-end metrics are printed.  With --trace 1 the
first ops of the pool run untraced, traced and untraced again, the traced
loop follows, and the per-layer metrics, the tracing overhead and the
fingerprint comparison are printed.  The last line of standard output is
one JSON object; a fuller record, and with --trace 1 the spans, are
written to perfbench/out/.
"""

import os

# pin BLAS to one thread before numpy is loaded
PINNED_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in PINNED_ENV:
    os.environ[_var] = "1"

import argparse
import ctypes
import glob
import json
import platform
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
WORKLOAD_NAMES = ("desk", "deep", "large", "image")
EXIT_NO_PROGRAM = 2


def import_program():
    """Import the package from this checkout; returns the import time in s."""
    src = ROOT / "src"
    if not (src / "treepursuit" / "__init__.py").is_file():
        raise ImportError("no treepursuit package under %s" % src)
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import treepursuit

    elapsed = time.perf_counter() - t0
    if Path(treepursuit.__file__).resolve().parent != (src / "treepursuit").resolve():
        raise ImportError("treepursuit was imported from %s" % treepursuit.__file__)
    return elapsed


def git_revision():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def blas_threads(numpy):
    """Thread count reported by the OpenBLAS that numpy loaded, if found."""
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__) + ".libs", "*openblas*"))
    names = (
        "scipy_openblas_get_num_threads64_",
        "openblas_get_num_threads64_",
        "openblas_get_num_threads",
    )
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for name in names:
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def env_block():
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        vendor = {"name": None, "version": None}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": dict(vendor, threads=blas_threads(numpy)),
        "pinned_env": {v: os.environ.get(v) for v in PINNED_ENV},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_revision": git_revision(),
        "argv": [sys.executable] + sys.argv,
    }


def print_result(result):
    print(
        "%s seed=%d trace=%d: %d ops in %.2f s, pool %d (%d checked), %d solves, %d failed"
        % (
            result["workload"], result["seed"], result["trace"], result["ops"], result["loop_s"],
            result["pool_size"], result["pool_items_checked"], result["attempted"], result["failed"],
        )
    )
    for section in ("metrics", "reported"):
        for key, m in result[section].items():
            print("  %-40s %16.6g %s" % (key, m["value"], m["unit"]))
    for problem in result["problems"]:
        print("  problem: %s" % problem)
    print("fingerprint " + json.dumps(result["fingerprint"], sort_keys=True))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    try:
        import_s = import_program()
    except ImportError as exc:
        print("cannot import the program: %s" % exc, file=sys.stderr)
        return EXIT_NO_PROGRAM
    import harness

    env = env_block()
    print("env " + json.dumps(env, sort_keys=True))
    names = WORKLOAD_NAMES if args.workload == "all" else [args.workload]
    results = []
    OUT_DIR.mkdir(exist_ok=True)
    for name in names:
        result = harness.run_workload(name, args.seed, args.seconds, args.trace, import_s, OUT_DIR)
        result["env"] = env
        path = OUT_DIR / ("%s-seed%d-trace%d.json" % (name, args.seed, args.trace))
        path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
        print_result(result)
        results.append(result)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {
            "%s.%s" % (r["workload"], k): m for r in results for k, m in r["metrics"].items()
        }
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
