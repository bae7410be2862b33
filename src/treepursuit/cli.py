"""Command-line front end.

Subcommands map onto the library layers: `recover` runs one instance,
`sweep` and `phase` drive the batch harness, `image` the block-sparse
image pipeline and `rip` the restricted-isometry reports.  Every run
writes a manifest (resolved configuration, seed, argv, library
versions, CPU count and BLAS thread settings, outputs, timestamps) into
its own run directory so it can be replayed exactly.

Exit codes: 0 when recovery met the residue target, 2 for runs that
finished without meeting it (or commands with no notion of success),
1 for errors.
"""

import argparse
import json
import math
import os
import platform
import sys
from dataclasses import fields
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .astar import COST_MODELS, TERMINATIONS, AompConfig
from .experiments import (
    SOLVERS,
    make_solver,
    relative_error,
    sweep_k,
    phase_transition,
    write_records_csv,
)
from .imaging import read_pgm, recover_image, synthetic_image, write_pgm
from .results import REASON_RESIDUE
from .rip import condition_report, ric_table
from .siggen import ENSEMBLES, gen_matrix, gen_problem

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NO_CONVERGENCE = 2

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# "aomp" is the tree search whose label --cost-model and --termination pick
SOLVER_NAMES = ["aomp", *SOLVERS]

# image search settings below the config file and the flags, for every
# solver that takes them
IMAGE_DEFAULTS = {"kmax": 20, "alpha_amul": 0.85}


# type, choices and help of the flags that several subcommands share
SHARED_FLAGS = {
    "n": {"type": int},
    "m": {"type": int},
    "k": {"type": int},
    "ensemble": {"choices": ENSEMBLES},
    "trials": {"type": int},
    "jobs": {"type": int, "help": "worker processes for batches"},
    "solver": {"choices": SOLVER_NAMES},
}


def _flag(name, default, **spec):
    """A subcommand's `--name` flag; a shared one starts from SHARED_FLAGS."""
    return "--" + name, {**SHARED_FLAGS.get(name, {}), **spec, "default": default}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="treepursuit",
        description="Sparse recovery with best-first tree search over matching pursuits.",
    )
    parser.add_argument("--version", action="version", version="%(prog)s " + __version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, run, flags, search) in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        p.set_defaults(run=run)
        p.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
        p.add_argument("--out", default="runs", help="parent directory for run outputs")
        for flag, spec in flags:
            p.add_argument(flag, **spec)
        if search:
            _search_flags(p)
    return parser


def _search_flags(p):
    """Settings handed to make_solver: one flag per AompConfig field, named after it."""
    p.add_argument("--config", default=None, help="JSON file with search settings")
    choices = {"cost_model": COST_MODELS, "termination": TERMINATIONS}
    for f in fields(AompConfig):
        flag = "--" + f.name.replace("_", "-")
        if f.type is bool:
            p.add_argument(flag, action="store_true", default=None)
        else:
            p.add_argument(flag, type=f.type, default=None, choices=choices.get(f.name))


def _settings(args):
    """The config file's settings, overridden by flags."""
    settings = {}
    if args.config:
        with open(args.config) as fh:
            settings = json.load(fh)
        if not isinstance(settings, dict):
            raise ValueError("%s must hold a JSON object" % args.config)
        for key, value in settings.items():
            AompConfig.check_setting(key, value)
    for key in AompConfig.__dataclass_fields__:
        value = getattr(args, key, None)
        if value is not None:
            settings[key] = value
    return settings


def _make_run_dir(args):
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S")
    base = Path(args.out) / ("%s-%s-seed%d" % (args.command, stamp, args.seed))
    run_dir = base
    counter = 1
    while run_dir.exists():
        run_dir = Path(str(base) + "-%d" % counter)
        counter += 1
    run_dir.mkdir(parents=True)
    return run_dir


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _env():
    """Python and numpy versions, CPU count and BLAS thread settings:
    timings and the last bits of a LAPACK solve depend on them."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        **{var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


def _write_manifest(run_dir, args, resolved, outputs):
    """Write the run's manifest, finished now, and report its run dir."""
    _write_json(run_dir / "manifest.json", {
        "command": args.command,
        "version": __version__,
        "seed": args.seed,
        "argv": args.argv,
        "env": _env(),
        "resolved": resolved,
        "outputs": sorted(outputs),
        "started_utc": args.started,
        "finished_utc": _now(),
    })
    print("run dir: %s" % run_dir)


def _now():
    return datetime.now(timezone.utc).isoformat()


def _cmd_recover(args):
    solver = make_solver(args.solver, **_settings(args))
    ens, inst = gen_problem(args.m, args.n, args.k, args.ensemble, args.seed)
    out = solver.run(ens.phi, inst.y, args.k)
    run_dir = _make_run_dir(args)
    result_path = run_dir / "result.json"
    _write_json(result_path, out.to_dict())
    payload = out.to_dict(include_times=False)
    payload["relative_error"] = relative_error(inst.x, out.xhat)
    print(json.dumps(payload, indent=2, sort_keys=True))
    resolved = {
        "solver": solver.label, "n": args.n, "m": args.m, "k": args.k,
        "ensemble": args.ensemble, "search": solver.params,
    }
    _write_manifest(run_dir, args, resolved, [result_path.name])
    return EXIT_OK if out.reason == REASON_RESIDUE else EXIT_NO_CONVERGENCE


def _cmd_sweep(args):
    solvers = [make_solver(s.strip()) for s in args.solvers.split(",")]
    k_values = [int(k) for k in args.k_values.split(",")]
    result = sweep_k(
        solvers, args.n, args.m, k_values, args.ensemble,
        args.trials, args.seed, jobs=args.jobs,
    )
    run_dir = _make_run_dir(args)
    write_records_csv(result.records(), run_dir / "trials.csv")
    result.write_summary_csv(run_dir / "summary.csv")
    for row in result.summary_rows():
        print(
            "%-12s K=%-3d rate=%.3f anmse=%.3e mean_ms=%.2f"
            % (row["solver"], row["K"], row["rate"], row["anmse"], row["mean_time_ms"])
        )
    resolved = {
        "solvers": [s.label for s in solvers], "n": args.n, "m": args.m,
        "k_values": k_values, "ensemble": args.ensemble, "trials": args.trials,
    }
    _write_manifest(run_dir, args, resolved, ["trials.csv", "summary.csv"])
    return EXIT_NO_CONVERGENCE


def _cmd_phase(args):
    solver = make_solver(args.solver)
    lambdas = [float(v) for v in args.lambdas.split(",")]
    rhos = [float(v) for v in args.rhos.split(",")]
    curve = phase_transition(
        solver, args.n, lambdas, rhos, args.trials, args.seed,
        ensemble=args.ensemble, jobs=args.jobs,
    )
    run_dir = _make_run_dir(args)
    curve.write_points_csv(run_dir / "phase_points.csv")
    curve.write_grid_csv(run_dir / "phase_grid.csv")
    for point in curve.points:
        star = "censored-%s" % point.censored if point.rho_star is None else "%.4f" % point.rho_star
        print("lambda=%.3f rho*=%s" % (point.lam, star))
    resolved = {
        "solver": solver.label, "n": args.n, "lambdas": lambdas,
        "rhos": rhos, "trials": args.trials, "ensemble": args.ensemble,
    }
    _write_manifest(run_dir, args, resolved, ["phase_points.csv", "phase_grid.csv"])
    return EXIT_NO_CONVERGENCE


def _cmd_image(args):
    solver = make_solver(args.solver, **_settings(args))
    # a path holds at most M atoms, so the default kmax is capped there
    defaults = {**IMAGE_DEFAULTS, "kmax": min(IMAGE_DEFAULTS["kmax"], args.m)}
    defaults = {key: v for key, v in defaults.items() if key in solver.accepts}
    solver = make_solver(solver.name, **{**defaults, **solver.params})
    if args.input:
        image = read_pgm(args.input)
    else:
        image = synthetic_image(seed=args.seed)
    result = recover_image(image, args.k, args.m, solver, args.seed)
    run_dir = _make_run_dir(args)
    write_pgm(run_dir / "input.pgm", image)
    write_pgm(run_dir / "sparsified.pgm", np.clip(result.sparsified, 0, 255))
    write_pgm(run_dir / "reconstruction.pgm", result.reconstruction)
    print("blocks: %d  failed: %d" % (result.blocks, result.failed_blocks))
    print("psnr vs sparsified input: %.2f dB" % result.psnr_db)
    resolved = {
        "solver": solver.label, "k": args.k, "m": args.m,
        "input": args.input or "synthetic", "search": solver.params,
    }
    _write_manifest(
        run_dir, args, resolved, ["input.pgm", "sparsified.pgm", "reconstruction.pgm"]
    )
    return EXIT_OK if result.failed_blocks == 0 else EXIT_NO_CONVERGENCE


def _cmd_rip(args):
    # unit-norm columns in expectation; the condition bounds assume that scale
    ens = gen_matrix(args.m, args.n, args.seed, entry_std=1.0 / math.sqrt(args.m))
    table = ric_table(ens.phi, args.levels)
    report = condition_report(table, args.k, args.branch, kmax=args.kmax)
    run_dir = _make_run_dir(args)
    payload = {
        "matrix": {"m": args.m, "n": args.n, "seed": args.seed},
        "constants": table.to_dict(),
        "report": report,
    }
    path = run_dir / "rip_report.json"
    _write_json(path, payload)
    print(json.dumps(payload, indent=2, sort_keys=True))
    resolved = {
        "n": args.n, "m": args.m, "k": args.k, "branch": args.branch,
        "kmax": args.kmax, "levels": args.levels,
    }
    _write_manifest(run_dir, args, resolved, [path.name])
    return EXIT_NO_CONVERGENCE


# per subcommand: its help line, the function that runs it, its flags in
# order and whether it takes the search flags
SUBCOMMANDS = {
    "recover": ("recover a single synthetic instance", _cmd_recover, [
        _flag("n", 256), _flag("m", 100), _flag("k", 20),
        _flag("ensemble", "gaussian"), _flag("solver", "aomp"),
    ], True),
    "sweep": ("exact-recovery rate versus sparsity for several solvers", _cmd_sweep, [
        _flag("jobs", 1), _flag("n", 256), _flag("m", 100),
        _flag("k-values", "10,20,30", help="comma-separated sparsity levels"),
        _flag("ensemble", "gaussian"), _flag("trials", 50),
        _flag("solvers", "amul-aompe,omp,sp",
              help="comma-separated solver names: %s" % ", ".join(SOLVER_NAMES)),
    ], False),
    "phase": ("empirical phase-transition curve", _cmd_phase, [
        _flag("jobs", 1), _flag("n", 64),
        _flag("lambdas", "0.2,0.4,0.6,0.8"), _flag("rhos", "0.1,0.2,0.3,0.4,0.5,0.6"),
        _flag("trials", 30), _flag("ensemble", "gaussian"), _flag("solver", "amul-aompe"),
    ], False),
    "image": ("block-sparse image recovery", _cmd_image, [
        _flag("input", None, help="PGM image; omit for a synthetic one"),
        _flag("k", 12, help="coefficients kept per 8x8 block"),
        _flag("m", 32, help="measurements per block"),
        _flag("solver", "aomp"),
    ], True),
    "rip": ("restricted-isometry constants and recovery conditions", _cmd_rip, [
        _flag("n", 12), _flag("m", 8), _flag("k", 2),
        _flag("branch", 2, type=int), _flag("kmax", 6, type=int),
        _flag("levels", 4, type=int, help="largest support size whose constant is computed"),
    ], False),
}


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help/--version, 2 for usage errors
        return EXIT_ERROR if exc.code not in (0, None) else EXIT_OK
    args.argv = argv  # recorded verbatim in every manifest
    args.started = _now()
    try:
        return args.run(args)
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
