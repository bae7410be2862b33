"""Command-line behavior: exit codes, run directories, manifests, replay."""

import argparse
import csv
import json
import re
from datetime import datetime, timezone

import numpy as np
import pytest

from treepursuit.astar import AompConfig, aomp_recover
from treepursuit.cli import EXIT_ERROR, EXIT_NO_CONVERGENCE, EXIT_OK, build_parser, main
from treepursuit.siggen import gen_problem


def run_dirs(out_root):
    return sorted(p for p in out_root.iterdir() if p.is_dir())


def read_manifest(run_dir):
    with open(run_dir / "manifest.json") as fh:
        return json.load(fh)


def strip_volatile(obj):
    """Drop timestamps and timing fields so replays can be compared."""
    if isinstance(obj, dict):
        return {
            k: strip_volatile(v)
            for k, v in obj.items()
            if k not in ("started_utc", "finished_utc", "wall_time_ms", "time_ms")
        }
    if isinstance(obj, list):
        return [strip_volatile(v) for v in obj]
    return obj


def test_recover_success_exit_and_manifest(tmp_path, capsys):
    out = tmp_path / "runs"
    code = main([
        "recover", "--n", "64", "--m", "32", "--k", "4",
        "--seed", "5", "--out", str(out),
    ])
    assert code == EXIT_OK
    printed = capsys.readouterr().out
    payload = json.loads(printed[: printed.rindex("}") + 1])
    assert payload["reason"] == "residue_met"
    assert payload["relative_error"] < 1e-6

    (run_dir,) = run_dirs(out)
    assert re.match(r"recover-\d{8}T\d{6}-seed5", run_dir.name)
    manifest = read_manifest(run_dir)
    assert manifest["command"] == "recover"
    assert manifest["seed"] == 5
    assert manifest["outputs"] == ["result.json"]
    env = manifest["env"]
    assert set(env) == {
        "python", "numpy", "cpu_count",
        "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    }
    assert env["numpy"] == np.__version__ and env["cpu_count"] >= 1
    with open(run_dir / "result.json") as fh:
        assert json.load(fh)["reason"] == "residue_met"


def test_recover_failure_exit(tmp_path):
    # a zero residue target is unreachable in floating point, so the
    # search exhausts its paths and reports non-convergence
    code = main([
        "recover", "--n", "32", "--m", "12", "--k", "6", "--epsilon", "0",
        "--seed", "1", "--out", str(tmp_path / "runs"),
    ])
    assert code == EXIT_NO_CONVERGENCE


def test_recover_replay_is_identical(tmp_path):
    args = [
        "recover", "--n", "64", "--m", "32", "--k", "6",
        "--seed", "9", "--solver", "aomp",
    ]
    code_a = main(args + ["--out", str(tmp_path / "a")])
    code_b = main(args + ["--out", str(tmp_path / "b")])
    assert code_a == code_b
    (dir_a,) = run_dirs(tmp_path / "a")
    (dir_b,) = run_dirs(tmp_path / "b")
    with open(dir_a / "result.json") as fh:
        res_a = strip_volatile(json.load(fh))
    with open(dir_b / "result.json") as fh:
        res_b = strip_volatile(json.load(fh))
    assert res_a == res_b
    man_a, man_b = strip_volatile(read_manifest(dir_a)), strip_volatile(read_manifest(dir_b))
    # the manifests differ only in the --out pair of the recorded argv
    assert man_a.pop("argv") == args + ["--out", str(tmp_path / "a")]
    assert man_b.pop("argv") == args + ["--out", str(tmp_path / "b")]
    assert man_a == man_b


def test_manifest_records_argv(tmp_path, monkeypatch):
    out = tmp_path / "runs"
    args = ["recover", "--n", "32", "--m", "16", "--k", "3", "--seed", "4", "--out", str(out)]
    assert main(args) == EXIT_OK
    # without an explicit list the process arguments are recorded
    monkeypatch.setattr("sys.argv", ["treepursuit"] + args)
    assert main() == EXIT_OK
    first, second = run_dirs(out)
    assert read_manifest(first)["argv"] == args
    assert read_manifest(second)["argv"] == args


def test_recover_manifest_starts_before_the_instance_is_drawn(tmp_path, monkeypatch):
    drawn = []

    def timed_gen_problem(*args, **kwargs):
        drawn.append(datetime.now(timezone.utc))
        return gen_problem(*args, **kwargs)

    monkeypatch.setattr("treepursuit.cli.gen_problem", timed_gen_problem)
    out = tmp_path / "runs"
    assert main(["recover", "--n", "32", "--m", "16", "--k", "3", "--out", str(out)]) == EXIT_OK
    (run_dir,) = run_dirs(out)
    manifest = read_manifest(run_dir)
    started = datetime.fromisoformat(manifest["started_utc"])
    assert started <= drawn[0] <= datetime.fromisoformat(manifest["finished_utc"])


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kmax": 9, "branch": 3}))
    out = tmp_path / "runs"
    code = main([
        "recover", "--n", "64", "--m", "32", "--k", "4", "--seed", "2",
        "--config", str(cfg), "--branch", "2", "--out", str(out),
    ])
    assert code == EXIT_OK
    (run_dir,) = run_dirs(out)
    resolved = read_manifest(run_dir)["resolved"]["search"]
    assert resolved["kmax"] == 9  # from the file
    assert resolved["branch"] == 2  # flag wins over the file


def test_unknown_config_key_is_an_error(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kmx": 9}))
    code = main([
        "recover", "--n", "64", "--m", "32", "--k", "4",
        "--config", str(cfg), "--out", str(tmp_path / "runs"),
    ])
    assert code == EXIT_ERROR


def test_sweep_writes_records_and_summary(tmp_path):
    out = tmp_path / "runs"
    code = main([
        "sweep", "--n", "48", "--m", "24", "--k-values", "3,5",
        "--trials", "4", "--solvers", "omp,amul-aompe",
        "--seed", "3", "--out", str(out),
    ])
    assert code == EXIT_NO_CONVERGENCE
    (run_dir,) = run_dirs(out)
    for name in ("trials.csv", "summary.csv"):
        assert (run_dir / name).exists()
    lines = (run_dir / "trials.csv").read_text().strip().splitlines()
    assert lines[0] == "solver,seed,N,M,K,ensemble,exact,rel_err,time_ms,failed,reason"
    assert len(lines) == 1 + 2 * 2 * 4  # solvers x k-values x trials
    assert read_manifest(run_dir)["resolved"]["k_values"] == [3, 5]


def test_sweep_rejects_duplicate_k_values(tmp_path):
    code = main([
        "sweep", "--k-values", "10,10", "--solvers", "omp", "--trials", "1",
        "--out", str(tmp_path / "runs"),
    ])
    assert code == EXIT_ERROR
    assert not (tmp_path / "runs").exists()


def test_sweep_rejects_a_k_the_solver_cannot_take(tmp_path):
    # SP needs K <= M/2: a batch of failures would pass for a recovery rate
    code = main([
        "sweep", "--solvers", "sp", "--n", "40", "--m", "20", "--k-values", "15",
        "--out", str(tmp_path / "runs"),
    ])
    assert code == EXIT_ERROR
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("command", ["sweep", "phase"])
def test_a_jobs_count_below_one_is_rejected_before_any_trial(tmp_path, capsys, command):
    # once a concurrent.futures error ("max_workers must be greater than 0")
    sizes = {"sweep": ["--m", "10", "--k-values", "2"], "phase": ["--lambdas", "0.5"]}[command]
    code = main([
        command, "--jobs", "0", "--trials", "1", "--n", "20", *sizes,
        "--out", str(tmp_path / "runs"),
    ])
    assert code == EXIT_ERROR
    assert "error: jobs must be an integer >= 1, got 0" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_sweep_rejects_unknown_solver_label(tmp_path):
    code = main([
        "sweep", "--solvers", "omp,nope", "--out", str(tmp_path / "runs"),
    ])
    assert code == EXIT_ERROR


def test_phase_writes_curve(tmp_path):
    out = tmp_path / "runs"
    code = main([
        "phase", "--n", "32", "--lambdas", "0.5", "--rhos", "0.2,0.5,0.8",
        "--trials", "6", "--solver", "omp", "--seed", "4", "--out", str(out),
    ])
    assert code == EXIT_NO_CONVERGENCE
    (run_dir,) = run_dirs(out)
    grid = (run_dir / "phase_grid.csv").read_text().strip().splitlines()
    assert grid[0] == "lambda,rho,M,K,successes,trials,rate"
    assert len(grid) == 4
    points = (run_dir / "phase_points.csv").read_text().strip().splitlines()
    assert points[0] == "lambda,rho_star,censored,trials"
    assert len(points) == 2


def test_phase_marks_the_cells_a_solver_cannot_take(tmp_path):
    # the default rhos reach K > M/2, which SP cannot take: those cells are
    # written without successes or rate, not an error
    out = tmp_path / "runs"
    code = main(["phase", "--solver", "sp", "--n", "64", "--trials", "2", "--out", str(out)])
    assert code == EXIT_NO_CONVERGENCE
    (run_dir,) = run_dirs(out)
    with open(run_dir / "phase_grid.csv") as fh:
        grid = list(csv.DictReader(fh))
    refused = [row for row in grid if int(row["K"]) > int(row["M"]) // 2]
    assert refused and all(row["successes"] == row["rate"] == "" for row in refused)
    assert all(row["successes"] != "" for row in grid if row not in refused)


def test_image_synthetic_run(tmp_path, capsys):
    out = tmp_path / "runs"
    code = main([
        "image", "--k", "6", "--m", "28", "--seed", "2", "--out", str(out),
    ])
    assert code in (EXIT_OK, EXIT_NO_CONVERGENCE)
    printed = capsys.readouterr().out
    assert "psnr" in printed
    (run_dir,) = run_dirs(out)
    for name in ("input.pgm", "sparsified.pgm", "reconstruction.pgm"):
        assert (run_dir / name).exists()


def test_rip_report_run(tmp_path, capsys):
    out = tmp_path / "runs"
    code = main([
        "rip", "--n", "10", "--m", "8", "--k", "2", "--branch", "2",
        "--kmax", "5", "--levels", "4", "--seed", "6", "--out", str(out),
    ])
    assert code == EXIT_NO_CONVERGENCE
    (run_dir,) = run_dirs(out)
    with open(run_dir / "rip_report.json") as fh:
        payload = json.load(fh)
    assert payload["matrix"]["m"] == 8
    assert set(payload["constants"]["deltas"]) == {"1", "2", "3", "4"}
    assert "theorem2" in payload["report"]


def test_flags_a_subcommand_would_ignore_are_errors(tmp_path):
    cfg = tmp_path / "x.json"
    cfg.write_text(json.dumps({"kmax": 9}))
    out = ["--out", str(tmp_path / "runs")]
    assert main(["sweep", "--config", str(cfg)] + out) == EXIT_ERROR
    assert main(["rip", "--ensemble", "cars"] + out) == EXIT_ERROR
    assert main(["recover", "--jobs", "2"] + out) == EXIT_ERROR
    assert main(["recover", "--solver", "omp", "--kmax", "5"] + out) == EXIT_ERROR
    assert main(["recover", "--solver", "omp", "--config", str(cfg)] + out) == EXIT_ERROR
    assert main(["recover", "--termination", "sparsity", "--kmax", "30"] + out) == EXIT_ERROR
    assert main(["image", "--cost-model", "mul", "--alpha-amul", "0.9"] + out) == EXIT_ERROR
    hybrid_mul = ["image", "--solver", "hybrid", "--cost-model", "mul"]
    assert main(hybrid_mul + ["--alpha-amul", "0.9"] + out) == EXIT_ERROR
    assert not (tmp_path / "runs").exists()


def test_bad_search_settings_exit_before_any_run(tmp_path):
    out = ["--out", str(tmp_path / "runs")]
    for flags in [
        ["--alpha-amul", "2.0"],
        ["--branch", "0"],
        ["--epsilon", "-1"],
        ["--solver", "hybrid", "--termination", "sparsity", "--kmax", "30"],
        ["--solver", "hybrid", "--max-paths", "1", "--initial-paths", "3"],
    ]:
        assert main(["image"] + flags + out) == EXIT_ERROR, flags
    recover = ["recover", "--n", "32", "--m", "16", "--k", "3", "--epsilon", "nan"]
    for solver in ["aomp", "hybrid", "omp", "fbp", "mmp-df"]:
        assert main(recover + ["--solver", solver] + out) == EXIT_ERROR, solver
    assert not (tmp_path / "runs").exists()


def test_image_kmax_beyond_m_exits_before_any_run(tmp_path):
    out = ["--out", str(tmp_path / "runs")]
    assert main(["image", "--m", "16", "--kmax", "30"] + out) == EXIT_ERROR
    assert not (tmp_path / "runs").exists()


def test_image_k_outside_1_to_64_exits_with_an_error_line(tmp_path, capsys):
    out = ["--out", str(tmp_path / "runs")]
    for k in ("0", "65"):
        assert main(["image", "--k", k, "--m", "16"] + out) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: k must be an integer with 1 <= k <= 64"), err
    assert not (tmp_path / "runs").exists()


def test_config_file_holds_only_aomp_config_keys_of_their_type(tmp_path):
    cfg = tmp_path / "cfg.json"
    out = ["--out", str(tmp_path / "runs")]
    for content in [{"max_iter": 3}, {"label": "x"}, {"kmax": "20"}, {"kmax": 20.0},
                    {"audit": 1}, {"epsilon": "small"}, [["kmax", 9]], "kmax"]:
        cfg.write_text(json.dumps(content))
        args = ["recover", "--solver", "omp", "--n", "64", "--m", "32", "--k", "4"]
        assert main(args + ["--config", str(cfg)] + out) == EXIT_ERROR, content
    assert not (tmp_path / "runs").exists()
    cfg.write_text(json.dumps({"kmax": "auto", "alpha_amul": 1}))  # an int where a float goes
    code = main(["recover", "--n", "64", "--m", "32", "--k", "4", "--config", str(cfg)] + out)
    assert code == EXIT_OK
    (run_dir,) = run_dirs(tmp_path / "runs")
    search = read_manifest(run_dir)["resolved"]["search"]
    assert (search["kmax"], search["alpha_amul"]) == ("auto", 1)


def read_result(out_root):
    (run_dir,) = run_dirs(out_root)
    with open(run_dir / "result.json") as fh:
        return json.load(fh)


def test_recover_sparsity_mul_uses_the_sparsity_decay(tmp_path):
    ens, inst = gen_problem(32, 64, 6, "gaussian", 3)
    runs = {
        alpha: aomp_recover(
            ens.phi, inst.y, AompConfig.sparsity_based(6, cost_model="mul", alpha_mul=alpha)
        )
        for alpha in (0.8, 0.9)
    }
    assert runs[0.8].iterations != runs[0.9].iterations  # the instance tells them apart
    code = main([
        "recover", "--n", "64", "--m", "32", "--k", "6", "--seed", "3",
        "--termination", "sparsity", "--cost-model", "mul", "--out", str(tmp_path / "runs"),
    ])
    assert code == EXIT_OK
    result = read_result(tmp_path / "runs")
    assert result["iterations"] == runs[0.8].iterations
    assert result["support"] == list(runs[0.8].support)


def test_recover_omp_honours_epsilon(tmp_path):
    code = main([
        "recover", "--n", "64", "--m", "32", "--k", "8", "--seed", "1",
        "--solver", "omp", "--epsilon", "0.5", "--out", str(tmp_path / "runs"),
    ])
    assert code == EXIT_OK
    result = read_result(tmp_path / "runs")
    assert 1 <= len(result["support"]) < 8
    assert result["residual_norm"] > 1e-3


def test_image_hybrid_takes_the_search_flags(tmp_path):
    out = tmp_path / "runs"
    code = main([
        "image", "--k", "6", "--m", "28", "--seed", "2", "--solver", "hybrid",
        "--kmax", "9", "--out", str(out),
    ])
    assert code in (EXIT_OK, EXIT_NO_CONVERGENCE)
    (run_dir,) = run_dirs(out)
    resolved = read_manifest(run_dir)["resolved"]
    assert resolved["solver"] == "hybrid"
    # the flag beats the image default kmax, which beats nothing else
    assert resolved["search"] == {"kmax": 9, "alpha_amul": 0.85}


def test_image_defaults_skip_what_the_hybrid_does_not_read(tmp_path):
    out = tmp_path / "runs"
    for flags, search in [
        (["--cost-model", "mul"], {"cost_model": "mul", "kmax": 20}),
        (["--termination", "sparsity"], {"termination": "sparsity", "alpha_amul": 0.85}),
        (["--m", "16"], {"kmax": 16, "alpha_amul": 0.85}),  # kmax capped at M
    ]:
        code = main([
            "image", "--k", "6", "--m", "28", "--seed", "2", "--solver", "hybrid",
            "--out", str(out),
        ] + flags)
        assert code in (EXIT_OK, EXIT_NO_CONVERGENCE)
        assert read_manifest(run_dirs(out)[-1])["resolved"]["search"] == search


def test_usage_errors_do_not_crash():
    assert main(["no-such-command"]) == EXIT_ERROR
    assert main(["recover", "--k"]) == EXIT_ERROR


def test_version_flag_exits_cleanly(capsys):
    assert main(["--version"]) == EXIT_OK
    assert "treepursuit" in capsys.readouterr().out


SOLVER_CHOICES = [
    "aomp", "amul-aompe", "mul-aompe", "mul-aompk", "amul-aompk",
    "hybrid", "omp", "sp", "iht", "fbp", "mmp-df",
]
ENSEMBLE_CHOICES = ("gaussian", "uniform", "cars")
COMMON_FLAGS = [("--seed", 0, int, None), ("--out", "runs", None, None)]
SEARCH_FLAGS = [
    ("--config", None, None, None),
    ("--initial-paths", None, int, None),
    ("--branch", None, int, None),
    ("--max-paths", None, int, None),
    ("--kmax", None, int, None),
    ("--epsilon", None, float, None),
    ("--cost-model", None, str, ("mul", "amul")),
    ("--alpha-mul", None, float, None),
    ("--alpha-amul", None, float, None),
    ("--termination", None, str, ("residue", "sparsity")),
    ("--audit", None, None, None),
    ("--max-iterations", None, int, None),
]
# per subcommand: its help line, then (flag, default, type, choices) in
# declaration order
PARSER = {
    "recover": ("recover a single synthetic instance", COMMON_FLAGS + [
        ("--n", 256, int, None),
        ("--m", 100, int, None),
        ("--k", 20, int, None),
        ("--ensemble", "gaussian", None, ENSEMBLE_CHOICES),
        ("--solver", "aomp", None, SOLVER_CHOICES),
    ] + SEARCH_FLAGS),
    "sweep": ("exact-recovery rate versus sparsity for several solvers", COMMON_FLAGS + [
        ("--jobs", 1, int, None),
        ("--n", 256, int, None),
        ("--m", 100, int, None),
        ("--k-values", "10,20,30", None, None),
        ("--ensemble", "gaussian", None, ENSEMBLE_CHOICES),
        ("--trials", 50, int, None),
        ("--solvers", "amul-aompe,omp,sp", None, None),
    ]),
    "phase": ("empirical phase-transition curve", COMMON_FLAGS + [
        ("--jobs", 1, int, None),
        ("--n", 64, int, None),
        ("--lambdas", "0.2,0.4,0.6,0.8", None, None),
        ("--rhos", "0.1,0.2,0.3,0.4,0.5,0.6", None, None),
        ("--trials", 30, int, None),
        ("--ensemble", "gaussian", None, ENSEMBLE_CHOICES),
        ("--solver", "amul-aompe", None, SOLVER_CHOICES),
    ]),
    "image": ("block-sparse image recovery", COMMON_FLAGS + [
        ("--input", None, None, None),
        ("--k", 12, int, None),
        ("--m", 32, int, None),
        ("--solver", "aomp", None, SOLVER_CHOICES),
    ] + SEARCH_FLAGS),
    "rip": ("restricted-isometry constants and recovery conditions", COMMON_FLAGS + [
        ("--n", 12, int, None),
        ("--m", 8, int, None),
        ("--k", 2, int, None),
        ("--branch", 2, int, None),
        ("--kmax", 6, int, None),
        ("--levels", 4, int, None),
    ]),
}


def test_every_subcommand_keeps_its_flags_defaults_types_and_choices():
    (commands,) = [
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    helps = {a.dest: a.help for a in commands._choices_actions}
    assert list(commands.choices) == list(PARSER)
    for name, sub in commands.choices.items():
        help_line, flags = PARSER[name]
        assert helps[name] == help_line
        declared = [
            (a.option_strings[0], a.default, a.type,
             None if a.choices is None else list(a.choices))
            for a in sub._actions if a.option_strings != ["-h", "--help"]
        ]
        expected = [
            (flag, default, kind, None if choices is None else list(choices))
            for flag, default, kind, choices in flags
        ]
        assert declared == expected, name
