"""Command-line behavior: exit codes, run directories, manifests, replay."""

import json
import re

import pytest

from treepursuit.cli import EXIT_ERROR, EXIT_NO_CONVERGENCE, EXIT_OK, main


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
    for name in ("trials.csv", "trials.jsonl", "summary.csv"):
        assert (run_dir / name).exists()
    lines = (run_dir / "trials.csv").read_text().strip().splitlines()
    assert lines[0] == "solver,seed,N,M,K,ensemble,exact,rel_err,time_ms"
    assert len(lines) == 1 + 2 * 2 * 4  # solvers x k-values x trials
    assert read_manifest(run_dir)["resolved"]["k_values"] == [3, 5]


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


def test_bench_compares_plain_and_staged(tmp_path, capsys):
    out = tmp_path / "runs"
    code = main([
        "bench", "--n", "64", "--m", "32", "--k", "5", "--trials", "3",
        "--seed", "8", "--out", str(out),
    ])
    assert code == EXIT_NO_CONVERGENCE
    (run_dir,) = run_dirs(out)
    with open(run_dir / "bench.json") as fh:
        payload = json.load(fh)
    assert payload["trials"] == 3
    assert len(payload["rows"]) == 3
    assert payload["identical_supports"] <= 3


def test_usage_errors_do_not_crash():
    assert main(["no-such-command"]) == EXIT_ERROR
    assert main(["recover", "--k"]) == EXIT_ERROR


def test_version_flag_exits_cleanly(capsys):
    assert main(["--version"]) == EXIT_OK
    assert "treepursuit" in capsys.readouterr().out
