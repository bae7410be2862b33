"""The README's imports and the quick demos keep working."""

import argparse
import importlib
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from treepursuit.astar import AompConfig
from treepursuit.cli import build_parser
from treepursuit.experiments import SOLVERS

ROOT = Path(__file__).resolve().parents[1]


def test_readme_top_level_imports_resolve():
    lines = re.findall(r"^from treepursuit import .+$", (ROOT / "README.md").read_text(), re.M)
    assert lines
    for line in lines:
        exec(line, {})


def test_every_exported_name_resolves():
    # a name left in a module's __all__ after its definition went (a stale
    # export) fails `from module import *`
    for path in sorted((ROOT / "src" / "treepursuit").glob("*.py")):
        name = "treepursuit" if path.stem == "__init__" else "treepursuit." + path.stem
        module = importlib.import_module(name)
        for exported in module.__all__:
            assert hasattr(module, exported), (name, exported)


def test_readme_flag_table_matches_the_parser():
    readme = (ROOT / "README.md").read_text()
    search = re.search(r"The search\s+flags are (.*?)\.", readme, re.S).group(1)
    search_flags = set(re.findall(r"--[\w-]+", search))
    table = readme.split("Flags by subcommand")[1].split("\n\n")[1]
    documented = {}
    for row in table.splitlines()[2:]:
        name, flags = row.split("|")[1:3]
        documented[name.strip(" `")] = set(re.findall(r"--[\w-]+", flags)) | (
            search_flags if "search flags" in flags else set()
        )
    (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    defined = {}
    for name, sub in commands.choices.items():
        flags = {f for a in sub._actions for f in a.option_strings if f.startswith("--")}
        assert {"--help", "--seed", "--out"} <= flags, name
        defined[name] = flags - {"--help", "--seed", "--out"}
    assert documented == defined


@pytest.mark.parametrize("demo", ["search_anatomy", "two_stage_timing", "rip_conditions"])
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / (demo + ".py"))],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_the_package_imports_no_scipy():
    # numpy is the only runtime dependency: importing every module of the
    # package in a fresh interpreter must leave scipy unloaded
    modules = sorted(p.stem for p in (ROOT / "src" / "treepursuit").glob("*.py"))
    code = (
        "import importlib, sys\n"
        "for name in %r:\n"
        "    importlib.import_module('treepursuit' if name == '__init__' else 'treepursuit.' + name)\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    ) % (modules,)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "cli" in modules and "rip" in modules
    assert proc.stdout.strip() == "[]"


def test_importing_the_package_loads_no_process_pool():
    # run_batch imports the process pool only for jobs > 1, so a fresh
    # import of the package leaves concurrent.futures.process and
    # multiprocessing unloaded
    code = (
        "import sys, treepursuit\n"
        "print(sorted(m for m in sys.modules if m == 'concurrent.futures.process'"
        " or m == 'multiprocessing' or m.startswith('multiprocessing.')))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def load_tool(name, monkeypatch):
    """Import tools/<name>.py; the sys.path entries it adds end with the test."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / (name + ".py"))
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_output_digest_covers_every_label_and_repeats(monkeypatch):
    # the byte-identity tool README names runs on the current API: on its
    # smallest shape it solves every problem and its twin-column variant
    # with every label, and repeats its digest
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    tool = load_tool("output_digest", monkeypatch)
    monkeypatch.setattr(tool, "SHAPES", tool.SHAPES[:1])
    value, solves = tool.digest()
    assert solves == 2 * len(tool.ENSEMBLES) * len(tool.SEEDS) * len(SOLVERS)
    assert re.fullmatch("[0-9a-f]{64}", value)
    assert tool.digest() == (value, solves)


def test_output_digest_list_prints_every_solve_and_keeps_the_digest(monkeypatch):
    # --list writes one line per solve, the problem name and the record
    # head, and hashes exactly what the plain digest hashes
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    tool = load_tool("output_digest", monkeypatch)
    monkeypatch.setattr(tool, "SHAPES", tool.SHAPES[:1])
    monkeypatch.setattr(tool, "ENSEMBLES", tool.ENSEMBLES[:1])
    listing = io.StringIO()
    value, solves = tool.digest(listing)
    assert tool.digest() == (value, solves)
    lines = listing.getvalue().splitlines()
    assert len(lines) == solves
    expected = [(name, label) for name, *_ in tool.problems() for label in SOLVERS]
    heads = [line.split(": ", 1) for line in lines]
    assert [(name, head.split()[0]) for name, head in heads] == expected


def test_pool_records_prints_every_solve_of_a_desk_item(monkeypatch):
    # the pool-comparison tool README names runs the benchmark's own desk
    # op on one pool item and prints one record line per solve
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    tool = load_tool("pool_records", monkeypatch)
    lines = list(tool.pool_lines("desk", 1, items=1))
    assert [line.split()[:2] for line in lines] == [
        ["0", label] for label in ("amul-aompe", "hybrid", "omp", "sp")
    ]
    for line in lines:
        assert re.fullmatch(
            r"0 [\w-]+ \[[\d, ]*\] \w+ stage=\w* iterations=\d+ nodes_expanded=\d+ "
            r"paths_opened=\d+ equivalent_hits=\d+ singular_skips=\d+", line)
    assert list(tool.pool_lines("desk", 1, items=1)) == lines


def test_ab_pairs_summarizes_paired_runs(monkeypatch):
    tool = load_tool("ab_pairs", monkeypatch)
    end_to_end = [
        {"name": "op_ref_p50", "better": "lower", "bound": 0.25},
        {"name": "exact_rate", "better": "higher", "bound": 0.05},
    ]
    parent = [{"op_ref_p50": v, "exact_rate": 1.0} for v in (10, 11, 12, 13, 14)]
    change = [
        {"op_ref_p50": v, "exact_rate": e}
        for v, e in zip((9, 12, 11, 12, 13), (0.9, 0.9, 0.9, 1.0, 1.0))
    ]
    time_row, exact_row = tool.summarize(parent, change, end_to_end)
    # quartiles 11 and 13 of the parent; the change wins four of five pairs
    assert time_row == {
        "name": "op_ref_p50", "parent": 12, "change": 12, "spread": 2, "wins": 4,
        "pairs": 5, "ratio": 1.0, "bound": 0.25, "worse": False, "claim": False,
    }
    # ties win nothing; a median 10% lower is worse than a 5% bound
    assert (exact_row["wins"], exact_row["spread"], exact_row["worse"]) == (0, 0.0, True)
    assert exact_row["ratio"] == pytest.approx(0.9)
    assert not exact_row["claim"]
    assert tool.format_rows([time_row, exact_row]).splitlines()[2].endswith("-  worse")


@pytest.mark.parametrize("offsets, claim", [
    # nine of ten pairs won, and a median gap of 2 past a spread of 0.9
    ([-2] * 9 + [5], True),
    # eight of ten pairs won
    ([-2] * 8 + [5, 5], False),
    # ten of ten won, but the medians differ by 0.5, within the spread
    ([-0.5] * 10, False),
])
def test_ab_pairs_claims_a_gain_by_nine_tenths_and_the_spread(monkeypatch, offsets, claim):
    tool = load_tool("ab_pairs", monkeypatch)
    parent = [20 + 0.2 * i for i in range(10)]
    change = [p + d for p, d in zip(parent, offsets)]
    for better, sign in (("lower", 1), ("higher", -1)):
        # a metric where higher is better claims by the same rule, mirrored
        (row,) = tool.summarize(
            [{"m": sign * v} for v in parent], [{"m": sign * v} for v in change],
            [{"name": "m", "better": better, "bound": 0.25}],
        )
        assert row["spread"] == pytest.approx(0.9) and row["claim"] is claim
        assert tool.format_rows([row]).splitlines()[1].split()[-1] == ("met" if claim else "-")


RUN_OUTPUT = """\
  op_ms_p50                                        48.1 ms
fingerprint {"digest": "9a9cc592", "ops": 8, "totals": {"amul-aompe": {"iterations": 11271}}}
{"correct": true, "attempted": 64, "failed": 0, "metrics": {"op_ref_p50": {"value": 46.5, "unit": "ref"}}}
"""


def test_ab_pairs_parses_a_run_and_compares_fingerprints(monkeypatch):
    tool = load_tool("ab_pairs", monkeypatch)
    values, printed = tool.parse_run(RUN_OUTPUT, "parent")
    assert values == {"op_ref_p50": 46.5}
    assert json.loads(printed)["digest"] == "9a9cc592"
    with pytest.raises(RuntimeError, match="no fingerprint"):
        tool.parse_run(RUN_OUTPUT.replace("fingerprint", "print"), "change")
    with pytest.raises(RuntimeError, match="1 failed ops"):
        tool.parse_run(RUN_OUTPUT.replace('"failed": 0', '"failed": 1'), "change")
    assert tool.fingerprint_lines(["a", "b", "c"], ["a", "b", "c"]) == [
        "fingerprints identical in 3/3 pairs"
    ]
    assert tool.fingerprint_lines(["a", "b", "c"], ["a", "x", "c"]) == [
        "fingerprints identical in 2/3 pairs",
        "pair 2: change fingerprint x differs from parent b",
    ]


def test_ab_pairs_alternates_sides_and_stops_on_a_failed_run(monkeypatch, capsys):
    tool = load_tool("ab_pairs", monkeypatch)
    calls = []

    def fake_run(checkout, workload, seed, seconds):
        calls.append(checkout.name)
        if checkout.name == "broken":
            raise RuntimeError("broken: correct=False, 1 failed ops")
        values = {m: 1.0 for m in ("op_ref_p50", "ops_per_kref", "exact_rate",
                                   "peak_rss_mb", "setup_s")}
        return values, '{"digest": "%s"}' % ("b" if len(calls) == 4 else "a")

    monkeypatch.setattr(tool, "run_once", fake_run)
    assert tool.main(["a", "b", "--workload", "desk", "--pairs", "3", "--seconds", "1"]) == 0
    assert calls == ["a", "b", "b", "a", "a", "b"]
    out = capsys.readouterr().out
    assert "op_ref_p50" in out and "claim" in out
    # the fourth run is the parent's of pair 2
    assert out.splitlines()[-2:] == [
        "fingerprints identical in 2/3 pairs",
        'pair 2: change fingerprint {"digest": "a"} differs from parent {"digest": "b"}',
    ]
    calls.clear()
    assert tool.main(["a", "broken", "--workload", "desk", "--pairs", "3"]) == 1
    assert calls == ["a", "broken"]


SNIPPET = '''"""Module docstring,
two lines."""

import math  # a trailing comment leaves a code line


class Shape:
    """One line."""

    # a comment line
    def area(self):
        """Two

        lines, with a blank one inside."""
        text = """not a docstring:
        a string value"""
        return math.pi
'''


def test_src_lines_splits_a_snippet(monkeypatch, tmp_path):
    tool = load_tool("src_lines", monkeypatch)
    counts = tool.count_lines(SNIPPET)
    # the blank line inside a docstring counts as docstring, the lines of
    # any other string as code
    assert counts == {"total": 17, "code": 6, "docstring": 6, "comment": 1, "blank": 4}
    (tmp_path / "b.py").write_text(SNIPPET)
    (tmp_path / "a.py").write_text("x = 1\n\n")
    rows = tool.table(tmp_path)
    assert [name for name, _ in rows] == ["a.py", "b.py", "total"]
    assert rows[-1][1] == {"total": 19, "code": 7, "docstring": 6, "comment": 1, "blank": 5}


@pytest.mark.parametrize("workload, labels", [
    ("image", ["amul-aompe"]),
    ("desk", ["amul-aompe", "hybrid", "omp", "sp", "all"]),
    ("deep", ["amul-aompe"]),
    ("large", ["amul-aompe"]),
])
def test_solve_pairs_times_the_repo_against_itself(monkeypatch, capsys, workload, labels):
    # both copies of one tree give the same outputs, so the tool prints a
    # ratio table; the copies are gone from sys.modules afterwards
    tool = load_tool("solve_pairs", monkeypatch)
    assert tool.main([str(ROOT), str(ROOT), "--workload", workload, "--items", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    solves = {"image": 64, "desk": 4}.get(workload, 1)
    assert lines[0] == "%s, seed 1, 1 items, %d solves; every output identical" % (
        workload, solves)
    assert lines[1].split() == ["label", "solves", "median", "q1", "q3", "faster"]
    assert [line.split()[0] for line in lines[2:]] == labels
    for line in lines[2:]:
        assert re.fullmatch(r"[\w-]+ +\d+ +\d+\.\d{4} +\d+\.\d{4} +\d+\.\d{4} +\d+\.\d%", line)
    assert not [name for name in sys.modules if name.startswith("_solve_pairs_")]


def test_solve_pairs_runs_each_workload_with_its_own_solver_settings(monkeypatch):
    # deep runs the search on a config, so the tool takes that config's
    # non-default fields; the others carry specs
    tool = load_tool("solve_pairs", monkeypatch)
    workloads = tool.WORKLOADS
    deep = workloads["deep"]()
    assert tool.solver_settings(deep) == [("aomp", {"kmax": deep.config.kmax})]
    assert AompConfig(**tool.solver_settings(deep)[0][1]) == deep.config
    for name in ("desk", "image", "large"):
        wl = workloads[name]()
        specs = getattr(wl, "specs", None) or [wl.spec]
        assert tool.solver_settings(wl) == [(spec.name, spec.params) for spec in specs]


def test_solve_pairs_names_every_field_that_differs(monkeypatch):
    tool = load_tool("solve_pairs", monkeypatch)
    base = dict(support=(1, 4), reason="residue_met", hybrid_stage="", xhat=np.zeros(3),
                **{name: 2 for name in tool.COUNTERS})
    same = argparse.Namespace(**base)
    assert tool.differences(same, argparse.Namespace(**base)) == []
    other = argparse.Namespace(**{**base, "support": (4, 1), "paths_opened": 3,
                                  "xhat": np.array([0.0, -0.0, 0.0])})
    assert tool.differences(same, other) == ["support", "paths_opened", "xhat"]


@pytest.mark.parametrize("field, code", [("xhat", 0), ("iterations", 1)])
def test_solve_pairs_stops_on_a_decision_and_reports_xhat_moves(monkeypatch, capsys, field, code):
    # the change's outputs are nudged after each solve: a moved xhat is
    # counted and sized, and the table still printed, while a moved counter
    # is a decision, which stops the tool naming the solve
    tool = load_tool("solve_pairs", monkeypatch)
    real = tool.timed

    def timed(spec, phi, y, k):
        elapsed, out = real(spec, phi, y, k)
        if type(spec).__module__.startswith("_solve_pairs_change"):
            if field == "xhat":
                out.xhat = out.xhat * (1.0 + 2.0**-40)
            else:
                out.iterations += 1
        return elapsed, out

    monkeypatch.setattr(tool, "timed", timed)
    assert tool.main([str(ROOT), str(ROOT), "--workload", "desk", "--items", "1"]) == code
    captured = capsys.readouterr()
    if code:
        assert captured.err == "error: solve 0 (amul-aompe) differs in iterations\n"
        assert captured.out == ""
        return
    head = re.fullmatch(r"desk, seed 1, 1 items, 4 solves; every decision identical, "
                        r"4 differ in xhat bytes \(largest relative change (\S+)\)",
                        captured.out.splitlines()[0])
    assert head and float(head.group(1)) == pytest.approx(2.0**-40, rel=1e-3)
    assert [line.split()[0] for line in captured.out.splitlines()[2:]] == [
        "amul-aompe", "hybrid", "omp", "sp", "all"]


def test_solve_pairs_sizes_an_xhat_move_relative_to_the_parent(monkeypatch):
    tool = load_tool("solve_pairs", monkeypatch)
    assert tool.relative_change(np.array([3.0, 4.0]), np.array([3.0, 4.5])) == 0.1
    assert tool.relative_change(np.zeros(2), np.array([0.0, -0.0])) == 0.0
    assert tool.relative_change(np.zeros(2), np.array([0.0, 1.0])) == float("inf")
