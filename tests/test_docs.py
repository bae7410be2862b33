"""The README's imports and the quick demos keep working."""

import argparse
import importlib
import importlib.util
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

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
        "pairs": 5, "ratio": 1.0, "bound": 0.25, "worse": False,
    }
    # ties win nothing; a median 10% lower is worse than a 5% bound
    assert (exact_row["wins"], exact_row["spread"], exact_row["worse"]) == (0, 0.0, True)
    assert exact_row["ratio"] == pytest.approx(0.9)
    assert tool.format_rows([time_row, exact_row]).splitlines()[2].endswith("worse")


def test_ab_pairs_alternates_sides_and_stops_on_a_failed_run(monkeypatch, capsys):
    tool = load_tool("ab_pairs", monkeypatch)
    calls = []

    def fake_run(checkout, workload, seed, seconds):
        calls.append(checkout.name)
        if checkout.name == "broken":
            raise RuntimeError("broken: correct=False, 1 failed ops")
        return {m: 1.0 for m in ("op_ref_p50", "ops_per_kref", "exact_rate",
                                 "peak_rss_mb", "setup_s")}

    monkeypatch.setattr(tool, "run_once", fake_run)
    assert tool.main(["a", "b", "--workload", "desk", "--pairs", "3", "--seconds", "1"]) == 0
    assert calls == ["a", "b", "b", "a", "a", "b"]
    assert "op_ref_p50" in capsys.readouterr().out
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
