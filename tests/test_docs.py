"""The README's imports and the quick demos keep working."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_readme_top_level_imports_resolve():
    lines = re.findall(r"^from treepursuit import .+$", (ROOT / "README.md").read_text(), re.M)
    assert lines
    for line in lines:
        exec(line, {})


@pytest.mark.parametrize("demo", ["search_anatomy", "two_stage_timing", "rip_conditions"])
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / (demo + ".py"))],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
