"""Every demo script, and README's quick start, runs on the library as it stands."""

import contextlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import DEMOS

ROOT = Path(__file__).resolve().parents[1]


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs_cleanly(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    assert proc.stderr == ""


def test_readme_quick_start_prints_what_it_says():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README quick start", "exec"), {})
    assert out.getvalue().splitlines() == [
        "A4",
        "[(0, 0, 0, 1), (0, 0, 1, 0), (0, 0, 1, 1), (0, 1, 0, 0), (0, 1, 0, 1), "
        "(0, 1, 1, 0), (1, 0, 0, 0), (1, 1, 0, 0), (1, 1, 0, 1), (1, 1, 1, 0)]",
        "True",
        "(1, 0, 1, 0)",
    ]
