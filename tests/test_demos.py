"""Every script under demos/, and the README's library quick start, runs
to completion in a fresh interpreter.  A demo that checks a claim exits
1 when the claim fails (``advection_route_crosscheck``: a deviation
above 1e-12; ``mode_truncation_ode``: an antisymmetry defect other than
0, or a deviation above 1e-12; ``smoothing_radius_growth``: tau* < t at
a printed record), so its exit status is checked too."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import bousspec

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_python(args, tmp_path):
    src = str(Path(bousspec.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, TMPDIR=str(tmp_path), PYTHONPATH=path)
    return subprocess.run([sys.executable, "-W", "error", *args],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=300)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_exits_cleanly(demo, tmp_path):
    proc = run_python([str(demo)], tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_readme_library_quick_start(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Quick start (library)", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    proc = run_python(["-c", block], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "tau_est=" in proc.stdout
