"""Every demo script runs to completion against the package in ``src/``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
SLOW_DEMOS = {"02_edge_additions_can_hurt.py"}


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize(
    "demo",
    [
        pytest.param(path, id=path.stem, marks=[pytest.mark.slow] if path.name in SLOW_DEMOS else [])
        for path in DEMOS
    ],
)
def test_demo_runs(demo: Path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=600
    )
    assert result.returncode == 0, result.stderr
