"""Every demo runs to completion from a clean checkout."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
DEMOS = sorted((REPO / "demos").glob("*.py"))


def test_the_five_demos_are_all_here():
    assert len(DEMOS) == 5, DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs_cleanly(demo, tmp_path):
    inherited = os.environ.get("PYTHONPATH")
    pythonpath = str(REPO / "src") + (os.pathsep + inherited if inherited else "")
    proc = subprocess.run(
        [sys.executable, str(demo)],
        cwd=str(tmp_path),
        env={**os.environ, "PYTHONPATH": pythonpath},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr, proc.stderr
    assert proc.stdout.strip(), "the demo printed nothing"
