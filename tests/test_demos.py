"""Smoke test: every demo script runs to the end without writing to stderr."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
DEMOS = sorted((REPO / "demos").glob("*.py"))


def test_demos_present():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    res = subprocess.run([sys.executable, str(demo)], capture_output=True,
                         env=env, cwd=REPO, timeout=300)
    assert res.returncode == 0, res.stderr.decode()
    assert res.stderr == b""
    assert res.stdout
