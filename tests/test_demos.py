"""Smoke test: every script under demos/ runs to completion.

Each demo runs in its own interpreter with the test's temporary directory
as its working directory, so charts land there and not in the committed
demo-output/ directory.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from helpers import child_env

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(tmp_path, demo):
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, capture_output=True,
                          text=True, env=child_env(), timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
