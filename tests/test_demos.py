"""Every demo script runs to completion without a warning.

Each ``demos/*.py`` runs in its own interpreter under ``-W error`` with
``src`` on the path, so a warning, an exception or any output to stderr
fails its case.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs_clean(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, "-W", "error", str(demo)],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=120,
    )
    assert child.returncode == 0, child.stderr
    assert child.stderr == ""
