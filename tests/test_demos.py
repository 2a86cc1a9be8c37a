"""The walk-throughs in demos/ run against this checkout's src/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script, closing", [
    ("worked_example.py",
     "Same total energy everywhere; min-max halves the worst node's bill."),
    ("lifetime_demo.py", "min-max outlives minicost in "),
])
def test_demo_runs(script, closing):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, str(ROOT / "demos" / script)],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.rstrip().splitlines()[-1].startswith(closing)
