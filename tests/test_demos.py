"""Every demo runs to completion against the library as it stands."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("demo_*.py"))


def test_all_seven_demos_found():
    assert len(DEMOS) == 7


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    # the demos write their plots under ./out, so they run in a scratch cwd
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    if demo.stem == "demo_06_multi_follower":
        # the weak game is certified, the strong one is not
        verdicts = [line.rsplit(": ", 1)[1] for line in proc.stdout.splitlines()
                    if "P-matrix" in line]
        assert verdicts == ["True", "False"]
    if demo.stem == "demo_07_heuristic_protocol":
        # a candidate qualifies, so the run plan and the cooperative
        # reference point run too
        assert "selected leader" in proc.stdout
        assert "cooperative leaders" in proc.stdout
