"""The benchmark's traced mode runs against the library as it stands.

`perfbench/tracing.py` wraps library functions by name and stops at the
first one that is missing, so a renamed or deleted function breaks the
benchmark's per-layer metrics; one traced run of each budgeted workload
catches that.  The tracer counts the rows of `budget.waterfill_batch` with
`len` of its (B, K) result, so that function keeps its name, signature
and return.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["budgeted-bilevel",
                                      "budgeted-montecarlo"])
def test_traced_run_completes_and_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
