"""The benchmark's smoke run still walks every workload's traced code path.

The benchmark wraps functions by their module and name and reads call
keywords (such as `threads=`); a renamed site otherwise fails only inside a
benchmark run.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_smoke_run_passes_on_every_workload():
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-4000:]
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == {
        "iterate-lowdim": True, "iterate-highdim": True, "privtune-small": True,
    }
