"""Every script in `demos/` still runs to completion against the library.

The demos import public names from `dpmargin`; a renamed or removed name
otherwise fails only when someone runs the demo by hand.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    # TMPDIR keeps what a demo writes to its temporary directory inside tmp_path
    env = {**os.environ, "PYTHONPATH": path, "TMPDIR": str(tmp_path),
           "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-4000:]
    assert not list(tmp_path.glob("dpmargin_demo_*"))  # the demo cleans up after itself
