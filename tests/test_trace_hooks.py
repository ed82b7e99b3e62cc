"""The traced benchmark pass rebinds relfix attributes by name.

``perfbench/tracer.install`` looks each of them up with ``getattr``; a
refactor that renames or removes one makes every traced pass fail, so the
install is run here as part of the test suite.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_installs_on_the_current_package():
    code = (
        "import sys; sys.path.insert(0, 'perfbench'); "
        "from tracer import Tracer, install; install(Tracer())"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
