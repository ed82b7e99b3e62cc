"""The README's library Quick start runs as written, in a fresh interpreter."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def quick_start_code() -> str:
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Quick start (library)", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match is not None, "README Quick start has no python block"
    return match.group(1)


def test_quick_start_runs():
    code = quick_start_code()
    assert "relfix.verify_g_properties" in code and "relfix.solve_fde" in code
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    steps, residual, last_value = proc.stdout.split()
    assert int(steps) > 0
    assert float(residual) < 1e-12
    assert float(last_value) > 0.0
