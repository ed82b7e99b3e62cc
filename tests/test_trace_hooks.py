"""The traced benchmark pass rebinds relfix attributes by name.

``perfbench/tracer.install`` looks each of them up with ``getattr``; a
refactor that renames or removes one makes every traced pass fail, so the
install is run here as part of the test suite. A rebinding must also take
effect exactly once: a CLI command records one span per engine call, as
the traced pass counts them.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
INSTANCE = {"n": 2, "pairs": [[0, 0], [1, 0]], "map": [0, 0], "g": [[0, 1], [1, 0]]}

# runs one CLI command in process under the tracer, prints span call counts
TRACED_RUN = """
import contextlib, io, json, sys
sys.path.insert(0, "perfbench")
from tracer import Tracer, install
from relfix import cli
tracer = Tracer()
install(tracer)
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.run(sys.argv[1:])
spans = {name: s["calls"] for name, s in tracer.summary()["spans"].items()}
print(json.dumps({"exit": code, "spans": spans}))
"""


def _python(code: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )


def test_tracer_installs_on_the_current_package():
    code = (
        "import sys; sys.path.insert(0, 'perfbench'); "
        "from tracer import Tracer, install; install(Tracer())"
    )
    proc = _python(code)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize(
    "argv, expected",
    [
        (
            ["verify", "--instance", "{instance}"],
            {"finite_oracle.hypotheses_hold": 1, "finite_oracle.conclusion_holds": 1},
        ),
        (["verify", "--example", "1"], {"gspace.verify_g_properties": 1}),
    ],
    ids=["verify-instance", "verify-example"],
)
def test_traced_cli_command_records_one_span_per_call(argv, expected, tmp_path):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(INSTANCE))
    proc = _python(TRACED_RUN, *[a.format(instance=path) for a in argv])
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["exit"] == 0
    for name, calls in expected.items():
        assert doc["spans"].get(name) == calls, doc["spans"]
