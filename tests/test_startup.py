"""Start-up cost: numpy loads only for the command that computes with it.

``import relfix`` resolves its exports lazily, the CLI imports the solver
inside ``solve-fde``, and the oracle is plain Python, so every other
subcommand runs without numpy. Whether numpy is loaded is a property of a
fresh interpreter, so the checks run in subprocesses.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import relfix
from relfix import finite_oracle, fractional, gridfn, gspace, picard, relations

ROOT = Path(__file__).resolve().parents[1]
MODULES = (relations, gspace, picard, gridfn, fractional, finite_oracle)
INSTANCE = {"n": 2, "pairs": [[0, 0], [1, 0]], "map": [0, 0], "g": [[0, 1], [1, 0]]}

# prints whether numpy is loaded after each stage of one CLI command
PROBE = """
import contextlib, io, json, sys
stages = {}
import relfix
stages["import relfix"] = "numpy" in sys.modules
assert not hasattr(relfix, "no_such_name")
stages["unknown name"] = "numpy" in sys.modules
import relfix.cli
stages["import relfix.cli"] = "numpy" in sys.modules
with contextlib.redirect_stdout(io.StringIO()):
    code = relfix.cli.run(json.loads(sys.argv[1]))
stages["exit"] = code
stages["run"] = "numpy" in sys.modules
print(json.dumps(stages))
"""


def _python(code: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def _stages(argv: list[str]) -> dict:
    proc = _python(PROBE, json.dumps(argv))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.fixture
def instance_file(tmp_path):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(INSTANCE))
    return str(path)


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--example", "1"],
        ["example", "--which", "2", "--svg", "{tmp}/plot.svg"],
        ["iterate", "--example", "2"],
        ["verify", "--instance", "{instance}"],
        ["iterate", "--instance", "{instance}"],
        ["oracle", "--n", "2"],
        ["oracle", "--n", "3"],
    ],
    ids=" ".join,
)
def test_pure_python_commands_never_load_numpy(argv, tmp_path, instance_file):
    argv = [a.format(tmp=tmp_path, instance=instance_file) for a in argv]
    stages = _stages(argv)
    assert stages["exit"] == 0
    assert not stages["import relfix"]
    assert not stages["unknown name"]
    assert not stages["import relfix.cli"]
    assert not stages["run"]


@pytest.mark.parametrize("argv", [["solve-fde", "--grid", "16"]], ids=" ".join)
def test_numeric_commands_load_numpy_when_run(argv):
    stages = _stages(argv)
    assert stages["exit"] == 0
    assert not stages["import relfix.cli"]
    assert stages["run"]


def test_lazy_exports_in_a_fresh_interpreter():
    code = (
        "import sys, relfix\n"
        "listed = set(relfix.__all__) | {'relations', 'fractional'} <= set(dir(relfix))\n"
        "relfix.FiniteInstance, relfix.hypotheses_hold, relfix.iterate\n"
        "relfix.GFunctional, relfix.FiniteRelation, relfix.picard\n"
        "relfix.run_oracle(relfix.default_sweeps(2))\n"
        "before = 'numpy' in sys.modules\n"
        "relfix.solve_fde\n"
        "print(listed, before, 'numpy' in sys.modules)\n"
    )
    proc = _python(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "False", "True"]


class TestExports:
    def test_all_is_the_union_of_the_module_exports(self):
        assert relfix.__all__ == [name for m in MODULES for name in m.__all__]

    def test_every_name_resolves_to_its_module_object(self):
        for module in MODULES:
            for name in module.__all__:
                assert getattr(relfix, name) is getattr(module, name), name

    def test_submodules_resolve(self):
        for module in MODULES:
            assert getattr(relfix, module.__name__.rpartition(".")[2]) is module

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            relfix.no_such_name
