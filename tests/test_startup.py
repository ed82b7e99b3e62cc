"""Start-up cost: each command loads only the modules it computes with.

``import relfix`` resolves its exports lazily, the CLI imports each
subcommand's engine inside its handler, and the oracle is plain Python, so
only ``solve-fde`` loads numpy, no command loads ``dataclasses``, and the
finite and plane engines do not load each other. What is loaded is a
property of a fresh interpreter, so the checks run in subprocesses.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import relfix
from relfix import demos, finite_oracle, fractional, gridfn, gspace, picard, relations, svgplot

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
stages["dataclasses"] = "dataclasses" in sys.modules
stages["modules"] = sorted(m for m in sys.modules if m.startswith("relfix."))
print(json.dumps(stages))
"""

PLANE_ENGINE = {"relfix.demos", "relfix.gspace", "relfix.picard", "relfix.svgplot"}


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


# (command, relfix modules it must not load)
ENGINE_CASES = [
    (["oracle", "--n", "2"], PLANE_ENGINE),
    (["verify", "--instance", "{instance}"], PLANE_ENGINE),
    (["verify", "--example", "1"], {"relfix.finite_oracle"}),
    (["iterate", "--example", "2"], {"relfix.finite_oracle"}),
    (["example", "--which", "1", "--svg", "{tmp}/plot.svg"], {"relfix.finite_oracle"}),
    (["iterate", "--instance", "{instance}"], {"relfix.gspace"}),
    (["solve-fde", "--grid", "16"], {"relfix.finite_oracle", "relfix.demos", "relfix.gspace"}),
]


@pytest.mark.parametrize(
    "argv, absent", ENGINE_CASES, ids=[" ".join(argv) for argv, _ in ENGINE_CASES]
)
def test_each_command_loads_only_its_engine(argv, absent, tmp_path, instance_file):
    argv = [a.format(tmp=tmp_path, instance=instance_file) for a in argv]
    stages = _stages(argv)
    assert stages["exit"] == 0
    assert not stages["dataclasses"]
    assert not absent & set(stages["modules"]), stages["modules"]


def test_cli_engine_names_resolve_to_the_engine_functions():
    from relfix import cli, svgplot

    engines = {m.__name__.rpartition(".")[2]: m for m in (*MODULES, svgplot)}
    for name, module in cli._ENGINE_NAMES.items():
        assert getattr(cli, name) is getattr(engines[module], name), name
    assert not hasattr(cli, "no_such_name")


def test_lazy_exports_in_a_fresh_interpreter():
    code = (
        "import sys, relfix\n"
        "listed = set(relfix.__all__) | {'relations', 'fractional'} <= set(dir(relfix))\n"
        "relfix.FiniteInstance, relfix.hypotheses_hold, relfix.iterate\n"
        "relfix.verify_g_properties, relfix.FiniteRelation, relfix.picard\n"
        "relfix.run_oracle(relfix.default_sweep(2))\n"
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

    @pytest.mark.parametrize("module", [*MODULES, demos, svgplot], ids=lambda m: m.__name__)
    def test_every_public_def_and_class_is_exported(self, module):
        tree = ast.parse(Path(module.__file__).read_text())
        public = [
            node.name
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
        ]
        assert [name for name in public if name not in module.__all__] == []

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            relfix.no_such_name
