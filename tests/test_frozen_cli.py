"""Replay the benchmark's frozen CLI outputs in process.

``perfbench/reference/cli.json`` holds the exit code and stdout JSON of 214
commands: the fixed ``verify`` and ``example`` commands, ``iterate`` on the
second plane scenario from 66 start points, and ``verify`` plus ``iterate
--r0 r`` for every start index on 32 finite instances. Each is run here
through ``cli.run`` and compared with its frozen result, so a change of
output shows in the test suite, not only in a benchmark run.
"""

import json
from pathlib import Path

import pytest

from relfix import cli

REFERENCE = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "cli.json").read_text()
)


def check(capsys, argv, frozen):
    code = cli.run(argv)
    assert code == frozen["exit"], argv
    assert json.loads(capsys.readouterr().out) == frozen["stdout"], argv


@pytest.mark.parametrize("command", sorted(REFERENCE["fixed"]))
def test_fixed_command(command, tmp_path, capsys):
    argv = command.split()
    if argv[0] == "example":
        argv += ["--svg", str(tmp_path / "example.svg")]
    check(capsys, argv, REFERENCE["fixed"][command])


@pytest.mark.parametrize("point", sorted(REFERENCE["points"]))
def test_scenario2_start_point(point, capsys):
    argv = ["iterate", "--example", "2", f"--r0-point={point}"]
    check(capsys, argv, REFERENCE["points"][point])


@pytest.mark.parametrize(
    "entry",
    REFERENCE["instances"],
    ids=[f"n{e['doc']['n']}-{i}" for i, e in enumerate(REFERENCE["instances"])],
)
def test_finite_instance(entry, tmp_path, capsys):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(entry["doc"]))
    check(capsys, ["verify", "--instance", str(path)], entry["verify"])
    for r0, frozen in enumerate(entry["iterate"]):
        check(capsys, ["iterate", "--instance", str(path), "--r0", str(r0)], frozen)
