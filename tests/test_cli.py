import hashlib
import json
import warnings

import pytest

from relfix import cli

GOOD_INSTANCE = {
    "n": 2,
    "pairs": [[0, 0], [1, 0]],
    "map": [0, 0],
    "g": [[0, 1], [1, 0]],
}

G1_VIOLATOR = {
    "n": 2,
    "pairs": [[0, 1]],
    "map": [0, 1],
    "g": [[0, 0], [1, 0]],
}


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def run_and_parse(capsys, argv):
    code = cli.run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestExampleCommand:
    def test_csv_and_svg_agree(self, tmp_path, capsys):
        csv_path = tmp_path / "residuals.csv"
        svg_path = tmp_path / "residuals.svg"
        code, summary = run_and_parse(
            capsys,
            [
                "example", "--which", "1", "--n", "30",
                "--out", str(csv_path), "--svg", str(svg_path),
            ],
        )
        assert code == cli.EXIT_OK
        assert summary["which"] == 1
        assert summary["steps"] == 30
        assert summary["certified"] is True
        assert summary["preserved"] is True

        lines = csv_path.read_text().splitlines()
        assert lines[0] == "iteration,residual"
        assert len(lines) == 31
        assert svg_path.read_text().count("<circle") == 30

    def test_reruns_are_byte_identical(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        svg = tmp_path / "r.svg"
        argv = [
            "example", "--which", "2", "--n", "20",
            "--out", str(out), "--svg", str(svg),
        ]
        assert cli.run(argv) == 0
        first = (out.read_bytes(), svg.read_bytes())
        assert cli.run(argv + ["--force"]) == 0
        assert (out.read_bytes(), svg.read_bytes()) == first
        capsys.readouterr()

    def test_existing_output_is_not_clobbered(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        out.write_text("precious\n")
        code = cli.run(["example", "--which", "1", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert "exists" in err
        assert out.read_text() == "precious\n"

    def test_scenario2_orbit_enters_the_basin(self, tmp_path, capsys):
        code, summary = run_and_parse(
            capsys, ["example", "--which", "2", "--n", "40", "--u0", "2.0"]
        )
        assert code == 0
        assert abs(summary["final_point"][0]) < 1e-9

    def test_out_of_basin_start_is_an_error(self, capsys):
        code = cli.run(["example", "--which", "2", "--u0", "4.0"])
        assert code == 1
        assert "basin" in capsys.readouterr().err


class TestVerifyCommand:
    def test_scenario1_report(self, capsys):
        code, doc = run_and_parse(capsys, ["verify", "--example", "1"])
        assert code == cli.EXIT_OK
        assert doc["g_properties"]["passed"] is False
        # first probe pair in scan order with equal second coordinates
        witness = doc["g_properties"]["g1_witness"]
        assert witness == [[0.0, 0.0], [1.0, 0.0]]
        assert witness[0] != witness[1]
        assert witness[0][1] == witness[1][1]
        assert doc["relation_patterns"]["passed"] is True
        assert doc["contraction_on_relation"]["factor"] == 0.25
        assert doc["seed_ok"] is True
        assert doc["hypotheses_pass"] is True

    @pytest.mark.parametrize("tol", ["nan", "-1"])
    def test_bad_tolerance_is_an_error(self, capsys, tol):
        # with NaN every comparison is false and scenario 1's g1 witness
        # would vanish; with -1 g2 would fail on every pair
        code = cli.run(["verify", "--example", "1", "--tol", tol])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "tol" in err

    def test_scenario2_report(self, capsys):
        code, doc = run_and_parse(capsys, ["verify", "--example", "2"])
        assert code == cli.EXIT_OK
        assert doc["g_properties"]["passed"] is True
        assert doc["contraction_on_relation"]["factor"] == 0.25
        assert doc["unrestricted_expansion"]["ratio"] == 5.25
        assert doc["hypotheses_pass"] is True

    def test_good_instance(self, tmp_path, capsys):
        path = write_json(tmp_path / "inst.json", GOOD_INSTANCE)
        code, doc = run_and_parse(capsys, ["verify", "--instance", path])
        assert code == cli.EXIT_OK
        assert doc["hypotheses_hold"] is True
        assert doc["conclusion_holds"] is True
        assert "alpha = 1/4" in doc["reason"]

    def test_violating_instance(self, tmp_path, capsys):
        path = write_json(tmp_path / "inst.json", G1_VIOLATOR)
        code, doc = run_and_parse(capsys, ["verify", "--instance", path])
        assert code == cli.EXIT_HYPOTHESIS_FAILURE
        assert doc["hypotheses_hold"] is False
        assert "(g1)" in doc["reason"]
        assert doc["conclusion_holds"] is None

    def test_report_file_matches_stdout(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = cli.run(["verify", "--example", "1", "--out", str(out)])
        stdout = capsys.readouterr().out
        assert code == 0
        assert out.read_text() == stdout

    @pytest.mark.parametrize(
        "text",
        [
            '{"n": 2, "pairs": [[0, 0]], "map": [0, 0]}',
            '{"n": "2", "pairs": [[0, 0]], "map": [0, 0], "g": [[0, 1], [1, 0]]}',
            '[2, [[0, 0]], [0, 0], [[0, 1], [1, 0]]]',
            '{"n": 2, "pairs": [[0, 1]], "map": [0, 0], "g": [[0, 0.5], [1, 0]]}',
            '{"n": 2, "pairs": [[0, 0]], "map": [true, 0], "g": [[0, 1], [1, 0]]}',
            '{"n": 2, "pairs": [[0, 0]], "map": [0, 0], "g": [[0, Infinity], [1, 0]]}',
            "[" * 100_000,
            "",
        ],
        ids=[
            "missing-g", "string-n", "top-level-list", "fractional-g", "bool-map", "infinity",
            "deeply-nested", "not-json",
        ],
    )
    @pytest.mark.parametrize("command", ["verify", "iterate"])
    def test_malformed_instance_is_one_error_line(self, tmp_path, capsys, command, text):
        path = tmp_path / "inst.json"
        path.write_text(text)
        code = cli.run([command, "--instance", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        lines = captured.err.splitlines()
        # the file is named once, right after the prefix
        assert len(lines) == 1 and lines[0].startswith(f"error: {path}: ")
        assert lines[0].count(str(path)) == 1
        assert "Traceback" not in captured.err

    def test_missing_instance_file(self, tmp_path, capsys):
        code = cli.run(
            ["verify", "--instance", str(tmp_path / "missing.json")]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestIterateCommand:
    def test_finite_instance_orbit(self, tmp_path, capsys):
        path = write_json(tmp_path / "inst.json", GOOD_INSTANCE)
        csv_path = tmp_path / "trace.csv"
        code, summary = run_and_parse(
            capsys,
            ["iterate", "--instance", path, "--r0", "1", "--out", str(csv_path)],
        )
        assert code == 0
        assert summary["steps"] == 2
        assert summary["converged"] is True
        assert summary["certified"] is True
        assert summary["final_residual"] == 0.0
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "iteration,residual"
        assert len(lines) == 3

    def test_start_index_is_validated(self, tmp_path, capsys):
        path = write_json(tmp_path / "inst.json", GOOD_INSTANCE)
        code = cli.run(["iterate", "--instance", path, "--r0", "9"])
        assert code == 1
        assert "--r0" in capsys.readouterr().err

    def test_empty_ground_set_is_one_error_line(self, tmp_path, capsys):
        # no start index exists, so the range 0..-1 is not named
        path = write_json(tmp_path / "empty.json", {"n": 0, "pairs": [], "map": [], "g": []})
        assert cli.run(["iterate", "--instance", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        message = f"error: {path}: the instance's ground set is empty: no --r0 exists"
        assert captured.err.splitlines() == [message]
        # verify decides the same file: no seed, so the hypotheses fail
        code, doc = run_and_parse(capsys, ["verify", "--instance", path])
        assert code == cli.EXIT_HYPOTHESIS_FAILURE
        assert doc["reason"].startswith("seed set empty")

    def test_plane_scenario(self, capsys):
        code, summary = run_and_parse(
            capsys,
            [
                "iterate", "--example", "1",
                "--r0-point", "0,1", "--tol", "1e-8",
            ],
        )
        assert code == 0
        assert summary["converged"] is True
        assert summary["preserved"] is True

    def test_malformed_start_point(self, capsys):
        code = cli.run(["iterate", "--example", "1", "--r0-point", "1,2,3"])
        assert code == 1
        assert "coordinates" in capsys.readouterr().err

    @pytest.mark.parametrize("point", ["nan,1", "0,inf"])
    def test_non_finite_start_point(self, capsys, point):
        code = cli.run(["iterate", "--example", "1", f"--r0-point={point}"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "finite" in err


class TestSolveFdeCommand:
    def test_summary_and_outputs(self, tmp_path, capsys):
        sol = tmp_path / "solution.csv"
        res = tmp_path / "residuals.csv"
        svg = tmp_path / "residuals.svg"
        code, summary = run_and_parse(
            capsys,
            [
                "solve-fde", "--grid", "64",
                "--out", str(sol), "--residuals-out", str(res), "--svg", str(svg),
            ],
        )
        assert code == 0
        assert summary["zeta"] == 0.9
        assert summary["grid"] == 64
        assert summary["gamma_variant"] == "zeta_plus_one"
        assert summary["converged"] is True
        assert summary["boundary_residuals"][0] == 0.0

        sol_lines = sol.read_text().splitlines()
        assert sol_lines[0] == "t,value"
        assert len(sol_lines) == 66
        assert res.read_text().splitlines()[0] == "iteration,residual"
        assert "</svg>" in svg.read_text()

    def test_alpha_variant(self, capsys):
        code, summary = run_and_parse(
            capsys, ["solve-fde", "--grid", "64", "--gamma-variant", "alpha"]
        )
        assert code == 0
        assert summary["gamma_variant"] == "alpha_plus_one"

    def test_large_grid(self, capsys):
        # the weights are O(N); a dense table here would need 2.1 GB
        code, summary = run_and_parse(capsys, ["solve-fde", "--grid", "16384"])
        assert code == 0
        assert summary["grid"] == 16384
        assert summary["converged"] is True

    @pytest.mark.parametrize("zeta", ["nan", "inf"])
    def test_non_finite_zeta_is_an_error(self, zeta, capsys):
        code = cli.run(["solve-fde", "--grid", "64", "--zeta", zeta])
        assert code == 1
        expected = f"error: zeta must be positive and finite, got {float(zeta)!r}\n"
        assert capsys.readouterr().err == expected

    @pytest.mark.parametrize(
        "zeta, variant, argument",
        [
            ("171", "zeta", "172.0"),
            # the weights, built with the problem, overflow before the bound
            ("200", "zeta", "200.0"),
            ("200", "alpha", "200.0"),
            # the weights divided by this zeta, with numpy warnings, before Gamma refused it
            ("1e-320", "zeta", "1e-320"),
        ],
    )
    def test_overflowing_gamma_is_one_error_line(self, zeta, variant, argument, capsys):
        # Gamma(zeta) in the weights, or Gamma(zeta + 1) in the Lipschitz
        # bound, exceeds the largest float; math.gamma's own message
        # ("math range error") named neither the function nor its argument
        argv = ["solve-fde", "--grid", "16", "--zeta", zeta, "--gamma-variant", variant]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.run(argv) == 1
        assert capsys.readouterr().err == f"error: Gamma({argument}) is too large for a float\n"
        assert [str(w.message) for w in caught] == []

    def test_overflowing_weights_are_one_error_line(self, capsys):
        # m^zeta overflows in the weights from zeta = 112.8 on at N = 512:
        # one named error line, and no numpy warning
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.run(["solve-fde", "--zeta", "112"]) == 0
            capsys.readouterr()
            assert cli.run(["solve-fde", "--zeta", "120"]) == 1
        assert capsys.readouterr().err == (
            "error: quadrature weights for zeta=120.0 on 512 intervals overflow a float\n"
        )
        assert [str(w.message) for w in caught] == []

    def test_budget_too_small_is_an_error(self, capsys):
        code = cli.run(["solve-fde", "--grid", "64", "--max-iter", "0"])
        assert code == 1
        capsys.readouterr()

    def test_no_convergence_is_one_error_line(self, capsys):
        code = cli.run(["solve-fde", "--grid", "64", "--max-iter", "1"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: no convergence within 1 iterations (last residual ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "exc, line",
        [
            (MemoryError("Unable to allocate 745. GiB"), "error: Unable to allocate 745. GiB"),
            (MemoryError(), "error: MemoryError"),
        ],
        ids=["numpy-message", "bare"],
    )
    def test_failed_allocation_is_one_error_line(self, capsys, monkeypatch, exc, line):
        # a grid of 1e11 nodes fails in numpy with a MemoryError; raised here
        # so that nothing is allocated for real
        from relfix import fractional

        def refuse(*args, **kwargs):
            raise exc

        monkeypatch.setattr(fractional, "solve_fde", refuse)
        code = cli.run(["solve-fde", "--grid", "64"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.splitlines() == [line]


class TestOracleCommand:
    def test_small_slice(self, tmp_path, capsys):
        out = tmp_path / "oracle.json"
        code, doc = run_and_parse(
            capsys,
            [
                "oracle", "--n", "2", "--g-max", "1", "--rel-cap", "4",
                "--out", str(out),
            ],
        )
        assert code == cli.EXIT_OK
        assert doc["total_checked"] == 4 * 4 * 81
        assert doc["counterexample_count"] == 0
        assert doc["uniqueness_violation_count"] == 0
        assert json.loads(out.read_text()) == doc

    @pytest.mark.parametrize("cap", ["0", "-1"])
    def test_relation_cap_below_one_is_an_error(self, capsys, cap):
        # a slice with no relation would report "total_checked": 0 and pass
        code = cli.run(["oracle", "--n", "2", "--rel-cap", cap])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "rel_count_cap" in captured.err

    def test_default_sweep_for_pairs(self, capsys):
        code, doc = run_and_parse(capsys, ["oracle", "--n", "2"])
        assert code == cli.EXIT_OK
        assert doc["total_checked"] == 16 * 4 * 625

    @pytest.mark.parametrize("n", ["2", "3"])
    def test_reruns_are_byte_identical(self, capsys, n):
        outputs = []
        for _ in range(2):
            assert cli.run(["oracle", "--n", n]) == cli.EXIT_OK
            outputs.append(capsys.readouterr().out.encode())
        assert outputs[0] == outputs[1]

    # sha256 of the whole report as printed at commit e01cafc: a change in key
    # order or number formatting would pass a comparison of parsed JSON
    @pytest.mark.parametrize(
        "argv, digest",
        [
            (["--n", "2"], "f65b605b9bce47be52579da5c017c40856d7050666be33c80d522965cdbf85a2"),
            (["--n", "3"], "10ed3ae81f36b96cfc28bd3f0e912ec5655893b3506c58cb0b821ac1b8e82402"),
            (["--n", "4"], "9a20483fae97457f5e735e3b95ae9d8bf9d4285484d2b555c4eb65de002bc759"),
            (
                ["--n", "3", "--g-max", "2", "--rel-cap", "2"],
                "18241c0f1f016863a2417973741517d6b76ae01009374dec12c7eebef362dbe5",
            ),
        ],
        ids=["n2", "n3", "n4", "n3-g2-cap2"],
    )
    def test_report_bytes_are_pinned(self, capsys, argv, digest):
        assert cli.run(["oracle", *argv]) == cli.EXIT_OK
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    def test_default_sweep_for_four_points(self, capsys):
        code, doc = run_and_parse(capsys, ["oracle", "--n", "4"])
        assert code == cli.EXIT_OK
        assert doc["total_checked"] == 2 * 4**4 * 3**16 == 22_039_921_152
        assert doc["sweeps"][0]["instances_checked"] == 22_039_921_152
        assert doc["counterexample_count"] == 0
        assert doc["uniqueness_violation_count"] == 0

    def test_counterexample_exit_code(self, capsys, monkeypatch):
        class FakeSweep:
            instances_checked = 1
            counterexamples = [{"index": 0, "instances": 2}, {"index": 9, "instances": 3}]
            uniqueness_violations = []

            def to_json_dict(self):
                return {}

        monkeypatch.setattr(cli, "run_oracle", lambda spec: FakeSweep())
        code, doc = run_and_parse(capsys, ["oracle", "--n", "2"])
        assert code == cli.EXIT_COUNTEREXAMPLE
        assert doc["counterexample_count"] == 5

    def test_uniqueness_violation_exit_code(self, capsys, monkeypatch):
        class FakeSweep:
            instances_checked = 1
            counterexamples = []
            uniqueness_violations = [{"index": 0, "instances": 1}]

            def to_json_dict(self):
                return {}

        monkeypatch.setattr(cli, "run_oracle", lambda spec: FakeSweep())
        code, doc = run_and_parse(capsys, ["oracle", "--n", "2"])
        assert code == cli.EXIT_COUNTEREXAMPLE
        assert doc["counterexample_count"] == 0
        assert doc["uniqueness_violation_count"] == 1

    def test_a_listed_counterexample_loads_as_an_instance(self, tmp_path, capsys, monkeypatch):
        from relfix import finite_oracle

        monkeypatch.setattr(finite_oracle, "conclusion_holds", lambda pair: False)
        code, doc = run_and_parse(capsys, ["oracle", "--n", "2"])
        assert code == cli.EXIT_COUNTEREXAMPLE
        (sweep,) = doc["sweeps"]
        listed = sweep["counterexamples"]
        assert doc["counterexample_count"] == sum(d["instances"] for d in listed)
        assert doc["counterexample_count"] == sweep["hypotheses_satisfied"] > len(listed)
        path = tmp_path / "counterexample.json"
        path.write_text(json.dumps(listed[0]))
        monkeypatch.undo()
        code, verdict = run_and_parse(capsys, ["verify", "--instance", str(path)])
        assert code == cli.EXIT_OK
        assert verdict["hypotheses_hold"] is True
        assert verdict["conclusion_holds"] is True

    def test_report_wraps_the_slice_in_its_totals(self, capsys):
        from relfix.finite_oracle import SweepSpec, run_oracle

        code, doc = run_and_parse(capsys, ["oracle", "--n", "3", "--g-max", "2", "--rel-cap", "2"])
        sweep = run_oracle(SweepSpec(3, 2, 2))
        assert code == cli.EXIT_OK
        assert list(doc) == [
            "total_checked", "counterexample_count", "uniqueness_violation_count", "sweeps",
        ]
        assert doc["total_checked"] == sweep.instances_checked == 2 * 3**3 * 5**9
        assert doc["counterexample_count"] == doc["uniqueness_violation_count"] == 0
        assert doc["sweeps"] == [sweep.to_json_dict()]


# commands with an output that already exists: each must be refused before it
# writes anything; the refused outputs are listed after the command
REFUSED = [
    (["example", "--which", "1", "--out", "new.csv", "--svg", "existing.svg"], ["existing.svg"]),
    (
        [
            "solve-fde", "--grid", "16",
            "--out", "s.csv", "--residuals-out", "r.csv", "--svg", "existing.svg",
        ],
        ["existing.svg"],
    ),
    (["oracle", "--n", "2", "--out", "existing.json"], ["existing.json"]),
]


EMPTY = "an output path is empty"


def engine_called(*args, **kwargs):
    pytest.fail("an engine ran before the outputs were vetted")


@pytest.fixture
def no_engine(monkeypatch):
    """Each engine a vetted command reaches fails the test if it runs."""
    from relfix import demos, fractional

    monkeypatch.setattr(cli, "run_oracle", engine_called)
    monkeypatch.setattr(cli, "iterate", engine_called)
    monkeypatch.setattr(demos, "example1_run", engine_called)
    monkeypatch.setattr(fractional, "solve_fde", engine_called)


class TestOutputRule:
    """Outputs are vetted before any work; a refused command writes nothing."""

    def _run_in(self, path, monkeypatch, argv):
        monkeypatch.chdir(path)
        return cli.run(argv)

    @pytest.mark.parametrize("argv, existing", REFUSED, ids=["example", "solve-fde", "oracle"])
    def test_existing_output_refuses_the_whole_command(
        self, tmp_path, capsys, monkeypatch, no_engine, argv, existing
    ):
        for name in existing:
            (tmp_path / name).write_text("precious\n")
        code = self._run_in(tmp_path, monkeypatch, argv)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"error: {existing[0]} exists; pass --force to overwrite\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(existing)
        for name in existing:
            assert (tmp_path / name).read_text() == "precious\n"

    @pytest.mark.parametrize("argv, existing", REFUSED, ids=["example", "solve-fde", "oracle"])
    def test_force_writes_what_a_fresh_run_writes(
        self, tmp_path, capsys, monkeypatch, argv, existing
    ):
        fresh, forced = tmp_path / "fresh", tmp_path / "forced"
        fresh.mkdir()
        forced.mkdir()
        assert self._run_in(fresh, monkeypatch, argv) == cli.EXIT_OK
        expected_out = capsys.readouterr().out
        for name in existing:
            (forced / name).write_text("precious\n")
        assert self._run_in(forced, monkeypatch, argv + ["--force"]) == cli.EXIT_OK
        assert capsys.readouterr().out == expected_out
        written = {p.name: p.read_bytes() for p in fresh.iterdir()}
        assert {p.name: p.read_bytes() for p in forced.iterdir()} == written
        flags = ("--out", "--residuals-out", "--svg")
        assert sorted(written) == sorted(argv[i + 1] for i, a in enumerate(argv) if a in flags)

    @pytest.mark.parametrize(
        "argv",
        [
            ["iterate", "--example", "1", "--out", "x", "--svg", "x"],
            ["iterate", "--example", "1", "--out", "x", "--svg", "./x"],
            ["iterate", "--example", "1", "--out", "x", "--svg", "x", "--force"],
            ["solve-fde", "--grid", "16", "--out", "s.csv", "--residuals-out", "sub/../s.csv"],
        ],
        ids=["same", "same-resolved", "same-forced", "solve-fde"],
    )
    def test_one_path_named_twice_is_refused(self, tmp_path, capsys, monkeypatch, no_engine, argv):
        (tmp_path / "sub").mkdir()
        code = self._run_in(tmp_path, monkeypatch, argv)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: one file is named by two output flags: ")
        assert [p.name for p in tmp_path.iterdir()] == ["sub"]

    @pytest.mark.parametrize(
        "argv, error",
        [
            (["example", "--which", "1", "--out", "e.csv", "--svg", "nodir/e.svg"], "nodir/e.svg"),
            (["example", "--which", "1", "--out", "nodir/../e.csv"], "nodir/../e.csv"),
            (["solve-fde", "--grid", "16", "--out", "s.csv", "--svg", "sub", "--force"], "sub"),
            (["oracle", "--n", "2", "--out", "file/r.json"], "file/r.json"),
            # an empty path names no file, with or without --force
            (["example", "--which", "1", "--out", "", "--force"], EMPTY),
            (["iterate", "--example", "1", "--out", "i.csv", "--svg", ""], EMPTY),
            (["solve-fde", "--grid", "16", "--residuals-out", ""], EMPTY),
        ],
        ids=[
            "missing-directory",
            "through-missing-directory",
            "directory-forced",
            "under-a-file",
            "empty-out",
            "empty-svg",
            "empty-residuals-out",
        ],
    )
    def test_output_without_a_directory_to_go_in_is_refused(
        self, tmp_path, capsys, monkeypatch, no_engine, argv, error
    ):
        (tmp_path / "sub").mkdir()
        (tmp_path / "file").write_text("precious\n")
        code = self._run_in(tmp_path, monkeypatch, argv)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        if error != EMPTY:
            error += " is a directory, or its directory does not exist"
        assert captured.err == f"error: {error}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["file", "sub"]
        assert list((tmp_path / "sub").iterdir()) == []
        assert (tmp_path / "file").read_text() == "precious\n"

    def test_existing_directory_without_force_is_an_existing_output(
        self, tmp_path, capsys, monkeypatch, no_engine
    ):
        (tmp_path / "sub").mkdir()
        argv = ["example", "--which", "1", "--out", "e.csv", "--svg", "sub"]
        assert self._run_in(tmp_path, monkeypatch, argv) == 1
        assert capsys.readouterr().err == "error: sub exists; pass --force to overwrite\n"
        assert [p.name for p in tmp_path.iterdir()] == ["sub"]

    def test_distinct_paths_of_one_name_are_written(self, tmp_path, capsys, monkeypatch):
        (tmp_path / "sub").mkdir()
        argv = ["iterate", "--example", "1", "--out", "x", "--svg", "sub/x"]
        assert self._run_in(tmp_path, monkeypatch, argv) == cli.EXIT_OK
        capsys.readouterr()
        assert (tmp_path / "x").read_text().startswith("iteration,residual\n")
        assert (tmp_path / "sub" / "x").read_text().startswith("<svg")

    def test_failed_render_writes_no_file(self, tmp_path, capsys, monkeypatch):
        # the plot is rendered after the CSV but before either is written
        def refuse(*args, **kwargs):
            raise ValueError("no plot")

        monkeypatch.setattr(cli, "render_residual_plot", refuse)
        argv = ["example", "--which", "1", "--out", "e.csv", "--svg", "e.svg"]
        assert self._run_in(tmp_path, monkeypatch, argv) == 1
        assert capsys.readouterr().err == "error: no plot\n"
        assert list(tmp_path.iterdir()) == []


def write_args(path, *lines):
    path.write_text("".join(line + "\n" for line in lines))
    return "@" + str(path)


class TestArgsFile:
    # only a space before the first "=" splits a flag from its value
    @pytest.mark.parametrize("name", ["t.csv", "my file.csv"], ids=["plain", "spaced"])
    def test_reproduces_typed_flags(self, tmp_path, capsys, name):
        out = tmp_path / name
        assert cli.run(["example", "--which", "1", "--out", str(out), "--force"]) == 0
        typed_stdout, typed_csv = capsys.readouterr().out, out.read_bytes()
        out.write_text("stale\n")
        argfile = write_args(
            tmp_path / "run.args", "example", "--which=1", f"--out={out}", "--force"
        )
        assert cli.run([argfile]) == 0
        assert capsys.readouterr().out == typed_stdout
        assert out.read_bytes() == typed_csv

    def test_passes_a_value_that_starts_with_a_dash(self, tmp_path, capsys):
        assert cli.run(["iterate", "--example", "2", "--r0-point=-1,2"]) == 0
        typed = capsys.readouterr().out
        argfile = write_args(tmp_path / "run.args", "iterate", "--example=2", "--r0-point=-1,2")
        assert cli.run([argfile]) == 0
        assert capsys.readouterr().out == typed

    def test_typed_flags_may_follow(self, tmp_path, capsys):
        assert cli.run(["oracle", "--n", "2"]) == 0
        typed = capsys.readouterr().out
        assert cli.run([write_args(tmp_path / "run.args", "oracle"), "--n", "2"]) == 0
        assert capsys.readouterr().out == typed

    def test_missing_file_is_one_error_line(self, tmp_path, capsys):
        code = cli.run(["@" + str(tmp_path / "nope.args")])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: relfix")
        assert "No such file or directory" in lines[0]

    @pytest.mark.parametrize(
        "argv",
        [
            ["oracle", "--n", "2"],
            ["verify", "--example", "1"],
            ["verify", "--example", "2"],
            ["iterate", "--example", "1"],
            ["solve-fde", "--grid", "16"],
            ["example", "--which", "2"],
        ],
        ids=["oracle", "verify-1", "verify-2", "iterate-1", "solve-fde", "example-2"],
    )
    def test_matches_the_typed_command(self, tmp_path, capsys, argv):
        # a flag and its value may also sit on two lines, one argument each
        code = cli.run(argv)
        typed = capsys.readouterr()
        assert cli.run([write_args(tmp_path / "run.args", *argv)]) == code
        assert capsys.readouterr() == typed

    def test_files_may_nest(self, tmp_path, capsys):
        assert cli.run(["oracle", "--n", "2"]) == 0
        typed = capsys.readouterr().out
        inner = write_args(tmp_path / "inner.args", "--n=2")
        assert cli.run([write_args(tmp_path / "outer.args", "oracle", inner)]) == 0
        assert capsys.readouterr().out == typed

    def test_empty_file_is_a_bare_command(self, tmp_path, capsys):
        code = cli.run([])
        bare = capsys.readouterr()
        assert cli.run([write_args(tmp_path / "run.args")]) == code
        assert capsys.readouterr() == bare

    @pytest.mark.parametrize(
        "lines, typed, message",
        [
            (["verify", "--example=1", "--force=1"], [], "ignored explicit argument '1'"),
            (["verify", "--example=1", "--out"], [], "--out: expected one argument"),
            (["oracle", "--n 2"], [], "line '--n 2': write one argument per line"),
            (["oracle", "--n=2", ""], [], "line '': write one argument per line"),
            (["example", "--which=1", "  "], [], "line '  ': write one argument per line"),
            (
                ["oracle", "--n=2", "--out my=r.json"],
                [],
                "line '--out my=r.json': write one argument per line",
            ),
            (["verify", "--example=1"], ["oracle", "--n", "2"], "unrecognized arguments: oracle"),
            (["@{self}"], [], "recursion"),
        ],
        ids=[
            "switch-with-value",
            "flag-without-value",
            "flag-and-value-on-one-line",
            "blank-line",
            "whitespace-line",
            "space-before-equals",
            "second-subcommand",
            "names-itself",
        ],
    )
    def test_malformed_file_is_one_error_line(self, tmp_path, capsys, lines, typed, message):
        path = tmp_path / "run.args"
        argfile = write_args(path, *(line.format(self=path) for line in lines))
        code = cli.run([argfile, *typed])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert message in err[0]

    @pytest.mark.parametrize(
        "make, message",
        [
            # before 3.13 the decoder fails; 3.13 reads the bytes as an
            # invalid subcommand, so only the one-line rule is common
            (lambda path: path.write_bytes(b"\xff\xfe\n"), ""),
            (lambda path: path.mkdir(), "Is a directory"),
        ],
        ids=["not-text", "directory"],
    )
    def test_unreadable_file_is_one_error_line(self, tmp_path, capsys, make, message):
        path = tmp_path / "run.args"
        make(path)
        code = cli.run(["@" + str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert message in err[0]


@pytest.mark.parametrize(
    "name, argv",
    [
        ("hypotheses_hold", ["verify", "--instance", "{instance}"]),
        ("conclusion_holds", ["verify", "--instance", "{instance}"]),
        ("run_oracle", ["oracle", "--n", "2"]),
        ("verify_g_properties", ["verify", "--example", "1"]),
        ("relation_pattern_report", ["verify", "--example", "1"]),
        ("estimate_contraction_factor", ["verify", "--example", "2"]),
        ("iterate", ["iterate", "--instance", "{instance}"]),
        ("iterate", ["iterate", "--example", "2"]),
        ("render_residual_plot", ["example", "--which", "1", "--svg", "{tmp}/p.svg"]),
    ],
)
def test_handlers_call_engine_names_through_the_module(name, argv, tmp_path, capsys, monkeypatch):
    # engines are imported lazily, so a handler must read these names from
    # the cli module at call time for a rebinding (the traced pass) to count
    def stub(*args, **kwargs):
        raise ValueError(f"stub {name}")

    monkeypatch.setattr(cli, name, stub)
    instance = write_json(tmp_path / "instance.json", GOOD_INSTANCE)
    code = cli.run([a.format(instance=instance, tmp=tmp_path) for a in argv])
    assert code == 1
    assert capsys.readouterr().err == f"error: stub {name}\n"


class TestTopLevel:
    def test_no_subcommand_prints_usage(self, capsys):
        code = cli.run([])
        assert code == 2
        assert "usage" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["verify", "--example", "3"], "invalid choice: 3"),
            (["oracle", "--n", "x"], "invalid int value: 'x'"),
            (["verify", "--example", "1", "--bogus"], "unrecognized arguments: --bogus"),
            (["--bogus"], "unrecognized arguments: --bogus"),
            (["oracle"], "required: --n"),
            (["{argfile}"], "invalid choice: 3"),
        ],
        ids=["bad-choice", "bad-int", "unknown-flag", "unknown-top-flag", "missing-flag", "config"],
    )
    def test_malformed_flags_are_one_error_line(self, tmp_path, capsys, argv, message):
        # exit 2 means a failed hypothesis check, so a rejected command line
        # must not return it
        argfile = write_args(tmp_path / "run.args", "verify", "--example=3")
        code = cli.run([arg.format(argfile=argfile) for arg in argv])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: relfix")
        assert message in lines[0]

    @pytest.mark.parametrize("argv", [["-h"], ["verify", "-h"]])
    def test_help_exits_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.run(argv)
        assert exc.value.code == 0
        assert "usage" in capsys.readouterr().out

    def test_exit_codes(self):
        assert cli.EXIT_OK == 0
        assert cli.EXIT_HYPOTHESIS_FAILURE == 2
        assert cli.EXIT_COUNTEREXAMPLE == 3
