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
        ],
        ids=["missing-g", "string-n", "top-level-list", "fractional-g", "bool-map", "infinity"],
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
        assert len(lines) == 1 and lines[0].startswith("error: ")
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
        assert capsys.readouterr().err == "error: zeta must be positive and finite\n"

    @pytest.mark.parametrize(
        "zeta, variant, argument",
        [
            ("171", "zeta", "172.0"),
            ("200", "zeta", "201.0"),
            ("200", "alpha", "200.0"),
            # the weights divided by this zeta, with numpy warnings, before Gamma refused it
            ("1e-320", "zeta", "1e-320"),
        ],
    )
    def test_overflowing_gamma_is_one_error_line(self, zeta, variant, argument, capsys):
        # Gamma(zeta + 1) in the Lipschitz bound, or Gamma(zeta) in the
        # weights, exceeds the largest float; math.gamma's own message
        # ("math range error") named neither the function nor its argument
        argv = ["solve-fde", "--grid", "16", "--zeta", zeta, "--gamma-variant", variant]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.run(argv) == 1
        assert capsys.readouterr().err == f"error: Gamma({argument}) is too large for a float\n"
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

    def test_default_sweep_for_four_points(self, capsys):
        code, doc = run_and_parse(capsys, ["oracle", "--n", "4"])
        assert code == cli.EXIT_OK
        assert doc["total_checked"] == 2 * 4**4 * 3**16 == 22_039_921_152
        assert doc["sweeps"][0]["instances_checked"] == 22_039_921_152
        assert doc["counterexample_count"] == 0
        assert doc["uniqueness_violation_count"] == 0

    def test_counterexample_exit_code(self, capsys, monkeypatch):
        class FakeReport:
            counterexamples = [{"index": 0}]
            uniqueness_violations = []

            def to_json_dict(self):
                return {
                    "total_checked": 1,
                    "counterexample_count": 1,
                    "uniqueness_violation_count": 0,
                    "sweeps": [],
                }

        monkeypatch.setattr(cli, "run_oracle", lambda sweeps: FakeReport())
        code, doc = run_and_parse(capsys, ["oracle", "--n", "2"])
        assert code == cli.EXIT_COUNTEREXAMPLE
        assert doc["counterexample_count"] == 1


class TestConfigMirror:
    def test_config_reproduces_direct_flags(self, tmp_path, capsys):
        direct_out = tmp_path / "direct.csv"
        config_out = tmp_path / "config.csv"
        assert (
            cli.run(
                ["example", "--which", "1", "--n", "10", "--out", str(direct_out)]
            )
            == 0
        )
        config = {
            "subcommand": "example",
            "which": 1,
            "n": 10,
            "out": str(config_out),
            "force": True,
        }
        path = write_json(tmp_path / "config.json", config)
        assert cli.run(["--config", path]) == 0
        assert config_out.read_bytes() == direct_out.read_bytes()
        capsys.readouterr()

    def test_config_without_subcommand(self, tmp_path, capsys):
        path = write_json(tmp_path / "config.json", {"which": 1})
        code = cli.run(["--config", path])
        assert code == 1
        assert "subcommand" in capsys.readouterr().err

    def test_config_that_is_not_an_object(self, tmp_path, capsys):
        path = write_json(tmp_path / "config.json", ["subcommand"])
        code = cli.run(["--config", path])
        assert code == 1
        assert capsys.readouterr().err == "error: config must be a JSON object\n"

    def test_null_value_is_rejected(self, tmp_path, capsys, monkeypatch):
        # a null used to reach argparse as the string "None": exit 0 and a
        # report written to a file named None
        monkeypatch.chdir(tmp_path)
        config = {"subcommand": "oracle", "n": 2, "out": None}
        code = cli.run(["--config", write_json(tmp_path / "c.json", config)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "error: config value for 'out' is null; leave the key out\n"
        assert not (tmp_path / "None").exists()

    @pytest.mark.parametrize("value", ["false", "true", 0, 1, [True]])
    def test_switch_needs_a_bool(self, tmp_path, capsys, value):
        config = {"subcommand": "verify", "example": 1, "force": value}
        code = cli.run(["--config", write_json(tmp_path / "c.json", config)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert lines == [
            f"error: config value for 'force' must be true or false, got {value!r}"
        ]

    @pytest.mark.parametrize("value", [True, False])
    def test_switch_as_bool_still_works(self, tmp_path, capsys, value):
        config = {"subcommand": "verify", "example": 1, "force": value}
        assert cli.run(["--config", write_json(tmp_path / "c.json", config)]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize(
        "key, value",
        [("out", False), ("out", True), ("tol", True), ("bogus", False)],
        ids=["out-false", "out-true", "tol-true", "unknown-false"],
    )
    def test_value_flag_rejects_a_bool(self, tmp_path, capsys, monkeypatch, key, value):
        # a bool is meaningful only for a switch: false would drop the flag
        # silently and true would reach argparse as a bare flag
        monkeypatch.chdir(tmp_path)
        config = {"subcommand": "verify", "example": 1, key: value}
        code = cli.run(["--config", write_json(tmp_path / "c.json", config)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: config value for {key!r} must be a value, not true or false, "
            f"got {value!r}"
        ]
        assert [p.name for p in tmp_path.iterdir()] == ["c.json"]

    def test_config_and_subcommand_together_are_rejected(self, tmp_path, capsys):
        # one of the two would have to be ignored
        config = write_json(tmp_path / "c.json", {"subcommand": "verify", "example": 1})
        code = cli.run(["--config", config, "oracle", "--n", "2"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: give either --config or a subcommand, not both"
        ]

    def test_missing_config_file(self, tmp_path, capsys):
        code = cli.run(["--config", str(tmp_path / "nope.json")])
        assert code == 1
        capsys.readouterr()


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
            (["--config", "{config}"], "invalid choice: 3"),
        ],
        ids=["bad-choice", "bad-int", "unknown-flag", "unknown-top-flag", "missing-flag", "config"],
    )
    def test_malformed_flags_are_one_error_line(self, tmp_path, capsys, argv, message):
        # exit 2 means a failed hypothesis check, so a rejected command line
        # must not return it
        config = write_json(tmp_path / "c.json", {"subcommand": "verify", "example": 3})
        code = cli.run([arg.format(config=config) for arg in argv])
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
