import contextlib
import io
import json
import math
import shlex
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oamsim.bell import SHOTS_LIMIT, CoincidenceTable
from oamsim import cli
from oamsim.cli import (
    BUILTIN_CIRCUITS,
    EXIT_GUARD,
    EXIT_INTERNAL,
    REPORT_SCHEMA,
    TRUNCATION_LIMIT,
    main,
)
from oamsim.elements import circuit_to_dict, spiral_phase_plate
from oamsim.hilbert import PhotonState, SpectrumModel, mode


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


def validate(report):
    jsonschema.validate(report, REPORT_SCHEMA)


class TestBellCommand:
    def test_maximal_settings(self, capsys):
        code, report = run_json(capsys, "bell", "--theta", "0", "--theta2", "45",
                                "--chi", "22.5", "--chi2", "67.5")
        assert code == 0
        assert report["B"] == pytest.approx(2.8284271247461903, abs=1e-9)
        assert report["config"]["theta_deg"] == 0.0
        assert report["C"]["theta_chi"]["C"] == pytest.approx(
            math.cos(math.radians(22.5)) ** 2, abs=1e-9)
        validate(report)

    def test_sampled_mode_reports_sigma_and_counts(self, capsys):
        code, report = run_json(capsys, "bell", "--theta", "0", "--theta2", "45",
                                "--chi", "22.5", "--chi2", "67.5",
                                "--shots", "20000", "--seed", "11")
        assert code == 0
        assert "sigma" in report
        assert sum(report["C"]["theta_chi"]["counts"]) == 20000
        assert abs(report["B"] - 2.8284271247461903) < 5 * report["sigma"]
        validate(report)

    def test_shots_without_seed_rejected(self, capsys):
        code, report = run_json(capsys, "bell", "--theta", "0", "--theta2", "45",
                                "--chi", "22.5", "--chi2", "67.5", "--shots", "10")
        assert code == 2
        assert report["error"]["code"] == "validation"


    def test_empty_analyzer_port_is_a_json_error(self, capsys):
        # A one-term spectrum leaves Alice's theta port dark at theta = 90 deg.
        code = main(["bell", "--theta", "90", "--theta2", "45", "--chi", "22.5",
                     "--chi2", "67.5", "--spectrum",
                     '{"kind":"explicit","coeffs":[[0,1.0]]}'])
        captured = capsys.readouterr()
        assert code == 2
        lines = captured.out.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"]["code"] == "validation"
        assert captured.err == ""


class TestDensecodeCommand:
    @pytest.mark.parametrize("message", ["00", "01", "10", "11"])
    def test_analytic_accuracy(self, capsys, message):
        code, report = run_json(capsys, "densecode", "--message", message)
        assert code == 0
        assert report["accuracy"] == pytest.approx(1.0, abs=1e-10)
        assert report["sent"] == message
        validate(report)

    def test_sampled(self, capsys):
        code, report = run_json(capsys, "densecode", "--message", "11",
                                "--shots", "1000", "--seed", "2")
        assert code == 0
        assert report["accuracy"] == 1.0
        assert sum(report["counts"].values()) == 1000
        validate(report)


class TestTomographyCommand:
    def test_balanced_state(self, capsys):
        code, report = run_json(
            capsys, "tomography", "--state",
            '{"coeffs":[["0",0.7071],["1",0.7071]]}')
        assert code == 0
        assert report["s2"] == pytest.approx(1.0, abs=1e-9)
        assert report["s0"] == pytest.approx(1.0, abs=1e-9)
        assert report["fidelity"] >= 1 - 1e-9
        validate(report)

    def test_csv_sidecar(self, capsys, tmp_path):
        target = tmp_path / "intensities.csv"
        code, report = run_json(capsys, "tomography", "--state",
                                '{"coeffs":[[2,1.0]]}', "--csv", str(target))
        assert code == 0
        lines = target.read_text().strip().splitlines()
        assert lines[0] == "setup,port,intensity"
        assert len(lines) == 7

    def test_csv_rows_are_the_reported_intensities_at_each_setups_ports(self, capsys, tmp_path):
        target = tmp_path / "intensities.csv"
        code, report = run_json(capsys, "tomography", "--state",
                                '{"coeffs":[[0,0.6],[1,0.48,0.64]]}', "--csv", str(target))
        assert code == 0
        rows = [(setup, port, float(value)) for setup, port, value in
                (line.split(",") for line in target.read_text().strip().splitlines()[1:])]
        expected = [(setup, port, report["intensities"][setup][label])
                    for setup in ("sorter", "s2_setup", "s3_setup")
                    for port, label in zip(BUILTIN_CIRCUITS[setup]().detector_paths,
                                           ("I1", "I2"))]
        assert rows == expected

    @pytest.mark.parametrize("state", [
        "psi+",
        '{"terms":[{"m":0,"re":1},{"m":1,"re":1},{"m":1,"pol":"V","re":1}]}',
        '{"coeffs":[[0,1],[3,1]]}',
    ], ids=["spin_orbit_bell", "two_polarizations", "two_oam_pairs"])
    def test_fidelity_only_for_a_pure_parity_qubit(self, capsys, state):
        code, report = run_json(capsys, "tomography", "--state", state)
        assert code == 0
        assert "fidelity" not in report

    @pytest.mark.parametrize("state", [
        '{"coeffs":[[-2,0.6],[-1,0,0.8]]}',
        '{"terms":[{"m":4,"pol":"V","re":0.6},{"m":5,"pol":"V","im":0.8}]}',
    ], ids=["coeffs", "v_terms"])
    def test_pure_parity_qubit_reports_fidelity_one(self, capsys, state):
        code, report = run_json(capsys, "tomography", "--state", state)
        assert code == 0
        assert report["fidelity"] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("target", ["missing/x.csv", "."], ids=["missing_dir", "dir"])
    def test_csv_path_that_cannot_be_written(self, capsys, tmp_path, target):
        path = str(tmp_path / target)
        error = assert_one_json_error(capsys, ("tomography", "--state",
                                               '{"coeffs":[[0,1.0]]}', "--csv", path))
        assert error["code"] == "validation" and repr(path) in error["message"]

    def test_band_edge_state_hits_guard(self, capsys):
        code, report = run_json(capsys, "tomography", "--state",
                                '{"coeffs":[[8,1.0]]}', "-K", "8")
        assert code == 3
        assert report["error"]["code"] == "guard"


class TestSorterCommand:
    def test_single_mode(self, capsys):
        code, report = run_json(capsys, "sorter", "--m", "4")
        assert code == 0
        assert report["probabilities"]["even_port"] == pytest.approx(1.0, abs=1e-12)
        validate(report)

    def test_sampled_counts(self, capsys):
        code, report = run_json(capsys, "sorter", "--state",
                                '{"coeffs":[[0,1.0],[1,1.0]]}',
                                "--shots", "5000", "--seed", "1")
        assert code == 0
        assert report["counts"]["even_port"] + report["counts"]["odd_port"] == 5000

    def test_requires_exactly_one_input(self, capsys):
        code, report = run_json(capsys, "sorter")
        assert code == 2
        code, report = run_json(capsys, "sorter", "--m", "1", "--state",
                                '{"coeffs":[[0,1.0]]}')
        assert code == 2


class TestSobaCommand:
    def test_label_input(self, capsys):
        code, report = run_json(capsys, "soba", "--state", "psi+")
        assert code == 0
        assert report["distribution"]["D1"] == pytest.approx(1.0, abs=1e-12)
        validate(report)

    def test_custom_json_input(self, capsys):
        state = json.dumps({"terms": [
            {"m": 0, "pol": "H", "re": 1.0},
            {"m": 1, "pol": "V", "re": -1.0},
        ]})
        code, report = run_json(capsys, "soba", "--state", state)
        assert code == 0
        assert report["distribution"]["D2"] == pytest.approx(1.0, abs=1e-12)


class TestEkertCommand:
    def test_run(self, capsys):
        code, report = run_json(capsys, "ekert", "--rounds", "800", "--seed", "5")
        assert code == 0
        assert report["qber"] == 0.0
        assert report["key_a"] == report["key_b"]
        assert len(report["key_a"]) == report["matched_rounds"]
        validate(report)

    def test_missing_seed_rejected(self, capsys):
        code, report = run_json(capsys, "ekert", "--rounds", "10")
        assert code == 2


class TestStateCommand:
    def test_hyper_state(self, capsys):
        code, report = run_json(capsys, "state", "--kind", "hyper")
        assert code == 0
        assert report["out_of_band_weight"] == 0.0
        assert report["symmetric"] is True
        assert len(report["state"]) > 0
        validate(report)

    @pytest.mark.parametrize("argv, pols, mode, pump", [
        (("--kind", "hyper"), {"HH", "VV"}, "bell_phi_plus", 1),
        (("--kind", "spdc", "--pump", "0"), {"HH"}, "product_hh", 0),
        (("--kind", "spdc", "--pol", "bell_phi_plus"), {"HH", "VV"}, "bell_phi_plus", 1),
    ], ids=["hyper", "spdc", "spdc_phi_plus"])
    def test_config_echoes_the_source_it_built(self, capsys, argv, pols, mode, pump):
        code, report = run_json(capsys, "state", *argv)
        assert code == 0
        pairs = {r["photon1"]["pol"] + r["photon2"]["pol"] for r in report["state"]}
        assert pairs == pols
        assert report["config"]["polarization_mode"] == mode
        assert report["config"]["pump_order"] == pump

    def test_bell_state(self, capsys):
        code, report = run_json(capsys, "state", "--kind", "bell",
                                "--label", "phi-")
        assert code == 0
        recs = report["state"]
        assert len(recs) == 2
        assert report["config"]["label"] == "phi-"
        assert not {"spectrum", "pump_order", "polarization_mode"} & set(report["config"])

    def test_gaussian_tail_reported(self, capsys):
        code, report = run_json(capsys, "state", "--spectrum", "gaussian:4.0",
                                "-K", "4")
        assert code == 0
        assert report["out_of_band_weight"] > 0.0

    @pytest.mark.parametrize("kind, option, value", [
        ("spdc", "--label", "phi-"),
        ("hyper", "--pump", "0"), ("hyper", "--pol", "product_hh"),
        ("bell", "--pump", "1"), ("bell", "--pol", "product_hh"),
        ("bell", "--spectrum", "uniform"),
    ])
    def test_an_option_the_kind_does_not_read_is_an_error(self, capsys, kind, option, value):
        error = assert_one_json_error(capsys, ("state", "--kind", kind, option, value))
        assert error["message"] == f"state --kind {kind} does not read {option}"

    @pytest.mark.parametrize("kind, option, value", [
        ("spdc", "--spectrum", "gaussian:2.0"), ("spdc", "--pump", "0"),
        ("spdc", "--pol", "bell_phi_plus"), ("hyper", "--spectrum", "gaussian:2.0"),
        ("bell", "--label", "phi-"),
    ])
    def test_an_option_the_kind_reads_changes_the_state(self, capsys, kind, option, value):
        code, plain = run_json(capsys, "state", "--kind", kind)
        assert code == 0
        code, report = run_json(capsys, "state", "--kind", kind, option, value)
        assert code == 0 and report["state"] != plain["state"]

    @pytest.mark.parametrize("argv", [
        ("sorter", "--m", "9"),
        ("tomography", "--state", '{"coeffs":[[9,1.0]]}'),
        ("state", "--spectrum", '{"kind":"explicit","coeffs":[[5,1]]}', "-K", "3"),
    ], ids=["sorter", "tomography", "state"])
    def test_an_input_outside_the_band_is_a_validation_error(self, capsys, argv):
        error = assert_one_json_error(capsys, argv)
        assert error["code"] == "validation" and "outside" in error["message"]


# Each `oamsim ...` line of README's CLI block, as an argv.
_README = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
_README_ARGVS = [shlex.split(line, comments=True)[1:] for line in
                 _README.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0].splitlines()
                 if line.startswith("oamsim ")]


def _raise_boom(args):
    raise RuntimeError("boom")


class TestCliContract:
    def test_unknown_command_exits_2(self, capsys):
        assert main(["translocate"]) == 2

    def test_no_command_exits_2(self, capsys):
        code, report = run_json(capsys)
        assert code == 2
        assert report["error"]["code"] == "validation"

    @pytest.mark.parametrize("argv", [("--help",), ("bell", "-h")])
    def test_help_keeps_its_text(self, capsys, argv):
        code, out = run_cli(capsys, *argv)
        assert code == 0
        assert out.startswith("usage: oamsim")

    def test_readme_cli_block_is_found(self):
        assert len(_README_ARGVS) >= 10

    @pytest.mark.parametrize("argv", _README_ARGVS, ids=lambda argv: argv[0])
    def test_readme_cli_lines_run(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        code, out = run_cli(capsys, *argv)
        assert code == 0, out

    def test_malformed_state_json(self, capsys):
        code, report = run_json(capsys, "tomography", "--state", "{broken")
        assert code == 2
        assert "error" in report

    def test_reports_are_byte_identical(self, capsys):
        args = ("bell", "--theta", "0", "--theta2", "45", "--chi", "22.5",
                "--chi2", "67.5", "--shots", "500", "--seed", "42")
        _, first = run_cli(capsys, *args)
        _, second = run_cli(capsys, *args)
        assert first == second

    def test_schema_flag(self, capsys):
        code, out = run_cli(capsys, "--schema")
        assert code == 0
        schema = json.loads(out)
        assert schema["title"] == "oamsim report"

    @pytest.mark.parametrize("name", ["sorter", "s2_setup", "s3_setup", "soba"])
    def test_builtin_circuits_shipped(self, capsys, name):
        code, out = run_cli(capsys, "--circuit", name)
        assert code == 0
        desc = json.loads(out)
        assert desc == circuit_to_dict(BUILTIN_CIRCUITS[name]())
        assert desc["name"] == name

    def test_every_command_validates_against_schema(self, capsys):
        invocations = [
            ("state", "--kind", "spdc"),
            ("sorter", "--m", "2"),
            ("tomography", "--state", '{"coeffs":[[0,1.0],[1,1.0]]}'),
            ("bell", "--theta", "0", "--theta2", "45", "--chi", "22.5",
             "--chi2", "67.5"),
            ("ekert", "--rounds", "200", "--seed", "1"),
            ("soba", "--state", "phi+"),
            ("densecode", "--message", "01"),
        ]
        for argv in invocations:
            code, report = run_json(capsys, *argv)
            assert code == 0, report
            validate(report)

    def test_env_config_supplies_defaults(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "defaults.json"
        cfg.write_text(json.dumps({"truncation": 5, "seed": 99}))
        monkeypatch.setenv("OAMSIM_CONFIG", str(cfg))
        code, report = run_json(capsys, "sorter", "--m", "1")
        assert code == 0
        assert report["config"]["truncation"] == 5
        assert report["config"]["seed"] == 99

    @pytest.mark.parametrize("cfg_value", [{"truncation": 2.7}, {"truncation": True},
                                           {"shots": 1.5, "seed": 1}, {"seed": 2.5},
                                           {"seed": False}, {"truncation": [4]}])
    def test_env_config_rejects_non_integers(self, capsys, tmp_path, monkeypatch,
                                             cfg_value):
        cfg = tmp_path / "defaults.json"
        cfg.write_text(json.dumps(cfg_value))
        monkeypatch.setenv("OAMSIM_CONFIG", str(cfg))
        code, report = run_json(capsys, "sorter", "--m", "1")
        assert code == 2
        assert report["error"]["code"] == "validation"

    def test_env_config_accepts_integral_float(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "defaults.json"
        cfg.write_text(json.dumps({"truncation": 3.0}))
        monkeypatch.setenv("OAMSIM_CONFIG", str(cfg))
        code, report = run_json(capsys, "sorter", "--m", "1")
        assert code == 0
        assert report["config"]["truncation"] == 3

    def test_cli_flags_override_env_config(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "defaults.json"
        cfg.write_text(json.dumps({"truncation": 5}))
        monkeypatch.setenv("OAMSIM_CONFIG", str(cfg))
        code, report = run_json(capsys, "state", "--kind", "spdc", "-K", "3")
        assert report["config"]["truncation"] == 3

    @pytest.mark.parametrize("handler, message", [
        (_raise_boom, "RuntimeError: boom"),
        (lambda args: {"command": "sorter", "config": {}, "x": math.nan},
         "ValueError: cannot serialize non-finite float"),
    ], ids=["raises", "nan_in_report"])
    def test_other_exceptions_are_internal_errors(self, capsys, monkeypatch,
                                                  handler, message):
        monkeypatch.setitem(cli._HANDLERS, "sorter", handler)
        error = assert_one_json_error(capsys, ("sorter", "--m", "1"), code=EXIT_INTERNAL)
        assert error == {"code": "internal", "message": message}

    def test_chsh_above_the_tsirelson_bound_is_a_guard_error(self, capsys, monkeypatch):
        e_values = iter([1.0, -1.0, 1.0, 1.0])  # B = 4
        monkeypatch.setattr(CoincidenceTable, "e_value", lambda table: next(e_values))
        error = assert_one_json_error(capsys, BELL_ARGS, code=EXIT_GUARD)
        assert error["code"] == "guard"
        assert error["message"] == "analytic CHSH value 4.0 exceeds the quantum bound"

    def test_seed_recorded_in_config(self, capsys):
        code, report = run_json(capsys, "densecode", "--message", "00",
                                "--shots", "100", "--seed", "31")
        assert report["config"]["seed"] == 31
        assert report["config"]["rng"] == "numpy-pcg64"


BELL_ARGS = ("bell", "--theta", "0", "--theta2", "45", "--chi", "22.5", "--chi2", "67.5")


class TestCommandFlags:
    @pytest.mark.parametrize("argv", [
        ("sorter", "--m", "2"), ("soba", "--state", "psi+"), ("tomography", "--state", "psi+"),
    ], ids=lambda argv: argv[0])
    def test_spectrum_is_an_argument_error_without_a_source(self, capsys, argv):
        error = assert_one_json_error(capsys, (*argv, "--spectrum", "uniform"))
        assert "--spectrum" in error["message"]

    def test_config_spectrum_applies_only_to_commands_with_a_source(
            self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "defaults.json"
        cfg.write_text(json.dumps({"spectrum": "garbage"}))
        monkeypatch.setenv("OAMSIM_CONFIG", str(cfg))
        for argv in (("sorter", "--m", "2"), ("state", "--kind", "bell")):
            code, report = run_json(capsys, *argv)
            assert code == 0 and "spectrum" not in report["config"]
        assert "garbage" in assert_one_json_error(capsys, BELL_ARGS)["message"]

    @pytest.mark.parametrize("command", cli.COMMANDS)
    @pytest.mark.parametrize("flag", ["--shots", "--seed"])
    def test_only_the_commands_that_sample_take_shots_and_seed(self, capsys, command, flag):
        argv = [command, *(token for pair in _REQUIRED[command] for token in pair
                           if pair != ("--seed", "1")), flag, "0"]
        takes = command in ("sorter", "bell", "soba", "densecode") or \
            (command, flag) == ("ekert", "--seed")
        if takes:
            assert run_json(capsys, *argv)[0] == 0
        else:
            error = assert_one_json_error(capsys, argv)
            assert error["message"] == f"oamsim: unrecognized arguments: {flag} 0"

    @pytest.mark.parametrize("argv", [
        ("state", "--kind", "hyper"),
        ("tomography", "--state", '{"coeffs":[[2,0.6,0.3],[3.0,-0.2,0.7]]}'),
    ], ids=lambda argv: argv[0])
    def test_config_shots_and_seed_leave_exact_reports_unchanged(
            self, capsys, tmp_path, monkeypatch, argv):
        want = run_cli(capsys, *argv)
        cfg = tmp_path / "defaults.json"
        cfg.write_text(json.dumps({"shots": 1000, "seed": 9}))
        monkeypatch.setenv("OAMSIM_CONFIG", str(cfg))
        got = run_cli(capsys, *argv)
        assert got == want and want[0] == 0
        assert '"seed": null, "shots": 0' in got[1]

    @pytest.mark.parametrize("command", cli.COMMANDS)
    def test_format_flag_is_gone(self, capsys, command):
        argv = [command, *(token for pair in _REQUIRED[command] for token in pair)]
        error = assert_one_json_error(capsys, (*argv, "--format", "json"))
        assert "--format" in error["message"]

    def test_format_in_config_is_not_read(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "defaults.json"
        cfg.write_text(json.dumps({"format": "xml"}))
        monkeypatch.setenv("OAMSIM_CONFIG", str(cfg))
        code, report = run_json(capsys, "sorter", "--m", "2")
        assert code == 0 and report["config"]["format"] == "json"


def assert_one_json_error(capsys, argv, code=2):
    assert main(list(argv)) == code
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert len(lines) == 1
    report = json.loads(lines[0])
    assert set(report) == {"error"}
    assert captured.err == ""
    return report["error"]


class TestMalformedInput:
    @pytest.mark.parametrize("spectrum", [
        '{"kind":"explicit","coeffs":[[]]}',
        '{"kind":"explicit","coeffs":[[0]]}',
        '{"kind":"explicit","coeffs":{"0": 1}}',
        '{"kind":"explicit","coeffs":[[0.5,1.0]]}',
        '{"kind":"explicit","coeffs":[[0,1.0,0.0,1.0]]}',
        '{"kind":"explicit","coeffs":[[0,NaN]]}',
        '{"kind":"gaussian","sigma":Infinity}',
        'gaussian:nan',
        '[1]',
        '5',
    ])
    def test_bad_spectrum_argv(self, capsys, spectrum):
        assert_one_json_error(capsys, (*BELL_ARGS, "--spectrum", spectrum))

    @pytest.mark.parametrize("spectrum", [
        5, [1], {"kind": "explicit", "coeffs": [[]]},
        {"kind": "explicit", "coeffs": [[True, 1.0]]},
    ])
    def test_bad_spectrum_in_config(self, capsys, tmp_path, monkeypatch, spectrum):
        cfg = tmp_path / "defaults.json"
        cfg.write_text(json.dumps({"spectrum": spectrum}))
        monkeypatch.setenv("OAMSIM_CONFIG", str(cfg))
        assert_one_json_error(capsys, BELL_ARGS)

    @pytest.mark.parametrize("state", [
        '{"coeffs":[[1.5,1]]}',
        '{"coeffs":[[true,1]]}',
        '{"coeffs":[[0,1,0,1]]}',
        '{"coeffs":[[0]]}',
        '{"coeffs":[[0,1.0,Infinity]]}',
        '{"terms":[{"m":1.5,"re":1.0}]}',
    ])
    def test_bad_state_rows(self, capsys, state):
        assert_one_json_error(capsys, ("sorter", "--state", state))

    def test_integral_float_m_is_accepted(self, capsys):
        code, report = run_json(capsys, "sorter", "--state", '{"coeffs":[[3.0,1]]}')
        assert code == 0
        assert report["probabilities"]["odd_port"] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("option", ["--theta", "--theta2", "--chi", "--chi2"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_bell_angle(self, capsys, monkeypatch, option, value):
        monkeypatch.setattr(cli, "spdc", lambda spec: pytest.fail("a source was built"))
        argv = list(BELL_ARGS)
        argv[argv.index(option):argv.index(option) + 2] = [f"{option}={value}"]
        error = assert_one_json_error(capsys, argv)
        assert error["message"] == f"{option} must be finite, got {float(value)}"

    @pytest.mark.parametrize("argv", [("sorter", "--m", "3", "--seed", "-2"),
                                      (*BELL_ARGS, "--shots", "10", "--seed", "-1"),
                                      ("ekert", "--rounds", "10", "--seed", "-1")])
    def test_negative_seed_argv(self, capsys, argv):
        error = assert_one_json_error(capsys, argv)
        assert error["message"] == f"seed must be >= 0, got {argv[-1]}"

    def test_negative_seed_in_config(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "defaults.json"
        cfg.write_text(json.dumps({"seed": -2}))
        monkeypatch.setenv("OAMSIM_CONFIG", str(cfg))
        for argv in (("sorter", "--m", "3"), (*BELL_ARGS, "--shots", "10")):
            assert assert_one_json_error(capsys, argv)["message"] == "seed must be >= 0, got -2"

    def test_too_many_ekert_rounds(self, capsys):
        assert_one_json_error(capsys, ("ekert", "--rounds", str(10 ** 12), "--seed", "1"))

    @pytest.mark.parametrize("argv", [("sorter", "--m", "1"), BELL_ARGS,
                                      ("soba", "--state", "psi+"),
                                      ("densecode", "--message", "01")])
    def test_shots_above_the_limit(self, capsys, argv):
        assert_one_json_error(capsys, (*argv, "--shots", str(SHOTS_LIMIT + 1), "--seed", "1"))

    def test_truncation_above_the_limit(self, capsys):
        assert_one_json_error(capsys, (*BELL_ARGS, "-K", "10000000"))
        assert_one_json_error(capsys, ("sorter", "--m", "1", "-K", str(TRUNCATION_LIMIT + 1)))
        code, _ = run_json(capsys, "sorter", "--m", "1", "-K", str(TRUNCATION_LIMIT))
        assert code == 0

    @pytest.mark.parametrize("config", [{"truncation": 10 ** 7},
                                        {"shots": SHOTS_LIMIT + 1, "seed": 1}])
    def test_limits_apply_to_config(self, capsys, tmp_path, monkeypatch, config):
        cfg = tmp_path / "defaults.json"
        cfg.write_text(json.dumps(config))
        monkeypatch.setenv("OAMSIM_CONFIG", str(cfg))
        assert_one_json_error(capsys, BELL_ARGS)

    @pytest.mark.parametrize("argv", [
        ("sorter", "--state", '{"terms":[{"m":0,"re":"nan"},{"m":1,"re":1}]}'),
        ("sorter", "--state", '{"terms":[{"m":0,"re":"Infinity"},{"m":1,"re":1}]}'),
        ("sorter", "--state", '{"terms":[{"m":0,"re":Infinity},{"m":1,"re":1}]}'),
        ("sorter", "--state", '{"terms":[{"m":0,"im":-Infinity},{"m":1,"re":1}]}'),
        ("sorter", "--state", '{"terms":[{"m":0,"re":1e308},{"m":1,"re":1e308}]}'),
        ("sorter", "--state", '{"coeffs":[[0,1e308],[1,1e308]]}'),
        ("sorter", "--state", '{"coeffs":[[0,1e150],[0,1e150]]}'),
        (*BELL_ARGS, "--spectrum", '{"kind":"explicit","coeffs":[[0,1e308],[1,1e308]]}'),
    ])
    def test_non_finite_or_huge_amplitudes(self, capsys, argv):
        assert_one_json_error(capsys, argv)

    def test_amplitudes_at_the_limit_are_accepted(self, capsys):
        code, report = run_json(capsys, "sorter", "--state",
                                '{"coeffs":[[0,1e150],[1,0,1e150]]}')
        assert code == 0
        assert report["probabilities"]["even_port"] == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("argv", [
        ("state", "--spectrum", "gaussian:1e-300"),
        ("state", "--spectrum", "gaussian:1e9"),
        ("state", "--spectrum", '{"kind":"gaussian","sigma":1e-300}'),
        (*BELL_ARGS, "--spectrum", '{"kind":"gaussian","sigma":1e-300}'),
    ])
    def test_gaussian_sigma_out_of_range(self, capsys, argv):
        assert_one_json_error(capsys, argv)

    @pytest.mark.parametrize("theta", ["nan", "inf"])
    def test_non_finite_wave_plate_angle(self, capsys, theta):
        assert_one_json_error(capsys, ("bell", "--theta", theta, "--theta2", "45",
                                       "--chi", "22.5", "--chi2", "67.5",
                                       "--variant", "polarization"))

    @pytest.mark.parametrize("command", ["sorter", "tomography", "soba"])
    def test_state_terms_off_the_input_path(self, capsys, command):
        assert_one_json_error(capsys, (command, "--state",
                                       '{"terms":[{"m":0,"re":1,"path":"x"}]}'))

    @pytest.mark.parametrize("argv,reason", [
        (("sorter", "--state", '{"terms":[{"re":1}]}'), "missing key 'm'"),
        (("state", "--spectrum", '{"kind":"gaussian"}'), "missing key 'sigma'"),
        ((*BELL_ARGS, "--spectrum", "gaussian:1e9"), "sigma <= 10000"),
    ])
    def test_error_message_names_the_reason(self, capsys, argv, reason):
        code, report = run_json(capsys, *argv)
        assert code == 2
        assert reason in report["error"]["message"]


# JSON values a --state payload may carry where a number belongs: mostly
# valid non-zero numbers, otherwise NaN, infinities, overflowing or tiny
# magnitudes, bools, null, strings and lists.
_GOOD = st.one_of(st.floats(0.01, 10), st.floats(-10, -0.01))
_BAD = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([1e308, -1e308, 1e151, 1e150, 1e-320, 0, "nan", "-Infinity", "0.5"]),
    st.booleans(), st.none(), st.sampled_from(["", "x", "1e9"]),
    st.lists(st.integers(0, 2), max_size=2),
)
_VALUES = st.one_of(_GOOD, _GOOD, _GOOD, _BAD)
_M = st.one_of(st.integers(-8, 8), st.integers(-8, 8), st.floats(-8, 8), st.booleans(),
               st.sampled_from(["2", "m", "1.5"]))
_ROW = st.one_of(st.tuples(st.integers(-8, 8), _VALUES).map(list),
                 st.tuples(st.integers(-8, 8), _VALUES, _VALUES).map(list),
                 st.lists(st.one_of(_M, _VALUES), max_size=4))
_TERM = st.fixed_dictionaries(
    {"m": _M}, optional={"re": _VALUES, "im": _VALUES,
                         "pol": st.sampled_from(["H", "V", "D"]),
                         "path": st.sampled_from(["in", "x"])})
_PAYLOADS = st.one_of(
    st.fixed_dictionaries({"coeffs": st.lists(
        st.tuples(st.integers(-8, 8), _GOOD, _GOOD).map(list), min_size=1, max_size=3)}),
    st.fixed_dictionaries({"terms": st.lists(st.fixed_dictionaries(
        {"m": st.integers(-8, 8), "re": _GOOD, "im": _GOOD},
        optional={"path": st.sampled_from(["in", "x"])}), min_size=1, max_size=3)}),
    st.fixed_dictionaries({"coeffs": st.lists(_ROW, min_size=1, max_size=3)}),
    st.fixed_dictionaries({"terms": st.lists(_TERM, min_size=1, max_size=3)}),
    st.fixed_dictionaries({"coeffs": _BAD}),
    st.fixed_dictionaries({"terms": _BAD}))


class TestStatePayloadProperty:
    @settings(max_examples=100, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(payload=_PAYLOADS)
    def test_one_json_object_and_exit_0_or_2(self, payload):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["sorter", "-K", "8", "--state", json.dumps(payload)])
        lines = out.getvalue().splitlines()
        assert len(lines) == 1
        report = json.loads(lines[0])
        assert isinstance(report, dict)
        if code == 0:
            probs = report["probabilities"].values()
            assert all(0.0 <= p <= 1.0 + 1e-9 for p in probs)
            assert sum(probs) == pytest.approx(1.0, abs=1e-9)
        else:
            assert code == 2 and report["error"]["code"] == "validation"


# Tokens an argv may carry: valid and invalid numbers, huge integers, string
# option values, unknown and abbreviated flags.  No token is a prefix of
# --help, which prints usage text instead of a report.
_NUMBERS = ["0", "1", "-1", "3", "8", "45", "2.5", "1e308", "nan", "-inf", "abc",
            "9223372036854775807", "9223372036854775808", "99999999999999999999",
            "10000000"]
_WORDS = ["psi+", "phi-", "01", "json", "xml", "hyper", "bell", "polarization",
          "gaussian:2", "gaussian:0", "canonical", '{"coeffs":[[0,1],[1,1]]}',
          '{"terms":[{"m":0,"re":1}]}', "{"]
_FLAGS = ["-K", "--truncation", "--spectrum", "--shots", "--seed", "--format", "--m",
          "--state", "--theta", "--theta2", "--chi", "--chi2", "--variant", "--rounds",
          "--message", "--kind", "--pump", "--pol", "--label", "--thet", "--sho",
          "--bogus", "-x"]
# Options that make a valid report of each command; each is left out one
# time in four, so missing required options are drawn too.
_REQUIRED = {
    "state": (),
    "sorter": (("--m", "1"),),
    "tomography": (("--state", "psi+"),),
    "bell": (("--theta", "0"), ("--theta2", "45"), ("--chi", "22.5"), ("--chi2", "67.5")),
    "ekert": (("--rounds", "100"), ("--seed", "1")),
    "soba": (("--state", "phi-"),),
    "densecode": (("--message", "01"),),
    "bogus": (),
}


@st.composite
def _argvs(draw):
    argv = list(draw(st.sampled_from([(), (), (), ("--schema",), ("--circuit", "soba"),
                                      ("--circuit", "prism")])))
    command = draw(st.sampled_from([*_REQUIRED, None]))
    if command is None:
        return argv
    argv.append(command)
    for pair in _REQUIRED[command]:
        if draw(st.integers(0, 3)):
            argv.extend(pair)
    common = st.tuples(st.sampled_from(["-K", "--shots", "--seed"]), st.sampled_from(_NUMBERS))
    other = st.tuples(st.sampled_from(_FLAGS), st.sampled_from(_NUMBERS + _WORDS))
    for pair in draw(st.lists(st.one_of(common, common, other), max_size=3)):
        argv.extend(pair)
    argv.extend(draw(st.lists(st.sampled_from(_FLAGS + _NUMBERS), max_size=1)))
    return argv


class TestArgvProperty:
    @settings(max_examples=100, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(argv=_argvs())
    def test_one_json_object_and_a_documented_exit_code(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        lines = out.getvalue().splitlines()
        assert len(lines) == 1
        assert isinstance(json.loads(lines[0]), dict)
        assert err.getvalue() == ""
        assert code in (0, 2, 3)


def _key(value):
    """A dict key for `value`: a list cannot be one, so it becomes the tuple
    with the same entries, which is just as little a number."""
    return tuple(value) if isinstance(value, list) else value


def _js(value) -> str:
    return json.dumps(value, default=lambda v: v.item())  # a numpy scalar as its JSON value


# Every entry point of a whole number: name -> (read the value, the quantity
# its error names).  `run(argv, config)` runs the CLI in-process; an exit 2
# comes back as the ValueError carrying its JSON message.
WHOLE_NUMBER_ENTRY_POINTS = {
    "mode": (lambda v, run: mode(v), "OAM index"),
    "from_oam": (lambda v, run: PhotonState.from_oam({_key(v): 1.0}, 8).amplitudes,
                 "OAM index"),
    "explicit_spectrum": (lambda v, run: SpectrumModel.explicit({_key(v): 1.0}).coeffs,
                          "OAM index"),
    "spp_order": (lambda v, run: spiral_phase_plate("a", v), "spiral phase plate order"),
    "state_coeffs": (lambda v, run: run(["sorter", "--state", f'{{"coeffs": [[{_js(v)}, 1]]}}']),
                     "OAM index"),
    "spectrum_coeffs": (lambda v, run: run(["state", "--pump", "0", "--spectrum",
                                            f'{{"kind": "explicit", "coeffs": [[{_js(v)}, 1]]}}']),
                        "OAM index"),
    "terms_m": (lambda v, run: run(["sorter", "--state",
                                    f'{{"terms": [{{"m": {_js(v)}, "re": 1}}]}}']),
                "OAM index"),
    "config_truncation": (lambda v, run: run(["sorter", "--m", "1"], {"truncation": v}),
                          "config value 'truncation'"),
    "config_shots": (lambda v, run: run(["sorter", "--m", "1"], {"shots": v, "seed": 1}),
                     "config value 'shots'"),
    "config_seed": (lambda v, run: run(["sorter", "--m", "1"], {"seed": v}),
                    "config value 'seed'"),
}


class TestWholeNumberRule:
    """One rule reads every whole number, from the library or from JSON: an
    accepted spelling builds exactly what the plain int builds, and anything
    else is a ValueError, exit 2 on the CLI, that names the quantity."""

    ACCEPTED = [(2, 2), (-3, -3), (2.0, 2), ("3", 3), (np.int64(5), 5)]
    REJECTED = [True, False, np.True_, np.False_, 1.5, math.nan, math.inf, -math.inf, [4]]

    @pytest.fixture
    def outcome(self, capsys, tmp_path, monkeypatch):
        def run(argv, config=None):
            if config is not None:
                path = tmp_path / "config.json"
                path.write_text(_js(config))
                monkeypatch.setenv(cli.CONFIG_ENV, str(path))
            code = main(argv)
            captured = capsys.readouterr()
            assert captured.err == "" and len(captured.out.splitlines()) == 1
            if code == 2:
                raise ValueError(json.loads(captured.out)["error"]["message"])
            assert code == 0, captured.out
            return captured.out

        def outcome(entry, value):
            """("ok", repr of what was built) or ("error", the message)."""
            read, _ = WHOLE_NUMBER_ENTRY_POINTS[entry]
            try:
                return "ok", repr(read(value, run))
            except ValueError as exc:
                return "error", str(exc)
        return outcome

    @pytest.mark.parametrize("entry", WHOLE_NUMBER_ENTRY_POINTS)
    @pytest.mark.parametrize("value,want", ACCEPTED, ids=repr)
    def test_an_accepted_spelling_reads_as_its_int(self, outcome, entry, value, want):
        got = outcome(entry, value)
        assert got == outcome(entry, want)
        assert "must be an integer" not in got[1]

    @pytest.mark.parametrize("entry", WHOLE_NUMBER_ENTRY_POINTS)
    @pytest.mark.parametrize("value", REJECTED, ids=repr)
    def test_anything_else_is_an_error_naming_the_quantity(self, outcome, entry, value):
        kind, message = outcome(entry, value)
        assert kind == "error"
        assert f"{WHOLE_NUMBER_ENTRY_POINTS[entry][1]} must be an integer, got " in message
