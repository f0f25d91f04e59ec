import json
import math

import pytest

from qubus_forge.cli import (
    config_text_to_argv,
    config_to_text,
    main,
    parse_argv,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_generate_command_json(capsys):
    code, out, err = run_cli(
        capsys, "generate", "--n", "3", "--m-parties", "2", "--shifts", "0,1",
        "--balanced", "--theta", "0.01", "--alpha", "500",
    )
    assert code == 0
    assert err == ""
    doc = json.loads(out)
    assert doc["success_prob"] == pytest.approx(1.0 / 9.0, abs=1e-9)
    assert doc["fidelity_vs_target"] == pytest.approx(1.0, abs=1e-9)
    assert doc["failed_stage"] is None
    assert len(doc["per_stage"]) == 2
    assert "final_state" not in doc


def test_generate_dump_state(capsys):
    code, out, _ = run_cli(
        capsys, "generate", "--n", "2", "--balanced", "--dump-state",
    )
    assert code == 0
    doc = json.loads(out)
    state = doc["final_state"]
    assert state["layout"]["party_dims"] == [2, 2]
    assert len(state["terms"]) == 2


def test_generate_with_phases_and_eta(capsys):
    code, out, _ = run_cli(
        capsys, "generate", "--n", "3", "--shifts", "0,1",
        "--balanced-phases", "2", "--eta", "0.7",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["fidelity_vs_target"] == pytest.approx(1.0, abs=1e-9)
    assert doc["eta"] == 0.7


def test_generate_explicit_coeffs_failure_exits_3(capsys):
    # a = (1,0,0), b = (0,0,1), shift 1: no branch survives the herald
    code, out, _ = run_cli(
        capsys, "generate", "--n", "3", "--shifts", "0,1",
        "--coeffs", "1,0,0,0,0,0;0,0,0,0,1,0",
    )
    assert code == 3
    doc = json.loads(out)
    assert doc["success_prob"] == 0.0
    assert doc["failed_stage"] == 1


def test_generate_requires_exactly_one_coefficient_mode(capsys):
    code, _, err = run_cli(capsys, "generate", "--n", "3")
    assert code == 2
    assert "balanced" in err
    code, _, err = run_cli(
        capsys, "generate", "--n", "3", "--balanced", "--balanced-phases", "1"
    )
    assert code == 2


def test_out_of_range_parameters_exit_2(capsys):
    code, _, err = run_cli(
        capsys, "generate", "--n", "3", "--shifts", "0,7", "--balanced"
    )
    assert code == 2
    assert "error:" in err
    code, _, err = run_cli(capsys, "verify-basis", "--n", "11")
    assert code == 2
    for flag, value in (("--alpha", "nan"), ("--theta", "inf"),
                        ("--theta", "nan")):
        code, out, err = run_cli(
            capsys, "generate", "--n", "3", "--shifts", "0,1", "--balanced",
            flag, value,
        )
        assert (code, out) == (2, ""), (flag, value)
        assert "finite" in err


def test_unknown_flag_exits_2(capsys):
    code = main(["generate", "--n", "3", "--balanced", "--frobnicate"])
    capsys.readouterr()
    assert code == 2


def test_verify_basis_command(capsys):
    code, out, _ = run_cli(capsys, "verify-basis", "--n", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["states"] == 4
    assert doc["symmetric_count"] == 2


def test_prepare_command(capsys):
    code, out, _ = run_cli(capsys, "prepare", "--n", "5")
    assert code == 0
    doc = json.loads(out)
    amps = [t["amp"] for t in doc["state"]["terms"]]
    assert len(amps) == 5
    for re, im in amps:
        assert re == pytest.approx(1 / math.sqrt(5), rel=1e-12)
        assert im == 0.0


def test_sweep_csv_output(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    code, out, _ = run_cli(
        capsys, "sweep", "--alpha", "100,500", "--theta", "0.001,0.01",
        "--eta", "0.7,1.0", "--n", "3", "--out", str(out_path),
    )
    assert code == 0
    assert out == ""
    lines = out_path.read_text().splitlines()
    assert lines[0] == "alpha,theta,eta,mean_k1,mean_k2,p_err_closed,p_err_sim"
    assert len(lines) == 9  # header + 2*2*2 rows
    first = lines[1].split(",")
    assert float(first[0]) == 100.0
    # n = 2 has no phase offset d = 2: the mean_k2 field is empty
    code, out, _ = run_cli(capsys, "sweep", "--n", "2", "--alpha", "1", "--theta",
                           "0.1", "--eta", "1", "--output", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "alpha,theta,eta,mean_k1,mean_k2,p_err_closed,p_err_sim"
    assert lines[1].split(",")[4] == ""


def test_sweep_json_to_stdout(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--alpha", "500", "--theta", "0.01",
                           "--eta", "1.0")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["rows"]) == 1
    row = doc["rows"][0]
    assert row["mean_k1"] == pytest.approx(12.4999, abs=1e-3)
    assert row["p_err_sim"] == pytest.approx(row["p_err_closed"], rel=1e-10)
    code, out, _ = run_cli(capsys, "sweep", "--n", "2", "--alpha", "1", "--theta",
                           "0.1", "--eta", "1")
    assert code == 0
    assert '"mean_k2": null' in out
    assert json.loads(out)["rows"][0]["mean_k2"] is None


def test_outputs_are_deterministic(capsys):
    argv = ["generate", "--n", "3", "--shifts", "0,1", "--balanced"]
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert (code1, out1) == (code2, out2)


def _assert_all_finite(node):
    if isinstance(node, dict):
        for v in node.values():
            _assert_all_finite(v)
    elif isinstance(node, list):
        for v in node:
            _assert_all_finite(v)
    elif isinstance(node, float):
        assert math.isfinite(node)


def test_json_never_contains_non_finite_numbers(capsys):
    # theta = 0.1 at alpha = 500 underflows every probability; the log10
    # columns must degrade to null, never to Infinity/NaN
    code, out, _ = run_cli(capsys, "sweep", "--alpha", "500", "--theta", "0.1",
                           "--eta", "1.0")
    assert code == 0
    assert "Infinity" not in out and "NaN" not in out
    _assert_all_finite(json.loads(out))
    code, out, _ = run_cli(
        capsys, "generate", "--n", "3", "--shifts", "0,1", "--balanced",
        "--theta", "0.1", "--alpha", "500",
    )
    assert code == 0
    assert "Infinity" not in out and "NaN" not in out
    _assert_all_finite(json.loads(out))


def test_config_round_trip():
    cfg, _ = parse_argv(
        ["generate", "--n", "4", "--m-parties", "2", "--shifts", "0,3",
         "--balanced-phases", "2,1", "--theta", "0.02", "--alpha", "250",
         "--eta", "0.9"]
    )
    text = config_to_text(cfg)
    cfg2, _ = parse_argv(config_text_to_argv(text))
    assert cfg2 == cfg


def test_config_round_trip_sweep_and_coeffs():
    cfg, _ = parse_argv(["sweep", "--alpha", "1,10", "--theta", "0.01",
                         "--eta", "0.5,1.0", "--n", "4"])
    cfg2, _ = parse_argv(config_text_to_argv(config_to_text(cfg)))
    assert cfg2 == cfg
    cfg, _ = parse_argv(
        ["generate", "--n", "2", "--coeffs", "0.6,0,0.8,0;0,0.6,0.8,0"]
    )
    cfg2, _ = parse_argv(config_text_to_argv(config_to_text(cfg)))
    assert cfg2 == cfg


def test_config_file_with_flag_override(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# stored run\n"
        "command = generate\n"
        "n = 3\n"
        "m_parties = 2\n"
        "shifts = 0,1\n"
        "balanced = true\n"
        "theta = 0.01\n"
        "alpha = 500\n"
    )
    code, out, _ = run_cli(capsys, "--config", str(path))
    assert code == 0
    assert json.loads(out)["theta"] == 0.01
    # flags given on the command line override file values
    code, out, _ = run_cli(capsys, "--config", str(path), "--theta", "0.02")
    assert code == 0
    assert json.loads(out)["theta"] == 0.02


def test_dump_config(capsys):
    code, out, _ = run_cli(
        capsys, "generate", "--n", "3", "--shifts", "0,1", "--balanced",
        "--dump-config",
    )
    assert code == 0
    assert "command = generate" in out
    assert "balanced = true" in out
    cfg, _ = parse_argv(config_text_to_argv(out))
    assert cfg.command == "generate" and cfg.shifts == (0, 1)


def test_malformed_config_file(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("command generate\n")
    code, _, err = run_cli(capsys, "--config", str(path))
    assert code == 2
    assert "key = value" in err
    path.write_text("n = 3\n")
    code, _, err = run_cli(capsys, "--config", str(path))
    assert code == 2
    assert "command" in err
    # norm_mode is not a setting: a file that names one is rejected
    path.write_text("command = generate\nn = 3\nbalanced = true\n"
                    "norm_mode = gram_exact\n")
    code, _, err = run_cli(capsys, "--config", str(path))
    assert code == 2


def test_internal_invariant_violation_exits_4(capsys, monkeypatch):
    import qubus_forge.cli as cli
    from qubus_forge.heralding import FeedforwardError

    def broken(spec):
        raise FeedforwardError("feedforward failed: outcomes disagree")

    monkeypatch.setattr(cli, "generate", broken)
    code, _, err = run_cli(capsys, "generate", "--n", "3", "--balanced")
    assert code == 4
    assert "internal error" in err


def test_bad_numeric_fields(capsys):
    code, _, err = run_cli(capsys, "generate", "--n", "3", "--balanced",
                           "--shifts", "0,x")
    assert code == 2
    assert "integers" in err
    code, _, err = run_cli(capsys, "generate", "--n", "3", "--balanced",
                           "--alpha", "bogus")
    assert code == 2
    assert "alpha" in err
