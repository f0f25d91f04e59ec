import contextlib
import errno
import io
import json
import math
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qubus_forge.cli import (
    config_text_to_argv,
    config_to_text,
    main,
    parse_argv,
)
from qubus_forge.state import ALPHA_MAX, N_MAX, PARTIES_MAX


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


def test_generate_underflowed_success_probability_exits_0(capsys):
    # every stage heralds with p = 1/3, but 3^-700 underflows the product
    code, out, _ = run_cli(capsys, "generate", "--n", "3", "--m-parties", "700", "--balanced")
    assert code == 0
    doc = json.loads(out)
    assert doc["failed_stage"] is None
    assert doc["success_prob"] == 0.0
    assert doc["success_prob_log10"] == pytest.approx(-700 * math.log10(3), abs=1e-9)
    # the target's running product is rescaled per party: a plain one,
    # 3^-350 per amplitude, has a squared norm below float range
    assert abs(doc["fidelity_vs_target"] - 1.0) <= 2e-14  # test_protocols.FIDELITY_TOL


def test_party_count_above_the_bound_exits_2_before_it_is_built(capsys):
    # a count past PARTIES_MAX is a configuration error, also when the
    # config is only dumped; 10**9 default shifts would take ~8 GB
    base = ("generate", "--n", "3", "--balanced")
    code, out, _ = run_cli(capsys, *base, "--m-parties", str(PARTIES_MAX), "--dump-config")
    assert code == 0
    assert f"m_parties = {PARTIES_MAX}" in out
    for parties in (PARTIES_MAX + 1, 10**9):
        for extra in ((), ("--dump-config",)):
            code, out, err = run_cli(capsys, *base, "--m-parties", str(parties), *extra)
            assert (code, out) == (2, ""), (parties, extra)
            assert err == f"error: party count must be <= {PARTIES_MAX}\n"


def test_total_error_probability_keeps_its_precision_and_its_log(capsys):
    argv = ("generate", "--n", "3", "--shifts", "0,1", "--balanced", "--alpha", "500")
    # theta = 0.03: both stages fail silently with P_E ~ 6.2e-50, which
    # 1 - (1 - P_E)^2 rounds to 0.0
    code, out, _ = run_cli(capsys, *argv, "--theta", "0.03")
    assert code == 0
    doc = json.loads(out)
    p_e = doc["per_stage"][0]["error_prob"]
    assert [stage["error_prob"] for stage in doc["per_stage"]] == [p_e, p_e]
    assert 0.0 < p_e < 1e-40
    assert doc["error_prob_total"] == pytest.approx(2 * p_e - p_e * p_e, rel=1e-12)
    assert doc["error_prob_total_log10"] == pytest.approx(
        math.log10(doc["error_prob_total"]), rel=1e-12
    )
    # theta = 0.1: the stage probabilities underflow; the log of the total
    # is the stage log plus log 2
    code, out, _ = run_cli(capsys, *argv, "--theta", "0.1")
    assert code == 0
    doc = json.loads(out)
    stage_log10 = doc["per_stage"][0]["error_prob_log10"]
    assert doc["per_stage"][1]["error_prob_log10"] == stage_log10
    assert doc["error_prob_total"] == 0.0
    assert doc["error_prob_total_log10"] == pytest.approx(
        math.log10(2.0) + stage_log10, abs=1e-12
    )


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
    # degenerate working points: a failure branch heralds as vacuum
    for extra in (("--alpha", "0"),
                  ("--theta", "3.141592653589793"),
                  ("--alpha", "1", "--theta", "1e-13")):
        code, out, err = run_cli(
            capsys, "generate", "--n", "3", "--shifts", "0,1", "--balanced", *extra
        )
        assert (code, out) == (2, ""), extra
        assert "theta" in err
    # the sweep applies the same working-point rule to every (alpha, theta)
    for alpha, theta in (("1", "3.141592653589793"), ("0", "3.141592653589793"),
                         ("0", "0.01"), ("1", "1e-13")):
        code, out, err = run_cli(
            capsys, "sweep", "--alpha", alpha, "--theta", theta, "--eta", "1",
            "--n", "3",
        )
        assert (code, out) == (2, ""), (alpha, theta)
        assert "theta" in err
    # n = 0 is rejected before the coefficients divide by sqrt(n)
    for mode in (("--balanced",), ("--balanced-phases", "0")):
        code, out, err = run_cli(capsys, "generate", "--n", "0", *mode)
        assert (code, out) == (2, ""), mode
        assert "dimension" in err
    # beams brighter than ALPHA_MAX: the vacuum branch's rounding residual
    # would pass MERGE_TOL's absolute floor (and 1e160 overflowed the sweep)
    for args in (
        ("generate", "--n", "2", "--shifts", "0,1", "--balanced", "--alpha", "1e4"),
        ("sweep", "--alpha", "1e6", "--theta", "0.01", "--eta", "1", "--n", "3"),
        ("sweep", "--alpha", "1e160", "--theta", "0.1", "--eta", "1", "--n", "3"),
    ):
        code, out, err = run_cli(capsys, *args)
        assert (code, out) == (2, ""), args
        assert "alpha" in err
    # |theta| above 2 pi is rejected by name, up to where the XPM phase
    # 2(n-1)|theta| would overflow cmath.exp
    for args in (
        ("generate", "--n", "2", "--shifts", "0,1", "--balanced", "--alpha", "1",
         "--theta", "9e307"),
        ("generate", "--n", "2", "--shifts", "0,1", "--balanced", "--alpha", "1",
         "--theta", "1e308"),
        ("generate", "--n", "3", "--shifts", "0,1", "--balanced", "--alpha", "1",
         "--theta", "1e308"),
        ("sweep", "--alpha", "1", "--theta", "1e308", "--eta", "1", "--n", "3"),
        ("sweep", "--alpha", "1", "--theta", "9e307", "--eta", "1", "--n", "2"),
        ("sweep", "--alpha", "1", "--theta", "4925456799.646863", "--eta", "1",
         "--n", "3"),
        ("generate", "--n", "3", "--shifts", "0,1", "--balanced", "--alpha", "1",
         "--theta", "6.258e17"),
    ):
        code, out, err = run_cli(capsys, *args)
        assert (code, out) == (2, ""), args
        assert "theta" in err
    # n above N_MAX: the check of every offset d < n, or the coefficients and
    # the preparation cascade built before it, would not end
    huge_n = "1" + "0" * 400
    for args in (
        ("sweep", "--alpha", "1", "--theta", "0.01", "--eta", "1", "--n", huge_n),
        ("generate", "--n", huge_n, "--balanced"),
        ("generate", "--n", huge_n, "--balanced-phases", "0"),
        ("prepare", "--n", huge_n),
        ("sweep", "--alpha", "1", "--theta", "0.01", "--eta", "1",
         "--n", str(N_MAX + 1)),
    ):
        code, out, err = run_cli(capsys, *args)
        assert (code, out) == (2, ""), args
        assert f"dimension n must be <= {N_MAX}" in err


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


@pytest.mark.parametrize("argv", [
    ("generate", "--n", "3", "--balanced"),
    ("sweep", "--alpha", "100", "--theta", "0.01", "--eta", "1", "--output", "csv"),
], ids=["generate", "sweep-csv"])
def test_unwritable_out_exits_2(argv, tmp_path, capsys):
    # a missing directory and a directory: the run's result cannot be
    # written, which is a configuration error with nothing on stdout
    for out, reason in ((tmp_path / "no" / "such.json", "No such file or directory"),
                        (tmp_path, "Is a directory")):
        code, stdout, err = run_cli(capsys, *argv, "--out", str(out))
        assert (code, stdout) == (2, ""), out
        assert err.startswith("error: cannot write output file: ") and reason in err, err
        assert err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_unwritable_out_exits_2_before_the_run(tmp_path, capsys, monkeypatch):
    # a missing directory, a directory and a parent that is a file are
    # found before the run, which never starts; the check creates nothing
    # and prints what open() raises
    import qubus_forge.cli as cli

    def no_run(spec):
        raise AssertionError("generate ran")

    monkeypatch.setattr(cli, "generate", no_run)
    (tmp_path / "file").touch()
    for out, code in ((tmp_path / "no" / "x.json", errno.ENOENT), (tmp_path, errno.EISDIR),
                      (tmp_path / "file" / "x.json", errno.ENOTDIR)):
        exit_code, stdout, err = run_cli(capsys, "generate", "--n", "256", "--balanced",
                                         "--out", str(out))
        reason = OSError(code, os.strerror(code), str(out))
        assert (exit_code, stdout, err) == (2, "", f"error: cannot write output file: {reason}\n")
    assert list(tmp_path.iterdir()) == [tmp_path / "file"]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_out_that_fails_on_write_exits_2(capsys):
    # what only the write can tell: /dev/full opens, and every write fails
    code, stdout, err = run_cli(capsys, "generate", "--n", "3", "--balanced", "--out", "/dev/full")
    assert (code, stdout) == (2, "")
    assert err == "error: cannot write output file: [Errno 28] No space left on device\n"


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


@pytest.mark.parametrize("flags, line", [
    (("--theta=-1e-05", "--alpha", "900"), "theta = -1e-05"),
    (("--alpha=-300+100j",), "alpha = -300+100j"),
])
def test_dump_config_with_a_leading_minus_value_loads(flags, line, tmp_path, capsys):
    # argparse reads "--theta -1e-05" as --theta followed by a flag, so the
    # file's value must reach it as "--theta=-1e-05"
    argv = ("generate", "--n", "3", "--shifts", "0,1", "--balanced") + flags
    code, text, _ = run_cli(capsys, *argv, "--dump-config")
    assert code == 0
    assert line in text.splitlines()
    path = tmp_path / "run.cfg"
    path.write_text(text)
    code, from_flags, _ = run_cli(capsys, *argv)
    assert code == 0
    code, from_file, err = run_cli(capsys, "--config", str(path))
    assert (code, err) == (0, "")
    assert from_file == from_flags


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


def _reject_constant(name):
    raise AssertionError(f"JSON output contains {name}")


def _either(draw, valid, edges, odds):
    """Draw one of ``edges`` about once in ``odds`` draws, else from ``valid``
    (``st.one_of`` would drop repeated branches, so it cannot weight them)."""
    if draw(st.integers(1, odds)) == odds:
        return draw(st.sampled_from(edges))
    return draw(valid)


@st.composite
def _cli_argv(draw):
    """generate or sweep argv over valid, edge and invalid inputs.  Edge
    values of alpha and theta are half the draws: the degenerate working
    points among them are what a sweep must reject."""
    n = _either(draw, st.integers(2, 7), [-1, 0, 1], 4)
    alpha = _either(
        draw, st.floats(1e-3, ALPHA_MAX),
        [0.0, 1e-13, ALPHA_MAX, math.nextafter(ALPHA_MAX, 0.0),
         math.nextafter(ALPHA_MAX, math.inf), math.inf, -math.inf, math.nan,
         -1.0, -ALPHA_MAX], 2,
    )
    theta = _either(
        draw, st.floats(1e-6, 2 * math.pi),
        [0.0, math.pi, 2 * math.pi / max(n, 1), 1e-13, -0.5, math.inf,
         -math.inf, math.nan], 2,
    )
    eta = _either(draw, st.floats(0.0, 1.0), [0.0, 1.0, -0.1, 1.5, math.nan], 4)
    values = [f"--n={n}", f"--alpha={alpha!r}", f"--theta={theta!r}", f"--eta={eta!r}"]
    if draw(st.booleans()):
        return ["sweep", *values]
    parties = _either(draw, st.integers(2, 3), [0, 1], 4)
    argv = ["generate", *values, f"--m-parties={parties}"]
    shifts = _either(draw, st.none(), [[0], [0, 1], [1, 0], [0, 7], [0, -1], [0, 1, 2]], 4)
    if shifts is not None:
        argv.append("--shifts=" + ",".join(map(str, shifts)))
    if draw(st.booleans()):
        argv.append("--balanced")
    else:
        argv.append(f"--balanced-phases={draw(st.integers(-1, 7))}")
    return argv


@settings(max_examples=150, derandomize=True, deadline=None)
@given(_cli_argv())
def test_cli_exit_codes_and_sweep_rows_hold_for_any_input(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3), (argv, code, err.getvalue())
    if code == 2:
        assert out.getvalue() == ""
        return
    doc = json.loads(out.getvalue(), parse_constant=_reject_constant)
    if argv[0] != "sweep":
        return
    for row in doc["rows"]:
        closed_ln = row["p_err_closed_log10"] * math.log(10)
        delta = (row["p_err_sim_log10"] - row["p_err_closed_log10"]) * math.log(10)
        # exponents reach ~1.3e6 at |alpha| = 1e3, where one ulp is 2.3e-10
        assert abs(math.expm1(delta)) <= 1e-10 + 4 * math.ulp(abs(closed_ln)), (
            argv, row)
