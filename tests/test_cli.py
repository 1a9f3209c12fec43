import contextlib
import io
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lindreach import serialize as ser
from lindreach.cli import build_parser, main
from lindreach.linalg import dag, hermitize
from lindreach.lindblad import JumpTerm, Lindbladian, replacer_lindbladian
from lindreach.tangent import PathSample, central_differences, lift
from lindreach.transport import plan_diagonal_transport

from conftest import random_complex

LOWER = np.array([[0, 1], [0, 0]], dtype=complex)


def write(tmp_path, name, obj):
    """Write obj as JSON; a string is written as it is."""
    p = tmp_path / name
    p.write_text(obj if isinstance(obj, str) else json.dumps(obj))
    return str(p)


@pytest.fixture
def files(tmp_path):
    L = Lindbladian(2, jumps=[JumpTerm(LOWER, 1.0)])
    return {
        "L": write(tmp_path, "L.json", ser.lindbladian_to_json(L)),
        "rho": write(tmp_path, "rho.json",
                     ser.matrix_to_json(np.diag([0.0, 1.0]))),
        "sigma": write(tmp_path, "sigma.json",
                       ser.matrix_to_json(np.diag([1.0, 0.0]))),
        "mixed": write(tmp_path, "mixed.json", ser.matrix_to_json(np.eye(2) / 2)),
        "x": write(tmp_path, "x.json",
                   ser.matrix_to_json(np.array([[0, 1], [1, 0]], dtype=float))),
        "K": write(tmp_path, "K.json",
                   {"generators": [ser.lindbladian_to_json(L)]}),
        "a": write(tmp_path, "a.json", ser.matrix_to_json(LOWER)),
        "dir": tmp_path,
    }


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_simulate(files, capsys):
    code, out, _ = run(capsys, ["simulate", "--lindblad", files["L"],
                                "--rho", files["rho"], "--t", "1.0"])
    assert code == 0
    M = ser.matrix_from_json(json.loads(out))
    assert abs(M[1, 1].real - np.exp(-2.0)) <= 1e-10


def test_certify_and_lift(files, capsys):
    code, out, _ = run(capsys, ["certify-tangent", "--rho", files["sigma"],
                                "--x", files["x"]])
    assert code == 0 and json.loads(out)["in_tangent_cone"] is True
    code, out, _ = run(capsys, ["lift", "--rho", files["sigma"],
                                "--x", files["x"]])
    assert code == 0
    assert json.loads(out)["residual"] <= 1e-10


def test_lift_path_csv(files, capsys, tmp_path):
    ts = np.linspace(0, 1, 8)
    states = [np.diag([0.5 + 0.1 * t, 0.5 - 0.1 * t]).astype(complex) for t in ts]
    path_file = write(tmp_path, "path.json",
                      ser.path_sample_to_json(PathSample(ts, states)))
    csv = str(tmp_path / "path.csv")
    code, out, _ = run(capsys, ["lift-path", "--path", path_file,
                                "--csv", csv])
    assert code == 0
    lines = (tmp_path / "path.csv").read_text().strip().splitlines()
    assert lines[0] == "t,lambda_min,residual"
    assert len(lines) == 9
    # lift_path differentiates the samples and lifts each traceless derivative
    expect = []
    for s, x in zip(states, central_differences(PathSample(ts, states))):
        x = hermitize(x)
        x = x - (np.trace(x).real / 2) * np.eye(2)
        expect.append(lift(s, x, tol=1e-8).residual)
    column = [float(line.split(",")[2]) for line in lines[1:]]
    assert any(expect)
    assert np.allclose(column, expect, rtol=1e-9, atol=0)


def test_reach_and_csv(files, capsys, tmp_path):
    csv = str(tmp_path / "traj.csv")
    code, out, _ = run(capsys, ["reach", "--K", files["K"],
                                "--rho", files["rho"],
                                "--sigma", files["sigma"],
                                "--dt", "0.05", "--t-max", "20",
                                "--csv", csv])
    assert code == 0 and json.loads(out)["reached"] is True
    header = (tmp_path / "traj.csv").read_text().splitlines()[0]
    assert header == "t,trace_distance,chosen_generator"


def test_reach_csv_without_steps_has_one_row(files, capsys, tmp_path):
    """rho0 already at the target: the CSV holds the one computed sample."""
    csv = tmp_path / "traj.csv"
    code, out, _ = run(capsys, ["reach", "--K", files["K"],
                                "--rho", files["sigma"],
                                "--sigma", files["sigma"], "--csv", str(csv)])
    assert code == 0 and json.loads(out)["n_steps"] == 0
    assert csv.read_text().splitlines() == ["t,trace_distance,chosen_generator",
                                            "0,0,-1"]


def test_reach_within_eq_tol_of_sigma_exits_0(capsys, tmp_path):
    """A valid rho within EQ_TOL of sigma but farther than --target-tol gets
    a report (here a stall), not an error."""
    sigma = np.diag([0.5, 0.3, 0.2]).astype(complex)
    rho = sigma + np.diag([3e-13, -3e-13, 0.0])
    K = {"generators": [ser.lindbladian_to_json(replacer_lindbladian(sigma))]}
    code, out, err = run(capsys, [
        "reach", "--K", write(tmp_path, "K.json", K),
        "--rho", write(tmp_path, "rho.json", ser.matrix_to_json(rho)),
        "--sigma", write(tmp_path, "sigma.json", ser.matrix_to_json(sigma)),
        "--target-tol", "1e-15"])
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["reached"] is False and report["stall"] is not None


def test_non_finite_report_exits_2(files, capsys, tmp_path):
    """Finite entries whose Gamma form overflows give a report with NaN in
    it: exit 2, and stderr holds only the JSON error."""
    big = write(tmp_path, "big.json", ser.matrix_to_json(np.full((2, 2), 1e200)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")     # an overflow warning would exit 1
        code, out, err = run(capsys, ["gamma-check", "--lindblad", files["L"],
                                      "--x", big, "--y", big])
    assert code == 2 and out == ""
    msg = json.loads(err)
    assert msg["code"] == "validation_error" and "non-finite" in msg["message"]


@pytest.mark.parametrize("argv", [
    ["simulate", "--lindblad", "L", "--rho", "rho", "--t", "1"],
    ["lift", "--rho", "mixed", "--x", "x"],
    ["reach", "--K", "K", "--rho", "rho", "--sigma", "sigma", "--dt", "0.05"],
], ids=["simulate", "lift", "reach"])
def test_report_is_one_line(files, capsys, tmp_path, argv):
    """The --out file holds one line of JSON and a newline; stdout, without
    --out, holds the same text."""
    argv = [files.get(a, a) for a in argv]
    code, out, _ = run(capsys, argv)
    assert code == 0 and out.count("\n") == 1 and out.endswith("\n")
    report = tmp_path / "report.json"
    code, printed, _ = run(capsys, argv + ["--out", str(report)])
    assert code == 0 and printed == ""
    assert report.read_text() == out


_finite = st.floats(allow_nan=False, allow_infinity=False)
_reports = st.recursive(
    st.none() | st.booleans() | st.integers() | _finite,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=30)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(report=_reports)
def test_dump_json_round_trips_on_one_line(report):
    text = ser.dump_json(report)
    assert "\n" not in text
    assert json.loads(text) == report


def test_porcupine_reproducible(files, capsys):
    argv = ["porcupine", "--K", files["K"], "--sigma", files["sigma"],
            "--epsilon", "0.05", "--n-samples", "50", "--seed", "9"]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_plan_roundtrip(files, capsys, tmp_path):
    plan_file = str(tmp_path / "plan.json")
    code, _, _ = run(capsys, ["plan", "--k", "2",
                              "--lambda", "0.7,0.1,0.1,0.1",
                              "--mu", "0.4,0.3,0.2,0.1",
                              "--out", plan_file])
    assert code == 0
    rho4 = write(tmp_path, "rho4.json",
                 ser.matrix_to_json(np.diag([0.7, 0.1, 0.1, 0.1])))
    code, out, _ = run(capsys, ["run-plan", "--plan", plan_file,
                                "--rho", rho4])
    assert code == 0
    M = ser.matrix_from_json(json.loads(out))
    assert np.allclose(np.diag(M).real, [0.4, 0.3, 0.2, 0.1], atol=1e-8)
    csv = tmp_path / "plan.csv"
    code, out_csv, _ = run(capsys, ["run-plan", "--plan", plan_file,
                                    "--rho", rho4, "--csv", str(csv)])
    assert code == 0 and out_csv == out
    lines = csv.read_text().splitlines()
    assert lines[0] == "step,p0,p1,p2,p3"
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    assert rows[0] == [0.0, 0.7, 0.1, 0.1, 0.1]
    assert np.allclose(rows[-1][1:], np.diag(M).real, rtol=0, atol=1e-15)


def test_run_plan_csv_invalid_step_writes_nothing(files, capsys, tmp_path):
    """A step rejected when the plan is read, and one that fails after a
    valid step has run: either way no CSV row is written."""
    damp = {"kind": "amplitude_damp", "register": 0, "retention": 0.5}
    for steps, reason in (
            ([{"kind": "unitary", "U": ser.matrix_to_json(2 * np.eye(2))}],
             "U must be a unitary"),
            ([damp, {"kind": "transposition", "i": 0, "j": 2}],
             "transposition (0, 2)")):
        plan = write(tmp_path, "bad_plan.json", {"k": 1, "steps": steps})
        csv = tmp_path / "plan.csv"
        code, _, err = run(capsys, ["run-plan", "--plan", plan,
                                    "--rho", files["rho"], "--csv", str(csv)])
        assert code == 2
        assert reason in json.loads(err)["message"]
        assert not csv.exists()


def test_plan_rejects_unnormalized(files, capsys):
    code, _, err = run(capsys, ["plan", "--k", "1", "--lambda", "0.5,0.4",
                                "--mu", "0.5,0.5"])
    assert code == 2
    assert json.loads(err)["code"] == "not_a_distribution"


def test_plan_pair_just_above_ratio_tol(capsys):
    """Pair (2, 6) of mu sums to 1.0007e-14, just above RATIO_TOL; its
    simulated sum rounds below it. The plan is valid and exits 0."""
    mu = ("0.016756135505979458,0.7250116244561784,9.497825036373041e-15,"
          "0.1993501894395539,0.0017974848886670313,0.00010283399473838931,"
          "5.092609548383582e-16,0.056981731714872724")
    code, out, err = run(capsys, ["plan", "--k", "3",
                                  "--lambda", ",".join(["0.125"] * 8),
                                  "--mu", mu])
    assert code == 0 and err == ""
    assert json.loads(out)["k"] == 3


def test_plan_normalize_flag(files, capsys):
    code, _, _ = run(capsys, ["plan", "--k", "1", "--lambda", "1,1",
                              "--mu", "3,1", "--normalize"])
    assert code == 0


def test_check_hormander(files, capsys, tmp_path):
    X = np.array([[0, 1], [1, 0]], dtype=complex)
    Y = np.array([[0, -1j], [1j, 0]])
    S = write(tmp_path, "S.json",
              {"dim": 2, "elements": [ser.matrix_to_json(1j * X),
                                      ser.matrix_to_json(1j * Y)]})
    code, out, _ = run(capsys, ["check-hormander", "--resources", S])
    assert code == 0
    rep = json.loads(out)
    assert rep["is_hormander"] is True and rep["dim_found"] == 3


def test_dilate(files, capsys, tmp_path):
    csv = str(tmp_path / "dil.csv")
    code, out, _ = run(capsys, ["dilate", "--a", files["a"], "--t", "1.0",
                                "--n", "32,64", "--csv", csv])
    assert code == 0
    errs = json.loads(out)["errors"]
    assert errs[1]["error"] < errs[0]["error"]
    header = (tmp_path / "dil.csv").read_text().splitlines()[0]
    assert header == "n,choi_trace_norm_error"


def test_gamma_check(files, capsys):
    code, out, _ = run(capsys, ["gamma-check", "--lindblad", files["L"],
                                "--x", files["x"], "--y", files["x"]])
    assert code == 0
    assert "gamma" in json.loads(out)


def test_malformed_json_exit_2(files, capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"dim": 2, "entries": [')
    code, _, err = run(capsys, ["simulate", "--lindblad", str(bad),
                                "--rho", files["rho"], "--t", "1"])
    assert code == 2
    msg = json.loads(err)
    assert "byte offset" in msg["message"]


def test_unknown_subcommand_exit_2(files, capsys):
    assert main(["frobnicate"]) == 2


def test_parser_built_once_serves_bad_then_good_argv(files, capsys):
    assert build_parser() is build_parser()
    assert main(["simulate", "--rho", files["rho"], "--t", "x"]) == 2
    assert main(["simulate", "--lindblad", files["L"], "--rho", files["rho"],
                 "--t", "1"]) == 0


@pytest.mark.parametrize("command, extra, name", [
    ("reach", ["--t-max", "nan"], "t_max"),
    ("reach", ["--t-max", "inf"], "t_max"),
    ("reach", ["--dt", "nan"], "dt"),
    ("reach", ["--dt", "0"], "dt"),
    ("reach", ["--target-tol", "nan"], "target_tol"),
    ("reach", ["--target-tol", "-1"], "target_tol"),
    ("reach", ["--rho", "rho3", "--sigma", "rho3"], "rho0"),
    ("reach", ["--sigma", "rho3"], "sigma"),
    ("porcupine", ["--epsilon", "nan"], "epsilon"),
    ("porcupine", ["--epsilon", "inf"], "epsilon"),
    ("porcupine", ["--sigma", "rho3"], "sigma"),
    ("reach", ["--dt", "1e300"], "t = 1e+300 overflows"),
], ids=["t-max-nan", "t-max-inf", "dt-nan", "dt-zero", "target-tol-nan",
        "target-tol-negative", "rho-dim", "sigma-dim", "epsilon-nan",
        "epsilon-inf", "porcupine-sigma-dim", "dt-overflow"])
def test_reach_porcupine_reject_bad_scalars_and_dims(files, capsys, tmp_path,
                                                      command, extra, name):
    rho3 = write(tmp_path, "rho3.json", ser.matrix_to_json(np.eye(3) / 3))
    extra = [rho3 if x == "rho3" else x for x in extra]
    argv = {"reach": ["reach", "--K", files["K"], "--rho", files["rho"],
                      "--sigma", files["sigma"]],
            "porcupine": ["porcupine", "--K", files["K"], "--sigma",
                          files["sigma"], "--epsilon", "0.05"]}[command]
    for flag, value in zip(extra[::2], extra[1::2]):
        if flag in argv:
            argv[argv.index(flag) + 1] = value
        else:
            argv += [flag, value]
    code, _, err = run(capsys, argv)
    assert code == 2
    assert name in json.loads(err)["message"]


@pytest.mark.parametrize("argv, name", [
    (["certify-tangent", "--rho", "sigma", "--x", "z", "--tol", "-1"], "tol"),
    (["certify-tangent", "--rho", "sigma", "--x", "z", "--tol", "inf"], "tol"),
    (["certify-tangent", "--rho", "sigma", "--x", "z", "--tol", "nan"], "tol"),
    (["simulate", "--lindblad", "L", "--rho", "rho", "--t", "nan"], "t"),
    (["simulate", "--lindblad", "L", "--rho", "rho", "--t", "inf"], "t"),
    (["simulate", "--lindblad", "L", "--rho", "rho", "--t", "-1"], "t"),
    (["simulate", "--lindblad", "L", "--rho", "rho", "--t", "1e300"], "t"),
    (["dilate", "--a", "a", "--n", "4", "--t", "nan"], "t"),
    (["dilate", "--a", "a", "--n", "4", "--t", "inf"], "t"),
    (["dilate", "--a", "a", "--n", "4", "--t", "1e300"], "t"),
    (["dilate", "--a", "a", "--n", "x", "--t", "1"], "--n"),
    (["dilate", "--a", "a", "--n", "2.5", "--t", "1"], "--n"),
    (["dilate", "--a", "a", "--n", "1e400", "--t", "1"], "--n"),
    (["dilate", "--a", "a", "--n", "4,0", "--t", "1"], "--n"),
    (["porcupine", "--K", "K", "--sigma", "sigma", "--epsilon", "0.05",
      "--p", "nan"], "p"),
    (["porcupine", "--K", "K", "--sigma", "sigma", "--epsilon", "0.05",
      "--p", "inf"], "p"),
    (["reach", "--K", "K", "--rho", "sigma", "--sigma", "sigma", "--p", "nan"],
     "p"),
], ids=["tol-negative", "tol-inf", "tol-nan", "simulate-t-nan",
        "simulate-t-inf", "simulate-t-negative", "simulate-t-overflow",
        "dilate-t-nan", "dilate-t-inf", "dilate-t-overflow", "dilate-n-word", "dilate-n-float",
        "dilate-n-1e400", "dilate-n-zero", "porcupine-p-nan",
        "porcupine-p-inf", "reach-p-nan"])
def test_scalar_argument_ranges(files, capsys, tmp_path, argv, name):
    # Z = diag(1, -1) at |0><0| leaves the state space: a tolerance that
    # admitted it would certify a false tangent
    files = {**files, "z": write(tmp_path, "z.json",
                                 ser.matrix_to_json(np.diag([1.0, -1.0])))}
    argv = [files.get(a, a) for a in argv]
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert json.loads(err)["message"].startswith(f"{name} must")


def test_csv_17_significant_digits(files, capsys, tmp_path):
    csv = str(tmp_path / "traj.csv")
    code, _, _ = run(capsys, ["reach", "--K", files["K"],
                              "--rho", files["rho"],
                              "--sigma", files["sigma"],
                              "--dt", "0.05", "--t-max", "1", "--csv", csv])
    assert code == 0
    row = (tmp_path / "traj.csv").read_text().splitlines()[2]
    val = row.split(",")[1]
    assert len(val.replace(".", "").replace("-", "").lstrip("0")) >= 15


NAN_RATE = {"dim": 2, "jumps": [{"a": ser.matrix_to_json(LOWER), "rate": float("nan")}]}
INF_RATE = {"dim": 2, "jumps": [{"a": ser.matrix_to_json(LOWER), "rate": float("inf")}]}


def bilinear_generator(ops, g):
    return {"dim": 2, "bilinear": {
        "ops": [ser.matrix_to_json(a) for a in ops],
        "kossakowski": ser.matrix_to_json(np.asarray(g, dtype=float))}}


def one_step_plan(step):
    return {"k": 1, "steps": [step]}


def resource_set(**fields):
    L = Lindbladian(2, jumps=[JumpTerm(LOWER, 1.0)])
    return {"generators": [ser.lindbladian_to_json(L)], **fields}


MATRIX_2 = ser.matrix_to_json(np.eye(2) / 2)
MATRIX_3 = ser.matrix_to_json(np.eye(3) / 3)
GROUND_2 = ser.matrix_to_json(np.diag([1.0, 0.0]))
ZERO_2 = ser.matrix_to_json(np.zeros((2, 2)))
TRACELESS_3 = ser.matrix_to_json(np.diag([1.0, -1.0, 0.0]))
TRANSPOSITION = {"kind": "transposition", "i": 0, "j": 1}
DAMP = {"kind": "amplitude_damp", "register": 0, "retention": 0.5}


@pytest.mark.parametrize("flag, bad, reason", [
    ("--rho", {"dim": 2, "entries": None}, "entries"),
    ("--rho", {"dim": 2, "entries": 7}, "entries"),
    ("--rho", {"dim": 2, "entries": [["a", "b"]] * 4}, "entries"),
    ("--rho", {"dim": 2, "entries": [[1, None]] * 4}, "entries"),
    ("--rho", {"dim": 2, "entries": [[1, 0], [0], [0, 0], [0, 0]]}, "entries"),
    ("--lindblad", NAN_RATE, "rate"),
    ("--lindblad", INF_RATE, "rate"),
    ("--lindblad", bilinear_generator([LOWER, LOWER.T], [[1, 2], [0, 1]]),
     "Hermitian"),
    ("--lindblad", bilinear_generator([LOWER], np.eye(2)), "Kossakowski"),
    ("--lindblad", bilinear_generator([np.eye(3)], [[1]]), "bilinear.ops"),
    ("--plan", one_step_plan({"kind": "dephase", "registers": [0]}),
     "unknown plan step kind"),
    ("--plan", one_step_plan({"kind": "amplitude_damp", "register": 1,
                              "retention": 0.5}), "register"),
    ("--plan", one_step_plan({"kind": "transposition", "i": 0, "j": 2}),
     "transposition"),
    ("--plan", one_step_plan({"kind": "transposition", "i": -1, "j": 0}),
     "transposition"),
    ("plan", ["--lambda", "0.5,0.5", "--mu", "nan,nan"], "--mu entries sum"),
    ("plan", ["--lambda", "nan,nan", "--mu", "0.5,0.5"], "--lambda entries sum"),
    ("plan", ["--lambda", "0.5,0.5", "--mu", "0,0", "--normalize"],
     "--mu entries sum"),
    ("plan", ["--lambda", "1,-1", "--mu", "1,1", "--normalize"],
     "--lambda entries sum"),
    ("plan", ["--lambda", "1,nan", "--mu", "1,1", "--normalize"],
     "--lambda entries sum"),
    ("plan", ["--lambda", "0.5,abc", "--mu", "0.5,0.5"],
     "--lambda entry 'abc' is not a number"),
    ("plan", ["--lambda", "0.5,0.5", "--mu", ""], "--mu entry '' is not"),
    ("plan", ["--lambda", "0.5,0.5", "--mu", "1,,0"], "--mu entry '' is not"),
    ("--rho", '{"dim": 1e400, "entries": []}', "'dim'"),
    ("--rho", {**MATRIX_2, "dim": 2.5}, "'dim'"),
    ("--rho", {**MATRIX_2, "dim": True}, "'dim'"),
    ("--plan", '{"k": 1e400, "steps": []}', "'k'"),
    ("--plan", {"k": 2.9, "steps": []}, "'k'"),
    ("--plan", {"k": 1, "steps": [3]}, "JSON object"),
    ("--plan", one_step_plan({**TRANSPOSITION, "i": 0.7}), "'i'"),
    ("--plan", one_step_plan({**TRANSPOSITION, "j": True}), "'j'"),
    ("--plan", one_step_plan({**DAMP, "register": 0.0}), "'register'"),
    ("--plan", one_step_plan({**DAMP, "retention": "0.5"}), "'retention'"),
    ("--lindblad", {"dim": 2, "jumps": [{"a": ser.matrix_to_json(LOWER),
                                         "rate": "0.5"}]}, "'rate'"),
    ("--lindblad", {"dim": 2, "jumps": [3]}, "JSON object"),
    ("--K", resource_set(cone_combinations="false"), "'cone_combinations'"),
    ("--K", resource_set(max_total_rate="1"), "'max_total_rate'"),
    ("--K", resource_set(max_total_rate=float("nan")), "'max_total_rate'"),
    ("--K", {"generators": [3]}, "JSON object"),
    ("--x", '{"dim": 2, "entries": [[NaN, 0], [0, 0], [0, 0], [0, 0]]}',
     "finite"),
    ("--x", '{"dim": 2, "entries": [[0, Infinity], [0, 0], [0, 0], [0, 0]]}',
     "finite"),
    ("--x", '{"dim": 2, "entries": [[1e400, 0], [0, 0], [0, 0], [0, 0]]}',
     "finite"),
    ("certify-tangent --x",
     '{"dim": 2, "entries": [[true, 0], [0, 0], [0, 0], [0, 0]]}', "entries"),
    ("--rho", '{"dim": 2, "entries": [[0.5, false], [0, 0], [0, 0], [0.5, 0]]}',
     "entries"),
    ("--rho", {"dim": 2, "entries": [[True, False]] * 4}, "entries"),
    ("--path", {"times": ["0", "0.5", True], "states": [MATRIX_2] * 3},
     "'times'"),
    ("--path", {"times": [0, 1, 2], "states": [MATRIX_2, MATRIX_2,
                                               ser.matrix_to_json(np.eye(3) / 3)]},
     "ragged"),
    ("--path", {"times": [0, 1, 2], "states": [MATRIX_2] * 3,
                "derivs": [MATRIX_2] * 2}, "derivs"),
    ("--K", {"generators": 3}, "'generators' must be a list"),
    ("--lindblad", {"dim": 2, "jumps": {"a": 1}}, "'jumps' must be a list"),
    ("--lindblad", {"dim": 2, "bilinear": {"ops": 1, "kossakowski": MATRIX_2}},
     "'ops' must be a list"),
    ("--lindblad", {"dim": 2, "bilinear": {"ops": []}}, "'kossakowski'"),
    ("--lindblad", {"dim": 2, "hamiltonian": 3}, "'hamiltonian'"),
    ("--plan", {"k": 1, "steps": {"kind": "transposition"}},
     "'steps' must be a list"),
    ("--plan", {"k": 1}, "'steps' must be a list"),
    ("--plan", one_step_plan({"kind": "unitary"}), "'U'"),
    ("--path", {"times": 0, "states": [MATRIX_2]}, "'times' must be a list"),
    ("--path", {"times": [0], "states": MATRIX_2}, "'states' must be a list"),
    ("--path", {"times": [0, 1, 2], "states": [MATRIX_2] * 3,
                "derivs": MATRIX_2}, "'derivs' must be a list"),
    ("--rho", MATRIX_3, "rho has shape (3, 3)"),
    ("run-plan --rho", MATRIX_3, "rho has shape (3, 3)"),
    ("--x", TRACELESS_3, "x has shape (3, 3)"),
    ("reach --sigma", MATRIX_3, "sigma has shape (3, 3)"),
    ("certify-tangent --x", TRACELESS_3, "x has shape (3, 3)"),
    ("certify-tangent --rho", MATRIX_3, "x has shape (2, 2)"),
    ("lift --x", TRACELESS_3, "x has shape (3, 3)"),
    ("lift --x", ser.matrix_to_json(LOWER), "x must be Hermitian"),
    ("certify-tangent --x", ser.matrix_to_json(LOWER), "x must be Hermitian"),
    ("--rho", {"dim": -1, "entries": [[1, 0]]}, "'dim' must be a positive"),
    ("--rho", {"dim": 0, "entries": []}, "'dim' must be a positive"),
    ("--lindblad", {"dim": -1}, "'dim' must be a positive"),
    ("--lindblad", {"dim": 0}, "'dim' must be a positive"),
    ("--plan", {"k": 0, "steps": []}, "'k' must be a positive"),
    ("--plan", one_step_plan({"kind": "unitary", "U": ser.matrix_to_json(
        np.array([[1.0, 2 ** -0.5], [0.0, 2 ** -0.5]]))}), "U must be a unitary"),
    ("--plan", one_step_plan({"kind": "unitary",
                              "U": ser.matrix_to_json(np.eye(3))}),
     "U has shape (3, 3)"),
    ("--path", {"times": [0, 1, 2], "states": [GROUND_2] * 3,
                "derivs": [ser.matrix_to_json(np.diag([1.0, -1.0])),
                           ZERO_2, ZERO_2]}, "sample 0"),
], ids=["entries-null", "entries-not-list", "entries-strings",
        "entries-null-pair", "entries-ragged", "rate-nan", "rate-inf",
        "kossakowski-not-hermitian", "kossakowski-wrong-size",
        "bilinear-op-wrong-dim",
        "step-dephase", "register-out-of-range", "index-out-of-range",
        "index-negative", "mu-nan", "lambda-nan", "normalize-zero-sum",
        "normalize-cancelling-sum", "normalize-nan", "lambda-not-a-number",
        "mu-empty", "mu-empty-entry", "dim-1e400", "dim-float",
        "dim-bool", "k-1e400", "k-float", "step-not-object", "i-float",
        "j-bool", "register-float", "retention-string", "rate-string",
        "jump-not-object", "cone-combinations-string", "max-rate-string",
        "max-rate-nan", "generator-not-object", "matrix-nan",
        "matrix-infinity", "matrix-1e400", "entries-bool-with-int",
        "entries-bool-with-float", "entries-all-bool", "times-not-numbers",
        "states-ragged", "derivs-wrong-length", "generators-not-list",
        "jumps-not-list", "ops-not-list", "kossakowski-missing",
        "hamiltonian-not-object", "steps-not-list", "steps-missing",
        "unitary-missing", "times-not-list", "states-not-list",
        "derivs-not-list", "simulate-rho-dim", "run-plan-rho-dim", "gamma-x-dim",
        "reach-sigma-dim", "tangent-x-dim", "tangent-rho-dim", "lift-x-dim",
        "lift-x-not-hermitian", "tangent-x-not-hermitian",
        "dim-negative", "dim-zero", "lindblad-dim-negative",
        "lindblad-dim-zero", "k-zero", "unitary-not-unitary",
        "unitary-wrong-dim", "derivs-not-tangent"])
def test_malformed_input_exit_2(files, capsys, tmp_path, flag, bad, reason):
    if flag == "plan":
        argv = ["plan", "--k", "1"] + bad
    else:
        plan = write(tmp_path, "plan.json", {"k": 1, "steps": []})
        # a flag alone names the command below; "command --flag" names both
        reach = ["reach", "--K", files["K"], "--rho", files["rho"],
                 "--sigma", files["sigma"]]
        tangent = ["--rho", files["mixed"], "--x", files["x"]]
        run_plan = ["run-plan", "--plan", plan, "--rho", files["rho"]]
        argv = {"--plan": run_plan, "run-plan --rho": run_plan,
                "--K": reach, "reach --sigma": reach,
                "--path": ["lift-path", "--path", None],
                "--x": ["gamma-check", "--lindblad", files["L"], "--x", None,
                        "--y", files["x"]],
                "certify-tangent --x": ["certify-tangent"] + tangent,
                "certify-tangent --rho": ["certify-tangent"] + tangent,
                "lift --x": ["lift"] + tangent}.get(
            flag, ["simulate", "--lindblad", files["L"], "--rho", files["rho"],
                   "--t", "1"])
        argv[argv.index(flag.split()[-1]) + 1] = write(tmp_path, "bad.json", bad)
    code, _, err = run(capsys, argv)
    assert code == 2
    msg = json.loads(err)
    code_name = "not_a_distribution" if flag == "plan" else "validation_error"
    assert msg["code"] == code_name and reason in msg["message"]


@pytest.mark.parametrize("argv, reason", [
    (["certify-tangent", "--rho", "indefinite", "--x", "ground"], "trace"),
    (["reach", "--K", "K", "--rho", "rho64", "--sigma", "rho37", "--p", "700"],
     "p = 700"),
    (["porcupine", "--K", "K", "--sigma", "rho37", "--epsilon", "0.05",
      "--p", "700"], "p = 700"),
], ids=["certify-tangent-rho-not-a-state", "reach-p-too-large",
        "porcupine-p-too-large"])
def test_tangent_and_descent_inputs_exit_2(capsys, tmp_path, argv, reason):
    """certify-tangent validates rho before it looks at tr x, and a p too
    large for the distance (0.3^699 underflows) is named."""
    ground = np.diag([1.0, 0.0])
    decay = Lindbladian(2, jumps=[JumpTerm(dag(LOWER), 1.0)])
    docs = {"indefinite": ser.matrix_to_json(np.diag([2.0, -1.5])),
            "ground": ser.matrix_to_json(ground),
            "K": {"generators": [ser.lindbladian_to_json(decay)]},
            "rho64": ser.matrix_to_json(np.diag([0.6, 0.4])),
            "rho37": ser.matrix_to_json(np.diag([0.3, 0.7]))}
    argv = [write(tmp_path, f"{a}.json", docs[a]) if a in docs else a
            for a in argv]
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert reason in json.loads(err)["message"]


def _raise_on_constant(name):
    raise ValueError(f"report contains {name}")


def _matrix(rng, d, density=False):
    if density:
        p = rng.uniform(0.01, 1.0, d)
        return ser.matrix_to_json(np.diag(p / p.sum()))
    return ser.matrix_to_json(rng.uniform(-1, 1, (d, d))
                              + 1j * rng.uniform(-1, 1, (d, d)))


def _lindbladian(rng, d):
    return {"dim": d,
            "hamiltonian": ser.matrix_to_json(hermitize(random_complex(rng, d))),
            "jumps": [{"a": _matrix(rng, d), "rate": rng.uniform(0, 2)}
                      for _ in range(rng.integers(0, 3))]}


def _documents(rng, command):
    """Valid input files (by CLI flag) and scalar flags for one command,
    following the README file formats."""
    d = int(rng.integers(1, 4))
    if command == "simulate":
        return ({"--lindblad": _lindbladian(rng, d),
                 "--rho": _matrix(rng, d, density=True)}, {"--t": "0.5"})
    if command == "gamma-check":
        return ({"--lindblad": _lindbladian(rng, d), "--x": _matrix(rng, d),
                 "--y": _matrix(rng, d)}, {})
    if command == "porcupine":
        K = {"generators": [_lindbladian(rng, d)],
             "cone_combinations": bool(rng.integers(2)), "max_total_rate": 1.0}
        return ({"--K": K, "--sigma": _matrix(rng, d, density=True)},
                {"--epsilon": "0.05", "--n-samples": "20"})
    if command == "lift-path":
        A, B = (ser.matrix_from_json(_matrix(rng, d, density=True))
                for _ in range(2))
        ts = np.linspace(0.0, 1.0, rng.integers(3, 5))
        return ({"--path": {"times": ts.tolist(), "states": [
            ser.matrix_to_json((1 - t) * A + t * B) for t in ts]}}, {})
    k = int(rng.integers(1, 3))
    steps = [{"kind": "amplitude_damp", "register": 0, "retention": 0.5},
             {"kind": "transposition", "i": 0, "j": 1},
             {"kind": "unitary", "U": ser.matrix_to_json(np.eye(2 ** k)[::-1])}]
    return ({"--plan": {"k": k, "steps": list(rng.permutation(steps))},
             "--rho": _matrix(rng, 2 ** k, density=True)}, {})


def _nodes(doc, path=()):
    """Every (path, value) of a JSON document, the root included."""
    yield path, doc
    items = doc.items() if isinstance(doc, dict) else (
        enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield from _nodes(value, path + (key,))


WRONG_KINDS = ["x", True, None, [], {}, 10 ** 400, [[0, 0]], {"dim": 2}]
NON_FINITE = [float("nan"), float("inf"), -float("inf")]
NON_POSITIVE = [0, -1]
BAD_SCALARS = ["nan", "inf", "-inf", "-1", "0", "1e400", "x"]


def _pick(rng, seq):
    return seq[rng.integers(len(seq))]


def _mutate(rng, doc):
    """doc with one mutation: a node of the wrong kind, a number made
    non-finite, a dim or k made 0 or -1, a list grown or shrunk by one
    element, or a field removed."""
    nodes = list(_nodes(doc))
    how = _pick(rng, ["kind", "non-finite", "non-positive", "size", "missing"])
    if how == "kind":
        path, _ = _pick(rng, nodes)
        value = _pick(rng, WRONG_KINDS)
    elif how == "non-finite":
        path, _ = _pick(rng, [(p, v) for p, v in nodes
                              if type(v) in (int, float)])
        value = _pick(rng, NON_FINITE)
    elif how == "non-positive":
        path, _ = _pick(rng, [(p, v) for p, v in nodes
                              if p and p[-1] in ("dim", "k")])
        value = _pick(rng, NON_POSITIVE)
    elif how == "size":
        path, v = _pick(rng, [(p, v) for p, v in nodes if type(v) is list and v])
        value = v + v[-1:] if rng.integers(2) else v[:-1]
    else:
        path, _ = _pick(rng, [(p, v) for p, v in nodes if p and type(p[-1]) is str])
    if not path:
        return value
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if how == "missing":
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(command=st.sampled_from(["simulate", "gamma-check", "porcupine",
                                "lift-path", "run-plan"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_cli_fuzz_exit_0_or_2_and_valid_json(tmp_path_factory, command, seed):
    """README documents, valid or with one mutation, never make the CLI exit
    1, and no report it prints contains NaN or Infinity."""
    rng = np.random.default_rng(seed)
    docs, scalars = _documents(rng, command)
    target = _pick(rng, [None] + sorted(docs) + sorted(scalars))
    if target in scalars:
        scalars[target] = _pick(rng, BAD_SCALARS)
    elif target is not None:
        docs[target] = _mutate(rng, docs[target])
    tmp = tmp_path_factory.mktemp("fuzz")
    argv = [command]
    for flag, doc in docs.items():
        # a string document is written as JSON, not as raw text
        argv += [flag, write(tmp, flag.strip("-") + ".json", json.dumps(doc))]
    for flag, value in scalars.items():
        argv += [flag, value]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2), err.getvalue()
    if code == 0:
        json.loads(out.getvalue(), parse_constant=_raise_on_constant)
