import argparse
import ast
import contextlib
import gc
import io
import json
import os
import re
import stat
import subprocess
import sys
import typing
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lindreach import cli, serialize as ser
from lindreach.cli import build_parser, main
from lindreach.hormander import ResourceSet, lie_closure
from lindreach.linalg import dag, hermitize
from lindreach.lindblad import (BilinearTerm, JumpTerm, Lindbladian,
                               replacer_lindbladian)
from lindreach.tangent import PathSample, central_differences, lift
from lindreach.transport import (AmplitudeDamp, ApplyUnitary, PlanStep,
                                 Transposition, plan_diagonal_transport)

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


def test_simulate_names_a_generator_whose_superoperator_overflows(files, capsys,
                                                                   tmp_path):
    """A jump with finite entries of 1e200, which the decoder accepts, has an
    infinite superoperator: simulate exits 2 naming the operators and rates,
    not t = 1e-300. A finite generator still names t when exp(tL)
    overflows."""
    L = Lindbladian(2, jumps=[JumpTerm(np.full((2, 2), 1e200), 1.0)])
    huge = write(tmp_path, "huge.json", ser.lindbladian_to_json(L))
    for lindblad, t, message in ((huge, "1e-300", "generator superoperator is "
                                  "not finite: operators and rates"),
                                 (files["L"], "1e300", "t = 1e+300 overflows")):
        code, out, err = run(capsys, ["simulate", "--lindblad", lindblad,
                                      "--rho", files["mixed"], "--t", t])
        assert (code, out) == (2, "")
        assert json.loads(err)["code"] == "validation_error"
        assert message in json.loads(err)["message"]


def test_certify_and_lift(files, capsys):
    code, out, _ = run(capsys, ["certify-tangent", "--rho", files["sigma"],
                                "--x", files["x"]])
    assert code == 0 and json.loads(out)["in_tangent_cone"] is True
    code, out, _ = run(capsys, ["lift", "--rho", files["sigma"],
                                "--x", files["x"]])
    assert code == 0
    assert json.loads(out)["residual"] <= 1e-10


def test_certify_tangent_rejects_nonzero_trace(files, capsys, tmp_path):
    """At the full-rank I/2 only the trace rule of T+ can fail: a Hermitian
    x with tr x = 0.3 is outside the cone."""
    x = write(tmp_path, "x_trace.json", ser.matrix_to_json(np.diag([0.2, 0.1])))
    code, out, _ = run(capsys, ["certify-tangent", "--rho", files["mixed"],
                                "--x", x])
    assert code == 0 and json.loads(out)["in_tangent_cone"] is False


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


def test_reach_counts_steps_to_t_max(files, capsys, tmp_path):
    """A run that neither reaches nor stalls takes round(t_max / dt) steps,
    and the CSV times are i dt: a jump at rate 1e-3 barely moves I/2 toward
    |0><0|."""
    L = Lindbladian(2, jumps=[JumpTerm(LOWER, 1e-3)])
    K = write(tmp_path, "K_slow.json", {"generators": [ser.lindbladian_to_json(L)]})
    csv = tmp_path / "traj.csv"
    code, out, _ = run(capsys, ["reach", "--K", K, "--rho", files["mixed"],
                                "--sigma", files["sigma"], "--dt", "0.1",
                                "--t-max", "1", "--csv", str(csv)])
    rep = json.loads(out)
    assert code == 0 and rep["t_max_exceeded"] and rep["stall"] is None
    assert rep["n_steps"] == 10
    rows = [line.split(",") for line in csv.read_text().splitlines()[1:]]
    assert [float(r[0]) for r in rows] == [i * 0.1 for i in range(11)]
    assert [r[2] for r in rows] == ["-1"] + ["0"] * 10


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


def _matrix_by_numpy(obj):
    """The per-matrix decoding that the stack decoder replaced: numpy reads
    the nested [re, im] lists, and the pairs combine as re + 1j*im."""
    pairs = np.array(obj["entries"])
    return (pairs[:, 0] + 1j * pairs[:, 1]).reshape(obj["dim"], obj["dim"])


_tiny = st.sampled_from([-0.0, 5e-324, -5e-324, 1e-310])
# floats alone (what matrix_to_json writes), ints and floats below 2**53 in
# size, and ints up to 2**62 among floats of any size; a list with an int
# takes the per-matrix route
_entry_mixes = [
    _finite | _tiny | st.sampled_from([1e308, -1e308]),
    st.integers(-3, 3) | st.integers(-2 ** 53 + 1, 2 ** 53 - 1)
    | st.floats(-2.0 ** 52, 2.0 ** 52) | _tiny,
    st.integers(-2 ** 62, 2 ** 62) | _finite | _tiny]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data(), entries=st.sampled_from(_entry_mixes),
       d=st.integers(1, 3), n=st.sampled_from([0, 1, 2, 5, 12]))
def test_matrices_from_json_matches_numpy_bit_for_bit(data, entries, d, n):
    """Finite lists of 0, 1 and many matrices decode to the bits, signed
    zeros included, that numpy's nested-list route gives each matrix. A
    nonempty list is read as one stack exactly when its numbers are all
    floats."""
    pair = st.lists(entries, min_size=2, max_size=2)
    objs = [{"dim": d, "entries": data.draw(
        st.lists(pair, min_size=d * d, max_size=d * d))} for _ in range(n)]
    objs = json.loads(json.dumps(objs))
    got = ser.matrices_from_json(objs)
    want = [_matrix_by_numpy(obj) for obj in objs]
    assert len(got) == n
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape == (d, d)
        assert g.view(float).tobytes() == w.view(float).tobytes()
    scalars = [x for obj in objs for p in obj["entries"] for x in p]
    if n:
        floats = all(type(x) is float for x in scalars)
        assert (ser._stack(objs) is not None) == floats


def _matrix_to_json_one_by_one(M):
    """The per-matrix encoding that matrices_to_json replaced: one tolist()
    per matrix; kept as its reference."""
    M = np.asarray(M, dtype=complex)
    return {"dim": M.shape[0],
            "entries": np.stack([M.real, M.imag], -1).reshape(-1, 2).tolist()}


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=st.data(), d=st.integers(1, 4), n=st.sampled_from([0, 1, 2, 7]))
def test_matrices_to_json_matches_one_by_one_byte_for_byte(data, d, n):
    """One conversion for a whole list gives the JSON text of one per
    matrix, byte for byte: signed zeros, subnormals and the largest floats
    included, for an empty list, a list of arrays and a stack; so does the
    (0, d, d) basis of a closure with nothing to bracket."""
    pair = st.lists(_finite | _tiny, min_size=2, max_size=2)
    Ms = [np.array(data.draw(st.lists(pair, min_size=d * d, max_size=d * d)),
                   dtype=float).reshape(d, d, 2) @ [1, 1j] for _ in range(n)]
    for M in Ms:
        M.real[0, 0] = M.imag[-1, -1] = -0.0
    want = json.dumps([_matrix_to_json_one_by_one(M) for M in Ms])
    assert json.dumps(ser.matrices_to_json(Ms)) == want
    assert json.dumps(ser.matrices_to_json(np.array(Ms).reshape(n, d, d))) == want
    assert [json.dumps(ser.matrix_to_json(M)) for M in Ms] == [
        json.dumps(_matrix_to_json_one_by_one(M)) for M in Ms]
    basis = lie_closure(ResourceSet(d, [np.eye(d)])).basis
    assert basis.shape == (0, d, d) and ser.matrices_to_json(basis) == []


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(old=st.none() | st.integers(0, 3000), new=st.integers(1, 3000))
def test_write_text_leaves_exactly_the_new_bytes(tmp_path_factory, old, new):
    """Over a longer file, a shorter one, an empty one or none, the file
    holds the new text and nothing of what it held before."""
    path = tmp_path_factory.mktemp("write") / "report.json"
    if old is not None:
        path.write_bytes(b"o" * old)
    text = "n" * (new - 1) + "\n"
    ser.write_text(str(path), text)
    assert path.read_bytes() == text.encode()


@pytest.mark.parametrize("umask", [0o022, 0o077])
def test_write_text_creates_with_the_mode_of_open(tmp_path, umask):
    old = os.umask(umask)
    try:
        ser.write_text(str(tmp_path / "new.json"), "{}\n")
        with open(tmp_path / "by_open.json", "w") as fh:
            fh.write("{}\n")
    finally:
        os.umask(old)
    modes = {stat.S_IMODE((tmp_path / name).stat().st_mode)
             for name in ("new.json", "by_open.json")}
    assert modes == {0o666 & ~umask}


def test_out_writes_through_links_and_to_devices(files, capsys, tmp_path):
    """A symlinked or hard-linked --out is written through, not replaced;
    --out on a character device is written without a cut."""
    argv = ["simulate", "--lindblad", files["L"], "--rho", files["rho"],
            "--t", "1"]
    code, report, _ = run(capsys, argv)
    assert code == 0
    target = tmp_path / "target.json"
    target.write_text("x" * 5000)
    link, hard = tmp_path / "link.json", tmp_path / "hard.json"
    link.symlink_to(target)
    os.link(target, hard)
    code, out, _ = run(capsys, argv + ["--out", str(link)])
    assert code == 0 and out == ""
    assert link.is_symlink() and hard.read_text() == target.read_text() == report
    assert run(capsys, argv + ["--out", os.devnull]) == (0, "", "")


_PATH_ARGV = {
    "input": lambda f, path: ["simulate", "--lindblad", path, "--rho", f["rho"],
                              "--t", "1"],
    "out": lambda f, path: ["plan", "--k", "1", "--lambda", "0.5,0.5",
                            "--mu", "0.3,0.7", "--out", path],
    "csv": lambda f, path: ["dilate", "--a", f["a"], "--t", "1", "--n", "4",
                            "--csv", path],
}


@pytest.mark.parametrize("kind", ["directory", "not_a_directory"])
@pytest.mark.parametrize("where", ["input", "out", "csv"])
def test_unusable_path_exits_2(files, capsys, tmp_path, where, kind):
    """An input, --out or --csv path that exists but cannot be opened is bad
    input: exit 2 with the JSON error, which names the path."""
    bad = str(tmp_path) if kind == "directory" else files["rho"] + "/x.json"
    code, out, err = run(capsys, _PATH_ARGV[where](files, bad))
    assert code == 2 and out == ""
    msg = json.loads(err)
    assert msg["code"] == "validation_error" and bad in msg["message"]


@pytest.mark.parametrize("where", ["input", "out", "csv"])
def test_permission_denied_exits_2(files, capsys, tmp_path, monkeypatch, where):
    """A path the process may not open exits 2. Root opens a file whatever
    its mode, so the denial is simulated: opening the path raises the
    PermissionError that a process without the right gets."""
    bad = str(tmp_path / "denied.json")
    if where == "input":
        with open(bad, "w") as fh:
            fh.write(json.dumps(ser.matrix_to_json(np.eye(2))))

    def denied(opener):
        def open_(path, *args, **kwargs):
            if str(path) == bad:
                raise PermissionError(13, "Permission denied", bad)
            return opener(path, *args, **kwargs)
        return open_

    monkeypatch.setattr(ser, "open", denied(open), raising=False)
    monkeypatch.setattr(os, "open", denied(os.open))
    code, out, err = run(capsys, _PATH_ARGV[where](files, bad))
    assert code == 2 and out == ""
    assert "Permission denied" in json.loads(err)["message"]


def _write_csv_rowwise(path, header, rows):
    """The row-by-row writer that every --csv file is byte-compared with."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(f"{float(v):.17g}" for v in row) + "\n")


@pytest.mark.parametrize("command", ["reach", "run-plan", "dilate", "lift-path"])
def test_csv_matches_the_row_by_row_writer(files, capsys, tmp_path, monkeypatch,
                                           command):
    ts = np.linspace(0, 1, 8)
    path = write(tmp_path, "path.json", ser.path_sample_to_json(PathSample(
        ts, [np.diag([0.5 + 0.1 * t, 0.5 - 0.1 * t]) for t in ts])))
    plan = write(tmp_path, "plan.json", ser.plan_to_json(plan_diagonal_transport(
        np.array([0.0, 1.0]), np.array([0.3, 0.7]), 1)))
    argv = {"reach": ["reach", "--K", files["K"], "--rho", files["rho"],
                      "--sigma", files["sigma"], "--dt", "0.05"],
            "run-plan": ["run-plan", "--plan", plan, "--rho", files["rho"]],
            "dilate": ["dilate", "--a", files["a"], "--t", "1", "--n", "8,16,32"],
            "lift-path": ["lift-path", "--path", path]}[command]
    written = []

    def spy(path, header, rows, write_csv=cli._write_csv):
        written.append((header, list(rows)))
        write_csv(path, header, written[-1][1])

    monkeypatch.setattr(cli, "_write_csv", spy)
    csv = tmp_path / "out.csv"
    csv.write_text("x" * 20000)                   # a longer file is cut
    code, _, _ = run(capsys, argv + ["--csv", str(csv)])
    assert code == 0 and len(written) == 1 and len(written[0][1]) >= 2
    _write_csv_rowwise(tmp_path / "ref.csv", *written[0])
    assert csv.read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_porcupine_reproducible(files, capsys):
    argv = ["porcupine", "--K", files["K"], "--sigma", files["sigma"],
            "--epsilon", "0.05", "--n-samples", "50", "--seed", "9"]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2


@pytest.mark.parametrize("argv", [
    ["simulate", "--lindblad", "L", "--rho", "bad", "--t", "1"],
    ["porcupine", "--K", "K", "--sigma", "bad", "--epsilon", "0.05"],
], ids=["simulate-rho", "porcupine-sigma"])
def test_nan_spectrum_exits_2(files, capsys, tmp_path, argv):
    """A finite Hermitian state whose hermitize overflows has a NaN
    spectrum: exit 2 with one JSON error line that says so and names the
    state, and no warning."""
    bad = write(tmp_path, "bad.json",
                ser.matrix_to_json(np.array([[0.5, 1.5e308], [1.5e308, 0.5]])))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, [files.get(a, bad if a == "bad" else a)
                                      for a in argv])
    assert code == 2 and out == "" and err.count("\n") == 1
    msg = json.loads(err)
    name = argv[argv.index("bad") - 1].lstrip("-")
    assert msg == {"code": "validation_error", "context": {},
                   "message": f"{name}: density matrix spectrum is not finite"}


@pytest.mark.parametrize("argv, name", [
    (["simulate", "--lindblad", "L", "--rho", "bad", "--t", "1"], "rho"),
    (["reach", "--K", "K", "--rho", "bad", "--sigma", "sigma"], "rho0"),
    (["reach", "--K", "K", "--rho", "rho", "--sigma", "bad"], "sigma"),
    (["porcupine", "--K", "K", "--sigma", "bad", "--epsilon", "0.05"], "sigma"),
    (["certify-tangent", "--rho", "bad", "--x", "x"], "rho"),
    (["lift", "--rho", "bad", "--x", "x"], "rho"),
    (["run-plan", "--plan", "plan", "--rho", "bad"], "rho"),
], ids=["simulate-rho", "reach-rho", "reach-sigma", "porcupine-sigma",
        "certify-tangent-rho", "lift-rho", "run-plan-rho"])
def test_non_density_state_is_named(files, capsys, tmp_path, argv, name):
    """A state flag given a matrix of the right dimension that is not a
    density matrix (unit trace, an eigenvalue of -0.2) exits 2, and the
    message names the state argument."""
    files = {**files, "bad": write(tmp_path, "bad.json",
                                   ser.matrix_to_json(np.diag([1.2, -0.2]))),
             "plan": write(tmp_path, "plan.json", {"k": 1, "steps": []})}
    code, out, err = run(capsys, [files.get(a, a) for a in argv])
    assert code == 2 and out == ""
    msg = json.loads(err)
    assert msg["code"] == "validation_error"
    assert msg["message"] == (f"{name}: density matrix has eigenvalue -0.2 "
                              "below -1e-10")


@pytest.mark.parametrize("d, eps, kept", [(2, 5.0, 0), (3, 1.0, 7)],
                         ids=["outside", "too-few"])
def test_porcupine_sphere_errors_give_the_counts(capsys, tmp_path, d, eps, kept):
    """A sphere around |0><0| that the state space misses or barely meets
    exits 2 with the samples kept, the draws taken (the cap, 50 n) and the
    n // 10 needed."""
    L = Lindbladian(d, jumps=[JumpTerm(np.eye(d, k=1), 1.0)])
    K = write(tmp_path, "K.json", {"generators": [ser.lindbladian_to_json(L)]})
    sigma = write(tmp_path, "sigma.json", ser.matrix_to_json(np.diag(np.eye(d)[0])))
    code, out, err = run(capsys, ["porcupine", "--K", K, "--sigma", sigma,
                                  "--epsilon", str(eps), "--n-samples", "100",
                                  "--seed", "9"])
    assert code == 2 and out == ""
    msg = json.loads(err)
    assert msg["code"] == "validation_error"
    assert msg["message"] == ("too few sphere points intersect the state "
                              f"space: {kept} of 5000 draws kept, 10 needed")


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


def test_every_plan_step_round_trips_through_json():
    """Each PlanStep class is written under its kind and read back equal."""
    steps = [ApplyUnitary(np.array([[0, 1], [1, 0]], dtype=complex)),
             AmplitudeDamp(1, 0.25), Transposition(0, 3)]
    assert {type(step) for step in steps} == set(typing.get_args(PlanStep))
    for step in steps:
        obj = json.loads(json.dumps(ser.step_to_json(step)))
        assert obj["kind"] == step.kind
        back = ser.step_from_json(obj)
        assert type(back) is type(step)
        for name in step.__dataclass_fields__:
            assert np.array_equal(getattr(back, name), getattr(step, name))


def test_bilinear_lindbladian_and_derivs_round_trip_through_json(rng):
    """A bilinear term and a path's derivatives are written and read back
    bit for bit."""
    L = Lindbladian(2, hermitize(random_complex(rng, 2)),
                    jumps=[JumpTerm(LOWER, 0.5)],
                    bilinear=BilinearTerm((LOWER, dag(LOWER)),
                                          np.array([[1.0, 0.5], [0.5, 1.0]])))
    back = ser.lindbladian_from_json(json.loads(json.dumps(
        ser.lindbladian_to_json(L))))
    assert back.bilinear is not None
    assert np.array_equal(back.bilinear.ops, L.bilinear.ops)
    assert np.array_equal(back.bilinear.kossakowski, L.bilinear.kossakowski)
    assert np.array_equal(back.superop, L.superop)
    states = [np.eye(2) / 2, np.diag([0.6, 0.4]), np.diag([0.7, 0.3])]
    path = PathSample([0.0, 1.0, 2.0], states, [random_complex(rng, 2)
                                                for _ in states])
    back = ser.path_sample_from_json(json.loads(json.dumps(
        ser.path_sample_to_json(path))))
    assert back.derivs is not None
    assert np.array_equal(back.times, path.times)
    assert np.array_equal(back.states, path.states)
    assert np.array_equal(back.derivs, path.derivs)


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


def _parse_outcome(capsys, parse, argv):
    """parse(argv)'s namespace, or the code it exits with, and what it
    printed."""
    try:
        result = vars(parse(list(argv)))
    except SystemExit as exc:
        result = exc.code
    captured = capsys.readouterr()
    return result, captured.out, captured.err


PLAN_ARGV = ["plan", "--k", "1", "--lambda", "1,0", "--mu", "0,1"]


@pytest.mark.parametrize("argv", [
    PLAN_ARGV,
    ["run-plan", "--help"],
    ["run-plan", "--plan", "plan.json"],
    ["simulate", "--lindblad", "L.json", "--rho", "rho.json", "--t", "abc"],
    PLAN_ARGV + ["--bogus"],
    ["plan", "--k", "1", "--lam", "1,0", "--mu", "0,1", "--norm"],
    ["frobnicate"],
    [],
    ["--out", "out.json"] + PLAN_ARGV,
], ids=["valid", "help", "missing-required", "float-not-a-number",
        "unknown-flag", "abbreviated", "unknown-command", "empty",
        "out-before-command"])
def test_command_parser_matches_full_parser(capsys, argv):
    """A command's own parser reads argv as the full parser does, and main
    exits and prints as the full parser does when parsing stops it."""
    full = _parse_outcome(capsys, build_parser().parse_args, argv)
    assert _parse_outcome(capsys, cli._parse, argv) == full
    result, out, err = full
    if isinstance(result, dict):
        assert result["func"] is cli._cmd_plan
    else:
        assert run(capsys, argv) == (0 if result in (0, None) else 2, out, err)


def test_python_m_lindreach_help():
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "lindreach", "--help"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0 and proc.stdout.startswith("usage: lindreach")


README = Path(__file__).resolve().parent.parent / "README.md"


def _command_options() -> dict[str, set[str]]:
    """Every subcommand's option strings, --help left out."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {name: {o for a in p._actions for o in a.option_strings} - {"-h", "--help"}
            for name, p in sub.choices.items()}


def _readme_mismatches(text: str, options: dict[str, set[str]]) -> list[str]:
    """Options the text never names, and --flags on a `lindreach <command>`
    line (continuations joined) that the command does not take."""
    undocumented = sorted(f"{name} {o} is undocumented"
                          for name, opts in options.items() for o in opts
                          if not re.search(re.escape(o) + r"(?![\w-])", text))
    unknown = []
    for line in re.sub(r"\s*\\\n\s*", " ", text).splitlines():
        if line.startswith("lindreach "):
            _, cmd, *words = line.split()
            unknown += [f"{cmd} {w} is not an option" for w in words
                        if w.startswith("--") and w not in options.get(cmd, ())]
    return undocumented + unknown


def test_readme_and_parser_name_the_same_options():
    """Every option of every subcommand appears in README.md, and every
    --flag on a README command line is an option of that command."""
    assert _readme_mismatches(README.read_text(), _command_options()) == []


def test_readme_mismatches_are_reported():
    text = "Use `--seed`.\n\nlindreach porcupine --K K.json \\\n    --max-depth 4\n"
    options = {"porcupine": {"--K", "--seed", "--epsilon"}}
    assert _readme_mismatches(text, options) == [
        "porcupine --epsilon is undocumented",
        "porcupine --max-depth is not an option"]


def _serialize_fields(source: str) -> set[str]:
    """The JSON field names a serialize source reads or writes: the name
    argument of _field, _value and _positive, the string key of a .get
    call, a subscript or an `in` test, and the string keys of a dict
    literal."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        keys = []
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in ("_field", "_value", "_positive"):
                keys = node.args[1:2]
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr == "get":
                keys = node.args[:1]
        elif isinstance(node, ast.Subscript):
            keys = [node.slice]
        elif isinstance(node, ast.Compare) and isinstance(node.ops[0], ast.In):
            keys = [node.left]
        elif isinstance(node, ast.Dict):
            keys = node.keys
        names |= {k.value for k in keys
                  if isinstance(k, ast.Constant) and isinstance(k.value, str)}
    return names


def _readme_fields(text: str) -> set[str]:
    """The JSON keys ("name": ...) of README's File formats section."""
    section = text.split("## File formats", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r'"(\w+)":', section))


def test_readme_file_formats_name_the_fields_serialize_reads():
    """The keys README's File formats section shows are the JSON field
    names serialize reads or writes, no more and no fewer: a field the
    decoder stops reading must leave the README, and one it starts reading
    must enter it. (counts is the one field that is written and not read.)"""
    fields = _serialize_fields(Path(ser.__file__).read_text())
    assert {"dim", "entries", "max_total_rate", "counts"} <= fields
    assert _readme_fields(README.read_text()) == fields


def test_serialize_field_extraction():
    source = ('_field(o, "a", int)\n_positive(o, "b")\no.get("c")\n'
              'o["d"]\n"e" in o\n{"f": 1, g: 2}\nh(o, "i")\no.get(name)\n')
    assert _serialize_fields(source) == {"a", "b", "c", "d", "e", "f"}
    assert _readme_fields('"x": 1\n## File formats\n{"y": [1], "z":\n2}\n'
                          '"w" alone\n## Testing\n"v": 3\n') == {"y", "z"}


@pytest.mark.parametrize("was_enabled", [True, False])
@pytest.mark.parametrize("case, expected", [
    ("valid", 0), ("schema-error", 2), ("command-raises", 1), ("help", 0),
    ("unknown-flag", 2)])
def test_main_restores_the_callers_gc_state(files, capsys, tmp_path,
                                            monkeypatch, was_enabled, case,
                                            expected):
    """A command runs with the cyclic GC paused, and main returns the
    collector in the state it found it, whatever the way out."""
    simulate = ["simulate", "--lindblad", files["L"], "--rho", files["rho"],
                "--t", "1"]
    seen = []

    def propagate(*args):
        seen.append(gc.isenabled())
        raise RuntimeError("boom")

    if case == "command-raises":
        monkeypatch.setattr(cli, "propagate", propagate)
    argv = {"valid": simulate,
            "schema-error": simulate[:4] + [write(tmp_path, "bad.json",
                                                  {"dim": 2})] + simulate[5:],
            "command-raises": simulate,
            "help": ["simulate", "--help"],
            "unknown-flag": simulate + ["--frobnicate"]}[case]
    enabled = gc.isenabled()
    try:
        gc.enable() if was_enabled else gc.disable()
        code = main(argv)
        assert gc.isenabled() is was_enabled
    finally:
        gc.enable() if enabled else gc.disable()
    capsys.readouterr()
    assert code == expected
    assert seen == ([False] if case == "command-raises" else [])


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
    # 10^20 steps: refused before the first one
    ("reach", ["--dt", "1e-320", "--t-max", "1e-300"],
     "dt = 1e-320, t_max = 1e-300"),
    # 568 PiB of draws, more than any address space holds, so the
    # allocation fails at once whatever the system's overcommit policy
    ("porcupine", ["--n-samples", str(10 ** 16)],
     "out of memory: Unable to allocate"),
], ids=["t-max-nan", "t-max-inf", "dt-nan", "dt-zero", "target-tol-nan",
        "target-tol-negative", "rho-dim", "sigma-dim", "epsilon-nan",
        "epsilon-inf", "porcupine-sigma-dim", "dt-overflow", "too-many-steps",
        "out-of-memory"])
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
    (["plan", "--k", "-1", "--lambda", "1", "--mu", "1"], "k"),
    (["plan", "--k", "0", "--lambda", "1", "--mu", "1"], "k"),
    (["porcupine", "--K", "K", "--sigma", "sigma", "--epsilon", "0.05",
      "--seed", "-3"], "seed"),
], ids=["tol-negative", "tol-inf", "tol-nan", "simulate-t-nan",
        "simulate-t-inf", "simulate-t-negative", "simulate-t-overflow",
        "dilate-t-nan", "dilate-t-inf", "dilate-t-overflow", "dilate-n-word", "dilate-n-float",
        "dilate-n-1e400", "dilate-n-zero", "porcupine-p-nan",
        "porcupine-p-inf", "reach-p-nan", "plan-k-negative", "plan-k-zero",
        "porcupine-seed-negative"])
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
    ("plan", ["--lambda", "2,-1", "--mu", "1,1", "--normalize"],
     "--lambda entry '-1' is negative"),
    ("plan", ["--lambda", "0.5,0.5", "--mu", "1.5,-0.5"],
     "--mu entry '-0.5' is negative"),
    ("plan", ["--lambda", "0.25,0.25,0.25,0.25", "--mu", "0.5,0.5"],
     "--lambda has 4 entries, not 2^k = 2"),
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
    ("--lindblad", {"dim": 2, "jumps": [
        {"a": ser.matrix_to_json(LOWER), "rate": "0.5"},
        {"a": {"dim": 2, "entries": [[True, 0]] * 4}, "rate": 1.0}]}, "'rate'"),
    ("--lindblad", {"dim": 2, "jumps": [
        {"a": {"dim": 2, "entries": [[0, 0]] * 3}, "rate": 1.0},
        {"a": ser.matrix_to_json(LOWER), "rate": "0.5"}]}, "4 entries"),
    ("--lindblad", {"dim": 2, "jumps": [
        {"a": ser.matrix_to_json(LOWER), "rate": 1.0},
        {"a": ser.matrix_to_json(np.eye(3)), "rate": 1.0}]},
     "jump operator dimension mismatch"),
    ("--lindblad", {"dim": 2, "jumps": [
        {"a": ser.matrix_to_json(np.eye(3)), "rate": 1.0}] * 2},
     "jump operator dimension mismatch"),
    ("--path", {"times": [0, 1, 2], "states": [MATRIX_3, MATRIX_2, MATRIX_2]},
     "ragged"),
    ("--resources", {"dim": 2, "elements": [MATRIX_2, MATRIX_3]},
     "resource element dimension mismatch"),
    ("--resources", {"dim": 2, "elements": [MATRIX_3, MATRIX_3]},
     "resource element dimension mismatch"),
    ("--rho", {"dim": 2, "entries": [[2 ** 64, 0], [0, 0], [0, 0], [0, 0]]},
     "[re, im] number pairs"),
    ("--lindblad", {"dim": 2, "jumps": [{"a": ser.matrix_to_json(LOWER),
                                         "rate": -1.0}]}, "jump rate -1.0"),
    ("--lindblad", {"dim": 2, "hamiltonian": MATRIX_3},
     "Hamiltonian dimension mismatch"),
    ("--lindblad", {"dim": 2, "hamiltonian": ser.matrix_to_json(LOWER)},
     "Hamiltonian must be Hermitian"),
    ("--K", {"generators": []}, "generators must be nonempty"),
    ("--K", {"generators": [
        ser.lindbladian_to_json(Lindbladian(2)),
        ser.lindbladian_to_json(Lindbladian(3))]},
     "generators must share a dimension"),
    ("--path", {"times": [0, 1], "states": [MATRIX_2] * 3},
     "times and states length mismatch"),
    ("--path", {"times": [0, 1], "states": [MATRIX_2] * 2},
     "need at least three samples"),
    ("--resources", {"dim": 2, "elements": []}, "elements must be nonempty"),
], ids=["entries-null", "entries-not-list", "entries-strings",
        "entries-null-pair", "entries-ragged", "rate-nan", "rate-inf",
        "kossakowski-not-hermitian", "kossakowski-wrong-size",
        "bilinear-op-wrong-dim",
        "step-dephase", "register-out-of-range", "index-out-of-range",
        "index-negative", "mu-nan", "lambda-nan", "normalize-zero-sum",
        "normalize-cancelling-sum", "normalize-nan", "lambda-not-a-number",
        "mu-empty", "mu-empty-entry", "lambda-negative-normalized",
        "mu-negative", "lambda-wrong-length", "dim-1e400", "dim-float",
        "dim-bool", "k-1e400", "k-float", "step-not-object", "i-float",
        "j-bool", "register-float", "retention-string", "rate-string",
        "jump-not-object", "max-rate-string",
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
        "unitary-wrong-dim", "derivs-not-tangent",
        "jump-0-rate-before-jump-1-matrix", "jump-0-matrix-before-jump-1-rate",
        "jump-other-dim", "jumps-all-other-dim", "states-ragged-first",
        "elements-mixed-dim", "elements-all-other-dim", "entries-int-2**64",
        "rate-negative", "hamiltonian-wrong-dim", "hamiltonian-not-hermitian",
        "generators-empty", "generators-mixed-dim", "times-states-mismatch",
        "path-two-samples", "elements-empty"])
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
                "--resources": ["check-hormander", "--resources", None],
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
        K = {"generators": [_lindbladian(rng, d)], "max_total_rate": 1.0}
        return ({"--K": K, "--sigma": _matrix(rng, d, density=True)},
                {"--epsilon": "0.05", "--n-samples": "20"})
    if command == "reach":
        K = {"generators": [_lindbladian(rng, d)
                            for _ in range(rng.integers(1, 3))],
             "max_total_rate": 1.0}
        return ({"--K": K, "--rho": _matrix(rng, d, density=True),
                 "--sigma": _matrix(rng, d, density=True)},
                {"--dt": "0.1", "--t-max": "1"})
    if command == "check-hormander":
        return ({"--resources": {"dim": d, "elements": [
            _matrix(rng, d) for _ in range(rng.integers(1, 4))]}}, {})
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
                                "lift-path", "run-plan", "reach",
                                "check-hormander"]),
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
