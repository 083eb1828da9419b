"""Exit codes, file handling, and report output of the command line."""

import io
import json

import numpy as np
import pytest

from trisect import cli, linalg
from trisect.cli import EXIT_NONUNITARY, EXIT_OK, EXIT_PARSE, EXIT_VERIFY, main
from trisect.linalg import haar_unitary


def _run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def _matrix_file(tmp_path, name, m, n):
    entries = [[float(z.real), float(z.imag)] for z in np.asarray(m).ravel()]
    path = tmp_path / name
    path.write_text(json.dumps({"qutrits": n, "dim": m.shape[0], "matrix": entries}))
    return str(path)


# ---------------------------------------------------------------------------
# top level
# ---------------------------------------------------------------------------


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "trisect" in capsys.readouterr().out


def test_subcommand_required():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# random
# ---------------------------------------------------------------------------


def test_random_writes_valid_matrix_file(tmp_path, capsys):
    out = tmp_path / "m.json"
    code, _, _ = _run(capsys, "random", "2", "-o", str(out), "--seed", "7")
    assert code == EXIT_OK
    data = json.loads(out.read_text())
    assert data["qutrits"] == 2 and data["dim"] == 9
    assert len(data["matrix"]) == 81


def test_random_is_seed_deterministic(tmp_path, capsys):
    a, b, c = (tmp_path / f"{k}.json" for k in "abc")
    _run(capsys, "random", "1", "-o", str(a), "--seed", "3")
    _run(capsys, "random", "1", "-o", str(b), "--seed", "3")
    _run(capsys, "random", "1", "-o", str(c), "--seed", "4")
    assert a.read_text() == b.read_text()
    assert a.read_text() != c.read_text()


def test_random_defaults_to_stdout(capsys):
    code, out, _ = _run(capsys, "random", "1")
    assert code == EXIT_OK
    assert json.loads(out)["dim"] == 3


@pytest.mark.parametrize("width", [6, 7])
def test_random_accepts_widths_up_to_7(width):
    # parsed only: an n=7 matrix file holds 2187^2 entries
    assert cli.build_parser().parse_args(["random", str(width)]).qutrits == width


@pytest.mark.parametrize("width", ["0", "8"])
def test_random_rejects_widths_outside_1_to_7(capsys, width):
    with pytest.raises(SystemExit) as exc:
        main(["random", width])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# synth + verify round trip
# ---------------------------------------------------------------------------


def test_round_trip(tmp_path, capsys):
    mat = tmp_path / "m.json"
    circ = tmp_path / "c.txt"
    assert _run(capsys, "random", "2", "-o", str(mat))[0] == EXIT_OK

    code, _, err = _run(capsys, "synth", str(mat), "-o", str(circ))
    assert code == EXIT_OK
    assert "two-qutrit gates" in err

    code, out, _ = _run(capsys, "verify", str(circ), str(mat))
    assert code == EXIT_OK
    assert "ok" in out and "21 two-qutrit" in out


def test_synth_reads_stdin_writes_stdout(capsys, monkeypatch):
    m = haar_unitary(9, np.random.default_rng(1))
    entries = [[float(z.real), float(z.imag)] for z in m.ravel()]
    monkeypatch.setattr(
        "sys.stdin",
        io.StringIO(json.dumps({"qutrits": 2, "dim": 9, "matrix": entries})),
    )
    code, out, _ = _run(capsys, "synth", "-")
    assert code == EXIT_OK
    assert out.startswith("QUTRITS 2")


def test_synth_gcx_only_avoids_cinc(tmp_path, capsys):
    mat = _matrix_file(tmp_path, "m.json", haar_unitary(9, np.random.default_rng(2)), 2)
    code, out, err = _run(capsys, "synth", mat, "--gate-set", "gcx")
    assert code == EXIT_OK
    assert "CINC" not in out
    assert "two-qutrit gates: 25" in err


def test_synth_report_file(tmp_path, capsys):
    mat = _matrix_file(tmp_path, "m.json", haar_unitary(9, np.random.default_rng(3)), 2)
    report = tmp_path / "r.json"
    circ = tmp_path / "c.txt"
    code, _, _ = _run(capsys, "synth", mat, "-o", str(circ), "--report", str(report))
    assert code == EXIT_OK
    data = json.loads(report.read_text())
    assert data["qutrits"] == 2
    assert data["two_qutrit_count"] == 21
    assert data["distance"] < 1e-8


def test_synth_report_to_stdout(tmp_path, capsys):
    mat = _matrix_file(tmp_path, "m.json", np.eye(3, dtype=complex), 1)
    code, out, _ = _run(capsys, "synth", mat, "-o", str(tmp_path / "c.txt"), "--report", "-")
    assert code == EXIT_OK
    assert json.loads(out)["qutrits"] == 1


@pytest.mark.parametrize("circuit_to", [[], ["-o", "-"]], ids=["no-o", "o-stdout"])
def test_synth_refuses_circuit_and_report_both_on_stdout(tmp_path, capsys, monkeypatch, circuit_to):
    # the two texts would share one stream, and neither could be read back
    calls = []
    monkeypatch.setattr(cli, "synthesize", lambda *a, **k: calls.append(a))
    mat = _matrix_file(tmp_path, "m.json", np.eye(3, dtype=complex), 1)
    code, out, err = _run(capsys, "synth", mat, *circuit_to, "--report", "-")
    assert code == EXIT_PARSE
    assert "both go to stdout" in err
    assert out == "" and calls == []


@pytest.mark.parametrize("spelling", ["same-name", "dot-dot", "hard-link"])
def test_synth_refuses_circuit_and_report_in_one_file(tmp_path, capsys, monkeypatch, spelling):
    # the report would overwrite the circuit; refused before synthesis, and before any file is made
    calls = []
    monkeypatch.setattr(cli, "synthesize", lambda *a, **k: calls.append(a))
    mat = _matrix_file(tmp_path, "m.json", np.eye(3, dtype=complex), 1)
    out = tmp_path / "out.txt"
    circuit_to = {"same-name": out, "dot-dot": tmp_path / "x" / ".." / "out.txt", "hard-link": tmp_path / "link.txt"}
    (tmp_path / "x").mkdir()
    if spelling == "hard-link":
        out.write_text("keep\n")
        (tmp_path / "link.txt").hardlink_to(out)
    code, out_text, err = _run(capsys, "synth", mat, "-o", str(circuit_to[spelling]), "--report", str(out))
    assert code == EXIT_PARSE
    assert f"cannot both go to {out}" in err
    assert out_text == "" and calls == []
    assert out.read_text() == "keep\n" if spelling == "hard-link" else not out.exists()


@pytest.mark.parametrize("where", ["directory", "missing-parent"])
@pytest.mark.parametrize("command", ["random -o", "synth -o", "synth --report"])
def test_unwritable_output_exits_2(tmp_path, capsys, command, where):
    if where == "directory":
        bad, reason = tmp_path / "a-directory", "is a directory"
        bad.mkdir()
    else:
        bad, reason = tmp_path / "no-such-dir" / "out.txt", "no such file or directory"
    mat = _matrix_file(tmp_path, "m.json", np.eye(3, dtype=complex), 1)
    name, flag = command.split()
    argv = [name, "1"] if name == "random" else [name, mat]
    code, _, err = _run(capsys, *argv, flag, str(bad))
    assert code == EXIT_PARSE
    assert f"cannot write {bad}: {reason}" in err


@pytest.mark.parametrize("bad_flag", ["-o", "--report"])
@pytest.mark.parametrize("circuit_file", ["new", "existing"])
def test_synth_checks_outputs_before_synthesis(tmp_path, capsys, monkeypatch, bad_flag, circuit_file):
    # an unwritable output fails before any synthesis work and changes no file
    calls = []
    synthesize = cli.synthesize
    monkeypatch.setattr(cli, "synthesize", lambda *a, **k: calls.append(a) or synthesize(*a, **k))
    mat = _matrix_file(tmp_path, "m.json", np.eye(3, dtype=complex), 1)
    bad, circ, report = tmp_path / "no-such-dir" / "out.txt", tmp_path / "c.txt", tmp_path / "r.json"
    if circuit_file == "existing":
        circ.write_text("keep\n")
    outputs = {"-o": circ, "--report": report, bad_flag: bad}
    code, _, err = _run(capsys, "synth", mat, *(str(x) for kv in outputs.items() for x in kv))
    assert code == EXIT_PARSE
    assert f"cannot write {bad}: no such file or directory" in err
    assert calls == []
    assert not report.exists()
    if circuit_file == "existing":
        assert circ.read_text() == "keep\n"
    else:
        assert not circ.exists()


def test_synth_missing_file(capsys):
    code, _, err = _run(capsys, "synth", "/nonexistent/m.json")
    assert code == EXIT_PARSE
    assert "no such file" in err


def test_synth_rejects_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("this is not json")
    code, _, err = _run(capsys, "synth", str(path))
    assert code == EXIT_PARSE
    assert "cannot read matrix file" in err


def test_synth_rejects_dimension_mismatch(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"qutrits": 2, "dim": 8, "matrix": []}))
    code, _, err = _run(capsys, "synth", str(path))
    assert code == EXIT_PARSE
    assert "does not match 3^qutrits" in err


@pytest.mark.parametrize(
    "qutrits, dim",
    [(None, 9), ([2], 9), (2.5, 9), (True, 3), (2, 9.0)],
    ids=["null", "list", "float", "bool", "float-dim"],
)
def test_synth_rejects_non_integer_sizes(tmp_path, capsys, qutrits, dim):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"qutrits": qutrits, "dim": dim, "matrix": [[1.0, 0.0]] * 81}))
    code, _, err = _run(capsys, "synth", str(path))
    assert code == EXIT_PARSE
    assert "must be JSON integers" in err


def test_synth_rejects_wrong_entry_count(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"qutrits": 1, "dim": 3, "matrix": [[1.0, 0.0]] * 4}))
    code, _, err = _run(capsys, "synth", str(path))
    assert code == EXIT_PARSE
    assert "[re, im]" in err


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")], ids=["nan", "inf", "-inf"])
def test_non_finite_entries_are_rejected(tmp_path, capsys, bad):
    # Python's json writes and reads NaN/Infinity; every command must refuse them
    m = np.eye(9, dtype=complex)
    m[4, 4] = complex(bad, 0.0)
    mat = _matrix_file(tmp_path, "m.json", m, 2)
    assert ("NaN" if np.isnan(bad) else "Infinity") in (tmp_path / "m.json").read_text()
    circ = tmp_path / "c.txt"
    circ.write_text("QUTRITS 2\n")
    for argv in (["synth", mat], ["synth", mat, "--sanitize"], ["verify", str(circ), mat]):
        code, _, err = _run(capsys, *argv)
        assert code == EXIT_PARSE, argv
        assert "must be finite" in err, argv


def test_synth_non_unitary_needs_sanitize(tmp_path, capsys):
    mat = _matrix_file(tmp_path, "m.json", 2.0 * np.eye(3, dtype=complex), 1)
    code, _, err = _run(capsys, "synth", mat)
    assert code == EXIT_NONUNITARY
    assert "not unitary" in err and "--sanitize" in err

    code, _, err = _run(capsys, "synth", mat, "--sanitize")
    assert code == EXIT_OK
    assert "sanitized input" in err


def test_synth_unreachable_tolerance(tmp_path, capsys):
    # any floating-point synthesis sits above 1e-16, so verification trips
    mat = _matrix_file(tmp_path, "m.json", haar_unitary(9, np.random.default_rng(4)), 2)
    code, _, err = _run(capsys, "synth", mat, "--tolerance", "1e-16")
    assert code == EXIT_VERIFY
    assert "verification failed" in err


def test_verify_reports_parse_error_with_line(tmp_path, capsys):
    circ = tmp_path / "c.txt"
    circ.write_text("QUTRITS 2\nR z 01 q0 not-a-number\n")
    mat = _matrix_file(tmp_path, "m.json", np.eye(9, dtype=complex), 2)
    code, _, err = _run(capsys, "verify", str(circ), mat)
    assert code == EXIT_PARSE
    assert "line 2" in err


def test_verify_refuses_stdin_for_both_inputs(capsys, monkeypatch):
    stdin = io.StringIO("QUTRITS 1\n")
    monkeypatch.setattr("sys.stdin", stdin)
    code, _, err = _run(capsys, "verify", "-", "-")
    assert code == EXIT_PARSE
    assert "stdin can supply only one of the circuit and the matrix" in err
    assert stdin.tell() == 0  # refused before reading anything


def test_verify_missing_circuit_file(tmp_path, capsys):
    mat = _matrix_file(tmp_path, "m.json", np.eye(3, dtype=complex), 1)
    code, _, err = _run(capsys, "verify", "/nonexistent/c.txt", mat)
    assert code == EXIT_PARSE
    assert "no such file" in err


def _unreadable(tmp_path, kind):
    if kind == "directory":
        path = tmp_path / "a-directory"
        path.mkdir()
    else:
        path = tmp_path / "binary"
        path.write_bytes(b"\xff\xfe\x00QUTRITS")
    return str(path)


@pytest.mark.parametrize("kind", ["directory", "non-utf8"])
def test_unreadable_input_exits_2(tmp_path, capsys, kind):
    bad = _unreadable(tmp_path, kind)
    mat = _matrix_file(tmp_path, "m.json", np.eye(3, dtype=complex), 1)
    circ = tmp_path / "c.txt"
    circ.write_text("QUTRITS 1\n")
    for argv in (["synth", bad], ["verify", bad, mat], ["verify", str(circ), bad]):
        code, _, err = _run(capsys, *argv)
        assert code == EXIT_PARSE, argv
        assert f"cannot read {bad}" in err, argv


@pytest.mark.parametrize("value", ["nan", "0", "-1", "inf", "-inf", "tiny"])
@pytest.mark.parametrize("command", ["synth", "verify"])
def test_tolerance_must_be_finite_and_positive(tmp_path, capsys, command, value):
    mat = _matrix_file(tmp_path, "m.json", np.eye(3, dtype=complex), 1)
    circ = tmp_path / "c.txt"
    circ.write_text("QUTRITS 1\n")
    files = [mat] if command == "synth" else [str(circ), mat]
    with pytest.raises(SystemExit) as exc:
        main([command, *files, f"--tolerance={value}"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "must be a finite positive number" in err or "invalid float value" in err


def test_verify_width_mismatch(tmp_path, capsys):
    circ = tmp_path / "c.txt"
    circ.write_text("QUTRITS 1\n")
    mat = _matrix_file(tmp_path, "m.json", np.eye(9, dtype=complex), 2)
    code, _, err = _run(capsys, "verify", str(circ), mat)
    assert code == EXIT_PARSE
    assert "circuit is on 1 qutrits" in err


def test_verify_detects_tampering(tmp_path, capsys):
    mat = tmp_path / "m.json"
    circ = tmp_path / "c.txt"
    _run(capsys, "random", "2", "-o", str(mat))
    _run(capsys, "synth", str(mat), "-o", str(circ))
    circ.write_text(circ.read_text() + "R z 01 q0 0.5\n")
    code, out, _ = _run(capsys, "verify", str(circ), str(mat))
    assert code == EXIT_VERIFY
    assert "FAIL" in out


# ---------------------------------------------------------------------------
# counts
# ---------------------------------------------------------------------------


def test_counts_table_and_cited_flag(capsys):
    code, out, _ = _run(capsys, "counts")
    assert code == EXIT_OK
    assert "217 (!)" in out
    assert "previously reported total differs from the closed-form count" in out
    for total in ("25", "315", "3094", "21", "271", "2686"):
        assert total in out


def test_counts_operator_table(capsys):
    code, out, _ = _run(capsys, "counts", "--operators", "--n-max", "3")
    assert code == EXIT_OK
    assert "x01" in out and "dbar" in out
    # n=3 row in the default gcx+cinc gate set
    assert any(
        line.split() == ["3", "8", "8", "10", "12", "12"] for line in out.splitlines()
    )


def test_counts_measures_operators_once_per_width(capsys, monkeypatch):
    calls = []
    measured = cli.measured_operator_counts
    monkeypatch.setattr(cli, "measured_operator_counts", lambda n, *a, **k: calls.append(n) or measured(n, *a, **k))
    code, out, _ = _run(capsys, "counts", "--operators", "--measured", "--n-max", "3")
    assert code == EXIT_OK
    assert calls == [2, 3]
    assert out.count("(measured)") == 2


def test_counts_measured(capsys):
    code, out, _ = _run(capsys, "counts", "--measured", "--n-max", "2")
    assert code == EXIT_OK
    assert "measured n=2" in out
    assert "FAIL" not in out


# ---------------------------------------------------------------------------
# selftest
# ---------------------------------------------------------------------------


def test_selftest_passes(capsys):
    code, out, _ = _run(capsys, "selftest")
    assert code == EXIT_OK
    assert "all checks passed" in out
    assert "FAIL" not in out


def test_selftest_compares_stacked_factorize(capsys):
    code, out, _ = _run(capsys, "selftest")
    assert code == EXIT_OK
    rows = [line for line in out.splitlines() if "stacked factorize equals per-matrix" in line]
    assert len(rows) == 2 and "(d=9)" in rows[0] and "(d=27)" in rows[1]
    assert all("[ok]" in row for row in rows)


@pytest.mark.parametrize(
    "argv",
    [
        ["selftest", "--seed", "-1"],
        ["random", "1", "--seed", "-1"],
        ["counts", "--seed", "-3"],
        ["counts", "--n-max", "1"],
        ["counts", "--n-max", "0"],
        ["random", "1", "--seed", "x"],
    ],
    ids=[
        "selftest-seed", "random-seed", "counts-seed", "n-max-1", "n-max-0", "not-int",
    ],
)
def test_out_of_range_options_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "must be at least" in err or "invalid int value" in err


def test_selftest_catches_a_faulty_cosine_sine_kernel(capsys, monkeypatch):
    original = linalg._zuncsd

    def shifted(*args, **kwargs):  # every principal angle off by 1e-3
        *head, theta, u1, u2, v1t, v2t, info = original(*args, **kwargs)
        return (*head, theta + 1e-3, u1, u2, v1t, v2t, info)

    monkeypatch.setattr(linalg, "_zuncsd", shifted)
    code, out, _ = _run(capsys, "selftest")
    assert code == EXIT_VERIFY
    rows = [line for line in out.splitlines() if "cosine-sine split" in line]
    assert len(rows) == 6
    assert all("[FAIL]" in row for row in rows)


def test_selftest_status_column_is_aligned(capsys, monkeypatch):
    monkeypatch.setattr(
        cli, "_identity_checks", lambda: [("passing check", 0.0, 1.0), ("failing check", 2.0, 1.0)]
    )
    code, out, _ = _run(capsys, "selftest")
    assert code == EXIT_VERIFY
    passing = next(line for line in out.splitlines() if "passing check" in line)
    failing = next(line for line in out.splitlines() if "failing check" in line)
    assert "[ok]" in passing and "[FAIL]" in failing
    # every row, the factorization ones included
    rows = [line for line in out.splitlines() if line.lstrip().startswith(("[ok]", "[FAIL]"))]
    assert len(rows) == 2 + 12
    assert {line.rindex("residual") for line in rows} == {passing.index("residual")}


def test_check_line_rows_pass_within_their_tolerance(capsys, monkeypatch):
    assert cli.check_line("exact", 0.0, 0.0).startswith("[ok]")
    assert cli.check_line("loose", 5e-11, 1e-10).startswith("[ok]")
    for bad in (1e-300, float("nan")):
        assert cli.check_line("strict", bad, 0.0).startswith("[FAIL]")
    # one column layout for every row, whatever the name's length
    assert len({cli.check_line(name, 0.0, 0.0).index("residual") for name in ("a", "a much longer name")}) == 1
    # a NaN residual fails the run too
    monkeypatch.setattr(cli, "_identity_checks", lambda: [("not a number", float("nan"), 1.0)])
    assert _run(capsys, "selftest")[0] == EXIT_VERIFY
