import argparse
import json
import subprocess
import sys

import numpy as np
import pytest
import jsonschema

import mub6
from mub6 import SQRT6, matrix_to_json
from mub6.cli import build_parser, main

PI = np.pi


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def validate(schemas, name, text):
    jsonschema.validate(json.loads(text), schemas[name])


def assert_usage_error(result, argv):
    """Exit 1, no stdout, and stderr opens with the usage line of argv's
    subcommand and ends with an error line that names it."""
    command = " ".join(argv[:2] if argv[0] == "families" else argv[:1])
    code, out, err = result
    assert (code, out) == (1, "")
    lines = err.splitlines()
    assert lines[0].startswith(f"usage: mub6 {command} ")
    assert lines[-1].startswith(f"mub6 {command}: error:")


# ---------------------------------------------------------------- exit codes

def test_usage_error_exits_1(capsys):
    code, _, err = run(capsys, "nonsense")
    assert code == 1
    assert "error" in err


def test_missing_required_flag_exits_1(capsys):
    code, _, err = run(capsys, "families", "show")
    assert code == 1


def test_domain_error_exits_1(capsys):
    code, _, err = run(capsys, "families", "show", "--family", "m6", "--t", 0.4 * PI)
    assert code == 1
    assert "error" in err


def test_t_and_t_deg_conflict(capsys):
    code, out, err = run(capsys, "refute", "--t", PI, "--t-deg", 180)
    assert code == 1
    assert_usage_error((code, out, err), ["refute"])


@pytest.mark.parametrize("argv", [
    ["refute", "--json"],
    ["families", "show", "--family", "m6"],
    ["families", "show", "--family", "b6"],
    ["scan", "--family", "m6", "--t-from", "1", "--t-to", "2", "--steps", "0", "--out", "{out}"],
    ["scan", "--family", "m6", "--t-from", "1", "--t-to", "2", "--steps", str(10**19),
     "--out", "{out}"],
], ids=["refute-no-t", "show-m6-no-t", "show-b6-no-theta", "scan-zero-steps",
        "scan-unaddressable-steps"])
def test_usage_errors_name_the_subcommand(capsys, tmp_path, argv):
    """A rule a handler enforces after parsing is reported like one argparse
    enforces: with the usage line of the subcommand that broke it."""
    out = tmp_path / "scan.csv"
    assert_usage_error(run(capsys, *(a.format(out=out) for a in argv)), argv)
    assert not out.exists()


def test_parse_error_exits_3(capsys, tmp_path):
    """Malformed files, non-UTF-8 bytes and JSON nested past the recursion
    limit included, end in one error line and exit 3, not a traceback."""
    ones = [[[1, 0]] * 6] * 6
    p = tmp_path / "bad.json"
    for content in [b"{ not json", b"\xff\xfe{}", b"[" * 200000,
                    json.dumps({"label": "", "matrix": [[[True, False]] * 6] * 6}).encode(),
                    json.dumps({"label": 0, "matrix": ones}).encode(),
                    json.dumps({"matrix": ones}).encode(),
                    json.dumps({"label": None, "matrix": ones}).encode(),
                    json.dumps({"label": "", "matrix": ones, "extra": 1}).encode()]:
        p.write_bytes(content)
        for command in ("check", "normalize", "analyze"):
            code, out, err = run(capsys, command, "--in", p)
            assert (code, out) == (3, "")
            assert len(err.splitlines()) == 1 and err.startswith("mub6: error:")


def test_missing_file_exits_3(capsys, tmp_path):
    code, _, err = run(capsys, "check", "--in", tmp_path / "absent.json")
    assert code == 3


def test_check_rejects_non_hadamard_with_exit_2(capsys, tmp_path):
    p = tmp_path / "eye.json"
    ident = mub6.CMat6(np.eye(6, dtype=complex), label="identity")
    p.write_text(matrix_to_json(ident))
    code, out, _ = run(capsys, "check", "--in", p, "--json")
    assert code == 2
    rep = json.loads(out)
    assert rep["is_hadamard"] is False
    assert rep["unitary_ok"] is True
    assert rep["unimodular_ok"] is False


def test_check_modulus_and_hadamard_verdicts_agree(capsys, tmp_path):
    """An F6 entry off the 1/sqrt(6) modulus by a relative 2e-9 fails the
    unimodularity test at eq_tol = 1e-9, so it cannot be Hadamard."""
    A = mub6.fourier_f6().entries.copy()
    A[2, 3] *= 1 + 2e-9
    p = tmp_path / "off.json"
    p.write_text(matrix_to_json(A))
    code, out, _ = run(capsys, "check", "--in", p, "--json")
    rep = json.loads(out)
    assert rep["is_hadamard"] is False and rep["unimodular_ok"] is False
    assert code == 2


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


BIG = np.finfo(float).max


@pytest.mark.parametrize("modulus, modulus_deviation", [(1e300, SQRT6 * 1e300), (1.5e308, BIG)])
def test_check_json_stays_finite_on_overflowing_input(capsys, tmp_path, schemas, modulus,
                                                      modulus_deviation):
    """F6 with entries of a huge but finite modulus.  Residuals that
    overflow saturate at the largest double, so the report stays valid JSON
    with number fields."""
    p = tmp_path / "huge.json"
    p.write_text(matrix_to_json(mub6.fourier_f6().entries * SQRT6 * modulus))
    code, out, err = run(capsys, "check", "--in", p, "--json")
    assert code == 2 and err == ""
    rep = json.loads(out, parse_constant=_reject_constant)
    validate(schemas, "check_report.schema.json", out)
    assert rep["unitarity_residual"] == BIG
    assert rep["max_modulus_deviation"] == pytest.approx(modulus_deviation)
    assert rep["is_hadamard"] is False


def test_refute_exits_0(capsys):
    code, out, _ = run(capsys, "refute", "--t", PI)
    assert code == 0
    assert "LEMMA_CLAIM_REFUTED" in out


# ------------------------------------------------------------ families show

@pytest.mark.parametrize("argv,builder", [
    (("--family", "f6", "--x1", "0.3", "--x2", "1.1"),
     lambda: mub6.fourier_f6(0.3, 1.1)),
    (("--family", "m6", "--t", str(0.8 * PI)),
     lambda: mub6.m6(0.8 * PI)),
    (("--family", "b6", "--theta", str(0.9 * PI)),
     lambda: mub6.b6(0.9 * PI)),
    (("--family", "s6"), lambda: mub6.s6()),
])
def test_families_show_round_trip(capsys, tmp_path, schemas, argv, builder):
    code, out, _ = run(capsys, "families", "show", *argv)
    assert code == 0
    validate(schemas, "matrix.schema.json", out)
    H = mub6.matrix_from_json(out)
    np.testing.assert_array_equal(H.entries, builder().entries)
    # and the emitted matrix passes its own check
    p = tmp_path / "m.json"
    p.write_text(out)
    code2, out2, _ = run(capsys, "check", "--in", p, "--json")
    assert code2 == 0
    validate(schemas, "check_report.schema.json", out2)
    assert json.loads(out2)["is_hadamard"] is True


@pytest.mark.parametrize("argv", [
    ("--family", "m6", "--t", "3", "--theta", "2"),
    ("--family", "m6", "--t", "3", "--x1", "0.5"),
    ("--family", "s6", "--t", "3"),
    ("--family", "f6", "--t", "1.5"),
    ("--family", "f6", "--x1", "0.5", "--theta", "2"),
    ("--family", "b6", "--theta", "2", "--x2", "0.1"),
])
def test_families_show_refuses_parameters_the_family_does_not_take(capsys, argv):
    """A value the chosen family does not read is a usage error, not dropped."""
    code, out, err = run(capsys, "families", "show", *argv)
    assert (code, out) == (1, "")
    assert "does not apply to" in err


def test_families_show_f6_at_huge_and_non_finite_phases(capsys):
    code, out, _ = run(capsys, "families", "show", "--family", "f6", "--x1", "100000000")
    assert code == 0
    assert mub6.is_hadamard(mub6.matrix_from_json(out))
    for flag in ("--x1", "--x2"):
        code, out, err = run(capsys, "families", "show", "--family", "f6", flag, "inf")
        assert (code, out) == (1, "")
        assert err.startswith("mub6: error:") and "finite" in err


def test_families_show_f6_defaults_the_missing_phase(capsys):
    code, out, _ = run(capsys, "families", "show", "--family", "f6", "--x2", "0.5")
    assert code == 0
    np.testing.assert_array_equal(mub6.matrix_from_json(out).entries,
                                  mub6.fourier_f6(0.0, 0.5).entries)


# ---------------------------------------------------------------- tolerance

@pytest.fixture
def perturbed(tmp_path):
    """m6(pi) with one phase nudged by 1e-7: fails at 1e-9, passes at 1e-5."""
    H = mub6.m6(PI)
    A = H.entries.copy()
    A[3, 3] *= np.exp(1e-7j)
    p = tmp_path / "pert.json"
    p.write_text(matrix_to_json(mub6.CMat6(A, label="perturbed")))
    return p


def test_tol_flag_loosens_check(capsys, perturbed):
    code, _, _ = run(capsys, "check", "--in", perturbed)
    assert code == 2
    code, _, _ = run(capsys, "check", "--in", perturbed, "--tol", "1e-5")
    assert code == 0


@pytest.mark.parametrize("env", ["1e-5", "three"])
def test_tolerance_environment_variable_is_not_read(capsys, perturbed, monkeypatch, env):
    """--tol is the one way to set eq_tol: MUB6_TOL, once a second way in,
    neither loosens the check nor fails to parse."""
    unset = run(capsys, "check", "--in", perturbed)
    monkeypatch.setenv("MUB6_TOL", env)
    assert run(capsys, "check", "--in", perturbed) == unset
    assert unset[0] == 2


@pytest.mark.parametrize("tol", ["2", "inf"])
@pytest.mark.parametrize("entries", [np.eye(6), np.zeros((6, 6))], ids=["identity", "zero"])
def test_check_refuses_tolerance_of_one_or_more(capsys, tmp_path, tol, entries):
    """At eq_tol >= 1 the modulus test passes zero entries, so the identity
    and the zero matrix would read as Hadamard; the tolerance is refused."""
    p = tmp_path / "m.json"
    p.write_text(matrix_to_json(entries))
    code, msg, err = run(capsys, "check", "--in", p, "--tol", tol)
    assert code == 1
    assert msg == ""
    assert len(err.splitlines()) == 1 and err.startswith("mub6: error:")


# ------------------------------------------------------- normalize, analyze

def test_normalize_dephases(capsys, tmp_path, schemas):
    H = mub6.m6(0.9 * PI)
    rec = mub6.TransformRecord(
        row_perm=(2, 1, 3, 4, 5, 6), col_perm=(1, 2, 3, 4, 5, 6),
        row_phases=(np.exp(0.3j),) * 6, col_phases=(np.exp(-0.7j),) * 6)
    p = tmp_path / "scr.json"
    p.write_text(matrix_to_json(mub6.apply(H, rec)))
    code, out, _ = run(capsys, "normalize", "--in", p)
    assert code == 0
    validate(schemas, "matrix.schema.json", out)
    D = mub6.matrix_from_json(out)
    assert np.max(np.abs(D.entries[0] * SQRT6 - 1.0)) < 1e-9
    assert np.max(np.abs(D.entries[:, 0] * SQRT6 - 1.0)) < 1e-9


def test_normalize_lemma_form_json(capsys, tmp_path, schemas, f6):
    p = tmp_path / "f6.json"
    p.write_text(matrix_to_json(f6))
    code, out, _ = run(capsys, "normalize", "--in", p, "--lemma-form", "--json")
    assert code == 0
    validate(schemas, "lemma_form.schema.json", out)
    form = json.loads(out)
    assert form["present"] is True
    assert form["y"] == pytest.approx(1.0)
    assert form["x"] == pytest.approx(-1.0)


def test_normalize_lemma_form_text_matches_json(capsys, tmp_path, f6):
    p = tmp_path / "f6.json"
    p.write_text(matrix_to_json(f6))
    code, out, _ = run(capsys, "normalize", "--in", p, "--lemma-form")
    assert code == 0
    text = dict(line.split(" = ", 1) for line in out.splitlines())
    assert list(text) == ["y", "x", "s", "row_perm", "col_perm"]
    _, out, _ = run(capsys, "normalize", "--in", p, "--lemma-form", "--json")
    form = json.loads(out)
    assert (int(text["y"]), int(text["x"])) == (form["y"], form["x"])
    assert complex(text["s"]) == complex(*form["s"])
    for perm in ("row_perm", "col_perm"):
        assert text[perm] == str(tuple(form["record"][perm]))


def test_normalize_lemma_form_absent(capsys, tmp_path, schemas, s6mat):
    p = tmp_path / "s6.json"
    p.write_text(matrix_to_json(s6mat))
    code, out, _ = run(capsys, "normalize", "--in", p, "--lemma-form", "--json")
    assert code == 0
    validate(schemas, "lemma_form.schema.json", out)
    assert json.loads(out) == {"present": False}
    assert run(capsys, "normalize", "--in", p, "--lemma-form") == (0, "NONE\n", "")


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_normalize_lemma_form_planted_block_exits_1(tmp_path, flags):
    """A unimodular non-Hadamard matrix with a planted real (1, -1) block
    has no (-1, s, -s) tail.  The check must also run under python -O and
    end in exit 1 with a message, not a traceback or a form without s.
    An unscaled F6 is not Hadamard either and ends the same way."""
    A = np.exp(2j * PI * np.random.default_rng(7).random((6, 6)))
    A[:3, :2] = [[1, 1], [1, 1], [1, -1]]
    for M in (A / SQRT6, mub6.fourier_f6().entries * SQRT6):
        p = tmp_path / "planted.json"
        p.write_text(matrix_to_json(M))
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "mub6.cli", "normalize", "--in", str(p), "--lemma-form"],
            capture_output=True, text=True)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr and "error" in proc.stderr


@pytest.mark.parametrize("report", ["full", "real", "h2", "product"])
def test_analyze_reports(capsys, tmp_path, schemas, f6, report):
    p = tmp_path / "f6.json"
    p.write_text(matrix_to_json(f6))
    code, out, _ = run(capsys, "analyze", "--in", p, "--report", report)
    assert code == 0
    validate(schemas, "analysis_report.schema.json", out)
    rep = json.loads(out)
    if report in ("full", "real"):
        assert rep["real_entry_count"] == 20
    if report in ("full", "h2"):
        assert rep["h2_submatrix_count"] == 45
        assert rep["h2_reducible_partition"]["rows"] == [[1, 2], [3, 4], [5, 6]]
    if report in ("full", "product"):
        assert rep["product_triple_found"] is True
    if report == "real":
        assert "h2_submatrix_count" not in rep


def _run_showing_warnings(*argv):
    return subprocess.run([sys.executable, "-W", "always", "-m", "mub6.cli", *map(str, argv)],
                          capture_output=True, text=True)


@pytest.mark.parametrize("modulus", [1e300, 1.5e308])
def test_analyze_is_silent_on_overflowing_input(tmp_path, modulus):
    """F6 scaled to entries of a huge but finite modulus is not a Hadamard
    matrix, so analyze refuses it with one error line instead of reporting
    counts that depend on the scale (11 real entries where F6 has 20).  The
    check itself overflows, yet no RuntimeWarning reaches stderr even when
    every warning is shown."""
    p = tmp_path / "huge.json"
    p.write_text(matrix_to_json(mub6.fourier_f6().entries * SQRT6 * modulus))
    proc = _run_showing_warnings("analyze", "--in", p, "--report", "full")
    assert (proc.returncode, proc.stdout) == (1, "")
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("mub6: error:")


def test_normalize_is_silent_on_overflowing_input(tmp_path):
    """Dephasing a matrix whose corner entry lies a few ulps below the
    largest double overflows to non-finite entries, which end in exit 1
    (a case hypothesis found).  A tolerance of 1 or more, which once let a
    lemma-form search run on huge F6, is refused with one error line.
    Neither prints a RuntimeWarning."""
    A = np.ones((6, 6), dtype=complex)
    A[0, 0] = 1.7976931348623151e308
    A[3, 0] = A[5, 0] = A[0, 5] = 1j
    p = tmp_path / "edge.json"
    p.write_text(matrix_to_json(A))
    proc = _run_showing_warnings("normalize", "--in", p)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == "mub6: error: entries contains non-finite entries\n"
    p.write_text(matrix_to_json(mub6.fourier_f6().entries * SQRT6 * 1e300))
    proc = _run_showing_warnings("normalize", "--in", p, "--lemma-form", "--tol", "inf")
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "mub6: error: eq_tol must lie strictly between 0 and 1\n"


# -------------------------------------------------------------------- refute

def test_refute_json_schema_and_content(capsys, schemas):
    code, out, _ = run(capsys, "refute", "--t", str(2 * PI / 3), "--json")
    assert code == 0
    validate(schemas, "lemma_report.schema.json", out)
    rep = json.loads(out)
    assert rep["verdict"] == "LEMMA_CLAIM_REFUTED"
    assert rep["record"]["row_perm"] == [3, 4, 5, 6, 1, 2]
    mods = np.array(rep["third_col_moduli"])
    assert np.max(np.abs(mods - 1.0 / SQRT6)) < 1e-9
    assert rep["min_third_col_modulus"] > 1.0 / SQRT6 - 1e-9


def test_refute_stdout_deterministic(capsys):
    _, a, _ = run(capsys, "refute", "--t", "1.9", "--json")
    _, b, _ = run(capsys, "refute", "--t", "1.9", "--json")
    assert a == b


def test_refute_just_below_two_pi(capsys):
    """The largest double below 2 pi is admissible: a = e^{it} differs from
    the excluded a = 1, m6(t) is Hadamard and the claim is refuted."""
    code, out, err = run(capsys, "refute", "--t", "6.283185307179585")
    assert (code, err) == (0, "")
    assert "verdict: LEMMA_CLAIM_REFUTED" in out


def test_refute_text_audit_lines(capsys):
    code, out, _ = run(capsys, "refute", "--t", PI)
    assert code == 0
    assert "hadamard:" in out and "PASS" in out
    assert "verdict: LEMMA_CLAIM_REFUTED" in out


# ---------------------------------------------------------------------- scan

def test_scan_csv_reproducible(capsys, tmp_path):
    args = ("scan", "--family", "m6",
            "--t-from", str(0.85 * PI), "--t-to", str(0.95 * PI),
            "--steps", "2", "--starts", "50", "--seed", "7")
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    code, msg, _ = run(capsys, *args, "--out", out1)
    assert code == 0
    assert "wrote 2 rows" in msg
    code, _, _ = run(capsys, *args, "--out", out2)
    assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert lines[0] == mub6.CSV_HEADER
    assert len(lines) == 3


def test_scan_flags_inadmissible_rows(capsys, tmp_path):
    out = tmp_path / "bad.csv"
    code, msg, _ = run(capsys, "scan", "--family", "m6",
                       "--t-from", "0.1", "--t-to", "0.2",
                       "--steps", "2", "--starts", "10", "--out", out)
    assert code == 0
    assert "2 flagged invalid" in msg
    for line in out.read_text().splitlines()[1:]:
        fields = line.split(",")
        assert fields[3] == "-1" and fields[6] == "nan"


@pytest.mark.parametrize("t_from, t_to, steps, tol", [
    (1.7, 3.1, 5, "3e-16"), (1.7, 3.1, 5, "1e-16"), (6.18, 6.25, 3, "0.1"),
    (3.14159, 3.14159, 1, "0.3"),
])
def test_scan_tolerance_does_not_flag_admissible_points(capsys, tmp_path, monkeypatch,
                                                        t_from, t_to, steps, tol):
    """scan reads no MUB6_TOL: the CSV is the same bytes with it set or unset,
    and no admissible point is flagged.  When the scan read a tolerance, a
    tight one failed the Hadamard check of each m6(t), a loose one read
    a = e^{it} near 1 as the excluded a = 1, and either moved the counts."""
    args = ["scan", "--family", "m6", "--t-from", t_from, "--t-to", t_to,
            "--steps", steps, "--starts", "50", "--out"]
    code, _, _ = run(capsys, *args, tmp_path / "unset.csv")
    assert code == 0
    monkeypatch.setenv("MUB6_TOL", tol)
    code, msg, err = run(capsys, *args, tmp_path / "set.csv")
    assert (code, err) == (0, "")
    assert "flagged" not in msg
    text = (tmp_path / "set.csv").read_text()
    assert text == (tmp_path / "unset.csv").read_text()
    rows = [line.split(",") for line in text.splitlines()[1:]]
    assert len(rows) == steps
    assert all(int(r[3]) > 0 for r in rows)


@pytest.mark.parametrize("bounds", [("2", "inf"), ("nan", "2"), ("-inf", "2"), ("2", "nan"),
                                    ("1e308", "-1e308")])
def test_scan_refuses_non_finite_bounds(capsys, tmp_path, bounds):
    """np.linspace from 2 to inf gives t = nan, inf, inf: the requested
    start is lost, so a non-finite bound is a usage error.  So is a pair of
    finite bounds whose difference overflows, which loses the start too."""
    out = tmp_path / "scan.csv"
    code, msg, err = run(capsys, "scan", "--family", "m6", f"--t-from={bounds[0]}",
                         f"--t-to={bounds[1]}", "--steps", "3", "--starts", "10", "--out", out)
    assert (code, msg) == (1, "")
    assert err.splitlines()[-1] == ("mub6 scan: error: --t-from and --t-to must be finite "
                                    "and so must their difference")
    assert not out.exists()


def test_scan_unwritable_out_exits_3(capsys, tmp_path, monkeypatch):
    """--out is opened before the sweep, so an unwritable path computes no point."""
    def no_sweep(*args, **kwargs):
        raise AssertionError("scan_m6 ran before --out was opened")
    monkeypatch.setattr(mub6.cli, "scan_m6", no_sweep)
    code, msg, err = run(capsys, "scan", "--family", "m6", "--t-from", "3.14", "--t-to", "3.14",
                         "--steps", "1", "--starts", "10", "--out", tmp_path / "absent" / "x.csv")
    assert (code, msg) == (3, "")
    assert len(err.splitlines()) == 1 and err.startswith("mub6: error:")


@pytest.mark.parametrize("flag, value", [("--steps", 10**17), ("--starts", 10**17),
                                         ("--starts", 10**18)])
def test_scan_huge_counts_exit_1(capsys, tmp_path, flag, value):
    """Each of these allocations exceeds any 64-bit address space, so it
    fails at once: one error line, no traceback.  The last --steps or
    --starts given wins."""
    code, msg, err = run(capsys, "scan", "--family", "m6", "--t-from", "3.14", "--t-to", "3.14",
                         "--steps", "1", "--starts", "10", flag, value,
                         "--out", tmp_path / "x.csv")
    assert (code, msg) == (1, "")
    assert len(err.splitlines()) == 1 and err.startswith("mub6: error:")


def test_scan_refuses_negative_seed(capsys, tmp_path):
    out = tmp_path / "seeded.csv"
    code, msg, err = run(capsys, "scan", "--family", "m6", "--t-from", "3.14", "--t-to", "3.14",
                         "--steps", "1", "--starts", "10", "--seed", "-1", "--out", out)
    assert code == 1
    assert msg == ""
    assert err == "mub6: error: seed must be >= 0\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["families", "show", "--family", "f6", "--seed", "1"],
    ["check", "--in", "{path}", "--seed", "1"],
    ["normalize", "--in", "{path}", "--seed", "1"],
    ["analyze", "--in", "{path}", "--seed", "1"],
    ["refute", "--t", "3.14", "--seed", "1"],
    ["scan", "--family", "m6", "--t-from", "3.14", "--t-to", "3.14", "--steps", "1",
     "--starts", "10", "--out", "{out}", "--json"],
    ["refute", "--t", "3.14", "--text"],
    ["refute", "--t", "3.14", "--tol", "1e-9"],
    ["refute", "--t", "3.14", "--t-deg", "180"],
    ["families", "show", "--family", "m6", "--t", "3.14", "--t-deg", "180"],
    ["families", "show", "--family", "f6", "--tol", "1e-9"],
    ["scan", "--family", "m6", "--t-from", "3.14", "--t-to", "3.14", "--steps", "1",
     "--starts", "10", "--out", "{out}", "--tol", "0.1"],
    ["families", "show", "--family", "f6", "--json"],
    ["analyze", "--in", "{path}", "--json"],
    ["scan", "--family", "m6", "--t-from", "3.14", "--t-to", "3.14", "--steps", "1",
     "--starts", "10", "--out", "{out}", "--plot", "{out}.plot"],
], ids=["show-seed", "check-seed", "normalize-seed", "analyze-seed", "refute-seed",
        "scan-json", "refute-text", "refute-tol", "refute-t-deg", "show-t-deg", "show-tol",
        "scan-tol", "show-json", "analyze-json", "scan-plot"])
def test_unhonoured_flags_are_usage_errors(capsys, tmp_path, argv):
    """Only scan is seeded, scan writes only its CSV, text is refute's
    default, families show and analyze always print JSON, family members,
    scan counts and the refute verdict are decided at the default
    tolerance, and --t, in radians, is the one way to give t."""
    path, out = tmp_path / "f6.json", tmp_path / "scan.csv"
    path.write_text(mub6.matrix_to_json(mub6.fourier_f6()))
    code, msg, err = run(capsys, *(a.format(path=path, out=out) for a in argv))
    assert code == 1
    assert msg == ""
    assert "unrecognized arguments" in err
    assert not out.exists()
    assert_usage_error((code, msg, err), argv)


@pytest.mark.parametrize("flags", [["--tol", "1e-3"], ["--json"]])
def test_plain_normalize_refuses_lemma_form_flags(capsys, tmp_path, flags):
    """Dephasing reads no tolerance and always prints a JSON matrix, so
    --tol and --json belong to normalize --lemma-form only."""
    p = tmp_path / "f6.json"
    p.write_text(matrix_to_json(mub6.fourier_f6()))
    code, out, err = run(capsys, "normalize", "--in", p, *flags)
    assert (code, out) == (1, "")
    assert "apply only to normalize --lemma-form" in err
    code, out, _ = run(capsys, "normalize", "--in", p, "--lemma-form", "--tol", "1e-3", "--json")
    assert code == 0 and json.loads(out)["present"] is True


CLI_FLAGS = {
    "families show": {"--family", "--t", "--x1", "--x2", "--theta"},
    "check": {"--in", "--tol", "--json"},
    "normalize": {"--in", "--lemma-form", "--tol", "--json"},
    "analyze": {"--in", "--report", "--tol"},
    "refute": {"--t", "--json"},
    "scan": {"--family", "--t-from", "--t-to", "--steps", "--starts", "--seed", "--out",
             "--timing"},
}


def _leaf_flags(parser, name=""):
    """(subcommand, its flags) for every parser without subcommands of its own."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield name, {f for a in parser._actions for f in a.option_strings} - {"-h", "--help"}
    for action in subs:
        for sub_name, sub in action.choices.items():
            yield from _leaf_flags(sub, f"{name} {sub_name}".strip())


def test_cli_flag_surface():
    """Every flag the CLI accepts, 25 in all.  A new flag is a deliberate
    edit of this table; each one must change what its command does."""
    surface = dict(_leaf_flags(build_parser()))
    assert surface == CLI_FLAGS
    assert sum(map(len, surface.values())) == 25


@pytest.mark.parametrize("command", [name for name, _ in _leaf_flags(build_parser())])
def test_help_on_every_subcommand(capsys, command):
    code, out, err = run(capsys, *command.split(), "--help")
    assert (code, err) == (0, "")
    assert out.startswith(f"usage: mub6 {command} ")


# -------------------------------------------------------------- entry point

def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "mub6.cli", "refute", "--t", str(PI), "--json"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    rep = json.loads(proc.stdout)
    assert rep["verdict"] == "LEMMA_CLAIM_REFUTED"
