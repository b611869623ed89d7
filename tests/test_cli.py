import json
import subprocess
import sys

import numpy as np
import pytest
import jsonschema

import mub6
from mub6 import SQRT6, matrix_to_json
from mub6.cli import main

PI = np.pi


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def validate(schemas, name, text):
    jsonschema.validate(json.loads(text), schemas[name])


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
    code, _, err = run(capsys, "refute", "--t", PI, "--t-deg", 180)
    assert code == 1


def test_parse_error_exits_3(capsys, tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{ not json")
    code, _, err = run(capsys, "check", "--in", p)
    assert code == 3
    assert "error" in err


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


def test_t_deg_matches_radians(capsys):
    _, out_rad, _ = run(capsys, "families", "show", "--family", "m6", "--t", PI)
    _, out_deg, _ = run(capsys, "families", "show", "--family", "m6", "--t-deg", 180)
    A = mub6.matrix_from_json(out_rad).entries
    B = mub6.matrix_from_json(out_deg).entries
    assert np.max(np.abs(A - B)) < 1e-12


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


def test_env_tolerance_and_flag_priority(capsys, perturbed, monkeypatch):
    monkeypatch.setenv("MUB6_TOL", "1e-5")
    code, _, _ = run(capsys, "check", "--in", perturbed)
    assert code == 0
    code, _, _ = run(capsys, "check", "--in", perturbed, "--tol", "1e-9")
    assert code == 2


def test_bad_env_tolerance_exits_1(capsys, perturbed, monkeypatch):
    monkeypatch.setenv("MUB6_TOL", "three")
    code, _, err = run(capsys, "check", "--in", perturbed)
    assert code == 1
    assert "MUB6_TOL" in err


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


def test_normalize_lemma_form_absent(capsys, tmp_path, schemas, s6mat):
    p = tmp_path / "s6.json"
    p.write_text(matrix_to_json(s6mat))
    code, out, _ = run(capsys, "normalize", "--in", p, "--lemma-form", "--json")
    assert code == 0
    validate(schemas, "lemma_form.schema.json", out)
    assert json.loads(out) == {"present": False}


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
    """F6 with entries of a huge but finite modulus overflows inside the
    realness, H2 and unitary-block tests.  analyze still exits 0 with the
    same verdicts, and no RuntimeWarning reaches stderr even when every
    warning is shown.  Only the first row and column stay exactly real at
    this scale, so 11 entries count as real."""
    p = tmp_path / "huge.json"
    p.write_text(matrix_to_json(mub6.fourier_f6().entries * SQRT6 * modulus))
    proc = _run_showing_warnings("analyze", "--in", p, "--report", "full")
    assert proc.returncode == 0
    assert proc.stderr == ""
    rep = json.loads(proc.stdout)
    assert rep["real_entry_count"] == 11 and rep["exceeds_bound"] is False
    assert rep["real_3x2_raw"] == [] and rep["real_3x2_rephased"] == []
    assert rep["h2_submatrix_count"] == 0 and rep["h2_reducible_partition"] is None
    assert rep["unitary_3x3"] == []
    assert rep["product_triple_found"] is True


def test_normalize_is_silent_on_overflowing_input(tmp_path):
    """Dephasing a matrix whose corner entry lies a few ulps below the
    largest double overflows to non-finite entries, which end in exit 1
    (a case hypothesis found); a lemma-form search that a loose --tol lets
    run on huge F6 finds no form.  Neither prints a RuntimeWarning."""
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
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "NONE\n", "")


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


def test_refute_text_audit_lines(capsys):
    code, out, _ = run(capsys, "refute", "--t-deg", "180", "--text")
    assert code == 0
    assert "hadamard:" in out and "PASS" in out
    assert "verdict: LEMMA_CLAIM_REFUTED" in out


# ---------------------------------------------------------------------- scan

def test_scan_csv_reproducible(capsys, tmp_path):
    args = ("scan", "--family", "m6",
            "--t-from", str(0.85 * PI), "--t-to", str(0.95 * PI),
            "--steps", "2", "--starts", "50", "--seed", "7")
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    plot = tmp_path / "plot.txt"
    code, msg, _ = run(capsys, *args, "--out", out1, "--plot", plot)
    assert code == 0
    assert "wrote 2 rows" in msg
    code, _, _ = run(capsys, *args, "--out", out2)
    assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert lines[0] == mub6.CSV_HEADER
    assert len(lines) == 3
    plines = plot.read_text().splitlines()
    assert plines[0] == "t,n_mu_vectors"
    assert len(plines) == 3


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


# -------------------------------------------------------------- entry point

def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "mub6.cli", "refute", "--t", str(PI), "--json"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    rep = json.loads(proc.stdout)
    assert rep["verdict"] == "LEMMA_CLAIM_REFUTED"
