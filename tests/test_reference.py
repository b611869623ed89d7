"""Loop versions of the table-driven searches, kept as references.

to_lemma_form, count_real_entries, find_real_submatrices (raw and up to
rephasing), count_h2_submatrices, is_h2_reducible,
find_unitary_submatrices, product_triple_exists, the CLI's JSON output and
SubmatrixLoc's check were once written as explicit loops, brute force,
hand-built payloads and a per-item rule.  Those versions live on here, and
the package must agree with them exactly: on disguised members of all four
families (random and permute-only moves) and on b6 at theta = pi, and for
realness on scaled copies of them too.  The realness rule the package had
before it was made scale-free is kept beside it.  For the JSON outputs,
agreement means byte-equal stdout.
"""

import json
from itertools import combinations, permutations, product

import numpy as np
import pytest

import mub6
from mub6 import SQRT6, matrix_to_json
from mub6.analysis import ALL_SECTIONS, _GRIDS, _PAIRS, _PARTITIONS, SubmatrixLoc
from mub6.cli import main
from mub6.core import is_index
from mub6.errors import InvalidInput

EQ = mub6.DEFAULT_TOL.eq_tol
N_PER_FAMILY = 52


def _member(fam, rng):
    if fam == "f6":
        return mub6.fourier_f6(*rng.uniform(0.0, 2 * np.pi, 2))
    if fam == "m6":
        lo, hi = ((np.pi / 2 + 1e-3, np.pi), (1.5 * np.pi + 1e-3, 2 * np.pi - 1e-3))[rng.integers(2)]
        return mub6.m6(rng.uniform(lo, hi))
    if fam == "b6":
        return mub6.b6(rng.uniform(mub6.B6_THETA_MIN, mub6.B6_THETA_MAX))
    return mub6.s6()


def permutation_record(rng):
    """A random move that only permutes: the two permutation draws of
    random_record, with unit phases."""
    return mub6.TransformRecord(rng.permutation(6) + 1, rng.permutation(6) + 1,
                                np.ones(6), np.ones(6))


def _inputs():
    """208 disguised family members, every third move permute-only, then
    b6 at theta = pi as it stands and disguised."""
    rng = np.random.default_rng(4)
    out = []
    for i in range(4 * N_PER_FAMILY):
        H = _member(("f6", "m6", "b6", "s6")[i % 4], rng)
        move = permutation_record if (i // 4) % 3 == 0 else mub6.random_record
        out.append(mub6.apply(H, move(rng)))
    out.append(mub6.b6(np.pi))
    out.append(mub6.apply(mub6.b6(np.pi), mub6.random_record(rng)))
    return out


INPUTS = _inputs()


# ------------------------------------------------------------- lemma form

def ref_collinear_signs(z, eq_tol):
    z0 = z[0]
    signs = [1]
    for zi in z[1:]:
        w = zi * np.conj(z0) * 36.0
        if abs(w.imag) >= eq_tol:
            return None
        signs.append(1 if w.real > 0.0 else -1)
    return tuple(signs)


def ref_scan_candidates(A, eq_tol, want):
    for c1 in range(6):
        for c2 in range(6):
            if c2 == c1:
                continue
            z_all = A[:, c2] * np.conj(A[:, c1])
            for rows in permutations(range(6), 3):
                signs = ref_collinear_signs([z_all[r] for r in rows], eq_tol)
                if signs is not None and (signs[1], signs[2]) == want:
                    return (c1, c2, rows)
    return None


def ref_positional_tail_s(t, eq_tol):
    for k in range(3):
        if abs(t[k] + 1.0) < eq_tol * 10.0:
            u, w = [t[i] for i in range(3) if i != k]
            if abs(u + w) < eq_tol * 10.0:
                return complex(u)
    return None


def test_lemma_form_matches_loop_scan():
    hits = misses = 0
    for D in INPUTS:
        A = D.entries
        ref = ref_scan_candidates(A, EQ, (1, -1)) or ref_scan_candidates(A, EQ, (1, 1))
        form = mub6.to_lemma_form(D)
        if ref is None:
            assert form is None
            misses += 1
            continue
        c1, c2, rows = ref
        # the record replays the form exactly; to_lemma_form leaves this to the tests
        assert np.array_equal(mub6.apply(D, form.record).entries, form.matrix.entries)
        # and the block is real, its first column 1, its signs the form's (y, x)
        B = form.matrix.entries * SQRT6
        assert np.max(np.abs(B[:3, :2].imag)) < 10 * EQ
        assert np.max(np.abs(B[:3, 0] - 1.0)) < 10 * EQ
        assert (form.y, form.x) == (np.sign(B[1, 1].real), np.sign(B[2, 1].real))
        assert form.record.col_perm[:2] == (c1 + 1, c2 + 1)
        assert form.record.row_perm[:3] == tuple(r + 1 for r in rows)
        if (form.y, form.x) == (1, -1):
            assert form.s == ref_positional_tail_s(form.matrix.entries[3:, 1] * SQRT6, EQ)
        else:
            assert form.s is None
        hits += 1
    assert hits > 100 and misses > 100


@pytest.mark.parametrize("eq_tol", [1e-12, 1e-5, 0.5])
def test_lemma_form_reads_every_tail_it_finds(eq_tol):
    """A (1, -1) hit's tail reads (-1, s, -s) within 10 * eq_tol, so no
    SolveError, from a tolerance near rounding to a loose one."""
    tol = mub6.Tolerances(eq_tol)
    assert sum(mub6.to_lemma_form(D, tol) is not None for D in INPUTS) >= 106


# ------------------------------------------------------ real submatrices

SCALES = (3e-12, 1e-6, 1e6, 1e150, 1e300)


def ref_real_entry(z, eq_tol):
    """The realness rule: no phase (modulus below 1e-12), or |Im z| below
    eq_tol |z|, collinear with 1 mod pi."""
    return abs(z) < 1e-12 or abs(z.imag) < eq_tol * abs(z)


def ref_real_entry_at_hadamard_scale(z, eq_tol):
    """The rule before realness was made scale-free: |Im z| against
    eq_tol / sqrt(6), the modulus of a Hadamard matrix's entries."""
    return abs(z.imag) * SQRT6 < eq_tol


def ref_real_submatrices(A, p, q, eq_tol, real=ref_real_entry):
    out = []
    for rows in combinations(range(6), p):
        for cols in combinations(range(6), q):
            if all(real(A[r, c], eq_tol) for r in rows for c in cols):
                out.append((tuple(r + 1 for r in rows), tuple(c + 1 for c in cols)))
    return out


def test_real_submatrices_match_loop():
    """On Hadamard matrices the package, the loop and the loop of the old
    Hadamard-scale rule all agree."""
    found = 0
    for D in INPUTS + [mub6.fourier_f6(), mub6.s6()]:
        A = mub6.core.as_matrix(D)
        for p in range(1, 7):
            for q in range(1, 7):
                got = [(l.rows, l.cols) for l in mub6.find_real_submatrices(D, p, q)]
                assert got == ref_real_submatrices(A, p, q, EQ)
                assert got == ref_real_submatrices(A, p, q, EQ, ref_real_entry_at_hadamard_scale)
                found += len(got)
        assert mub6.count_real_entries(D) == sum(ref_real_entry(z, EQ) for z in A.flat)
    assert found > 0


def ref_collinear_mod_pi(entries, eq_tol):
    anchor = None
    for e in entries:
        if abs(e) < 1e-12:
            continue
        if anchor is None:
            anchor = e / abs(e)
            continue
        w = e * np.conj(anchor)
        if abs(w.imag) / abs(w) >= eq_tol:
            return False
    return True


def ref_real_up_to_rephasing(A, p, q, eq_tol):
    out = []
    for rows in combinations(range(6), p):
        sub = A[list(rows), :]
        colok = [ref_collinear_mod_pi(sub[:, c], eq_tol) for c in range(6)]
        for cols in combinations(range(6), q):
            if all(colok[c] for c in cols):
                out.append((tuple(r + 1 for r in rows), tuple(c + 1 for c in cols)))
    return out


def test_real_up_to_rephasing_matches_loop():
    found = 0
    zeroed = mub6.fourier_f6().entries.copy()
    zeroed[[0, 3], 2] = 0.0            # entries of no modulus never obstruct
    for D in INPUTS + [zeroed]:
        A = mub6.core.as_matrix(D)
        for p in range(1, 7):
            for q in range(1, 7):
                got = [(l.rows, l.cols) for l in mub6.find_real_submatrices_up_to_rephasing(D, p, q)]
                assert got == ref_real_up_to_rephasing(A, p, q, EQ)
                found += len(got)
    assert found > 0


@pytest.mark.parametrize("scale", SCALES)
def test_realness_matches_loops_at_scale(scale):
    """Scaled copies of the inputs, from just above the phaseless cut-off to
    near the largest doubles: the count and both 3x2 finders agree with the
    loops, which read the same rule at every scale."""
    for D in INPUTS:
        A = mub6.core.as_matrix(D) * scale
        assert mub6.count_real_entries(A) == sum(ref_real_entry(z, EQ) for z in A.flat)
        got = [(l.rows, l.cols) for l in mub6.find_real_submatrices(A, 3, 2)]
        assert got == ref_real_submatrices(A, 3, 2, EQ)
        got = [(l.rows, l.cols) for l in mub6.find_real_submatrices_up_to_rephasing(A, 3, 2)]
        assert got == ref_real_up_to_rephasing(A, 3, 2, EQ)


# --------------------------------------------------------------------- h2

def ref_pair_partitions(items):
    if not items:
        yield ()
        return
    head = items[0]
    for j in range(1, len(items)):
        rest = [x for k, x in enumerate(items) if k not in (0, j)]
        for sub in ref_pair_partitions(rest):
            yield ((head, items[j]),) + sub


def ref_h2_block_ok(A, rpair, cpair, eq_tol):
    (a, b), (c, d) = rpair, cpair
    return abs(np.conj(A[a, c]) * A[b, c] + np.conj(A[a, d]) * A[b, d]) < eq_tol


def ref_count_h2(A, eq_tol):
    pairs = list(combinations(range(6), 2))
    return sum(ref_h2_block_ok(A, r, c, eq_tol) for r in pairs for c in pairs)


def ref_h2_reducible(A, eq_tol):
    col_partitions = list(ref_pair_partitions(list(range(6))))
    for rp in ref_pair_partitions(list(range(6))):
        for cp in col_partitions:
            if all(ref_h2_block_ok(A, r, c, eq_tol) for r in rp for c in cp):
                one_based = lambda pairing: tuple((i + 1, j + 1) for i, j in pairing)
                return one_based(rp), one_based(cp)
    return None


def test_partition_table_order():
    table = [tuple(map(tuple, _PAIRS[part].tolist())) for part in _PARTITIONS]
    assert table == list(ref_pair_partitions(list(range(6))))


def test_h2_table_matches_loops():
    reducible = 0
    for D in INPUTS:
        A = D.entries
        assert mub6.count_h2_submatrices(D) == ref_count_h2(A, EQ)
        got = mub6.is_h2_reducible(D)
        assert got == ref_h2_reducible(A, EQ)
        reducible += got is not None
    assert reducible > 50


# ------------------------------------------------- unitary and product

def ref_unitary_submatrices(A, k, eq_tol):
    out = []
    eye = np.eye(k)
    for rows in combinations(range(6), k):
        Ar = A[list(rows), :]
        for cols in combinations(range(6), k):
            S = Ar[:, list(cols)]
            G = S @ S.conj().T
            c = float(np.mean(np.diagonal(G).real))
            if c > 0.0 and np.max(np.abs(G - c * eye)) < eq_tol:
                out.append((tuple(r + 1 for r in rows), tuple(c_ + 1 for c_ in cols)))
    return out


ALL_PERMS = np.array(list(permutations(range(6))))


def ref_product_triple_exists(A, rank_tol):
    """All 720 row orders, both reshapes, every column triple."""
    cols = np.transpose(A[ALL_PERMS], (0, 2, 1))          # (720, col, entry)
    for shape in ((2, 3), (3, 2)):
        sv = np.linalg.svd(cols.reshape(720, 6, *shape), compute_uv=False)
        isprod = sv[..., 1] < rank_tol * sv[..., 0]
        for tr in combinations(range(6), 3):
            if np.any(isprod[:, tr].all(axis=1)):
                return True
    return False


def test_unitary_and_product_match_loops():
    families = [mub6.fourier_f6(), mub6.m6(0.9 * np.pi), mub6.b6(0.9 * np.pi), mub6.s6()]
    outcomes = set()
    for D in INPUTS + families:
        A = mub6.core.as_matrix(D)
        for k in range(2, 7):
            got = [(l.rows, l.cols) for l in mub6.find_unitary_submatrices(D, k)]
            assert got == ref_unitary_submatrices(A, k, EQ)
        found = mub6.product_triple_exists(D)
        assert found == ref_product_triple_exists(A, mub6.DEFAULT_TOL.rank_tol)
        outcomes.add(found)
    assert outcomes == {True, False}


def test_unitary_and_product_match_loops_on_random_disguises():
    """Fresh seeded random moves on m6, f6 (every other one at the origin,
    F6, and half of those moved by permutations only, which keeps their
    product triples), b6 and S6, for every k in 2..6.  Each matrix is also
    tested with one row doubled: its rows stay orthogonal, but blocks that
    meet that row lose the equal norms.  No 4x4 or 5x5 block is met."""
    rng = np.random.default_rng(31)
    hits, outcomes = [0] * 7, set()
    for i in range(32):
        fam = ("m6", "f6", "b6", "s6")[i % 4]
        H = mub6.fourier_f6() if fam == "f6" and i % 8 == 1 else _member(fam, rng)
        D = mub6.apply(H, (permutation_record if i % 16 == 1 else mub6.random_record)(rng))
        A = mub6.core.as_matrix(D)
        norms = np.ones((6, 1))
        norms[rng.integers(6)] = 2.0
        for M in (A, A * norms):
            for k in range(2, 7):
                got = [(l.rows, l.cols) for l in mub6.find_unitary_submatrices(M, k)]
                assert got == ref_unitary_submatrices(M, k, EQ)
                hits[k] += len(got)
        found = mub6.product_triple_exists(D)
        assert found == ref_product_triple_exists(A, mub6.DEFAULT_TOL.rank_tol)
        outcomes.add(found)
    assert hits[2] and hits[3] and hits[6] and outcomes == {True, False}


def _grid_class(grid):
    """Canonical 2x3 grid up to swapping its rows and permuting its
    columns: the row holding 0 on top, the columns sorted by top entry."""
    top, bottom = grid.tolist() if 0 in grid[0] else grid[::-1].tolist()
    return tuple(zip(*sorted(zip(top, bottom))))


def test_grid_table_covers_every_arrangement():
    """Each of the 720 row orders under the 2x3 reshape, and under the 3x2
    reshape read as its transpose, falls into the class of one table row,
    and every table row is hit."""
    table = {tuple(map(tuple, g)) for g in _GRIDS.tolist()}
    assert len(table) == len(_GRIDS) == 60
    classes = {_grid_class(p.reshape(2, 3)) for p in ALL_PERMS}
    classes |= {_grid_class(p.reshape(3, 2).T) for p in ALL_PERMS}
    assert classes == table


# ------------------------------------------------------ submatrix locations

def ref_loc_tuple(values):
    """The rule SubmatrixLoc once stated itself: one or more items, each an
    integer (is_index) in 1..6, strictly increasing.  The accepted tuple of
    Python ints, or None for a refusal."""
    try:
        items = list(values)
    except TypeError:
        return None
    if not items or not all(is_index(v) and 1 <= v <= 6 for v in items):
        return None
    items = [int(v) for v in items]
    return tuple(items) if all(a < b for a, b in zip(items, items[1:])) else None


def _loc_candidates():
    for n in range(5):
        yield from product(range(-1, 8), repeat=n)
    for n in range(1, 7):
        yield from permutations(range(1, 7), n)
    for n in range(1, 7):
        for subset in combinations(range(1, 7), n):
            for dtype in (np.int8, np.int64, np.uint64):
                yield np.array(subset, dtype=dtype)
    yield from ((1.9, 2.2, 3), (True, 2), (1.0, 2.0), ("1", "2"), "12", None, 3, [10**5000],
                10**5000)


def test_submatrix_loc_matches_old_rule():
    """SubmatrixLoc accepts exactly what the old per-item rule accepted, in
    either field, and stores the same tuple of Python ints."""
    accepted = 0
    for values in _loc_candidates():
        want = ref_loc_tuple(values)
        for name, args in (("rows", (values, (1,))), ("cols", ((1,), values))):
            if want is None:
                with pytest.raises(InvalidInput, match=f"^{name} must be"):
                    SubmatrixLoc(*args)
                continue
            got = getattr(SubmatrixLoc(*args), name)
            assert got == want and all(type(v) is int for v in got)
            accepted += 1
    # per field: the 56 sets of size 1..4, then all 63 sets in order and as three arrays
    assert accepted == 2 * (56 + 63 + 3 * 63)


# ------------------------------------------------------- CLI JSON payloads

def ref_pair(z):
    z = complex(z)
    return [float(z.real), float(z.imag)]


def ref_record_dict(record):
    return {
        "row_perm": list(record.row_perm),
        "col_perm": list(record.col_perm),
        "row_phases": [ref_pair(z) for z in record.row_phases],
        "col_phases": [ref_pair(z) for z in record.col_phases],
    }


def ref_loc_dict(loc):
    return {"rows": list(loc.rows), "cols": list(loc.cols)}


def ref_lemma_payload(form):
    if form is None:
        return {"present": False}
    return {
        "present": True,
        "y": form.y,
        "x": form.x,
        "s": None if form.s is None else ref_pair(form.s),
        "record": ref_record_dict(form.record),
    }


def ref_analysis_payload(rep, sections):
    payload = {"label": rep.label}
    if "real" in sections:
        payload["real_entry_count"] = rep.real_entry_count
        payload["exceeds_bound"] = rep.exceeds_bound
        payload["real_3x2_raw"] = [ref_loc_dict(l) for l in rep.real_3x2_raw]
        payload["real_3x2_rephased"] = [ref_loc_dict(l) for l in rep.real_3x2_rephased]
    if "h2" in sections:
        payload["h2_submatrix_count"] = rep.h2_submatrix_count
        part = rep.h2_reducible_partition
        payload["h2_reducible_partition"] = None if part is None else {
            "rows": [list(p) for p in part[0]],
            "cols": [list(p) for p in part[1]],
        }
    if "unitary" in sections:
        payload["unitary_3x3"] = [ref_loc_dict(l) for l in rep.unitary_3x3]
    if "product" in sections:
        payload["product_triple_found"] = rep.product_triple_found
    return payload


def ref_refute_payload(rep):
    return {
        "t": rep.t,
        "is_hadamard_ok": rep.is_hadamard_ok,
        "hadamard_residual": rep.hadamard_residual,
        "lemma_form_ok": rep.lemma_form_ok,
        "tail_ok": rep.tail_ok,
        "s": None if rep.s is None else ref_pair(rep.s),
        "third_col_moduli": list(rep.third_col_moduli),
        "min_third_col_modulus": rep.min_third_col_modulus,
        "verdict": rep.verdict,
        "record": ref_record_dict(rep.record),
    }


def _stdout(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr().out
    assert code == 0
    return out


def _dumps(payload):
    return json.dumps(payload, indent=2) + "\n"


def test_cli_json_matches_hand_built_payloads(capsys, tmp_path):
    """Inputs come in groups of four, one per family.  normalize
    --lemma-form --json runs on every second group, analyze --report real
    and h2 on every fourth, and the expensive full, unitary and product
    reports on three groups, which keeps this test to a few seconds."""
    for i, D in enumerate(INPUTS):
        group = i // 4
        if group % 2:
            continue
        p = tmp_path / "m.json"
        p.write_text(matrix_to_json(D))
        H = mub6.matrix_from_json(p.read_text())
        out = _stdout(capsys, "normalize", "--in", p, "--lemma-form", "--json")
        assert out == _dumps(ref_lemma_payload(mub6.to_lemma_form(H)))
        if group % 4:
            continue
        reports = (("real", "h2", "full", "unitary", "product") if group % 24 == 0
                   else ("real", "h2"))
        rep = mub6.analyze(H, sections=ALL_SECTIONS if "full" in reports else ("real", "h2"))
        for report in reports:
            sections = ALL_SECTIONS if report == "full" else (report,)
            out = _stdout(capsys, "analyze", "--in", p, "--report", report)
            assert out == _dumps(ref_analysis_payload(rep, sections))


@pytest.mark.parametrize("t", list(mub6.m6_grid(5)) + [np.pi, 2 * np.pi / 3])
def test_refute_json_matches_hand_built_payload(capsys, t):
    out = _stdout(capsys, "refute", "--t", repr(float(t)), "--json")
    assert out == _dumps(ref_refute_payload(mub6.run_counterexample(t)))
