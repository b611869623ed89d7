import numpy as np
import pytest

import mub6
from mub6 import (
    CMat6,
    InvalidInput,
    SQRT6,
    TransformRecord,
    apply,
    count_h2_submatrices,
    dephase,
    is_hadamard,
    random_record,
    to_lemma_form,
)


def test_record_validates_permutations():
    one = np.ones(6, dtype=complex)
    with pytest.raises(InvalidInput):
        TransformRecord((1, 1, 2, 3, 4, 5), (1, 2, 3, 4, 5, 6), one, one)
    with pytest.raises(InvalidInput):
        TransformRecord((0, 1, 2, 3, 4, 5), (1, 2, 3, 4, 5, 6), one, one)
    with pytest.raises(InvalidInput):
        TransformRecord((1, 2, 3, 4, 5, 6), (1, 2, 3, 4, 5, 6), one * 2.0, one)
    with pytest.raises(InvalidInput):
        TransformRecord((1, 2, 3, 4, 5, 6), (1, 2, 3, 4, 5, 6), one[:5], one)
    # floats, bools and strings are refused, not truncated to a permutation
    for perm in ((1.5, 2, 3, 4, 5, 6.9), (True, 2, 3, 4, 5, 6), np.arange(1.0, 7.0),
                 ("1", "2", "3", "4", "5", "6"), "123456", 6, None):
        with pytest.raises(InvalidInput, match="row_perm"):
            TransformRecord(perm, (1, 2, 3, 4, 5, 6), one, one)
        with pytest.raises(InvalidInput, match="col_perm"):
            TransformRecord((1, 2, 3, 4, 5, 6), perm, one, one)
    for perm in (np.arange(1, 7), np.arange(1, 7, dtype=np.uint8), [1, 2, 3, 4, 5, 6], range(1, 7)):
        r = TransformRecord(perm, perm, one, one)
        assert r.row_perm == r.col_perm == (1, 2, 3, 4, 5, 6)
        assert all(type(v) is int for v in r.row_perm + r.col_perm)


@pytest.mark.parametrize("side", ["row_phases", "col_phases"])
def test_record_rejects_nan_phases(side):
    """NaN compares false against any bound, so the unimodularity test
    must be phrased to fail on it."""
    one = np.ones(6, dtype=complex)
    bad = one.copy()
    bad[3] = np.nan
    phases = {"row_phases": one, "col_phases": one, side: bad}
    with pytest.raises(InvalidInput):
        TransformRecord((1, 2, 3, 4, 5, 6), (1, 2, 3, 4, 5, 6), **phases)


def test_identity_record_is_identity(f6):
    one = np.ones(6, dtype=complex)
    G = apply(f6, TransformRecord((1, 2, 3, 4, 5, 6), (1, 2, 3, 4, 5, 6), one, one))
    assert np.array_equal(G.entries, f6.entries)


def test_apply_semantics_single_moves(f6):
    A = f6.entries
    one = np.ones(6, dtype=complex)
    # pure row permutation: destination i holds source row_perm[i]
    r = TransformRecord((2, 1, 3, 4, 5, 6), (1, 2, 3, 4, 5, 6), one, one)
    G = apply(f6, r).entries
    assert np.array_equal(G[0], A[1])
    assert np.array_equal(G[1], A[0])
    # pure column phase
    ph = np.exp(1j * np.linspace(0.1, 0.6, 6))
    r2 = TransformRecord((1, 2, 3, 4, 5, 6), (1, 2, 3, 4, 5, 6), one, ph)
    G2 = apply(f6, r2).entries
    assert np.max(np.abs(G2 - A * ph[None, :])) == 0.0


def test_apply_preserves_hadamard_and_h2(f6, m6_sample, b6_generic, s6mat):
    rng = np.random.default_rng(17)
    for H in (f6, m6_sample, b6_generic, s6mat):
        base = count_h2_submatrices(H)
        for _ in range(10):
            r = random_record(rng)
            G = apply(H, r)
            assert is_hadamard(G)
            assert count_h2_submatrices(G) == base


def test_permute_only_records(f6):
    rng = np.random.default_rng(31)
    r = random_record(rng, permute_only=True)
    assert np.all(r.row_phases == 1.0)
    assert np.all(r.col_phases == 1.0)
    G = apply(f6, r)
    assert sorted(map(tuple, np.round(np.abs(G.entries), 12))) == sorted(
        map(tuple, np.round(np.abs(f6.entries), 12))
    )


def test_dephase_properties(m6_sample):
    rng = np.random.default_rng(5)
    G = apply(m6_sample, random_record(rng))
    D, rec = dephase(G)
    assert np.max(np.abs(D.entries[0, :] * SQRT6 - 1.0)) < 1e-12
    assert np.max(np.abs(D.entries[:, 0] * SQRT6 - 1.0)) < 1e-12
    # the record replays the exact dephasing
    assert np.max(np.abs(apply(G, rec).entries - D.entries)) < 1e-15
    # idempotence
    D2, _ = dephase(D)
    assert np.max(np.abs(D2.entries - D.entries)) < 1e-15


def test_dephase_rejects_zero_entries():
    A = np.eye(6, dtype=complex)
    with pytest.raises(InvalidInput):
        dephase(A)


def test_lemma_form_f6_frozen(f6):
    """The canonical scan hits columns (1,4) and rows (1,3,2), a sign
    pattern (1,-1) with s = 1."""
    form = to_lemma_form(f6)
    assert form is not None
    assert (form.y, form.x) == (1, -1)
    assert form.s is not None and abs(form.s - 1.0) < 1e-9
    assert form.record.row_perm[:3] == (1, 3, 2)
    assert form.record.col_perm[:2] == (1, 4)
    assert (form.y, form.x) != (1, 1)


def test_lemma_form_block_is_real(f6, m6_sample):
    for H in (f6, m6_sample):
        form = to_lemma_form(H)
        assert form is not None
        B = form.matrix.entries * SQRT6
        assert np.max(np.abs(B[:3, :2].imag)) < 1e-9
        assert np.max(np.abs(B[0, :] - 1.0)) < 1e-9
        assert np.max(np.abs(B[:, 0] - 1.0)) < 1e-9
        assert abs(B[1, 1] - form.y) < 1e-9
        assert abs(B[2, 1] - form.x) < 1e-9


def test_lemma_form_m6_reports_conjugate_parameter():
    t = 2 * np.pi / 3
    form = to_lemma_form(mub6.m6(t))
    assert (form.y, form.x) == (1, -1)
    assert abs(form.s - np.conj(np.exp(1j * t))) < 1e-9


def test_lemma_form_record_replays(f6, m6_sample):
    for H in (f6, m6_sample):
        form = to_lemma_form(H)
        replay = apply(H, form.record)
        assert np.max(np.abs(replay.entries - form.matrix.entries)) < 1e-12


def test_lemma_form_absent_for_s6(s6mat):
    """No column pair of s6 admits three rows with collinear ratios, so
    the scan reports absence rather than inventing a form."""
    assert to_lemma_form(s6mat) is None


def test_lemma_form_invariant_under_rephasing(f6):
    """Rephasing changes the matrix but not existence of the form."""
    rng = np.random.default_rng(23)
    for _ in range(5):
        one = (1, 2, 3, 4, 5, 6)
        r = TransformRecord(one, one,
                            np.exp(2j * np.pi * rng.uniform(size=6)),
                            np.exp(2j * np.pi * rng.uniform(size=6)))
        form = to_lemma_form(apply(f6, r))
        assert form is not None


@pytest.mark.parametrize("scale", [1.0, SQRT6], ids=["planted", "unscaled_f6"])
def test_lemma_form_requires_hadamard_input(scale):
    """Non-Hadamard input is rejected before the search: a unimodular
    matrix with a planted real (1, -1) block, and an unscaled F6."""
    if scale == 1.0:
        A = np.exp(2j * np.pi * np.random.default_rng(7).random((6, 6)))
        A[:3, :2] = [[1, 1], [1, 1], [1, -1]]
        A /= SQRT6
    else:
        A = mub6.fourier_f6().entries * SQRT6
    with pytest.raises(InvalidInput, match="Hadamard"):
        to_lemma_form(A)
