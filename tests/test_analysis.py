import dataclasses

import numpy as np
import pytest

import mub6
from mub6 import (
    SECTION_FIELDS,
    AnalysisReport,
    InvalidInput,
    SQRT6,
    SubmatrixLoc,
    analyze,
    b6,
    count_h2_submatrices,
    count_real_entries,
    exceeds_real_bound,
    find_real_submatrices,
    find_real_submatrices_up_to_rephasing,
    find_unitary_submatrices,
    is_h2_reducible,
    is_product_vector,
    m6,
    product_triple_exists,
    submatrix_rank,
)
from mub6.analysis import _GRIDS, _ranks
from mub6.core import is_index


def test_submatrix_loc_validation():
    SubmatrixLoc((1, 2, 3), (4, 5))
    with pytest.raises(InvalidInput):
        SubmatrixLoc((0, 1), (2, 3))
    with pytest.raises(InvalidInput):
        SubmatrixLoc((2, 1), (3, 4))   # not sorted
    with pytest.raises(InvalidInput):
        SubmatrixLoc((1, 1), (2, 3))   # repeated
    with pytest.raises(InvalidInput):
        SubmatrixLoc((), (1,))
    # floats, bools and strings are refused, not truncated to indices
    for bad in ((1.9, 2.2, 3), (True, 2), (1.0, 2.0), ("1", "2"), "12", None, 3, [10**5000],
                10**5000):
        with pytest.raises(InvalidInput, match="rows"):
            SubmatrixLoc(bad, (1,))
        with pytest.raises(InvalidInput, match="cols"):
            SubmatrixLoc((1,), bad)
    for rows in (np.array([1, 2, 3]), np.array([1, 2, 3], dtype=np.int8), [1, 2, 3], range(1, 4)):
        loc = SubmatrixLoc(rows, rows)
        assert loc.rows == loc.cols == (1, 2, 3)
        assert all(type(v) is int for v in loc.rows)


def test_f6_real_entry_count_vs_parity_oracle(f6):
    """Entry (j,k) of the zero-parameter Fourier matrix is w^(jk) with
    w = exp(i pi / 3); it is real exactly when jk = 0 or 3 mod 6."""
    oracle = sum(1 for j in range(6) for k in range(6) if (j * k) % 6 in (0, 3))
    assert oracle == 20
    assert count_real_entries(f6) == 20
    assert not exceeds_real_bound(f6)


def test_real_entry_count_on_other_families(s6mat, b6_generic):
    assert count_real_entries(s6mat) == 16
    assert count_real_entries(b6_generic) == 16


def test_exceeds_bound_edge():
    A = np.full((6, 6), 1.0 + 0j) / SQRT6
    assert count_real_entries(A) == 36
    assert exceeds_real_bound(A)


def test_find_real_submatrices_dimension_checks(f6):
    with pytest.raises(InvalidInput):
        find_real_submatrices(f6, 0, 2)
    with pytest.raises(InvalidInput):
        find_real_submatrices(f6, 3, 7)
    with pytest.raises(InvalidInput):
        find_real_submatrices_up_to_rephasing(f6, 7, 1)
    # True would pass 1 <= p <= 6 as 1, and 2.5 would compare as a size
    for p, q in ((True, 2), (3, 2.0), (2.5, 2), ("3", 2), (10**5000, 2), (2, -10**5000)):
        name = "q" if is_index(p) and 1 <= p <= 6 else "p"
        with pytest.raises(InvalidInput, match=rf"^{name} must be an integer in 1\.\.6, got"):
            find_real_submatrices(f6, p, q)
        with pytest.raises(InvalidInput, match=rf"^{name} must be an integer in 1\.\.6, got"):
            find_real_submatrices_up_to_rephasing(f6, p, q)
    assert len(find_real_submatrices(f6, np.int64(1), np.uint8(2))) == 34


def test_real_submatrices_raw_subset_of_rephased(f6, s6mat, b6_generic):
    """Anything real as it stands stays real after the per-column
    rephasing freedom is granted."""
    for H in (f6, s6mat, b6_generic):
        raw = set((l.rows, l.cols) for l in find_real_submatrices(H, 3, 2))
        rph = set((l.rows, l.cols) for l in find_real_submatrices_up_to_rephasing(H, 3, 2))
        assert raw <= rph


def test_rephased_detector_ignores_column_phases(f6):
    rng = np.random.default_rng(2)
    ph = np.exp(2j * np.pi * rng.uniform(size=6))
    G = f6.entries * ph[None, :]
    a = find_real_submatrices_up_to_rephasing(f6, 3, 2)
    b = find_real_submatrices_up_to_rephasing(G, 3, 2)
    assert [(l.rows, l.cols) for l in a] == [(l.rows, l.cols) for l in b]


def test_f6_h2_count_vs_difference_oracle(f6):
    """A 2x2 block of the Fourier matrix at rows (a,b), cols (c,d) has
    orthogonal rows iff (b-a)(d-c) = 3 mod 6.  Counting pairs by their
    differences: dr in {1,3,5} with dc = 3, and dr = 3 with dc in {1,5}."""
    count = 0
    for a in range(6):
        for b in range(a + 1, 6):
            for c in range(6):
                for d in range(c + 1, 6):
                    if ((b - a) * (d - c)) % 6 == 3:
                        count += 1
    assert count == 45
    assert count_h2_submatrices(f6) == 45


def test_h2_counts_frozen(s6mat, b6_generic):
    assert count_h2_submatrices(s6mat) == 0
    assert count_h2_submatrices(b6_generic) == 27


def test_unitary_2x2_matches_h2_count(f6, s6mat, b6_generic):
    """A 2x2 submatrix of a unimodular matrix is proportional to a unitary
    exactly when its rows are orthogonal, so the k=2 enumerator must agree
    with the dedicated counter."""
    for H in (f6, s6mat, b6_generic):
        assert len(find_unitary_submatrices(H, 2)) == count_h2_submatrices(H)


def test_find_unitary_submatrices_bounds(f6):
    with pytest.raises(InvalidInput):
        find_unitary_submatrices(f6, 1)
    with pytest.raises(InvalidInput):
        find_unitary_submatrices(f6, 7)
    for k in (2.5, 3.0, True, "3", 10**5000):
        with pytest.raises(InvalidInput, match=r"^k must be an integer in 2\.\.6, got"):
            find_unitary_submatrices(f6, k)
    assert len(find_unitary_submatrices(f6, np.int64(3))) == 28
    # the full matrix is unitary, so k = 6 returns the single full selection
    full = find_unitary_submatrices(f6, 6)
    assert len(full) == 1
    assert full[0].rows == (1, 2, 3, 4, 5, 6)


def test_h2_reducible_f6_lex_first(f6):
    part = is_h2_reducible(f6)
    assert part is not None
    rows, cols = part
    assert rows == ((1, 2), (3, 4), (5, 6))
    assert cols == ((1, 4), (2, 5), (3, 6))


def test_h2_reducible_partition_is_valid(f6, b6_generic):
    """Whatever partition comes back, its nine blocks must actually have
    orthogonal rows."""
    for H in (f6, b6_generic):
        part = is_h2_reducible(H)
        assert part is not None
        rows, cols = part
        assert sorted(v for p in rows for v in p) == [1, 2, 3, 4, 5, 6]
        assert sorted(v for p in cols for v in p) == [1, 2, 3, 4, 5, 6]
        A = H.entries
        for (r1, r2) in rows:
            for (c1, c2) in cols:
                ip = (np.conj(A[r1 - 1, c1 - 1]) * A[r2 - 1, c1 - 1]
                      + np.conj(A[r1 - 1, c2 - 1]) * A[r2 - 1, c2 - 1])
                assert abs(ip) < 1e-9


def test_s6_not_h2_reducible(s6mat):
    assert is_h2_reducible(s6mat) is None


def test_b6_many_h2_without_real_3x2():
    """Three generic arc points: no real 3x2 selection as-is, yet more
    than eighteen 2x2 Hadamard submatrices."""
    lo = mub6.B6_THETA_MIN
    for theta in (lo + 0.3, 2.2, 2 * np.pi - lo - 0.4):
        B = b6(theta)
        assert find_real_submatrices(B, 3, 2) == []
        assert count_h2_submatrices(B) > 18


def test_b6_degenerate_point_differs():
    """theta = pi is the one arc point with extra structure."""
    B = b6(np.pi)
    assert count_real_entries(B) == 24
    assert count_h2_submatrices(B) == 75
    assert len(find_real_submatrices(B, 3, 2)) == 22


def test_is_product_vector_tensor_constructions():
    rng = np.random.default_rng(8)
    for _ in range(40):
        u2 = rng.normal(size=2) + 1j * rng.normal(size=2)
        u3 = rng.normal(size=3) + 1j * rng.normal(size=3)
        v23 = np.kron(u2, u3)       # row-major 2x3 factorization
        v32 = np.kron(u3, u2)
        assert is_product_vector(v23, "2x3")
        assert is_product_vector(v32, "3x2")
    with pytest.raises(InvalidInput):
        is_product_vector(np.ones(6), "6x1")


def test_random_vectors_are_not_product():
    rng = np.random.default_rng(14)
    hits = 0
    for _ in range(50):
        v = rng.normal(size=6) + 1j * rng.normal(size=6)
        hits += is_product_vector(v, "2x3")
    assert hits == 0


def test_product_vector_factorization_direction_matters():
    u2 = np.array([1.0, 2.0])
    u3 = np.array([1.0, -1.0, 3.0])
    v = np.kron(u2, u3)
    assert is_product_vector(v, "2x3")
    assert not is_product_vector(v, "3x2")


def test_product_triple_exists_f6_and_m6(f6):
    assert product_triple_exists(f6) is True
    assert product_triple_exists(m6(0.9 * np.pi)) is False


def test_product_triple_invariant_under_column_permutation(f6):
    rng = np.random.default_rng(6)
    perm = rng.permutation(6)
    G = f6.entries[:, perm]
    assert product_triple_exists(G) is True


def test_submatrix_rank_cases(f6):
    full = SubmatrixLoc((1, 2, 3, 4, 5, 6), (1, 2, 3, 4, 5, 6))
    assert submatrix_rank(f6, full) == 6
    rank1 = np.zeros((6, 6), dtype=complex)
    rank1[:3, :2] = 1.0 / SQRT6
    loc = SubmatrixLoc((1, 2, 3), (1, 2))
    assert submatrix_rank(rank1, loc) == 1
    assert submatrix_rank(np.zeros((6, 6), dtype=complex), loc) == 0


def test_submatrix_rank_agrees_with_scipy(f6, b6_generic):
    from scipy.linalg import svdvals
    rng = np.random.default_rng(12)
    for H in (f6, b6_generic):
        for _ in range(20):
            rows = tuple(sorted(rng.choice(6, size=3, replace=False) + 1))
            cols = tuple(sorted(rng.choice(6, size=3, replace=False) + 1))
            loc = SubmatrixLoc(rows, cols)
            S = loc.take(H.entries)
            sv = svdvals(S)
            expect = int(np.sum(sv > 1e-9 * sv[0]))
            assert submatrix_rank(H, loc) == expect


def test_rank_tests_agree_across_scales():
    """is_product_vector, submatrix_rank and product_triple_exists make one
    rank decision: planted rank-one and rank-two 2x3 blocks at scales from
    1e-300 to 1e300, and the zero block, which is rank 0 and not a product."""
    rng = np.random.default_rng(26)
    cnormal = lambda *shape: rng.normal(size=shape) + 1j * rng.normal(size=shape)
    loc = SubmatrixLoc((1, 2), (1, 2, 3))
    others = cnormal(6, 3)              # generic columns: rank two on every grid
    for scale in 10.0 ** np.arange(-300, 301, 50):
        for rank, v in ((1, np.outer(cnormal(2), cnormal(3)).ravel() * scale),
                        (2, cnormal(6) * scale), (0, np.zeros(6))):
            block = np.zeros((6, 6), dtype=complex)
            block[:2, :3] = v.reshape(2, 3)
            assert submatrix_rank(block, loc) == rank
            assert is_product_vector(v, "2x3") is (rank == 1)
            H = np.concatenate([np.repeat(v[:, None], 3, axis=1), others], axis=1)
            assert product_triple_exists(H) is (rank == 1)


def test_product_certificate_edges():
    """The SVD-free rank-two certificate moves no decision.  Three columns
    are planted as 2x3 blocks with one sigma2 / sigma1: a half-decade grid
    from 1e-12 to 1e-3, plus points at relative offsets from rank_tol = 1e-9
    and from the certificate's 1e3 * rank_tol, at scales from 1e-300 to
    1e300.  m6(t) is swept through the product-triple band below t = pi,
    as it stands and permuted.  Every case must equal the one rank rule run
    on all 360 blocks, and the all-orders reference.  Within about 1e-7
    (relative) of rank_tol rounding decides, since an SVD errs by about
    1e-16 sigma1; there the reference, which reads 1440 arrangements where
    the package reads one per grid class, can split from the package, and
    only the rank rule is checked."""
    from test_reference import ref_product_triple_exists
    rank_tol = mub6.DEFAULT_TOL.rank_tol
    rng = np.random.default_rng(31)
    cnormal = lambda *shape: rng.normal(size=shape) + 1j * rng.normal(size=shape)
    unitary = lambda n: np.linalg.qr(cnormal(n, n))[0]

    def check(H):
        found = product_triple_exists(H)
        blocks = np.transpose(mub6.core.as_matrix(H)[_GRIDS], (0, 3, 1, 2))
        assert found is bool(((_ranks(blocks) == 1).sum(axis=1) >= 3).any())
        return found

    offsets = np.array([-1e-8, 0.0, 1e-8, -1e-6, 1e-6, -1e-4, 1e-4, -1e-2, 1e-2])
    ratios = np.concatenate([10.0 ** np.arange(-12.0, -2.9, 0.5), rank_tol * (1 + offsets),
                             1e3 * rank_tol * (1 + offsets)])
    outcomes = []
    for ratio in ratios:
        for scale in 10.0 ** np.arange(-300, 301, 150):
            planted = [scale * (unitary(2) @ np.diag([1.0, ratio]) @ unitary(3)[:2]).ravel()
                       for _ in range(3)]
            H = np.column_stack(planted + list(cnormal(3, 6)))
            found = check(H)
            if abs(ratio / rank_tol - 1.0) > 1e-7:
                assert found is ref_product_triple_exists(H, rank_tol), (ratio, scale)
            outcomes.append(found)
    for t in np.pi - np.linspace(5e-5, 1.5e-4, 51):
        H = m6(t)
        for D in (H, mub6.apply(H, mub6.random_record(rng, permute_only=True))):
            found = check(D)
            assert found is ref_product_triple_exists(D.entries, rank_tol), t
            outcomes.append(found)
    assert set(outcomes) == {True, False}


def test_analyze_full_report(f6):
    rep = analyze(f6)
    assert rep.real_entry_count == 20
    assert rep.exceeds_bound is False
    assert rep.h2_submatrix_count == 45
    assert rep.h2_reducible_partition is not None
    assert rep.product_triple_found is True
    assert rep.label == f6.label
    assert all(isinstance(l, SubmatrixLoc) for l in rep.unitary_3x3)


@pytest.mark.parametrize("A", [np.zeros((6, 6)), 2 * mub6.fourier_f6().entries],
                         ids=["zero", "2f6"])
def test_analyze_refuses_non_hadamard_input(A):
    with pytest.raises(InvalidInput, match="Hadamard"):
        analyze(A)


@pytest.mark.parametrize("section", ["real", "h2", "unitary", "product"])
def test_analyze_sections(f6, section):
    """A one-section report fills exactly that section's fields, with the
    values of the full report, and leaves every other field None."""
    full, rep = analyze(f6), analyze(f6, sections=(section,))
    assert rep.label == full.label
    for field in dataclasses.fields(AnalysisReport):
        if field.name in SECTION_FIELDS[section]:
            assert getattr(rep, field.name) == getattr(full, field.name) is not None, field.name
        elif field.name != "label":
            assert getattr(rep, field.name) is None, field.name
    if section == "h2":
        assert rep.h2_submatrix_count == 45


@pytest.mark.parametrize("sections", [("bogus",), ("h2", "unitary_3x3"), "h2", [["real"]],
                                      ["real", 3], [np.array([1, 2])], [10**5000]],
                         ids=["unknown", "field-name", "bare-string", "unhashable", "not-a-name",
                              "array", "huge-int"])
def test_analyze_refuses_unknown_sections(f6, sections):
    with pytest.raises(InvalidInput, match="unknown analyze sections"):
        analyze(f6, sections=sections)


def test_analyze_refuses_non_iterable_sections(f6):
    for sections in (5, None, 2.0):     # a TypeError escaped before
        with pytest.raises(InvalidInput, match="sections must be iterable"):
            analyze(f6, sections=sections)
