"""Structural predicates for order-6 Hadamard matrices.

Real-entry counting, real p x q submatrix detection (raw and up to
per-column rephasing), 2x2 Hadamard submatrix counting, H2-reducibility,
unitary k x k submatrices, product-vector columns, and numerical rank.  The
submatrix finders list their hits from one table over (rows, columns).  The
h2 and unitary tests read one table of row-pair inner products; the product
test skips the SVD of any 2x3 block that a Cauchy-Binet bound shows to be
rank two.  _SECTIONS alone states each section of analyze and its fields.
SubmatrixLoc accepts exactly the non-empty index sets of _TUPLES.

Counting conventions: a 2x2 submatrix is proportional to an order-2
Hadamard matrix exactly when its two rows are orthogonal, which for
unimodular entries is the standard equivalent condition.  The predicates
apply the same test to non-Hadamard inputs, where it stays well defined
though the Hadamard reading does not; ``analyze`` refuses such inputs.

These operations only measure; none of them asserts a bound or a theorem
about which values may occur in sets of mutually unbiased bases.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations
from typing import NamedTuple

import numpy as np

from .core import (DEFAULT_TOL, SQRT6, Tolerances, as_hadamard, as_index, as_matrix, as_tuple,
                   as_vector, is_index, label_of, mod_pi_sign, safe_repr)
from .errors import InvalidInput

__all__ = [
    "SubmatrixLoc",
    "AnalysisReport",
    "H2Partition",
    "SECTION_FIELDS",
    "count_real_entries",
    "exceeds_real_bound",
    "find_real_submatrices",
    "find_real_submatrices_up_to_rephasing",
    "count_h2_submatrices",
    "is_h2_reducible",
    "find_unitary_submatrices",
    "is_product_vector",
    "product_triple_exists",
    "submatrix_rank",
    "analyze",
    "REAL_ENTRY_BOUND",
]

REAL_ENTRY_BOUND = 22
# _SUBSETS[n]: the n-element subsets of range(6), one per row, lexicographic;
# _TUPLES[n]: the same subsets as tuples of 1-based indices
_SUBSETS = [np.array(list(combinations(range(6), n)), dtype=int) for n in range(7)]
_TUPLES = [list(combinations(range(1, 7), n)) for n in range(7)]
_LOC_TUPLES = {t: t for n in range(1, 7) for t in _TUPLES[n]}    # the valid rows and cols


@dataclass(frozen=True)
class SubmatrixLoc:
    """Row and column index sets of a submatrix, 1-based and sorted."""

    rows: tuple
    cols: tuple

    def __post_init__(self):
        for name in ("rows", "cols"):
            v = as_tuple(getattr(self, name), name)
            if not (all(map(is_index, v)) and v in _LOC_TUPLES):
                raise InvalidInput(f"{name} must be ascending integers in 1..6, got {safe_repr(v)}")
            object.__setattr__(self, name, _LOC_TUPLES[v])

    def take(self, A):
        """The selected block of a 6x6 array (0-based internally)."""
        return A[np.ix_([r - 1 for r in self.rows], [c - 1 for c in self.cols])]


def _locs(ok, p, q):
    """A SubmatrixLoc per True of the (_SUBSETS[p], _SUBSETS[q]) table ok, rows outer."""
    return [SubmatrixLoc(_TUPLES[p][r], _TUPLES[q][c]) for r, c in np.argwhere(ok).tolist()]


def _real_mask(A, eq_tol):
    # entries carry the 1/sqrt(6) scale, so realness is tested scale-relative
    with np.errstate(all="ignore"):
        return np.abs(A.imag) * SQRT6 < eq_tol


def count_real_entries(H, tol: Tolerances = DEFAULT_TOL) -> int:
    return int(np.sum(_real_mask(as_matrix(H), tol.eq_tol)))


def exceeds_real_bound(H, tol: Tolerances = DEFAULT_TOL) -> bool:
    return count_real_entries(H, tol) > REAL_ENTRY_BOUND


def _real_selections(H, p, q, column_ok):
    """The p x q selections whose columns pass column_ok: (n, p, 6) rows -> (n, 6) mask."""
    p, q = as_index(p, "p", 1, 6), as_index(q, "q", 1, 6)
    return _locs(column_ok(as_matrix(H)[_SUBSETS[p]])[:, _SUBSETS[q]].all(axis=-1), p, q)


def find_real_submatrices(H, p: int, q: int, tol: Tolerances = DEFAULT_TOL):
    """All p x q index selections whose entries are real as they stand."""
    return _real_selections(H, p, q, lambda sub: _real_mask(sub, tol.eq_tol).all(axis=1))


def _real_up_to_phase(sub, eq_tol):
    # anchor: a column's first entry of modulus >= 1e-12; smaller never obstruct
    live = np.abs(sub) >= 1e-12
    anchor = np.take_along_axis(sub, live.argmax(axis=1)[:, None, :], axis=1)
    return np.all((mod_pi_sign(sub, anchor, eq_tol) != 0) | ~live, axis=1)


def find_real_submatrices_up_to_rephasing(H, p: int, q: int, tol: Tolerances = DEFAULT_TOL):
    """All p x q selections that one phase per column makes entirely real."""
    return _real_selections(H, p, q, lambda sub: _real_up_to_phase(sub, tol.eq_tol))


class H2Partition(NamedTuple):
    """Pairings of the rows and of the columns, as 1-based index pairs."""

    rows: tuple
    cols: tuple


_PAIRS = _SUBSETS[2]
# The 15 pair partitions of range(6) as indices into _PAIRS, lexicographic.
_PARTITIONS = np.array([part for part in combinations(range(len(_PAIRS)), 3)
                        if len({i for k in part for i in _PAIRS[k]}) == 6])


# _SET_PAIRS[k][r]: the indices into _PAIRS of the row pairs inside _SUBSETS[k][r].
_SET_PAIRS = [np.array([[i for i, p in enumerate(_PAIRS.tolist()) if set(p) <= set(s)]
                        for s in sets.tolist()], dtype=int) for sets in _SUBSETS]


def _pair_sums(A, k):
    """T[i, j] = |sum of conj(A[r1, c]) A[r2, c] over c in _SUBSETS[k][j]|, with
    (r1, r2) = _PAIRS[i]: near 0 when those rows are orthogonal on those columns."""
    with np.errstate(all="ignore"):
        P = np.conj(A[_PAIRS[:, 0]]) * A[_PAIRS[:, 1]]    # (row pair, column)
        return np.abs(P[:, _SUBSETS[k]].sum(axis=-1))


def count_h2_submatrices(H, tol: Tolerances = DEFAULT_TOL) -> int:
    """Number of the 225 2x2 submatrices whose two rows are orthogonal."""
    return int(np.sum(_pair_sums(as_matrix(H), 2) < tol.eq_tol))


def is_h2_reducible(H, tol: Tolerances = DEFAULT_TOL) -> H2Partition | None:
    """First pair-partition of rows and columns making all nine blocks
    orthogonal-row 2x2 submatrices, scanning both families of the 15
    partitions in canonical order, rows outer.  Returns an H2Partition of
    1-based pairs, or None."""
    T = _pair_sums(as_matrix(H), 2) < tol.eq_tol
    ok = T[_PARTITIONS[:, None, :, None], _PARTITIONS[None, :, None, :]].all(axis=(2, 3))
    hits = np.flatnonzero(ok)
    if not hits.size:
        return None
    r, c = divmod(int(hits[0]), len(_PARTITIONS))
    return H2Partition(*(tuple(_TUPLES[2][i] for i in _PARTITIONS[x]) for x in (r, c)))


def find_unitary_submatrices(H, k: int, tol: Tolerances = DEFAULT_TOL):
    """All k x k submatrices proportional to a unitary matrix, rows outer.

    The test is S S* = c I for some c > 0, entry-wise within eq_tol, which
    amounts to pairwise-orthogonal rows of equal norm; c is the mean of the
    diagonal of S S*.  All C(6, k)^2 blocks are tested in one batch, off the
    diagonal from _pair_sums and on it from squared moduli summed over columns.
    """
    k = as_index(k, "k", 2, 6)
    sets, A = _SUBSETS[k], as_matrix(H)
    with np.errstate(all="ignore"):
        off = _pair_sums(A, k)[_SET_PAIRS[k]].max(axis=1)                      # (rows, cols)
        diag = (A.real ** 2 + A.imag ** 2)[:, sets].sum(axis=-1)[sets]        # (rows, k, cols)
        c = diag.mean(axis=1)
        ok = (c > 0.0) & (off < tol.eq_tol) & (np.abs(diag - c[:, None]).max(axis=1) < tol.eq_tol)
    return _locs(ok, k, k)


def _ranks(blocks):
    """Numerical rank of each matrix in a stack: how many singular values lie
    strictly above rank_tol times the largest (a zero block has rank 0)."""
    sv = np.linalg.svd(blocks, compute_uv=False)
    return np.sum(sv > Tolerances.rank_tol * sv[..., :1], axis=-1)


def submatrix_rank(H, loc: SubmatrixLoc) -> int:
    """Numerical rank of the selected block (see _ranks)."""
    return int(_ranks(loc.take(as_matrix(H))))


def is_product_vector(v, factorization: str) -> bool:
    """Rank one (see _ranks) of v reshaped row-major to 2x3 or 3x2."""
    if factorization not in ("2x3", "3x2"):
        raise InvalidInput("factorization must be '2x3' or '3x2'")
    M = as_vector(v).reshape((2, 3) if factorization == "2x3" else (3, 2))
    return bool(_ranks(M) == 1)


# One representative per grid class (see product_triple_exists): the row
# orders p with p[0] = 0 and p[1] < p[2], read row-major into 2x3.
_GRIDS = np.array([p for p in permutations(range(6))
                   if p[0] == 0 and p[1] < p[2]]).reshape(-1, 2, 3)


def product_triple_exists(H) -> bool:
    """True when some row permutation and factorization make three of the
    six columns simultaneously product vectors.

    The rank of a column reshaped to 2x3 under a row order depends only on
    the grid: which indices share a block row and which share a column.
    Swapping the grid rows or permuting its columns keeps the rank, so the
    720 orders form 60 classes.  The 3x2 reshape under p is the transpose
    of the 2x3 one under (p0, p2, p4, p1, p3, p5), with the same singular
    values, so it adds no class.  The test is is_product_vector's rank-one
    test, batched over 60 grids x 6 columns.  By Cauchy-Binet, sigma2 / sigma1
    >= sqrt(sum |2x2 minors|^2) / |B|_F^2; a block whose bound (scaled to a
    largest modulus of 1) exceeds 1e3 * rank_tol is rank two without an SVD.

    The answer belongs to the matrix as given, not to its equivalence
    class: a row rephasing that is not a tensor product can remove the
    triple, so on a disguised matrix it answers for the disguise.
    """
    blocks = np.transpose(as_matrix(H)[_GRIDS], (0, 3, 1, 2))    # (grid, col, 2, 3)
    with np.errstate(all="ignore"):
        B = blocks / np.abs(blocks).max(axis=(-2, -1), keepdims=True)
        u, v = B[..., 0, :], B[..., 1, :]
        minors = u[..., [0, 0, 1]] * v[..., [1, 2, 2]] - u[..., [1, 2, 2]] * v[..., [0, 0, 1]]
        bound = np.linalg.norm(minors, axis=-1) / np.sum(B.real ** 2 + B.imag ** 2, axis=(-2, -1))
    rank_one = ~(bound > 1e3 * Tolerances.rank_tol)     # open: not certified rank two
    rank_one[rank_one] = _ranks(blocks[rank_one]) == 1  # NaN bounds (zero, inf) stay open
    return bool((rank_one.sum(axis=1) >= 3).any())


@dataclass(frozen=True)
class AnalysisReport:
    """Aggregated measurements; fields are None when not requested."""

    label: str | None = None
    real_entry_count: int | None = None
    exceeds_bound: bool | None = None
    real_3x2_raw: list | None = None
    real_3x2_rephased: list | None = None
    h2_submatrix_count: int | None = None
    h2_reducible_partition: H2Partition | None = None
    unitary_3x3: list | None = None
    product_triple_found: bool | None = None


# analyze's sections: name -> (AnalysisReport fields, (H, tol) -> their values)
_SECTIONS = {
    "real": (("real_entry_count", "exceeds_bound", "real_3x2_raw", "real_3x2_rephased"),
             lambda H, tol: (count_real_entries(H, tol), exceeds_real_bound(H, tol),
                             find_real_submatrices(H, 3, 2, tol),
                             find_real_submatrices_up_to_rephasing(H, 3, 2, tol))),
    "h2": (("h2_submatrix_count", "h2_reducible_partition"),
           lambda H, tol: (count_h2_submatrices(H, tol), is_h2_reducible(H, tol))),
    "unitary": (("unitary_3x3",), lambda H, tol: (find_unitary_submatrices(H, 3, tol),)),
    "product": (("product_triple_found",), lambda H, tol: (product_triple_exists(H),)),
}
SECTION_FIELDS = {name: fields for name, (fields, _) in _SECTIONS.items()}
ALL_SECTIONS = tuple(_SECTIONS)


def analyze(H, tol: Tolerances = DEFAULT_TOL, sections=ALL_SECTIONS) -> AnalysisReport:
    """The requested sections; InvalidInput for an unknown section or a non-Hadamard H."""
    sections = as_tuple(sections, "sections")
    if bad := [s for s in sections if not (isinstance(s, str) and s in SECTION_FIELDS)]:
        raise InvalidInput(f"unknown analyze sections {safe_repr(bad)}; known: {list(ALL_SECTIONS)}")
    as_hadamard(H, tol)
    fields = {"label": label_of(H)}
    for name, (names, values) in _SECTIONS.items():
        if name in sections:
            fields.update(zip(names, values(H, tol), strict=True))
    return AnalysisReport(**fields)
