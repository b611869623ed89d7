"""Structural predicates for order-6 Hadamard matrices.

Real-entry counting, real p x q submatrix detection (raw and up to
per-column rephasing), 2x2 Hadamard submatrix counting, H2-reducibility,
unitary k x k submatrices, product-vector columns, and numerical rank.

Counting conventions: a 2x2 submatrix is proportional to an order-2
Hadamard matrix exactly when its two rows are orthogonal, which for
unimodular entries is the standard equivalent condition.  The same
orthogonality test is applied to degenerate non-Hadamard inputs, where it
remains well defined even though the Hadamard reading no longer applies.

These operations only measure; none of them asserts a bound or a theorem
about which values may occur in sets of mutually unbiased bases.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations
from typing import NamedTuple

import numpy as np

from .core import DEFAULT_TOL, SQRT6, Tolerances, as_matrix, as_vector, mod_pi_sign
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


@dataclass(frozen=True)
class SubmatrixLoc:
    """Row and column index sets of a submatrix, 1-based and sorted."""

    rows: tuple
    cols: tuple

    def __post_init__(self):
        for name in ("rows", "cols"):
            idx = tuple(int(v) for v in getattr(self, name))
            if not idx or any(not 1 <= v <= 6 for v in idx):
                raise InvalidInput(f"{name} must be indices in 1..6")
            if list(idx) != sorted(set(idx)):
                raise InvalidInput(f"{name} must be strictly increasing")
            object.__setattr__(self, name, idx)

    def take(self, A):
        """The selected block of a 6x6 array (0-based internally)."""
        return A[np.ix_([r - 1 for r in self.rows], [c - 1 for c in self.cols])]


def _real_mask(A, eq_tol):
    # entries carry the 1/sqrt(6) scale, so realness is tested scale-relative
    with np.errstate(all="ignore"):
        return np.abs(A.imag) * SQRT6 < eq_tol


def count_real_entries(H, tol: Tolerances = DEFAULT_TOL) -> int:
    return int(np.sum(_real_mask(as_matrix(H), tol.eq_tol)))


def exceeds_real_bound(H, tol: Tolerances = DEFAULT_TOL) -> bool:
    return count_real_entries(H, tol) > REAL_ENTRY_BOUND


def _real_selections(H, p, q, column_ok):
    """Every p x q selection whose columns all pass column_ok, which maps the
    stacked row selections (n, p, 6) to an (n, 6) mask."""
    if not (1 <= p <= 6 and 1 <= q <= 6):
        raise InvalidInput("submatrix dimensions must lie in 1..6")
    row_sets = list(combinations(range(6), p))
    colok = column_ok(as_matrix(H)[np.array(row_sets)])
    out = []
    for rows, ok in zip(row_sets, colok.tolist()):
        for cols in combinations(range(6), q):
            if all(ok[c] for c in cols):
                out.append(SubmatrixLoc(tuple(r + 1 for r in rows), tuple(c + 1 for c in cols)))
    return out


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


_PAIRS = list(combinations(range(6), 2))
_PAIR_IDX = np.array(_PAIRS)
# The 15 pair partitions of range(6) as indices into _PAIRS, lexicographic.
_PARTITIONS = np.array([part for part in combinations(range(len(_PAIRS)), 3)
                        if len({i for k in part for i in _PAIRS[k]}) == 6])


def _h2_table(A, eq_tol):
    """T[i, j]: the rows _PAIRS[i] are orthogonal on the columns _PAIRS[j]."""
    with np.errstate(all="ignore"):
        P = np.conj(A[_PAIR_IDX[:, 0]]) * A[_PAIR_IDX[:, 1]]    # (row pair, column)
        return np.abs(P[:, _PAIR_IDX[:, 0]] + P[:, _PAIR_IDX[:, 1]]) < eq_tol


def count_h2_submatrices(H, tol: Tolerances = DEFAULT_TOL) -> int:
    """Number of the 225 2x2 submatrices whose two rows are orthogonal."""
    return int(np.sum(_h2_table(as_matrix(H), tol.eq_tol)))


def is_h2_reducible(H, tol: Tolerances = DEFAULT_TOL) -> H2Partition | None:
    """First pair-partition of rows and columns making all nine blocks
    orthogonal-row 2x2 submatrices, scanning both families of the 15
    partitions in canonical order, rows outer.  Returns an H2Partition of
    1-based pairs, or None."""
    T = _h2_table(as_matrix(H), tol.eq_tol)
    ok = T[_PARTITIONS[:, None, :, None], _PARTITIONS[None, :, None, :]].all(axis=(2, 3))
    hits = np.flatnonzero(ok)
    if not hits.size:
        return None
    one_based = lambda part: tuple((i + 1, j + 1) for i, j in (_PAIRS[k] for k in part))
    r, c = divmod(int(hits[0]), len(_PARTITIONS))
    return H2Partition(one_based(_PARTITIONS[r]), one_based(_PARTITIONS[c]))


def find_unitary_submatrices(H, k: int, tol: Tolerances = DEFAULT_TOL):
    """All k x k submatrices proportional to a unitary matrix, rows outer.

    The test is S S* = c I for some c > 0, entry-wise within eq_tol, which
    amounts to pairwise-orthogonal rows of equal norm; c is the mean of the
    diagonal of S S*.  All C(6, k)^2 blocks are tested in one batch.
    """
    if not (2 <= k <= 6):
        raise InvalidInput("k must lie in 2..6")
    sets = np.array(list(combinations(range(6), k)))
    S = as_matrix(H)[sets[:, None, :, None], sets[None, :, None, :]]    # (rows, cols, k, k)
    with np.errstate(all="ignore"):
        G = S @ np.conj(S).swapaxes(-1, -2)
        c = np.diagonal(G, axis1=-2, axis2=-1).real.mean(axis=-1)
        ok = (c > 0.0) & (np.abs(G - c[..., None, None] * np.eye(k)).max(axis=(-2, -1)) < tol.eq_tol)
    return [SubmatrixLoc(tuple(sets[r] + 1), tuple(sets[c_] + 1))
            for r, c_ in zip(*np.nonzero(ok))]


def submatrix_rank(H, loc: SubmatrixLoc, tol: Tolerances = DEFAULT_TOL) -> int:
    """Numerical rank of the selected block via singular values."""
    S = loc.take(as_matrix(H))
    sv = np.linalg.svd(S, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.sum(sv > tol.rank_tol * sv[0]))


def is_product_vector(v, factorization: str, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Rank-one test of the vector reshaped row-major to 2x3 or 3x2."""
    if factorization == "2x3":
        M = as_vector(v).reshape(2, 3)
    elif factorization == "3x2":
        M = as_vector(v).reshape(3, 2)
    else:
        raise InvalidInput("factorization must be '2x3' or '3x2'")
    sv = np.linalg.svd(M, compute_uv=False)
    return bool(sv[1] < tol.rank_tol * sv[0])


# One representative per grid class (see product_triple_exists): the row
# orders p with p[0] = 0 and p[1] < p[2], read row-major into 2x3.
_GRIDS = np.array([p for p in permutations(range(6))
                   if p[0] == 0 and p[1] < p[2]]).reshape(-1, 2, 3)


def product_triple_exists(H, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True when some row permutation and factorization make three of the
    six columns simultaneously product vectors.

    The rank of a column reshaped to 2x3 under a row order depends only on
    the grid: which indices share a block row and which share a column.
    Swapping the grid rows or permuting its columns keeps the rank, so the
    720 orders form 60 classes.  The 3x2 reshape under p is the transpose
    of the 2x3 one under (p0, p2, p4, p1, p3, p5), with the same singular
    values, so it adds no class.  The test is is_product_vector's SVD rank
    test, batched over 60 grids x 6 columns.

    The answer belongs to the matrix as given, not to its equivalence
    class: a row rephasing that is not a tensor product can remove the
    triple, so on a disguised matrix it answers for the disguise.
    """
    blocks = np.transpose(as_matrix(H)[_GRIDS], (0, 3, 1, 2))    # (grid, col, 2, 3)
    sv = np.linalg.svd(blocks, compute_uv=False)
    isprod = sv[..., 1] < tol.rank_tol * sv[..., 0]
    return bool((isprod.sum(axis=1) >= 3).any())


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


# The AnalysisReport fields each section of analyze fills in.
SECTION_FIELDS = {
    "real": ("real_entry_count", "exceeds_bound", "real_3x2_raw", "real_3x2_rephased"),
    "h2": ("h2_submatrix_count", "h2_reducible_partition"),
    "unitary": ("unitary_3x3",),
    "product": ("product_triple_found",),
}
ALL_SECTIONS = tuple(SECTION_FIELDS)


def analyze(H, tol: Tolerances = DEFAULT_TOL, sections=ALL_SECTIONS) -> AnalysisReport:
    fields = {"label": getattr(H, "label", None)}
    if "real" in sections:
        fields["real_entry_count"] = count_real_entries(H, tol)
        fields["exceeds_bound"] = fields["real_entry_count"] > REAL_ENTRY_BOUND
        fields["real_3x2_raw"] = find_real_submatrices(H, 3, 2, tol)
        fields["real_3x2_rephased"] = find_real_submatrices_up_to_rephasing(H, 3, 2, tol)
    if "h2" in sections:
        fields["h2_submatrix_count"] = count_h2_submatrices(H, tol)
        fields["h2_reducible_partition"] = is_h2_reducible(H, tol)
    if "unitary" in sections:
        fields["unitary_3x3"] = find_unitary_submatrices(H, 3, tol)
    if "product" in sections:
        fields["product_triple_found"] = product_triple_exists(H, tol)
    return AnalysisReport(**fields)
