"""Hadamard equivalence moves with a full audit trail.

Two Hadamard matrices are equivalent when one maps to the other under row
and column permutations together with row and column rephasings.  Every
operation here that changes a matrix returns a TransformRecord so the move
can be replayed and checked: apply(source, record) reproduces the result
bit for bit, since it repeats the same products in the same order.

to_lemma_form searches the full equivalence orbit of a matrix for the
normal form whose upper-left 3x2 block is real with pattern

    1/sqrt(6) * [[1, 1], [1, y], [1, x]],   y, x in {+1, -1},

normalizing to (y, x) = (1, -1) whenever the block is not rank one.  In
that normalized form the last three entries of the second column follow
the pattern (-1, s, -s)/sqrt(6) for a unimodular s.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .core import (CMat6, DEFAULT_TOL, SQRT6, Tolerances, _frozen_array, as_hadamard, as_indices,
                   as_matrix, is_unimodular, label_of, mod_pi_sign)
from .errors import InvalidInput, SolveError

__all__ = [
    "TransformRecord",
    "LemmaForm",
    "random_record",
    "apply",
    "dephase",
    "to_lemma_form",
]


@dataclass(frozen=True, eq=False)
class TransformRecord:
    """One equivalence move: result = diag(row_phases) P_row H P_col diag(col_phases).

    Permutations are stored 1-based: row_perm[i] is the source row (1..6)
    that lands at destination row i.  Phases are unimodular complex numbers.
    """

    row_perm: tuple
    col_perm: tuple
    row_phases: np.ndarray
    col_phases: np.ndarray

    def __post_init__(self):
        for name in ("row_perm", "col_perm"):
            p = as_indices(getattr(self, name), name, 1, 6)
            if sorted(p) != [1, 2, 3, 4, 5, 6]:
                raise InvalidInput(f"{name} must be a permutation of 1..6, got {p}")
            object.__setattr__(self, name, p)
        for name in ("row_phases", "col_phases"):
            ph = _frozen_array(getattr(self, name), (6,), name)
            if not is_unimodular(ph):
                raise InvalidInput(f"{name} must be unimodular")
            object.__setattr__(self, name, ph)


def random_record(rng, permute_only: bool = False) -> TransformRecord:
    """A random equivalence move drawn from the given numpy Generator."""
    rp, cp = rng.permutation(6) + 1, rng.permutation(6) + 1
    if permute_only:
        one = np.ones(6, dtype=complex)
        return TransformRecord(rp, cp, one, one)
    rph = np.exp(2j * np.pi * rng.uniform(size=6))
    cph = np.exp(2j * np.pi * rng.uniform(size=6))
    return TransformRecord(rp, cp, rph, cph)


def apply(H, r: TransformRecord) -> CMat6:
    """Apply an equivalence move.  Entry moduli are unchanged."""
    A = as_matrix(H)
    rows = np.array(r.row_perm) - 1
    cols = np.array(r.col_perm) - 1
    B = r.row_phases[:, None] * A[np.ix_(rows, cols)] * r.col_phases[None, :]
    return CMat6(B, label_of(H))


def dephase(H):
    """Rephase so the first row and column are positive real.

    Returns (matrix, record).  The permutation parts of the record are
    identities; only phases act.  Raises InvalidInput when an entry of the
    first row or column vanishes, since its phase is then undefined.
    """
    A = as_matrix(H)
    # huge entries may overflow to non-finite ones, which CMat6 rejects
    with np.errstate(all="ignore"):
        if np.min(np.abs(A[:, 0])) < 1e-12 or np.min(np.abs(A[0, :])) < 1e-12:
            raise InvalidInput("dephasing undefined: zero entry in first row or column")
        rph = np.conj(A[:, 0] / np.abs(A[:, 0]))
        B = rph[:, None] * A
        cph = np.conj(B[0, :] / np.abs(B[0, :]))
        B = B * cph[None, :]
    # the matrix first: on overflow its finiteness error is the one reported
    D = CMat6(B, label_of(H))
    return D, TransformRecord((1, 2, 3, 4, 5, 6), (1, 2, 3, 4, 5, 6), rph, cph)


@dataclass(frozen=True, eq=False)
class LemmaForm:
    """A dephased equivalent of H whose upper-left 3x2 block is real.

    y, x are the block's sign parameters.  When (y, x) = (1, -1), s is the
    unimodular number such that rows 4..6 of the second column read
    (-1, s, -s)/sqrt(6) in the stored row order (s is the first element of
    the +-pair encountered top to bottom).  The rank-one case (y, x) = (1, 1)
    is returned without normalization and with s = None.
    """

    matrix: CMat6
    y: int
    x: int
    s: complex | None
    record: TransformRecord


def split_tail(z, eq_tol):
    """(k, u) for the first position k where the three values read -1 and,
    in order at the other two positions, u and -u, all within eq_tol;
    None when no position matches."""
    for k, (i, j) in enumerate(((1, 2), (0, 2), (0, 1))):
        if abs(z[k] + 1.0) < eq_tol and abs(z[i] + z[j]) < eq_tol:
            return k, complex(z[i])
    return None


# Candidate table axes of to_lemma_form, in lexicographic order.
_COL_PAIRS = np.array(list(permutations(range(6), 2)))
_ROW_TRIPLES = np.array(list(permutations(range(6), 3)))


def to_lemma_form(H, tol: Tolerances = DEFAULT_TOL) -> LemmaForm | None:
    """Search the equivalence orbit for the real 3x2 normal form.

    H must be a Hadamard matrix (is_hadamard at tol), else InvalidInput.
    Over all ordered column pairs (c1, c2) and ordered row triples, the
    candidates are the triples on which the ratios A[r, c2] / A[r, c1] are
    real multiples of each other (one phase per column then makes the 3x2
    block real).  In lexicographic order of (c1, c2, rows) the first
    normalizable hit, sign pattern (1, -1), wins; if only rank-one blocks
    exist, the first of those is returned unnormalized.  Returns None when
    no candidate exists.
    """
    A = as_hadamard(H, tol)
    R = (A[:, _COL_PAIRS[:, 1]] * np.conj(A[:, _COL_PAIRS[:, 0]])).T     # (30 pairs, 6 rows)
    # the first row of each triple is gathered apart, so no temporary reaches 128 KiB
    S = mod_pi_sign(R[:, _ROW_TRIPLES[:, 1:]], R[:, _ROW_TRIPLES[:, :1]], tol.eq_tol)
    for y, x in ((1, -1), (1, 1)):
        hits = np.flatnonzero((S[..., 0] == y) & (S[..., 1] == x))
        if hits.size:
            break
    else:
        return None
    # dephasing the hit makes its block real: the first column is |A[r, c1]| sqrt(6),
    # which is_hadamard bounds, and the second the hit's real ratios times positive
    # scales, so its signs are (1, y, x)
    p, t = divmod(int(hits[0]), len(_ROW_TRIPLES))
    rows, cols = _ROW_TRIPLES[t].tolist(), _COL_PAIRS[p].tolist()
    row_perm = tuple(r + 1 for r in rows + [r for r in range(6) if r not in rows])
    col_perm = tuple(c + 1 for c in cols + [c for c in range(6) if c not in cols])
    D, drec = dephase(A[np.ix_(np.array(row_perm) - 1, np.array(col_perm) - 1)])
    s = None
    if (y, x) == (1, -1):
        split = split_tail(D.entries[3:, 1] * SQRT6, tol.eq_tol * 10.0)
        if split is None:
            raise SolveError("second column tail does not read (-1, s, -s)")
        s = split[1]
    rec = TransformRecord(row_perm, col_perm, drec.row_phases, drec.col_phases)
    return LemmaForm(CMat6(D.entries, label_of(H)), y, x, s, rec)
