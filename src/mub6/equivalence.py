"""Hadamard equivalence moves with a full audit trail.

Two Hadamard matrices are equivalent when one maps to the other under row
and column permutations together with row and column rephasings.  Every
operation here that changes a matrix returns a TransformRecord so the move
can be replayed and checked: apply(source, record) must reproduce the
result to machine precision.

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

from .core import CMat6, DEFAULT_TOL, SQRT6, Tolerances, as_matrix, is_hadamard
from .errors import InvalidInput, SolveError

__all__ = [
    "TransformRecord",
    "LemmaForm",
    "identity_record",
    "random_record",
    "apply",
    "dephase",
    "to_lemma_form",
]


@dataclass(frozen=True)
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
            p = tuple(int(v) for v in getattr(self, name))
            if sorted(p) != [1, 2, 3, 4, 5, 6]:
                raise InvalidInput(f"{name} must be a permutation of 1..6, got {p}")
            object.__setattr__(self, name, p)
        for name in ("row_phases", "col_phases"):
            ph = np.asarray(getattr(self, name), dtype=complex)
            if ph.shape != (6,):
                raise InvalidInput(f"{name} must have 6 entries")
            if np.max(np.abs(np.abs(ph) - 1.0)) > 1e-9:
                raise InvalidInput(f"{name} must be unimodular")
            ph = ph.copy()
            ph.setflags(write=False)
            object.__setattr__(self, name, ph)


def identity_record() -> TransformRecord:
    one = np.ones(6, dtype=complex)
    return TransformRecord((1, 2, 3, 4, 5, 6), (1, 2, 3, 4, 5, 6), one, one)


def random_record(rng, permute_only: bool = False) -> TransformRecord:
    """A random equivalence move drawn from the given numpy Generator."""
    rp = tuple(int(v) + 1 for v in rng.permutation(6))
    cp = tuple(int(v) + 1 for v in rng.permutation(6))
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
    label = H.label if isinstance(H, CMat6) else None
    return CMat6(B, label)


def dephase(H, tol: Tolerances = DEFAULT_TOL):
    """Rephase so the first row and column are positive real.

    Returns (matrix, record).  The permutation parts of the record are
    identities; only phases act.  Raises InvalidInput when an entry of the
    first row or column vanishes, since its phase is then undefined.
    """
    A = as_matrix(H)
    if np.min(np.abs(A[:, 0])) < 1e-12 or np.min(np.abs(A[0, :])) < 1e-12:
        raise InvalidInput("dephasing undefined: zero entry in first row or column")
    rph = np.conj(A[:, 0] / np.abs(A[:, 0]))
    B = rph[:, None] * A
    cph = np.conj(B[0, :] / np.abs(B[0, :]))
    B = B * cph[None, :]
    rec = TransformRecord((1, 2, 3, 4, 5, 6), (1, 2, 3, 4, 5, 6), rph, cph)
    label = H.label if isinstance(H, CMat6) else None
    return CMat6(B, label), rec


@dataclass(frozen=True)
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

    @property
    def rank_one(self) -> bool:
        return self.y == 1 and self.x == 1


def _collinear_signs(z, eq_tol):
    """Signs (s1, s2, s3) if the three complex numbers lie on one line
    through the origin (phases equal mod pi), else None.  Inputs carry
    modulus 1/6; products are rescaled to unit modulus before testing."""
    z0 = z[0]
    signs = [1]
    for zi in z[1:]:
        w = zi * np.conj(z0) * 36.0
        if abs(w.imag) >= eq_tol:
            return None
        signs.append(1 if w.real > 0.0 else -1)
    return tuple(signs)


def _positional_tail_s(tail_unimodular, eq_tol):
    """s such that the tail reads (-1, s, -s) in order, up to placement of
    the -1 anchor.  Returns None if the pattern does not match."""
    t = tail_unimodular
    for k in range(3):
        if abs(t[k] + 1.0) < eq_tol * 10.0:
            u, w = [t[i] for i in range(3) if i != k]
            if abs(u + w) < eq_tol * 10.0:
                return complex(u)
    return None


def to_lemma_form(H, tol: Tolerances = DEFAULT_TOL) -> LemmaForm | None:
    """Search the equivalence orbit for the real 3x2 normal form.

    Scans all ordered column pairs and ordered row triples for three rows
    on which the two columns are collinear mod pi (one phase per column
    makes the 3x2 block real).  Candidates are enumerated in lexicographic
    order and the first normalizable hit, pattern (1, -1), wins; if only
    rank-one blocks exist, the first of those is returned unnormalized.
    Returns None when no candidate exists.
    """
    A = as_matrix(H)
    hit = _scan_candidates(A, tol, want=(1, -1))
    if hit is None:
        hit = _scan_candidates(A, tol, want=(1, 1))
    if hit is None:
        return None
    (c1, c2, rows) = hit
    return _build_lemma_form(A, H, c1, c2, rows, tol)


def _scan_candidates(A, tol, want):
    for c1 in range(6):
        for c2 in range(6):
            if c2 == c1:
                continue
            z_all = A[:, c2] * np.conj(A[:, c1])
            for rows in permutations(range(6), 3):
                signs = _collinear_signs([z_all[r] for r in rows], tol.eq_tol)
                if signs is None:
                    continue
                if (signs[1], signs[2]) == want:
                    return (c1, c2, rows)
    return None


def _build_lemma_form(A, H, c1, c2, rows, tol):
    rest_rows = [r for r in range(6) if r not in rows]
    rest_cols = [c for c in range(6) if c not in (c1, c2)]
    row_perm = tuple(r + 1 for r in list(rows) + rest_rows)
    col_perm = tuple(c + 1 for c in [c1, c2] + rest_cols)
    P = A[np.ix_(np.array(row_perm) - 1, np.array(col_perm) - 1)]
    D, drec = dephase(P)
    rec = TransformRecord(row_perm, col_perm, drec.row_phases, drec.col_phases)

    B = D.entries
    block = B[:3, :2] * SQRT6
    if not (np.max(np.abs(block[:, 0] - 1.0)) < tol.eq_tol * 10.0
            and np.max(np.abs(block[:, 1].imag)) < tol.eq_tol * 10.0):
        raise SolveError("dephasing did not make the candidate 3x2 block real")
    y = 1 if block[1, 1].real > 0.0 else -1
    x = 1 if block[2, 1].real > 0.0 else -1

    s = None
    if (y, x) == (1, -1):
        s = _positional_tail_s(B[3:, 1] * SQRT6, tol.eq_tol)
        if s is None:
            raise SolveError("second column tail does not read (-1, s, -s)")

    # replay property: the record reproduces the normal form from the source
    replay = apply(A, rec)
    if not np.max(np.abs(replay.entries - B)) < 1e-12:
        raise SolveError("transform record does not replay the normal form")

    label = H.label if isinstance(H, CMat6) else None
    return LemmaForm(CMat6(B, label), y, x, s, rec)
