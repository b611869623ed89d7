"""Counterexample pipeline for the zero-entry claim about lemma-form columns.

The claim under test: once an order-6 Hadamard matrix is normalized so that
its first row and column are constant and its second column reads
(1, 1, -1, -1, s, -s)/sqrt(6), the third column is forced to have zero third
and sixth entries.  ``run_counterexample`` normalizes a member of the
symmetric one-parameter family into exactly that shape and measures the
third-column moduli, which all stay at 1/sqrt(6).  ``third_column_witness``
refutes the same claim abstractly and for every unimodular s at once: the
fully unimodular vector v = (1, w^2, 1, w^2, -w, -w)/sqrt(6), w = exp(-i pi/3),
is orthogonal to both normalized columns, because 1 - w + w^2 = 0 makes its
entries sum to zero and its entries cancel in pairs against
(1, 1, -1, -1, s, -s).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (DEFAULT_TOL, SQRT6, ColVec6, CMat6, as_array, as_real, is_unimodular,
                   modulus_residual, unitarity_residual)
from .equivalence import TransformRecord, apply, split_tail
from .errors import InvalidInput
from .families import m6

__all__ = [
    "LemmaReport",
    "ThirdColumnWitness",
    "run_counterexample",
    "verify_tail_structure",
    "third_column_witness",
    "VERDICT_REFUTED",
    "VERDICT_NOT_REFUTED",
]

VERDICT_REFUTED = "LEMMA_CLAIM_REFUTED"
VERDICT_NOT_REFUTED = "NOT_REFUTED"


@dataclass(frozen=True, eq=False)
class LemmaReport:
    """Outcome of the pipeline with every assertion evaluated separately.

    third_col_moduli are the raw entry moduli of the normalized matrix, so
    for a genuine Hadamard matrix each sits at 1/sqrt(6); the refuted claim
    needs two of them to be zero.  The verdict needs every audit to pass.
    """

    t: float
    is_hadamard_ok: bool
    hadamard_residual: float
    lemma_form_ok: bool
    tail_ok: bool
    s: complex | None
    third_col_moduli: tuple
    min_third_col_modulus: float
    verdict: str
    record: TransformRecord
    matrix: CMat6


@dataclass(frozen=True, eq=False)
class ThirdColumnWitness:
    """A unimodular vector orthogonal to both normalized leading columns.

    residuals holds the two orthogonality defects |<c1, v>| and |<c2, v>|,
    both re-computed by direct inner products.  Every entry of v has
    modulus exactly 1/sqrt(6) by construction, none of them zero.
    """

    s: complex
    v: ColVec6
    residuals: tuple


def run_counterexample(t: float) -> LemmaReport:
    """Normalize m6(t) to lemma form by the fixed recipe and audit the claim.

    Recipe: multiply column 2 by conj(a), lift rows 3..6 above rows 1..2,
    then rephase columns 3..6 so the new first row is constant.  All of it
    is carried by one replayable TransformRecord.  Audits use the default
    eq_tol, so t alone sets the verdict; any failed audit gives NOT_REFUTED.
    """
    H = m6(t)
    U = H.entries * SQRT6
    a = U[1, 2]
    row3_tail = U[2, 2:6]  # entries b, c, d, e of the third row
    record = TransformRecord(
        row_perm=(3, 4, 5, 6, 1, 2),
        col_perm=(1, 2, 3, 4, 5, 6),
        row_phases=(1.0,) * 6,
        col_phases=(1.0, np.conj(a)) + tuple(np.conj(z) for z in row3_tail),
    )
    M = apply(H, record)
    A = M.entries

    eq = DEFAULT_TOL.eq_tol
    hadamard_residual = max(unitarity_residual(M), modulus_residual(M))
    is_hadamard_ok = hadamard_residual < eq

    border = np.concatenate([A[0, :], A[:, 0]]) * SQRT6
    c2 = A[:, 1] * SQRT6
    lemma_form_ok = bool(
        np.max(np.abs(border - 1.0)) < eq
        and abs(c2[1] - 1.0) < eq
        and abs(c2[2] + 1.0) < eq
    )

    # the claim fixes the order (-1, s, -s): the -1 must come first
    split = split_tail(c2[3:6], eq)
    tail_ok = bool(split is not None and split[0] == 0 and abs(sum(c2[3:6]) + 1.0) <= eq)
    s = split[1] if tail_ok else None

    moduli = tuple(float(x) for x in np.abs(A[:, 2]))
    min_modulus = min(moduli)
    refuted = is_hadamard_ok and lemma_form_ok and tail_ok and min_modulus > 1.0 / SQRT6 - eq
    return LemmaReport(
        t=as_real(t, "t"),
        is_hadamard_ok=is_hadamard_ok,
        hadamard_residual=hadamard_residual,
        lemma_form_ok=lemma_form_ok,
        tail_ok=tail_ok,
        s=s,
        third_col_moduli=moduli,
        min_third_col_modulus=min_modulus,
        verdict=VERDICT_REFUTED if refuted else VERDICT_NOT_REFUTED,
        record=record,
        matrix=M.relabel(f"lemma_form({H.label})"),
    )


def verify_tail_structure(c2_tail):
    """Match three unimodular values against the multiset {-1, s, -s}.

    Inputs are expected pre-scaled to modulus 1 (raw entries times sqrt(6)).
    Returns s canonicalized to Im(s) >= 0 (exact-real pairs canonicalize to
    s = 1), or None when the pattern is absent.  The values must also sum
    to -1 within eq_tol, the premise the pattern encodes.  All tests are
    made at the default eq_tol.
    """
    z = as_array(c2_tail, complex, "tail", (3,))
    eq = DEFAULT_TOL.eq_tol
    if not is_unimodular(z):
        raise InvalidInput("tail values must be unimodular")
    if abs(np.sum(z) + 1.0) > eq:
        return None
    split = split_tail(z, eq)
    if split is None:
        return None
    u = split[1]
    if u.imag >= eq:
        return u
    if u.imag <= -eq:
        return -u
    return complex(1.0)


_W = np.exp(-1j * np.pi / 3.0)
_WITNESS = np.array([1.0, _W**2, 1.0, _W**2, -_W, -_W]) / SQRT6


def third_column_witness(s: complex) -> ThirdColumnWitness:
    """A unimodular v/sqrt(6) orthogonal to c1 = (1, ..., 1)/sqrt(6) and
    c2 = (1, 1, -1, -1, s, -s)/sqrt(6), in closed form.

    One vector serves every s: x = (1, w^2, 1, w^2, -w, -w) with
    w = exp(-i pi/3), v = x/sqrt(6).  Two identities make it a witness:
    6 <c1, v> = sum(x) = 2(1 - w + w^2) = 0, as w is a primitive sixth root
    of unity; and 6 <c2, v> = (x1 + x2 - x3 - x4) + conj(s)(x5 - x6) = 0,
    as x1 = x3, x2 = x4 and x5 = x6, whatever s is.  The residuals
    |<c1, v>| and |<c2, v>| are re-computed by direct inner products with
    the columns built from s.  s must be unimodular at the default eq_tol.
    """
    s = as_array(s, complex, "s", ()).item()
    if not is_unimodular(s):
        raise InvalidInput("s must be unimodular")
    c1 = np.ones(6, dtype=complex) / SQRT6
    c2 = np.array([1.0, 1.0, -1.0, -1.0, s, -s]) / SQRT6
    residuals = float(abs(np.vdot(c1, _WITNESS))), float(abs(np.vdot(c2, _WITNESS)))
    return ThirdColumnWitness(s=s, v=ColVec6(_WITNESS), residuals=residuals)
