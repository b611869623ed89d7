"""Fixed-order complex matrix arithmetic with one explicit tolerance policy.

Everything in this package works on 6x6 complex matrices whose entries,
for a Hadamard matrix, all have modulus 1/sqrt(6).  Predicates never use a
hidden epsilon: they take a Tolerances value, and residuals are measured
in the entry-wise max norm so that per-entry claims ("this element must be
zero") translate directly into the checks.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInput

SQRT6 = np.sqrt(6.0)
_MAX_DOUBLE = float(np.finfo(float).max)

__all__ = [
    "SQRT6",
    "Tolerances",
    "DEFAULT_TOL",
    "CMat6",
    "ColVec6",
    "as_matrix",
    "as_vector",
    "inner",
    "is_unitary",
    "is_hadamard",
    "modulus_residual",
    "unitarity_residual",
    "mod_pi_sign",
    "matrix_to_json",
    "matrix_from_json",
]


@dataclass(frozen=True)
class Tolerances:
    """Numerical policy shared by every predicate.

    eq_tol        exactness tests (realness, orthogonality, pattern matching)
    residual_tol  acceptance threshold for optimizer outputs
    cluster_tol   deduplication radius for distinct numerical solutions
    rank_tol      relative singular-value cutoff for rank decisions
    """

    eq_tol: float = 1e-9
    residual_tol: float = 1e-8
    cluster_tol: float = 1e-6
    rank_tol: float = 1e-9

    def __post_init__(self):
        for name in ("eq_tol", "residual_tol", "cluster_tol", "rank_tol"):
            if not getattr(self, name) > 0.0:
                raise InvalidInput(f"{name} must be strictly positive")
        if self.eq_tol > self.cluster_tol:
            raise InvalidInput("eq_tol must not exceed cluster_tol")


DEFAULT_TOL = Tolerances()


def _frozen_array(a, shape, name):
    arr = np.asarray(a, dtype=complex)
    if arr.shape != shape:
        raise InvalidInput(f"{name} must have shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
        raise InvalidInput(f"{name} contains non-finite entries")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class CMat6:
    """An immutable 6x6 complex matrix with an optional text label."""

    entries: np.ndarray
    label: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "entries", _frozen_array(self.entries, (6, 6), "entries"))

    def col(self, j):
        """Column j (0-based) as a plain array."""
        return np.array(self.entries[:, j])

    def relabel(self, label):
        return CMat6(self.entries, label)


@dataclass(frozen=True)
class ColVec6:
    """An immutable length-6 complex column vector."""

    entries: np.ndarray
    label: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "entries", _frozen_array(self.entries, (6,), "entries"))


def as_matrix(M) -> np.ndarray:
    """Coerce a CMat6 or array-like to a validated 6x6 complex ndarray."""
    if isinstance(M, CMat6):
        return M.entries
    return _frozen_array(M, (6, 6), "matrix")


def as_vector(v) -> np.ndarray:
    if isinstance(v, ColVec6):
        return v.entries
    return _frozen_array(v, (6,), "vector")


def inner(u, v) -> complex:
    """Hermitian inner product, conjugate-linear in the first argument."""
    return complex(np.vdot(as_vector(u), as_vector(v)))


def _saturated(x) -> float:
    """x as a float, with a non-finite value (from overflow) replaced by the
    largest finite double, so a residual always stays a JSON number."""
    x = float(x)
    return x if math.isfinite(x) else _MAX_DOUBLE


def unitarity_residual(M) -> float:
    """Entry-wise max norm of M M* - I, saturated at the largest double."""
    A = as_matrix(M)
    with np.errstate(all="ignore"):
        return _saturated(np.max(np.abs(A @ A.conj().T - np.eye(6))))


def is_unitary(M, tol: Tolerances = DEFAULT_TOL) -> bool:
    return unitarity_residual(M) < tol.eq_tol


def modulus_residual(M) -> float:
    """Max over entries of |sqrt(6) |m_ij| - 1|: the deviation of the entry
    moduli from 1/sqrt(6), relative to that modulus, saturated at the
    largest double."""
    with np.errstate(all="ignore"):
        return _saturated(np.max(np.abs(np.abs(as_matrix(M)) * SQRT6 - 1.0)))


def is_hadamard(M, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True iff modulus_residual and unitarity_residual are both below eq_tol."""
    return modulus_residual(M) < tol.eq_tol and is_unitary(M, tol)


def mod_pi_sign(z, anchor, eq_tol):
    """Elementwise sign of z / anchor where that ratio is real, else 0.  The
    test is scale-free, |Im w| < eq_tol |w| for w = z conj(anchor): the two
    phases agree mod pi.  A zero z or anchor has no phase and gives 0, and
    so does a product whose overflow leaves a NaN or infinite imaginary
    part."""
    with np.errstate(all="ignore"):
        w = np.asarray(z) * np.conj(anchor)
        real = np.abs(w.imag) < eq_tol * np.abs(w)
        return np.where(real, np.sign(w.real), 0.0).astype(int)


# ---------------------------------------------------------------------------
# JSON matrix format.  The contract is bit-exact: both parts of every entry
# are serialized with 17 significant digits, which round-trips IEEE doubles.

def matrix_to_json(M, label=None) -> str:
    A = as_matrix(M)
    if label is None and isinstance(M, CMat6):
        label = M.label
    rows = []
    for i in range(6):
        cells = ", ".join(
            f"[{format(A[i, j].real, '.16e')}, {format(A[i, j].imag, '.16e')}]"
            for j in range(6)
        )
        rows.append(f"    [{cells}]")
    body = ",\n".join(rows)
    return (
        "{\n"
        f'  "label": {json.dumps(label if label is not None else "")},\n'
        '  "matrix": [\n' + body + "\n  ]\n"
        "}\n"
    )


def matrix_from_json(text: str) -> CMat6:
    """Parse the JSON matrix format.  Raises InvalidInput on any defect."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidInput(f"not valid JSON: {exc}") from exc
    if not isinstance(obj, dict) or "matrix" not in obj:
        raise InvalidInput("JSON object must contain a 'matrix' key")
    m = obj["matrix"]
    if not (isinstance(m, list) and len(m) == 6):
        raise InvalidInput("'matrix' must be a list of 6 rows")
    entries = np.empty((6, 6), dtype=complex)
    for i, row in enumerate(m):
        if not (isinstance(row, list) and len(row) == 6):
            raise InvalidInput(f"row {i} must be a list of 6 entries")
        for j, cell in enumerate(row):
            if not (isinstance(cell, list) and len(cell) == 2):
                raise InvalidInput(f"entry ({i},{j}) must be a [re, im] pair")
            re, im = cell
            if not isinstance(re, (int, float)) or not isinstance(im, (int, float)):
                raise InvalidInput(f"entry ({i},{j}) has non-numeric parts")
            try:
                entries[i, j] = complex(re, im)
            except OverflowError as exc:
                raise InvalidInput(f"entry ({i},{j}) does not fit a double: {exc}") from exc
    label = obj.get("label") or None
    if label is not None and not isinstance(label, str):
        raise InvalidInput("'label' must be a string")
    return CMat6(entries, label)
