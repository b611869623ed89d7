"""Fixed-order complex matrix arithmetic with one explicit tolerance policy.

Everything in this package works on 6x6 complex matrices whose entries,
for a Hadamard matrix, all have modulus 1/sqrt(6).  Predicates take their
tolerance from a Tolerances value, and residuals are measured in the
entry-wise max norm so that per-entry claims ("this element must be zero")
translate directly into the checks.  Each input rule has one owner here:
as_real (one int or float) and as_array (ints, floats, and complex numbers
where asked for; never text, bool or None), as_matrix (shape, finite
entries), as_hadamard (the refusal of a non-Hadamard input),
is_unimodular, as_index and as_indices (integers in a range), as_tuple
(iterables) and label_of; matrix_from_json reads each entry part with
as_real.  mod_pi_sign is the one phase comparison, and it is scale-free.
Fixed cut-offs: an entry of modulus below _PHASELESS has no phase (in
dephase and analysis' realness rule); to_lemma_form reads its tail within
10 * eq_tol.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import InvalidInput

SQRT6 = np.sqrt(6.0)
_MAX_DOUBLE = float(np.finfo(float).max)
_PHASELESS = 1e-12      # entries of smaller modulus have no phase

__all__ = [
    "SQRT6",
    "Tolerances",
    "DEFAULT_TOL",
    "CMat6",
    "ColVec6",
    "is_unitary",
    "is_hadamard",
    "modulus_residual",
    "unitarity_residual",
    "matrix_to_json",
    "matrix_from_json",
]


@dataclass(frozen=True)
class Tolerances:
    """Numerical policy shared by every predicate; eq_tol is its one setting.

    eq_tol        exactness tests (realness, orthogonality, patterns), in (0, 1)
    residual_tol  fixed acceptance threshold for optimizer outputs
    cluster_tol   fixed deduplication radius of numerical solutions
    rank_tol      fixed relative singular-value cutoff for rank decisions
    """

    eq_tol: float = 1e-9
    residual_tol: ClassVar[float] = 1e-8
    cluster_tol: ClassVar[float] = 1e-6
    rank_tol: ClassVar[float] = 1e-9

    def __post_init__(self):
        # below 1 a zero entry fails the modulus test; NaN fails this form too
        if not 0.0 < (eq_tol := as_real(self.eq_tol, "eq_tol")) < 1.0:
            raise InvalidInput("eq_tol must lie strictly between 0 and 1")
        object.__setattr__(self, "eq_tol", eq_tol)


def is_index(x) -> bool:
    """A Python or numpy integer; bool, float and str are not."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def safe_repr(x) -> str:
    """repr(x) for a refusal; repr itself refuses an int of over 4300 digits."""
    try:
        return repr(x)
    except ValueError:
        return "a value too long to print"


def as_real(x, name) -> float:
    """x as a float if it is a Python or numpy float or an int a double holds."""
    if isinstance(x, (float, np.floating)) or (is_index(x) and -_MAX_DOUBLE <= x <= _MAX_DOUBLE):
        return float(x)
    raise InvalidInput(f"{name} must be a real number, got {safe_repr(x)}")


def as_index(x, name, lo, hi) -> int:
    """x as an int if it is an index (is_index) in lo..hi, else InvalidInput."""
    if is_index(x) and lo <= x <= hi:
        return int(x)
    raise InvalidInput(f"{name} must be an integer in {lo}..{hi}, got {safe_repr(x)}")


def as_tuple(values, name) -> tuple:
    """tuple(values), or InvalidInput if values is not iterable."""
    try:
        return tuple(values)
    except TypeError:
        raise InvalidInput(f"{name} must be iterable, got {safe_repr(values)}") from None


def as_indices(values, name, lo, hi) -> tuple:
    """values as a tuple of ints, each read by as_index."""
    return tuple(as_index(v, name, lo, hi) for v in as_tuple(values, name))


DEFAULT_TOL = Tolerances()


def as_array(a, dtype, name, shape=None) -> np.ndarray:
    """np.asarray(a, dtype) if numpy reads a as numbers of that kind and shape."""
    try:
        arr = np.asarray(a)
    except ValueError:      # ragged nesting
        arr = np.asarray(None)
    if arr.dtype.kind not in ("iufc" if dtype is complex else "iuf"):
        raise InvalidInput(f"{name} must be {'complex' if dtype is complex else 'real'} numbers")
    if shape is not None and arr.shape != shape:
        raise InvalidInput(f"{name} must have shape {shape}, got {arr.shape}")
    return arr.astype(dtype, copy=False)


def _frozen_array(a, shape, name):
    arr = as_array(a, complex, name, shape)
    if not np.isfinite(arr).all():
        raise InvalidInput(f"{name} contains non-finite entries")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class CMat6:
    """An immutable 6x6 complex matrix with an optional text label.  == is
    identity; compare values with np.array_equal(a.entries, b.entries)."""

    entries: np.ndarray
    label: str | None = None

    def __post_init__(self):
        if not (self.label is None or isinstance(self.label, str)):
            raise InvalidInput(f"label must be a str or None, got {safe_repr(self.label)}")
        object.__setattr__(self, "entries", _frozen_array(self.entries, (6, 6), "entries"))

    def relabel(self, label):
        return CMat6(self.entries, label)


@dataclass(frozen=True, eq=False)
class ColVec6:
    """An immutable length-6 complex column vector.  == is identity; compare
    values with np.array_equal(u.entries, v.entries)."""

    entries: np.ndarray

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


def label_of(M):
    return M.label if isinstance(M, CMat6) else None


def is_unimodular(z) -> bool:
    """Every |z| lies within the default eq_tol of 1; NaN and inf fail."""
    return bool((np.abs(np.abs(z) - 1.0) <= DEFAULT_TOL.eq_tol).all())


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


def as_hadamard(M, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """as_matrix(M), or InvalidInput unless M is Hadamard at tol."""
    A = as_matrix(M)
    if not is_hadamard(A, tol):
        raise InvalidInput(f"not a Hadamard matrix within eq_tol = {tol.eq_tol!r}")
    return A


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

def matrix_to_json(M) -> str:
    A = as_matrix(M)
    label = label_of(M)
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
    """Parse the JSON matrix format of schemas/matrix.schema.json: a string
    label, a 6x6 matrix of [re, im] pairs and no other key.  Raises
    InvalidInput on any defect."""
    try:
        obj = json.loads(text)
    except (ValueError, TypeError) as exc:     # JSONDecodeError, huge ints, non-text
        raise InvalidInput(f"not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise InvalidInput("not valid JSON: nested too deeply") from exc
    if not isinstance(obj, dict) or set(obj) != {"label", "matrix"}:
        raise InvalidInput("JSON object must have exactly the keys 'label' and 'matrix'")
    if not isinstance(obj["label"], str):
        raise InvalidInput("'label' must be a string")
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
            entries[i, j] = complex(*(as_real(x, f"entry ({i},{j})") for x in cell))
    return CMat6(entries, obj["label"] or None)
