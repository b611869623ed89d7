"""Constructors for the named order-6 Hadamard families.

m6(t)          the symmetric one-parameter family M6(a), a = e^{it}
fourier_f6     the two-parameter Fourier family (dephased form)
b6(theta)      the self-adjoint one-parameter family
s6()           the isolated spectral matrix built from cube roots of unity

Every constructor returns a dephased CMat6 and verifies it Hadamard at the
default tolerance, once, on the matrix it returns; a failed verification
is a bug, not a value.
"""

from __future__ import annotations

import numpy as np

from .core import (CMat6, DEFAULT_TOL, SQRT6, Tolerances, as_array, as_index, as_real, is_hadamard,
                   is_unimodular)
from .errors import DomainError, SolveError

__all__ = [
    "m6",
    "solve_m6_entries",
    "is_admissible_t",
    "fourier_f6",
    "b6",
    "s6",
    "B6_THETA_MIN",
    "B6_THETA_MAX",
    "m6_grid",
]

# ---------------------------------------------------------------------------
# M6(a): symmetric family.  Layout (times 1/sqrt(6)):
#
#   1   1   1   1   1   1
#   1  -1   a   a  -a  -a
#   1   a   b   c   d   e
#   1   a   c   b   e   d
#   1  -a   d   e   f   g
#   1  -a   e   d   g   f
#
# with a = e^{it}, t in (pi/2, pi] u (3pi/2, 2pi).  t = 2pi would give the
# excluded parameter a = 1, which the entry solver rejects.

_HALF_PI = np.pi / 2.0
_TWO_PI = 2.0 * np.pi


def _checked(H: CMat6, tol: Tolerances = DEFAULT_TOL) -> CMat6:
    """H itself once it passes the Hadamard check; a failure is a bug."""
    if not is_hadamard(H, tol):
        raise SolveError(f"{H.label} failed the Hadamard check")
    return H


def is_admissible_t(t: float) -> bool:
    """Membership in (pi/2, pi] u (3pi/2, 2pi) of a real t (else InvalidInput)."""
    t = as_real(t, "t")
    return (_HALF_PI < t <= np.pi) or (1.5 * np.pi < t < _TWO_PI)


def _pair_from_sum(S: complex):
    """The two unimodular numbers x, y with x + y = S and |x| = |y| = 1.

    Writing x, y = S/2 +- u, the offset u must be perpendicular to S with
    |S/2|^2 + |u|^2 = 1, so u = i * (S/|S|) * sqrt(1 - |S/2|^2).  The sums of
    solve_m6_entries have S != 0 and |S/2| <= 1/sqrt(2) (0.70710678 at most
    for |a| within 1e-9 of 1), so the root is real.
    """
    half = S / 2.0
    u = 1j * (S / abs(S)) * np.sqrt(1.0 - abs(half) ** 2)
    return half + u, half - u


def solve_m6_entries(a: complex):
    """Entries (b, c, d, e, f, g) completing the symmetric family at parameter a.

    Orthogonality of the rows forces only the pair sums:

        b + c = (a^2 - 2a - 1) / 2
        d + e = -(1 + a^2) / 2
        f + g = (a^2 + 2a - 1) / 2

    and unimodularity splits each sum into a conjugate-symmetric pair.
    d + e is formed as -a Re(a), equal for |a| = 1: 1 + a^2 cancels near +-i.
    At the open arc ends a = +-i, d + e = 0; they are refused like a = 1.
    The branch signs are fixed to the one continuous in t that passes
    through t = pi; the remaining orthogonality relations then hold
    identically.  Only the domain of a is checked here, at the default
    eq_tol: m6 verifies the matrix it assembles from these entries.
    """
    a = as_array(a, complex, "a", ())[()]
    if not is_unimodular(a):
        raise DomainError(f"parameter a must be unimodular, got |a| = {abs(a)}")
    if a == 1.0 or a.real == 0.0:
        raise DomainError("a = 1 and a = +-i are excluded parameters of the family")
    aa = a * a
    b, c = _pair_from_sum((aa - 2.0 * a - 1.0) / 2.0)
    d, e = _pair_from_sum(-a * a.real)
    f, g = _pair_from_sum((aa + 2.0 * a - 1.0) / 2.0)
    return b, c, d, e, f, g


def _assemble_m6(a, b, c, d, e, f, g):
    return np.array(
        [
            [1, 1, 1, 1, 1, 1],
            [1, -1, a, a, -a, -a],
            [1, a, b, c, d, e],
            [1, a, c, b, e, d],
            [1, -a, d, e, f, g],
            [1, -a, e, d, g, f],
        ],
        dtype=complex,
    ) / SQRT6


def m6(t: float, tol: Tolerances = DEFAULT_TOL) -> CMat6:
    """The symmetric family member at parameter t (radians).

    Raises DomainError for t outside (pi/2, pi] u (3pi/2, 2pi); the open
    end t = 2pi would give the excluded parameter a = 1.
    """
    if not is_admissible_t(t):
        raise DomainError(
            f"t = {t} outside the admissible set (pi/2, pi] u (3pi/2, 2pi)"
        )
    a = np.exp(1j * as_real(t, "t"))
    H = _assemble_m6(a, *solve_m6_entries(a))
    return _checked(CMat6(H, label=f"m6(t={t!r})"), tol)


def m6_grid(n_per_arc: int = 25):
    """A standard admissible grid: n >= 1 points per arc, excluding t = 2pi."""
    n_per_arc = as_index(n_per_arc, "n_per_arc", 1, np.iinfo(np.intp).max // 16)  # numpy's cap
    first = np.linspace(_HALF_PI, np.pi, n_per_arc + 1)[1:]
    second = np.linspace(1.5 * np.pi, _TWO_PI, n_per_arc + 2)[1:-1]
    return np.concatenate([first, second])


# ---------------------------------------------------------------------------
# Two-parameter Fourier family.  Dephased form: entry (j, k) is
# w^{jk} e^{i R_jk} / sqrt(6) with w = e^{i pi/3} and phases x1, x2 added on
# odd rows in column classes k = 1, 4 and k = 2, 5.  The phases are reduced
# mod 2pi first, which is exact and leaves [0, 2pi) bit for bit: a huge phase
# added to pi j k / 3 unreduced would swamp that term in rounding.

def fourier_f6(x1: float = 0.0, x2: float = 0.0) -> CMat6:
    p1, p2 = as_real(x1, "x1"), as_real(x2, "x2")
    if not (np.isfinite(p1) and np.isfinite(p2)):
        raise DomainError(f"f6 phases must be finite, got x1 = {x1!r}, x2 = {x2!r}")
    j, k = np.indices((6, 6))
    R = (((j % 2 == 1) & (k % 3 == 1)) * np.mod(p1, _TWO_PI)
         + ((j % 2 == 1) & (k % 3 == 2)) * np.mod(p2, _TWO_PI))
    H = np.exp(1j * (np.pi / 3.0) * j * k + 1j * R) / SQRT6
    return _checked(CMat6(H, label=f"f6(x1={x1!r}, x2={x2!r})"))


# ---------------------------------------------------------------------------
# Self-adjoint one-parameter family.  A dephased self-adjoint Hadamard with
# diagonal (1, -1, 1, -1, 1, -1) is determined by two unimodular numbers
# p = e^{i theta} and q = e^{i beta} through the pattern
#
#   1   1    1    1    1    1
#   1  -1    p    q   -q   -p
#   1   p*   1   -q    r    s
#   1   q*  -q*  -1    s   -s
#   1  -q*   r*   s*   1    p
#   1  -p*   s*  -s*   p*  -1
#
# where s = (q - p* - 2) / (1 - p* q) and r = -p* q s follow from the
# orthogonality relations.  Unitarity then reduces to a single real curve,
#
#   1 + cos(theta) - cos(beta) + sin(theta) sin(beta) = 0,
#
# which is solvable exactly when cos(theta) <= (sqrt(3) - 1) / 2.  That
# bound defines the admissible arc below; beta is taken on the branch with
# the positive arccos offset.  At theta = pi the member degenerates to a
# matrix of fourth roots of unity with extra real structure; everywhere
# else the family has 16 real entries and no real 3x2 submatrix.

B6_THETA_MIN = float(np.arccos((np.sqrt(3.0) - 1.0) / 2.0))
B6_THETA_MAX = _TWO_PI - B6_THETA_MIN


def b6(theta: float) -> CMat6:
    """Self-adjoint family member at angle theta within the admissible arc."""
    th = as_real(theta, "theta")
    if not (B6_THETA_MIN <= th <= B6_THETA_MAX):
        raise DomainError(
            f"theta = {theta} outside the admissible arc "
            f"[{B6_THETA_MIN!r}, {B6_THETA_MAX!r}]"
        )
    amp = np.sqrt(1.0 + np.sin(th) ** 2)
    psi = np.arctan2(-np.sin(th), 1.0)
    beta = psi + np.arccos(np.clip((1.0 + np.cos(th)) / amp, -1.0, 1.0))
    p, q = np.exp(1j * th), np.exp(1j * beta)
    pb, qb = np.conj(p), np.conj(q)
    s = (q - pb - 2.0) / (1.0 - pb * q)
    r = -pb * q * s
    rb, sb = np.conj(r), np.conj(s)
    H = np.array(
        [
            [1, 1, 1, 1, 1, 1],
            [1, -1, p, q, -q, -p],
            [1, pb, 1, -q, r, s],
            [1, qb, -qb, -1, s, -s],
            [1, -qb, rb, sb, 1, p],
            [1, -pb, sb, -sb, pb, -1],
        ],
        dtype=complex,
    ) / SQRT6
    return _checked(CMat6(H, label=f"b6(theta={theta!r})"))


# ---------------------------------------------------------------------------
# Isolated spectral matrix: exponents of w = e^{2 pi i / 3}.

_S6_EXPONENTS = np.array(
    [
        [0, 0, 0, 0, 0, 0],
        [0, 0, 1, 1, 2, 2],
        [0, 1, 0, 2, 2, 1],
        [0, 1, 2, 0, 1, 2],
        [0, 2, 2, 1, 0, 1],
        [0, 2, 1, 2, 1, 0],
    ]
)


def s6() -> CMat6:
    w = np.exp(2j * np.pi / 3.0)
    return _checked(CMat6(w ** _S6_EXPONENTS / SQRT6, label="s6"))
