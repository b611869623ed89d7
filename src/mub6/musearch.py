"""Multi-start search for vectors mutually unbiased to I and a Hadamard matrix.

A candidate vector is parameterized by five free phases (first entry pinned
to 1/sqrt(6)), which keeps every entry at modulus 1/sqrt(6) by construction
and removes the global-phase gauge.  Unbiasedness to H is the six real
equations 6 |<h_j, v>|^2 = 1.  ``solve_phases`` is a batched
Levenberg-Marquardt solver with per-start damping (Moré 1978); it runs every
start at once and drives each converging start to a machine-precision
residual.  Its arrays hold one start per column: one kernel forms every
start's 6x6 normal matrix [J G]^T [J G], and the damped step is an in-place
LDL^T elimination (no square root, so no Cholesky).  No operation mixes
columns, so a start's result is a function of that start, H and the
iteration cap alone, bit for bit, whatever else is in the batch.

Converged starts are deduplicated greedily in phase space (angular distance
with wraparound; each kept representative drops its near-duplicates among
the later starts in one array test).  ``extract_bases`` returns the
orthonormal sextets among them, enumerated in index order from one table of
pairwise column inner products, and ``verify_triple`` confirms each by
computations that table did not make: B B^H = I over the rows, the entry
moduli, and unbiasedness to H; with H Hadamard, {I, H, B} is then pairwise
mutually unbiased.  The search and its objective refuse a non-Hadamard H,
and verify_triple rejects one.
The enumeration requires eq_tol <= 1/6: below that bound seven unit vectors
cannot be pairwise orthogonal in C^6 (their Gram matrix would be positive
definite), so no orthogonality clique exceeds six.  ``scan_m6`` sweeps the
symmetric family at the default thresholds, and ``render_scan_csv``
serializes its rows to CSV text whose bytes are reproducible for a fixed
seed.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .core import (DEFAULT_TOL, SQRT6, ColVec6, Tolerances, as_array, as_hadamard, as_index,
                   as_indices, as_matrix, as_real, as_tuple, is_hadamard)
from .errors import DomainError, InvalidInput
from .families import m6

__all__ = [
    "MUVector",
    "OptimConfig",
    "ScanRow",
    "CSV_HEADER",
    "mu_objective",
    "find_mu_vectors",
    "extract_bases",
    "verify_triple",
    "scan_m6",
    "render_scan_csv",
]

CSV_HEADER = "t,a_re,a_im,n_mu_vectors,n_bases,n_triples,max_residual,starts,seed,wall_time_s"
_MAX_ITERS = 500     # Levenberg-Marquardt step cap per start in find_mu_vectors


@dataclass(frozen=True, eq=False)
class MUVector:
    """One accepted search result.

    phases are the five free angles in [0, 2pi); vector is the full
    unit vector they parameterize; residual is the unbiasedness defect
    max_j |6 |<h_j, v>|^2 - 1|, re-evaluated from the stored vector, not
    taken from the solver's defects.
    """

    phases: tuple
    vector: ColVec6
    residual: float

    def __post_init__(self):
        phases = as_array(self.phases, float, "phases", (5,)).tolist()
        object.__setattr__(self, "phases", tuple(phases))
        if not isinstance(self.vector, ColVec6):
            raise InvalidInput(f"vector must be a ColVec6, got {type(self.vector).__name__}")
        object.__setattr__(self, "residual", as_real(self.residual, "residual"))


@dataclass(frozen=True)
class OptimConfig:
    """Start budget and seed.  tol is a class attribute, not a field: the search
    decides at fixed thresholds, and cfg.tol stays readable for callers."""

    starts: int = 2000
    seed: int = 0
    tol: ClassVar[Tolerances] = DEFAULT_TOL

    def __post_init__(self):
        cap = np.iinfo(np.intp).max // 40     # numpy's cap on the (starts, 5) draw
        object.__setattr__(self, "starts", as_index(self.starts, "starts", 1, cap))
        object.__setattr__(self, "seed", as_index(self.seed, "seed", 0, math.inf))


@dataclass(frozen=True)
class ScanRow:
    """One sweep point.  error is None for valid rows; when a family
    constructor rejects the parameter, counts are -1 and max_residual nan."""

    t: float
    n_mu_vectors: int
    n_bases: int
    n_triples: int
    max_residual: float
    wall_time: float
    error: str | None = None

    def __post_init__(self):
        for name in ("t", "max_residual", "wall_time"):
            object.__setattr__(self, name, as_real(getattr(self, name), name))
        lo = 0 if self.error is None else -1
        for name in ("n_mu_vectors", "n_bases", "n_triples"):
            object.__setattr__(self, name, as_index(getattr(self, name), name, lo, math.inf))
        if self.error is None and self.n_triples > self.n_bases:
            raise InvalidInput("n_triples cannot exceed n_bases")


def _phases_to_vectors(P):
    """(..., 5) phase rows to (..., 6) unit vectors with pinned first entry."""
    V = np.empty(P.shape[:-1] + (6,), dtype=complex)
    V[..., 0] = 1.0 / SQRT6
    V[..., 1:] = np.exp(1j * P) / SQRT6
    return V


def _tables(Hc):
    """The kernel's h0 = Hc[0] as (6, 1) and K = Hc[1:].T as (6, 5, 1)."""
    return Hc[0][:, None], Hc[1:].T[:, :, None]


def _normal_equations(tables, PT):
    """M = [J G]^T [J G] as a (6, 6, n) array for the phase columns PT (5, n):
    J^T J in M[:5, :5], J^T G in M[:5, 5] and |G|^2 in M[5, 5], where
    G_j = 6 |<h_j, v>|^2 - 1 = |S_j|^2 - 1 with S_j = h0_j + Sum_k U_jk,
    U_jk = K_jk e^{i phi_k}, and J_jk = dG_j/dphi_k = -2 Im(conj(S_j) U_jk)."""
    h0, K = tables
    E = 1j * PT
    U = K * np.exp(E, out=E)
    S = h0 + U.sum(axis=1)
    Sc = np.conj(S)
    A = np.empty((6, 6, PT.shape[1]))
    U *= Sc[:, None]
    np.multiply(U.imag, -2.0, out=A[:, :5])
    S *= Sc
    np.subtract(S.real, 1.0, out=A[:, 5])
    return np.einsum("jkn,jln->kln", A, A)


def mu_objective(H, phases):
    """Unbiasedness defect Sum_j (6 |<h_j, v>|^2 - 1)^2 and its gradient
    in the five free phases.  Zero exactly when v is unbiased to every
    column of H.  InvalidInput unless H is Hadamard and there are five
    finite real phases."""
    A = as_hadamard(H)
    PT = as_array(phases, float, "phases")
    if PT.size != 5 or not np.isfinite(PT).all():
        raise InvalidInput(f"expected five finite free phases, got {PT.ravel()!r}")
    M = _normal_equations(_tables(np.conj(A)), PT.reshape(5, 1))[:, :, 0]
    return float(M[5, 5]), 2.0 * M[:5, 5]


def _unbiasedness_residuals(A, V):
    """max_j |6 |<h_j, v>|^2 - 1| for each row v of V, from the vectors
    themselves: one product with the columns h_j of A."""
    return np.max(np.abs(6.0 * np.abs(V @ np.conj(A)) ** 2 - 1.0), axis=1)


def _ldl_step(M, lam):
    """The step x of (M[:5, :5] + lam I) x = M[:5, 5] for every column: LDL^T
    elimination in place on a copy of M[:5], with multipliers from the upper
    triangle, then back substitution in place on column 5.  A pivot that is
    not positive is set to 0, so its column's step is not finite."""
    B = M[:5].copy()
    d = B.reshape(30, -1)[::7]          # the diagonal, then the pivots
    d += lam
    for c in range(4):
        f = B[c, c + 1:5] / d[c]
        B[c + 1:, c + 1:] -= f[:, None] * B[c, c + 1:]
    np.maximum(d, 0.0, out=d)
    x = B[:, 5]
    for c in range(4, 0, -1):
        x[c] /= d[c]
        x[:c] -= B[:c, c] * x[c]
    x[0] /= d[0]
    return x


def solve_phases(Hc, P, max_iters):
    """Batched Levenberg-Marquardt over rows P of five phases, driving the
    defects G_j = 6 |<h_j, v>|^2 - 1 to zero; Hc is conj(H.entries).  Every
    start carries its own damping lam, starting at 0.1: a step solves
    (J^T J + lam I) delta = -J^T G, is kept only if it lowers |G|, and lam
    shrinks by 3 (down to 1e-12) on success and grows by 10 on failure.  A
    start stops once |G| < 1e-13, once lam exceeds 1e10, or after max_iters
    steps.  Returns the final phases and each start's |G|.  Inside, starts
    are columns ((5, n) phases, (6, 6, n) normal matrices) and no operation
    mixes columns, so a start's result is the same bits in any batch.
    """
    tables = _tables(Hc)
    PT = np.asarray(P, dtype=float).T.copy()
    out, cost = np.empty((PT.shape[1], 5)), np.empty(PT.shape[1])
    idx, lam = np.arange(PT.shape[1]), np.full(PT.shape[1], 0.1)
    M = _normal_equations(tables, PT)
    for _ in range(max_iters):
        stop = (M[5, 5] < 1e-26) | (lam > 1e10)
        if stop.any():
            out[idx[stop]], cost[idx[stop]] = PT[:, stop].T, M[5, 5, stop]
            keep = np.flatnonzero(~stop)
            idx, PT, M, lam = idx[keep], PT[:, keep], M[:, :, keep], lam[keep]
            if not idx.size:
                break
        with np.errstate(all="ignore"):     # a failed pivot's trial is not finite
            trial = PT - _ldl_step(M, lam)
            Mt = _normal_equations(tables, trial)
        ok = Mt[5, 5] < M[5, 5]
        back = np.flatnonzero(~ok)       # rejected steps keep their start
        trial[:, back], Mt[:, :, back] = PT[:, back], M[:, :, back]
        PT, M = trial, Mt
        lam = np.maximum(lam * np.where(ok, 1.0 / 3.0, 10.0), 1e-12)
    out[idx], cost[idx] = PT.T, M[5, 5]
    return out, np.sqrt(cost)


def _dedupe(P, cluster_tol):
    """Indices of greedy representatives: a row is kept unless its wrapped
    phase distance max_k |p_k - q_k| to a row kept before it is below
    cluster_tol.

    The loop runs once per kept row: keeping row i drops, in one vectorised
    test, every later undecided row within cluster_tol of it; rows before i
    are already decided, so this keeps the same set as testing each row
    against all earlier representatives.  Candidates are first screened on
    column 0 with the same elementwise expression, which the full test also
    requires of column 0 bit for bit, so the screen is exact and the
    five-column test runs only on the few rows that pass it.
    """
    undecided = np.ones(len(P), dtype=bool)
    idx = []
    for i in range(len(P)):
        if not undecided[i]:
            continue
        idx.append(i)
        near = i + 1 + np.flatnonzero(undecided[i + 1:])
        d0 = np.mod(P[i, 0] - P[near, 0] + np.pi, 2.0 * np.pi) - np.pi
        near = near[np.abs(d0) < cluster_tol]
        d = np.mod(P[i] - P[near] + np.pi, 2.0 * np.pi) - np.pi
        undecided[near[np.all(np.abs(d) < cluster_tol, axis=1)]] = False
    return idx


def find_mu_vectors(H, cfg: OptimConfig = OptimConfig(), rng=None):
    """Multi-start minimization; returns deduplicated MUVectors sorted by
    their phase tuples.  An empty list is a legitimate outcome of an
    insufficient start budget, not an error.  InvalidInput unless H is
    Hadamard at the default tolerance: for another H the count need not
    mean anything (for I every start converges, so it is the budget)."""
    A = as_hadamard(H)
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    P0 = rng.uniform(0.0, 2.0 * np.pi, size=(cfg.starts, 5))
    P, defect = solve_phases(np.conj(A), P0, _MAX_ITERS)
    P = np.mod(P[defect < Tolerances.residual_tol], 2.0 * np.pi)
    P = P[np.lexsort(P.T[::-1])]         # the order of Python's tuple sort
    P = P[_dedupe(P, Tolerances.cluster_tol)]
    V = _phases_to_vectors(P)
    return [MUVector(phases=p, vector=ColVec6(v), residual=r)
            for p, v, r in zip(P.tolist(), V, _unbiasedness_residuals(A, V))]


def extract_bases(vectors, tol: Tolerances = DEFAULT_TOL):
    """Every orthonormal sextet among the given vectors, enumerated in index
    order: the 6-cliques of the graph |<u, v>| < eq_tol, as ascending index
    tuples in lexicographic order.  The graph is built once from all the
    pairwise inner products; verify_triple confirms a sextet independently.

    Requires eq_tol <= 1/6 (else InvalidInput): seven unit vectors with
    pairwise |<u, v>| < 1/6 would have a positive definite 7x7 Gram matrix
    (Gershgorin), impossible in C^6, so no clique exceeds six and every
    sextet found is linearly independent.
    """
    if not tol.eq_tol <= 1.0 / 6.0:
        raise InvalidInput(f"eq_tol {tol.eq_tol!r} exceeds 1/6, so seven vectors "
                           "could pass as pairwise orthogonal in C^6")
    if len(vectors) < 6:
        return []
    V = np.stack([m.vector.entries for m in vectors])
    later = np.triu(np.abs(np.conj(V) @ V.T) < tol.eq_tol, 1)   # later[i, j]: j > i, orthogonal

    sextets = []

    def extend(clique, candidates):
        if len(clique) == 6:
            sextets.append(clique)
        elif len(clique) + np.count_nonzero(candidates) >= 6:    # else no sextet below
            for k in np.flatnonzero(candidates):
                extend(clique + (int(k),), candidates & later[k])

    extend((), np.ones(len(V), dtype=bool))
    return sextets


def verify_triple(H, vectors, clique, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Certify that the clique's six vectors, as the columns of B, form an
    orthonormal basis making {I, H, B} pairwise mutually unbiased.

    H and B must be Hadamard at tol, the legs I-H and I-B.  For B the row
    test B B^H = I and the moduli are computations extract_bases did not
    make, since it compared columns.  Then every |<h_j, b_k>|^2 must be 1/6
    within residual_tol, the leg H-B.  InvalidInput unless the clique is six
    distinct indices into vectors."""
    idx = as_indices(clique, "clique", 0, len(vectors) - 1)
    if len(set(idx)) != 6 or len(idx) != 6:
        raise InvalidInput(f"clique must be six distinct indices below {len(vectors)}")
    A = as_matrix(H)
    B = np.stack([vectors[i].vector.entries for i in idx], axis=1)
    if not (is_hadamard(A, tol) and is_hadamard(B, tol)):
        return False
    return bool(np.max(_unbiasedness_residuals(A, B.T)) < tol.residual_tol)


def scan_m6(t_values, cfg: OptimConfig = OptimConfig()):
    """Sweep the symmetric family, one ScanRow per t in input order.
    Inadmissible parameters (DomainError) are captured in the row, never
    aborting the sweep.  Each row draws from its own child of cfg.seed, so results do
    not depend on how the grid is chunked.  Bases and triples are decided at
    the default tolerance, so no setting moves a count."""
    ts = [as_real(t, "t") for t in as_tuple(t_values, "t_values")]
    children = np.random.SeedSequence(cfg.seed).spawn(len(ts))
    rows = []
    for idx, t in enumerate(ts):
        start = time.perf_counter()
        try:
            H = m6(t)
            rng = np.random.default_rng(children[idx])
            vecs = find_mu_vectors(H, cfg, rng=rng)
            bases = extract_bases(vecs)
            n_triples = sum(1 for b in bases if verify_triple(H, vecs, b))
            counts = (len(vecs), len(bases), n_triples)
            max_res = max((v.residual for v in vecs), default=0.0)
            error = None
        except DomainError as exc:
            counts, max_res, error = (-1, -1, -1), float("nan"), str(exc)
        rows.append(ScanRow(t, *counts, max_res, time.perf_counter() - start, error))
    return rows


def render_scan_csv(rows, cfg: OptimConfig, timing: bool = False) -> str:
    """CSV text for the rows.  Floats use shortest round-trip formatting.
    wall_time_s is written as 0.000000 unless timing is requested, keeping
    repeated runs byte-identical.  A non-finite t has no a = e^{it}: its
    a_re and a_im are written as nan."""
    lines = [CSV_HEADER]
    for row in rows:
        a = np.exp(1j * row.t) if math.isfinite(row.t) else complex(math.nan, math.nan)
        wall = f"{row.wall_time:.6f}" if timing else "0.000000"
        lines.append(",".join([
            repr(row.t),
            repr(float(a.real)),
            repr(float(a.imag)),
            str(row.n_mu_vectors),
            str(row.n_bases),
            str(row.n_triples),
            repr(row.max_residual),
            str(cfg.starts),
            str(cfg.seed),
            wall,
        ]))
    return "\n".join(lines) + "\n"
