"""Multi-start search for vectors mutually unbiased to I and a Hadamard matrix.

A candidate vector is parameterized by five free phases (first entry pinned
to 1/sqrt(6)), which keeps every entry at modulus 1/sqrt(6) by construction
and removes the global-phase gauge.  Unbiasedness to H is the six real
equations 6 |<h_j, v>|^2 = 1.  ``solve_phases`` is a batched
Levenberg-Marquardt solver with per-start damping (Moré 1978); it runs every
start at once and drives each converging start to a machine-precision
residual.

Converged starts are deduplicated greedily in phase space (angular distance
with wraparound; each kept representative drops its near-duplicates among
the later starts in one array test).  ``extract_bases`` returns the
orthonormal sextets among them, enumerated in index order from one table of
pairwise column inner products, and ``verify_triple`` confirms each by
computations that table did not make: B B^H = I over the rows, the entry
moduli, and unbiasedness to H, so {I, H, B} is pairwise mutually unbiased.
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

from .core import DEFAULT_TOL, SQRT6, ColVec6, Tolerances, as_matrix, is_hadamard
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


@dataclass(frozen=True)
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
        if len(self.phases) != 5:
            raise InvalidInput("expected five free phases")
        object.__setattr__(self, "phases", tuple(float(p) for p in self.phases))
        object.__setattr__(self, "residual", float(self.residual))


@dataclass(frozen=True)
class OptimConfig:
    """Start budget and seed.  tol is a class attribute, not a field: the search
    decides at fixed thresholds, and cfg.tol stays readable for callers."""

    starts: int = 2000
    seed: int = 0
    tol: ClassVar[Tolerances] = DEFAULT_TOL

    def __post_init__(self):
        if self.starts < 1:
            raise InvalidInput("starts must be >= 1")
        if self.starts > np.iinfo(np.intp).max // 40:    # numpy's cap on the (starts, 5) draw
            raise InvalidInput("starts exceed what one array of start phases can hold")
        if not self.seed >= 0:
            raise InvalidInput("seed must be >= 0")


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
        if self.error is None:
            if min(self.n_mu_vectors, self.n_bases, self.n_triples) < 0:
                raise InvalidInput("counts must be non-negative on valid rows")
            if self.n_triples > self.n_bases:
                raise InvalidInput("n_triples cannot exceed n_bases")


def _phases_to_vectors(P):
    """(..., 5) phase rows to (..., 6) unit vectors with pinned first entry."""
    P = np.asarray(P, dtype=float)
    V = np.empty(P.shape[:-1] + (6,), dtype=complex)
    V[..., 0] = 1.0 / SQRT6
    V[..., 1:] = np.exp(1j * P) / SQRT6
    return V


def _mu_defects(Hc, P):
    """Batched defects G[n, j] = 6 |<h_j, v_n>|^2 - 1 and their Jacobian
    J[n, j, k] in the five phases.  Hc is conj(H.entries)."""
    V = _phases_to_vectors(P)
    Z = V @ Hc                      # Z[n, j] = <h_j, v_n>
    G = 6.0 * np.abs(Z) ** 2 - 1.0
    W = np.conj(Z)[:, :, None] * Hc[1:, :].T
    W *= V[:, None, 1:]             # in place: W is the largest temporary
    return G, -12.0 * W.imag


def mu_objective(H, phases):
    """Unbiasedness defect Sum_j (6 |<h_j, v>|^2 - 1)^2 and its gradient
    in the five free phases.  Zero exactly when v is unbiased to every
    column of H."""
    P = np.asarray(phases, dtype=float).reshape(1, 5)
    G, J = _mu_defects(np.conj(as_matrix(H)), P)
    return float(G[0] @ G[0]), 2.0 * (G[0] @ J[0])


def _unbiasedness_residuals(A, V):
    """max_j |6 |<h_j, v>|^2 - 1| for each row v of V, from the vectors
    themselves: one product with the columns h_j of A."""
    return np.max(np.abs(6.0 * np.abs(V @ np.conj(A)) ** 2 - 1.0), axis=1)


def _normal_equations(r, J):
    """M = [J r]^T [J r]: J^T J, J^T r and |r|^2 in one (n, 6, 6) product."""
    A = np.concatenate([J, r[:, :, None]], axis=2)
    return A.transpose(0, 2, 1) @ A


def solve_phases(Hc, P, max_iters):
    """Batched Levenberg-Marquardt over rows P of five phases, driving the
    defects r = _mu_defects(Hc, P) to zero; Hc is conj(H.entries).  Every
    start carries its own damping lam, starting at 0.1: a step solves
    (J^T J + lam I) delta = -J^T r, is kept only if it lowers |r|, and lam
    shrinks by 3 (down to 1e-12) on success and grows by 10 on failure.  A
    start stops once |r| < 1e-13, once lam exceeds 1e10, or after max_iters
    steps.  Returns the final phases and each start's |r|.
    """
    P = np.array(P, dtype=float)
    out, cost = P.copy(), np.empty(len(P))
    idx = np.arange(len(P))
    M = _normal_equations(*_mu_defects(Hc, P))
    lam = np.full(len(P), 0.1)
    for _ in range(max_iters):
        stop = (M[:, 5, 5] < 1e-26) | (lam > 1e10)
        if stop.any():
            out[idx[stop]], cost[idx[stop]] = P[stop], M[stop, 5, 5]
            keep = ~stop
            idx, P, M, lam = idx[keep], P[keep], M[keep], lam[keep]
            if not idx.size:
                break
        step = np.linalg.solve(M[:, :5, :5] + lam[:, None, None] * np.eye(5), M[:, :5, 5:])
        trial = P - step[:, :, 0]
        Mt = _normal_equations(*_mu_defects(Hc, trial))
        ok = Mt[:, 5, 5] < M[:, 5, 5]
        np.copyto(P, trial, where=ok[:, None])
        np.copyto(M, Mt, where=ok[:, None, None])
        lam = np.maximum(lam * np.where(ok, 1.0 / 3.0, 10.0), 1e-12)
    out[idx], cost[idx] = P, M[:, 5, 5]
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
    insufficient start budget, not an error."""
    A = as_matrix(H)
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
    V = np.stack([np.asarray(m.vector.entries) for m in vectors])
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

    B must be Hadamard at tol: the row test B B^H = I and the moduli are
    computations extract_bases did not make, since it compared columns.
    Then every |<h_j, b_k>|^2 must be 1/6 within residual_tol."""
    A = as_matrix(H)
    B = np.stack([np.asarray(vectors[i].vector.entries) for i in clique], axis=1)
    if not is_hadamard(B, tol):
        return False
    return bool(np.max(_unbiasedness_residuals(A, B.T)) < tol.residual_tol)


def scan_m6(t_values, cfg: OptimConfig = OptimConfig()):
    """Sweep the symmetric family, one ScanRow per t in input order.
    Inadmissible parameters (DomainError) are captured in the row, never
    aborting the sweep.  Each row draws from its own child of cfg.seed, so results do
    not depend on how the grid is chunked.  Bases and triples are decided at
    the default tolerance, so no setting moves a count."""
    ts = [float(t) for t in t_values]
    children = np.random.SeedSequence(cfg.seed).spawn(len(ts))
    rows = []
    for idx, t in enumerate(ts):
        start = time.perf_counter()
        try:
            H = m6(float(t))
            rng = np.random.default_rng(children[idx])
            vecs = find_mu_vectors(H, cfg, rng=rng)
            bases = extract_bases(vecs)
            n_triples = sum(1 for b in bases if verify_triple(H, vecs, b))
            max_res = max((v.residual for v in vecs), default=0.0)
            rows.append(ScanRow(
                t=float(t), n_mu_vectors=len(vecs), n_bases=len(bases),
                n_triples=n_triples, max_residual=max_res,
                wall_time=time.perf_counter() - start,
            ))
        except DomainError as exc:
            rows.append(ScanRow(
                t=float(t), n_mu_vectors=-1, n_bases=-1, n_triples=-1,
                max_residual=float("nan"), wall_time=time.perf_counter() - start,
                error=str(exc),
            ))
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
            repr(float(row.t)),
            repr(float(a.real)),
            repr(float(a.imag)),
            str(row.n_mu_vectors),
            str(row.n_bases),
            str(row.n_triples),
            repr(float(row.max_residual)),
            str(cfg.starts),
            str(cfg.seed),
            wall,
        ]))
    return "\n".join(lines) + "\n"
