"""Multi-start search for vectors mutually unbiased to I and a Hadamard matrix.

A candidate vector is parameterized by five free phases (first entry pinned
to 1/sqrt(6)), which keeps every entry at modulus 1/sqrt(6) by construction
and removes the global-phase gauge.  Unbiasedness to H is the six real
equations 6 |<h_j, v>|^2 = 1.  ``solve_phases`` is a batched
Levenberg-Marquardt solver with per-start damping (Moré 1978); it runs every
start at once and drives each converging start to a machine-precision
residual.

Converged starts are deduplicated greedily in phase space (angular distance
with wraparound, compared against an array of the representatives kept so
far), clustered into orthogonality 6-cliques, and each clique is certified
as a basis making {I, H, B} pairwise mutually unbiased.  ``scan_m6`` sweeps
the symmetric family and serializes rows to a CSV whose bytes are
reproducible for a fixed seed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .core import DEFAULT_TOL, SQRT6, ColVec6, Tolerances, as_matrix, modulus_residual
from .errors import DomainError, InvalidInput, SolveError
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
    "write_scan_csv",
    "write_plot_file",
]

CSV_HEADER = "t,a_re,a_im,n_mu_vectors,n_bases,n_triples,max_residual,starts,seed,wall_time_s"


@dataclass(frozen=True)
class MUVector:
    """One accepted search result.

    phases are the five free angles in [0, 2pi); vector is the full
    unit vector they parameterize; residual is the independently
    re-evaluated unbiasedness defect max_j |6 |<h_j, v>|^2 - 1|.
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
    starts: int = 2000
    max_iters: int = 500
    seed: int = 0
    tol: Tolerances = DEFAULT_TOL

    def __post_init__(self):
        if self.starts < 1:
            raise InvalidInput("starts must be >= 1")
        if self.max_iters < 1:
            raise InvalidInput("max_iters must be >= 1")


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


def residual_of(H, phases):
    """Independent unbiasedness residual, evaluated column by column."""
    A = as_matrix(H)
    v = _phases_to_vectors(phases)
    return max(abs(6.0 * abs(np.vdot(A[:, j], v)) ** 2 - 1.0) for j in range(6))


def _normal_equations(r, J):
    """M = [J r]^T [J r]: J^T J, J^T r and |r|^2 in one (n, 6, 6) product."""
    A = np.concatenate([J, r[:, :, None]], axis=2)
    return A.transpose(0, 2, 1) @ A


def solve_phases(fun, P, max_iters):
    """Batched Levenberg-Marquardt over rows of five phases.

    fun maps (n, 5) phases to real residuals r (n, m) and their Jacobian
    J (n, m, 5).  Every start carries its own damping lam, starting at 0.1:
    a step solves (J^T J + lam I) delta = -J^T r, is kept only if it lowers
    |r|, and lam shrinks by 3 (down to 1e-12) on success and grows by 10 on
    failure.  A start stops once |r| < 1e-13, once lam exceeds 1e10, or
    after max_iters steps.  Returns the final phases and each start's |r|.
    """
    P = np.array(P, dtype=float)
    out, cost = P.copy(), np.empty(len(P))
    idx = np.arange(len(P))
    M = _normal_equations(*fun(P))
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
        Mt = _normal_equations(*fun(trial))
        ok = Mt[:, 5, 5] < M[:, 5, 5]
        np.copyto(P, trial, where=ok[:, None])
        np.copyto(M, Mt, where=ok[:, None, None])
        lam = np.maximum(lam * np.where(ok, 1.0 / 3.0, 10.0), 1e-12)
    out[idx], cost[idx] = P, M[:, 5, 5]
    return out, np.sqrt(cost)


def _dedupe(P, cluster_tol):
    """Indices of greedy representatives: a row is kept unless its wrapped
    phase distance max_k |p_k - q_k| to a row kept before it is below
    cluster_tol."""
    kept = np.empty_like(P)
    idx = []
    for i, p in enumerate(P):
        d = np.mod(kept[:len(idx)] - p + np.pi, 2.0 * np.pi) - np.pi
        if not np.all(np.abs(d) < cluster_tol, axis=1).any():
            kept[len(idx)] = p
            idx.append(i)
    return idx


def find_mu_vectors(H, cfg: OptimConfig = OptimConfig(), rng=None):
    """Multi-start minimization; returns deduplicated MUVectors sorted by
    their phase tuples.  An empty list is a legitimate outcome of an
    insufficient start budget, not an error."""
    A = as_matrix(H)
    Hc = np.conj(A)
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    P0 = rng.uniform(0.0, 2.0 * np.pi, size=(cfg.starts, 5))
    P, defect = solve_phases(lambda Q: _mu_defects(Hc, Q), P0, cfg.max_iters)
    P = np.mod(P[defect < cfg.tol.residual_tol], 2.0 * np.pi)
    P = P[np.lexsort(P.T[::-1])]         # the order of Python's tuple sort
    out = []
    for i in _dedupe(P, cfg.tol.cluster_tol):
        phases = tuple(float(x) for x in P[i])
        out.append(MUVector(phases=phases, vector=ColVec6(_phases_to_vectors(P[i])),
                            residual=residual_of(A, P[i])))
    return out


def _maximal_cliques(adj):
    """Bron-Kerbosch with pivoting; deterministic order on sorted vertices."""
    cliques = []

    def expand(R, P, X):
        if not P and not X:
            cliques.append(tuple(sorted(R)))
            return
        pivot = max(P | X, key=lambda u: (len(P & adj[u]), -u))
        for v in sorted(P - adj[pivot]):
            expand(R | {v}, P & adj[v], X & adj[v])
            P = P - {v}
            X = X | {v}

    expand(set(), set(adj), set())
    return cliques


def extract_bases(vectors, tol: Tolerances = DEFAULT_TOL):
    """All 6-cliques of the orthogonality graph on the given vectors,
    re-verified pairwise, as sorted index tuples."""
    n = len(vectors)
    if n < 6:
        return []
    V = np.stack([np.asarray(m.vector.entries) for m in vectors])
    M = np.abs(np.conj(V) @ V.T)
    adj = {i: {j for j in range(n) if j != i and M[i, j] < tol.eq_tol} for i in range(n)}

    found = set()
    for clique in _maximal_cliques(adj):
        if len(clique) < 6:
            continue
        for sub in combinations(clique, 6):
            found.add(sub)

    verified = []
    for sub in sorted(found):
        ok = all(
            abs(np.vdot(vectors[i].vector.entries, vectors[j].vector.entries)) < tol.eq_tol
            for i, j in combinations(sub, 2)
        )
        if ok:
            verified.append(sub)
    return verified


def verify_triple(H, vectors, clique, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Certify that the clique's six vectors form an orthonormal basis B
    making {I, H, B} pairwise mutually unbiased, by direct inner products."""
    A = as_matrix(H)
    B = np.stack([np.asarray(vectors[i].vector.entries) for i in clique], axis=1)
    gram = B.conj().T @ B
    if np.max(np.abs(gram - np.eye(6))) >= tol.eq_tol:
        return False
    if modulus_residual(B) >= tol.eq_tol:
        return False
    cross = np.abs(A.conj().T @ B) ** 2
    return bool(np.max(np.abs(6.0 * cross - 1.0)) < tol.residual_tol)


def scan_m6(t_values, cfg: OptimConfig = OptimConfig()):
    """Sweep the symmetric family, one ScanRow per t in input order.
    Inadmissible parameters are captured in the row, never aborting the
    sweep.  Each row draws from its own child of cfg.seed, so results do
    not depend on how the grid is chunked."""
    ts = [float(t) for t in t_values]
    children = np.random.SeedSequence(cfg.seed).spawn(len(ts))
    rows = []
    for idx, t in enumerate(ts):
        start = time.perf_counter()
        try:
            H = m6(float(t), cfg.tol)
            rng = np.random.default_rng(children[idx])
            vecs = find_mu_vectors(H, cfg, rng=rng)
            bases = extract_bases(vecs, cfg.tol)
            n_triples = sum(1 for b in bases if verify_triple(H, vecs, b, cfg.tol))
            max_res = max((v.residual for v in vecs), default=0.0)
            rows.append(ScanRow(
                t=float(t), n_mu_vectors=len(vecs), n_bases=len(bases),
                n_triples=n_triples, max_residual=max_res,
                wall_time=time.perf_counter() - start,
            ))
        except (DomainError, SolveError) as exc:
            rows.append(ScanRow(
                t=float(t), n_mu_vectors=-1, n_bases=-1, n_triples=-1,
                max_residual=float("nan"), wall_time=time.perf_counter() - start,
                error=str(exc),
            ))
    return rows


def render_scan_csv(rows, cfg: OptimConfig, timing: bool = False) -> str:
    """CSV text for the rows.  Floats use shortest round-trip formatting.
    wall_time_s is written as 0.000000 unless timing is requested, keeping
    repeated runs byte-identical."""
    lines = [CSV_HEADER]
    for row in rows:
        a = np.exp(1j * row.t)
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


def write_scan_csv(rows, cfg: OptimConfig, path, timing: bool = False) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_scan_csv(rows, cfg, timing=timing))


def write_plot_file(rows, path) -> None:
    """Two-column t,n_mu_vectors companion file for external plotting."""
    lines = ["t,n_mu_vectors"]
    for row in rows:
        lines.append(f"{float(row.t)!r},{row.n_mu_vectors}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
