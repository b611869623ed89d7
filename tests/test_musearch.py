import numpy as np
import pytest

import mub6
from mub6 import (
    CSV_HEADER,
    InvalidInput,
    MUVector,
    OptimConfig,
    SQRT6,
    ScanRow,
    extract_bases,
    find_mu_vectors,
    m6,
    mu_objective,
    render_scan_csv,
    scan_m6,
    verify_triple,
)

PI = np.pi


def column_residual(H, phases):
    """Reference unbiasedness residual of the vector the phases parameterize,
    one np.vdot per column of H."""
    v = np.concatenate([[1.0], np.exp(1j * np.array(phases))]) / SQRT6
    return max(abs(6.0 * abs(np.vdot(H.entries[:, j], v)) ** 2 - 1.0) for j in range(6))


def test_optim_config_validation():
    OptimConfig(starts=1)
    with pytest.raises(InvalidInput):
        OptimConfig(starts=0)
    OptimConfig(seed=0)
    with pytest.raises(InvalidInput, match="seed"):
        OptimConfig(seed=-1)


def test_muvector_validation(f6):
    v = np.ones(6, dtype=complex) / SQRT6
    with pytest.raises(InvalidInput):
        MUVector(phases=(0.0, 0.0), vector=mub6.ColVec6(v), residual=0.0)


def test_scanrow_validation():
    ScanRow(t=2.0, n_mu_vectors=4, n_bases=1, n_triples=1,
            max_residual=1e-12, wall_time=0.1)
    with pytest.raises(InvalidInput):
        ScanRow(t=2.0, n_mu_vectors=-1, n_bases=0, n_triples=0,
                max_residual=0.0, wall_time=0.0)
    with pytest.raises(InvalidInput):
        ScanRow(t=2.0, n_mu_vectors=9, n_bases=1, n_triples=2,
                max_residual=0.0, wall_time=0.0)
    # error rows are allowed to carry the -1 sentinel
    ScanRow(t=2.0, n_mu_vectors=-1, n_bases=-1, n_triples=-1,
            max_residual=float("nan"), wall_time=0.0, error="boom")


def test_flat_vector_objective_value(f6):
    """All-zero phases give the first Fourier column, unbiased to nothing:
    one aligned column contributes 25, five orthogonal ones contribute 1."""
    val, _ = mu_objective(f6, np.zeros(5))
    assert val == pytest.approx(30.0, abs=1e-9)


def test_objective_zero_iff_unbiased(f6):
    cfg = OptimConfig(starts=40, seed=2)
    vecs = find_mu_vectors(f6, cfg)
    assert vecs, "under-sampled search should still find something"
    val, _ = mu_objective(f6, vecs[0].phases)
    assert val < 1e-20


def test_gradient_matches_finite_differences(f6, m6_sample, b6_generic):
    rng = np.random.default_rng(55)
    h = 1e-6
    for H in (f6, m6_sample, b6_generic):
        for _ in range(8):
            p = rng.uniform(0, 2 * PI, 5)
            _, g = mu_objective(H, p)
            fd = np.zeros(5)
            for k in range(5):
                up, dn = p.copy(), p.copy()
                up[k] += h
                dn[k] -= h
                fd[k] = (mu_objective(H, up)[0] - mu_objective(H, dn)[0]) / (2 * h)
            rel = np.linalg.norm(g - fd) / max(np.linalg.norm(fd), 1e-12)
            assert rel < 1e-5


def test_objective_gauge_invariance(f6):
    """Shifting every entry by one global phase leaves the defect
    unchanged; evaluated against an unfixed 6-angle formula."""
    rng = np.random.default_rng(67)
    A = f6.entries

    def value6(angles):
        v = np.exp(1j * angles) / SQRT6
        total = 0.0
        for j in range(6):
            total += (6.0 * abs(np.vdot(A[:, j], v)) ** 2 - 1.0) ** 2
        return total

    for _ in range(10):
        p = rng.uniform(0, 2 * PI, 5)
        gamma = rng.uniform(0, 2 * PI)
        ref, _ = mu_objective(f6, p)
        shifted = value6(np.concatenate([[gamma], gamma + p]))
        assert shifted == pytest.approx(ref, rel=1e-12, abs=1e-12)


def test_f6_search_frozen_counts(f6):
    cfg = OptimConfig(starts=2000, seed=0)
    vecs = find_mu_vectors(f6, cfg)
    assert len(vecs) == 48
    bases = extract_bases(vecs, cfg.tol)
    assert len(bases) == 16
    assert all(verify_triple(f6, vecs, b, cfg.tol) for b in bases)


def test_vectors_reverify_independently(f6):
    cfg = OptimConfig(starts=300, seed=9)
    for mv in find_mu_vectors(f6, cfg):
        assert column_residual(f6, mv.phases) < cfg.tol.residual_tol
        assert np.max(np.abs(np.abs(mv.vector.entries) * SQRT6 - 1.0)) < 1e-12
        assert all(0.0 <= p <= 2 * PI for p in mv.phases)


def test_dedupe_leaves_separated_representatives(f6):
    cfg = OptimConfig(starts=500, seed=3)
    vecs = find_mu_vectors(f6, cfg)
    for i in range(len(vecs)):
        for j in range(i + 1, len(vecs)):
            d = np.mod(np.array(vecs[i].phases) - np.array(vecs[j].phases) + PI,
                       2 * PI) - PI
            assert np.max(np.abs(d)) >= cfg.tol.cluster_tol


def test_search_determinism(f6):
    a = find_mu_vectors(f6, OptimConfig(starts=400, seed=21))
    b = find_mu_vectors(f6, OptimConfig(starts=400, seed=21))
    assert [v.phases for v in a] == [v.phases for v in b]
    assert [v.residual for v in a] == [v.residual for v in b]


def test_extract_bases_planted_clique(f6):
    """Feed exactly one orthonormal sextet; the single clique comes back."""
    cfg = OptimConfig(starts=2000, seed=0)
    vecs = find_mu_vectors(f6, cfg)
    bases = extract_bases(vecs, cfg.tol)
    planted = [vecs[i] for i in bases[0]]
    got = extract_bases(planted, cfg.tol)
    assert got == [(0, 1, 2, 3, 4, 5)]


def test_extract_bases_no_orthogonal_pairs(f6):
    cfg = OptimConfig(starts=60, seed=5)
    vecs = find_mu_vectors(f6, cfg)
    lonely = [vecs[0]] * 3
    assert extract_bases(lonely[:1], cfg.tol) == []


def test_extract_bases_against_networkx(f6):
    """Independent clique enumeration on the same orthogonality graph."""
    import networkx as nx

    cfg = OptimConfig(starts=2000, seed=0)
    vecs = find_mu_vectors(f6, cfg)
    V = np.stack([v.vector.entries for v in vecs])
    M = np.abs(np.conj(V) @ V.T)
    G = nx.Graph()
    G.add_nodes_from(range(len(vecs)))
    for i in range(len(vecs)):
        for j in range(i + 1, len(vecs)):
            if M[i, j] < cfg.tol.eq_tol:
                G.add_edge(i, j)
    oracle = set()
    from itertools import combinations
    for clique in nx.find_cliques(G):
        if len(clique) >= 6:
            for sub in combinations(sorted(clique), 6):
                oracle.add(sub)
    assert set(extract_bases(vecs, cfg.tol)) == oracle


def _ordered_clique_oracle(vecs, eq_tol):
    """Sorted 6-subsets of networkx's maximal cliques of the graph
    |<u, v>| < eq_tol."""
    import networkx as nx
    from itertools import combinations

    V = np.stack([v.vector.entries for v in vecs])
    M = np.abs(np.conj(V) @ V.T)
    G = nx.Graph()
    G.add_nodes_from(range(len(vecs)))
    G.add_edges_from((i, j) for i in range(len(vecs)) for j in range(i + 1, len(vecs))
                     if M[i, j] < eq_tol)
    return sorted({sub for clique in nx.find_cliques(G) if len(clique) >= 6
                   for sub in combinations(sorted(clique), 6)})


@pytest.mark.parametrize("family, param, eq_tol, count", [
    ("f6", None, 1e-9, 16),
    ("b6", 2.0, 1e-9, 1),
    ("m6", 1.634, 0.15, 10),
    ("m6", 1.9 * PI, 0.15, 14),
])
def test_extract_bases_in_oracle_order(family, param, eq_tol, count):
    """List equality with the sorted oracle, so the lexicographic order is
    checked too; eq_tol = 0.15 makes the orthogonality graph denser."""
    H = {"f6": lambda p: mub6.fourier_f6(), "b6": mub6.b6, "m6": mub6.m6}[family](param)
    vecs = find_mu_vectors(H, OptimConfig(starts=2000, seed=0))
    tol = mub6.Tolerances(eq_tol=eq_tol)
    got = extract_bases(vecs, tol)
    assert got == _ordered_clique_oracle(vecs, eq_tol)
    assert len(got) == count


def test_verify_triple_refuses_a_clique_with_perturbed_rows(f6):
    """Rephasing the entries of one row of B by distinct small phases keeps
    every modulus but breaks B B^H = I, so B is not Hadamard."""
    vecs = find_mu_vectors(f6, OptimConfig(starts=2000, seed=0))
    basis = extract_bases(vecs)[0]
    assert verify_triple(f6, vecs, basis)
    bent = list(vecs)
    for k, i in enumerate(basis):
        entries = vecs[i].vector.entries.copy()
        entries[2] *= np.exp(1e-6j * k)
        bent[i] = MUVector(vecs[i].phases, mub6.ColVec6(entries), vecs[i].residual)
    assert not verify_triple(f6, bent, basis)


def test_verify_triple_refuses_a_basis_biased_to_h(f6):
    """A true F6 basis is orthonormal and unbiased to I and F6, but not to
    m6(2.0), so it makes no triple with m6(2.0)."""
    vecs = find_mu_vectors(f6, OptimConfig(starts=2000, seed=0))
    basis = extract_bases(vecs)[0]
    assert verify_triple(f6, vecs, basis)
    assert not verify_triple(m6(2.0), vecs, basis)


def test_extract_bases_refuses_eq_tol_above_one_sixth(f6):
    """Above 1/6 seven vectors can pass as pairwise orthogonal in C^6."""
    vecs = find_mu_vectors(f6, OptimConfig(starts=2000, seed=0))
    with pytest.raises(InvalidInput, match="1/6"):
        extract_bases(vecs, mub6.Tolerances(eq_tol=0.3))
    with pytest.raises(InvalidInput):
        extract_bases(vecs[:3], mub6.Tolerances(eq_tol=0.3))
    assert len(extract_bases(vecs, mub6.Tolerances(eq_tol=1 / 6))) == 16


def test_scan_rows_and_error_isolation():
    cfg = OptimConfig(starts=150, seed=4)
    ts = [0.9 * PI, 0.25 * PI, 1.95 * PI]
    rows = scan_m6(ts, cfg)
    assert [r.t for r in rows] == [float(t) for t in ts]
    assert rows[0].error is None and rows[0].n_mu_vectors >= 0
    assert rows[1].error is not None
    assert rows[1].n_mu_vectors == rows[1].n_bases == rows[1].n_triples == -1
    assert np.isnan(rows[1].max_residual)
    assert rows[2].error is None
    for r in rows:
        if r.error is None and r.n_mu_vectors > 0:
            assert r.max_residual < cfg.tol.residual_tol


def test_scan_raises_on_a_failed_constructor_check(monkeypatch):
    """A SolveError is a bug, not an inadmissible point: no flagged row."""
    def broken(*args):
        raise mub6.SolveError("m6 failed the Hadamard check")

    monkeypatch.setattr(mub6.musearch, "m6", broken)
    with pytest.raises(mub6.SolveError):
        scan_m6([0.9 * PI], OptimConfig(starts=10, seed=0))


def test_scan_determinism_is_seed_dependent():
    cfg = OptimConfig(starts=120, seed=10)
    ts = [2 * PI / 3, 0.8 * PI]
    r1 = scan_m6(ts, cfg)
    r2 = scan_m6(ts, cfg)
    assert render_scan_csv(r1, cfg) == render_scan_csv(r2, cfg)
    other = scan_m6(ts, OptimConfig(starts=120, seed=11))
    # counts may or may not coincide, but the contract is only about equality
    # under the same seed; nothing to assert beyond shape here
    assert len(other) == 2


def test_csv_shape_and_header():
    cfg = OptimConfig(starts=100, seed=6)
    rows = scan_m6([0.9 * PI, 0.25 * PI], cfg)
    text = render_scan_csv(rows, cfg).splitlines()
    assert text[0] == CSV_HEADER
    assert len(text) == 3
    fields = text[1].split(",")
    assert len(fields) == 10
    assert fields[7] == "100" and fields[8] == "6"
    assert fields[9] == "0.000000"
    # error row carries sentinels
    bad = text[2].split(",")
    assert bad[3] == bad[4] == bad[5] == "-1"
    assert bad[6] == "nan"
    # a_re, a_im round-trip as floats
    t = float(fields[0])
    assert float(fields[1]) == pytest.approx(np.cos(t), abs=1e-15)
    assert float(fields[2]) == pytest.approx(np.sin(t), abs=1e-15)


def test_csv_non_finite_t_has_nan_a():
    """A non-finite t, which only the API can pass, is a flagged row whose
    a = e^{it} is written as nan, without a RuntimeWarning."""
    cfg = OptimConfig(starts=10, seed=0)
    rows = scan_m6([np.inf, np.nan, -np.inf], cfg)
    fields = [line.split(",") for line in render_scan_csv(rows, cfg).splitlines()[1:]]
    assert [f[0] for f in fields] == ["inf", "nan", "-inf"]
    assert all(f[1] == f[2] == "nan" and f[3] == "-1" for f in fields)


def test_csv_timing_flag_changes_only_last_column():
    cfg = OptimConfig(starts=80, seed=13)
    rows = scan_m6([0.95 * PI], cfg)
    plain = render_scan_csv(rows, cfg).splitlines()[1].split(",")
    timed = render_scan_csv(rows, cfg, timing=True).splitlines()[1].split(",")
    assert plain[:9] == timed[:9]
    assert plain[9] == "0.000000"
    assert float(timed[9]) > 0.0


def central_jacobian(fun, p, h=1e-6):
    """(m, 5) central-difference Jacobian of the residual map at one start."""
    cols = []
    for k in range(5):
        up, dn = p.copy(), p.copy()
        up[k] += h
        dn[k] -= h
        cols.append((fun(up[None])[0][0] - fun(dn[None])[0][0]) / (2 * h))
    return np.stack(cols, axis=1)


def test_mu_defect_jacobian_matches_finite_differences(f6, m6_sample, b6_generic):
    from mub6.musearch import _mu_defects

    rng = np.random.default_rng(56)
    for H in (f6, m6_sample, b6_generic):
        fun = lambda P, Hc=np.conj(H.entries): _mu_defects(Hc, P)
        for _ in range(8):
            p = rng.uniform(0, 2 * PI, 5)
            G, J = fun(p[None])
            assert G.shape == (1, 6) and J.shape == (1, 6, 5)
            fd = central_jacobian(fun, p)
            assert np.max(np.abs(J[0] - fd)) < 1e-7 * max(1.0, np.max(np.abs(fd)))


def test_solver_defect_is_residual_norm(m6_sample):
    from mub6.musearch import _mu_defects, solve_phases

    Hc = np.conj(m6_sample.entries)
    P0 = np.random.default_rng(8).uniform(0, 2 * PI, (50, 5))
    for iters in (1, 5, 500):
        P, defect = solve_phases(Hc, P0, iters)
        G, _ = _mu_defects(Hc, P)
        assert np.allclose(defect, np.linalg.norm(G, axis=1), rtol=1e-9, atol=1e-15)
    assert np.all(defect < 1e-13)


@pytest.mark.parametrize("t", [0.6 * PI, 1.634, 0.9 * PI, 1.6 * PI, 1.9 * PI])
def test_m6_vectors_reverify_independently(t):
    H = m6(t)
    cfg = OptimConfig(starts=500, seed=17)
    vecs = find_mu_vectors(H, cfg)
    assert len(vecs) >= 48
    assert [mv.phases for mv in vecs] == sorted(mv.phases for mv in vecs)
    for mv in vecs:
        assert abs(mv.residual - column_residual(H, mv.phases)) <= 4e-15
        assert mv.residual < cfg.tol.residual_tol
        v = np.concatenate([[1.0], np.exp(1j * np.array(mv.phases))]) / SQRT6
        assert np.array_equal(mv.vector.entries, v)


@pytest.mark.parametrize("t,count", [(PI, 48), (1.634, 120), (1.8371, 52), (2.6452, 48)])
def test_m6_count_saturates(t, count):
    """The distinct count is a property of the matrix: four times the
    start budget finds no new vector."""
    H = m6(t)
    assert len(find_mu_vectors(H, OptimConfig(starts=2000))) == count
    assert len(find_mu_vectors(H, OptimConfig(starts=8000))) == count


@pytest.mark.parametrize("tol", [1e-9, 1e-6, 0.05, 1 / 6])
def test_dedupe_matches_reference_loop(m6_sample, tol):
    """The array dedupe keeps exactly what the pairwise greedy loop keeps,
    on raw converged starts with many near-duplicates."""
    from mub6.musearch import _dedupe, solve_phases

    Hc = np.conj(m6_sample.entries)
    P0 = np.random.default_rng(12).uniform(0, 2 * PI, (600, 5))
    P, defect = solve_phases(Hc, P0, 500)
    P = np.mod(P[defect < 1e-8], 2 * PI)
    P = P[np.lexsort(P.T[::-1])]
    # a pair that is close only across the 0 = 2pi wrap, and near-duplicates
    a, b = P[0].copy(), P[0].copy()
    a[0], b[0] = 1e-8, 2 * PI - 1e-8
    # a pair close only across the wrap in column 2, and a pair equal in
    # column 0 (it passes the column-0 screen) but apart in column 3
    c, e = P[1].copy(), P[2].copy()
    c[4] = np.mod(c[4] + 2.5, 2 * PI)
    e[4] = np.mod(e[4] + 2.0, 2 * PI)
    d, f = c.copy(), e.copy()
    c[2], d[2] = 1e-11, 2 * PI - 1e-11
    f[3] = np.mod(f[3] + 1.0, 2 * PI)
    P = np.concatenate([P, [a, b], P[:5] + 2e-7, [c, d, e, f]])

    def wrap_dist(p, q):
        d = np.mod(np.asarray(p) - np.asarray(q) + PI, 2 * PI) - PI
        return float(np.max(np.abs(d)))

    kept = []
    for i, p in enumerate(P):
        if not any(wrap_dist(p, P[k]) < tol for k in kept):
            kept.append(i)
    assert _dedupe(P, tol) == kept
    n = len(P)
    assert n - 4 in kept and n - 3 not in kept     # the column-2 wrap pair
    assert n - 2 in kept and n - 1 in kept         # screened in, then apart
    assert len(kept) < len(P)
