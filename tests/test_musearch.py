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
    cap = np.iinfo(np.intp).max // 40     # numpy's cap on the (starts, 5) draw
    for kwargs, message in (({"starts": 0}, f"starts must be an integer in 1..{cap}, got 0"),
                            ({"starts": cap + 1},
                             f"starts must be an integer in 1..{cap}, got {cap + 1}"),
                            ({"seed": -1}, "seed must be an integer in 0..inf, got -1")):
        with pytest.raises(InvalidInput) as info:
            OptimConfig(**kwargs)
        assert str(info.value) == message
    OptimConfig(seed=0)
    cfg = OptimConfig(starts=np.int64(3), seed=np.uint32(7))
    assert (cfg.starts, cfg.seed) == (3, 7)
    assert type(cfg.starts) is int and type(cfg.seed) is int
    for bad in (2.5, 3.0, True, "3", None):
        with pytest.raises(InvalidInput, match="starts"):
            OptimConfig(starts=bad)
        with pytest.raises(InvalidInput, match="seed"):
            OptimConfig(seed=bad)


def test_muvector_validation(f6):
    v = np.ones(6, dtype=complex) / SQRT6
    with pytest.raises(InvalidInput):
        MUVector(phases=(0.0, 0.0), vector=mub6.ColVec6(v), residual=0.0)
    for phases in (np.full(5, 1j), ["a"] * 5, [None] * 5, [True] * 5, [[0.0], [0.0, 0.0]]):
        with pytest.raises(InvalidInput, match="phases must be real"):
            MUVector(phases=phases, vector=mub6.ColVec6(v), residual=0.0)
    for residual in (1j, "0", None, True, np.zeros(1)):
        with pytest.raises(InvalidInput, match="residual must be a real number"):
            MUVector(phases=(0.0,) * 5, vector=mub6.ColVec6(v), residual=residual)
    m = MUVector(np.arange(5, dtype=np.float32), mub6.ColVec6(v), np.float64(1.0))
    assert m.phases == (0.0, 1.0, 2.0, 3.0, 4.0) and type(m.phases[0]) is float
    assert type(m.residual) is float


def test_muvector_refuses_a_vector_that_is_not_a_colvec6():
    """extract_bases reads vector.entries, so a vector of another type is
    refused where the record is built, not later with an AttributeError."""
    v = np.ones(6, dtype=complex) / SQRT6
    for vector in ("x", v, list(v), None):
        with pytest.raises(InvalidInput, match="vector must be a ColVec6"):
            MUVector((0.0,) * 5, vector, 0.0)
    good = MUVector((0.0,) * 5, mub6.ColVec6(v), 0.0)
    assert mub6.extract_bases([good]) == []


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
    # numbers are read by the core readers: reals as floats, counts as ints
    for args, name in ((("x", 1, 0, 0, 0.0, 0.0), "t"), ((2.0, "a", 0, 0, 0.0, 0.0), "n_mu_vectors"),
                       ((2.0, 1.5, 0, 0, 0.0, 0.0), "n_mu_vectors"),
                       ((2.0, 1, True, 0, 0.0, 0.0), "n_bases"),
                       ((2.0, 1, 0, -2, 0.0, 0.0, "boom"), "n_triples"),
                       ((2.0, 1, 0, 0, 1j, 0.0), "max_residual"),
                       ((2.0, 1, 0, 0, 0.0, None), "wall_time"),
                       ((10**5000, 1, 0, 0, 0.0, 0.0), "t")):
        with pytest.raises(InvalidInput, match=name):
            ScanRow(*args)
    row = ScanRow(np.float32(2.0), np.int64(4), np.uint8(1), np.int8(1), np.float64(1e-12), 1)
    assert (row.t, row.n_mu_vectors, row.n_bases, row.n_triples, row.max_residual,
            row.wall_time) == (2.0, 4, 1, 1, 1e-12, 1.0)
    assert [type(getattr(row, f)) for f in ("t", "n_bases", "max_residual", "wall_time")] == [
        float, int, float, float]


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


def test_verify_triple_needs_h_unbiased_to_i(f6):
    """I is not unbiased to itself, so no F6 basis makes a triple {I, I, B}."""
    vecs = find_mu_vectors(f6, OptimConfig(starts=2000, seed=0))
    bases = extract_bases(vecs)
    assert len(bases) == 16 and all(verify_triple(f6, vecs, b) for b in bases)
    assert not any(verify_triple(np.eye(6), vecs, b) for b in bases)


def test_verify_triple_refuses_a_malformed_clique(f6):
    vecs = find_mu_vectors(f6, OptimConfig(starts=2000, seed=0))
    assert verify_triple(f6, vecs, np.array(extract_bases(vecs)[0]))
    for clique in ((0, 1, 2, 3, 4, 999), (0, 1, 2, 3, 4), (0, 1, 2, 3, 4, 5, 6),
                   (-1, 1, 2, 3, 4, 5), (0, 0, 1, 2, 3, 4), (0, 1.0, 2, 3, 4, 5),
                   [[1]] * 6, 5, np.arange(6.0), (True, 1, 2, 3, 4, 5), "012345", None):
        with pytest.raises(InvalidInput, match="clique"):
            verify_triple(f6, vecs, clique)


def test_search_refuses_a_non_hadamard_matrix(f6):
    """The vector count of a non-Hadamard matrix would be the start budget
    (every phase vector is unbiased to I), and a huge one overflows."""
    for A in (np.eye(6), 1e200 * f6.entries):
        with pytest.raises(InvalidInput, match="Hadamard"):
            find_mu_vectors(A, OptimConfig(starts=20))
        with pytest.raises(InvalidInput, match="Hadamard"):
            mu_objective(A, np.zeros(5))
    for phases in (np.zeros(4), np.zeros(6), []):
        with pytest.raises(InvalidInput, match="five"):
            mu_objective(f6, phases)
    for phases in (["a"] * 5, [1j] * 5, np.full(5, 1j), [None] * 5, ["1"] * 5, [True] * 5,
                   [[0.0], [0.0, 0.0]]):
        with pytest.raises(InvalidInput, match="real"):
            mu_objective(f6, phases)
    for phases in (np.full(5, np.inf), [0.0, 0.0, np.nan, 0.0, 0.0]):
        with pytest.raises(InvalidInput, match="finite"):
            mu_objective(f6, phases)
    ref_value, ref_grad = mu_objective(f6, np.arange(5.0))
    value, grad = mu_objective(f6, np.arange(5, dtype=np.int64))
    assert value == ref_value and np.array_equal(grad, ref_grad)


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
    # a t that is not one real number stops the sweep: it is not a point of the family
    for ts in (["2.0"], [2.0, True], [2 + 1j], [np.complex128(2.0)], [np.array(2.0)], [None],
               [[2.0]]):
        with pytest.raises(InvalidInput, match="t must be a real number"):
            scan_m6(ts, cfg)
    for ts in (5.0, 2, None, np.float64(2.0)):      # a TypeError escaped before
        with pytest.raises(InvalidInput, match="t_values must be iterable"):
            scan_m6(ts, cfg)
    t32 = np.array([0.25 * PI], dtype=np.float32)
    assert [r.t for r in scan_m6(t32, cfg)] == [float(t32[0])]


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
    """The kernel's M[:5, :5] is J^T J and M[:5, 5] is J^T G, with J the
    central-difference Jacobian of the defects G, which are computed here
    from the vectors themselves."""
    from mub6.musearch import _normal_equations, _tables

    rng = np.random.default_rng(56)
    for H in (f6, m6_sample, b6_generic):
        def fun(P, A=H.entries):
            V = np.concatenate([np.ones((len(P), 1)), np.exp(1j * P)], axis=1) / SQRT6
            return (6.0 * np.abs(V @ np.conj(A)) ** 2 - 1.0,)

        for _ in range(8):
            p = rng.uniform(0, 2 * PI, 5)
            M = _normal_equations(_tables(np.conj(H.entries)), p[:, None])
            assert M.shape == (6, 6, 1)
            fd, G = central_jacobian(fun, p), fun(p[None])[0][0]
            for got, want in ((M[:5, :5, 0], fd.T @ fd), (M[:5, 5, 0], fd.T @ G)):
                assert np.max(np.abs(got - want)) < 1e-7 * max(1.0, np.max(np.abs(want)))


def test_solver_defect_is_residual_norm(m6_sample):
    from mub6.musearch import _normal_equations, _tables, solve_phases

    Hc = np.conj(m6_sample.entries)
    P0 = np.random.default_rng(8).uniform(0, 2 * PI, (50, 5))
    for iters in (1, 5, 500):
        P, defect = solve_phases(Hc, P0, iters)
        M = _normal_equations(_tables(Hc), P.T)
        assert np.allclose(defect, np.sqrt(M[5, 5]), rtol=1e-9, atol=1e-15)
    assert np.all(defect < 1e-13)


@pytest.mark.parametrize("H", [mub6.fourier_f6(0.0, 0.0), m6(5.8), mub6.s6(), mub6.b6(2.0)],
                         ids=["F6", "m6(5.8)", "S6", "b6(2.0)"])
def test_solve_phases_is_batch_independent(H):
    """A start's phases and defect are the same bits whether it is solved
    alone, in a slice or in the full batch: the solver never mixes starts."""
    from mub6.musearch import solve_phases

    Hc = np.conj(H.entries)
    P0 = np.random.default_rng(29).uniform(0, 2 * PI, (300, 5))
    P, defect = solve_phases(Hc, P0, 500)
    for part in (slice(117, 118), slice(40, 90), slice(3, None, 7)):
        P_part, defect_part = solve_phases(Hc, P0[part], 500)
        assert np.array_equal(P_part, P[part])
        assert np.array_equal(defect_part, defect[part])


def _normal_matrices(rng, n):
    """M = A^T A for n random 6x6 A = [J g], held as (6, 6, n)."""
    A = rng.standard_normal((n, 6, 6))
    return (A.transpose(0, 2, 1) @ A).transpose(1, 2, 0)


@pytest.mark.parametrize("lam", [1e-12, 0.1, 1e10])
def test_ldl_step_matches_linalg_solve(lam):
    """The in-place LDL^T step solves (J^T J + lam I) x = J^T g like
    np.linalg.solve, used here only as an oracle."""
    from mub6.musearch import _ldl_step

    M = _normal_matrices(np.random.default_rng(31), 200)
    x = _ldl_step(M, np.full(200, lam))
    Mn = M.transpose(2, 0, 1)
    ref = np.linalg.solve(Mn[:, :5, :5] + lam * np.eye(5), Mn[:, :5, 5:])[:, :, 0].T
    assert np.all(np.abs(x - ref) <= 1e-12 * np.max(np.abs(ref), axis=0))


def test_ldl_step_fails_a_column_with_a_negative_pivot():
    """Column 1's second pivot is -1: its step is not finite, and the other
    columns get the step they get alone."""
    from mub6.musearch import _ldl_step

    M = _normal_matrices(np.random.default_rng(32), 3)
    lam = np.full(3, 0.1)
    M[1, 1, 1] = M[0, 1, 1] ** 2 / (M[0, 0, 1] + lam[1]) - lam[1] - 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        x = _ldl_step(M, lam)
    assert not np.all(np.isfinite(x[:, 1]))
    for n in (0, 2):
        assert np.all(np.isfinite(x[:, n]))
        assert np.array_equal(x[:, n], _ldl_step(M[:, :, n:n + 1], lam[n:n + 1])[:, 0])


def test_solver_rejects_a_step_whose_pivot_is_not_positive():
    """Equal rows 1 and 2 of Hc and equal phases 0 and 1 give J two equal
    columns; scaled by 1e4, J^T J is so large that adding lam = 0.1 rounds
    away and the second pivot is exactly 0.  That trial is rejected (the
    phases stay), every output is finite and no RuntimeWarning escapes."""
    from mub6.musearch import _ldl_step, _normal_equations, _tables, solve_phases

    Hc = 1e4 * np.conj(mub6.fourier_f6(0.0, 0.0).entries)
    Hc[2] = Hc[1]
    P0 = np.random.default_rng(33).uniform(0, 2 * PI, (4, 5))
    P0[:2, 1] = P0[:2, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        x = _ldl_step(_normal_equations(_tables(Hc), P0.T), np.full(4, 0.1))
    assert not np.any(np.all(np.isfinite(x[:, :2]), axis=0))
    assert np.all(np.isfinite(x[:, 2:]))
    for iters in (1, 500):
        P, defect = solve_phases(Hc, P0, iters)
        assert np.all(np.isfinite(P)) and np.all(np.isfinite(defect))
        if iters == 1:
            assert np.array_equal(P[:2], P0[:2])


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


# ROADMAP item 2: the midpoint of each interval between folds of the first
# arc and its count.  The window t = 1.750-1.756, where LM at 2000 starts
# misses roots of the 80 plateau, is left out.
PLATEAUS = [(1.62, 120), (1.685, 96), (1.73, 80), (1.765, 72), (1.79, 56), (2.03, 52), (2.7, 48)]


@pytest.mark.parametrize("t,count", [(t + shift, count) for t, count in PLATEAUS
                                     for shift in (0.0, PI)])
def test_plateau_counts(t, count):
    """Each plateau's count at its midpoint on both arcs (the second is the
    first relabelled by t + pi), at 2000 starts for seeds 0-2 and at 8000
    starts for seed 0: a faster solver must not move a count."""
    H = m6(t)
    for starts, seed in ((2000, 0), (2000, 1), (2000, 2), (8000, 0)):
        assert len(find_mu_vectors(H, OptimConfig(starts=starts, seed=seed))) == count


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
