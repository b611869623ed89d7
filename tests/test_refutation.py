import numpy as np
import pytest

import mub6
from mub6 import (
    DomainError,
    InvalidInput,
    SQRT6,
    SearchFailure,
    VERDICT_REFUTED,
    apply,
    m6,
    run_counterexample,
    third_column_witness,
    verify_tail_structure,
)

PI = np.pi


@pytest.mark.parametrize("t", [2 * PI / 3, 0.9 * PI, PI, 1.9 * PI])
def test_pipeline_refutes_at_sample_points(t):
    rep = run_counterexample(t)
    assert rep.verdict == VERDICT_REFUTED
    assert rep.is_hadamard_ok
    assert rep.hadamard_residual < 1e-9
    assert rep.lemma_form_ok
    assert rep.tail_ok
    assert abs(rep.s - np.conj(np.exp(1j * t))) < 1e-9
    assert rep.min_third_col_modulus > 1.0 / SQRT6 - 1e-9
    # entry moduli of a Hadamard matrix all sit at 1/sqrt(6)
    for mod in rep.third_col_moduli:
        assert abs(mod - 1.0 / SQRT6) < 1e-9


def test_pipeline_rejects_inadmissible_parameter():
    with pytest.raises(DomainError):
        run_counterexample(0.4 * PI)


def test_pipeline_record_replays():
    t = 0.9 * PI
    rep = run_counterexample(t)
    replay = apply(m6(t), rep.record)
    assert np.max(np.abs(replay.entries - rep.matrix.entries)) == 0.0


def test_pipeline_fixed_row_permutation():
    rep = run_counterexample(2 * PI / 3)
    assert rep.record.row_perm == (3, 4, 5, 6, 1, 2)
    assert rep.record.col_perm == (1, 2, 3, 4, 5, 6)


def test_pipeline_refutes_across_grid():
    for t in mub6.m6_grid():
        rep = run_counterexample(t)
        assert rep.verdict == VERDICT_REFUTED, t
        assert rep.min_third_col_modulus > 1.0 / SQRT6 - 1e-9, t


def test_tail_structure_examples():
    assert abs(verify_tail_structure((-1.0, 1j, -1j)) - 1j) < 1e-12
    s = np.exp(1j * PI / 3)
    assert abs(verify_tail_structure((s, -1.0, -s)) - s) < 1e-12
    assert verify_tail_structure((1.0, 1.0, 1.0)) is None


def test_tail_structure_canonicalizes_to_upper_half_plane():
    # the pair is {s, -s}; for lower-half s the representative is -s
    s = np.exp(-1j * 0.7)
    got = verify_tail_structure((-1.0, s, -s))
    assert got.imag > 0
    assert abs(got + s) < 1e-12


def test_tail_structure_real_pair_reports_plus_one():
    got = verify_tail_structure((-1.0, -1.0, 1.0))
    assert got == 1.0


def test_tail_structure_rejects_non_unimodular():
    with pytest.raises(InvalidInput):
        verify_tail_structure((0.5, -1.0, 0.5))
    with pytest.raises(InvalidInput):
        verify_tail_structure((1.0, 1.0))


def test_tail_structure_sum_premise():
    # unimodular but sums to 1, not -1: rotating the anchor breaks it
    z = (1.0, 1j, -1j)
    assert verify_tail_structure(z) is None


def test_tail_structure_randomized_recognition():
    rng = np.random.default_rng(77)
    for _ in range(300):
        s = np.exp(1j * rng.uniform(0, 2 * PI))
        triple = np.array([-1.0 + 0j, s, -s])
        rng.shuffle(triple)
        got = verify_tail_structure(tuple(triple))
        assert got is not None
        expect = s if s.imag >= 1e-9 else (-s if s.imag <= -1e-9 else 1.0)
        assert abs(got - expect) < 1e-9


def test_tail_structure_rejects_generic_triples():
    rng = np.random.default_rng(78)
    rejected = 0
    for _ in range(300):
        z = np.exp(1j * rng.uniform(0, 2 * PI, 3))
        if abs(np.sum(z) + 1.0) > 1e-6:
            assert verify_tail_structure(tuple(z)) is None
            rejected += 1
    assert rejected > 250  # the conditioned set has measure zero


def test_pipeline_tail_passes_generic_checker():
    for t in (2 * PI / 3, 1.9 * PI):
        rep = run_counterexample(t)
        tail = rep.matrix.entries[3:, 1] * SQRT6
        got = verify_tail_structure(tuple(tail))
        assert got is not None
        abar = np.conj(np.exp(1j * t))
        expect = abar if abar.imag >= 0 else -abar
        assert abs(got - expect) < 1e-9


def test_witness_matches_pipeline_feasible_point():
    """The third column of the pipeline output is itself a witness, which
    the optimizer must be able to reproduce in feasibility."""
    t = 2 * PI / 3
    rep = run_counterexample(t)
    v = rep.matrix.entries[:, 2]
    c1 = np.ones(6, dtype=complex) / SQRT6
    c2 = rep.matrix.entries[:, 1]
    assert abs(np.vdot(c1, v)) < 1e-9
    assert abs(np.vdot(c2, v)) < 1e-9
    w = third_column_witness(rep.s, seed=0)
    assert max(w.residuals) < 1e-8
    assert np.min(np.abs(w.v.entries)) > 1.0 / SQRT6 - 1e-9


@pytest.mark.parametrize("s", [1.0, 1j, np.exp(2.2j)])
def test_witness_exists_for_assorted_s(s):
    w = third_column_witness(s, seed=1)
    c1 = np.ones(6, dtype=complex) / SQRT6
    c2 = np.array([1, 1, -1, -1, s, -s], dtype=complex) / SQRT6
    # re-verify with direct inner products, not the optimizer's numbers
    assert abs(np.vdot(c1, w.v.entries)) < 1e-8
    assert abs(np.vdot(c2, w.v.entries)) < 1e-8
    assert np.max(np.abs(np.abs(w.v.entries) * SQRT6 - 1.0)) < 1e-12


def test_witness_determinism():
    a = third_column_witness(1j, seed=42)
    b = third_column_witness(1j, seed=42)
    assert np.array_equal(a.v.entries, b.v.entries)
    assert a.residuals == b.residuals


def test_witness_rejects_non_unimodular_s():
    with pytest.raises(InvalidInput):
        third_column_witness(0.5)


def test_witness_search_failure_is_reported():
    with pytest.raises(SearchFailure):
        third_column_witness(1.0, seed=123, starts=1, max_iters=1)


@pytest.mark.parametrize("s", [1.0, 1j, np.exp(2.2j)])
def test_witness_jacobian_matches_finite_differences(s):
    """The four real orthogonality residuals and their phase Jacobian,
    against direct inner products and central differences."""
    from mub6.refutation import _orthogonality_defects

    C = np.array([[1] * 6, [1, 1, -1, -1, s, -s]], dtype=complex) / SQRT6
    fun = lambda P: _orthogonality_defects(np.conj(C), P)
    rng = np.random.default_rng(31)
    h = 1e-6
    for _ in range(8):
        p = rng.uniform(0, 2 * PI, 5)
        r, J = fun(p[None])
        v = np.concatenate([[1.0], np.exp(1j * p)]) / SQRT6
        g = [np.vdot(C[0], v), np.vdot(C[1], v)]
        assert np.allclose(r[0], [g[0].real, g[1].real, g[0].imag, g[1].imag], atol=1e-15)
        fd = np.zeros((4, 5))
        for k in range(5):
            up, dn = p.copy(), p.copy()
            up[k] += h
            dn[k] -= h
            fd[:, k] = (fun(up[None])[0][0] - fun(dn[None])[0][0]) / (2 * h)
        assert np.max(np.abs(J[0] - fd)) < 1e-8
