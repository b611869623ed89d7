import numpy as np
import pytest

import mub6
from mub6 import (
    DomainError,
    InvalidInput,
    SQRT6,
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
    for t in ("x", "2.0", None, True, 2j, np.array(2.0), [2.0]):
        with pytest.raises(InvalidInput, match="t must be a real number"):
            run_counterexample(t)
    rep = run_counterexample(np.float64(2.0))
    assert type(rep.t) is float and rep.t == 2.0


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


def test_lemma_form_search_confirms_the_recipe_s():
    """A second, independent computation of the verdict's s: to_lemma_form's
    search on m6(t) finds the s of run_counterexample's fixed recipe, within
    1e-12, on every point of m6_grid(200), through row orders the recipe
    does not use."""
    for t in mub6.m6_grid(200):
        rep = run_counterexample(t)
        form = mub6.to_lemma_form(m6(t))
        assert (form.y, form.x) == (1, -1), t
        assert abs(form.s - rep.s) < 1e-12, t
        assert form.record.row_perm != rep.record.row_perm, t


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
    for bad in (["a", "b", "c"], [[1, 2], [3]], (None,) * 3, (True,) * 3, [[-1.0, 1j, -1j]], -1.0):
        with pytest.raises(InvalidInput, match="^tail must"):
            verify_tail_structure(bad)
    for bad in (complex("nan"), complex(1.0, float("nan")), complex("inf")):
        with pytest.raises(InvalidInput, match="unimodular"):
            verify_tail_structure((-1.0, bad, 1.0))


def test_tail_structure_sum_premise():
    # unimodular but sums to 1, not -1: rotating the anchor breaks it
    z = (1.0, 1j, -1j)
    assert verify_tail_structure(z) is None


def test_tail_structure_on_sum_off_pattern():
    """Unimodular, summing to -1 within eq_tol, with no entry at -1.

    Exactly, no such triple exists: four unit vectors summing to zero pair
    into opposites, so {1, z1, z2, z3} holds a -1.  Near (-1, 1, -1) the
    sum error is quadratic: (-e^{ia}, e^{i(a+g)}, -e^{ig}) sums to about
    -1 - a g, while its outer entries stay a and g away from -1."""
    a = g = 2e-5
    triple = (-np.exp(1j * a), np.exp(1j * (a + g)), -np.exp(1j * g))
    assert abs(sum(triple) + 1.0) < 1e-9
    assert min(abs(z + 1.0) for z in triple) > 1e-5
    assert verify_tail_structure(triple) is None


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
    the closed form must match in feasibility."""
    t = 2 * PI / 3
    rep = run_counterexample(t)
    v = rep.matrix.entries[:, 2]
    c1 = np.ones(6, dtype=complex) / SQRT6
    c2 = rep.matrix.entries[:, 1]
    assert abs(np.vdot(c1, v)) < 1e-9
    assert abs(np.vdot(c2, v)) < 1e-9
    w = third_column_witness(rep.s)
    assert max(w.residuals) < 1e-8
    assert np.min(np.abs(w.v.entries)) > 1.0 / SQRT6 - 1e-9


@pytest.mark.parametrize("s", [1.0, 1j, np.exp(2.2j)])
def test_witness_exists_for_assorted_s(s):
    w = third_column_witness(s)
    c1 = np.ones(6, dtype=complex) / SQRT6
    c2 = np.array([1, 1, -1, -1, s, -s], dtype=complex) / SQRT6
    # re-verify with direct inner products, not the returned residuals
    assert abs(np.vdot(c1, w.v.entries)) < 1e-8
    assert abs(np.vdot(c2, w.v.entries)) < 1e-8
    assert np.max(np.abs(np.abs(w.v.entries) * SQRT6 - 1.0)) < 1e-12


def test_witness_rejects_non_unimodular_s():
    with pytest.raises(InvalidInput):
        third_column_witness(0.5)
    for s in (None, "x", "1j", True, [1j, 1j], [1j]):
        with pytest.raises(InvalidInput, match="^s must"):
            third_column_witness(s)
    for s in (complex("nan"), complex(1.0, float("nan")), complex("inf")):
        with pytest.raises(InvalidInput, match="unimodular"):
            third_column_witness(s)


def test_witness_identities_hold_for_every_s():
    """Symbolically, with s = exp(i theta) for a real theta, both inner
    products vanish identically and every entry has modulus 1/sqrt(6); the
    returned vector is that symbolic vector."""
    import sympy as sp

    theta = sp.symbols("theta", real=True)
    s = sp.exp(sp.I * theta)
    w = sp.exp(-sp.I * sp.pi / 3)
    v = [x / sp.sqrt(6) for x in (1, w**2, 1, w**2, -w, -w)]
    c1 = [1 / sp.sqrt(6)] * 6
    c2 = [x / sp.sqrt(6) for x in (1, 1, -1, -1, s, -s)]
    for c in (c1, c2):
        inner = sum(sp.conjugate(ck) * vk for ck, vk in zip(c, v))
        assert sp.simplify(sp.expand_complex(inner)) == 0
    for vk in v:
        assert sp.simplify(vk * sp.conjugate(vk)) == sp.Rational(1, 6)
    got = third_column_witness(np.exp(0.3j)).v.entries
    assert np.max(np.abs(got - np.array([complex(sp.N(vk, 30)) for vk in v]))) < 1e-15


def test_witness_residuals_over_random_s():
    tol = mub6.DEFAULT_TOL.residual_tol
    c1 = np.ones(6, dtype=complex) / SQRT6
    for s in np.exp(2j * PI * np.random.default_rng(2017).random(10_000)):
        w = third_column_witness(s)
        assert w.s == s
        assert max(w.residuals) < tol
        c2 = np.array([1, 1, -1, -1, s, -s], dtype=complex) / SQRT6
        assert max(abs(np.vdot(c1, w.v.entries)), abs(np.vdot(c2, w.v.entries))) < tol
        assert np.max(np.abs(np.abs(w.v.entries) * SQRT6 - 1.0)) < 1e-12
