"""Property tests: structure survives equivalence moves, the CLI fails
closed on any 6x6 input, and refute refutes at every admissible t.

The CLI is called in-process through ``mub6.cli.main``; an exception that
escapes it is exactly the traceback a user would see.  Example counts are
kept small so the suite stays fast.
"""

import contextlib
import functools
import io
import json
import os
import tempfile
import warnings

import numpy as np
from hypothesis import HealthCheck, example, given, settings, strategies as st

import mub6
from mub6 import SQRT6, matrix_to_json
from mub6.analysis import SECTION_FIELDS
from mub6.cli import main
from mub6.core import as_array, as_index, as_indices, as_real, as_tuple, is_index

FAMILIES = ("f6", "m6", "b6", "s6")


def _member(fam, u, v):
    """A family member from two numbers in [0, 1]."""
    if fam == "f6":
        return mub6.fourier_f6(2 * np.pi * u, 2 * np.pi * v)
    if fam == "m6":
        lo, hi = ((np.pi / 2 + 1e-3, np.pi), (1.5 * np.pi + 1e-3, 2 * np.pi - 1e-3))[v < 0.5]
        return mub6.m6(lo + u * (hi - lo))
    if fam == "b6":
        return mub6.b6(mub6.B6_THETA_MIN + u * (mub6.B6_THETA_MAX - mub6.B6_THETA_MIN))
    return mub6.s6()


unit = st.floats(0.0, 1.0)
members = st.builds(_member, st.sampled_from(FAMILIES), unit, unit)
seeds = st.integers(0, 2**32 - 1)


@settings(max_examples=25, deadline=None)
@given(members, seeds, st.booleans())
def test_equivalence_moves_keep_structure(H, seed, permute_only):
    rng = np.random.default_rng(seed)
    if permute_only:
        move = mub6.TransformRecord(rng.permutation(6) + 1, rng.permutation(6) + 1,
                                    np.ones(6), np.ones(6))
    else:
        move = mub6.random_record(rng)
    G = mub6.apply(H, move)
    assert (mub6.to_lemma_form(G) is None) == (mub6.to_lemma_form(H) is None)
    assert mub6.count_h2_submatrices(G) == mub6.count_h2_submatrices(H)
    assert (mub6.is_h2_reducible(G) is None) == (mub6.is_h2_reducible(H) is None)


@settings(max_examples=10, deadline=None)
@given(members, seeds)
def test_permutations_and_column_phases_keep_product_triples(H, seed):
    """Row phases are left out: a diagonal unitary on C^6 maps product
    vectors to product vectors only when it is itself a tensor product, so
    product-triple existence is not an invariant of general rephasing."""
    rng = np.random.default_rng(seed)
    rec = mub6.random_record(rng)
    move = mub6.TransformRecord(rec.row_perm, rec.col_perm, np.ones(6), rec.col_phases)
    G = mub6.apply(H, move)
    assert mub6.product_triple_exists(G) == mub6.product_triple_exists(H)


# ------------------------------------------------------- integer arguments

# ints repr will not print (over 4300 digits) and ints beyond every array size
huge_ints = st.sampled_from([10**5000, -10**5000, 2**63, np.uint64(2**63)])
scalars = st.one_of(st.integers(-2, 8), st.floats(-2, 8), st.floats(), st.booleans(),
                    st.text(max_size=2), st.none(), huge_ints)
index_args = st.one_of(scalars, st.text(max_size=7),
                       st.lists(st.one_of(scalars, st.lists(scalars, max_size=2)), max_size=7))


@functools.cache
def _f6_vectors():
    return mub6.find_mu_vectors(mub6.fourier_f6(), mub6.OptimConfig(starts=200))


def _kept(call):
    """call()'s result, or None when it raises InvalidInput; any other
    exception fails the test."""
    try:
        return call()
    except mub6.InvalidInput:
        return None


@settings(max_examples=200, deadline=None)
@given(index_args)
@example([1, 2, 3])
@example(list(range(1, 7)))
@example([1.0, 2, 3])
@example([True, 2, 3])
@example([[1]] * 6)
@example(10**5000)
@example([10**5000])
def test_index_arguments_are_exact_or_refused(values):
    """as_indices and every argument it checks keep integers exactly and
    refuse floats, bools, strings, None, huge ints, non-iterables and nested
    lists with InvalidInput, never numpy's TypeError or ValueError, nor
    Python's ValueError for an int repr cannot print.  So do the scalar
    index arguments, which as_index reads."""
    exact = isinstance(values, (list, str)) and all(map(is_index, values))   # "" is ()
    one, F6, vecs = np.ones(6), mub6.fourier_f6(), _f6_vectors()
    got = _kept(lambda: as_index(values, "v", 1, 6))
    assert got == (values if is_index(values) and 1 <= values <= 6 else None)
    assert _kept(lambda: as_tuple(values, "v")) == (tuple(values) if isinstance(values, (list, str))
                                                    else None)
    assert _kept(lambda: mub6.analyze(F6, sections=values)) is None or all(
        isinstance(v, str) and v in SECTION_FIELDS for v in values)
    for call in (lambda: as_indices(values, "v", 1, 6),
                 lambda: mub6.SubmatrixLoc(values, (1,)).rows,
                 lambda: mub6.SubmatrixLoc((1,), values).cols,
                 lambda: mub6.TransformRecord(values, range(1, 7), one, one).row_perm,
                 lambda: mub6.TransformRecord(range(1, 7), values, one, one).col_perm):
        got = _kept(call)
        assert got is None or (exact and got == tuple(values))
    assert _kept(lambda: mub6.verify_triple(F6, vecs, values)) is None or exact
    for call in (lambda: mub6.m6_grid(values), lambda: mub6.find_unitary_submatrices(F6, values),
                 lambda: mub6.find_real_submatrices(F6, values, 2),
                 lambda: mub6.find_real_submatrices_up_to_rephasing(F6, 2, values)):
        assert _kept(call) is None or is_index(values)


# ---------------------------------------------------------- real arguments

real_scalars = st.one_of(st.floats(), st.integers(), st.floats().map(np.float64),
                         st.floats(width=32).map(np.float32),
                         st.integers(-2**63, 2**63 - 1).map(np.int64))
odd_scalars = st.one_of(st.text(max_size=3), st.none(), st.booleans(), st.booleans().map(np.bool_),
                        st.complex_numbers(), st.complex_numbers().map(np.complex128), huge_ints)
scalar_lists = st.lists(st.one_of(real_scalars, odd_scalars), max_size=7)
real_args = st.one_of(real_scalars, odd_scalars, real_scalars.map(np.array), scalar_lists,
                      scalar_lists.map(np.array),
                      st.lists(st.lists(real_scalars, max_size=2), min_size=1, max_size=6))


def _read(call):
    """call()'s result, or None when it raises InvalidInput or DomainError;
    any other exception, and any warning, fails the test."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return call()
        except (mub6.InvalidInput, mub6.DomainError):
            return None


@settings(max_examples=150, deadline=None)
@given(real_args)
@example(np.full(5, 1j))
@example([1j] * 6)
@example("2.0")
@example(True)
@example(np.array(2.0))
@example([[1, 2], [3]])
@example(10**400)
@example(np.int64(-2**63))
@example(np.float32(2.0))
@example(10**5000)
@example([2.0, -10**5000])
def test_real_arguments_are_read_or_refused(x):
    """as_real and as_array, and every public argument they read, either
    accept x or refuse it with InvalidInput (or DomainError for a real but
    inadmissible value): never numpy's TypeError or ValueError, Python's
    ValueError for an int repr cannot print, or a TypeError for a scalar
    where a sequence belongs, and never a warning such as ComplexWarning,
    which marked a dropped imaginary part.  as_real keeps a Python or numpy
    real exactly and refuses everything else."""
    real = isinstance(x, (float, np.floating)) or (
        is_index(x) and abs(int(x)) <= float(np.finfo(float).max))
    got = _read(lambda: as_real(x, "x"))
    assert (got is not None) == real
    assert got is None or (type(got) is float and (got == float(x) or np.isnan(got)))
    for dtype in (float, complex):
        got = _read(lambda: as_array(x, dtype, "x"))
        assert got is None or got.dtype == dtype
    F6, v = mub6.fourier_f6(), mub6.ColVec6(np.ones(6) / SQRT6)
    cfg = mub6.OptimConfig(starts=1)
    for call in (lambda: mub6.Tolerances(x), lambda: mub6.is_admissible_t(x), lambda: mub6.m6(x),
                 lambda: mub6.b6(x), lambda: mub6.fourier_f6(x, 0.0),
                 lambda: mub6.fourier_f6(0.0, x), lambda: mub6.run_counterexample(x),
                 lambda: mub6.scan_m6([x], cfg), lambda: mub6.MUVector((0.0,) * 5, v, x),
                 lambda: mub6.ScanRow(x, 0, 0, 0, 0.0, 0.0)):
        assert _read(call) is None or real
    for call in (lambda: mub6.solve_m6_entries(x), lambda: mub6.third_column_witness(x),
                 lambda: mub6.verify_tail_structure(x), lambda: mub6.mu_objective(F6, x),
                 lambda: mub6.MUVector(x, v, 0.0), lambda: mub6.CMat6(x), lambda: mub6.ColVec6(x),
                 lambda: mub6.is_hadamard(x), lambda: mub6.scan_m6(x, cfg),
                 lambda: mub6.matrix_from_json(x), lambda: mub6.ScanRow(2.0, x, 0, 0, 0.0, 0.0)):
        _read(call)


# ------------------------------------------------------------ CLI fuzzing

finite = st.floats(allow_nan=False, allow_infinity=False)
scales = st.sampled_from([1.0, SQRT6, 1e-300, 1e-12, 1e12, 1e300])


@st.composite
def matrix_texts(draw):
    """JSON text of a 6x6 matrix: disguised, unscaled, zeroed, random or
    huge entries, or a malformed document."""
    kind = draw(st.sampled_from(["member", "zeros", "random", "malformed"]))
    if kind == "malformed":
        return draw(st.sampled_from([
            "", "[]", "{}", '{"label": "", "matrix": 3}', '{"label": "", "matrix": [[0, 0]]}',
            json.dumps({"label": "", "matrix": [[[1, 0]] * 6] * 5}),
            json.dumps({"label": "", "matrix": [[["a", 0]] * 6] * 6}),
            json.dumps({"label": "", "matrix": [[[10**400, 0]] * 6] * 6}),
            json.dumps({"matrix": [[[1, 0]] * 6] * 6, "label": 7}),
            json.dumps({"matrix": [[[1, 0]] * 6] * 6}),
            '{"label": "", "matrix": ['
            + ",".join(["[" + ",".join(["[NaN, 0]"] * 6) + "]"] * 6) + "]}",
            '{"label": "", "matrix": ['
            + ",".join(["[" + ",".join(["[1e400, 0]"] * 6) + "]"] * 6) + "]}",
        ]))
    if kind == "random":
        parts = draw(st.lists(finite, min_size=72, max_size=72))
        A = np.array(parts[:36]).reshape(6, 6) + 1j * np.array(parts[36:]).reshape(6, 6)
        return matrix_to_json(A)
    H = draw(members)
    A = mub6.apply(H, mub6.random_record(np.random.default_rng(draw(seeds)))).entries * draw(scales)
    if kind == "zeros":
        mask = np.array(draw(st.lists(st.booleans(), min_size=36, max_size=36))).reshape(6, 6)
        A = np.where(mask, 0.0, A)
    return matrix_to_json(A)


tols = st.one_of(st.none(), st.sampled_from([5e-324, 1e-300, 1e-9, 0.5, 0.999, 1.0, 1e300, float("inf")]),
                 st.floats(5e-324, float("inf")))
commands = st.sampled_from([
    ["check"], ["normalize"], ["normalize", "--lemma-form"],
    ["analyze", "--report", "full"], ["analyze", "--report", "real"],
    ["analyze", "--report", "h2"], ["analyze", "--report", "product"],
])


admissible_ts = st.one_of(st.floats(np.pi / 2, np.pi, exclude_min=True),
                          st.floats(1.5 * np.pi, 2 * np.pi, exclude_min=True, exclude_max=True))


@settings(max_examples=60, deadline=None)
@given(admissible_ts)
@example(t=1.5707963367948965)   # just above pi/2, where 1 + a^2 cancels
@example(t=4.71238899038469)     # the same offset above 3 pi/2
def test_refute_fails_closed(t):
    """refute refutes at every admissible t: exit 0, with every audit
    passing."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["refute", "--t", repr(t), "--json"])
    assert (code, err.getvalue()) == (0, "")
    rep = json.loads(out.getvalue(), parse_constant=_reject_constant)
    assert rep["verdict"] == "LEMMA_CLAIM_REFUTED"
    assert rep["is_hadamard_ok"] and rep["lemma_form_ok"] and rep["tail_ok"]


def _reject_constant(name):
    raise AssertionError(f"{name} in JSON output")


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(matrix_texts(), commands, tols, st.booleans())
@example(matrix_to_json(mub6.fourier_f6().entries * 1e300), ["check"], None, True)
def test_cli_fails_closed(text, command, tol, as_json):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        argv = [*command, "--in", path]
        # plain normalize takes neither flag; it and analyze always print JSON
        if tol is not None and command != ["normalize"]:
            argv += ["--tol", repr(tol)]
        takes_json = command[0] == "check" or "--lemma-form" in command
        if as_json and takes_json:
            argv.append("--json")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code != 0 and code != 2:
        assert out.getvalue() == "" and "error" in err.getvalue()
    elif "--json" in argv or not takes_json:
        json.loads(out.getvalue(), parse_constant=_reject_constant)
