"""Property tests: structure survives equivalence moves, and the CLI fails
closed on any 6x6 input.

The CLI is called in-process through ``mub6.cli.main``; an exception that
escapes it is exactly the traceback a user would see.  Example counts are
kept small so the suite stays fast.
"""

import contextlib
import io
import json
import os
import tempfile

import numpy as np
from hypothesis import HealthCheck, example, given, settings, strategies as st

import mub6
from mub6 import SQRT6, matrix_to_json
from mub6.cli import main

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
    G = mub6.apply(H, mub6.random_record(np.random.default_rng(seed), permute_only))
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
            "", "[]", "{}", '{"matrix": 3}', '{"matrix": [[0, 0]]}',
            json.dumps({"matrix": [[[1, 0]] * 6] * 5}),
            json.dumps({"matrix": [[["a", 0]] * 6] * 6}),
            json.dumps({"matrix": [[[10**400, 0]] * 6] * 6}),
            json.dumps({"matrix": [[[1, 0]] * 6] * 6, "label": 7}),
            '{"matrix": [' + ",".join(["[" + ",".join(["[NaN, 0]"] * 6) + "]"] * 6) + "]}",
            '{"matrix": [' + ",".join(["[" + ",".join(["[1e400, 0]"] * 6) + "]"] * 6) + "]}",
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


tols = st.one_of(st.none(), st.sampled_from([5e-324, 1e-300, 1e-9, 1.0, 1e300, float("inf")]),
                 st.floats(5e-324, float("inf")))
commands = st.sampled_from([
    ["check"], ["normalize"], ["normalize", "--lemma-form"],
    ["analyze", "--report", "full"], ["analyze", "--report", "real"],
    ["analyze", "--report", "h2"], ["analyze", "--report", "product"],
])


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
        if tol is not None:
            argv += ["--tol", repr(tol)]
        if as_json:
            argv.append("--json")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code != 0 and code != 2:
        assert out.getvalue() == "" and "error" in err.getvalue()
    elif as_json:
        json.loads(out.getvalue(), parse_constant=_reject_constant)
