import dataclasses
import importlib
import inspect
import json

import numpy as np
import pytest

import mub6
from mub6 import (
    CMat6,
    ColVec6,
    DEFAULT_TOL,
    InvalidInput,
    SQRT6,
    Tolerances,
    is_hadamard,
    is_unitary,
    matrix_from_json,
    matrix_to_json,
    unitarity_residual,
)
from mub6.core import as_index, as_tuple, is_unimodular, safe_repr


def test_tolerances_defaults():
    assert DEFAULT_TOL.eq_tol == 1e-9
    assert DEFAULT_TOL.residual_tol == 1e-8
    assert DEFAULT_TOL.cluster_tol == 1e-6
    assert DEFAULT_TOL.rank_tol == 1e-9


def test_tolerances_validation():
    with pytest.raises(InvalidInput):
        Tolerances(eq_tol=0.0)
    with pytest.raises(InvalidInput):
        Tolerances(eq_tol=-1e-9)
    with pytest.raises(InvalidInput):
        Tolerances(eq_tol=float("nan"))
    # at 1 or more the modulus test passes zero entries, so nothing is judged
    for eq_tol in (1.0, 2, 1e300, float("inf")):
        with pytest.raises(InvalidInput):
            Tolerances(eq_tol=eq_tol)
    assert Tolerances(eq_tol=0.999).eq_tol == 0.999
    for eq_tol in ("x", "1e-6", None, True, 1e-6j, np.array(1e-6), [1e-6]):
        with pytest.raises(InvalidInput, match="eq_tol must be a real number"):
            Tolerances(eq_tol=eq_tol)
    assert Tolerances(eq_tol=np.float64(1e-6)).eq_tol == 1e-6


def test_tolerances_store_a_float():
    """A numpy float is stored as the Python float as_real reads, so the
    refusals print it as one."""
    for eq_tol in (np.float32(1e-9), np.float64(1e-6), 1e-3):
        tol = Tolerances(eq_tol=eq_tol)
        assert type(tol.eq_tol) is float and tol.eq_tol == float(eq_tol)
    with pytest.raises(InvalidInput, match=r"within eq_tol = 9\.999999717180685e-10$"):
        mub6.core.as_hadamard(np.ones((6, 6)), Tolerances(eq_tol=np.float32(1e-9)))


@pytest.mark.parametrize("func", [mub6.dephase, mub6.submatrix_rank, mub6.is_product_vector,
                                  mub6.product_triple_exists, mub6.b6,
                                  mub6.verify_tail_structure, mub6.third_column_witness],
                         ids=lambda f: f.__name__)
def test_no_tolerance_where_none_decides(func):
    """These read no eq_tol: dephase's 1e-12 guard and the rank cutoff are
    fixed, b6 verifies its member at the default, and the tail match and
    the witness test their inputs at the default.  Nor does the MU
    search: its dedupe radius is fixed and OptimConfig takes no tolerance."""
    assert "tol" not in inspect.signature(func).parameters
    assert [f.name for f in dataclasses.fields(Tolerances)] == ["eq_tol"]
    for eq_tol in (1e-9, 1e-6, 0.1, 1 / 6, 0.5):
        assert Tolerances(eq_tol=eq_tol).cluster_tol == 1e-6
    assert [f.name for f in dataclasses.fields(mub6.OptimConfig)] == ["starts", "seed"]
    assert mub6.OptimConfig().tol is DEFAULT_TOL
    with pytest.raises(TypeError):
        mub6.OptimConfig(tol=DEFAULT_TOL)


def _planted_block():
    """A unimodular non-Hadamard matrix with a real (1, -1) 3x2 block."""
    A = np.exp(2j * np.pi * np.random.default_rng(7).random((6, 6)))
    A[:3, :2] = [[1, 1], [1, 1], [1, -1]]
    return A / SQRT6


NON_HADAMARD = {
    "planted": _planted_block(),
    "unscaled_f6": mub6.fourier_f6().entries * SQRT6,
    "huge_f6": 1e200 * mub6.fourier_f6().entries,
    "identity": np.eye(6),
}
NEEDS_HADAMARD = {
    "mu_objective": lambda A, tol: mub6.mu_objective(A, np.zeros(5)),
    "find_mu_vectors": lambda A, tol: mub6.find_mu_vectors(A, mub6.OptimConfig(starts=20)),
    "analyze": mub6.analyze,
    "to_lemma_form": mub6.to_lemma_form,
}


@pytest.mark.parametrize("func", NEEDS_HADAMARD)
@pytest.mark.parametrize("matrix", NON_HADAMARD)
def test_one_hadamard_refusal(func, matrix):
    """Every entry point that needs a Hadamard input refuses the same inputs
    with the same message, which names the tolerance it used."""
    call = NEEDS_HADAMARD[func]
    with pytest.raises(InvalidInput) as exc:
        call(NON_HADAMARD[matrix], DEFAULT_TOL)
    assert str(exc.value) == "not a Hadamard matrix within eq_tol = 1e-09"
    if func in ("analyze", "to_lemma_form"):
        with pytest.raises(InvalidInput, match=r"^not a Hadamard matrix within eq_tol = 1e-06$"):
            call(CMat6(NON_HADAMARD[matrix]), Tolerances(eq_tol=1e-6))


def test_is_unimodular():
    assert is_unimodular(1j) and is_unimodular(np.exp(1j * np.arange(6)))
    assert is_unimodular(1 + 0.9e-9) and not is_unimodular(1 + 1.1e-9)
    for z in (0.0, 2.0, np.nan, np.inf, complex(np.nan, 1), np.array([1, 1j, np.nan])):
        assert not is_unimodular(z)


def test_integer_and_iterable_readers():
    """as_index reads one integer in a range and as_tuple any iterable.  A
    refusal shows the value unless repr cannot print it (an int of more
    than 4300 digits), where Python's ValueError escaped before."""
    assert as_index(np.int64(3), "k", 2, 6) == 3 and type(as_index(np.uint8(2), "k", 2, 6)) is int
    for bad in (1, 7, 2.0, True, np.bool_(True), "3", None, [3], 10**5000, -10**5000):
        with pytest.raises(InvalidInput, match=r"k must be an integer in 2\.\.6, got"):
            as_index(bad, "k", 2, 6)
    assert as_tuple(range(3), "v") == (0, 1, 2) and as_tuple("ab", "v") == ("a", "b")
    for bad in (5, 5.0, None, True, 10**5000, np.array(5)):
        with pytest.raises(InvalidInput, match="v must be iterable"):
            as_tuple(bad, "v")
    assert safe_repr(10**5000) == safe_repr([10**5000]) == "a value too long to print"
    assert safe_repr(2.5) == "2.5"
    for bad in (10**5000, [1, 10**5000]):
        with pytest.raises(InvalidInput, match="too long to print"):
            mub6.core.as_indices(bad, "rows", 1, 6)
        with pytest.raises(InvalidInput, match="too long to print"):
            mub6.core.as_real(bad, "t")


def test_array_records_compare_by_identity():
    """A generated field-wise == cannot compare arrays and raises, and the
    generated hash raises too, so these records compare by identity."""
    f6, s6 = mub6.fourier_f6(0.0, 0.0), mub6.s6()
    rng = np.random.default_rng(26)
    vecs = mub6.find_mu_vectors(f6, mub6.OptimConfig(starts=200, seed=1))
    pairs = {
        "CMat6": (f6, s6),
        "ColVec6": (ColVec6(f6.entries[:, 0]), ColVec6(f6.entries[:, 1])),
        "TransformRecord": (mub6.random_record(rng), mub6.random_record(rng)),
        "LemmaForm": (mub6.to_lemma_form(f6), mub6.to_lemma_form(mub6.m6(2.0))),
        "MUVector": (vecs[0], vecs[1]),
        "LemmaReport": (mub6.run_counterexample(2.0), mub6.run_counterexample(2.5)),
        "ThirdColumnWitness": (mub6.third_column_witness(1.0), mub6.third_column_witness(1j)),
    }
    for name, (x, other) in pairs.items():
        assert type(x).__name__ == name and type(other) is type(x)
        assert x not in [other] and x != other, name
        assert x == x and x in [other, x], name
        assert hash(x) == hash(x) and len({x, other}) == 2, name


def test_cmat6_shape_and_immutability():
    A = np.full((6, 6), 1.0 + 0.0j) / SQRT6
    H = CMat6(A, "flat")
    with pytest.raises((ValueError, RuntimeError)):
        H.entries[0, 0] = 0.0
    # source array mutation must not leak in
    A[0, 0] = 99.0
    assert H.entries[0, 0] != 99.0
    with pytest.raises(InvalidInput):
        CMat6(np.zeros((5, 6), dtype=complex))
    # entries numpy cannot read as numbers are refused, not passed through
    for bad in ([["a"] * 6] * 6, [["1"] * 6] * 6, [[None] * 6] * 6, [[1, 2], [3]],
                np.eye(6, dtype=bool), "x", None):
        for call in (CMat6, is_hadamard, mub6.analyze):
            with pytest.raises(InvalidInput, match="must be complex numbers"):
                call(bad)
    for bad in (["a"] * 6, [None] * 6, [[1, 2], [3]], [True] * 6):
        with pytest.raises(InvalidInput, match="must be complex numbers"):
            ColVec6(bad)
    assert np.array_equal(CMat6(np.eye(6, dtype=int)).entries, np.eye(6))


def test_cmat6_relabel():
    rng = np.random.default_rng(11)
    A = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    H = CMat6(A, "x")
    assert H.relabel("y").label == "y"
    assert np.array_equal(H.relabel("y").entries, A)
    assert H.label == "x"


def test_cmat6_refuses_a_label_that_is_not_text():
    """The label is a str or None, the two values matrix_to_json writes and
    matrix_from_json reads back; any other label would write a file that
    the reader and schemas/matrix.schema.json refuse."""
    F6 = mub6.fourier_f6()
    for label in (5, ["a"], b"x", 0.5, False):
        with pytest.raises(InvalidInput, match="label must be a str or None"):
            CMat6(F6.entries, label)
        with pytest.raises(InvalidInput, match="label must be a str or None"):
            F6.relabel(label)
    for label in (None, "", "x"):
        H = F6.relabel(label)
        assert mub6.matrix_from_json(matrix_to_json(H)).label == (label or None)


def test_unitarity_residual_identity():
    assert unitarity_residual(np.eye(6, dtype=complex)) < 1e-15
    assert is_unitary(np.eye(6, dtype=complex))


def test_is_hadamard_requires_unimodularity(f6):
    assert is_hadamard(f6)
    # unitary but not unimodular: the identity
    assert not is_hadamard(np.eye(6, dtype=complex))
    # unimodular but not unitary: the all-ones matrix
    assert not is_hadamard(np.full((6, 6), 1.0 / SQRT6, dtype=complex))


def test_is_hadamard_perturbation_leaves_tolerance(f6):
    A = f6.entries.copy()
    A[2, 3] *= np.exp(1j * 1e-4)
    assert not is_hadamard(A)


def test_json_round_trip(f6, m6_sample):
    for H in (f6, m6_sample):
        H2 = matrix_from_json(matrix_to_json(H))
        assert np.max(np.abs(H2.entries - H.entries)) < 1e-15
        assert H2.label == H.label


def test_json_precision_survives_seventeen_digits():
    rng = np.random.default_rng(3)
    A = np.exp(1j * rng.uniform(0, 2 * np.pi, (6, 6))) / SQRT6
    H = CMat6(A)
    H2 = matrix_from_json(matrix_to_json(H))
    assert np.array_equal(H2.entries, H.entries)


@pytest.mark.parametrize("text", [
    "not json at all",
    "[]",
    '{"label": "x"}',
    '{"matrix": [[1,2],[3,4]]}',
    '{"matrix": [[[1]]] }',
    pytest.param("[" * 200000, id="nested-200000-deep"),
    pytest.param(json.dumps({"label": "", "matrix": [[[True, False]] * 6] * 6}), id="boolean-entries"),
    pytest.param(json.dumps({"label": 0, "matrix": [[[1, 0]] * 6] * 6}), id="label-0"),
    pytest.param(json.dumps({"label": False, "matrix": [[[1, 0]] * 6] * 6}), id="label-false"),
    pytest.param(json.dumps({"matrix": [[[1, 0]] * 6] * 6}), id="no-label"),
    pytest.param(json.dumps({"label": None, "matrix": [[[1, 0]] * 6] * 6}), id="label-null"),
    pytest.param(json.dumps({"label": "", "matrix": [[[1, 0]] * 6] * 6, "extra": 1}),
                 id="extra-key"),
    pytest.param(json.dumps({"label": "", "matrix": [[[1, 0]] * 6] * 5}), id="five-rows"),
    pytest.param(json.dumps({"label": "", "matrix": [[[1, 0]] * 6] * 5 + [[[1, 0]] * 5]}),
                 id="row-of-five"),
    pytest.param(json.dumps({"label": "", "matrix": [[[1, 0]] * 6] * 5 + [[[1, 0, 0]] * 6]}),
                 id="cell-not-a-pair"),
    pytest.param(json.dumps({"label": "", "matrix": [[[10**400, 0]] * 6] * 6}),
                 id="part-beyond-double"),
    pytest.param('{"label": "", "matrix": ' + "1" * 5000 + "}", id="int-of-5000-digits"),
    pytest.param(b"\xff{}", id="non-utf8-bytes"),
    pytest.param(5, id="not-text"),
    pytest.param(None, id="none"),
])
def test_json_malformed_rejected(text):
    """Each is refused as InvalidInput: JSON true/false are not numbers,
    matrix.schema.json requires a string label and no other top-level key,
    and an int of more than 4300 digits, bytes that are not UTF-8 and a
    value that is not text at all raised ValueError or TypeError."""
    with pytest.raises(InvalidInput):
        matrix_from_json(text)


def test_json_non_numeric_entry_rejected(f6):
    """Each part is read by as_real: text, JSON true, null and an int no
    double holds are refused in either slot of the pair."""
    for part in ("a", True, None, 10**400):
        for slot in (0, 1):
            obj = json.loads(matrix_to_json(f6))
            obj["matrix"][0][0][slot] = part
            with pytest.raises(InvalidInput, match=r"^entry \(0,0\) must be a real number"):
                matrix_from_json(json.dumps(obj))


def test_json_int_part_read_exactly():
    obj = {"label": "", "matrix": [[[2**64, 0]] * 6] * 6}
    assert matrix_from_json(json.dumps(obj)).entries[0, 0] == complex(float(2**64), 0.0)


MODULES = ("core", "errors", "families", "equivalence", "analysis", "refutation", "musearch")


def test_package_exports_exactly_the_modules_all():
    """Each module's __all__ is the one list of its public names: mub6
    exports their union, each name once, and nothing else."""
    modules = [importlib.import_module(f"mub6.{name}") for name in MODULES]
    declared = [name for module in modules for name in module.__all__]
    assert len(declared) == len(set(declared))
    public = {name for name, value in vars(mub6).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert public == set(declared)
    for module in modules:
        for name in module.__all__:
            assert getattr(mub6, name) is getattr(module, name)
