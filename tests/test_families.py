import numpy as np
import pytest

import mub6
from mub6 import (
    B6_THETA_MAX,
    B6_THETA_MIN,
    DomainError,
    InvalidInput,
    SQRT6,
    SolveError,
    Tolerances,
    b6,
    fourier_f6,
    is_admissible_t,
    is_hadamard,
    m6,
    m6_grid,
    s6,
    solve_m6_entries,
    unitarity_residual,
)

PI = np.pi
# values that are not one real number: each parameter refuses them with InvalidInput
NOT_REAL = ("x", "2.0", None, True, np.bool_(True), 2j, np.complex128(2.0), np.array(2.0), [2.0],
            10**400, 10**5000)


def test_admissible_set_boundaries():
    assert not is_admissible_t(PI / 2)
    assert is_admissible_t(PI / 2 + 1e-9)
    assert is_admissible_t(PI)
    assert not is_admissible_t(PI + 1e-9)
    assert not is_admissible_t(3 * PI / 2)
    assert is_admissible_t(3 * PI / 2 + 1e-9)
    assert is_admissible_t(2 * PI - 1e-9)
    assert is_admissible_t(np.nextafter(2 * PI, 0.0))
    # 2pi would give the excluded parameter a = 1, so the second arc is open
    assert not is_admissible_t(2 * PI)
    assert not is_admissible_t(2 * PI + 1e-9)
    assert not is_admissible_t(0.0)
    assert not is_admissible_t(0.4 * PI)


def test_m6_rejects_outside_domain():
    for t in (0.0, 0.4 * PI, PI / 2, 1.2 * PI, 3 * PI / 2, 2 * PI):
        with pytest.raises(DomainError):
            m6(t)
    for t in NOT_REAL:
        for call in (m6, is_admissible_t):
            with pytest.raises(InvalidInput, match="t must be a real number"):
                call(t)
    # numpy reals give the Python float's bits and keep the caller's repr in the label
    for t in (np.float64(2.0), np.float32(2.0), np.int64(3), 3):
        H = m6(t)
        assert np.array_equal(H.entries, m6(float(t)).entries)
        assert H.label == f"m6(t={t!r})"


def test_solver_rejects_non_unimodular_a():
    with pytest.raises(DomainError):
        solve_m6_entries(1.1 + 0.0j)
    with pytest.raises(DomainError, match="must be unimodular"):
        solve_m6_entries(complex("nan"))
    with pytest.raises(DomainError):
        solve_m6_entries(1.0 + 0.0j)  # a = 1 is the excluded endpoint
    for a in ("x", "1j", None, True, [1j, 1j], [[1j]]):
        with pytest.raises(InvalidInput, match="^a must"):
            solve_m6_entries(a)
    a = np.exp(2.5j)
    assert solve_m6_entries(a) == solve_m6_entries(complex(a)) == solve_m6_entries(np.array(a))


def test_m6_tolerance_reaches_only_the_hadamard_check():
    """solve_m6_entries tests |a| = 1 at the default eq_tol, so a tolerance
    below rounding fails m6's own Hadamard check (SolveError) and never
    calls a = exp(i t) non-unimodular (DomainError)."""
    tight = Tolerances(eq_tol=1e-17)
    for t in np.linspace(PI / 2, PI, 201)[1:]:
        with pytest.raises(SolveError):
            m6(t, tight)


def test_m6_grid_is_fifty_admissible_points():
    g = m6_grid()
    assert len(g) == 50
    assert all(is_admissible_t(t) for t in g)
    # pi itself belongs to the first arc and is on the grid
    assert any(abs(t - PI) < 1e-15 for t in g)
    assert max(g) < 2 * PI


def test_m6_grid_refuses_non_integer_counts():
    """2.5 used to raise numpy's TypeError, True to give a two-point grid and
    -5 numpy's ValueError; -1 and 0 gave an empty grid.  A count whose grid
    no numpy array can hold is refused before anything is allocated:
    10**5000 raised numpy's ValueError (maximum allowed size exceeded)."""
    for n in (2.5, 2.0, True, -5, -1, 0, "3", None, 2**63, np.iinfo(np.intp).max // 16 + 1,
              10**5000):
        with pytest.raises(InvalidInput, match="n_per_arc"):
            m6_grid(n)
    assert np.array_equal(m6_grid(np.int64(5)), m6_grid(5))
    assert len(m6_grid(1)) == 2


def test_m6_hadamard_and_symmetric_on_grid():
    for t in m6_grid():
        H = m6(t)
        assert is_hadamard(H), t
        A = H.entries
        assert np.max(np.abs(A - A.T)) == 0.0
        assert unitarity_residual(A) < 1e-9


@pytest.mark.parametrize("start", [PI / 2, 1.5 * PI])
def test_m6_hadamard_just_inside_each_arc(start):
    """Near a = +-i, 1 + a^2 cancels; m6 must still pass its own check."""
    for offset in 10.0 ** np.linspace(-15, -1, 200):
        H = m6(start + offset)
        assert unitarity_residual(H) < 1e-14, offset


def test_m6_layout_row_structure():
    """First row flat, second row (1,-1,a,a,-a,-a)/sqrt(6), rows 3/4 and 5/6
    relate by the same two-entry swap in both halves."""
    t = 2 * PI / 3
    A = m6(t).entries
    a = np.exp(1j * t)
    assert np.max(np.abs(A[0] * SQRT6 - 1.0)) < 1e-15
    expected = np.array([1, -1, a, a, -a, -a]) / SQRT6
    assert np.max(np.abs(A[1] - expected)) == 0.0
    H = A * SQRT6
    # row 4 is row 3 with (b,c) and (d,e) swapped
    assert abs(H[3, 2] - H[2, 3]) < 1e-15
    assert abs(H[3, 3] - H[2, 2]) < 1e-15
    assert abs(H[3, 4] - H[2, 5]) < 1e-15
    assert abs(H[3, 5] - H[2, 4]) < 1e-15
    # rows 5/6 mirror the same pattern in the lower-right block
    assert abs(H[5, 4] - H[4, 5]) < 1e-15
    assert abs(H[5, 5] - H[4, 4]) < 1e-15


def test_m6_pair_sums_match_constraints():
    """The row-orthogonality relations pin the three pair sums."""
    rng = np.random.default_rng(20)
    for _ in range(25):
        t = rng.uniform(PI / 2 + 1e-6, PI)
        a = np.exp(1j * t)
        b, c, d, e, f, g = solve_m6_entries(a)
        assert abs((b + c) - (a * a - 2 * a - 1) / 2) < 1e-12
        assert abs((d + e) - (-(1 + a * a) / 2)) < 1e-12
        assert abs((f + g) - (a * a + 2 * a - 1) / 2) < 1e-12
        for z in (b, c, d, e, f, g):
            assert abs(abs(z) - 1.0) < 1e-12


@pytest.mark.parametrize("p, q, r", [(3, 4, 5), (4, 3, 5), (5, 12, 13), (12, 5, 13)])
@pytest.mark.parametrize("arc", [1, -1], ids=["first_arc", "second_arc"])
def test_m6_is_exactly_hadamard_at_gaussian_rational_a(p, q, r, arc):
    """At a = arc (-p + qi)/r the entries _pair_from_sum builds are exact
    algebraic numbers; with them U U^H = 6 I and |U_ij| = 1 hold identically,
    so the pair sums alone fix every orthogonality relation, and the float
    entries sit on the exact ones."""
    import sympy as sp

    def pair(S):
        half = S / 2
        u = sp.I * S / sp.sqrt(S * sp.conjugate(S)) * sp.sqrt(1 - half * sp.conjugate(half))
        return sp.expand(half + u), sp.expand(half - u)

    a = arc * (-sp.Rational(p, r) + sp.I * sp.Rational(q, r))
    aa = sp.expand(a * a)
    b, c = pair(sp.expand((aa - 2 * a - 1) / 2))
    d, e = pair(sp.expand(-a * sp.re(a)))
    f, g = pair(sp.expand((aa + 2 * a - 1) / 2))
    U = sp.Matrix([[1, 1, 1, 1, 1, 1], [1, -1, a, a, -a, -a], [1, a, b, c, d, e],
                   [1, a, c, b, e, d], [1, -a, d, e, f, g], [1, -a, e, d, g, f]])
    for z in U * U.H - 6 * sp.eye(6):
        assert sp.simplify(sp.expand(z)) == 0
    for z in U:
        assert sp.simplify(sp.expand(z * sp.conjugate(z))) == 1
    t = float(np.angle(complex(a))) % (2 * PI)
    exact = np.array(U.evalf(30).tolist(), dtype=complex)
    assert np.max(np.abs(m6(t).entries * SQRT6 - exact)) < 2e-15


def test_m6_continuity_within_arc():
    """The branch choice keeps entries continuous along each arc."""
    for lo, hi in ((PI / 2 + 1e-3, PI), (3 * PI / 2 + 1e-3, 2 * PI - 1e-3)):
        ts = np.linspace(lo, hi, 60)
        prev = None
        for t in ts:
            A = m6(t).entries
            if prev is not None:
                assert np.max(np.abs(A - prev)) < 0.2, t
            prev = A


# P swaps rows and columns 2 <-> 4 and 3 <-> 5 (0-based).  a -> -a swaps the
# pair sums b + c and f + g and keeps d + e, so m6(t + pi) = P m6(t) P.
ARC_SWAP = [0, 1, 4, 5, 2, 3]


def test_second_arc_is_first_arc_relabelled():
    for t in np.linspace(PI / 2, PI, 2002)[1:-1]:
        relabelled = m6(t).entries[np.ix_(ARC_SWAP, ARC_SWAP)]
        assert np.max(np.abs(m6(t + PI).entries - relabelled)) < 2e-15, t


@pytest.mark.parametrize("t, count", [(1.725, 80), (2.03, 52), (2.7, 48)])
def test_arc_swap_maps_mu_vectors_onto_the_second_arc(t, count):
    """v -> Pv maps the MU vectors of m6(t) one to one onto those of m6(t + pi),
    here as found by independent searches (seeds s and s + 1) at interval
    midpoints of the count sequence, away from its folds."""
    for seed in (0, 1, 2):
        first = mub6.find_mu_vectors(m6(t), mub6.OptimConfig(seed=seed))
        second = mub6.find_mu_vectors(m6(t + PI), mub6.OptimConfig(seed=seed + 1))
        assert len(first) == len(second) == count
        V = np.stack([np.asarray(v.vector.entries) for v in first])[:, ARC_SWAP]
        W = np.stack([np.asarray(v.vector.entries) for v in second])
        close = np.max(np.abs(V[:, None, :] - W[None, :, :]), axis=2) < Tolerances.cluster_tol
        assert np.all(close.sum(axis=0) == 1) and np.all(close.sum(axis=1) == 1)
        assert len(mub6.extract_bases(first)) == len(mub6.extract_bases(second))


def test_fourier_f6_hadamard_at_random_parameters():
    rng = np.random.default_rng(4)
    for _ in range(20):
        x1, x2 = rng.uniform(0, 2 * PI, 2)
        F = fourier_f6(x1, x2)
        assert is_hadamard(F)
        # dephased: first row and column stay flat for every parameter pair
        assert np.max(np.abs(F.entries[0, :] * SQRT6 - 1.0)) < 1e-12
        assert np.max(np.abs(F.entries[:, 0] * SQRT6 - 1.0)) < 1e-12


def test_fourier_f6_zero_param_entries():
    F = fourier_f6(0.0, 0.0).entries * SQRT6
    w = np.exp(1j * PI / 3)
    for j in range(6):
        for k in range(6):
            assert abs(F[j, k] - w ** (j * k)) < 1e-12


def test_fourier_f6_reduces_phases_mod_two_pi():
    """Unreduced, a phase of 1e8 added to pi j k / 3 swamps that term in
    rounding, and the member failed its own Hadamard check.  The reduction
    is exact, so phases in [0, 2pi) give the unreduced formula bit for bit."""
    for x in (1e8, -1e8, 1e15, 1e300):
        F = fourier_f6(x, -x)
        assert is_hadamard(F)
        assert np.array_equal(F.entries, fourier_f6(np.mod(x, 2 * PI), np.mod(-x, 2 * PI)).entries)
    j, k = np.indices((6, 6))
    odd = j % 2 == 1
    rng = np.random.default_rng(8)
    for x1, x2 in rng.uniform(0, 2 * PI, (20, 2)):
        R = (odd & (k % 3 == 1)) * x1 + (odd & (k % 3 == 2)) * x2
        assert np.array_equal(fourier_f6(x1, x2).entries,
                              np.exp(1j * (PI / 3.0) * j * k + 1j * R) / SQRT6)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_fourier_f6_refuses_non_finite_phases(bad):
    with pytest.raises(DomainError, match="finite"):
        fourier_f6(bad, 0.0)
    with pytest.raises(DomainError, match="finite"):
        fourier_f6(0.0, bad)


def test_fourier_f6_refuses_non_real_phases():
    for bad in NOT_REAL:
        with pytest.raises(InvalidInput, match="x1 must be a real number"):
            fourier_f6(bad, 0.0)
        with pytest.raises(InvalidInput, match="x2 must be a real number"):
            fourier_f6(0.0, bad)
    for x in (np.float64(0.3), np.float32(0.3), np.int64(4)):
        F = fourier_f6(x, 1.1)
        assert np.array_equal(F.entries, fourier_f6(float(x), 1.1).entries)
        assert F.label == f"f6(x1={x!r}, x2=1.1)"


def test_b6_arc_and_rejections():
    assert B6_THETA_MIN == pytest.approx(np.arccos((np.sqrt(3) - 1) / 2))
    assert B6_THETA_MAX == pytest.approx(2 * PI - B6_THETA_MIN)
    for theta in np.linspace(B6_THETA_MIN, B6_THETA_MAX, 17):
        assert is_hadamard(b6(theta)), theta
    for theta in (0.0, B6_THETA_MIN - 1e-3, B6_THETA_MAX + 1e-3, 2 * PI):
        with pytest.raises(DomainError):
            b6(theta)
    for theta in NOT_REAL:
        with pytest.raises(InvalidInput, match="theta must be a real number"):
            b6(theta)
    for theta in (np.float64(2.0), np.float32(2.0), np.int64(3)):
        assert np.array_equal(b6(theta).entries, b6(float(theta)).entries)
        assert b6(theta).label == f"b6(theta={theta!r})"


def test_b6_is_self_adjoint():
    rng = np.random.default_rng(9)
    for _ in range(10):
        theta = rng.uniform(B6_THETA_MIN, B6_THETA_MAX)
        A = b6(theta).entries * SQRT6
        assert np.max(np.abs(A - A.conj().T)) < 1e-12


def test_s6_matches_exponent_table(s6mat):
    w = np.exp(2j * PI / 3)
    expo = [
        [0, 0, 0, 0, 0, 0],
        [0, 0, 1, 1, 2, 2],
        [0, 1, 0, 2, 2, 1],
        [0, 1, 2, 0, 1, 2],
        [0, 2, 2, 1, 0, 1],
        [0, 2, 1, 2, 1, 0],
    ]
    A = s6mat.entries * SQRT6
    for i in range(6):
        for j in range(6):
            assert abs(A[i, j] - w ** expo[i][j]) < 1e-12
    assert is_hadamard(s6mat)


def test_labels_identify_parameters():
    assert "m6" in m6(0.9 * PI).label
    assert "f6" in fourier_f6().label
    assert "b6" in b6(2.0).label
    assert "s6" in s6().label
