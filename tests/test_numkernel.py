"""Kernel checks: log determinants, solves, spectra."""

import math
from fractions import Fraction

import numpy as np
import pytest

from szegolab import TrigPolynomial, numkernel
from szegolab.numkernel import (
    DenseMatrix,
    DimensionError,
    LogDet,
    SingularMatrixError,
    SymmetryError,
    band_logdet,
    band_lu_pivots,
    eigvals_general,
    eigvals_hermitian,
    lu_logdet,
    singular_values,
    solve,
)
from szegolab.operators import as_band_operator, band_diagonals


def exact_det(rows):
    """Cofactor expansion in exact rational arithmetic (test oracle)."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = Fraction(0)
    for j in range(n):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * exact_det(minor)
    return total


def test_logdet_identity():
    ld = lu_logdet(np.eye(3))
    assert ld.log_abs == pytest.approx(0.0, abs=1e-14)
    assert ld.phase == pytest.approx(1.0)
    assert not ld.singular_flag


def test_logdet_diagonal():
    ld = lu_logdet(np.diag([2.0, 3.0]))
    assert ld.log_abs == pytest.approx(math.log(6.0), abs=1e-14)
    assert ld.phase == pytest.approx(1.0)


def test_logdet_hilbert_exact_oracle():
    rows = [[Fraction(1, i + j + 1) for j in range(3)] for i in range(3)]
    oracle = exact_det(rows)
    assert oracle == Fraction(1, 2160)
    h = np.array([[float(v) for v in r] for r in rows])
    ld = lu_logdet(h)
    assert ld.log_abs == pytest.approx(math.log(1 / 2160), rel=1e-12)
    assert ld.phase == pytest.approx(1.0)


def test_logdet_singular_flag():
    shift = np.diag(np.ones(2), -1)  # 3x3, det 0
    ld = lu_logdet(shift)
    assert ld.singular_flag
    assert ld.value == 0


def test_logdet_rejects_nonsquare():
    with pytest.raises(DimensionError):
        lu_logdet(np.ones((2, 3)))


def test_dense_matrix_rejects_nonfinite():
    with pytest.raises(ValueError):
        DenseMatrix(np.array([[1.0, np.nan], [0.0, 1.0]]))


def test_solve_identity():
    x = solve(np.eye(2), [1.0, 2.0])
    assert np.allclose(x, [1.0, 2.0])


def test_solve_diagonal():
    x = solve(np.diag([2.0, 4.0]), [1.0, 1.0])
    assert np.allclose(x, [0.5, 0.25])


def test_solve_residual_random():
    rng = np.random.default_rng(7)
    m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)) + 4 * np.eye(8)
    rhs = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    x = solve(m, rhs)
    assert np.linalg.norm(m @ x - rhs) <= 1e-10


def test_solve_singular_raises_with_pivot():
    shift = np.diag(np.ones(2), -1)
    with pytest.raises(SingularMatrixError) as exc:
        solve(shift, np.ones(3))
    assert exc.value.smallest_pivot == 0.0


def test_eigvals_hermitian_examples():
    assert np.allclose(eigvals_hermitian(np.diag([3.0, 1.0, 2.0])), [1, 2, 3])
    tri = np.diag(np.ones(2), 1) + np.diag(np.ones(2), -1)
    assert np.allclose(eigvals_hermitian(tri), [-math.sqrt(2), 0, math.sqrt(2)])
    assert np.allclose(eigvals_hermitian(np.array([[2.0, 1.0], [1.0, 2.0]])), [1, 3])


def test_eigvals_hermitian_rejects_asymmetric():
    with pytest.raises(SymmetryError):
        eigvals_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eigvals_general_examples():
    assert np.allclose(sorted(eigvals_general(np.array([[0.0, 1.0], [0.0, 0.0]]))), [0, 0])
    vals = sorted(eigvals_general(np.array([[0.0, 1.0], [1.0, 0.0]])).real)
    assert np.allclose(vals, [-1, 1])


def test_eigvals_general_companion_golden():
    # companion matrix of z^2 - z - 1; roots from the quadratic formula
    comp = np.array([[1.0, 1.0], [1.0, 0.0]])
    roots = sorted(eigvals_general(comp).real)
    expected = sorted([(1 + math.sqrt(5)) / 2, (1 - math.sqrt(5)) / 2])
    assert np.allclose(roots, expected, atol=1e-12)


def test_singular_values_examples():
    assert np.allclose(singular_values(np.eye(4)), np.ones(4))
    shift = np.diag(np.ones(2), -1)
    assert np.allclose(singular_values(shift), [1, 1, 0], atol=1e-14)
    u = np.array([1.0, 2.0, 2.0])
    v = np.array([3.0, 4.0])
    sv = singular_values(np.outer(u, v.conj()))
    assert sv[0] == pytest.approx(np.linalg.norm(u) * np.linalg.norm(v))
    assert np.all(sv[1:] <= 1e-12)


def test_logdet_product_law_random():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(2, 9))
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        la, lb, lab = lu_logdet(a), lu_logdet(b), lu_logdet(a @ b)
        assert lab.log_abs == pytest.approx(la.log_abs + lb.log_abs, abs=1e-9)
        assert lab.phase == pytest.approx(la.phase * lb.phase, abs=1e-9)


def test_eigvals_sum_to_trace():
    rng = np.random.default_rng(13)
    for _ in range(20):
        n = int(rng.integers(2, 12))
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = (a + a.conj().T) / 2
        w = eigvals_hermitian(h)
        norm = np.linalg.norm(h, 2)
        assert abs(w.sum() - np.trace(h).real) <= 1e-9 * n * max(1.0, norm)


def test_singular_values_match_gram_eigenvalues():
    rng = np.random.default_rng(17)
    for _ in range(10):
        a = rng.standard_normal((10, 10)) + 1j * rng.standard_normal((10, 10))
        sv = singular_values(a)
        gram = eigvals_hermitian(a.conj().T @ a)
        assert np.allclose(sv, np.sqrt(np.maximum(gram[::-1], 0.0)), atol=1e-8)


def test_solve_roundtrip_well_conditioned():
    rng = np.random.default_rng(19)
    for _ in range(10):
        n = int(rng.integers(2, 16))
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) + 3 * np.eye(n)
        if np.linalg.cond(a) > 1e6:
            continue
        rhs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        x = solve(a, rhs)
        assert np.linalg.norm(a @ x - rhs) <= 1e-9 * np.linalg.norm(rhs)


def _dense_from_diagonals(diagonals, n):
    """Dense rows of the band matrix with entry (j+d, j) = diagonals[d][j]."""
    rows = [[0] * n for _ in range(n)]
    for d, v in diagonals.items():
        for j in range(max(0, -d), n - max(0, d)):
            rows[j + d][j] = v[j]
    return rows


def test_band_lu_pivots_exact_minor_ratios():
    # lower bandwidth 2, upper bandwidth 1; pivot k = det A_{k+1} / det A_k
    rng = np.random.default_rng(23)
    n = 7
    diagonals = {d: [int(x) for x in rng.integers(-2, 3, n)] for d in (-1, 1, 2)}
    diagonals[0] = [6] * n
    rows = _dense_from_diagonals(diagonals, n)
    for d, v in diagonals.items():  # zero outside the valid column range
        diagonals[d] = [v[j] if 0 <= j + d < n else 0 for j in range(n)]
    pivots, stop = band_lu_pivots(
        {d: np.array(v, dtype=np.complex128) for d, v in diagonals.items()}, n
    )
    assert stop == n and len(pivots) == n
    minors = [Fraction(1)] + [
        exact_det([[Fraction(x) for x in r[:k]] for r in rows[:k]]) for k in range(1, n + 1)
    ]
    for k in range(n):
        assert pivots[k] == pytest.approx(float(minors[k + 1] / minors[k]), rel=1e-13)


@pytest.mark.parametrize(
    "diagonals, n, stop",
    [
        ({0: [0.0, 0.0], 1: [1.0, 0.0], -1: [0.0, 1.0]}, 2, 0),  # zero pivot
        ({0: [0.05, 2.0], 1: [1.0, 0.0], -1: [0.0, 1.0]}, 2, 0),  # larger entry below: LAPACK swaps
        ({0: [1.0, 2.0], 1: [1.0, 0.0], -1: [0.0, 1.0]}, 2, 2),  # equal entry below: no swap
        ({0: [1e-3, 1.0], -1: [0.0, 5.0]}, 2, 2),  # upper triangular: no column below
        ({0: [1.0] * 5, 1: [1.0] * 4 + [0.0], -1: [0.0] + [1.0] * 4}, 5, 1),  # det A_2 = 0
        ({}, 3, 0),  # zero matrix
    ],
)
def test_band_lu_pivots_stop(diagonals, n, stop):
    arrays = {d: np.array(v, dtype=np.complex128) for d, v in diagonals.items()}
    pivots, got = band_lu_pivots(arrays, n)
    assert got == stop and len(pivots) == stop
    dense = np.array(_dense_from_diagonals(diagonals, n), dtype=np.complex128)
    for k in range(stop):
        ratio = lu_logdet(dense[: k + 1, : k + 1]).value / (
            lu_logdet(dense[:k, :k]).value if k else 1.0
        )
        assert pivots[k] == pytest.approx(ratio, rel=1e-12)


def _random_band(seed, n, p, q, diagonal):
    """Band with entries of |re|, |im| <= 0.5 and ``diagonal`` added on offset 0."""
    rng = np.random.default_rng(seed)
    j = np.arange(n)
    diagonals = {}
    for d in range(-q, p + 1):
        v = rng.uniform(-0.5, 0.5, n) + 1j * rng.uniform(-0.5, 0.5, n)
        v[(j + d < 0) | (j + d >= n)] = 0
        diagonals[d] = v
    diagonals[0] = diagonals[0] + diagonal
    return diagonals


def assert_matches_dense_sections(diagonals, n, pivots):
    """band_logdet of every leading section and the pivots of band_lu_pivots
    against lu_logdet of the dense sections; singular flags must agree."""
    dense = np.array(_dense_from_diagonals(diagonals, n), dtype=np.complex128)
    prev = LogDet(0.0, 1 + 0j)
    for k in range(1, n + 1):
        ref, got = lu_logdet(dense[:k, :k]), band_logdet(diagonals, k)
        assert got.singular_flag == ref.singular_flag, k
        if not ref.singular_flag:
            assert got.log_abs == pytest.approx(ref.log_abs, rel=1e-12, abs=1e-12)
            assert got.phase == pytest.approx(ref.phase, abs=1e-10)
        if k <= len(pivots):
            ratio = math.exp(ref.log_abs - prev.log_abs) * ref.phase / prev.phase
            assert pivots[k - 1] == pytest.approx(ratio, rel=1e-10)
        prev = ref


def test_band_lu_pivots_keeps_complex_pivot_below_column_max():
    # |0.7+0.7i| = 0.99 < 1.2 below it, but |re| + |im| = 1.4 >= 1.2: LAPACK
    # keeps the pivot without a row swap, so the pass runs through
    diagonals = {0: [0.7 + 0.7j, 2], 1: [1.2, 0], -1: [0, 1]}
    arrays = {d: np.array(v, dtype=np.complex128) for d, v in diagonals.items()}
    pivots, stop = band_lu_pivots(arrays, 2)
    assert stop == 2
    a00 = 0.7 + 0.7j
    assert pivots[0] == a00
    assert pivots[1] == pytest.approx((a00 * 2 - 1.2 * 1) / a00, rel=1e-15)


def test_band_lu_pivots_blocked_lapack_route():
    # LAPACK factors blockwise when kl >= 32 and ku > 64 (block size 32 from
    # the reference ILAENV for xGBTRF)
    n, p, q = 160, 40, 66
    diagonals = _random_band(5, n, p, q, 2.0 * (p + q + 1))
    pivots, stop = band_lu_pivots(diagonals, n)
    assert stop == n
    assert_matches_dense_sections(diagonals, n, pivots)


def _set_entries(diagonals, k, value, offsets=(0,)):
    """Copy of ``diagonals`` with entry k of each listed offset set to value."""
    out = {d: v.copy() for d, v in diagonals.items()}
    for d in offsets:
        out[d][k] = value
    return out


def _toeplitz_band(coeffs, n):
    return band_diagonals(as_band_operator(TrigPolynomial(coeffs)), n)


@pytest.mark.parametrize(
    "diagonals, n, stop, swapped",
    [
        # small pivot late in a dominant band: LAPACK swaps there
        (_set_entries(_random_band(7, 60, 2, 2, 6.0), 45, 1e-3), 60, 45, 1),
        # the same in the blocked factorization
        (_set_entries(_random_band(8, 150, 33, 65, 200.0), 120, 1e-3), 150, 120, 1),
        # zero column: an exact zero pivot without a swap; sections 31.. singular
        (_set_entries(_random_band(9, 50, 2, 2, 6.0), 30, 0, range(-2, 3)), 50, 30, 0),
        # p = 0: upper triangular, no elimination, a small pivot passes
        (_set_entries(_random_band(10, 20, 0, 3, 0.0), 5, 1e-3), 20, 20, 0),
        # q = 0: lower triangular, the small pivot is swapped
        (_set_entries(_random_band(11, 20, 3, 0, 4.0), 5, 1e-3), 20, 5, 1),
        ({0: np.array([3 + 1j])}, 1, 1, 0),
        ({0: np.array([0j])}, 1, 0, 0),
        # 1 + 2 cos t: det T_n = 1, 0, -1, -1, 0, 1, ...; sections 2, 5, 8 singular
        (_toeplitz_band({0: 1.0, 1: 1.0, -1: 1.0}, 9), 9, 1, 1),
        # det T_2 = 1 - 2 * 0.5 = 0 exactly; the swap at step 0 comes first
        (_toeplitz_band({0: 1.0, 1: 2.0, -1: 0.5, 2: -6.0, -2: -6.0}, 12), 12, 0, 1),
    ],
)
def test_band_lu_pivots_matches_dense_lu_logdet(diagonals, n, stop, swapped):
    # the pass stops at LAPACK's first row swap or first zero pivot; the
    # sizes past it take band_logdet, checked on every leading section.
    # ``swapped``: LAPACK swaps some row in factoring the n x n band
    pivots, got = band_lu_pivots(diagonals, n)
    assert got == stop and len(pivots) == stop
    _, ipiv = numkernel._band_lu(diagonals, n)
    assert bool(np.any(ipiv != np.arange(n))) == bool(swapped)
    assert_matches_dense_sections(diagonals, n, pivots)
