"""Kernel checks: band LU determinants and pivots, spectra."""

import math
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from szegolab import TrigPolynomial, numkernel
from szegolab.numkernel import (
    DimensionError,
    LogDet,
    SingularMatrixError,
    band_lu,
    eigenvalues,
    singular_values,
)
from szegolab.almostperiodic import APFunction
from szegolab.operators import BandAPOperator, as_band_operator, band_diagonals
from szegolab.szego import TestFunction, limit_prediction


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


def as_diagonals(a):
    """A dense n x n matrix as the n - 1 diagonals on each side of its main
    diagonal: offset d -> v with v[j] = a[j + d, j], zero outside."""
    a = np.asarray(a, dtype=np.complex128)
    n = len(a)
    diagonals = {}
    for d in range(1 - n, n):
        cols = np.arange(max(0, -d), n - max(0, d))
        v = diagonals[d] = np.zeros(n, dtype=np.complex128)
        v[cols] = a[cols + d, cols]
    return diagonals


def logdet(a):
    return band_lu(as_diagonals(a), len(a)).logdet()


def dense_logdet(a):
    """Test oracle: the dense pivoted LU of SciPy, read as the kernel reads
    its band LU."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # SciPy warns on exactly zero pivots
        lu, piv = scipy.linalg.lu_factor(a)
    return numkernel.BandLU(np.diagonal(lu), piv).logdet()


def test_logdet_identity():
    ld = logdet(np.eye(3))
    assert ld.log_abs == pytest.approx(0.0, abs=1e-14)
    assert ld.phase == pytest.approx(1.0)
    assert not ld.singular_flag


def test_logdet_diagonal():
    ld = logdet(np.diag([2.0, 3.0]))
    assert ld.log_abs == pytest.approx(math.log(6.0), abs=1e-14)
    assert ld.phase == pytest.approx(1.0)


def test_logdet_hilbert_exact_oracle():
    rows = [[Fraction(1, i + j + 1) for j in range(3)] for i in range(3)]
    oracle = exact_det(rows)
    assert oracle == Fraction(1, 2160)
    h = np.array([[float(v) for v in r] for r in rows])
    ld = logdet(h)
    assert ld.log_abs == pytest.approx(math.log(1 / 2160), rel=1e-12)
    assert ld.phase == pytest.approx(1.0)


def test_logdet_singular_flag():
    shift = np.diag(np.ones(2), -1)  # 3x3, det 0
    ld = logdet(shift)
    assert ld.singular_flag
    assert ld.value == 0


def test_eigvals_reject_nonsquare():
    with pytest.raises(DimensionError, match="^square matrix required, got 2x3$"):
        eigenvalues(np.ones((2, 3)))
    with pytest.raises(DimensionError, match="^expected a 2-d array, got ndim=1$"):
        singular_values(np.ones(3))


NAN_MATRIX = np.array([[1.0, np.nan], [0.0, 1.0]])
# three terms of 1e308 each: finite one by one, inf where they add up (n = 0)
OVERFLOWING = BandAPOperator({0: APFunction([(0.0, 1e308), (0.25, 1e308), (0.75, 1e308)])})


@pytest.mark.parametrize(
    "dense_path",
    [
        # checked before either eigenvalue path is chosen
        lambda: eigenvalues(np.diag([1.0, np.nan])),
        lambda: eigenvalues(NAN_MATRIX),
        lambda: singular_values(NAN_MATRIX),
        # spectral calculus calls numpy's eigh itself, past the kernels
        lambda: limit_prediction(OVERFLOWING, TestFunction.exp(), 8, 2),
    ],
    ids=["eigvals_hermitian", "eigvals_general", "singular_values", "limit_prediction"],
)
def test_dense_paths_reject_nonfinite(dense_path):
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="^matrix entries must be finite$"):
            dense_path()


def test_eigvals_hermitian_examples():
    # Hermitian input takes the self-adjoint path: real, sorted ascending
    for m, expected in (
        (np.diag([3.0, 1.0, 2.0]), [1, 2, 3]),
        (np.diag(np.ones(2), 1) + np.diag(np.ones(2), -1), [-math.sqrt(2), 0, math.sqrt(2)]),
        (np.array([[2.0, 1.0], [1.0, 2.0]]), [1, 3]),
    ):
        vals = eigenvalues(m)
        assert vals.dtype == np.float64 and np.allclose(vals, expected)


def test_eigvals_hermitian_rejects_asymmetric():
    # the nilpotent Jordan block is not Hermitian: the general path
    vals = eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert vals.dtype == np.complex128 and np.array_equal(vals, [0, 0])


def test_hermitian_test_is_relative_to_the_largest_entry():
    # a nilpotent block of scale 1e-13 deviates by 1e-13 from its adjoint,
    # within an absolute 1e-12 but not relative to its largest entry, so
    # it takes the general path and not eigvalsh, which would read its lower
    # triangle only and report +-1e-13
    assert np.array_equal(eigenvalues([[0, 0], [1e-13, 0]]), [0, 0])
    assert np.array_equal(eigenvalues(np.zeros((2, 2))), [0, 0])  # a zero matrix is Hermitian
    big = np.array([[1e6, 1.0], [1.0 + 1e-7, 1e6]])  # deviation 1e-7 <= 1e-12 * 1e6
    assert eigenvalues(big).dtype == np.float64
    assert not numkernel._hermitian(np.array([[1.0, 1.0], [1.0 + 1e-11, 1.0]], dtype=complex))


def test_eigvals_general_examples():
    assert np.allclose(sorted(eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))), [0, 0])
    vals = sorted(eigenvalues(np.array([[0.0, 1.0], [1.0, 0.0]])).real)
    assert np.allclose(vals, [-1, 1])


def test_eigvals_general_companion_golden():
    # companion matrix of z^2 - z - 1; roots from the quadratic formula
    comp = np.array([[1.0, 1.0], [1.0, 0.0]])
    roots = sorted(eigenvalues(comp).real)
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
        la, lb, lab = logdet(a), logdet(b), logdet(a @ b)
        assert lab.log_abs == pytest.approx(la.log_abs + lb.log_abs, abs=1e-9)
        assert lab.phase == pytest.approx(la.phase * lb.phase, abs=1e-9)


def test_eigvals_sum_to_trace():
    rng = np.random.default_rng(13)
    for _ in range(20):
        n = int(rng.integers(2, 12))
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = (a + a.conj().T) / 2
        w = eigenvalues(h)
        norm = np.linalg.norm(h, 2)
        assert abs(w.sum() - np.trace(h).real) <= 1e-9 * n * max(1.0, norm)


def test_singular_values_match_gram_eigenvalues():
    rng = np.random.default_rng(17)
    for _ in range(10):
        a = rng.standard_normal((10, 10)) + 1j * rng.standard_normal((10, 10))
        sv = singular_values(a)
        gram = eigenvalues(a.conj().T @ a)
        assert np.allclose(sv, np.sqrt(np.maximum(gram[::-1], 0.0)), atol=1e-8)


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
    pivots = band_lu({d: np.array(v, dtype=np.complex128) for d, v in diagonals.items()}, n).pivots
    assert len(pivots) == n
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
    pivots = band_lu(arrays, n).pivots
    assert len(pivots) == stop
    dense = np.array(_dense_from_diagonals(diagonals, n), dtype=np.complex128)
    for k in range(stop):
        ratio = dense_logdet(dense[: k + 1, : k + 1]).value / (
            dense_logdet(dense[:k, :k]).value if k else 1.0
        )
        assert pivots[k] == pytest.approx(ratio, rel=1e-12)


def _random_band(seed, n, p, q, diagonal, real=False):
    """Band with entries of |re|, |im| <= 0.5 and ``diagonal`` added on
    offset 0; with ``real``, float64 entries of |re| <= 0.5 (the real route)."""
    rng = np.random.default_rng(seed)
    j = np.arange(n)
    diagonals = {}
    for d in range(-q, p + 1):
        v = rng.uniform(-0.5, 0.5, n)
        if not real:
            v = v + 1j * rng.uniform(-0.5, 0.5, n)
        v[(j + d < 0) | (j + d >= n)] = 0
        diagonals[d] = v
    diagonals[0] = diagonals[0] + diagonal
    return diagonals


def assert_matches_dense_sections(diagonals, n, pivots):
    """band_lu(...).logdet() of every leading section and the pass pivots
    against the dense LU of the sections; singular flags must agree."""
    dense = np.array(_dense_from_diagonals(diagonals, n), dtype=np.complex128)
    prev = LogDet(0.0, 1 + 0j)
    for k in range(1, n + 1):
        ref, got = dense_logdet(dense[:k, :k]), band_lu(diagonals, k).logdet()
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
    pivots = band_lu(arrays, 2).pivots
    assert len(pivots) == 2
    a00 = 0.7 + 0.7j
    assert pivots[0] == a00
    assert pivots[1] == pytest.approx((a00 * 2 - 1.2 * 1) / a00, rel=1e-15)


def test_band_lu_pivots_blocked_lapack_route():
    # LAPACK factors blockwise when kl >= 32 and ku > 64 (block size 32 from
    # the reference ILAENV for xGBTRF)
    n, p, q = 160, 40, 66
    diagonals = _random_band(5, n, p, q, 2.0 * (p + q + 1))
    pivots = band_lu(diagonals, n).pivots
    assert len(pivots) == n
    assert_matches_dense_sections(diagonals, n, pivots)


def _set_entries(diagonals, k, value, offsets=(0,)):
    """Copy of ``diagonals`` with entry k of each listed offset set to value."""
    out = {d: v.copy() for d, v in diagonals.items()}
    for d in offsets:
        out[d][k] = value
    return out


def _toeplitz_band(coeffs, n, lu=False):
    """Section storage of a Toeplitz operator; with ``lu`` the storage a
    determinant sweep factors, float64 for real coefficients."""
    return band_diagonals(as_band_operator(TrigPolynomial(coeffs)), n, lu=lu)


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
        # the real route (dgbtrf) on float64 bands: the late swap, unblocked
        # and blocked, the zero column, p = 0, q = 0, and the blocked
        # factorization without a swap
        (_set_entries(_random_band(7, 60, 2, 2, 6.0, real=True), 45, 1e-3), 60, 45, 1),
        (_set_entries(_random_band(8, 150, 33, 65, 200.0, real=True), 120, 1e-3), 150, 120, 1),
        (_set_entries(_random_band(9, 50, 2, 2, 6.0, real=True), 30, 0, range(-2, 3)), 50, 30, 0),
        (_set_entries(_random_band(10, 20, 0, 3, 0.0, real=True), 5, 1e-3), 20, 20, 0),
        (_set_entries(_random_band(11, 20, 3, 0, 4.0, real=True), 5, 1e-3), 20, 5, 1),
        (_random_band(5, 160, 40, 66, 2.0 * (40 + 66 + 1), real=True), 160, 160, 0),
        # the two Toeplitz cases above on the real route
        (_toeplitz_band({0: 1.0, 1: 1.0, -1: 1.0}, 9, lu=True), 9, 1, 1),
        (_toeplitz_band({0: 1.0, 1: 2.0, -1: 0.5, 2: -6.0, -2: -6.0}, 12, lu=True), 12, 0, 1),
    ],
)
def test_band_lu_pivots_matches_dense_sections(diagonals, n, stop, swapped):
    # the pass stops at LAPACK's first row swap or first zero pivot; the
    # sizes past it take band_lu(...).logdet(), checked on every leading section.
    # ``swapped``: LAPACK swaps some row in factoring the n x n band.  Real
    # vectors are factored in real arithmetic; the pivots are complex either way
    pivots = band_lu(diagonals, n).pivots
    assert len(pivots) == stop and pivots.dtype == np.complex128
    lu, ipiv, _, _ = numkernel._band_lu(diagonals, n)
    assert lu.dtype == np.result_type(*diagonals.values())
    assert bool(np.any(ipiv != np.arange(n))) == bool(swapped)
    assert_matches_dense_sections(diagonals, n, pivots)


EPS = np.finfo(np.float64).eps
REAL_ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.0]), st.floats(-4.0, 4.0, allow_nan=False)
)


@st.composite
def real_bands(draw):
    """A float64 band of order n <= 12 with p, q <= 3: exact zeros, ties
    and singular sections included, so LAPACK swaps rows on many of them."""
    n, p, q = draw(st.integers(1, 12)), draw(st.integers(0, 3)), draw(st.integers(0, 3))
    j = np.arange(n)
    diagonals = {}
    for d in range(-q, p + 1):
        v = np.array(draw(st.lists(REAL_ENTRIES, min_size=n, max_size=n)), dtype=np.float64)
        v[(j + d < 0) | (j + d >= n)] = 0.0
        diagonals[d] = v
    return diagonals, n


def _outcomes(diagonals, n):
    """The bits of the pass pivots and of the log determinant of every
    leading section."""
    pivots = band_lu(diagonals, n).pivots
    out = [pivots.dtype, pivots.tobytes(), len(pivots)]
    for k in range(1, n + 1):
        ld = band_lu(diagonals, k).logdet()
        out.append((np.float64(ld.log_abs).tobytes(), np.complex128(ld.phase).tobytes(), ld.singular_flag))
    return out


def _cast_factor(band_lu):
    """`_band_lu` with the factor cast to complex: the complex route from
    the same factor on."""
    def factor(diagonals, n):
        lu, ipiv, p, q = band_lu(diagonals, n)
        return lu.astype(np.complex128), ipiv, p, q
    return factor


def _lu_product(lu, ipiv, p, q, n):
    """P_0 L_0 P_1 L_1 ... P_{n-1} L_{n-1} U from LAPACK's band LU (each P_k
    swaps rows k and ipiv[k], L_k holds the multipliers of step k), and the
    same product of the moduli of the factors."""
    product = np.zeros((n, n))
    for j in range(n):  # U(i, j) sits at lu[p + q + i - j, j]
        rows = np.arange(max(0, j - p - q), j + 1)
        product[rows, j] = lu[p + q + rows - j, j]
    moduli = np.abs(product)
    for k in range(n - 1, -1, -1):
        rows = np.arange(k + 1, min(n, k + p + 1))
        multipliers = lu[p + q + rows - k, k]
        product[rows] += multipliers[:, None] * product[k]
        moduli[rows] += np.abs(multipliers)[:, None] * moduli[k]
        product[[k, ipiv[k]]] = product[[ipiv[k], k]]
        moduli[[k, ipiv[k]]] = moduli[[ipiv[k], k]]
    return product, moduli


@settings(max_examples=200, deadline=None, derandomize=True)
@given(band=real_bands())
def test_real_band_route_against_complex_route(band):
    # float64 storage is factored by dgbtrf.  From the factor on, pivots
    # and log determinants (phase and the sign of its zero imaginary part
    # included) are the complex route's bit for bit.
    diagonals, n = band
    lu, ipiv, p, q = numkernel._band_lu(diagonals, n)
    assert lu.dtype == np.float64
    with mock.patch.object(numkernel, "_band_lu", _cast_factor(numkernel._band_lu)):
        complex_route = _outcomes(diagonals, n)
    assert _outcomes(diagonals, n) == complex_route
    # The factor is a partially pivoted LU of the band: multipliers of at
    # most 1, and P L U = A up to the rounding of the at most p + 1 terms
    # of each entry, in the factorization and again in the product.  It is
    # not zgbtrf's factor bit for bit: dgbtrf's update a - l u rounds once
    # (a fused multiply-add) where zgbtrf's may round l u first, so the two
    # differ in the last bits on about a sixth of these bands, and on a
    # near-singular one that can flip a later row choice.
    # A pivot below about 1e-308 overflows its reciprocal, and the factor
    # holds inf or NaN: the section is flagged singular.
    if not np.isfinite(lu).all():
        assert band_lu(diagonals, n).logdet().singular_flag
        return
    assert np.all(np.abs(lu[p + q + 1 :]) <= 1.0)
    product, moduli = _lu_product(lu, ipiv, p, q, n)
    dense = np.array(_dense_from_diagonals(diagonals, n), dtype=np.float64)
    tiny = np.finfo(np.float64).smallest_subnormal  # the absolute rounding of a subnormal result
    assert np.all(np.abs(product - dense) <= 2 * (p + 2) * (EPS * moduli + tiny))


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_nan_pivot_is_singular(dtype):
    # LAPACK scales the column below a pivot of 2.2e-309 by its reciprocal,
    # inf: 0 * inf is NaN, and the next pivot is NaN.  A NaN pivot fails the
    # underflow test as the pass pivots read it, not a NaN determinant
    diagonals = {0: np.array([0.0, 0.0], dtype=dtype), 1: np.array([2.22507386e-309, 0.0], dtype=dtype)}
    lu, _, p, q = numkernel._band_lu(diagonals, 2)
    assert math.isnan(abs(lu[p + q][1]))
    factor = band_lu(diagonals, 2)
    assert len(factor.pivots) == 0
    ld = factor.logdet()
    assert ld.singular_flag and ld.log_abs == -math.inf and math.isnan(ld.smallest_pivot)
    assert str(SingularMatrixError("singular section", ld.smallest_pivot)).endswith("(smallest pivot nan)")
