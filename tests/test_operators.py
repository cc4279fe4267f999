"""Section assembly checks: Toeplitz, band AP, flips, reversals, composites,
and the band-storage algebra against dense matrices."""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from szegolab.almostperiodic import APFunction, eval_ap
from szegolab.cli import validate_config
from szegolab.numkernel import band_logdet
from szegolab.operators import (
    BandAPOperator,
    _adjoint,
    _band_matmul,
    _is_hermitian,
    _poly_diagonal,
    almost_mathieu,
    as_band_operator,
    band_ap_section,
    band_diagonals,
)
from szegolab.symbols import TrigPolynomial

from sections import composite_of, composite_sections, flip_section, inverse_corner

GOLDEN = (math.sqrt(5) - 1) / 2
TWO_PLUS_COS = TrigPolynomial({0: 2.0, 1: 0.5, -1: 0.5})


def reflected(a):
    """The symbol t -> a(1/t): coefficients reflected k -> -k."""
    return TrigPolynomial({-k: c for k, c in a.coeffs.items()})


def toeplitz_section(a, n):
    """The n x n section with entry (i, j) = a_{i-j}."""
    return band_ap_section(as_band_operator(a), n)


def dense(diagonals, n):
    """Scatter diagonal storage (offset d -> v, v[j] = entry (j + d, j)) into
    an n x n matrix."""
    m = np.zeros((n, n), dtype=complex)
    for d, v in diagonals.items():
        for j in range(max(0, -d), n - max(0, d)):
            m[j + d, j] = v[j]
    return m


def two_sided_section(op, n):
    """The section over the indices -n..n-1: entry (i, j) is diagonal[i - j](j)."""
    idx = np.arange(-n, n)
    rows, cols = np.meshgrid(idx, idx, indexing="ij")
    s = np.zeros(rows.shape, dtype=complex)
    for d, f in op.diagonals.items():
        on = rows - cols == d
        s[on] = eval_ap(f, cols[on])
    return s


def test_toeplitz_section_examples():
    const = toeplitz_section(TrigPolynomial({0: 4 + 1j}), 1)
    assert const[0, 0] == 4 + 1j
    tri = toeplitz_section(TrigPolynomial({1: 1.0, -1: 1.0}), 3)
    assert np.array_equal(tri, np.diag(np.ones(2), 1) + np.diag(np.ones(2), -1))
    z = as_band_operator(TrigPolynomial({1: 1.0}))
    assert np.array_equal(toeplitz_section(z, 3), np.diag(np.ones(2), -1))
    assert band_logdet(band_diagonals(z, 3), 3).singular_flag


def test_band_section_matches_toeplitz_exactly():
    # the band section of the constant-diagonal operator is, bit for bit, the
    # Toeplitz matrix of the coefficients; a tiny imaginary part is kept
    for symbol in (TWO_PLUS_COS, TrigPolynomial({0: 2.0, 1: 0.5 + 1e-13j, -1: 0.5})):
        band = as_band_operator(symbol)
        for n in (1, 2, 5, 17):
            col = [symbol.coeffs.get(k, 0) for k in range(n)]
            row = [symbol.coeffs.get(-k, 0) for k in range(n)]
            expected = scipy.linalg.toeplitz(col, row)
            assert np.array_equal(band_ap_section(band, n), expected)


def test_band_section_diagonal_only():
    a = APFunction.cosine(2.0, GOLDEN, 0.1)
    op = BandAPOperator({0: a}, "Z")
    sec = band_ap_section(op, 6)
    assert np.array_equal(sec, np.diag(a(np.arange(6))))


def test_almost_mathieu_lambda_zero_is_toeplitz():
    op = almost_mathieu(0.37, 0.0, 0.5)
    assert op == as_band_operator(TrigPolynomial({1: 1.0, -1: 1.0}))


def test_almost_mathieu_diagonal_entry():
    op = almost_mathieu(0.25, 2.0, 0.0)
    assert abs(band_diagonals(op, 6)[0][5]) <= 1e-15  # 2 cos(2 pi 5/4) = 0


def test_almost_mathieu_flip_invariance_theta_zero():
    # even diagonal: the section over -n..n-1 is symmetric about index 0
    op = almost_mathieu(GOLDEN, 1.3, 0.0)
    s = two_sided_section(op, 6)
    sub = s[1:, 1:]  # drop index -n so the index set is symmetric
    assert np.array_equal(sub, sub[::-1, ::-1])


def test_almost_mathieu_offset_flip_at_half_alpha():
    # the reversal about the -1/2 center holds when theta = alpha/2
    alpha = 0.3721
    op = almost_mathieu(alpha, 1.0, alpha / 2)
    s = two_sided_section(op, 5)
    assert np.max(np.abs(s - s[::-1, ::-1])) <= 1e-14


def test_flip_section_toeplitz_is_reflected_symbol():
    asym = TrigPolynomial({0: 3.0, 1: 0.5, -1: 0.25, 2: 0.1})
    band = as_band_operator(asym)
    flipped = flip_section(band, 7)
    expected = toeplitz_section(reflected(asym), 7)
    assert np.array_equal(flipped, expected)


def test_flip_section_diagonal_multiplier():
    b = APFunction.cosine(1.0, GOLDEN, 0.2)
    op = BandAPOperator({0: b}, "Z")
    f = flip_section(op, 5)
    assert np.array_equal(f, np.diag(b(-1 - np.arange(5))))


def test_flip_section_mathieu_direct_formula():
    alpha, lam = 0.3721, 1.0
    op = almost_mathieu(alpha, lam, 0.0)
    f = flip_section(op, 4)
    for i in range(4):
        for j in range(4):
            if i == j:
                expected = lam * math.cos(2 * math.pi * alpha * (-1 - j))
            elif abs(i - j) == 1:
                expected = 1.0
            else:
                expected = 0.0
            assert f[i, j] == pytest.approx(expected, abs=1e-15)


def test_flip_requires_two_sided_domain():
    op = BandAPOperator({0: APFunction.constant(1.0)}, "Z+")
    with pytest.raises(ValueError):
        flip_section(op, 3)


def test_reversed_section_persymmetry():
    band = as_band_operator(TrigPolynomial({0: 1.0, 1: 2.0, -2: 0.5j}))
    rev = band_ap_section(band, 6)[::-1, ::-1]
    tilde = toeplitz_section(TrigPolynomial({0: 1.0, -1: 2.0, 2: 0.5j}), 6)
    assert np.array_equal(rev, tilde)


def test_reversed_section_n1():
    op = almost_mathieu(0.3, 2.0, 0.1)
    (r,) = band_diagonals(op, 1)[0]
    assert r == eval_ap(op.diagonals[0], 0)
    (f,) = band_diagonals(op, 1, start=-1)[0]
    assert f == eval_ap(op.diagonals[0], -1) == flip_section(op, 1)[0, 0]


def test_reversed_section_determinant_matches():
    op = almost_mathieu(GOLDEN, 1.0, 0.3)
    for n in (3, 8, 21):
        ld_p = band_logdet(band_diagonals(op, n), n)
        ld_w = band_logdet(storage_of(band_ap_section(op, n)[::-1, ::-1], (-1, 0, 1)), n)
        assert ld_w.log_abs == pytest.approx(ld_p.log_abs, abs=1e-10)
        assert ld_w.phase == pytest.approx(ld_p.phase, abs=1e-10)


BAND_OPERATORS = (
    as_band_operator(TrigPolynomial({0: 3.0, 1: 0.5, -1: 0.25j, 2: 0.1, -3: -0.7})),
    almost_mathieu(GOLDEN, 3.0, 0.2),
    BandAPOperator(
        {
            0: APFunction([(0.0, 2.0), (GOLDEN, 0.5 - 0.25j)]),
            2: APFunction([(math.sqrt(2) - 1, 1j)]),
            -1: APFunction([(0.0, -0.5), (0.25, 0.75)]),
        },
        "Z",
    ),
)


@pytest.mark.parametrize("op", BAND_OPERATORS)
@pytest.mark.parametrize("n", [1, 2, 3, 5, 17])
def test_flip_and_reversed_diagonals_scatter_to_dense_sections(op, n):
    # the storage of the sections over -n..-1 (the flip section reversed,
    # read by g_limit_constant and stability_probe) and 0..n-1 (the reversed
    # section reversed) is, bit for bit, the blocks of the section over
    # -n..n-1 evaluated entry by entry
    both = two_sided_section(op, n)
    assert np.array_equal(dense(band_diagonals(op, n, start=-n), n), both[:n, :n])
    assert np.array_equal(flip_section(op, n), both[:n, :n][::-1, ::-1])
    assert np.array_equal(dense(band_diagonals(op, n), n), both[n:, n:])
    assert np.array_equal(band_ap_section(op, n), both[n:, n:])


def test_flip_and_reversed_diagonals_reject_empty_sections():
    for start in (0, -1):
        with pytest.raises(ValueError, match="section size must be >= 1"):
            band_diagonals(almost_mathieu(GOLDEN, 1.0), 0, start=start)


def test_sections_are_complex_arrays():
    op = almost_mathieu(GOLDEN, 1.0)
    e = composite_of(as_band_operator(TWO_PLUS_COS), op)
    for section in (band_ap_section(op, 5), flip_section(op, 5), *composite_sections(e, 5)):
        assert type(section) is np.ndarray and section.dtype == np.complex128


def test_composite_single_factor_identical():
    e = composite_of(as_band_operator(TWO_PLUS_COS))
    prod, crop = composite_sections(e, 5)
    assert np.array_equal(prod, crop)


def test_composite_shift_pair_corner_defect():
    z = TrigPolynomial({1: 1.0})
    zinv = TrigPolynomial({-1: 1.0})
    e = composite_of(as_band_operator(zinv), as_band_operator(z))
    prod, crop = composite_sections(e, 4)
    diff = prod - crop
    expected = np.zeros((4, 4), dtype=complex)
    expected[3, 3] = -1.0
    assert np.array_equal(diff, expected)


def _parsed_composite(products):
    config = {"experiment": "folner", "output": "out", "n_range": [1],
              "operator": {"kind": "composite", "products": products}}
    return validate_config(config).operator


def test_composite_projections_identity():
    e = _parsed_composite([[{"kind": "projection"}] * 2])
    prod, crop = composite_sections(e, 4)
    assert np.array_equal(prod, np.eye(4))
    assert np.array_equal(crop, np.eye(4))


def _parsed_factor(factor):
    (parsed,) = _parsed_composite([[factor]]).products[0]
    return parsed


@pytest.mark.parametrize("n", [1, 2, 7, 16])
def test_composite_factor_kinds_section_exactly(n):
    # each JSON factor kind parses to a band operator whose section is, bit
    # for bit, the matrix the factor stands for
    symbol = {"0": [2.0, -0.5], "1": [0.5, 1e-13], "-1": [0.5, 0.0], "3": [0.0, -0.25]}
    coeffs = {int(k): complex(*v) for k, v in symbol.items()}
    toeplitz = _parsed_factor({"kind": "toeplitz", "symbol": symbol})
    col = [coeffs.get(k, 0j) for k in range(n)]
    row = [coeffs.get(-k, 0j) for k in range(n)]
    assert np.array_equal(
        band_ap_section(toeplitz, n), scipy.linalg.toeplitz(col, row)
    )
    f = APFunction([(GOLDEN, 0.7 - 0.2j), (0.0, 1.5)])
    multiplier = _parsed_factor(
        {"kind": "ap-multiplier", "terms": [{"freq": GOLDEN, "re": 0.7, "im": -0.2},
                                            {"freq": 0.0, "re": 1.5}]}
    )
    assert np.array_equal(
        band_ap_section(multiplier, n), np.diag(f(np.arange(n)))
    )
    projection = _parsed_factor({"kind": "projection"})
    assert np.array_equal(band_ap_section(projection, n), np.eye(n))


def test_hermitian_sections_exact():
    rng = np.random.default_rng(29)
    for _ in range(20):
        coeffs = {0: complex(rng.uniform(1, 3))}
        for k in range(1, 3):
            c = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            coeffs[k] = c
            coeffs[-k] = c.conjugate()
        sec = toeplitz_section(TrigPolynomial(coeffs), 9)
        assert np.array_equal(sec, sec.conj().T)
    op = almost_mathieu(GOLDEN, 1.7, 0.3)
    for s in (band_ap_section(op, 8), two_sided_section(op, 8)):
        assert np.array_equal(s, s.conj().T)


def test_inverse_corner_reflection_identity():
    # the 00 entry of the inverse agrees for a and its reflection
    for n in (8, 32, 128):
        x = inverse_corner(toeplitz_section(TWO_PLUS_COS, n))
        y = inverse_corner(toeplitz_section(reflected(TWO_PLUS_COS), n))
        assert abs(x - y) <= 1e-10


def same_bits(x, y):
    """Equal complex arrays, bit for bit (signed zeros included)."""
    return x.shape == y.shape and x.tobytes() == y.tobytes()


def eval_ap_vectors(diagonals, size, start):
    """Diagonal storage with every diagonal evaluated by `eval_ap` over its
    column range: v[j] = diagonals[d](start + j)."""
    out = {}
    for d, f in diagonals.items():
        if abs(d) < size:
            lo, hi = max(0, -d), size - max(0, d)
            v = out[d] = np.zeros(size, dtype=np.complex128)
            with np.errstate(over="ignore"):  # c * e^0 may raise the flag near the float range
                v[lo:hi] = eval_ap(f, np.arange(start + lo, start + hi))
    return out


PARTS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(re=PARTS, im=PARTS, real=st.booleans(), general=st.booleans(),
       d=st.integers(-4, 4), n=st.integers(1, 9))
def test_constant_diagonal_storage_is_eval_ap_bit_for_bit(re, im, real, general, d, n):
    # a constant diagonal is filled from one value; it must be what eval_ap
    # gives at every column of the sections over 0..n-1, -n..-1 and n..2n-1
    c = complex(re, math.copysign(0.0, im) if real else im)
    assume(c != 0)  # a zero diagonal is dropped
    f = APFunction([(0.0, c)]) if general else APFunction.constant(c)
    assert f.is_real_valued == (c.imag == 0.0)
    op = BandAPOperator({d: f, d + 1: APFunction.cosine(0.5, GOLDEN, 0.1)})
    for start in (0, -n, n):
        got, want = band_diagonals(op, n, start=start), eval_ap_vectors(op.diagonals, n, start)
        assert got.keys() == want.keys()
        for k in got:
            assert same_bits(got[k], want[k]), (k, got[k], want[k])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(values=st.lists(PARTS, min_size=1, max_size=4), imag=st.sampled_from([0.0, -0.0]),
       n=st.integers(1, 9))
def test_real_toeplitz_lu_storage_is_float64_eval_ap_bit_for_bit(values, imag, n):
    # every diagonal a real constant: the section's storage for a band LU is
    # float64, whose entries cast to complex are the bits eval_ap gives (a
    # -0.0 part reads +0.0); any other storage is complex128.  One complex
    # coefficient or one diagonal that is not constant keeps complex128
    # storage for the LU too
    op = BandAPOperator({d - 1: APFunction.constant(complex(v, imag)) for d, v in enumerate(values) if v})
    assume(op.diagonals)
    assert op.is_real_toeplitz
    want = eval_ap_vectors(op.diagonals, n, 0)
    for lu, dtype in ((True, np.float64), (False, np.complex128)):
        got = band_diagonals(op, n, lu=lu)
        assert got.keys() == want.keys()
        for k in got:
            assert got[k].dtype == dtype and same_bits(got[k].astype(np.complex128), want[k])
    for extra in (APFunction.constant(0.5j), APFunction.cosine(0.5, GOLDEN, 0.1)):
        mixed = BandAPOperator({**op.diagonals, 5: extra})
        assert not mixed.is_real_toeplitz
        assert all(v.dtype == np.complex128 for v in band_diagonals(mixed, n, lu=True).values())


def storage_of(matrix, offsets):
    """The diagonal storage of ``matrix`` at ``offsets``: v[j] = entry
    (j + d, j) on the valid column range and 0 outside it."""
    m = len(matrix)
    out = {}
    for d in offsets:
        v = out[d] = np.zeros(m, dtype=complex)
        for j in range(max(0, -d), m - max(0, d)):
            v[j] = matrix[j + d, j]
    return out


SMALL = st.builds(complex, st.integers(-3, 3), st.integers(-3, 3))


@st.composite
def small_storage(draw, m):
    """Storage of an m x m band matrix with |offset| <= 3, every entry a
    small-integer complex number, so that dense sums and products are exact."""
    w = min(3, m - 1)
    offsets = draw(st.sets(st.integers(-w, w), max_size=2 * w + 1))
    out = {}
    for d in sorted(offsets):
        v = out[d] = np.zeros(m, dtype=complex)
        lo, hi = max(0, -d), m - max(0, d)
        v[lo:hi] = draw(st.lists(SMALL, min_size=hi - lo, max_size=hi - lo))
    return out


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data(), m=st.integers(1, 8))
def test_band_storage_algebra_matches_dense_exactly(data, m):
    # products reach offsets |d| >= m, which leave the section and are dropped
    a, b = data.draw(small_storage(m)), data.draw(small_storage(m))
    A, B = dense(a, m), dense(b, m)
    every = range(1 - m, m)
    product = storage_of(A @ B, every)
    got = _band_matmul(a, b, m)
    for d in every:
        assert np.array_equal(got.get(d, np.zeros(m)), product[d]), d
    main = _band_matmul(a, b, m, main_only=True)
    assert set(main) <= {0} and np.array_equal(main.get(0, np.zeros(m)), np.diag(A @ B))

    assert np.array_equal(dense(_adjoint(a, m), m), A.conj().T)

    assert _is_hermitian(a, m) == np.array_equal(A, A.conj().T)
    H = A + A.conj().T
    band = {d for d in every if abs(d) <= 3}
    assert _is_hermitian(storage_of(H, band), m)
    j = data.draw(st.integers(0, m - 1))
    i = data.draw(st.integers(max(0, j - 3), min(m - 1, j + 3)))
    H[i, j] += 1j  # one entry off: (i, j) is no longer conj (j, i), or not real
    assert not np.array_equal(H, H.conj().T)
    assert not _is_hermitian(storage_of(H, band), m)

    coeffs = np.array(data.draw(st.lists(SMALL, min_size=1, max_size=4)))
    poly = sum(c * np.linalg.matrix_power(A, k) for k, c in enumerate(coeffs))
    assert np.array_equal(_poly_diagonal(a, m, coeffs), np.diag(poly))
