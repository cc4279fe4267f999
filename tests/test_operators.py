"""Section assembly checks: Toeplitz, band AP, flips, reversals, composites."""

import math

import numpy as np
import pytest
import scipy.linalg

from szegolab.almostperiodic import APFunction, eval_ap
from szegolab.cli import validate_config
from szegolab.numkernel import band_logdet, band_solve
from szegolab.operators import (
    BandAPOperator,
    CompositeOperator,
    almost_mathieu,
    as_band_operator,
    band_ap_section,
    band_diagonals,
    composite_sections,
    flip_diagonals,
    flip_section,
    reversed_diagonals,
)
from szegolab.symbols import TrigPolynomial

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
    rev = dense(reversed_diagonals(band, 6), 6)
    tilde = toeplitz_section(TrigPolynomial({0: 1.0, -1: 2.0, 2: 0.5j}), 6)
    assert np.array_equal(rev, tilde)


def test_reversed_section_n1():
    op = almost_mathieu(0.3, 2.0, 0.1)
    (r,) = reversed_diagonals(op, 1)[0]
    assert r == eval_ap(op.diagonals[0], 0)


def test_reversed_section_determinant_matches():
    op = almost_mathieu(GOLDEN, 1.0, 0.3)
    for n in (3, 8, 21):
        ld_p = band_logdet(band_diagonals(op, n), n)
        ld_w = band_logdet(reversed_diagonals(op, n), n)
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
    # the band vectors solved on by g_limit_constant and det_ratio_via_cramer
    assert np.array_equal(dense(flip_diagonals(op, n), n), flip_section(op, n))
    assert np.array_equal(
        dense(reversed_diagonals(op, n), n), band_ap_section(op, n)[::-1, ::-1]
    )
    assert np.array_equal(dense(band_diagonals(op, n), n), band_ap_section(op, n))


def test_flip_and_reversed_diagonals_reject_empty_sections():
    for diagonals in (flip_diagonals, reversed_diagonals):
        with pytest.raises(ValueError):
            diagonals(almost_mathieu(GOLDEN, 1.0), 0)


def test_sections_are_complex_arrays():
    op = almost_mathieu(GOLDEN, 1.0)
    e = CompositeOperator.of(as_band_operator(TWO_PLUS_COS), op)
    for section in (band_ap_section(op, 5), flip_section(op, 5), *composite_sections(e, 5)):
        assert type(section) is np.ndarray and section.dtype == np.complex128


def test_composite_single_factor_identical():
    e = CompositeOperator.of(as_band_operator(TWO_PLUS_COS))
    prod, crop = composite_sections(e, 5)
    assert np.array_equal(prod, crop)


def test_composite_shift_pair_corner_defect():
    z = TrigPolynomial({1: 1.0})
    zinv = TrigPolynomial({-1: 1.0})
    e = CompositeOperator.of(as_band_operator(zinv), as_band_operator(z))
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
        e0 = np.zeros(n, dtype=complex)
        e0[0] = 1.0
        x = band_solve(band_diagonals(as_band_operator(TWO_PLUS_COS), n), n, e0)
        y = band_solve(band_diagonals(as_band_operator(reflected(TWO_PLUS_COS)), n), n, e0)
        assert abs(x[0] - y[0]) <= 1e-10
