"""Determinant ratios, distribution means, predictions, probes."""

import cmath
import math
import warnings

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import iv

from szegolab.almostperiodic import APFunction, distinguished_sequence, eval_ap
from szegolab import numkernel
from szegolab.numkernel import LogDet, SingularMatrixError, band_lu_pivots, singular_values
from szegolab.operators import (
    BandAPOperator,
    almost_mathieu,
    as_band_operator,
    band_ap_section,
    band_diagonals,
)
from szegolab.symbols import TrigPolynomial, geometric_mean, strong_szego_constant, symbol_average
from szegolab.szego import (
    Cluster,
    DomainError,
    EmptyReportError,
    MethodError,
    ResolventZeroError,
    TestFunction,
    WindowError,
    cluster_partial_limits,
    det_ratio_sequence,
    eigen_mean,
    eigen_sample,
    folner_discrepancy,
    g_limit_constant,
    limit_prediction,
    singular_mean,
    stability_probe,
    strong_szego_ratio,
    sweep,
)

from sections import composite_of, cramer_ratio, flip_section

GOLDEN = (math.sqrt(5) - 1) / 2
TWO_PLUS_COS = TrigPolynomial({0: 2.0, 1: 0.5, -1: 0.5})
# exp(cos t) = sum_k I_|k|(1) e^{ikt}, truncated at |k| <= 24
EXP_COS = TrigPolynomial({k: iv(abs(k), 1.0) for k in range(-24, 25)})


def toeplitz_section(a, n):
    """The n x n section with entry (i, j) = a_{i-j}."""
    return band_ap_section(as_band_operator(a), n)


def dense_logdet(a):
    """Test oracle: the dense pivoted LU of SciPy, read as the kernel reads
    its band LU."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # SciPy warns on exactly zero pivots
        lu, piv = scipy.linalg.lu_factor(np.asarray(a))
    return numkernel._logdet_from_lu(np.diagonal(lu), piv)


def block_periodic_operator():
    """2x2 blocks [[2, 1], [1, 2]] repeated along the diagonal."""
    up = APFunction([(0.0, 0.5), (0.5, 0.5)])
    down = APFunction([(0.0, 0.5), (0.5, -0.5)])
    return BandAPOperator({0: APFunction.constant(2.0), 1: up, -1: down}, "Z")


def shifted(op, c):
    """op + c I: c added to the main diagonal."""
    main = op.diagonals.get(0, APFunction([]))
    return BandAPOperator({**op.diagonals, 0: APFunction(main.terms + ((0.0, c),))}, op.domain)


def scaled(op, c):
    """c op: every diagonal coefficient times c."""
    return BandAPOperator(
        {d: APFunction([(f, c * x) for f, x in a.terms]) for d, a in op.diagonals.items()}, op.domain
    )


# ---------------------------------------------------------------------------
# test functions


def test_testfunction_polynomial():
    g = TestFunction.polynomial([1.0, 0.0, 2.0])
    assert g(3.0) == pytest.approx(19.0)
    assert np.allclose(g.x_coefficients(), [1.0, 0.0, 2.0])


def test_testfunction_entire_and_callable():
    # an entire function given pointwise by its truncated power series
    series = TestFunction.from_callable(lambda x: sum(x**k / math.factorial(k) for k in range(20)))
    assert series(1.0) == pytest.approx(math.e, abs=1e-12)
    with pytest.raises(MethodError):
        series.x_coefficients()
    assert TestFunction.exp()(0.5) == pytest.approx(math.exp(0.5))


def test_testfunction_domain_violation():
    g = TestFunction.polynomial([0.0, 1.0], domain=("interval", 0.0, 1.0))
    with pytest.raises(DomainError) as exc:
        g.apply(np.array([0.5, 2.0]))
    assert exc.value.sample == pytest.approx(2.0)


def test_testfunction_nonfinite_output():
    with pytest.raises(DomainError):
        TestFunction.log().apply(np.array([1.0, 0.0]))


# ---------------------------------------------------------------------------
# determinant ratios


def test_det_ratio_constant_symbol():
    c = 3.5 - 1.0j
    rep = det_ratio_sequence(TrigPolynomial({0: c}), [2, 3, 4], c)
    for value in rep.values:
        assert value == pytest.approx(c, abs=1e-12)


def test_det_ratio_block_operator_two_partial_limits():
    op = block_periodic_operator()
    rep = det_ratio_sequence(op, list(range(1, 17)))
    clusters = cluster_partial_limits(rep.values)
    assert len(clusters) == 2
    centers = sorted(c.center.real for c in clusters)
    assert centers[0] == pytest.approx(1.5, abs=1e-12)
    assert centers[1] == pytest.approx(2.0, abs=1e-12)
    assert max(c.radius for c in clusters) <= 1e-12


def test_det_ratio_exp_cos_tends_to_one():
    rep = det_ratio_sequence(EXP_COS, [64], 1.0)
    assert rep.residuals[0] <= 1e-10


def test_det_ratio_all_singular_raises():
    z = TrigPolynomial({1: 1.0})
    with pytest.raises(EmptyReportError):
        det_ratio_sequence(z, [2, 4, 8])


def dense_ratio_route(op, sizes):
    """Per-size pivoted dense LU of sections n and n-1: (rows, skipped) in the
    form det_ratio_sequence reports them."""
    band = as_band_operator(op)

    def logdet(k):
        return dense_logdet(band_ap_section(band, k)) if k else LogDet(0.0, 1 + 0j)

    rows, skipped = [], []
    for n in sizes:
        num, den = logdet(n), logdet(n - 1)
        if num.singular_flag or den.singular_flag:
            which = "n" if num.singular_flag else "n-1"
            skipped.append((n, f"singular section at {which}"))
            continue
        rows.append((n, cmath.exp(num.log_abs - den.log_abs) * (num.phase / den.phase)))
    return rows, tuple(skipped)


def assert_matches_dense(rep, op, sizes, rel):
    rows, skipped = dense_ratio_route(op, sizes)
    assert rep.skipped == skipped
    assert list(rep.sizes) == [n for n, _ in rows]
    for got, (_, value) in zip(rep.values, rows):
        assert abs(got - value) <= rel * abs(value)


def breakdown_step(op, n):
    band = as_band_operator(op)
    return band_lu_pivots(band_diagonals(band, n), n)[1]


_coefficient = st.one_of(
    st.integers(-2, 2).map(complex),
    st.builds(
        complex,
        st.floats(-1, 1, allow_subnormal=False),
        st.floats(-1, 1, allow_subnormal=False),
    ),
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    coeffs=st.dictionaries(st.integers(-3, 3), _coefficient, min_size=1),
    sizes=st.lists(st.integers(1, 40), min_size=1, max_size=12, unique=True).map(sorted),
)
def test_det_ratio_banded_sweep_matches_dense_route(coeffs, sizes):
    # non-dominant symbols included: the banded pass stops at the first pivot
    # that fails the kernel test and the dense route takes over from there
    a = TrigPolynomial(coeffs)
    rows, skipped = dense_ratio_route(a, sizes)
    if not rows:
        with pytest.raises(EmptyReportError):
            det_ratio_sequence(a, sizes)
        return
    assert_matches_dense(det_ratio_sequence(a, sizes), a, sizes, 1e-11)


def test_det_ratio_breakdown_at_step_two_skips_as_dense():
    a = TrigPolynomial({0: 1.0, 1: 1.0, -1: 1.0})  # det T_n: 1, 0, -1, -1, 0, 1, ...
    assert breakdown_step(a, 30) == 1
    sizes = list(range(1, 31))
    rep = det_ratio_sequence(a, sizes)
    assert rep.skipped and rep.skipped[0] == (2, "singular section at n")
    assert_matches_dense(rep, a, sizes, 1e-12)


def test_det_ratio_breakdown_at_step_zero_agrees_with_dense():
    a = TrigPolynomial({0: 0.5, 1: 1.0, -1: 1.0, 2: 0.3})
    assert breakdown_step(a, 40) == 0
    sizes = list(range(1, 41))
    rep = det_ratio_sequence(a, sizes)
    assert_matches_dense(rep, a, sizes, 1e-11)
    assert set(rep.sizes) >= {11, 12, 13}


def test_det_ratio_keeps_tiny_imaginary_coefficient():
    # a constant diagonal is real only when its imaginary part is exactly 0;
    # the dense sections are built from the coefficients, not by szegolab
    one, two = (
        dense_logdet(scipy.linalg.toeplitz([2.0, 0.5 + 1e-13j][:n], [2.0, 0.5][:n])) for n in (1, 2)
    )
    dense = cmath.exp(two.log_abs - one.log_abs) * (two.phase / one.phase)
    ratio = det_ratio_sequence(TrigPolynomial({0: 2.0, 1: 0.5 + 1e-13j, -1: 0.5}), [2]).values[0]
    assert dense.imag < -2e-14
    assert abs(ratio.real - dense.real) <= 1e-15
    assert abs(ratio.imag - dense.imag) <= 1e-15


def _mp_det(op, n):
    band = as_band_operator(op)
    m = mpmath.matrix(n, n)
    for d, f in band.diagonals.items():
        for j in range(max(0, -d), min(n, n - d)):
            m[j + d, j] = mpmath.mpc(eval_ap(f, j))
    return mpmath.det(m)


@pytest.mark.parametrize(
    "op",
    [
        TrigPolynomial({0: 3.0 - 1.0j, 1: 0.7 + 0.2j, -1: -0.4j, 2: 0.5, -3: 0.25}),
        TrigPolynomial({0: 0.5, 1: 1.0, -1: 1.0, 2: 0.3}),  # LAPACK swaps at step 0
        almost_mathieu(GOLDEN, 2.5, 0.3),
    ],
)
def test_det_ratio_mpmath_oracle(op):
    sizes = list(range(1, 13))
    rep = det_ratio_sequence(op, sizes)
    with mpmath.workdps(40):
        dets = [mpmath.mpf(1)] + [_mp_det(op, n) for n in sizes]
        for n, value in zip(rep.sizes, rep.values):
            exact = complex(dets[n] / dets[n - 1])
            assert abs(value - exact) <= 1e-12 * abs(exact)


@pytest.mark.parametrize(
    "coeffs, sizes",
    [
        ({0: 3.0 - 1.0j, 1: 0.7 + 0.2j, -1: -0.4j, 2: 0.5, -3: 0.25}, list(range(1, 13))),
        ({1: 1.0, 0: -0.2, -1: -0.99}, list(range(1, 13))),  # LAPACK swaps at step 0
    ],
)
def test_strong_szego_ratio_mpmath_oracle(coeffs, sizes):
    a = TrigPolynomial(coeffs)
    g = geometric_mean(a)
    rep = strong_szego_ratio(a, sizes)
    assert rep.geometric_mean == g
    with mpmath.workdps(40):
        for n, value in zip(rep.sizes, rep.values):
            exact = complex(_mp_det(a, n) / mpmath.mpc(g) ** n)
            assert abs(value - exact) <= 1e-12 * abs(exact)


def test_strong_szego_ratio_singular_section_raises():
    with pytest.raises(SingularMatrixError):
        # det T_2 = 1 - 2 * 0.5 = 0 exactly
        strong_szego_ratio(TrigPolynomial({0: 1.0, 1: 2.0, -1: 0.5, 2: -6.0, -2: -6.0}), [1, 2, 3])


def test_det_ratio_via_cramer_examples():
    # the dense Cramer oracle of tests/sections.py against closed forms
    c = 2.0 - 1.5j
    band = as_band_operator(TrigPolynomial({0: c}))
    assert cramer_ratio(band, 5) == pytest.approx(1 / c, abs=1e-12)
    op = almost_mathieu(GOLDEN, 1.0, 0.3)
    assert cramer_ratio(op, 1) == pytest.approx(1 / eval_ap(op.diagonals[0], 0))


def test_cramer_cross_method_consistency():
    rep = det_ratio_sequence(TWO_PLUS_COS, [32], geometric_mean(TWO_PLUS_COS))
    beta = cramer_ratio(as_band_operator(TWO_PLUS_COS), 32)
    assert abs(beta * rep.values[0] - 1.0) <= 1e-9


def test_g_limit_constant_examples():
    diag = BandAPOperator({0: APFunction.constant(4.0 + 1j)}, "Z")
    assert g_limit_constant(diag, 6) == pytest.approx(4.0 + 1j, abs=1e-12)
    band = as_band_operator(TWO_PLUS_COS)
    g64 = g_limit_constant(band, 64)
    assert g64 == pytest.approx((2 + math.sqrt(3)) / 2, abs=1e-10)
    band_rev = as_band_operator(TrigPolynomial({-k: c for k, c in TWO_PLUS_COS.coeffs.items()}))
    assert g_limit_constant(band_rev, 64) == pytest.approx(g64, abs=1e-12)


# the complex 5-term symbol of the non-normal configs of szegobench/workloads.py
NON_NORMAL_BASE = {0: 2.0 + 0j, 1: 0.6 + 0.2j, -1: -0.3 + 0.4j, 2: 0.15j, -2: 0.1 + 0j}


@pytest.mark.parametrize("coeffs", [TWO_PLUS_COS.coeffs, NON_NORMAL_BASE, {0: 3.0, 1: 1.0, -2: 0.5}])
def test_g_limit_constant_is_the_ratio_route_bit_for_bit(coeffs):
    # a Toeplitz section over -m..-1 is the one over 0..m-1: the limit
    # constant is the last ratio det_ratio_sequence gives, by the same route
    a = TrigPolynomial(coeffs)
    for m in (1, 2, 5, 33, 200, 1000):
        got = np.complex128(g_limit_constant(as_band_operator(a), m))
        assert got.tobytes() == det_ratio_sequence(a, [m]).values[0].tobytes(), m


def test_g_limit_constant_singular_sections_and_domain():
    # zero diagonal, ones beside it: the section over -2..-1 is [[0, 1], [1, 0]],
    # and the one over -2..-2 is [0]
    swap = as_band_operator(TrigPolynomial({1: 1.0, -1: 1.0}))
    with pytest.raises(ResolventZeroError):
        g_limit_constant(swap, 2)
    with pytest.raises(SingularMatrixError) as exc:
        g_limit_constant(swap, 3)  # [[0, 1, 0], [1, 0, 1], [0, 1, 0]]
    assert exc.value.smallest_pivot == 0.0
    with pytest.raises(ValueError, match="all integers"):
        g_limit_constant(BandAPOperator({0: APFunction.constant(1.0)}, "Z+"), 4)
    for m in (0, 2.0):
        with pytest.raises(ValueError):
            g_limit_constant(swap, m)


def test_sizes_must_be_integers():
    # a size is never rounded: 2.9 is not the section of size 2
    with pytest.raises(ValueError, match=r"^section sizes must be integers, got 2\.9$"):
        det_ratio_sequence(TWO_PLUS_COS, [2.9, 4.5])
    with pytest.raises(ValueError, match=r"got 1\.99$"):
        sweep([1.99], lambda n: 1.0)
    with pytest.raises(ValueError, match=r"got (np\.float64\()?4\.0\)?$"):
        stability_probe(TWO_PLUS_COS, [1, np.float64(4.0)])
    rep = det_ratio_sequence(TWO_PLUS_COS, np.array([2, 4]))  # numpy integers pass
    assert rep.sizes == (2, 4) and all(type(n) is int for n in rep.sizes)
    assert sweep([np.int32(3), 5], lambda n: n).sizes == (3, 5)


def test_g_limit_constant_almost_mathieu_converged():
    # the section over -m..-1 of lambda = 3 is factored in band storage at any size
    op = almost_mathieu(GOLDEN, 3.0)
    assert abs(g_limit_constant(op, 2048) - g_limit_constant(op, 512)) <= 1e-12


def test_corner_solves_of_singular_sections_raise():
    # both corners of the shift are strictly triangular with a zero diagonal
    shift = as_band_operator(TrigPolynomial({1: 1.0}))
    with pytest.raises(SingularMatrixError):
        g_limit_constant(shift, 5)
    with pytest.raises(np.linalg.LinAlgError):
        cramer_ratio(shift, 5)
    # the ratio route skips the singular size that the Cramer solve fails on
    with pytest.raises(EmptyReportError):
        det_ratio_sequence(shift, [5])


@st.composite
def band_ap_operators(draw):
    """Band operators over Z of bandwidth <= 3: up to three almost periodic
    terms per diagonal, and a constant shift of the main diagonal."""
    w = draw(st.integers(0, 3))
    diagonals = {}
    for d in range(-w, w + 1):
        terms = draw(st.lists(st.tuples(st.floats(0, 1, exclude_max=True), _coefficient), max_size=3))
        if d == 0:
            terms.append((0.0, draw(st.floats(0, 8))))
        diagonals[d] = APFunction(terms)
    return BandAPOperator(diagonals, "Z")


def e0_solution_oracle(section):
    """x[0] of section x = e_0 by numpy's dense solve, skipping sections on
    which double precision cannot resolve it to 1e-10."""
    with np.errstate(all="ignore"):  # singular and extreme sections are skipped
        cond = np.linalg.cond(section)
        assume(cond <= 1e8)
        x = np.linalg.solve(section, np.eye(len(section))[0])
        assume(cond * np.linalg.norm(x) <= 1e5 * abs(x[0]))
    return x[0]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(op=band_ap_operators(), m=st.integers(1, 64))
def test_corner_solves_match_dense_oracle(op, m):
    flip = flip_section(op, m)
    reverse = band_ap_section(op, m)[::-1, ::-1]
    x0 = e0_solution_oracle(flip)
    assert abs(g_limit_constant(op, m) - 1 / x0) <= 1e-10 * abs(1 / x0)
    y0 = e0_solution_oracle(reverse)
    ratio = det_ratio_sequence(op, [m]).values[0]  # Cramer: det A_m / det A_{m-1} = 1 / y0
    assert abs(ratio - 1 / y0) <= 1e-10 * abs(1 / y0)


def test_strong_szego_ratio_constant():
    rep = strong_szego_ratio(TrigPolynomial({0: 2.5}), [2, 4, 8])
    for value in rep.values:
        assert value == pytest.approx(1.0, abs=1e-12)


def test_strong_szego_ratio_exp_cos():
    rep = strong_szego_ratio(EXP_COS, [8, 16, 32, 64])
    assert rep.values[-1] == pytest.approx(math.exp(0.25), abs=1e-12)
    # analytic symbol: residual decreases until it hits the roundoff floor
    resids = rep.residuals.tolist()
    assert all(b <= a or b <= 1e-13 for a, b in zip(resids, resids[1:]))


def test_strong_szego_ratio_series_vs_determinant():
    # two routes to E[a]: the coefficient series and the determinant ratio
    rep = strong_szego_ratio(TWO_PLUS_COS, [16, 32, 64])
    series = strong_szego_constant(TWO_PLUS_COS)
    assert rep.values[-1] == pytest.approx(series.value, abs=1e-10)
    assert series.tail_bound <= 1e-20


# ---------------------------------------------------------------------------
# distribution means


def test_eigen_mean_identity_is_trace():
    sec = toeplitz_section(TWO_PLUS_COS, 9)
    s = eigen_sample(sec)
    mean = eigen_mean(s, TestFunction.identity())
    assert mean == pytest.approx(np.trace(sec) / 9, abs=1e-12)


def test_eigen_mean_two_cos_square():
    a = TrigPolynomial({1: 1.0, -1: 1.0})
    for n in (4, 16, 64):
        s = eigen_sample(toeplitz_section(a, n))
        mean = eigen_mean(s, TestFunction.power(2))
        assert mean == pytest.approx(2 * (n - 1) / n, abs=1e-10)


def test_eigen_mean_exp_quadrature_oracle():
    a = TrigPolynomial({1: 1.0, -1: 1.0})
    oracle = quad(lambda t: math.exp(2 * math.cos(t)), 0, 2 * math.pi)[0] / (2 * math.pi)
    s = eigen_sample(toeplitz_section(a, 512))
    mean = eigen_mean(s, TestFunction.exp())
    assert abs(mean - oracle) <= 0.01


def test_eigen_mean_polynomial_matches_trace_route():
    rng = np.random.default_rng(31)
    g = TestFunction.polynomial([0.5, -1.0, 2.0, 0.25])
    for _ in range(10):
        n = int(rng.integers(3, 12))
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = (a + a.conj().T) / 2
        s = eigen_sample(h)
        mean = eigen_mean(s, g)
        poly = 0.5 * np.eye(n) - h + 2.0 * h @ h + 0.25 * np.linalg.matrix_power(h, 3)
        assert mean == pytest.approx(np.trace(poly) / n, abs=1e-9)


def test_eigenvalue_hull_containment():
    rng = np.random.default_rng(37)
    for _ in range(20):
        lam = float(rng.uniform(0.1, 3.0))
        alpha = float(rng.uniform(0.05, 0.95))
        theta = float(rng.uniform(0, 1))
        op = almost_mathieu(alpha, lam, theta)
        n = int(rng.integers(4, 40))
        vals = eigen_sample(band_ap_section(op, n))
        assert np.all(vals >= -2 - lam - 1e-9)
        assert np.all(vals <= 2 + lam + 1e-9)


def test_singular_mean_shift_symbol():
    z = TrigPolynomial({1: 1.0})
    g = TestFunction.exp()
    for n in (3, 8, 20):
        s = singular_values(toeplitz_section(z, n))
        mean = singular_mean(s, g)
        expected = ((n - 1) * math.e + 1.0) / n
        assert mean == pytest.approx(expected, abs=1e-12)


def test_singular_mean_one_plus_z():
    a = TrigPolynomial({0: 1.0, 1: 1.0})
    for n in (8, 32, 128):
        s = singular_values(toeplitz_section(a, n))
        m2 = singular_mean(s, TestFunction.power(2))
        assert m2 == pytest.approx((2 * n - 1) / n, abs=1e-10)
        m4 = singular_mean(s, TestFunction.power(4))
        assert m4 == pytest.approx(6 - 5 / n, abs=1e-9)


# ---------------------------------------------------------------------------
# limit predictions


def test_limit_prediction_mathieu_identity_and_square():
    op = almost_mathieu(GOLDEN, 1.0, 0.3)
    zero = limit_prediction(op, TestFunction.identity(), 2048)
    assert abs(zero) <= 0.01
    sq = limit_prediction(op, TestFunction.power(2), 2048)
    assert sq == pytest.approx(2.5, abs=0.01)


def test_toeplitz_prediction_is_symbol_average():
    a = TrigPolynomial({1: 1.0, -1: 1.0})
    oracle = quad(lambda t: math.exp(2 * math.cos(t)), 0, 2 * math.pi)[0] / (2 * math.pi)
    val = symbol_average(a, TestFunction.exp(), 4096)
    assert val == pytest.approx(oracle, abs=1e-10)


def test_limit_prediction_spectral_vs_polynomial_routes():
    op = almost_mathieu(0.3721, 0.8, 0.1)
    g = TestFunction.power(2)
    g_callable = TestFunction.from_callable(lambda x: x**2)
    banded = limit_prediction(op, g, 256)
    spectral = limit_prediction(op, g_callable, 256)
    assert banded == pytest.approx(spectral, abs=1e-10)


def test_limit_prediction_errors():
    op = almost_mathieu(GOLDEN, 1.0, 0.3)
    with pytest.raises(WindowError):
        limit_prediction(op, TestFunction.power(2), 64, 60)
    skew = BandAPOperator(
        {1: APFunction.constant(1.0), 0: APFunction([(GOLDEN, 1.0)])}, "Z"
    )
    with pytest.raises(MethodError):
        limit_prediction(skew, TestFunction.exp(), 64)


# ---------------------------------------------------------------------------
# Folner discrepancies


def test_folner_single_factor_zero():
    e = composite_of(as_band_operator(TWO_PLUS_COS))
    assert folner_discrepancy(e, 9) == 0.0


def test_folner_shift_pair_exact():
    z = TrigPolynomial({1: 1.0})
    zinv = TrigPolynomial({-1: 1.0})
    e = composite_of(as_band_operator(zinv), as_band_operator(z))
    assert folner_discrepancy(e, 8) == pytest.approx(1 / 8, abs=1e-12)


def test_folner_rank_bound_normalized_symbols():
    rng = np.random.default_rng(41)
    for _ in range(8):
        wa, wb = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        a = {k: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for k in range(-wa, wa + 1)}
        b = {k: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for k in range(-wb, wb + 1)}
        scale_a = sum(abs(v) for v in a.values())
        scale_b = sum(abs(v) for v in b.values())
        sa = TrigPolynomial({k: v / scale_a for k, v in a.items()})
        sb = TrigPolynomial({k: v / scale_b for k, v in b.items()})
        e = composite_of(as_band_operator(sa), as_band_operator(sb))
        n = int(rng.integers(8, 40))
        assert folner_discrepancy(e, n) <= min(wa, wb) / n + 1e-12


def test_folner_nonincreasing_in_n():
    z = TrigPolynomial({1: 1.0, 0: 0.3})
    zinv = TrigPolynomial({-1: 1.0, 0: -0.2})
    e = composite_of(as_band_operator(zinv), as_band_operator(z))
    discs = [folner_discrepancy(e, n) for n in (4, 8, 16, 32, 64)]
    assert all(b <= a + 1e-12 for a, b in zip(discs, discs[1:]))


# ---------------------------------------------------------------------------
# stability probes


def test_stability_probe_shift_unstable():
    rep = stability_probe(TrigPolynomial({1: 1.0}), [4, 8, 12, 16, 20, 24])
    assert rep.verdict == "unstable-evidence"
    assert (rep.values == 0).all() and rep.flags == ("section",) * 6


def test_stability_probe_positive_symbol():
    rep = stability_probe(TWO_PLUS_COS, [4, 8, 16, 32, 64])
    assert rep.verdict == "stability-consistent"
    assert min(rep.values.real) >= 1.0


def test_stability_probe_shifted_mathieu():
    op = almost_mathieu(GOLDEN, 1.0, 0.3)
    rep = stability_probe(shifted(op, -5.0), [4, 8, 16, 32])
    assert rep.verdict == "stability-consistent"
    assert min(rep.values.real) >= 2.0


def test_stability_probe_distinguished_sequence():
    op = almost_mathieu(GOLDEN, 1.0, 0.3)
    seq = distinguished_sequence(GOLDEN, 8)
    rep = stability_probe(op, seq.values)
    assert rep.sizes == seq.values


def test_scaling_invariance():
    op = almost_mathieu(0.4142, 1.5, 0.1)
    c = 2.3 - 1.1j
    base = det_ratio_sequence(op, [4, 8, 16])
    big = det_ratio_sequence(scaled(op, c), [4, 8, 16])
    for x, y in zip(base.values, big.values):
        assert y == pytest.approx(c * x, rel=1e-10)
    moved = shifted(op, -5.0)
    v1 = stability_probe(moved, [4, 8, 16, 32]).verdict
    v2 = stability_probe(scaled(moved, 17.0), [4, 8, 16, 32]).verdict
    assert v1 == v2 == "stability-consistent"


def test_cluster_partial_limits():
    clusters = cluster_partial_limits([2.0, 1.5, 2.0, 1.5 + 1e-9])
    assert len(clusters) == 2
    assert clusters == tuple(sorted(clusters, key=lambda c: (c.center.real, c.center.imag)))
    single = cluster_partial_limits([1.0, 1.0 + 1e-8])
    assert len(single) == 1 and single[0].count == 2
    assert isinstance(single[0], Cluster)


def test_cluster_partial_limits_interleaved_complex():
    # lexicographic order alternates between the two limits 1 + i and 1 - i
    values = [1 + 1j, 1 + 1e-9 - 1j, 1 + 2e-9 + 1j, 1 + 3e-9 - 1j]
    clusters = sorted(cluster_partial_limits(values), key=lambda c: c.center.imag)
    assert [c.count for c in clusters] == [2, 2]
    assert clusters[0].center == pytest.approx(1 - 1j, abs=1e-8)
    assert clusters[1].center == pytest.approx(1 + 1j, abs=1e-8)
    assert max(c.radius for c in clusters) <= 1e-8


def _cluster_quadratic(values, gap=1e-6):
    """Reference: cluster_partial_limits re-summing a group on every join."""
    pts = sorted((complex(v) for v in values), key=lambda z: (z.real, z.imag))
    groups, centers = [], []
    for v in pts:
        if centers:
            dist, i = min((abs(v - c), i) for i, c in enumerate(centers))
            if dist <= gap:
                groups[i].append(v)
                centers[i] = sum(groups[i]) / len(groups[i])
                continue
        groups.append([v])
        centers.append(v)
    out = []
    for grp, center in zip(groups, centers):
        radius = max(abs(v - center) for v in grp)
        out.append(Cluster(center, radius, len(grp)))
    return tuple(sorted(out, key=lambda c: (c.center.real, c.center.imag)))


def _cluster_bits(clusters):
    return [
        (c.center.real.hex(), c.center.imag.hex(), c.radius.hex(), c.count) for c in clusters
    ]


@pytest.mark.parametrize("seed", range(6))
def test_cluster_partial_limits_matches_quadratic_reference(seed):
    rng = np.random.default_rng(seed)
    limits = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    picks = limits[rng.integers(0, 4, 300)]
    values = list(picks + 1e-7 * (rng.standard_normal(300) + 1j * rng.standard_normal(300)))
    # real limits with -0.0 imaginary parts, and the interleaved 1 +- i pair
    values += [complex(x, -0.0) for x in (-0.0, 0.0, 2.5, 2.5 + 1e-9, -1e-9)]
    values += [1 + 1j, 1 + 1e-9 - 1j, 1 + 2e-9 + 1j, 1 + 3e-9 - 1j]
    # long runs of bit-identical values, as a converged ratio sweep gives:
    # noise-free picks of the limits, one real limit with both signs of a
    # zero imaginary part, a run exactly gap above the center its first
    # value meets, and the 400 ratios of 2 + cos t
    values += list(limits[rng.integers(0, 4, 200)])
    x = limits[0].real
    values += [complex(x, 0.0), complex(x, -0.0), complex(x, -0.0)] * 20
    values += [complex(-0.0, -0.0), complex(0.0, 0.0), complex(-0.0, 0.0)] * 10
    values += [complex(-30.0, 0.0)] + [complex(-30.0, 1e-6)] * 25
    values += det_ratio_sequence(TWO_PLUS_COS, range(1, 401)).values.tolist()
    rng.shuffle(values)
    got = cluster_partial_limits(values)
    assert _cluster_bits(got) == _cluster_bits(_cluster_quadratic(values))
    assert sum(c.count for c in got) == len(values)


def test_cluster_partial_limits_of_nothing_is_empty():
    assert cluster_partial_limits([]) == ()
    assert cluster_partial_limits(np.zeros(0, dtype=np.complex128)) == ()


@pytest.mark.parametrize(
    "base, gap_ulps, picks",
    [
        # (real, imag) offsets in ulps of base, each repeated the given times
        (1.0, 1, [(-6, 0, 2), (4, 1, 1), (-6, 1, 6)]),
        (0.7, 2, [(-3, 1, 5), (-5, 2, 1), (6, 1, 3), (2, -1, 3), (-2, 0, 5)]),
        (1e-300, 3, [(4, 0, 2), (-5, 0, 4), (0, 2, 4), (-4, 2, 6), (-2, 1, 6), (1, -1, 2)]),
        # the repeat's group was found at less than gap, and rounding moves
        # its center farther from the repeat than another group in reach
        (3.0, 1, [(2, 0, 3), (5, 0, 1), (3, 0, 5), (2, -1, 3), (3, 2, 3)]),
        (0.7, 2, [(1, 0, 5), (-1, -1, 6), (0, 1, 6), (-1, 0, 6), (6, 0, 4), (5, -1, 1)]),
    ],
)
def test_cluster_partial_limits_repeats_on_an_ulp_gap_match_reference(base, gap_ulps, picks):
    # on a gap of a few ulps, rounding can move a center away from the value
    # repeated into it, so a repeat must not join its group unchecked
    ulp = math.ulp(base)
    values = [complex(base + re * ulp, im * ulp) for re, im, k in picks for _ in range(k)]
    got = cluster_partial_limits(values, gap_ulps * ulp)
    assert _cluster_bits(got) == _cluster_bits(_cluster_quadratic(values, gap_ulps * ulp))


def test_cluster_partial_limits_converging_sequence_matches_reference():
    # shaped like the 2 + cos t ratios: L + c q^n, early values spread far
    # from the limit, later ones piling up within the gap of it
    limit, q = (2 + math.sqrt(3)) / 2, 2 - math.sqrt(3)
    values = [limit + (0.134 - 0.01j) * q ** (0.05 * n) for n in range(1, 401)]
    got = cluster_partial_limits(values)
    assert _cluster_bits(got) == _cluster_bits(_cluster_quadratic(values))
    assert got[0].count > 1 and len(got) > 10


def test_cluster_partial_limits_drifting_center_matches_reference():
    # doubling batches 0.45 gap apart: each batch pulls the center right, so
    # the group's first members end up over 2 gap left of its center while
    # later values still join it; other groups open and close around it
    gap = 1e-6
    drift = [k * 0.45 * gap for k in range(9) for _ in range(2**k)]
    values = drift + [x + 0.5j * gap for x in drift[::37]] + [-3 * gap, 20 * gap]
    # far-off values that open groups mid-scan, when the first drift values
    # already lie over 2 gap to their left
    values += [x * gap + 1j for x in (1.0, 2.5, 3.0, 3.3)]
    got = cluster_partial_limits(values, gap)
    assert _cluster_bits(got) == _cluster_bits(_cluster_quadratic(values, gap))
    widest = max(got, key=lambda c: c.radius)
    assert widest.radius > 2 * gap and widest.count >= len(drift)


def test_cluster_partial_limits_boundary_cases_match_reference():
    gap = 1e-6
    # a distance of exactly gap joins; a value equally near two centers joins
    # the older group; equal real parts are ordered by the imaginary part
    values = [0.0, gap, complex(5, -0.6 * gap), complex(5, 0.6 * gap), complex(5 + 0.5 * gap, 0)]
    values += [complex(9, 0.6 * gap), complex(9, -0.6 * gap), complex(9, 0)]
    got = cluster_partial_limits(values, gap)
    assert _cluster_bits(got) == _cluster_bits(_cluster_quadratic(values, gap))
    assert [c.count for c in got] == [2, 1, 2, 3]
