"""Symbol analysis checks: evaluation, log branches, G[a] and E[a]."""

import json
import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import iv

from szegolab.symbols import (
    BranchError,
    TrigPolynomial,
    ZeroProximityError,
    _tail_extrapolation,
    evaluate,
    geometric_mean,
    log_coefficients,
    sample_circle,
    strong_szego_constant,
    symbol_average,
    symbol_from_json,
)
from szegolab.szego import TestFunction

TWO_PLUS_COS = TrigPolynomial({0: 2.0, 1: 0.5, -1: 0.5})
# exp(cos t) = sum_k I_|k|(1) e^{ikt}, truncated at |k| <= 24
EXP_COS = TrigPolynomial({k: iv(abs(k), 1.0) for k in range(-24, 25)})


def fourier_symbol(fn, max_offset):
    """The Fourier coefficients of fn(t), |k| <= max_offset, from 1024 grid points."""
    c = np.fft.fft(fn(2.0 * np.pi * np.arange(1024) / 1024)) / 1024
    return TrigPolynomial({k: c[k] for k in range(-max_offset, max_offset + 1)})


def product_symbol(a, b):
    """The symbol a b: the convolution of the coefficients."""
    out = {}
    for k1, c1 in a.coeffs.items():
        for k2, c2 in b.coeffs.items():
            out[k1 + k2] = out.get(k1 + k2, 0j) + c1 * c2
    return TrigPolynomial(out)

# (1/2pi) int log(2+cos t) dt has the closed form log((2+sqrt 3)/2)
LOG_MEAN_2COS = math.log((2 + math.sqrt(3)) / 2)

# the symbol of the strong-szego golden config (tests/golden)
GOLDEN_STRONG = {0: 3.0, 1: 1 + 0.5j, -1: 0.5, 2: 0.25}
_RNG = np.random.default_rng(5)
SAMPLED_SYMBOLS = {
    "2+cos": TWO_PLUS_COS,
    "exp-cos-24": EXP_COS,
    "real-complex-coeffs": TrigPolynomial(
        {0: 2.0, 3: 0.3 - 0.4j, -3: 0.3 + 0.4j, -11: 0.1j, 11: -0.1j}
    ),
    "golden-strong": TrigPolynomial(GOLDEN_STRONG),
    "random-complex": TrigPolynomial(
        {k: complex(*_RNG.normal(size=2)) for k in range(-7, 13)}
    ),
}


def test_evaluate_examples():
    a = TrigPolynomial({1: 1.0, -1: 1.0})
    assert evaluate(a, 0.0) == pytest.approx(2.0)
    assert abs(evaluate(a, math.pi / 2)) <= 1e-15
    assert evaluate(TrigPolynomial({0: 3.0}), 1.234) == pytest.approx(3.0)


def test_evaluate_real_symbol_exactly_real():
    samples = evaluate(TWO_PLUS_COS, np.linspace(0, 6, 100))
    assert np.all(samples.imag == 0.0)


@pytest.mark.parametrize("n", [4, 5, 8, 32, 33, 64, 1024, 8192])
@pytest.mark.parametrize("name", sorted(SAMPLED_SYMBOLS))
def test_sample_circle_matches_direct_sum(name, n):
    # grids at or below twice the bandwidth (n = 4..33 here) fold offsets
    # into the same bin; the direct sum is the oracle
    a = SAMPLED_SYMBOLS[name]
    samples = sample_circle(a, n)
    direct = evaluate(a, 2.0 * np.pi * np.arange(n) / n)
    scale = sum(abs(c) for c in a.coeffs.values())
    assert samples.shape == (n,) and samples.dtype == np.complex128
    assert np.max(np.abs(samples - direct)) <= 1e-13 * scale
    if a.is_real_valued:
        assert np.all(samples.imag == 0.0)


def test_winding_number_examples():
    # log_coefficients computes the winding number and names a nonzero one
    for a, winding in ((TrigPolynomial({1: 1.0}), 1), (TrigPolynomial({-2: 1.0}), -2)):
        with pytest.raises(BranchError, match=f"winding number {winding}$"):
            log_coefficients(a, 256, 0)
    log_coefficients(TWO_PLUS_COS, 256, 0)  # winding number 0: no BranchError


def test_winding_zero_proximity():
    # |1 + e^{it}| vanishes at t = pi, which the even grid hits exactly
    with pytest.raises(ZeroProximityError):
        log_coefficients(TrigPolynomial({0: 1.0, 1: 1.0}), 256, 0)
    # 1 + 2 cos t changes sign between grid points: two phase steps of +-pi
    with pytest.raises(ZeroProximityError, match="between grid points"):
        geometric_mean(TrigPolynomial({0: 1.0, 1: 1.0, -1: 1.0}))


def test_log_coefficients_exp_cos():
    data = log_coefficients(EXP_COS, 1024, 4)
    assert data[1] == pytest.approx(0.5, abs=1e-12)
    assert data[-1] == pytest.approx(0.5, abs=1e-12)
    assert abs(data[0]) <= 1e-12
    assert abs(data[2]) <= 1e-12


def test_log_coefficients_constant():
    data = log_coefficients(TrigPolynomial({0: 3.0}), 1024, 2)
    assert data[0] == pytest.approx(math.log(3.0), abs=1e-14)
    assert abs(data[1]) <= 1e-14


def test_log_coefficients_quadrature_oracle():
    oracle = quad(lambda t: math.log(2 + math.cos(t)), 0, 2 * math.pi)[0] / (2 * math.pi)
    assert oracle == pytest.approx(LOG_MEAN_2COS, abs=1e-9)
    data = log_coefficients(TWO_PLUS_COS, 1024, 0)
    assert data[0] == pytest.approx(LOG_MEAN_2COS, abs=1e-12)


def test_log_coefficients_branch_error():
    with pytest.raises(BranchError):
        log_coefficients(TrigPolynomial({1: 1.0}), 1024, 0)


def test_log_coefficients_grid_validation():
    with pytest.raises(ValueError):
        log_coefficients(TWO_PLUS_COS, 1000, 4)  # not a power of two
    with pytest.raises(ValueError):
        log_coefficients(TWO_PLUS_COS, 64, 32)  # grid < 4K


def test_geometric_mean_examples():
    assert geometric_mean(EXP_COS) == pytest.approx(1.0, abs=1e-12)
    assert geometric_mean(TrigPolynomial({0: 3.0})) == pytest.approx(3.0)
    assert geometric_mean(TWO_PLUS_COS) == pytest.approx((2 + math.sqrt(3)) / 2, abs=1e-12)


def test_strong_szego_constant_examples():
    value, tail = strong_szego_constant(EXP_COS, 16)
    assert value == pytest.approx(math.exp(0.25), abs=1e-12)
    assert tail <= 1e-12
    value_c, _ = strong_szego_constant(TrigPolynomial({0: 5.0}), 8)
    assert value_c == pytest.approx(1.0, abs=1e-12)
    double = fourier_symbol(lambda t: np.exp(np.cos(t) + np.cos(2 * t)), 32)
    value_d, _ = strong_szego_constant(double, 16)
    assert value_d == pytest.approx(math.exp(0.75), abs=1e-10)


def test_golden_strong_szego_constants_mpmath_oracle():
    # Wiener-Hopf closed forms at 30 digits: z a(z) = 0.25 prod (z - r), one
    # root r0 inside the unit disk, so G[a] = 0.25 prod_{|r|>1} (-r) and
    # E[a] = prod_{|r|>1} 1 / (1 - r0 / r)
    with mpmath.workdps(30):
        roots = mpmath.polyroots(
            [mpmath.mpf("0.25"), mpmath.mpc(1, 0.5), 3, mpmath.mpf("0.5")],
            maxsteps=200, extraprec=60,
        )
        inner = [r for r in roots if abs(r) < 1]
        outer = [r for r in roots if abs(r) > 1]
        assert len(inner) == 1 and len(outer) == 2
        g_exact = complex(mpmath.mpf("0.25") * mpmath.fprod(-r for r in outer))
        e_exact = complex(mpmath.fprod(1 / (1 - inner[0] / r) for r in outer))
    a = TrigPolynomial(GOLDEN_STRONG)
    assert abs(geometric_mean(a) - g_exact) <= 1e-13
    value, tail = strong_szego_constant(a, 256)
    assert abs(value - e_exact) <= 1e-13
    assert tail <= 1e-12


@pytest.mark.parametrize(
    "a, truncation",
    [
        (TrigPolynomial({0: 4.0, 1: 1.0}), 16),  # analytic: (log a)_{-k} = 0
        (TrigPolynomial({0: 4.0, 1: 1.0}), 256),
        (TWO_PLUS_COS, 16),
        (TrigPolynomial({0: 3.0, 1: 0.5j, -1: 0.25, -2: 0.1 - 0.2j}), 16),
    ],
)
def test_strong_szego_tail_bound_ignores_rounding_noise(a, truncation):
    # the pairs at k = 2K are rounding noise (1e-30 and below); a geometric
    # rate fitted to noise used to give inf
    assert strong_szego_constant(a, truncation).tail_bound <= 1e-12


def test_strong_szego_tail_bound_resolved_slow_decay():
    # (1 + 0.99z)(1 + 0.99/z): (log a)_{+-k} = (-1)^{k+1} 0.99^k / k, pairs
    # near 1e-10 at k = 512; E[a] = 1 / (1 - 0.9801), of which the
    # truncation at K = 256 leaves out the remainder sum_{k>256} 0.9801^k / k
    a = TrigPolynomial({0: 1.9801, 1: 0.99, -1: 0.99})
    value, tail = strong_szego_constant(a, 256)
    remainder = sum(0.9801**k / k for k in range(257, 5000))
    assert value == pytest.approx(math.exp(-remainder) / (1.0 - 0.9801), rel=1e-12)
    assert 0.0 < tail < math.inf
    assert tail == pytest.approx(remainder, rel=1e-3)


def test_tail_extrapolation_flat_pairs_stay_infinite():
    # resolved pairs (far above the floor) that do not decay leave an
    # unbounded remainder
    flat = np.full(32, 1e-3 + 0j)
    assert _tail_extrapolation(flat, flat, floor=1e-15) == math.inf
    assert _tail_extrapolation(flat, flat, floor=1e-3) == 0.0


def test_symbol_average_examples():
    ident = TestFunction.identity()
    assert symbol_average(TWO_PLUS_COS, ident, 1024) == pytest.approx(2.0, abs=1e-12)
    sq = TestFunction.power(2)
    two_cos = TrigPolynomial({1: 1.0, -1: 1.0})
    assert symbol_average(two_cos, sq, 1024) == pytest.approx(2.0, abs=1e-12)
    assert symbol_average(TWO_PLUS_COS, TestFunction.log(), 1024) == pytest.approx(
        LOG_MEAN_2COS, abs=1e-12
    )


def test_geometric_mean_matches_log_average():
    for a in (TWO_PLUS_COS, EXP_COS, TrigPolynomial({0: 4.0, 1: 1.0, -1: 1.0})):
        avg = symbol_average(a, TestFunction.log(), 1024)
        assert geometric_mean(a, 1024) == pytest.approx(np.exp(avg), abs=1e-10)


def test_log_coefficients_conjugate_symmetry_exact():
    data = log_coefficients(TWO_PLUS_COS, 512, 16)
    for k in range(1, 17):
        assert data[-k] == data[k].conjugate()


def _random_positive_symbol(rng):
    c = rng.uniform(2.0, 5.0)
    coeffs = {0: complex(c)}
    for k in range(1, 4):
        coeffs[k] = complex(rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2))
        coeffs[-k] = coeffs[k].conjugate()
    return TrigPolynomial(coeffs)


def test_geometric_mean_multiplicative():
    rng = np.random.default_rng(23)
    for _ in range(10):
        a = _random_positive_symbol(rng)
        b = _random_positive_symbol(rng)
        ga, gb, gab = geometric_mean(a), geometric_mean(b), geometric_mean(product_symbol(a, b))
        assert gab == pytest.approx(ga * gb, abs=1e-9 * abs(ga * gb))


def test_grid_doubling_stability():
    data1 = log_coefficients(TWO_PLUS_COS, 1024, 8)
    data2 = log_coefficients(TWO_PLUS_COS, 2048, 8)
    for k in range(-8, 9):
        assert abs(data1[k] - data2[k]) < 1e-12


def test_symbol_json_roundtrip():
    obj = {str(k): [c.real, c.imag] for k, c in TWO_PLUS_COS.coeffs.items()}
    assert symbol_from_json(json.loads(json.dumps(obj))) == TWO_PLUS_COS
