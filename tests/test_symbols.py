"""Symbol analysis checks: circle samples, log branches, G[a] and E[a]."""

import json
import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import iv

from szegolab.cli import _parse_symbol
from szegolab.symbols import (
    BranchError,
    TrigPolynomial,
    ZeroProximityError,
    _coefficient_arrays,
    _log_samples,
    _sample_log,
    _tail_extrapolation,
    geometric_mean,
    sample_circle,
    strong_szego_constant,
    symbol_average,
)
from szegolab.szego import TestFunction

TWO_PLUS_COS = TrigPolynomial({0: 2.0, 1: 0.5, -1: 0.5})
# exp(cos t) = sum_k I_|k|(1) e^{ikt}, truncated at |k| <= 24
EXP_COS = TrigPolynomial({k: iv(abs(k), 1.0) for k in range(-24, 25)})


def fourier_symbol(fn, max_offset):
    """The Fourier coefficients of fn(t), |k| <= max_offset, from 1024 grid points."""
    c = np.fft.fft(fn(2.0 * np.pi * np.arange(1024) / 1024)) / 1024
    return TrigPolynomial({k: c[k] for k in range(-max_offset, max_offset + 1)})


def direct_sum(a, t):
    """sum_k a_k e^{ikt}, term by term at the angles t."""
    return sum(c * np.exp(1j * k * t) for k, c in a.coeffs.items())


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


@pytest.mark.parametrize("n", [4, 5, 8, 32, 33, 64, 1024, 8192])
@pytest.mark.parametrize("name", sorted(SAMPLED_SYMBOLS))
def test_sample_circle_matches_direct_sum(name, n):
    # grids at or below twice the bandwidth (n = 4..33 here) fold offsets
    # into the same bin; the direct sum is the oracle
    a = SAMPLED_SYMBOLS[name]
    samples = sample_circle(a, n)
    direct = direct_sum(a, 2.0 * np.pi * np.arange(n) / n)
    scale = sum(abs(c) for c in a.coeffs.values())
    assert samples.shape == (n,) and samples.dtype == np.complex128
    assert np.max(np.abs(samples - direct)) <= 1e-13 * scale
    if a.is_real_valued:
        assert np.all(samples.imag == 0.0)


def test_winding_number_examples():
    # sampling log a computes the winding number and names a nonzero one;
    # z^-2 is sampled as b(z^2) with b = 1/z, and the error names a's -2
    for a, winding in ((TrigPolynomial({1: 1.0}), 1), (TrigPolynomial({-2: 1.0}), -2)):
        with pytest.raises(BranchError, match=f"winding number {winding}$"):
            geometric_mean(a)
    geometric_mean(TWO_PLUS_COS)  # winding number 0: no BranchError


def test_winding_zero_proximity():
    # |1 + e^{it}| vanishes at t = pi, which the even grid hits exactly
    with pytest.raises(ZeroProximityError):
        geometric_mean(TrigPolynomial({0: 1.0, 1: 1.0}))
    # 1 + 2 cos t changes sign between grid points: two phase steps of +-pi
    with pytest.raises(ZeroProximityError, match="between grid points"):
        geometric_mean(TrigPolynomial({0: 1.0, 1: 1.0, -1: 1.0}))


def test_log_coefficients_exp_cos():
    # log exp(cos t) = cos t: (log a)_{+-1} = 1/2 and every other one is 0
    log = _sample_log(EXP_COS)
    assert log.positive[0] == pytest.approx(0.5, abs=1e-12)
    assert log.negative[0] == pytest.approx(0.5, abs=1e-12)
    assert abs(log.c0) <= 1e-12
    assert np.max(np.abs(log.positive[1:])) <= 1e-12
    assert np.max(np.abs(log.negative[1:])) <= 1e-12


def test_log_coefficients_constant():
    log = _sample_log(TrigPolynomial({0: 3.0}))
    assert log.c0 == pytest.approx(math.log(3.0), abs=1e-14)
    assert np.max(np.abs(log.positive)) <= 1e-14
    assert np.max(np.abs(log.negative)) <= 1e-14


def test_log_coefficients_quadrature_oracle():
    oracle = quad(lambda t: math.log(2 + math.cos(t)), 0, 2 * math.pi)[0] / (2 * math.pi)
    assert oracle == pytest.approx(LOG_MEAN_2COS, abs=1e-9)
    assert _sample_log(TWO_PLUS_COS).c0 == pytest.approx(LOG_MEAN_2COS, abs=1e-12)


def test_log_coefficients_branch_error():
    with pytest.raises(BranchError):
        geometric_mean(TrigPolynomial({1: 1.0}))
    with pytest.raises(BranchError):
        strong_szego_constant(TrigPolynomial({1: 1.0}))


def test_geometric_mean_examples():
    assert geometric_mean(EXP_COS) == pytest.approx(1.0, abs=1e-12)
    assert geometric_mean(TrigPolynomial({0: 3.0})) == pytest.approx(3.0)
    assert geometric_mean(TWO_PLUS_COS) == pytest.approx((2 + math.sqrt(3)) / 2, abs=1e-12)


def test_strong_szego_constant_examples():
    value, tail = strong_szego_constant(EXP_COS)
    assert value == pytest.approx(math.exp(0.25), abs=1e-12)
    assert tail <= 1e-12
    value_c, _ = strong_szego_constant(TrigPolynomial({0: 5.0}))
    assert value_c == pytest.approx(1.0, abs=1e-12)
    double = fourier_symbol(lambda t: np.exp(np.cos(t) + np.cos(2 * t)), 32)
    value_d, _ = strong_szego_constant(double)
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
    value, tail = strong_szego_constant(a)
    assert abs(value - e_exact) <= 1e-13
    assert tail <= 1e-12


@pytest.mark.parametrize(
    "a, stretch",
    [
        (TrigPolynomial({0: 4.0, 1: 1.0}), 16),  # analytic: (log a)_{-k} = 0
        (TrigPolynomial({0: 4.0, 1: 1.0}), 256),
        (TWO_PLUS_COS, 16),
        (TrigPolynomial({0: 3.0, 1: 0.5j, -1: 0.25, -2: 0.1 - 0.2j}), 16),
    ],
)
def test_strong_szego_tail_bound_ignores_rounding_noise(a, stretch):
    # b(z) = a(z^m) has (log b)_{mk} = (log a)_k and no other coefficients,
    # so G[b] = G[a] and E[b] = E[a]^m.  The pairs past N/8 are rounding
    # noise (1e-30 and below), which the tail bound must not read as an
    # unresolved remainder.
    b = TrigPolynomial({stretch * k: c for k, c in a.coeffs.items()})
    for symbol in (a, b):
        assert strong_szego_constant(symbol).tail_bound <= 1e-12
    assert abs(geometric_mean(b) - geometric_mean(a)) <= 1e-13 * abs(geometric_mean(a))
    e_a, e_b = strong_szego_constant(a).value, strong_szego_constant(b).value
    assert abs(e_b - e_a**stretch) <= 1e-13 * abs(e_a**stretch)


def test_strong_szego_tail_bound_resolved_slow_decay():
    # (1 + 0.99z)(1 + 0.99/z): (log a)_{+-k} = (-1)^{k+1} 0.99^k / k, pairs
    # near 1e-10 at k = 512; the grid doubles to 32768 points, where the
    # series is summed to k = 4096 and E[a] = 1 / (1 - 0.9801) is resolved
    a = TrigPolynomial({0: 1.9801, 1: 0.99, -1: 0.99})
    value, tail = strong_szego_constant(a)
    assert value == pytest.approx(1.0 / (1.0 - 0.9801), rel=1e-12)
    assert tail <= 1e-12


@pytest.mark.parametrize("r", [0.9, 0.97, 0.99])
def test_near_zero_symbol_constants(r):
    # a = (1 + rz)(1 + r/z) comes within (1 - r)^2 of zero: (log a)_{+-k} =
    # (-1)^{k+1} r^k / k decay slowly, G[a] = 1 and E[a] = 1 / (1 - r^2)
    a = TrigPolynomial({0: 1.0 + r * r, 1: r, -1: r})
    assert abs(geometric_mean(a) - 1.0) <= 1e-13
    value, tail = strong_szego_constant(a)
    assert abs(value * (1.0 - r * r) - 1.0) <= 1e-12
    assert tail <= 1e-12


def test_strong_szego_capped_grid_extrapolates_tail():
    # r = 0.999 would need a grid of 2^18 points, four times past the cap
    # of 64 times the default grid: the series stops at k = 8192 and the
    # tail bound adds the extrapolated remainder, which covers the error
    r = 0.999
    a = TrigPolynomial({0: 1.0 + r * r, 1: r, -1: r})
    value, tail = strong_szego_constant(a)
    assert 0.0 < tail < math.inf
    assert abs(value * (1.0 - r * r) - 1.0) <= tail


def test_common_offset_factor_samples_reduced_symbol():
    # a(z) = b(z^m) for b = 2 + cos t = c (1 + rz)(1 + r/z), r = 2 - sqrt 3:
    # log a is sampled as log b on b's own grid, G[a] = G[b] and
    # log E[a] = m log E[b] = m log(1 / (1 - r^2))
    m = 4096
    a = TrigPolynomial({0: 2.0, m: 0.5, -m: 0.5})
    log = _sample_log(a)
    assert (log.stride, 4 * len(log.positive)) == (m, 1024)
    assert abs(geometric_mean(a) - (2 + math.sqrt(3)) / 2) <= 1e-15
    r = 2 - math.sqrt(3)
    value, tail = strong_szego_constant(a)
    expected = m * math.log(1.0 / (1.0 - r * r))
    assert abs(math.log(abs(value)) - expected) <= 1e-14 * expected
    assert abs(value.imag) <= 1e-14 * abs(value) and tail <= 1e-12


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
        assert geometric_mean(a) == pytest.approx(np.exp(avg), abs=1e-10)


def test_log_coefficients_conjugate_symmetry_exact():
    log = _sample_log(TWO_PLUS_COS)
    assert np.array_equal(log.negative, log.positive.conj())


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
    # the grid _sample_log chooses agrees with twice as many points
    log = _sample_log(TWO_PLUS_COS)
    grid = 4 * len(log.positive)
    c0, positive, negative = _coefficient_arrays(_log_samples(TWO_PLUS_COS, 2 * grid, 1))
    assert abs(log.c0 - c0) < 1e-12
    assert np.max(np.abs(log.positive[:8] - positive[:8])) < 1e-12
    assert np.max(np.abs(log.negative[:8] - negative[:8])) < 1e-12


def test_symbol_json_roundtrip():
    obj = {str(k): [c.real, c.imag] for k, c in TWO_PLUS_COS.coeffs.items()}
    assert _parse_symbol(json.loads(json.dumps(obj))) == TWO_PLUS_COS
