"""Symbol analysis checks: evaluation, log branches, G[a] and E[a]."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from szegolab.symbols import (
    BranchError,
    TrigPolynomial,
    ZeroProximityError,
    evaluate,
    geometric_mean,
    log_coefficients,
    strong_szego_constant,
    symbol_average,
    symbol_from_json,
    symbol_to_json,
)
from szegolab.szego import TestFunction

TWO_PLUS_COS = TrigPolynomial({0: 2.0, 1: 0.5, -1: 0.5})
EXP_COS = TrigPolynomial.from_function(lambda t: np.exp(np.cos(t)), 24)

# (1/2pi) int log(2+cos t) dt has the closed form log((2+sqrt 3)/2)
LOG_MEAN_2COS = math.log((2 + math.sqrt(3)) / 2)


def test_evaluate_examples():
    a = TrigPolynomial({1: 1.0, -1: 1.0})
    assert evaluate(a, 0.0) == pytest.approx(2.0)
    assert abs(evaluate(a, math.pi / 2)) <= 1e-15
    assert evaluate(TrigPolynomial.constant(3.0), 1.234) == pytest.approx(3.0)


def test_evaluate_real_symbol_exactly_real():
    samples = evaluate(TWO_PLUS_COS, np.linspace(0, 6, 100))
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


def test_log_coefficients_exp_cos():
    data = log_coefficients(EXP_COS, 1024, 4)
    assert data.coefficient(1) == pytest.approx(0.5, abs=1e-12)
    assert data.coefficient(-1) == pytest.approx(0.5, abs=1e-12)
    assert abs(data.coefficient(0)) <= 1e-12
    assert abs(data.coefficient(2)) <= 1e-12


def test_log_coefficients_constant():
    data = log_coefficients(TrigPolynomial.constant(3.0), 1024, 2)
    assert data.coefficient(0) == pytest.approx(math.log(3.0), abs=1e-14)
    assert abs(data.coefficient(1)) <= 1e-14


def test_log_coefficients_quadrature_oracle():
    oracle = quad(lambda t: math.log(2 + math.cos(t)), 0, 2 * math.pi)[0] / (2 * math.pi)
    assert oracle == pytest.approx(LOG_MEAN_2COS, abs=1e-9)
    data = log_coefficients(TWO_PLUS_COS, 1024, 0)
    assert data.coefficient(0) == pytest.approx(LOG_MEAN_2COS, abs=1e-12)


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
    assert geometric_mean(TrigPolynomial.constant(3.0)) == pytest.approx(3.0)
    assert geometric_mean(TWO_PLUS_COS) == pytest.approx((2 + math.sqrt(3)) / 2, abs=1e-12)


def test_strong_szego_constant_examples():
    value, tail = strong_szego_constant(EXP_COS, 16)
    assert value == pytest.approx(math.exp(0.25), abs=1e-12)
    assert tail <= 1e-12
    value_c, _ = strong_szego_constant(TrigPolynomial.constant(5.0), 8)
    assert value_c == pytest.approx(1.0, abs=1e-12)
    double = TrigPolynomial.from_function(
        lambda t: np.exp(np.cos(t) + np.cos(2 * t)), 32
    )
    value_d, _ = strong_szego_constant(double, 16)
    assert value_d == pytest.approx(math.exp(0.75), abs=1e-10)


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
        assert data.coefficient(-k) == data.coefficient(k).conjugate()


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
        ga, gb, gab = geometric_mean(a), geometric_mean(b), geometric_mean(a * b)
        assert gab == pytest.approx(ga * gb, abs=1e-9 * abs(ga * gb))


def test_grid_doubling_stability():
    data1 = log_coefficients(TWO_PLUS_COS, 1024, 8)
    data2 = log_coefficients(TWO_PLUS_COS, 2048, 8)
    for k in range(-8, 9):
        assert abs(data1.coefficient(k) - data2.coefficient(k)) < 1e-12


def test_from_function_known_coefficients():
    a = TrigPolynomial.from_function(lambda t: 2.0 + np.cos(t), 4)
    assert a.coefficient(0) == pytest.approx(2.0, abs=1e-13)
    assert a.coefficient(1) == pytest.approx(0.5, abs=1e-13)
    assert abs(a.coefficient(2)) <= 1e-13
    assert a.is_real_valued


def test_symbol_arithmetic():
    z = TrigPolynomial({1: 1.0})
    zinv = TrigPolynomial({-1: 1.0})
    prod = z * zinv
    assert prod.coefficient(0) == pytest.approx(1.0)
    s = z + zinv + 2.0
    assert s.coefficient(0) == pytest.approx(2.0)
    assert s.reversed().coefficient(-1) == pytest.approx(1.0)


def test_symbol_json_roundtrip():
    obj = symbol_to_json(TWO_PLUS_COS)
    back = symbol_from_json(obj)
    assert back == TWO_PLUS_COS
