"""Almost periodic sequences, continued fractions, distinguished sequences."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from szegolab.almostperiodic import (
    APFunction,
    ap_from_json,
    check_approximation_bounds,
    distinguished_sequence,
    empirical_mean,
    eval_ap,
    expand_cf,
    mean_value,
    shift_defect,
)

GOLDEN = (math.sqrt(5) - 1) / 2


def test_expand_cf_rational():
    cf = expand_cf(2 / 5, 10)
    assert cf.quotients == (2, 2)
    assert cf.convergents == ((1, 2), (2, 5))
    assert cf.terminated == "rational"


@pytest.mark.parametrize(
    "p, q, quotients",
    [
        (3, 8, (2, 1, 2)),
        (5, 16, (3, 5)),
        (3, 10, (3, 3)),
        (5, 11, (2, 5)),
        (7, 12, (1, 1, 2, 2)),
        (5, 13, (2, 1, 1, 2)),
    ],
)
def test_expand_cf_exact_rationals(p, q, quotients):
    # float noise leaves 1/x just off the last quotient; the convergent decides
    cf = expand_cf(p / q)
    assert cf.quotients == quotients
    assert cf.convergents[-1] == (p, q)
    assert cf.terminated == "rational"


def test_expand_cf_quadratic_irrationals_at_default_cap():
    golden = expand_cf(GOLDEN)
    assert golden.quotients == (1,) * 29 and golden.terminated == "q-cap"
    pell = expand_cf(math.sqrt(2) - 1)
    assert pell.quotients == (2,) * 15 and pell.terminated == "q-cap"


def test_expand_cf_golden_fibonacci():
    cf = expand_cf(GOLDEN, 16)
    assert cf.quotients[:10] == (1,) * 10
    assert cf.denominators()[:8] == (1, 2, 3, 5, 8, 13, 21, 34)


def test_expand_cf_pell():
    cf = expand_cf(math.sqrt(2) - 1, 8)
    assert cf.quotients[:4] == (2, 2, 2, 2)
    assert cf.denominators()[:4] == (2, 5, 12, 29)


def test_expand_cf_q_cap():
    cf = expand_cf(GOLDEN, 64, q_cap=100)
    assert cf.terminated == "q-cap"
    assert all(q <= 100 for q in cf.denominators())


def test_expand_cf_rejects_out_of_range():
    with pytest.raises(ValueError):
        expand_cf(1.5, 4)
    with pytest.raises(ValueError):
        expand_cf(0.0, 4)


def test_convergents_coprime_and_increasing():
    for alpha in (GOLDEN, math.sqrt(2) - 1, math.pi - 3, 0.3721):
        cf = expand_cf(alpha, 14)
        qs = cf.denominators()
        assert all(b > a for a, b in zip(qs[1:], qs[2:]))
        for p, q in cf.convergents:
            assert math.gcd(p, q) == 1
        # recursion in exact integers, seeded by p_0=0, p_1=1, q_0=1, q_1=b_1
        ps = [0] + [p for p, _ in cf.convergents]
        qs_full = [1] + list(qs)
        for i in range(2, len(ps)):
            b = cf.quotients[i - 1]
            assert ps[i] == b * ps[i - 1] + ps[i - 2]
            assert qs_full[i] == b * qs_full[i - 1] + qs_full[i - 2]


def test_approximation_bound_exact_arithmetic():
    for alpha in (GOLDEN, math.sqrt(2) - 1, math.pi - 3):
        cf = expand_cf(alpha, 14)
        assert check_approximation_bounds(cf)


def test_distinguished_rational():
    seq = distinguished_sequence(Fraction(2, 5), 4)
    assert seq.values == (5, 10, 15, 20)
    assert seq.source == "rational-period"
    seq2 = distinguished_sequence((2, 5), 3)
    assert seq2.values == (5, 10, 15)


def test_distinguished_golden_and_pell():
    seq = distinguished_sequence(GOLDEN, 6)
    assert seq.values == (1, 2, 3, 5, 8, 13)
    assert seq.source == "cf-denominators"
    seq2 = distinguished_sequence(math.sqrt(2) - 1, 4)
    assert seq2.values == (2, 5, 12, 29)


def test_distinguished_strictly_increasing():
    for alpha, length in ((GOLDEN, 12), (math.sqrt(2) - 1, 8), (0.3721, 6)):
        seq = distinguished_sequence(alpha, length)
        assert len(seq.values) == length
        assert all(b > a for a, b in zip(seq.values, seq.values[1:]))


def test_distinguished_requires_enough_denominators():
    # a float that resolves to a small rational terminates the expansion early
    with pytest.raises(ValueError):
        distinguished_sequence(0.5, 10)


def test_eval_ap_examples():
    a = APFunction.exponential(0.25)
    assert eval_ap(a, 1) == pytest.approx(1j)
    c = APFunction.cosine(1.0, GOLDEN)
    assert eval_ap(c, 0) == pytest.approx(1.0)
    k = APFunction.constant(2.5 - 1j)
    assert eval_ap(k, 7) == pytest.approx(2.5 - 1j)


def test_eval_ap_real_valued_exact():
    a = APFunction.cosine(1.7, GOLDEN, 0.3)
    vals = eval_ap(a, np.arange(50))
    assert np.all(vals.imag == 0.0)
    expected = 1.7 * np.cos(2 * np.pi * (np.arange(50) * GOLDEN + 0.3))
    assert np.allclose(vals.real, expected, atol=1e-14)


def test_mean_value_examples():
    assert mean_value(APFunction.constant(3 + 1j)) == pytest.approx(3 + 1j)
    assert mean_value(APFunction.exponential(GOLDEN)) == 0
    a = APFunction.cosine(2.0, GOLDEN, 0.1)
    assert mean_value(a) == 0
    assert abs(empirical_mean(a, 10000)) <= 1e-3


def test_empirical_mean_bound():
    a = APFunction([(GOLDEN, 1.5), (0.3333333333, -0.5 + 0.25j), (0.0, 2.0)])
    bound_scale = sum(
        2 * abs(c) / abs(1 - np.exp(2j * np.pi * f))
        for f, c in a.terms
        if f != 0.0
    )
    for n in (100, 1000, 10000):
        err = abs(empirical_mean(a, n) - mean_value(a))
        assert err <= bound_scale / n


def test_shift_defect_examples():
    a = APFunction.exponential(0.25)
    assert shift_defect(a, 4) <= 1e-12
    periodic = APFunction([(0.0, 1.0), (1 / 4, 0.5), (3 / 4, 0.5)])
    assert shift_defect(periodic, 4) <= 1e-12
    single = APFunction.exponential(GOLDEN)
    fib = distinguished_sequence(GOLDEN, 15).values
    defects = [shift_defect(single, h) for h in fib]
    assert all(b <= a for a, b in zip(defects, defects[1:]))
    assert defects[-1] < 1e-2


def test_apfunction_dedup_and_mod_reduction():
    a = APFunction([(0.25, 1.0), (1.25, 2.0), (0.25 + 1e-14, 1.0)])
    assert len(a.terms) == 1
    assert a.terms[0][1] == pytest.approx(4.0)
    b = APFunction([(-0.25, 1.0)])
    assert b.terms[0][0] == pytest.approx(0.75)


@pytest.mark.parametrize(
    "c", [0, 0.0, -0.0, complex(-0.0, -0.0), complex(0.0, -0.0), 2.5, -1e-300, 5e-324, 1 + 2j, -3j]
)
def test_apfunction_constant_matches_general_constructor(c):
    fast, general = APFunction.constant(c), APFunction([(0.0, c)])
    # repr tells the signs of zeros apart
    assert repr(fast.terms) == repr(general.terms)
    assert repr(fast._real_form) == repr(general._real_form)
    for bad in (math.nan, complex(1.0, math.inf)):
        with pytest.raises(ValueError, match="must be finite"):
            APFunction.constant(bad)


def test_apfunction_real_detection():
    assert APFunction.cosine(1.0, 0.3, 0.2).is_real_valued
    assert APFunction([(0.0, 2.0), (0.5, 0.5)]).is_real_valued
    assert not APFunction([(0.3, 1.0)]).is_real_valued
    assert not APFunction([(0.5, 1j)]).is_real_valued


def test_apfunction_arithmetic():
    a = APFunction.cosine(1.0, 0.3) + APFunction.constant(2.0)
    assert mean_value(a) == pytest.approx(2.0)
    b = a * 2.0
    assert mean_value(b) == pytest.approx(4.0)
    assert b.sup_bound == pytest.approx(2 * a.sup_bound)


def test_ap_json_roundtrip():
    a = APFunction([(0.3, 1 - 2j), (0.0, 4.0)])
    obj = [{"freq": f, "re": c.real, "im": c.imag} for f, c in a.terms]
    assert ap_from_json(json.loads(json.dumps(obj))) == a
