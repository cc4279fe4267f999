"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import math
import time
from fractions import Fraction

import numpy as np
from scipy.special import iv

from szegolab.almostperiodic import (
    APFunction,
    distinguished_sequence,
    eval_ap,
    expand_cf,
)
from szegolab.numkernel import lu_logdet, singular_values, solve
from szegolab.operators import (
    BandAPOperator,
    CompositeOperator,
    almost_mathieu,
    as_band_operator,
    band_ap_section,
    toeplitz_section,
)
from szegolab.symbols import TrigPolynomial, geometric_mean
from szegolab.szego import (
    TestFunction,
    cluster_partial_limits,
    det_ratio_sequence,
    det_ratio_via_cramer,
    eigen_mean,
    eigen_sample,
    folner_discrepancy,
    limit_prediction,
    singular_mean,
)

GOLDEN = (math.sqrt(5) - 1) / 2
TWO_PLUS_COS = TrigPolynomial({0: 2.0, 1: 0.5, -1: 0.5})


def report(number, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:2d} {name}: {status} ({detail})")
    return ok


def test_criterion_01_first_szego_ratio():
    target = (2 + math.sqrt(3)) / 2
    sizes = [4, 8, 16, 32, 64, 128]
    start = time.perf_counter()
    rep = det_ratio_sequence(TWO_PLUS_COS, sizes, target)
    elapsed = time.perf_counter() - start
    resid = abs(rep.values[-1] - target)
    ok = resid <= 1e-6 and elapsed < 2.0
    assert report(
        1,
        "first Szego ratio 2+cos t",
        ok,
        f"|r_128 - (2+sqrt3)/2| = {resid:.3e}, sweep {elapsed:.3f}s",
    )


def test_criterion_02_strong_szego_exp_cos():
    # exp(cos t) = sum_k I_|k|(1) e^{ikt}, truncated at |k| <= 24
    a = TrigPolynomial({k: iv(abs(k), 1.0) for k in range(-24, 25)})
    g_err = abs(geometric_mean(a) - 1.0)
    det64 = lu_logdet(toeplitz_section(a, 64)).value
    resid = abs(det64 - math.exp(0.25))
    ok = g_err <= 1e-9 and resid <= 1e-6
    assert report(
        2,
        "strong Szego exp(cos t)",
        ok,
        f"|G-1| = {g_err:.3e}, |det T_64 - e^(1/4)| = {resid:.3e}",
    )


def test_criterion_03_cramer_cross_check():
    band = as_band_operator(TWO_PLUS_COS)
    worst = 0.0
    for n in (8, 32, 128):
        rep = det_ratio_sequence(TWO_PLUS_COS, [n], None)
        beta = det_ratio_via_cramer(band, n)
        worst = max(worst, abs(beta * rep.values[0] - 1.0))
    ok = worst <= 1e-9
    assert report(3, "Cramer cross-check", ok, f"max |beta_n r_n - 1| = {worst:.3e}")


def test_criterion_04_partial_limit_set():
    up = APFunction([(0.0, 0.5), (0.5, 0.5)])
    down = APFunction([(0.0, 0.5), (0.5, -0.5)])
    op = BandAPOperator({0: APFunction.constant(2.0), 1: up, -1: down}, "Z")
    rep = det_ratio_sequence(op, list(range(1, 17)))
    clusters = cluster_partial_limits(rep.values)
    centers = sorted(c.center.real for c in clusters)
    radius = max(c.radius for c in clusters)
    ok = (
        len(clusters) == 2
        and abs(centers[0] - 1.5) <= 1e-12
        and abs(centers[1] - 2.0) <= 1e-12
        and radius <= 1e-12
    )
    assert report(
        4,
        "partial limit set {2, 1.5}",
        ok,
        f"centers {centers}, max radius {radius:.3e}",
    )


def test_criterion_05_mathieu_eigenvalue_distribution():
    op = almost_mathieu(GOLDEN, 1.0, 0.3)
    fib = distinguished_sequence(GOLDEN, 15)
    assert fib.values[-1] == 987
    residuals = []
    for n in fib.values[-4:]:
        sample = eigen_sample(band_ap_section(op, n))
        m2 = eigen_mean(sample, TestFunction.power(2))
        residuals.append((n, abs(m2 - 2.5)))
    final_sample = eigen_sample(band_ap_section(op, 987))
    m2 = eigen_mean(final_sample, TestFunction.power(2))
    mid = eigen_mean(final_sample, TestFunction.identity())
    ok = abs(m2 - 2.5) <= 0.02 and abs(mid) <= 0.02
    decay = ", ".join(f"n={n}: {r:.2e}" for n, r in residuals)
    assert report(
        5,
        "almost Mathieu eigen distribution",
        ok,
        f"|mean(x^2)-2.5| = {abs(m2 - 2.5):.3e}, |mean(x)| = {abs(mid):.3e}; decay {decay}",
    )


def test_criterion_06_two_estimator_consistency():
    op = almost_mathieu(GOLDEN, 1.0, 0.3)
    n = 610
    g3 = TestFunction.power(3)
    sample = eigen_sample(band_ap_section(op, n))
    empirical = eigen_mean(sample, g3)
    predicted = limit_prediction(op, g3, 4 * n)
    diff = abs(empirical - predicted)
    ok = diff <= 0.05
    assert report(
        6,
        "two-estimator consistency g=x^3",
        ok,
        f"|eigen_mean - diagonal prediction| = {diff:.3e} at n={n}",
    )


def test_criterion_07_avram_parter():
    a = TrigPolynomial({0: 1.0, 1: 1.0})
    g4 = TestFunction.power(4)
    details = []
    ok = True
    for n in (64, 256, 1024):
        m4 = singular_mean(singular_values(toeplitz_section(a, n)), g4)
        err = abs(m4 - 6.0)
        ok = ok and err <= 12.0 / n
        details.append(f"n={n}: {err:.2e} <= {12.0 / n:.2e}")
    assert report(7, "Avram-Parter 1+z, g=x^4", ok, "; ".join(details))


def test_criterion_08_folner_discrepancy():
    z = TrigPolynomial({1: 1.0})
    zinv = TrigPolynomial({-1: 1.0})
    e = CompositeOperator.of(as_band_operator(zinv), as_band_operator(z))
    details = []
    ok = True
    for n in (8, 64, 256):
        d = folner_discrepancy(e, n)
        err = abs(d - 1.0 / n)
        ok = ok and err <= 1e-12
        details.append(f"n={n}: |d - 1/n| = {err:.1e}")
    assert report(8, "Folner discrepancy 1/n", ok, "; ".join(details))


def test_criterion_09_continued_fraction_bounds():
    cf = expand_cf(GOLDEN, 16)
    fib = (1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610, 987)
    denominators_ok = cf.denominators()[:15] == fib
    exact = Fraction(GOLDEN)
    bounds_ok = True
    for i in range(len(cf.convergents) - 1):
        p, q = cf.convergents[i]
        q_next = cf.convergents[i + 1][1]
        if abs(exact * q - p) >= Fraction(1, q_next):
            bounds_ok = False
    ok = denominators_ok and bounds_ok
    assert report(
        9,
        "continued fraction denominators",
        ok,
        f"Fibonacci through 987: {denominators_ok}, bounds: {bounds_ok}",
    )


def test_criterion_10_randomized_property_suites():
    rng = np.random.default_rng(2026)
    failures = []

    # inverse-corner reflection identity on random positive symbols (50)
    for _ in range(50):
        coeffs = {0: complex(rng.uniform(2.5, 5.0))}
        for k in range(1, 3):
            c = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
            coeffs[k], coeffs[-k] = c, c.conjugate()
        a = TrigPolynomial(coeffs)
        n = int(rng.integers(4, 48))
        e0 = np.zeros(n, dtype=complex)
        e0[0] = 1.0
        x = solve(toeplitz_section(a, n), e0)
        y = solve(toeplitz_section(TrigPolynomial({-k: c for k, c in coeffs.items()}), n), e0)
        if abs(x[0] - y[0]) > 1e-10:
            failures.append("corner-reflection")

    # flip symmetry of theta=0 almost Mathieu sections (50)
    for _ in range(50):
        op = almost_mathieu(float(rng.uniform(0.05, 0.95)), float(rng.uniform(0.1, 3.0)), 0.0)
        n = int(rng.integers(2, 24))
        # the section over -n..n-1, entry (i, j) = diagonal[i - j](j)
        idx = np.arange(-n, n)
        rows, cols = np.meshgrid(idx, idx, indexing="ij")
        s = np.zeros(rows.shape, dtype=complex)
        for d, f in op.diagonals.items():
            on = rows - cols == d
            s[on] = eval_ap(f, cols[on])
        sub = s[1:, 1:]
        if not np.array_equal(sub, sub[::-1, ::-1]):
            failures.append("flip-symmetry")

    # Hermitian eigenvalue hull containment (50)
    for _ in range(50):
        lam = float(rng.uniform(0.1, 3.0))
        op = almost_mathieu(float(rng.uniform(0.05, 0.95)), lam, float(rng.uniform(0, 1)))
        n = int(rng.integers(3, 40))
        vals = eigen_sample(band_ap_section(op, n))
        if np.any(vals < -2 - lam - 1e-9) or np.any(vals > 2 + lam + 1e-9):
            failures.append("hull")

    # determinant log product law (50)
    for _ in range(50):
        n = int(rng.integers(2, 11))
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        la, lb, lab = lu_logdet(a), lu_logdet(b), lu_logdet(a @ b)
        if abs(lab.log_abs - la.log_abs - lb.log_abs) > 1e-9 or abs(
            lab.phase - la.phase * lb.phase
        ) > 1e-9:
            failures.append("product-law")

    ok = not failures
    assert report(
        10,
        "randomized property suites (200 instances)",
        ok,
        "all clean" if ok else f"failures: {sorted(set(failures))}",
    )
