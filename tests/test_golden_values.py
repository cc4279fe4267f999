"""The golden artifacts against values computed independently from their
configs: closed forms, exact fractions and mpmath at 30 digits or more.
`test_cli.test_golden_artifacts` checks that a run writes the golden bytes;
this checks that those bytes are right, each within a stated multiple of
the rounding unit times the scale of its quantity.  The limit constant,
which no golden config writes, is checked here against mpmath too."""

import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

from szegolab.almostperiodic import APFunction
from szegolab.operators import BandAPOperator, almost_mathieu
from szegolab.szego import cluster_partial_limits, g_limit_constant

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN_CONFIGS = json.loads((GOLDEN_DIR / "configs.json").read_text(encoding="utf-8"))

EPS = sys.float_info.epsilon

# A written value may differ from the exact one by ULPS * EPS * scale, with
# scale the norm bound of its quantity: ||A||^deg g for a trace mean, ||A||
# for a singular value.  Assembly rounds each entry, and a trace of powers
# and an eigenvalue solver each add a few rounding units of the scale.
ULPS = 8


def _rows(name):
    lines = (GOLDEN_DIR / f"{name}.csv").read_text(encoding="ascii").splitlines()[1:]
    out = []
    for line in lines:
        n, er, ei, pr, pi, res, flags = line.split(",")
        out.append((int(n), complex(float(er), float(ei)), complex(float(pr), float(pi)), float(res), flags))
    return out


def _summary(name):
    return json.loads((GOLDEN_DIR / f"{name}.json").read_text(encoding="ascii"))


def _close(written, exact, scale):
    return abs(complex(written) - complex(exact)) <= ULPS * EPS * scale


def _check_table(name, exact_values, predicted, scale):
    """Rows: the exact value, zero imaginary part, the predicted value, and
    the residual |value - predicted| (within the same bound); the summary's
    final residual is the last row's."""
    rows = _rows(name)
    assert [r[0] for r in rows] == list(exact_values)
    for n, value, pred, residual, _ in rows:
        assert value.imag == 0.0, (name, n)
        assert _close(value, exact_values[n], scale), (name, n, value, exact_values[n])
        assert _close(pred, predicted, scale), (name, n, pred, predicted)
        assert _close(residual, abs(exact_values[n] - predicted), scale), (name, n, residual)
    summary = _summary(name)
    assert summary["final_residual"] == rows[-1][3]
    assert _close(complex(*summary["predicted"]), predicted, scale)
    assert summary["verdict"] == "pass"


def test_eigen_dist_toeplitz_is_the_closed_form():
    # x^2 over z + 1/z: (1/n) tr A_n^2 = 2(n - 1)/n, exact in binary at these n
    cfg = GOLDEN_CONFIGS["eigen-dist-toeplitz"]
    exact = {n: Fraction(2 * (n - 1), n) for n in cfg["n_range"]}
    _check_table("eigen-dist-toeplitz", exact, 2.0, scale=4.0)
    assert {n: Fraction(r[1].real) for n, r in zip(exact, _rows("eigen-dist-toeplitz"))} == exact


def test_singular_dist_is_the_exact_fraction():
    # x^4 over T_n(1 + z): (1/n) tr (T_n^H T_n)^2 = (6n - 5)/n: 13/3, 43/8, 187/32
    cfg = GOLDEN_CONFIGS["singular-dist"]
    exact = {n: Fraction(6 * n - 5, n) for n in cfg["n_range"]}
    assert list(exact.values()) == [Fraction(13, 3), Fraction(43, 8), Fraction(187, 32)]
    _check_table("singular-dist", exact, 6.0, scale=16.0)
    assert Fraction(_rows("singular-dist")[-1][1].real) == Fraction(187, 32)


def _mathieu_diagonal(cfg, j):
    alpha, lam, theta = (mpmath.mpf(cfg[k]) for k in ("alpha", "lambda", "theta"))
    return lam * mpmath.cos(2 * mpmath.pi * (j * alpha + theta))


@pytest.mark.parametrize("name", ["mathieu-dist", "eigen-dist-almost-mathieu"])
def test_mathieu_x2_is_the_trace(name):
    # (1/n) tr A_n^2 = (2(n - 1) + sum_j d_j^2)/n; the prediction is the mean
    # of the diagonal 2 + d_j^2 of A^2 over the central window of m = 4 * 21
    cfg = GOLDEN_CONFIGS[name]
    params = cfg if name == "mathieu-dist" else cfg["operator"]
    sizes = [r[0] for r in _rows(name)]
    assert sizes == [1, 2, 3, 5, 8, 13, 21]  # Fibonacci denominators of the golden alpha
    m = 4 * sizes[-1]
    window = range((m - m // 2) // 2, (m - m // 2) // 2 + m // 2)
    with mpmath.workdps(30):
        square = {j: _mathieu_diagonal(params, j) ** 2 for j in range(m)}
        exact = {n: complex((2 * (n - 1) + mpmath.fsum(square[j] for j in range(n))) / n) for n in sizes}
        predicted = complex(2 + mpmath.fsum(square[j] for j in window) / len(window))
    scale = (2 + params["lambda"]) ** 2
    _check_table(name, exact, predicted, scale)


def test_stability_rows_margin_and_norm_scale_are_mpmath_svd():
    cfg = GOLDEN_CONFIGS["stability"]
    params = dict(cfg["operator"], theta=0.0)

    def singular_values(n, flip):
        mat = mpmath.zeros(n, n)
        for j in range(n):
            mat[j, j] = _mathieu_diagonal(params, -1 - j if flip else j)
            if j + 1 < n:
                mat[j + 1, j] = mat[j, j + 1] = 1
        return [abs(s) for s in mpmath.svd_c(mat, compute_uv=False)]

    rows = _rows("stability")
    norm_scale, mins = 0.0, []
    with mpmath.workdps(30):
        for n, value, _, _, flag in rows:
            section, flip = singular_values(n, False), singular_values(n, True)
            norm_scale = max(norm_scale, float(max(section)), float(max(flip)))
            mins.append((n, float(min(section)), float(min(flip)), value, flag))
    scale = 2 + params["lambda"]
    margin = 1e-6 * norm_scale
    summary = _summary("stability")
    assert _close(summary["norm_scale"], norm_scale, scale)
    assert _close(summary["margin"], margin, 1e-6 * scale)
    for (n, section, flip, value, flag), row in zip(mins, rows):
        assert value.imag == 0.0
        assert _close(value, min(section, flip), scale), (n, value, min(section, flip))
        assert flag == ("section" if section <= flip else "flip"), n
        assert _close(row[2], margin, 1e-6 * scale) and row[3] == 0.0  # every row above the margin
    assert min(min(s, f) for _, s, f, _, _ in mins) >= margin
    assert summary["verdict"] == "stability-consistent"
    assert summary["final_residual"] == 0.0 and summary["predicted"] == [summary["margin"], 0.0]


def test_eigen_dist_band_ap_is_the_mpmath_spectrum():
    # exp over the real symmetric tridiagonal sections with main diagonal
    # 1 + 0.25 e^{2 pi i 0.3 j} + 0.25 e^{2 pi i 0.7 j} = 1 + 0.5 cos(2 pi 0.3 j)
    # (the conjugate pair is read at the frequency 0.3) and off-diagonals 1:
    # each row is the mean of exp over the eigenvalues, and the prediction
    # the mean of diag exp(A_m) = sum_k exp(lambda_k) |v_jk|^2 over the
    # central window.  The only golden that runs both dense spectral routes.
    cfg = GOLDEN_CONFIGS["eigen-dist-band-ap"]
    diagonals = cfg["operator"]["diagonals"]
    assert [t["freq"] for t in diagonals["0"]] == [0.0, 0.3, 0.7] and cfg["g"]["name"] == "exp"
    m, window = cfg["prediction"]["m"], cfg["prediction"]["window"]
    rows = _rows("eigen-dist-band-ap")

    def spectrum(n):
        mat = mpmath.zeros(n, n)
        for j in range(n):
            mat[j, j] = 1 + mpmath.cos(2 * mpmath.pi * mpmath.mpf(0.3) * j) / 2
            if j + 1 < n:
                mat[j + 1, j] = mat[j, j + 1] = 1
        return mpmath.eigsy(mat)

    with mpmath.workdps(30):
        for n, value, _, _, _ in rows:
            exact = mpmath.fsum(mpmath.exp(x) for x in spectrum(n)[0]) / n
            assert value.imag == 0.0 and _close(value, exact, abs(exact)), (n, value, exact)
        values, vectors = spectrum(m)
        start = (m - window) // 2
        predicted = mpmath.fsum(
            mpmath.exp(values[k]) * vectors[j, k] ** 2 for j in range(start, start + window) for k in range(m)
        ) / window
    for _, _, pred, _, _ in rows:
        assert pred.imag == 0.0 and _close(pred, predicted, abs(predicted)), (pred, predicted)
    summary = _summary("eigen-dist-band-ap")
    assert _close(complex(*summary["predicted"]), predicted, abs(predicted))
    assert summary["final_residual"] == rows[-1][3] and summary["verdict"] == "pass"


# ---------------------------------------------------------------------------
# determinant kinds: szego-ratio and strong-szego

DETERMINANT_GOLDENS = sorted(
    name for name, cfg in GOLDEN_CONFIGS.items() if cfg["experiment"] in ("szego-ratio", "strong-szego")
)


def _symbol(cfg):
    return {int(k): complex(*v) for k, v in cfg["symbol"].items()}


def _mp_pivots(coeffs, n):
    """Pivots of the elimination without row swaps of T_n(a) in mpmath:
    pivot k is det T_{k+1} / det T_k exactly, up to the working precision,
    as long as no leading minor vanishes.  One O(n w^2) pass gives every
    leading minor, where `test_szego._mp_det` takes O(n^3) per size."""
    p, q = max(0, max(coeffs)), max(0, -min(coeffs))
    rows = [[mpmath.mpc(coeffs.get(i - j, 0)) for j in range(n)] for i in range(n)]
    pivots = []
    for k in range(n):
        pivots.append(rows[k][k])
        for i in range(k + 1, min(n, k + p + 1)):
            factor = rows[i][k] / rows[k][k]
            for j in range(k + 1, min(n, k + q + 1)):
                rows[i][j] -= factor * rows[k][j]
    return pivots


def _mp_constants(coeffs):
    """G[a] and E[a] by Wiener-Hopf from the roots of z^q a(z) = a_p prod
    (z - r), as `test_symbols` takes them for the strong-szego symbol: with
    winding number 0 exactly q roots lie inside the unit disk, G[a] = a_p
    prod_{|r|>1} (-r) and E[a] = prod 1 / (1 - r_in / r_out) over the pairs."""
    p, q = max(coeffs), -min(coeffs)
    roots = mpmath.polyroots(
        [mpmath.mpc(coeffs.get(k, 0)) for k in range(p, -q - 1, -1)], maxsteps=200, extraprec=100
    )
    inner = [r for r in roots if abs(r) < 1]
    outer = [r for r in roots if abs(r) > 1]
    assert (len(inner), len(outer)) == (q, p)
    g = mpmath.mpc(coeffs[p]) * mpmath.fprod(-r for r in outer)
    return g, mpmath.fprod(1 / (1 - r_in / r_out) for r_in in inner for r_out in outer)


def _log_scale(*magnitudes):
    """1 + sum |log m|: a value exp(log m1 - log m2) formed from two log
    determinants carries the rounding of both logs, each a few units of
    its size."""
    return 1.0 + sum(abs(float(mpmath.log(abs(m)))) for m in magnitudes)


@pytest.mark.parametrize("name", DETERMINANT_GOLDENS)
def test_determinant_rows_are_mpmath_determinants(name):
    # each row against the determinants of its sections in mpmath at 40
    # digits and the prediction against the roots route: a ratio
    # det T_n / det T_{n-1} against G[a], a normalised det T_n / G[a]^n
    # against E[a], within ULPS units of its log scale
    cfg = GOLDEN_CONFIGS[name]
    rows, summary = _rows(name), _summary(name)
    ratio = cfg["experiment"] == "szego-ratio"
    with mpmath.workdps(40):
        coeffs = _symbol(cfg)
        pivots = _mp_pivots(coeffs, rows[-1][0])
        g, e = _mp_constants(coeffs)
        predicted = g if ratio else e
        exact_values = []
        for n, value, pred, residual, flags in rows:
            det = mpmath.fprod(pivots[:n])
            if ratio:
                exact, scale = pivots[n - 1], _log_scale(det, det / pivots[n - 1])
            else:
                exact, scale = det / g**n, _log_scale(det, g**n)
            scale *= abs(exact)
            assert _close(value, exact, scale), (name, n, value, complex(exact))
            assert _close(pred, predicted, abs(predicted)), (name, n, pred)
            assert _close(residual, abs(exact - predicted), scale + abs(predicted)), (name, n, residual)
            assert flags == ""
            exact_values.append(complex(exact))
        assert _close(complex(*summary["predicted"]), predicted, abs(predicted))
        if ratio:
            # the partial limits of the exact ratios: the same groups, centers and radii
            clusters = cluster_partial_limits(exact_values)
            assert [c["count"] for c in summary["clusters"]] == [c.count for c in clusters]
            for written, exact in zip(summary["clusters"], clusters):
                assert _close(complex(*written["center"]), exact.center, 2 * scale)
                assert _close(written["radius"], exact.radius, 2 * scale)
        else:
            assert _close(complex(*summary["geometric_mean"]), g, abs(g))
            assert 0.0 <= summary["tail_bound"] <= 1e-12
    assert summary["final_residual"] == rows[-1][3]
    assert summary.get("skipped", []) == [] and summary["verdict"] == "pass"


# ---------------------------------------------------------------------------
# folner: the one path out of the section


def _mp_factor_section(factor, n):
    """The n-section of a composite factor of the config, in mpmath: a
    Toeplitz factor has entry (i, j) = a_{i-j}, a multiplier the diagonal
    sum_k c_k e^{2 pi i f_k j}."""
    mat = mpmath.zeros(n, n)
    if factor["kind"] == "toeplitz":
        coeffs = {int(k): mpmath.mpc(*v) for k, v in factor["symbol"].items()}
        for i in range(n):
            for j in range(n):
                mat[i, j] = coeffs.get(i - j, 0)
    else:
        for j in range(n):
            mat[j, j] = mpmath.fsum(
                mpmath.mpc(t["re"], t.get("im", 0.0)) * mpmath.expjpi(2 * mpmath.mpf(t["freq"]) * j)
                for t in factor["terms"]
            )
    return mat


def test_folner_rows_are_one_over_n():
    # T(1/2 + 1/z) M T(z), |M| = 1: the only path that leaves the section is
    # n-1 -> n -> n-1, of weight |a_{-1}| |e^{2 pi i alpha n}| = 1, so the
    # discrepancy has rank 1 and trace norm 1, and each row is 1/n
    cfg = GOLDEN_CONFIGS["folner"]
    exact = {n: Fraction(1, n) for n in cfg["n_range"]}
    _check_table("folner", exact, 0.0, scale=1.0)
    (factors,) = cfg["operator"]["products"]
    width = sum(max(abs(int(k)) for k in f["symbol"]) for f in factors if f["kind"] == "toeplitz")
    written = {r[0]: r[1] for r in _rows("folner")}
    with mpmath.workdps(30):
        for n in (4, 16):
            # the n-section of the product is the leading block of the
            # product of (n + width)-sections
            product, crop = (mpmath.eye(m) for m in (n, n + width))
            for f in factors:
                product, crop = product * _mp_factor_section(f, n), crop * _mp_factor_section(f, n + width)
            difference = product - crop[:n, :n]
            trace_norm = mpmath.fsum(abs(s) for s in mpmath.svd_c(difference, compute_uv=False))
            assert _close(written[n], trace_norm / n, 1.0), (n, written[n])


# ---------------------------------------------------------------------------
# the limit constant: the last determinant ratio of the section ending at 0

GOLDEN_RATIO = (math.sqrt(5) - 1) / 2


def _mp_ap(f, j):
    """sum_k c_k e^{2 pi i f_k j} of an APFunction, in mpmath."""
    return mpmath.fsum(mpmath.mpc(c) * mpmath.expjpi(2 * mpmath.mpf(freq) * j) for freq, c in f.terms)


def _mp_limit_constant(op, m):
    """det A_[-m,-1] / det A_[-m,-2], entry (i, j) = diagonal[i - j](j)."""
    idx = range(-m, 0)
    mat = mpmath.matrix([[_mp_ap(op.diagonals[i - j], j) if i - j in op.diagonals else 0 for j in idx] for i in idx])
    return mpmath.det(mat) / mpmath.det(mat[: m - 1, : m - 1])


def _two_frequency_operator():
    a1, a2 = GOLDEN_RATIO, math.sqrt(2) - 1
    return BandAPOperator({
        0: APFunction([(0.0, 3.0), (a1, 0.5 + 0.2j), (a2, -0.3j)]),
        1: APFunction([(0.0, 1.0), (a2, 0.25 - 0.1j)]),
        -1: APFunction([(0.0, 0.7 - 0.1j)]),
        2: APFunction([(a1, 0.2j)]),
        -2: APFunction([(0.0, 0.1)]),
    })


@pytest.mark.parametrize("name, m", [("almost-mathieu", 13), ("almost-mathieu", 34), ("two-frequency", 20)])
def test_limit_constant_is_the_mpmath_determinant_ratio(name, m):
    op = almost_mathieu(GOLDEN_RATIO, 3.0) if name == "almost-mathieu" else _two_frequency_operator()
    with mpmath.workdps(40):
        exact = complex(_mp_limit_constant(op, m))
    assert abs(g_limit_constant(op, m) - exact) <= 64 * m * EPS * abs(exact)


def test_limit_constant_of_the_almost_mathieu_operator_is_converged():
    # golden alpha, theta = 0, lambda = 3: one value from m = 55 on
    op = almost_mathieu(GOLDEN_RATIO, 3.0)
    for m in (55, 377, 987, 4181):
        assert abs(g_limit_constant(op, m) - 2.7152158827044146) <= 1e-13 * 2.7152158827044146, m
