"""Independent oracles for the artifacts of each benchmark config.

Nothing here calls szegolab: sections are rebuilt with numpy/scipy from the
config JSON, and every reported number is compared with a closed form or
with a second method (exact recurrences and traces, numpy slogdet/eigvalsh,
trapezoid log averages, exact continued fractions).  `check` returns a list
of problems; an empty list means the artifacts are correct.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg
import scipy.sparse

from workloads import denominators, quadratic_quotients


def parse_csv(text: str) -> list[tuple]:
    """Rows of a report CSV as (n, empirical, predicted, residual, flags)."""
    lines = text.splitlines()
    if lines[0] != "n,empirical_re,empirical_im,predicted_re,predicted_im,residual,flags":
        raise ValueError(f"unexpected CSV header {lines[0]!r}")
    rows = []
    for line in lines[1:]:
        n, er, ei, pr, pi, res, flags = line.split(",")
        rows.append((int(n), complex(float(er), float(ei)), complex(float(pr), float(pi)),
                     float(res), flags))
    return rows


def _coeffs(symbol: dict) -> dict[int, complex]:
    return {int(k): complex(*v) if isinstance(v, list) else complex(v) for k, v in symbol.items()}


def _close(a, b, rel, scale=1.0) -> bool:
    return abs(complex(a) - complex(b)) <= rel * max(scale, abs(complex(b)))


def _circle(coeffs: dict[int, complex], points: int) -> np.ndarray:
    t = 2 * np.pi * np.arange(points) / points
    return sum(c * np.exp(1j * k * t) for k, c in coeffs.items())


def _log_coefficients(coeffs: dict[int, complex], points: int = 1 << 14) -> np.ndarray:
    """DFT coefficients of the principal log of a; the symbols used here have
    Re a > 0 on the circle, so the principal branch is continuous."""
    values = _circle(coeffs, points)
    if np.min(values.real) <= 0:
        raise ValueError("oracle needs Re a > 0 on the circle")
    return np.fft.fft(np.log(values)) / points


def _toeplitz(coeffs: dict[int, complex], n: int) -> np.ndarray:
    col = np.array([coeffs.get(k, 0j) for k in range(n)], dtype=complex)
    row = np.array([coeffs.get(-k, 0j) for k in range(n)], dtype=complex)
    return scipy.linalg.toeplitz(col, row)


def _ap(terms: list[dict], j: np.ndarray) -> np.ndarray:
    return sum(complex(t["re"], t["im"]) * np.exp(2j * np.pi * t["freq"] * j) for t in terms)


def _section(op: dict, n: int, sparse: bool = False):
    """Dense (or sparse) n-section of a toeplitz or band-ap operator JSON."""
    if op["kind"] == "toeplitz":
        diagonals = {k: np.full(n, c) for k, c in _coeffs(op["symbol"]).items()}
    else:
        cols = np.arange(n)
        diagonals = {int(d): _ap(terms, cols) for d, terms in op["diagonals"].items()}
    mat = scipy.sparse.lil_matrix((n, n), dtype=complex)
    for d, values in diagonals.items():
        cols = np.arange(max(0, -d), n - max(0, d))
        mat[cols + d, cols] = values[cols]
    return mat.tocsr() if sparse else mat.toarray()


def _mathieu(alpha, lam, theta, n, flip=False) -> np.ndarray:
    j = np.arange(n)
    sites = -1 - j if flip else j
    mat = np.diag(lam * np.cos(2 * np.pi * (sites * alpha + theta))).astype(complex)
    mat += np.eye(n, k=1) + np.eye(n, k=-1)
    return mat


def _slogdet_ratio(mat_n: np.ndarray, mat_prev: np.ndarray, extra_log: float = 0.0) -> complex:
    s1, l1 = np.linalg.slogdet(mat_n)
    if mat_prev.size:
        s0, l0 = np.linalg.slogdet(mat_prev)
    else:
        s0, l0 = 1.0, 0.0
    return complex(np.exp(l1 - l0 - extra_log) * s1 / s0)


def _poly_trace_mean(mat: np.ndarray, coeffs) -> complex:
    power = np.eye(mat.shape[0], dtype=complex)
    total = 0j
    for c in coeffs:
        total += c * np.trace(power)
        power = power @ mat
    return total / mat.shape[0]


# ---------------------------------------------------------------------------
# one function per oracle kind; each returns a list of problems


def _tridiagonal_ratio(check, rows, summary, config):
    a = {k: complex(v) for k, v in check["symbol"].items()}
    a0, prod = a[0], a.get(1, 0j) * a.get(-1, 0j)
    disc = np.sqrt(complex(a0 * a0 - 4 * prod))
    roots = ((a0 + disc) / 2, (a0 - disc) / 2)
    limit = max(roots, key=abs)
    problems = []
    if "limit" in check and not _close(limit, check["limit"], 1e-14):
        problems.append(f"closed form G {limit} != {check['limit']}")
    exact, ratio = {}, a0
    for n in range(1, rows[-1][0] + 1):
        ratio = a0 if n == 1 else a0 - prod / ratio  # D_n = a0 D_{n-1} - a1 a_-1 D_{n-2}
        exact[n] = ratio
    for n, emp, pred, _, _ in rows:
        if not _close(emp, exact[n], 1e-9):
            problems.append(f"n={n}: ratio {emp} != recurrence {exact[n]}")
        if not _close(pred, limit, 1e-10):
            problems.append(f"n={n}: predicted {pred} != G {limit}")
    if summary.get("skipped"):
        problems.append(f"unexpected skipped sizes {summary['skipped']}")
    return problems


def _ratio(check, rows, summary, config):
    a = {k: complex(v) for k, v in check["symbol"].items()}
    g = complex(np.exp(_log_coefficients(a)[0]))
    n, emp, pred = rows[-1][:3]
    problems = []
    if not _close(pred, g, 1e-10):
        problems.append(f"predicted {pred} != trapezoid G {g}")
    if not _close(emp, g, 1e-8):
        problems.append(f"n={n}: ratio {emp} has not reached G {g}")
    direct = _slogdet_ratio(_toeplitz(a, n), _toeplitz(a, n - 1))
    if not _close(emp, direct, 1e-9):
        problems.append(f"n={n}: ratio {emp} != slogdet ratio {direct}")
    if summary.get("skipped"):
        problems.append(f"unexpected skipped sizes {summary['skipped']}")
    return problems


def _strong_szego(check, rows, summary, config):
    a = {k: complex(v) for k, v in check["symbol"].items()}
    c = _log_coefficients(a)
    big_k = len(c) // 4
    ks = np.arange(1, big_k)
    g = complex(np.exp(c[0]))
    e = complex(np.exp(np.sum(ks * c[ks] * c[-ks])))
    problems = []
    if "G" in check and not _close(g, check["G"], 1e-12):
        problems.append(f"trapezoid G {g} != closed form {check['G']}")
    if "E" in check and not _close(e, check["E"], 1e-12):
        problems.append(f"trapezoid E {e} != closed form {check['E']}")
    if not _close(complex(*summary["geometric_mean"]), g, 1e-12):
        problems.append(f"geometric_mean {summary['geometric_mean']} != G {g}")
    n, emp, pred = rows[-1][:3]
    if not _close(pred, e, 1e-10):
        problems.append(f"predicted {pred} != E {e}")
    if not _close(emp, e, 1e-8):
        problems.append(f"n={n}: det T_n / G^n = {emp} has not reached E {e}")
    direct = _slogdet_ratio(_toeplitz(a, n), np.zeros((0, 0)), n * math.log(abs(g)))
    direct *= np.exp(-1j * n * np.angle(g))
    if not _close(emp, direct, 1e-9):
        problems.append(f"n={n}: {emp} != slogdet value {direct}")
    return problems


def _mathieu_x2(check, rows, summary, config):
    lam, alpha, theta = check["lambda"], check["alpha"], check["theta"]
    limit = 2 + lam * lam / 2
    problems = []
    spec = check.get("spec")
    if spec is not None:
        qs = denominators(quadratic_quotients(spec, 40))
        distinct = [q for i, q in enumerate(qs) if i == 0 or q > qs[i - 1]]
        if [r[0] for r in rows] != distinct[: len(rows)]:
            problems.append(f"sizes {[r[0] for r in rows]} are not the CF denominators")
    for n, emp, pred, _, _ in rows:
        d = lam * np.cos(2 * np.pi * (np.arange(n) * alpha + theta))
        trace = 2 * (n - 1) / n + float(np.mean(d * d))
        if not _close(emp, trace, 1e-10, limit):
            problems.append(f"n={n}: mean x^2 {emp} != trace {trace}")
    n, emp, pred = rows[-1][:3]
    bound = 2 / n + lam * lam / (2 * n * abs(math.sin(2 * math.pi * alpha)))
    if abs(emp - limit) > bound:
        problems.append(f"n={n}: |{emp} - (2 + lambda^2/2)| exceeds {bound}")
    if "predicted" in config:
        expected = limit
    else:
        m = 4 * max(r[0] for r in rows)  # the program's default truncation
        window = m // 2
        j = np.arange((m - window) // 2, (m - window) // 2 + window)
        expected = 2 + float(np.mean((lam * np.cos(2 * np.pi * (j * alpha + theta))) ** 2))
    if not _close(pred, expected, 1e-12, limit):
        problems.append(f"predicted {pred} != diagonal mean {expected}")
    return problems


def _trace_moment(check, rows, summary, config):
    op, coeffs = check["operator"], check["coeffs"]
    problems = []
    for n, emp, pred, _, _ in rows:
        mat = _section(op, n)
        scale = sum(abs(c) * np.abs(mat).sum(axis=1).max() ** k for k, c in enumerate(coeffs))
        trace = _poly_trace_mean(mat, coeffs)
        if not _close(emp, trace, 1e-9, scale):
            problems.append(f"n={n}: eigenvalue mean {emp} != trace mean {trace}")
    pred = rows[-1][2]
    if check["prediction"] == "symbol":
        prod = {0: 1 + 0j}
        expected = coeffs[0]
        a = {k: complex(v) for k, v in check["symbol"].items()}
        for c in coeffs[1:]:
            nxt: dict[int, complex] = {}
            for k1, v1 in prod.items():
                for k2, v2 in a.items():
                    nxt[k1 + k2] = nxt.get(k1 + k2, 0j) + v1 * v2
            prod = nxt
            expected += c * prod.get(0, 0j)
    else:
        m = 4 * max(r[0] for r in rows)
        window = m // 2
        sparse = _section(op, m, sparse=True)
        power = scipy.sparse.identity(m, dtype=complex, format="csr")
        diag = np.zeros(m, dtype=complex)
        for c in coeffs:
            diag += c * power.diagonal()
            power = power @ sparse
        start = (m - window) // 2
        expected = complex(np.mean(diag[start : start + window]))
    if not _close(pred, expected, 1e-10, 1.0):
        problems.append(f"predicted {pred} != independent prediction {expected}")
    return problems


def _avram_parter(check, rows, summary, config):
    problems = []
    a = {0: 1 + 0j, 1: 1 + 0j}
    for n, emp, pred, _, _ in rows:
        if abs(emp - check["limit"]) > check["slack"] / n:
            problems.append(f"n={n}: |{emp} - {check['limit']}| > {check['slack']}/n")
        if not _close(pred, check["limit"], 1e-12):
            problems.append(f"predicted {pred} != {check['limit']}")
    n, emp = rows[-1][:2]
    t = _toeplitz(a, n)
    gram = t.conj().T @ t
    exact = float(np.real(np.trace(gram @ gram))) / n
    if not _close(emp, exact, 1e-10):
        problems.append(f"n={n}: mean sigma^4 {emp} != tr((T*T)^2)/n {exact}")
    return problems


def _frobenius(check, rows, summary, config):
    a = {k: complex(v) for k, v in check["symbol"].items()}
    limit = sum(abs(c) ** 2 for c in a.values())
    problems = []
    for n, emp, pred, _, _ in rows:
        exact = sum((n - abs(k)) * abs(c) ** 2 for k, c in a.items() if abs(k) < n) / n
        if not _close(emp, exact, 1e-12):
            problems.append(f"n={n}: mean sigma^2 {emp} != |T_n|_F^2/n {exact}")
        if not _close(pred, limit, 1e-12):
            problems.append(f"predicted {pred} != sum |a_k|^2 {limit}")
    return problems


def _folner(check, rows, summary, config):
    k = check["k"]
    return [
        f"n={n}: discrepancy {emp} != min(k, n)/n"
        for n, emp, pred, _, _ in rows
        if abs(emp - min(k, n) / n) > 1e-12 or pred != 0
    ]


def _stability(check, rows, summary, config):
    alpha, lam, theta = check["alpha"], check["lambda"], check["theta"]
    problems = []
    norm = 0.0
    mins = []
    for n, emp, pred, _, flags in rows:
        sec = np.abs(np.linalg.eigvalsh(_mathieu(alpha, lam, theta, n)))
        flip = np.abs(np.linalg.eigvalsh(_mathieu(alpha, lam, theta, n, flip=True)))
        norm = max(norm, sec.max(), flip.max())
        value = min(sec.min(), flip.min())
        mins.append(value)
        if abs(emp.real - value) > 1e-10 * (2 + lam):
            problems.append(f"n={n}: sigma_min {emp.real} != eigvalsh {value}")
        if abs(sec.min() - flip.min()) > 1e-9 * (2 + lam):
            expected = "section" if sec.min() < flip.min() else "flip"
            if flags != expected:
                problems.append(f"n={n}: flag {flags!r} != {expected!r}")
    if not _close(summary["norm_scale"], norm, 1e-10):
        problems.append(f"norm_scale {summary['norm_scale']} != {norm}")
    # the program's margin is 1e-6 * norm; twice that keeps clear of the edge
    if min(mins) >= 2e-6 * norm and summary["verdict"] != "stability-consistent":
        problems.append(f"verdict {summary['verdict']} with sigma_min >= margin")
    return problems


def _cf_quadratic(check, csv_text, summary):
    quotients = check["quotients"]
    problems = []
    if summary["quotients"] != quotients or summary["terminated"] != "max-terms":
        problems.append(f"quotients {summary['quotients']} != exact {quotients}")
    qs = denominators(quotients)
    if check.get("fibonacci"):
        fib = [1, 2]
        while len(fib) < len(qs):
            fib.append(fib[-1] + fib[-2])
        if qs != fib[: len(qs)]:
            problems.append(f"golden denominators {qs} are not Fibonacci")
    rows = [line.split(",") for line in csv_text.splitlines()[1:]]
    if [int(r[3]) for r in rows] != qs:
        problems.append(f"CSV denominators {[r[3] for r in rows]} != {qs}")
    for i, r in enumerate(rows):
        q_next = qs[i + 1] if i + 1 < len(qs) else qs[i]
        if not _close(float(r[4]), 1.0 / (qs[i] * q_next), 1e-15):
            problems.append(f"row {i + 1}: error bound {r[4]}")
    if summary["verdict"] != "pass":
        problems.append("approximation bounds failed")
    return problems


def _cf_rational(check, csv_text, summary):
    last = csv_text.splitlines()[-1].split(",")
    problems = []
    # the float value of p/q ends the expansion by the rational-residual test
    # or by a denominator beyond the cap; either way p/q is the last convergent
    if (int(last[2]), int(last[3])) != (check["p"], check["q"]) or summary["terminated"] not in (
        "rational", "q-cap"
    ):
        problems.append(f"last convergent {last[2]}/{last[3]} ({summary['terminated']})"
                        f" != {check['p']}/{check['q']}")
    return problems


_TABLE_ORACLES = {
    "tridiagonal-ratio": _tridiagonal_ratio,
    "ratio": _ratio,
    "strong-szego": _strong_szego,
    "mathieu-x2": _mathieu_x2,
    "trace-moment": _trace_moment,
    "avram-parter": _avram_parter,
    "frobenius": _frobenius,
    "folner": _folner,
    "stability": _stability,
}

_CF_ORACLES = {"cf-quadratic": _cf_quadratic, "cf-rational": _cf_rational}


def check(case, csv_text: str, summary: dict) -> list[str]:
    """Problems found in one config's artifacts (empty when correct)."""
    kind = case.check["oracle"]
    if kind in _CF_ORACLES:
        return _CF_ORACLES[kind](case.check, csv_text, summary)
    problems = []
    if case.config["experiment"] != "stability" and summary["verdict"] != "pass":
        problems.append(f"verdict {summary['verdict']}")
    return problems + _TABLE_ORACLES[kind](case.check, parse_csv(csv_text), summary, case.config)
