"""Seeded experiment configs for the three benchmark workloads.

Each workload is a fixed list of `szegolab run` configs.  The section sizes,
experiment kinds and config count never depend on the seed; the seed only
draws symbol coefficients, almost periodic frequencies and operator
parameters, so every seed asks for the same amount of work.  Every config
carries a check spec that names the independent oracle `oracles.py` applies
to its artifacts.

Workloads, and why they were chosen:

- ``det-sweep``: the determinant path (`szego-ratio`, `strong-szego`).
  Dense pivoted LU does most of the work and Toeplitz section assembly most
  of the rest; contiguous sizes make many mid-size LU calls, geometric grids
  a few large ones.  No eigenvalue or SVD work.
- ``spectral-sweep``: the eigenvalue and singular value path
  (`mathieu-dist`, `eigen-dist`, `singular-dist`, `folner`, `stability`).
  Dense eigvalsh/eigvals/svd dominate, plus the dense composite products of
  the Folner check.  No LU work.  Not listed in BENCHMARK.json: its median
  run (folner-shift) spread 10-18 % between runs even relative to the
  reference kernel, and a run took 50-65 s.  It still runs by hand.
- ``small-configs``: about 200 tiny runs (n <= 64) across all 8 experiment
  kinds.  Kernel flops are negligible; CLI parsing and emission, symbol and
  almost periodic evaluation and per-call overhead set the latency.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("det-sweep", "spectral-sweep", "small-configs")

GOLDEN = (math.sqrt(5) - 1) / 2

# Quadratic irrationals (P + sqrt(D)) / Q in (0, 1) with Q | D - P^2, so the
# exact continued fraction is periodic and never runs short of denominators.
QUADRATIC_IRRATIONALS = (
    (-1, 5, 2),   # golden ratio conjugate: Fibonacci denominators
    (-1, 2, 1),   # sqrt 2 - 1
    (-1, 3, 1),   # sqrt 3 - 1
    (-3, 13, 2),  # (sqrt 13 - 3) / 2
    (-2, 7, 1),   # sqrt 7 - 2
    (-3, 10, 1),  # sqrt 10 - 3
    (-3, 21, 6),  # (sqrt 21 - 3) / 6
)

# Rationals p/q for distinguished sequences and cf-expand.  cf-expand fails
# its approximation-bound verdict on rationals whose float value makes the
# last interior bound |alpha q - p| < 1/q_next an equality (2/9, 3/8, 5/16);
# these pass it.
RATIONALS = ((1, 3), (2, 5), (4, 7), (7, 12), (3, 10), (5, 13), (5, 11))

# Smallest distance to an integer of a low-order frequency combination in an
# almost periodic diagonal (see `_resonant`).
BEAT_GAP = 0.02


@dataclass
class Case:
    """One config of a workload and the oracle that checks its artifacts."""

    name: str
    config: dict
    check: dict


def quadratic_value(spec) -> float:
    p, d, q = spec
    return (p + math.sqrt(d)) / q


def quadratic_quotients(spec, terms: int) -> list[int]:
    """Exact partial quotients b_1..b_terms of (P + sqrt D)/Q in (0, 1)."""
    p, d, q = spec
    s = math.isqrt(d)
    out = []
    for _ in range(terms + 1):
        if q <= 0 or (d - p * p) % q:
            raise ValueError(f"{spec} is not a reduced quadratic irrational")
        a = (p + s) // q
        out.append(a)
        p = a * q - p
        q = (d - p * p) // q
    if out[0] != 0:
        raise ValueError(f"{spec} does not lie in (0, 1)")
    return out[1:]


def denominators(quotients) -> list[int]:
    """Convergent denominators q_n = b_n q_{n-1} + q_{n-2}, q_0 = 1."""
    prev, cur = 0, 1
    out = []
    for b in quotients:
        prev, cur = cur, b * cur + prev
        out.append(cur)
    return out


def distinguished_length(spec, cap: int) -> int:
    """Number of distinct continued fraction denominators <= cap."""
    qs = denominators(quadratic_quotients(spec, 40))
    distinct = [q for i, q in enumerate(qs) if i == 0 or q > qs[i - 1]]
    return sum(1 for q in distinct if q <= cap)


def last_denominator(spec, cap: int) -> int:
    return max(q for q in denominators(quadratic_quotients(spec, 40)) if q <= cap)


def moment_tolerance(coeffs, radius: float, n: int) -> float:
    """4/n sum_k k |c_k| radius^k: room for the O(1/n) boundary and
    frequency-discrepancy error of (1/n) tr p(A_n) against the central
    diagonal mean of p(A), for a section of norm <= radius."""
    return 4.0 * sum(k * abs(c) * radius**k for k, c in enumerate(coeffs)) / n


def frobenius_tolerance(coeffs: dict, n: int) -> float:
    """Twice the exact deficit sum_k |k| |a_k|^2 / n of the mean squared
    singular value of T_n(a) against the circle average of |a|^2."""
    return 2.0 * sum(abs(k) * abs(c) ** 2 for k, c in coeffs.items()) / n


def _pair(z) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def symbol_json(coeffs: dict) -> dict:
    return {str(k): _pair(c) for k, c in sorted(coeffs.items())}


def dominant_symbol(rng, bandwidth: int, hermitian: bool, rho: float) -> dict:
    """a_0 > 0 with sum_{k != 0} |a_k| = rho a_0 < a_0: no zeros on the
    circle, winding number 0, every section strictly diagonally dominant."""
    a0 = float(rng.uniform(1.0, 3.0))
    raw = {}
    for k in range(1, bandwidth + 1):
        raw[k] = complex(rng.normal(), rng.normal())
        raw[-k] = raw[k].conjugate() if hermitian else complex(rng.normal(), rng.normal())
    scale = rho * a0 / sum(abs(c) for c in raw.values())
    coeffs = {0: complex(a0)}
    coeffs.update({k: c * scale for k, c in raw.items()})
    return coeffs


def bessel_i(k: int, x: float = 1.0) -> float:
    """Modified Bessel function I_k(x) from its power series."""
    total, term = 0.0, (x / 2) ** k / math.factorial(k)
    m = 0
    while term > 1e-300 and m < 200:
        total += term
        m += 1
        term *= (x / 2) ** 2 / (m * (m + k))
    return total


def exp_cos_symbol(max_offset: int = 24) -> dict:
    """exp(cos t) = sum_k I_k(1) e^{ikt}: G = 1 and E = e^{1/4}."""
    return {k: complex(bessel_i(abs(k))) for k in range(-max_offset, max_offset + 1)}


TWO_PLUS_COS = {0: 2.0 + 0j, 1: 0.5 + 0j, -1: 0.5 + 0j}

# A non-normal banded Toeplitz symbol (a_{-k} != conj(a_k)).
NON_NORMAL_BASE = {0: 2.0 + 0j, 1: 0.6 + 0.2j, -1: -0.3 + 0.4j, 2: 0.15j, -2: 0.1 + 0j}


def _geometric(start: int, stop: int) -> dict:
    return {"kind": "geometric", "start": start, "stop": stop}


def _resonant(freqs, gap: float = BEAT_GAP) -> bool:
    """Some k1 f1 + k2 f2 (|k1| + |k2| <= 3, not all zero) within `gap` of
    an integer: a beat slower than 1/gap that short sections cannot average."""
    for k in itertools.product(range(-3, 4), repeat=len(freqs)):
        if 0 < sum(map(abs, k)) <= 3:
            x = sum(ki * f for ki, f in zip(k, freqs))
            if abs(x - round(x)) < gap:
                return True
    return False


def _ap_cosines(rng, count: int, amplitude: float) -> list[dict]:
    """Real almost periodic diagonal: a sum of cosines with seeded
    amplitudes, quadratic-irrational frequencies and phases.  Frequency sets
    with a slow beat are drawn again: the moment tolerances bound the
    frequency-discrepancy error by O(1/n), which a beat of period P > n
    breaks (sqrt 3 - 1 and (sqrt 21 - 3) / 6 sum to 0.9958, period 236)."""
    terms = []
    picks = rng.choice(len(QUADRATIC_IRRATIONALS), size=count, replace=False)
    while _resonant([quadratic_value(QUADRATIC_IRRATIONALS[int(i)]) for i in picks]):
        picks = rng.choice(len(QUADRATIC_IRRATIONALS), size=count, replace=False)
    for idx in picks:
        freq = quadratic_value(QUADRATIC_IRRATIONALS[int(idx)])
        half = 0.5 * amplitude * float(rng.uniform(0.3, 1.0)) * np.exp(
            2j * np.pi * float(rng.uniform())
        )
        terms.append({"freq": freq, "re": half.real, "im": half.imag})
        terms.append({"freq": -freq, "re": half.real, "im": -half.imag})
    return terms


# ---------------------------------------------------------------------------
# det-sweep


def _det_sweep(rng, tiny: bool) -> list[Case]:
    top, contiguous, strong_top = (64, 128, 64) if tiny else (2048, 400, 1024)
    cases = [
        Case(
            "ratio-2pluscos-contiguous",
            {"experiment": "szego-ratio", "symbol": symbol_json(TWO_PLUS_COS),
             "n_range": list(range(1, contiguous + 1)), "tolerance": 1e-10},
            {"oracle": "tridiagonal-ratio", "symbol": TWO_PLUS_COS,
             "limit": (2 + math.sqrt(3)) / 2},
        ),
        Case(
            "ratio-2pluscos-geometric",
            {"experiment": "szego-ratio", "symbol": symbol_json(TWO_PLUS_COS),
             "n_range": _geometric(4, top), "tolerance": 1e-10},
            {"oracle": "tridiagonal-ratio", "symbol": TWO_PLUS_COS,
             "limit": (2 + math.sqrt(3)) / 2},
        ),
        Case(
            "strong-expcos",
            {"experiment": "strong-szego", "symbol": symbol_json(exp_cos_symbol()),
             "n_range": _geometric(4, strong_top), "tolerance": 1e-9},
            {"oracle": "strong-szego", "symbol": exp_cos_symbol(),
             "G": 1.0, "E": math.exp(0.25)},
        ),
    ]
    seeded = (
        ("ratio-seeded-hermitian-contiguous", 2, True, list(range(1, contiguous // 4 + 1))),
        ("ratio-seeded-complex-contiguous", 3, False, list(range(1, contiguous // 4 + 1))),
        ("ratio-seeded-complex-geometric", 2, False, _geometric(4, top // 2)),
    )
    for name, w, herm, sizes in seeded:
        sym = dominant_symbol(rng, w, herm, float(rng.uniform(0.3, 0.5)))
        cases.append(Case(
            name,
            {"experiment": "szego-ratio", "symbol": symbol_json(sym),
             "n_range": sizes, "tolerance": 1e-8},
            {"oracle": "ratio", "symbol": sym},
        ))
    sym = dominant_symbol(rng, 3, False, float(rng.uniform(0.3, 0.5)))
    cases.append(Case(
        "strong-seeded",
        {"experiment": "strong-szego", "symbol": symbol_json(sym),
         "n_range": _geometric(4, strong_top // 2), "tolerance": 1e-8},
        {"oracle": "strong-szego", "symbol": sym},
    ))
    return cases


# ---------------------------------------------------------------------------
# spectral-sweep


def _spectral_sweep(rng, tiny: bool) -> list[Case]:
    fib_cap, herm_top, general_top, sv_top, folner_top, stab_top = (
        (89, 64, 32, 64, 32, 64) if tiny else (1597, 512, 512, 512, 512, 1024)
    )
    golden = QUADRATIC_IRRATIONALS[0]
    lam = float(rng.uniform(0.5, 2.5))
    theta = float(rng.uniform())
    cases = [
        Case(
            "mathieu-golden-x2",
            {"experiment": "mathieu-dist", "alpha": GOLDEN, "lambda": lam, "theta": theta,
             "g": {"kind": "power", "k": 2},
             "distinguished": {"alpha": GOLDEN, "length": distinguished_length(golden, fib_cap)},
             "predicted": [2 + lam * lam / 2, 0.0], "tolerance": 8.0 / fib_cap},
            {"oracle": "mathieu-x2", "lambda": lam, "alpha": GOLDEN, "theta": theta,
             "spec": golden},
        )
    ]

    amplitude = float(rng.uniform(0.5, 1.5))
    diag = _ap_cosines(rng, 2, amplitude)
    hop = float(rng.uniform(0.5, 1.0))
    cubic = [0.0, 0.5, 0.0, 1.0]
    band = {"kind": "band-ap", "domain": "Z", "diagonals": {
        "0": diag,
        "1": [{"freq": 0.0, "re": hop, "im": 0.0}],
        "-1": [{"freq": 0.0, "re": hop, "im": 0.0}],
    }}
    cases.append(Case(
        "eigen-bandap-hermitian-x3",
        {"experiment": "eigen-dist", "operator": band, "g": {"kind": "poly", "coeffs": cubic},
         "n_range": _geometric(herm_top // 8, herm_top),
         "tolerance": moment_tolerance(cubic, 2 * hop + amplitude, herm_top)},
        {"oracle": "trace-moment", "operator": band, "coeffs": cubic,
         "prediction": "diagonal"},
    ))

    # The seed only rotates the non-constant part: a0 I + e^{i phi} B takes
    # the same shifted-QR iterations for every phi, so eigvals does the same
    # work on every seed (the iteration count of a generic draw varies ~30%).
    rotation = np.exp(2j * np.pi * float(rng.uniform()))
    sym = {k: (c if k == 0 else rotation * c) for k, c in NON_NORMAL_BASE.items()}
    quadratic = [0.0, 1.0, 1.0]
    toeplitz = {"kind": "toeplitz", "symbol": symbol_json(sym)}
    cases.append(Case(
        "eigen-toeplitz-general-x2",
        {"experiment": "eigen-dist", "operator": toeplitz, "g": {"kind": "poly", "coeffs": quadratic},
         "n_range": _geometric(general_top // 8, general_top),
         "tolerance": moment_tolerance(quadratic, sum(abs(c) for c in sym.values()), general_top)},
        {"oracle": "trace-moment", "operator": toeplitz, "coeffs": quadratic,
         "prediction": "symbol", "symbol": sym},
    ))

    cases.append(Case(
        "singular-1plusz-x4",
        {"experiment": "singular-dist", "symbol": {"0": [1.0, 0.0], "1": [1.0, 0.0]},
         "g": {"kind": "power", "k": 4},
         "n_range": [sv_top // 16, sv_top // 4, sv_top], "tolerance": 12.0 / sv_top},
        {"oracle": "avram-parter", "limit": 6.0, "slack": 12.0},
    ))
    sym = dominant_symbol(rng, 2, False, float(rng.uniform(0.5, 0.9)))
    cases.append(Case(
        "singular-seeded-x2",
        {"experiment": "singular-dist", "symbol": symbol_json(sym),
         "g": {"kind": "power", "k": 2},
         "n_range": [sv_top // 16, sv_top // 8, sv_top // 4],
         "tolerance": frobenius_tolerance(sym, sv_top // 4)},
        {"oracle": "frobenius", "symbol": sym},
    ))

    k = int(rng.integers(1, 4))
    cases.append(Case(
        "folner-shift",
        {"experiment": "folner", "operator": {"kind": "composite", "products": [[
            {"kind": "toeplitz", "symbol": {str(-k): [1.0, 0.0]}},
            {"kind": "toeplitz", "symbol": {str(k): [1.0, 0.0]}},
        ]]}, "n_range": _geometric(folner_top // 16, folner_top), "tolerance": 4.0 / folner_top},
        {"oracle": "folner", "k": k},
    ))

    alpha_spec = QUADRATIC_IRRATIONALS[int(rng.integers(len(QUADRATIC_IRRATIONALS)))]
    lam = float(rng.uniform(0.5, 1.5))
    theta = float(rng.uniform())
    cases.append(Case(
        "stability-mathieu",
        {"experiment": "stability", "operator": {
            "kind": "almost-mathieu", "alpha": quadratic_value(alpha_spec),
            "lambda": lam, "theta": theta},
         "n_range": _geometric(stab_top // 16, stab_top)},
        {"oracle": "stability", "alpha": quadratic_value(alpha_spec), "lambda": lam,
         "theta": theta},
    ))
    return cases


# ---------------------------------------------------------------------------
# small-configs


def _small_configs(rng, tiny: bool) -> list[Case]:
    per_kind = 3 if tiny else 25
    cases: list[Case] = []

    def add(kind, i, config, check):
        config = {"experiment": kind, **config}
        cases.append(Case(f"{kind}-{i:02d}", config, check))

    for i in range(per_kind):
        # tridiagonal symbols have an exact ratio recurrence
        sym = dominant_symbol(rng, 1, i % 2 == 0, float(rng.uniform(0.2, 0.4)))
        if i % 3 == 0:
            sizes = {"n_range": list(range(1, 17 + i))}
        elif i % 3 == 1:
            sizes = {"n_range": _geometric(2, 64)}
        else:
            p, q = RATIONALS[i % len(RATIONALS)]
            sizes = {"distinguished": {"rational": [p, q], "length": max(1, 48 // q)}}
        add("szego-ratio", i, {"symbol": symbol_json(sym), **sizes, "tolerance": 1e-6},
            {"oracle": "tridiagonal-ratio", "symbol": sym})

    for i in range(per_kind):
        sym = dominant_symbol(rng, 1 + i % 2, i % 2 == 0, float(rng.uniform(0.2, 0.4)))
        add("strong-szego", i,
            {"symbol": symbol_json(sym), "n_range": [8, 16, 24, 32 + i], "tolerance": 1e-8},
            {"oracle": "strong-szego", "symbol": sym})

    for i in range(per_kind):
        amplitude = float(rng.uniform(0.5, 1.5))
        band = {"kind": "band-ap", "domain": "Z", "diagonals": {
            "0": _ap_cosines(rng, 1 + i % 2, amplitude),
            "1": [{"freq": 0.0, "re": 1.0, "im": 0.0}],
            "-1": [{"freq": 0.0, "re": 1.0, "im": 0.0}],
        }}
        spec = QUADRATIC_IRRATIONALS[i % len(QUADRATIC_IRRATIONALS)]
        if i % 2:
            sizes, last = {"n_range": [16, 32, 48 + i % 16]}, 48 + i % 16
        else:
            sizes = {"distinguished": {"alpha": quadratic_value(spec),
                                       "length": distinguished_length(spec, 64)}}
            last = last_denominator(spec, 64)
        coeffs = [0.0, 0.0, 1.0] if i % 3 else [1.0, 0.5, 0.0, 0.25]
        add("eigen-dist", i,
            {"operator": band, "g": {"kind": "poly", "coeffs": coeffs}, **sizes,
             "tolerance": moment_tolerance(coeffs, 2 + amplitude, last)},
            {"oracle": "trace-moment", "operator": band, "coeffs": coeffs,
             "prediction": "diagonal"})

    for i in range(per_kind):
        sym = dominant_symbol(rng, 1 + i % 3, i % 2 == 0, float(rng.uniform(0.3, 0.9)))
        add("singular-dist", i,
            {"symbol": symbol_json(sym), "g": {"kind": "power", "k": 2},
             "n_range": [8, 16, 32 + i], "tolerance": frobenius_tolerance(sym, 32 + i)},
            {"oracle": "frobenius", "symbol": sym})

    for i in range(per_kind):
        spec = QUADRATIC_IRRATIONALS[i % len(QUADRATIC_IRRATIONALS)]
        alpha = quadratic_value(spec)
        lam = float(rng.uniform(0.5, 2.5))
        theta = float(rng.uniform())
        config = {"alpha": alpha, "lambda": lam, "theta": theta,
                  "g": {"kind": "power", "k": 2},
                  "distinguished": {"length": distinguished_length(spec, 64)},
                  "tolerance": 0.5}
        if i % 2:
            config["predicted"] = [2 + lam * lam / 2, 0.0]
        add("mathieu-dist", i, config,
            {"oracle": "mathieu-x2", "lambda": lam, "alpha": alpha, "theta": theta,
             "spec": spec})

    for i in range(per_kind):
        if i % 3 == 2:
            p, q = RATIONALS[i % len(RATIONALS)]
            add("cf-expand", i, {"alpha": p / q, "max_terms": 32},
                {"oracle": "cf-rational", "p": p, "q": q})
        else:
            spec = QUADRATIC_IRRATIONALS[i % len(QUADRATIC_IRRATIONALS)]
            below_cap = sum(1 for q in denominators(quadratic_quotients(spec, 40)) if q <= 10**6)
            terms = min(8 + i % 6, below_cap)
            add("cf-expand", i, {"alpha": quadratic_value(spec), "max_terms": terms},
                {"oracle": "cf-quadratic", "quotients": quadratic_quotients(spec, terms),
                 "fibonacci": spec == QUADRATIC_IRRATIONALS[0]})

    for i in range(per_kind):
        k = 1 + i % 3
        first, second = (-k, k) if i % 2 else (k, -k)
        factors = [
            {"kind": "toeplitz", "symbol": {str(first): _pair(np.exp(2j * np.pi * rng.uniform()))}},
            {"kind": "toeplitz", "symbol": {str(second): [1.0, 0.0]}},
        ]
        if i % 4 == 3:
            factors.insert(0, {"kind": "projection"})
        if i % 2:
            sizes = {"n_range": [8, 16, 32 + i]}
        else:
            sizes = {"distinguished": {"rational": list(RATIONALS[i % len(RATIONALS)]),
                                       "length": 3}}
        # P T(z^-k) Q_n T(z^k) P has rank min(k, n); P T(z^k) Q_n T(z^-k) P is 0
        add("folner", i,
            {"operator": {"kind": "composite", "products": [factors]}, **sizes,
             "tolerance": 0.5},
            {"oracle": "folner", "k": k if first < 0 else 0})

    for i in range(per_kind):
        spec = QUADRATIC_IRRATIONALS[i % len(QUADRATIC_IRRATIONALS)]
        alpha, lam, theta = quadratic_value(spec), float(rng.uniform(0.5, 1.5)), float(rng.uniform())
        op = {"kind": "almost-mathieu", "alpha": alpha, "lambda": lam, "theta": theta}
        if i % 2:
            sizes = {"n_range": [4, 8, 16, 32, 48 + i % 16]}
        else:
            sizes = {"distinguished": {"alpha": alpha, "length": distinguished_length(spec, 64)}}
        add("stability", i, {"operator": op, **sizes},
            {"oracle": "stability", "alpha": alpha, "lambda": lam, "theta": theta})
    return cases


_GENERATORS = {
    "det-sweep": _det_sweep,
    "spectral-sweep": _spectral_sweep,
    "small-configs": _small_configs,
}


def generate(workload: str, seed: int, tiny: bool = False) -> list[Case]:
    """The workload's configs for this seed (outputs not yet assigned).

    ``tiny`` shrinks every size for the harness self-test.
    """
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return _GENERATORS[workload](rng, tiny)
