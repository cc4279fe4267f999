"""Almost periodic sequences on the integers.

An almost periodic sequence here is a finite frequency sum
a(n) = sum_j c_j e^{2 pi i alpha_j n} with alpha_j in [0, 1).  The module
computes mean values, continued fraction expansions, and the
distinguished sequences of section sizes along which shifted copies of an
operator with such coefficients return to it in norm: multiples of the
period q in the rational case, continued fraction denominators q_n in the
irrational case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np

# Frequencies closer than this (mod 1) are merged; float inputs carry noise.
FREQ_TOL = 1e-12

# Continued fraction residuals below this are treated as exact rationals.
RATIONAL_RESIDUAL = 1e-15

# Defaults of `expand_cf`: at most this many quotients, denominators up to the cap.
DEFAULT_MAX_TERMS = 32
DEFAULT_Q_CAP = 10**6


class APFunction:
    """Finite-frequency almost periodic sequence on the integers.

    Frequencies are reduced mod 1 and deduplicated; for real-valued
    functions (terms pair conjugately) evaluation goes through a paired
    path returning exactly real values, so that self-adjoint operators
    built from them give exactly Hermitian sections.
    """

    __slots__ = ("terms", "_real_form")

    def __init__(self, terms: Iterable[tuple[float, complex]]):
        merged: list[tuple[float, complex]] = []
        for freq, coeff in terms:
            f = float(freq) % 1.0
            if f > 1.0 - FREQ_TOL:
                f = 0.0
            c = complex(coeff)
            for i, (f0, c0) in enumerate(merged):
                if _circle_distance(f, f0) <= FREQ_TOL:
                    merged[i] = (f0, c0 + c)
                    break
            else:
                merged.append((f, c))
        # checked after the merge: two finite coefficients can sum to inf
        if not all(
            math.isfinite(f) and math.isfinite(c.real) and math.isfinite(c.imag) for f, c in merged
        ):
            raise ValueError("frequencies and coefficients must be finite")
        self.terms = tuple(sorted((f, c) for f, c in merged if c != 0))
        self._real_form = self._pair_terms()

    @classmethod
    def constant(cls, c) -> "APFunction":
        """What ``cls([(0.0, c)])`` gives, without its merge, sort and pairing."""
        c = complex(c)
        if not (math.isfinite(c.real) and math.isfinite(c.imag)):
            raise ValueError("frequencies and coefficients must be finite")
        a = cls.__new__(cls)
        a.terms = ((0.0, c),) if c != 0 else ()
        a._real_form = (0.0 + c.real, []) if c.imag == 0 else None
        return a

    @classmethod
    def cosine(cls, amplitude: float, freq: float, phase: float = 0.0) -> "APFunction":
        """amplitude * cos(2 pi (n freq + phase)) as a conjugate pair of terms."""
        half = 0.5 * amplitude * np.exp(2j * np.pi * phase)
        return cls([(freq, half), (-freq, np.conj(half))])

    def _pair_terms(self):
        """(constant, [(freq, coeff)]) covering each conjugate pair once, or
        None when the function is not real-valued."""
        const = 0.0
        open_terms = dict(enumerate(self.terms))
        picked: list[tuple[float, complex]] = []
        for i, (f, c) in enumerate(self.terms):
            if i not in open_terms:
                continue
            if _circle_distance(2.0 * f, 0.0) <= 2.0 * FREQ_TOL:
                # self-paired frequency (0 or 1/2): coefficient must be real
                if c.imag != 0.0:
                    return None
                if f == 0.0:
                    const += c.real
                else:
                    picked.append((f, 0.5 * c.real))
                del open_terms[i]
                continue
            partner = None
            for j, (f2, c2) in open_terms.items():
                if j != i and _circle_distance(f + f2, 0.0) <= FREQ_TOL:
                    partner = j
                    break
            if partner is None:
                return None
            c2 = self.terms[partner][1]
            if abs(c2 - c.conjugate()) > FREQ_TOL * max(1.0, abs(c)):
                return None
            picked.append((f, c))
            del open_terms[i]
            del open_terms[partner]
        return (const, picked)

    @property
    def is_real_valued(self) -> bool:
        return self._real_form is not None

    @property
    def sup_bound(self) -> float:
        """sum |c| over the terms; inf, not OverflowError, past the float range."""
        return float(sum(math.hypot(c.real, c.imag) for _, c in self.terms))

    def __call__(self, n):
        return eval_ap(self, n)

    def __eq__(self, other):
        return isinstance(other, APFunction) and self.terms == other.terms

    def __repr__(self):
        return f"APFunction({list(self.terms)!r})"


def _circle_distance(x: float, y: float) -> float:
    d = (x - y) % 1.0
    return min(d, 1.0 - d)


def eval_ap(a: APFunction, n):
    """a(n) = sum_j c_j e^{2 pi i alpha_j n}; n may be an integer or array.

    Real-valued functions are evaluated as const + sum 2 Re(c e^{2 pi i f n})
    over one member of each conjugate pair, giving exactly real output.
    """
    nv = np.asarray(n, dtype=np.float64)
    if a._real_form is not None:
        const, picked = a._real_form
        out = np.full(nv.shape, const, dtype=np.float64)
        for f, c in picked:
            out += 2.0 * (c * np.exp(2j * np.pi * f * nv)).real
        result = out.astype(np.complex128)
    else:
        result = np.zeros(nv.shape, dtype=np.complex128)
        for f, c in a.terms:
            result += c * np.exp(2j * np.pi * f * nv)
    if np.isscalar(n) or nv.ndim == 0:
        return complex(result)
    return result


def mean_value(a: APFunction) -> complex:
    """M(a): the coefficient at frequency zero (0 if absent)."""
    for f, c in a.terms:
        if f == 0.0:
            return c
    return 0j


@dataclass(frozen=True)
class ContinuedFraction:
    """Partial quotients and convergents p_n/q_n of alpha in (0, 1).

    The convergents obey p_n = b_n p_{n-1} + p_{n-2},
    q_n = b_n q_{n-1} + q_{n-2} with p_0 = 0, p_1 = 1, q_0 = 1, q_1 = b_1,
    computed in exact integer arithmetic.
    """

    alpha: float
    quotients: tuple[int, ...]
    convergents: tuple[tuple[int, int], ...]
    terminated: str  # 'rational' | 'max-terms' | 'q-cap'

    def denominators(self) -> tuple[int, ...]:
        return tuple(q for _, q in self.convergents)


def expand_cf(
    alpha: float, max_terms: int = DEFAULT_MAX_TERMS, q_cap: int = DEFAULT_Q_CAP
) -> ContinuedFraction:
    """Floor-and-invert continued fraction expansion of alpha in (0, 1).

    Stops at ``max_terms`` quotients, when a denominator would exceed
    ``q_cap``, or as ``"rational"`` when the residual drops below the
    rational-detection threshold or the convergent reproduces alpha; the stop
    reason is recorded, never silent.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie strictly between 0 and 1, got {alpha}")
    if max_terms < 1:
        raise ValueError("max_terms must be >= 1")
    quotients: list[int] = []
    convergents: list[tuple[int, int]] = []
    p_prev, p_curr = 1, 0  # p_0 = 0 with p_{-1} = 1
    q_prev, q_curr = 0, 1  # q_0 = 1 with q_{-1} = 0
    x = target = float(alpha)
    terminated = "max-terms"
    for _ in range(max_terms):
        inv = 1.0 / x
        b = int(math.floor(inv))
        # float noise can leave 1/x just below the last quotient of a rational,
        # so the nearest integer is tried as that quotient first
        last = round(inv)
        exact = (last * p_curr + p_prev) / (last * q_curr + q_prev) == target
        if exact:
            b = last
        p_next = b * p_curr + p_prev
        q_next = b * q_curr + q_prev
        if q_next > q_cap:
            terminated = "q-cap"
            break
        quotients.append(b)
        convergents.append((p_next, q_next))
        p_prev, p_curr = p_curr, p_next
        q_prev, q_curr = q_curr, q_next
        residual = inv - b
        # threshold scaled by the reciprocal: division noise grows with 1/x
        if exact or residual < RATIONAL_RESIDUAL * max(1.0, inv):
            terminated = "rational"
            break
        x = residual
    return ContinuedFraction(alpha, tuple(quotients), tuple(convergents), terminated)


def convergent_error_bound(cf: ContinuedFraction, index: int) -> float:
    """|alpha - p_n/q_n| < 1/(q_n q_{n+1}) for interior n; 1/q_n^2 for the last."""
    p, q = cf.convergents[index]
    if index + 1 < len(cf.convergents):
        q_next = cf.convergents[index + 1][1]
        return 1.0 / (q * q_next)
    return 1.0 / (q * q)


def check_approximation_bounds(cf: ContinuedFraction) -> bool:
    """Verify |alpha q_n - p_n| < 1/q_{n+1} at every interior index.

    Checked in exact rational arithmetic on the binary value of alpha.  When
    the last convergent p_N/q_N reproduces alpha to float precision, alpha is
    that rational and the bound at the last interior index is an equality:
    there it may be met with equality, up to the rounding of alpha.
    """
    exact = Fraction(cf.alpha)
    if not cf.convergents:
        return True
    p_last, q_last = cf.convergents[-1]
    terminal = p_last / q_last == cf.alpha
    rounding = abs(exact - Fraction(p_last, q_last))
    for i in range(len(cf.convergents) - 1):
        p, q = cf.convergents[i]
        q_next = cf.convergents[i + 1][1]
        error = abs(exact * q - p)
        if terminal and i == len(cf.convergents) - 2:
            if error > Fraction(1, q_next) + q * rounding:
                return False
        elif error >= Fraction(1, q_next):
            return False
    return True


@dataclass(frozen=True)
class DistinguishedSequence:
    """Strictly increasing section sizes h(1) < h(2) < ... along which the
    operator is its own limit operator."""

    values: tuple[int, ...]
    source: str  # 'rational-period' | 'cf-denominators'

    def __post_init__(self):
        if any(b <= a for a, b in zip(self.values, self.values[1:])):
            raise ValueError("distinguished sequence must be strictly increasing")
        if self.values and self.values[0] < 1:
            raise ValueError("distinguished sequence values must be positive")


def distinguished_sequence(freq_base, length: int) -> DistinguishedSequence:
    """Distinguished sequence for the base frequency.

    A rational base p/q (given as a Fraction or (p, q) pair) yields
    h(n) = q n; an irrational float yields the strictly increasing continued
    fraction denominators q_n.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    if isinstance(freq_base, tuple):
        freq_base = Fraction(freq_base[0], freq_base[1])
    if isinstance(freq_base, Fraction):
        q = freq_base.denominator
        return DistinguishedSequence(
            tuple(q * n for n in range(1, length + 1)), "rational-period"
        )
    alpha = float(freq_base)
    cf = expand_cf(alpha, max_terms=length + 8)
    values: list[int] = []
    for q in cf.denominators():
        if not values or q > values[-1]:
            values.append(q)
        if len(values) == length:
            break
    if len(values) < length:
        raise ValueError(
            f"continued fraction expansion of {alpha} yields only "
            f"{len(values)} distinct denominators (terminated: {cf.terminated})"
        )
    return DistinguishedSequence(tuple(values), "cf-denominators")
