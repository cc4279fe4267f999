"""Trigonometric symbols on the unit circle.

A symbol is a function a(e^{it}) = sum_k a_k e^{ikt} with finitely many
nonzero Fourier coefficients.  This module samples symbols on uniform
grids, takes the continuous branch of log a there, and computes the two
constants that govern Toeplitz determinant asymptotics: the geometric mean
G[a] = exp (log a)_0 and the constant E[a] = exp sum_{k>=1} k (log a)_k
(log a)_{-k}, together with circle averages (1/2pi) int g(a).

Every value of a symbol comes from one inverse FFT on a uniform grid
(`sample_circle`), exactly real for a real-valued symbol.  Both constants
read one sampling of log a (`_sample_log`): the default grid of the
bandwidth, doubled until the upper quarter of the computed coefficients
sits at the rounding floor, and at most to MAX_GRID_FACTOR times the
default grid.
"""

from __future__ import annotations

import math
from typing import Mapping, NamedTuple

import numpy as np

# Below this fraction of max |a| the grid data of log a is meaningless.
ZERO_PROXIMITY_RATIO = 1e-8

# Rounding floor of the computed coefficients of log a, in units of
# eps * max_k |(log a)_k|.  The FFT of the log samples leaves every
# coefficient an absolute error of about that unit (a median of 0.04 and at
# most 0.35 of it in the rounding-noise tails of the benchmark's 540
# strong-szego symbols); a coefficient below the floor cannot be told from
# 0.  The grid of log a doubles until its upper coefficients reach the
# floor, and the E[a] tail bound counts a pair with a factor below it as a
# resolved 0.
LOG_COEFFICIENT_FLOOR = 16.0

# The grid of log a doubles at most to this multiple of the default grid.
MAX_GRID_FACTOR = 64


class ZeroProximityError(ValueError):
    """Symbol passes too close to zero on or between the sampling grid points."""


class BranchError(ValueError):
    """log a has no continuous branch (nonzero winding number)."""


class TrigPolynomial:
    """Finite Fourier series: coefficient map {offset k: a_k}.

    Real-valued symbols (a_{-k} = conj(a_k) for every k) are detected:
    `sample_circle` samples them through a real inverse FFT, so their
    samples are exactly real and sections built from them are exactly
    Hermitian.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[int, complex]):
        clean = {}
        for k, v in coeffs.items():
            c = complex(v)
            if not (math.isfinite(c.real) and math.isfinite(c.imag)):
                raise ValueError(f"coefficient at offset {k} is not finite")
            if c != 0:
                clean[int(k)] = c
        self.coeffs = dict(sorted(clean.items()))

    @property
    def bandwidth(self) -> int:
        return max(map(abs, self.coeffs), default=0)

    @property
    def is_real_valued(self) -> bool:
        return all(
            self.coeffs.get(-k, 0j) == c.conjugate() for k, c in self.coeffs.items()
        )

    def __eq__(self, other):
        return isinstance(other, TrigPolynomial) and self.coeffs == other.coeffs

    def __repr__(self):
        return f"TrigPolynomial({self.coeffs!r})"


class SzegoConstant(NamedTuple):
    value: complex
    tail_bound: float


def _default_grid(bandwidth: int) -> int:
    n = 1024
    while n < 8 * max(1, bandwidth):
        n *= 2
    return n


def sample_circle(a: TrigPolynomial, n: int) -> np.ndarray:
    """Values of a on the uniform grid t_j = 2 pi j / n, by one inverse DFT.

    a_k goes into bin k mod n; the folding is exact because e^{ik t_j}
    depends only on k mod n, so grids below the bandwidth stay correct.
    Real-valued symbols give exactly real samples (real inverse FFT).
    """
    spec = np.zeros(n, dtype=np.complex128)
    offsets = np.fromiter(a.coeffs, dtype=np.int64, count=len(a.coeffs))
    values = np.fromiter(a.coeffs.values(), dtype=np.complex128, count=len(a.coeffs))
    np.add.at(spec, offsets % n, values)
    if a.is_real_valued:
        return np.fft.irfft(spec[: n // 2 + 1], n, norm="forward").astype(np.complex128)
    return np.fft.ifft(spec, norm="forward")


def _check_zero_proximity(samples: np.ndarray):
    mags = np.abs(samples)
    peak = float(mags.max()) if mags.size else 0.0
    low = float(mags.min()) if mags.size else 0.0
    if peak == 0.0 or low <= ZERO_PROXIMITY_RATIO * peak:
        raise ZeroProximityError(
            f"symbol passes too close to zero on the grid: min |a| = {low:.3e}, "
            f"max |a| = {peak:.3e}"
        )


def _phase_increments(samples: np.ndarray) -> np.ndarray:
    # Principal argument of consecutive ratios; each step lands in (-pi, pi].
    ratios = samples[1:] / samples[:-1]
    return np.angle(ratios)


def _coefficient_arrays(samples: np.ndarray) -> tuple[complex, np.ndarray, np.ndarray]:
    """DFT coefficients c_0, (c_1..c_K) and (c_{-1}..c_{-K}), K = N/4 for N
    samples; conjugate symmetry is forced exactly when the samples are real."""
    n = len(samples)
    quarter = n // 4
    fft = np.fft.fft(samples) / n
    positive = fft[1 : quarter + 1]
    if np.all(samples.imag == 0.0):
        return complex(fft[0].real), positive, positive.conj()
    return complex(fft[0]), positive, fft[n - quarter :][::-1]


def _log_samples(b: TrigPolynomial, grid: int, stride: int) -> np.ndarray:
    """The continuous branch of log b on ``grid`` uniform points, where the
    symbol is a(z) = b(z^stride).

    Requires no zeros of b on the grid, a phase step below pi/2 between
    neighbouring grid points, and winding number 0 (otherwise there is no
    continuous branch); an error names the winding number of a, ``stride``
    times that of b.  The branch is fixed by unwrapping the argument along
    the grid.
    """
    samples = sample_circle(b, grid)
    _check_zero_proximity(samples)
    increments = _phase_increments(samples)
    closing = float(np.angle(samples[0] / samples[-1]))
    # Unwrapping needs steps well below pi: a real symbol changing sign steps
    # by +-pi, and two such steps of opposite signed zero cancel in the winding.
    largest = max(float(np.abs(increments).max()), abs(closing))
    if largest >= np.pi / 2:
        raise ZeroProximityError(f"phase of a turns by {largest:.3e} rad between grid points")
    winding = stride * int(round((float(np.sum(increments)) + closing) / (2.0 * np.pi)))
    if winding != 0:
        raise BranchError(
            f"log a has no continuous branch: winding number {winding}"
        )
    phases = np.concatenate(([0.0], np.cumsum(increments))) + float(
        np.angle(samples[0])
    )
    logs = np.log(np.abs(samples)) + 1j * phases
    if np.all(phases == 0.0):
        logs = logs.real + 0j  # real positive symbol: keep logs exactly real
    return logs


class _LogCoefficients(NamedTuple):
    """(log a)_0, (log a)_{mk} and (log a)_{-mk} for k = 1..N/4, computed on
    N grid points, where m is the ``stride``: log a has no coefficient at an
    offset that is not a multiple of m.  ``capped`` when N is the capped
    grid, not one that resolves log a."""

    c0: complex
    positive: np.ndarray
    negative: np.ndarray
    floor: float  # rounding floor of the computed coefficients
    capped: bool
    stride: int

    def strong_szego_constant(self) -> SzegoConstant:
        """E[a] summed over k <= N/8, with the terms N/8 < k <= N/4 as its
        tail bound, extrapolated past N/4 on the capped grid; the pair of
        offset mk carries the factor mk."""
        half = len(self.positive) // 2
        k = self.stride * np.arange(1, 2 * half + 1)
        pos, neg = self.positive, self.negative
        total = complex(np.sum(k[:half] * pos[:half] * neg[:half]))
        tail = float(np.sum(k[half:] * np.abs(pos[half:]) * np.abs(neg[half:])))
        if self.capped:
            tail += self.stride * _tail_extrapolation(pos, neg, self.floor)
        return SzegoConstant(complex(np.exp(total)), tail)


def _sample_log(a: TrigPolynomial) -> _LogCoefficients:
    """The coefficients of log a from one grid of N points.

    When the offsets of a share the factor m > 1, a(z) = b(z^m) and
    (log a)_{mk} = (log b)_k are its only coefficients, so b is sampled on
    its own grid.  N starts at the default grid of the bandwidth and doubles
    until every computed coefficient of index N/8 < k <= N/4 lies at or
    below the rounding floor ``LOG_COEFFICIENT_FLOOR * eps * max_k
    |(log a)_k|``, or until N reaches MAX_GRID_FACTOR times the default
    grid.  Every grid is checked as `_log_samples` says.
    """
    stride = math.gcd(*a.coeffs) or 1
    if stride > 1:
        a = TrigPolynomial({k // stride: c for k, c in a.coeffs.items()})
    first = _default_grid(a.bandwidth)
    grid = first
    while True:
        c0, positive, negative = _coefficient_arrays(_log_samples(a, grid, stride))
        size_pos, size_neg = np.abs(positive), np.abs(negative)
        peak = max(abs(c0), float(size_pos.max()), float(size_neg.max()))
        floor = LOG_COEFFICIENT_FLOOR * np.finfo(np.float64).eps * peak
        window = slice(grid // 8, None)
        resolved = max(float(size_pos[window].max()), float(size_neg[window].max())) <= floor
        if resolved or grid >= MAX_GRID_FACTOR * first:
            return _LogCoefficients(c0, positive, negative, floor, not resolved, stride)
        grid *= 2


def geometric_mean(a: TrigPolynomial) -> complex:
    """G[a] = exp (log a)_0, the zeroth Fourier coefficient of log a."""
    return complex(np.exp(_sample_log(a).c0))


def strong_szego_constant(a: TrigPolynomial) -> SzegoConstant:
    """E[a] = exp sum_{k>=1} k (log a)_k (log a)_{-k}, plus a tail bound.

    On the grid of N points that `_sample_log` chooses, the series is summed
    over k <= N/8 and the bound sums the terms N/8 < k <= N/4.  When the
    grid stopped at its cap without resolving log a, the bound adds the
    remainder past N/4 extrapolated from the geometric decay of the
    coefficient pair products; a pair at the rounding floor of the computed
    coefficients is a resolved zero.
    """
    return _sample_log(a).strong_szego_constant()


def _tail_extrapolation(positive: np.ndarray, negative: np.ndarray, floor: float) -> float:
    """Geometric extrapolation of sum_{k>K} k |c_k||c_{-k}| from the
    coefficients c_k (``positive``) and c_{-k} (``negative``), k = 1..K.

    A pair with a factor at or below the rounding ``floor`` of the computed
    coefficients is a resolved zero and leaves no remainder; resolved pairs
    that do not decay give inf.
    """
    last = len(positive)
    if min(abs(positive[-1]), abs(negative[-1])) <= floor:
        return 0.0
    pair = lambda k: float(abs(positive[k - 1]) * abs(negative[k - 1]))
    p_last = pair(last)
    steps = min(4, last - 1)
    p_ref = pair(last - steps)
    if p_ref == 0.0 or p_last >= p_ref:
        return math.inf
    q = (p_last / p_ref) ** (1.0 / steps)
    if q >= 1.0:
        return math.inf
    return p_last * (last * q / (1.0 - q) + q / (1.0 - q) ** 2)


def symbol_average(a: TrigPolynomial, g, grid: int) -> complex:
    """(1/N) sum_j g(a(e^{2 pi i j / N})), the trapezoid circle average of
    the `TestFunction` g."""
    return complex(np.mean(g.apply(sample_circle(a, grid))))
