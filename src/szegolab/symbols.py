"""Trigonometric symbols on the unit circle.

A symbol is a function a(e^{it}) = sum_k a_k e^{ikt} with finitely many
nonzero Fourier coefficients.  This module evaluates symbols, takes the
continuous branch of log a on a uniform grid, and computes the two
constants that govern Toeplitz determinant asymptotics: the geometric mean
G[a] = exp (log a)_0 and the constant E[a] = exp sum_{k>=1} k (log a)_k
(log a)_{-k}, together with circle averages (1/2pi) int g(a).

Uniform grids are sampled by one inverse FFT (`sample_circle`); arbitrary
angles go through the direct sum of `evaluate`, which pairs the terms of a
real-valued symbol so its values are exactly real.
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
# strong-szego symbols); a coefficient pair with a factor below the floor
# cannot be told from 0, so the E[a] tail bound counts it as a resolved 0.
LOG_COEFFICIENT_FLOOR = 16.0


class ZeroProximityError(ValueError):
    """Symbol passes too close to zero on or between the sampling grid points."""


class BranchError(ValueError):
    """log a has no continuous branch (nonzero winding number)."""


class TrigPolynomial:
    """Finite Fourier series: coefficient map {offset k: a_k}.

    Real-valued symbols (a_{-k} = conj(a_k) for every k) are detected:
    `evaluate` sums them through a paired path and `sample_circle` through a
    real inverse FFT, so both return exactly real samples and sections built
    from them are exactly Hermitian.
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

    def coefficient(self, k: int) -> complex:
        return self.coeffs.get(k, 0j)

    @property
    def bandwidth(self) -> int:
        return max(map(abs, self.coeffs), default=0)

    @property
    def is_real_valued(self) -> bool:
        return all(
            self.coeffs.get(-k, 0j) == c.conjugate() for k, c in self.coeffs.items()
        )

    def __call__(self, t):
        return evaluate(self, t)

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


def evaluate(a: TrigPolynomial, t):
    """a(e^{it}) = sum_k a_k e^{ikt}; accepts a scalar angle or an array."""
    tv = np.asarray(t, dtype=np.float64)
    if a.is_real_valued:
        out = np.zeros(tv.shape, dtype=np.float64)
        out += a.coefficient(0).real
        for k, c in a.coeffs.items():
            if k > 0:
                out += 2.0 * (c * np.exp(1j * k * tv)).real
        result = out.astype(np.complex128)
    else:
        result = np.zeros(tv.shape, dtype=np.complex128)
        for k, c in a.coeffs.items():
            result += c * np.exp(1j * k * tv)
    if np.isscalar(t) or tv.ndim == 0:
        return complex(result)
    return result


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


def _coefficient_arrays(
    samples: np.ndarray, max_offset: int
) -> tuple[complex, np.ndarray, np.ndarray]:
    """DFT coefficients c_0, (c_1..c_K) and (c_{-1}..c_{-K}), K = max_offset;
    conjugate symmetry is forced exactly when the samples are real."""
    n = len(samples)
    fft = np.fft.fft(samples) / n
    positive = fft[1 : max_offset + 1]
    if np.all(samples.imag == 0.0):
        return complex(fft[0].real), positive, positive.conj()
    return complex(fft[0]), positive, fft[n - max_offset :][::-1]


def _grid_coefficients(samples: np.ndarray, max_offset: int) -> dict[int, complex]:
    """DFT coefficients for |k| <= max_offset, as {k: c_k}."""
    c0, positive, negative = _coefficient_arrays(samples, max_offset)
    coeffs = {0: c0}
    coeffs.update(zip(range(1, max_offset + 1), positive.tolist(), strict=True))
    coeffs.update(zip(range(-1, -max_offset - 1, -1), negative.tolist(), strict=True))
    return coeffs


def _log_samples(a: TrigPolynomial, grid: int, max_offset: int) -> np.ndarray:
    """The continuous branch of log a on the grid; see `log_coefficients`."""
    if grid < 4 or grid & (grid - 1):
        raise ValueError(f"grid must be a power of two >= 4, got {grid}")
    if max_offset < 0 or grid < 4 * max_offset:
        raise ValueError(
            f"grid {grid} too small for max_offset {max_offset} (need grid >= 4*K)"
        )
    samples = sample_circle(a, grid)
    _check_zero_proximity(samples)
    increments = _phase_increments(samples)
    closing = float(np.angle(samples[0] / samples[-1]))
    # Unwrapping needs steps well below pi: a real symbol changing sign steps
    # by +-pi, and two such steps of opposite signed zero cancel in the winding.
    largest = max(float(np.abs(increments).max()), abs(closing))
    if largest >= np.pi / 2:
        raise ZeroProximityError(f"phase of a turns by {largest:.3e} rad between grid points")
    winding = int(round((float(np.sum(increments)) + closing) / (2.0 * np.pi)))
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


def log_coefficients(a: TrigPolynomial, grid: int, max_offset: int) -> dict[int, complex]:
    """Fourier coefficients {k: (log a)_k}, |k| <= max_offset, of the
    continuous branch of log a, computed on ``grid`` uniform points.

    Requires a power-of-two grid with grid >= 4*max_offset, no zeros of a on
    the grid, a phase step below pi/2 between neighbouring grid points, and
    winding number 0 (otherwise there is no continuous branch).  The branch
    is fixed by unwrapping the argument along the grid.
    """
    return _grid_coefficients(_log_samples(a, grid, max_offset), max_offset)


def geometric_mean(a: TrigPolynomial, grid: int | None = None) -> complex:
    """G[a] = exp (log a)_0, the zeroth Fourier coefficient of log a."""
    n = grid if grid is not None else _default_grid(a.bandwidth)
    return complex(np.exp(log_coefficients(a, n, 0)[0]))


def strong_szego_constant(a: TrigPolynomial, truncation: int) -> SzegoConstant:
    """E[a] = exp sum_{k=1..K} k (log a)_k (log a)_{-k}, plus a tail estimate.

    The infinite series is truncated at K = ``truncation``; the reported tail
    bound sums the next K computed terms and extrapolates the remainder from
    the observed geometric decay of the coefficient pair products; a pair at
    the rounding floor of the computed coefficients is a resolved zero.
    """
    if truncation < 1:
        raise ValueError("truncation must be >= 1")
    extended = 2 * truncation
    n = _default_grid(max(a.bandwidth, extended) * 2)
    c0, positive, negative = _coefficient_arrays(_log_samples(a, n, extended), extended)
    k = np.arange(1, extended + 1)
    total = complex(np.sum(k[:truncation] * positive[:truncation] * negative[:truncation]))
    size_pos, size_neg = np.abs(positive), np.abs(negative)
    tail = float(np.sum(k[truncation:] * size_pos[truncation:] * size_neg[truncation:]))
    peak = max(abs(c0), float(size_pos.max()), float(size_neg.max()))
    floor = LOG_COEFFICIENT_FLOOR * np.finfo(np.float64).eps * peak
    tail += _tail_extrapolation(positive, negative, floor)
    return SzegoConstant(complex(np.exp(total)), tail)


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


def symbol_from_json(obj: Mapping) -> TrigPolynomial:
    coeffs = {}
    for key, val in obj.items():
        k = int(key)
        if isinstance(val, (int, float)):
            coeffs[k] = complex(val)
        else:
            re, im = val
            coeffs[k] = complex(re, im)
    return TrigPolynomial(coeffs)
