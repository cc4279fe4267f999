"""Symbol analysis checks: circle samples, log branches, G[a] and E[a]."""

import json
import math
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import iv

from szegolab.cli import _parse_symbol
from szegolab.symbols import (
    LOG_COEFFICIENT_FLOOR,
    MAX_GRID_FACTOR,
    BranchError,
    TrigPolynomial,
    ZeroProximityError,
    _check_zero_proximity,
    _coefficient_arrays,
    _default_grid,
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


def folded_samples(a, n):
    """The samples of a on n points from every a_k added into bin k mod n
    by np.add.at, then one inverse FFT (real for a real-valued symbol)."""
    spec = np.zeros(n, dtype=np.complex128)
    offsets = np.array(list(a.coeffs), dtype=np.int64)
    values = np.array(list(a.coeffs.values()), dtype=np.complex128)
    np.add.at(spec, offsets % n, values)
    if a.is_real_valued:
        return np.fft.irfft(spec[: n // 2 + 1], n, norm="forward").astype(np.complex128)
    return np.fft.ifft(spec, norm="forward")


COEFFICIENT_PARTS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(-1e3, 1e3, allow_nan=False)
)


@st.composite
def symbols_with_signed_zeros(draw):
    """A symbol of bandwidth <= 12 whose coefficients may carry -0.0 parts;
    real-valued (conjugate pairs) about half the time."""
    offsets = draw(st.lists(st.integers(-12, 12), min_size=1, max_size=8, unique=True))
    real = draw(st.booleans())
    coeffs = {}
    for k in offsets:
        c = complex(draw(COEFFICIENT_PARTS), draw(COEFFICIENT_PARTS))
        if real:
            c = complex(c.real, math.copysign(0.0, c.imag)) if k == 0 else c
            coeffs[-k] = c.conjugate()
        coeffs[k] = c
    a = TrigPolynomial(coeffs)
    assume(a.coeffs)
    return a


@settings(max_examples=200, deadline=None, derandomize=True)
@given(a=symbols_with_signed_zeros(), n=st.integers(1, 64))
def test_sample_circle_is_the_add_at_fold_bit_for_bit(a, n):
    # folding grids (n <= 2 * bandwidth) and grids with one a_k per bin alike:
    # a coefficient's -0.0 part reads +0.0 once added into its zero bin, so
    # a faster scatter into the bins has to keep these bits
    samples = sample_circle(a, n)
    assert samples.tobytes() == folded_samples(a, n).tobytes()


def _reference_phase_increments(samples):
    ratios = samples[1:] / samples[:-1]
    return np.angle(ratios)


def _reference_log_samples(b, grid, stride):
    """log b as the step-by-step unwrapping sampled it: the open chain of
    steps, the closing step apart, the winding from their pairwise sum."""
    samples = sample_circle(b, grid)
    mags = np.abs(samples)
    _check_zero_proximity(mags)
    increments = _reference_phase_increments(samples)
    closing = float(np.angle(samples[0] / samples[-1]))
    largest = max(float(np.abs(increments).max()), abs(closing))
    if largest >= np.pi / 2:
        raise ZeroProximityError(f"phase of a turns by {largest:.3e} rad between grid points")
    winding = stride * int(round((float(np.sum(increments)) + closing) / (2.0 * np.pi)))
    if winding != 0:
        raise BranchError(f"log a has no continuous branch: winding number {winding}")
    phases = np.concatenate(([0.0], np.cumsum(increments))) + float(np.angle(samples[0]))
    logs = np.log(mags) + 1j * phases
    if np.all(phases == 0.0):
        logs = logs.real + 0j
    return logs


def _reference_sample_log(a, log_samples=_reference_log_samples):
    """(c0, positive, negative, floor, capped, stride) as `_sample_log`
    computes them, on ``log_samples``."""
    stride = math.gcd(*a.coeffs) or 1
    if stride > 1:
        a = TrigPolynomial({k // stride: c for k, c in a.coeffs.items()})
    first = grid = _default_grid(a.bandwidth)
    while True:
        logs = log_samples(a, grid, stride)
        n = len(logs)
        fft = np.fft.fft(logs) / n
        positive = fft[1 : n // 4 + 1]
        if np.all(logs.imag == 0.0):
            c0, negative = complex(fft[0].real), positive.conj()
        else:
            c0, negative = complex(fft[0]), fft[n - n // 4 :][::-1]
        size_pos, size_neg = np.abs(positive), np.abs(negative)
        peak = max(abs(c0), float(size_pos.max()), float(size_neg.max()))
        floor = LOG_COEFFICIENT_FLOOR * np.finfo(np.float64).eps * peak
        window = slice(grid // 8, None)
        resolved = max(float(size_pos[window].max()), float(size_neg[window].max())) <= floor
        if resolved or grid >= MAX_GRID_FACTOR * first:
            return c0, positive, negative, floor, not resolved, stride
        grid *= 2


def _log_outcome(sample, a):
    """The bits of a sampling of log a, or the type and message of its error."""
    try:
        c0, positive, negative, floor, capped, stride = sample(a)
    except (ZeroProximityError, BranchError) as exc:
        return type(exc), str(exc)
    return (np.complex128(c0).tobytes(), positive.tobytes(), negative.tobytes(),
            np.float64(floor).tobytes(), capped, stride)


@st.composite
def log_symbols(draw):
    """Real-positive, complex and sign-changing symbols, and symbols of
    winding number d != 0, with their offsets spread by a stride m, so that
    a(z) = b(z^m)."""
    kind = draw(st.sampled_from(["real-positive", "complex", "sign-changing", "winding"]))
    stride = draw(st.sampled_from([1, 1, 2, 3, 16]))
    real = kind in ("real-positive", "sign-changing")
    coeffs = {}
    for k in draw(st.lists(st.integers(-5, 5).filter(bool), min_size=1, max_size=5, unique=True)):
        c = complex(draw(COEFFICIENT_PARTS), 0.0 if real else draw(COEFFICIENT_PARTS))
        coeffs[k] = c
        if real:
            coeffs[-k] = c.conjugate()
    spread = sum(abs(c) for c in coeffs.values())
    assume(spread > 0)
    dominant = draw(st.sampled_from([-2, -1, 1, 2])) if kind == "winding" else 0
    margin = draw(st.sampled_from([1e-6, 1e-2, 0.5, 2.0]))
    if kind == "sign-changing":  # a_0 inside the range of the rest: a changes sign
        coeffs[0] = complex(draw(st.floats(-0.5, 0.5)) * spread)
    else:
        phase = 1.0 if real else complex(*draw(st.tuples(COEFFICIENT_PARTS, COEFFICIENT_PARTS)))
        if phase == 0:
            phase = 1.0
        coeffs[dominant] = (1.0 + margin) * spread * phase / abs(phase)
        if real and dominant == 0:
            coeffs[0] = complex(coeffs[0].real)
    return TrigPolynomial({stride * k: c for k, c in coeffs.items()})


# 1 - 0.999 e^{i(t + h/2)} on the default grid of 1024 points, h = 2 pi / 1024:
# its phase turns fastest at t = -h/2, inside the closing step
CLOSING_STEP_LARGEST = TrigPolynomial({0: 1.0, 1: -0.999 * np.exp(0.5j * 2 * np.pi / 1024)})


@settings(max_examples=150, deadline=None, derandomize=True)
@given(a=log_symbols())
@example(a=CLOSING_STEP_LARGEST)
def test_log_sampling_is_the_stepwise_unwrapping_bit_for_bit(a):
    # one pass over the closed ring of phase steps gives the same c0,
    # coefficients, floor, cap and stride, and the same errors with their
    # winding number, as the open chain of steps plus a closing step
    assert _log_outcome(lambda b: tuple(_sample_log(b)), a) == _log_outcome(_reference_sample_log, a)


def _ring_log_samples(b, grid, stride):
    """log b by unwrapping the phase over the closed ring of samples, as
    `_log_samples` takes it for a symbol that is not real-valued, and took
    it for every symbol before real ones got their constant phase: the
    oracle of that real route."""
    samples = sample_circle(b, grid)
    mags = np.abs(samples)
    _check_zero_proximity(mags)
    ring = np.empty_like(samples)
    ring[:-1] = samples[1:]
    ring[-1] = samples[0]
    steps = np.angle(ring / samples)
    largest = float(np.abs(steps).max())
    if largest >= np.pi / 2:
        raise ZeroProximityError(f"phase of a turns by {largest:.3e} rad between grid points")
    phases = np.empty(grid)
    phases[0] = 0.0
    np.cumsum(steps[:-1], out=phases[1:])
    winding = stride * int(round((float(phases[-1]) + float(steps[-1])) / (2.0 * np.pi)))
    if winding != 0:
        raise BranchError(f"log a has no continuous branch: winding number {winding}")
    phases += float(np.angle(samples[0]))
    logs = np.log(mags) + 1j * phases
    if not phases.any():
        logs = logs.real + 0j  # real positive symbol: keep logs exactly real
    return logs


@st.composite
def real_symbols(draw):
    """Real-valued symbols of bandwidth <= 3 (a_{-k} = conj a_k, complex
    a_k included): positive, negative or changing sign, with their offsets
    spread by a stride m."""
    sign = draw(st.sampled_from([1.0, -1.0, 0.0]))
    stride = draw(st.sampled_from([1, 1, 2, 3]))
    coeffs = {}
    for k in draw(st.lists(st.integers(1, 3), min_size=1, max_size=3, unique=True)):
        coeffs[k] = complex(draw(COEFFICIENT_PARTS), draw(COEFFICIENT_PARTS))
        coeffs[-k] = coeffs[k].conjugate()
    spread = sum(abs(c) for c in coeffs.values())
    assume(spread > 0)
    if sign:  # |a_0| above the rest: a keeps the sign of a_0
        coeffs[0] = complex(sign * (1.0 + draw(st.sampled_from([1e-6, 1e-2, 0.5, 2.0]))) * spread)
    else:  # a_0 inside the range of the rest: a changes sign
        coeffs[0] = complex(draw(st.floats(-0.5, 0.5)) * spread)
    a = TrigPolynomial({stride * k: c for k, c in coeffs.items()})
    assume(a.is_real_valued)  # a_0 of 0 drops out of the map, which stays real-valued
    return a


@settings(max_examples=150, deadline=None, derandomize=True)
@given(a=real_symbols())
@example(a=TrigPolynomial({0: -2.0, 1: -0.5, -1: -0.5}))
@example(a=TrigPolynomial({0: 7.1001453388615576e-307, 1: 3.5500691193616596e-307j, -1: -3.5500691193616596e-307j}))
def test_real_symbol_log_is_the_ring_unwrapping_bit_for_bit(a):
    # log |a| plus the constant phase 0 or pi gives the c0, coefficients,
    # floor, cap and stride that unwrapping the phase over the ring of
    # samples gives, and a sign change fails with the same message
    got = _log_outcome(lambda b: tuple(_sample_log(b)), a)
    try:
        expected = _log_outcome(lambda b: _reference_sample_log(b, _ring_log_samples), a)
    except RuntimeWarning:
        # samples near the subnormal range overflow the quotient of
        # neighbours: the ring has no phase, the constant phase still has one
        assert got[0] is ZeroProximityError or np.isfinite(np.frombuffer(got[0], np.complex128)).all()
        return
    assert got == expected


def test_real_symbol_takes_the_constant_phase():
    # no phase steps are taken for a real symbol, strided or not: -2 - cos t
    # and its stride-4 spread have c0 = log G + i pi with G = (2 + sqrt 3)/2
    for a in (TrigPolynomial({0: -2.0, 1: -0.5, -1: -0.5}), TrigPolynomial({0: -2.0, 4: -0.5, -4: -0.5})):
        with mock.patch.object(np, "angle", side_effect=AssertionError("phase steps taken")):
            log = _sample_log(a)
        assert log.c0.imag == math.pi
        assert log.c0.real == pytest.approx(LOG_MEAN_2COS, abs=1e-15)
        assert log.stride == max(a.coeffs)
    with pytest.raises(ZeroProximityError, match=r"^phase of a turns by 3\.142e\+00 rad between grid points$"):
        geometric_mean(TrigPolynomial({0: 1.0, 1: 1.0, -1: 1.0}))


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


def test_log_of_a_complex_symbol_below_the_overflow_scale():
    # 1 / |sample| overflows near 2e-309: the samples are scaled by a power
    # of two before the ring division (an overflow warning fails the test)
    a = TrigPolynomial({0: 2e-309, 1: 1e-309j})
    assert abs(geometric_mean(a) - 2e-309) <= 1e-12 * 2e-309
    assert abs(strong_szego_constant(a).value - 1) <= 1e-12


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
