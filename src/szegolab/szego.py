"""Determinant ratios, distribution means, limit predictions, Folner checks.

This is the layer that turns operator descriptions into the quantities the
limit theorems speak about: successive section determinant ratios and their
partial limits, the constant 1/((JQAQJ)^{-1})_{00} they converge to along
distinguished sequences, strong Szego determinant ratios, eigenvalue and
singular value distribution means, diagonal-based limit predictions, Folner
trace-norm discrepancies, and observational stability probes.  Every
size-indexed quantity is swept by `sweep`: one measurement per section size
against one predicted limit.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import numkernel
from .numkernel import LogDet
from .operators import (
    BandAPOperator,
    CompositeOperator,
    as_band_operator,
    band_ap_section,
    band_diagonals,
    composite_sections,
    flip_diagonals,
    flip_section,
    reversed_diagonals,
)
from .symbols import TrigPolynomial, _sample_log


class DomainError(ValueError):
    """Test function evaluated outside its declared domain."""

    def __init__(self, message, sample):
        super().__init__(f"{message} (offending sample {sample})")
        self.sample = sample


class MethodError(ValueError):
    """Prediction route does not apply to the given operator or test function."""


class WindowError(ValueError):
    """Averaging window does not fit inside the truncated section."""


class EmptyReportError(RuntimeError):
    """Every requested section was singular; no ratios to report."""


class ResolventZeroError(ZeroDivisionError):
    """The 0-0 entry of the inverted corner vanished."""


class SkippedSize(Exception):
    """A section size without a reportable value; the message is the reason."""


# ---------------------------------------------------------------------------
# test functions


@dataclass(frozen=True)
class TestFunction:
    """A function g applied to spectra and symbol values.

    Two kinds: a 'polynomial' in x with explicit coefficients, and a
    pointwise 'callable'.  The optional domain is ('interval', lo, hi) or
    ('disk', radius); violations raise DomainError carrying the offending
    sample.
    """

    kind: str
    data: tuple
    domain: tuple | None = None
    label: str = ""

    __test__ = False  # keep pytest from collecting this despite the name

    @classmethod
    def polynomial(cls, coeffs, domain=None, label="") -> "TestFunction":
        """Coefficients [c_0, c_1, ...] of the powers of x; stored as the
        nonzero (power, coefficient) terms."""
        terms = tuple((k, complex(c)) for k, c in enumerate(coeffs) if complex(c) != 0)
        return cls("polynomial", terms, domain, label or "poly")

    @classmethod
    def power(cls, k: int) -> "TestFunction":
        return cls.polynomial([0.0] * k + [1.0], label=f"x^{k}")

    @classmethod
    def identity(cls) -> "TestFunction":
        return cls.polynomial([0.0, 1.0], label="x")

    @classmethod
    def from_callable(cls, fn: Callable, domain=None, label="") -> "TestFunction":
        return cls("callable", (fn,), domain, label or getattr(fn, "__name__", "g"))

    @classmethod
    def exp(cls) -> "TestFunction":
        return cls.from_callable(np.exp, label="exp")

    @classmethod
    def log(cls) -> "TestFunction":
        return cls.from_callable(np.log, label="log")

    def x_coefficients(self) -> np.ndarray:
        if self.kind != "polynomial":
            raise MethodError(f"{self.label!r} is not a polynomial in x")
        coeffs = np.zeros(max((p for p, _ in self.data), default=0) + 1, dtype=np.complex128)
        for p, c in self.data:
            coeffs[p] += c
        return coeffs

    def _check_domain(self, values: np.ndarray):
        if self.domain is None:
            return
        kind = self.domain[0]
        if kind == "interval":
            _, lo, hi = self.domain
            tol = 1e-9 * max(1.0, abs(hi - lo))
            bad = (
                (values.real < lo - tol)
                | (values.real > hi + tol)
                | (np.abs(values.imag) > tol * (1.0 + np.abs(values)))
            )
        elif kind == "disk":
            _, radius = self.domain
            bad = np.abs(values) > radius * (1.0 + 1e-9)
        else:
            raise ValueError(f"unknown domain kind {kind!r}")
        if np.any(bad):
            raise DomainError(
                f"value outside {self.domain} for g={self.label}",
                complex(values[np.argmax(bad)]),
            )

    def apply(self, values) -> np.ndarray:
        vals = np.atleast_1d(np.asarray(values, dtype=np.complex128))
        self._check_domain(vals)
        if self.kind == "polynomial":
            out = np.zeros_like(vals)
            for p, c in self.data:
                term = np.ones_like(vals) * c
                if p:
                    term = term * vals**p
                out += term
        else:
            fn = self.data[0]
            with np.errstate(all="ignore"):  # non-finite output handled below
                try:
                    out = np.asarray(fn(vals), dtype=np.complex128)
                except TypeError:
                    out = np.asarray([fn(v) for v in vals], dtype=np.complex128)
        if not np.all(np.isfinite(out.real) & np.isfinite(out.imag)):
            bad = ~(np.isfinite(out.real) & np.isfinite(out.imag))
            raise DomainError(
                f"g={self.label} not finite at sample", complex(vals[np.argmax(bad)])
            )
        return out

    def __call__(self, z):
        return complex(self.apply(np.asarray([z]))[0])


# ---------------------------------------------------------------------------
# reports and the sweep driver


@dataclass(frozen=True, eq=False)  # array columns: compared by identity
class SzegoReport:
    """Per-size empirical values against a predicted constant, as columns:
    row i is sizes[i], values[i] and residuals[i] = |values[i] - predicted|,
    with flags[i] when the report flags its rows (``None`` when it does not)."""

    sizes: tuple[int, ...]
    values: np.ndarray  # complex128
    residuals: np.ndarray  # float64
    flags: tuple[str, ...] | None
    predicted: complex
    skipped: tuple[tuple[int, str], ...] = ()

    def __post_init__(self):
        if any(b <= a for a, b in zip(self.sizes, self.sizes[1:])):
            raise ValueError("report indices must be strictly increasing")
        if not np.isfinite(self.residuals).all():
            raise ValueError("residuals must be finite")

    @property
    def final_residual(self) -> float:
        return float(self.residuals[-1]) if self.sizes else math.nan


class _Sizes(tuple):
    """Section sizes `_validate_sizes` has already checked."""


def _validate_sizes(n_range: Sequence[int]) -> _Sizes:
    if type(n_range) is _Sizes:
        return n_range
    sizes = _Sizes(int(n) for n in n_range)
    if not sizes:
        raise ValueError("empty size range")
    if any(n < 1 for n in sizes):
        raise ValueError("section sizes must be positive")
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError("section sizes must be strictly increasing")
    return sizes


def sweep(
    n_range: Sequence[int],
    measure: Callable[[int], complex],
    predicted: complex | None = None,
) -> SzegoReport:
    """The per-size loop: ``measure(n)`` at every size against one prediction.

    A measurement raising `SkippedSize` records the size and its reason and
    leaves no row; any other error propagates with an ``n=<size>: `` prefix.
    Without a prediction the last value serves as the limit estimate.
    """
    entries: list[tuple[int, complex]] = []
    skipped: list[tuple[int, str]] = []
    for n in _validate_sizes(n_range):
        try:
            entries.append((n, measure(n)))
        except SkippedSize as skip:
            skipped.append((n, str(skip)))
        except Exception as exc:  # carry the failing size with the error
            exc.args = (f"n={n}: {exc}",)
            raise
    if not entries:
        raise EmptyReportError("all requested sections were singular")
    sizes, values = zip(*entries)
    values = np.array(values, dtype=np.complex128)
    pred = complex(predicted) if predicted is not None else complex(values[-1])
    with np.errstate(over="ignore"):  # an infinite residual fails the report's check
        d = values - pred  # np.hypot rounds as abs(complex) does; np.abs may not
        return SzegoReport(sizes, values, np.hypot(d.real, d.imag), None, pred, tuple(skipped))


# ---------------------------------------------------------------------------
# determinant ratios


def det_ratio_sequence(
    A,
    n_range: Sequence[int],
    predicted: complex | None = None,
) -> SzegoReport:
    """Ratios det(section n) / det(section n-1) over the size range.

    ``A`` is anything ``as_band_operator`` accepts.  One banded LU pass up to
    the largest size gives every ratio as a pivot, up to the pass's first
    row swap or zero pivot (`numkernel.band_lu_pivots`).  From that size on
    each ratio comes from the band LU of the two sections (each factored
    once), as exp(difference of log magnitudes) times the phase ratio;
    singular sections are skipped.  Without an explicit prediction the
    final ratio serves as the limit estimate.
    """
    sizes = _validate_sizes(n_range)
    diagonals = band_diagonals(as_band_operator(A), sizes[-1])
    pivots, stop = numkernel.band_lu_pivots(diagonals, sizes[-1])
    pivots = pivots.tolist()
    logdet = functools.cache(lambda k: numkernel.band_logdet(diagonals, k))

    def ratio(n):
        if n <= stop:
            return pivots[n - 1]
        num, den = logdet(n), logdet(n - 1)
        if num.singular_flag or den.singular_flag:
            raise SkippedSize(f"singular section at {'n' if num.singular_flag else 'n-1'}")
        return cmath.exp(num.log_abs - den.log_abs) * (num.phase / den.phase)

    return sweep(sizes, ratio, predicted)


def _corner_of_inverse(diagonals: dict[int, np.ndarray], n: int) -> complex:
    """x[0] of S x = e_0, the 0-0 entry of S^{-1}, for the n x n section S
    in diagonal storage, by one band LU solve."""
    e0 = np.zeros(n, dtype=np.complex128)
    e0[0] = 1.0
    return complex(numkernel.band_solve(diagonals, n, e0)[0])


def det_ratio_via_cramer(A, n: int) -> complex:
    """det(section n-1)/det(section n) as the first component of the solution
    of (W_n A W_n) x = e_0 (Cramer's rule on the reversed section)."""
    return _corner_of_inverse(reversed_diagonals(as_band_operator(A), n), n)


def g_limit_constant(A: BandAPOperator, m: int) -> complex:
    """1 / ((flip section)^{-1})_{00}: the determinant-ratio limit along a
    distinguished sequence, where the operator is its own limit operator."""
    v = _corner_of_inverse(flip_diagonals(as_band_operator(A), m), m)
    if v == 0:
        raise ResolventZeroError("0-0 entry of the inverted flip section is zero")
    return 1.0 / v


@dataclass(frozen=True, kw_only=True, eq=False)
class StrongSzegoReport(SzegoReport):
    """A strong Szego report with the constants it was measured against:
    G[a] and the tail bound of the truncated series for E[a]."""

    geometric_mean: complex
    tail_bound: float


def strong_szego_ratio(a: TrigPolynomial, n_range: Sequence[int]) -> StrongSzegoReport:
    """det T_n(a) / G[a]^n against E[a], both constants from one sampling
    of log a (`symbols.strong_szego_constant` says where its series stops).

    log|det T_n| is the running sum of log|pivot| of one banded LU pass, and
    its phase the running product of the pivot phases; from the pass's first
    row swap or zero pivot on, each determinant comes from the band LU of its
    own section, and a singular section raises.
    """
    sizes = _validate_sizes(n_range)
    log = _sample_log(a)
    c0 = log.c0
    constant = log.strong_szego_constant()
    diagonals = band_diagonals(as_band_operator(a), sizes[-1])
    pivots, stop = numkernel.band_lu_pivots(diagonals, sizes[-1])
    log_abs = np.cumsum(np.log(np.abs(pivots)))
    phases = np.cumprod(pivots / np.abs(pivots))

    def normalized_det(n):
        if n <= stop:
            ld = LogDet(float(log_abs[n - 1]), complex(phases[n - 1]) / abs(phases[n - 1]))
        else:
            ld = numkernel.band_logdet(diagonals, n)
            if ld.singular_flag:
                raise numkernel.SingularMatrixError("singular section", 0.0)
        return cmath.exp(ld.log_abs - n * c0.real) * ld.phase * cmath.exp(-1j * n * c0.imag)

    report = sweep(sizes, normalized_det, constant.value)
    return StrongSzegoReport(
        **vars(report),
        geometric_mean=complex(np.exp(c0)),
        tail_bound=constant.tail_bound,
    )


# ---------------------------------------------------------------------------
# distribution means


def eigen_sample(matrix: np.ndarray) -> np.ndarray:
    """Eigenvalues of a section; Hermitian input takes the self-adjoint path."""
    try:
        return numkernel.eigvals_hermitian(matrix)
    except numkernel.SymmetryError:
        return numkernel.eigvals_general(matrix)


def eigen_mean(eigenvalues: np.ndarray, g: TestFunction) -> complex:
    """(1/n) sum_i g(lambda_i)."""
    return complex(np.mean(g.apply(eigenvalues)))


def singular_mean(singular_values: np.ndarray, g: TestFunction) -> float:
    """(1/n) sum_i g(sigma_i); real because singular values are real."""
    return complex(np.mean(g.apply(singular_values))).real


# ---------------------------------------------------------------------------
# limit predictions


def _band_matmul(
    a: dict[int, np.ndarray], b: dict[int, np.ndarray], m: int
) -> dict[int, np.ndarray]:
    """Product of two banded matrices in diagonal storage.

    (AB)(j+d, j) = sum_{d1+d2=d} A(j+d2+d1, j+d2) B(j+d2, j); the stored
    vectors are zero outside their valid ranges, so only index bounds need
    care.
    """
    out: dict[int, np.ndarray] = {}
    for d1, va in a.items():
        for d2, vb in b.items():
            d = d1 + d2
            if not -m < d < m:
                continue
            lo = max(0, -d2)
            hi = m - max(0, d2)
            if hi <= lo:
                continue
            acc = out.setdefault(d, np.zeros(m, dtype=np.complex128))
            acc[lo:hi] += va[lo + d2 : hi + d2] * vb[lo:hi]
    return out


def _poly_band_diagonal(band: BandAPOperator, m: int, coeffs: np.ndarray) -> np.ndarray:
    """Main diagonal of p(section) using banded products; the k-th power of a
    bandwidth-w section has bandwidth k*w, so the cost stays linear in m."""
    base = band_diagonals(band, m)
    diag = np.full(m, coeffs[0], dtype=np.complex128)
    power = None
    for k in range(1, len(coeffs)):
        power = base if power is None else _band_matmul(power, base, m)
        if coeffs[k] != 0 and 0 in power:
            diag = diag + coeffs[k] * power[0]
    return diag


def _spectral_diagonal(section: np.ndarray, g: TestFunction) -> np.ndarray:
    section = numkernel._as_square_array(section)  # the kernel's finiteness check
    deviation = float(np.max(np.abs(section - section.conj().T)))
    if deviation > numkernel.HERMITIAN_TOL:
        raise MethodError(
            "continuous test functions of non-Hermitian sections are not "
            "supported; use a polynomial in x"
        )
    w, u = np.linalg.eigh(section)
    gw = g.apply(w)
    return (np.abs(u) ** 2) @ gw


def limit_prediction(
    A,
    g: TestFunction,
    m: int,
    window: int | None = None,
) -> complex:
    """Predicted distribution mean: the diagonal of g(A) averaged.

    Assembles the m-section, forms g of it (matrix polynomial, or spectral
    calculus on Hermitian input), and averages the main diagonal over a
    central window (default m // 2), discarding boundary effects.  For a
    Toeplitz operator the circle average `symbols.symbol_average` of g over
    its symbol is the same limit.
    """
    band = as_band_operator(A)
    if window is None:
        window = m // 2
    if window < 1 or m < 2 * window:
        raise WindowError(
            f"window {window} does not fit centrally in truncation {m}"
        )
    if g.kind == "polynomial":
        diag = _poly_band_diagonal(band, m, g.x_coefficients())
    else:
        diag = _spectral_diagonal(band_ap_section(band, m), g)
    start = (m - window) // 2
    return complex(np.mean(diag[start : start + window]))


# ---------------------------------------------------------------------------
# Folner discrepancy


def folner_discrepancy(E: CompositeOperator, n: int) -> float:
    """Trace norm of (product of n-sections minus n-section of the product),
    divided by n."""
    prod, crop = composite_sections(E, n)
    sv = numkernel.singular_values(prod - crop)
    return float(np.sum(sv) / n)


# ---------------------------------------------------------------------------
# stability probes


@dataclass(frozen=True, kw_only=True, eq=False)
class StabilityReport(SzegoReport):
    """Observed smallest singular values against the margin (the predicted
    value); evidence, never a proof.  Each row holds the smaller of the
    section's and the flip section's, flagged 'section' or 'flip', with its
    shortfall below the margin as the residual."""

    verdict: str  # 'stability-consistent' | 'unstable-evidence' | 'inconclusive'
    norm_scale: float


def _decays(values: Sequence[float], threshold: float) -> bool:
    # non-increasing over the last >= 5 probes and final value below threshold
    if len(values) < 5:
        return False
    tail = values[-5:]
    non_increasing = all(b <= a for a, b in zip(tail, tail[1:]))
    return non_increasing and values[-1] < threshold


def stability_probe(A, n_range: Sequence[int]) -> StabilityReport:
    """Smallest singular values of the sections and of the flipped corner.

    The margin is 1e-6 of the largest singular value met at any size, so
    this loop stays outside `sweep`.  Verdict 'stability-consistent' when
    both families stay above the margin across the whole range,
    'unstable-evidence' when every section is 0 or either family decays
    below a much smaller threshold, otherwise 'inconclusive'.
    """
    sizes = _validate_sizes(n_range)
    band = as_band_operator(A)
    section_mins, flip_mins = [], []
    norm_scale = 0.0
    for n in sizes:
        sv_section = numkernel.singular_values(band_ap_section(band, n))
        sv_flip = numkernel.singular_values(flip_section(band, n))
        norm_scale = max(norm_scale, float(sv_section[0]), float(sv_flip[0]))
        section_mins.append(float(sv_section[-1]))
        flip_mins.append(float(sv_flip[-1]))
    margin = 1e-6 * norm_scale
    decay_threshold = 1e-8 * norm_scale
    mins = np.minimum(section_mins, flip_mins)
    flags = tuple("section" if s <= f else "flip" for s, f in zip(section_mins, flip_mins))
    if norm_scale == 0.0:  # every section is singular
        verdict = "unstable-evidence"
    elif min(section_mins + flip_mins) >= margin:
        verdict = "stability-consistent"
    elif _decays(section_mins, decay_threshold) or _decays(flip_mins, decay_threshold):
        verdict = "unstable-evidence"
    else:
        verdict = "inconclusive"
    columns = (sizes, mins.astype(np.complex128), np.maximum(0.0, margin - mins), flags)
    return StabilityReport(*columns, complex(margin), verdict=verdict, norm_scale=norm_scale)


# ---------------------------------------------------------------------------
# partial limit clustering


@dataclass(frozen=True)
class Cluster:
    center: complex
    radius: float
    count: int


def cluster_partial_limits(values: Sequence[complex], gap: float = 1e-6) -> tuple[Cluster, ...]:
    """Group accumulation values of a ratio sequence on the complex distance.

    Values are visited in (real, imag) order; each joins the group with the
    nearest center when that center lies within ``gap`` and opens a new group
    otherwise.  A center more than 2 gap to the left of a value that opens a
    group is out of reach of every later value, so its group leaves the
    scan.  Groups are returned ordered by center.
    """
    z = np.asarray(values, dtype=np.complex128)
    pts = z[np.lexsort((z.imag, z.real))].tolist()  # stable, as sorted() is
    groups: list[list[complex]] = []
    centers: list[complex] = []
    totals: list[complex] = []  # running sum(group), started from 0 as sum() is
    active: list[int] = []  # groups in reach, in creation order
    reach = math.nextafter(gap, math.inf)  # dist < reach: dist <= gap
    for v in pts:
        best, best_dist = -1, reach
        for i in active:
            dist = abs(v - centers[i])
            if dist < best_dist:  # strict: the first of equally near groups wins
                best, best_dist = i, dist
        if best >= 0:
            groups[best].append(v)
            totals[best] += v
            centers[best] = totals[best] / len(groups[best])
            continue
        active = [i for i in active if v.real - centers[i].real <= 2 * gap]
        active.append(len(groups))
        groups.append([v])
        centers.append(v)
        totals.append(0 + v)
    out = (Cluster(c, max(abs(v - c) for v in grp), len(grp)) for grp, c in zip(groups, centers))
    return tuple(sorted(out, key=lambda c: (c.center.real, c.center.imag)))
