"""Determinant ratios, distribution means, limit predictions, Folner checks.

This is the layer that turns operator descriptions into the quantities the
limit theorems speak about: successive section determinant ratios and their
partial limits, the constant 1/((JQAQJ)^{-1})_{00} they converge to along
distinguished sequences, strong Szego determinant ratios, eigenvalue and
singular value distribution means, diagonal-based limit predictions, Folner
trace-norm discrepancies, and observational stability probes.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from . import numkernel
from .numkernel import DenseMatrix, LogDet, solve
from .almostperiodic import DistinguishedSequence
from .operators import (
    BandAPOperator,
    CompositeOperator,
    as_band_operator,
    band_ap_section,
    band_diagonals,
    composite_sections,
    flip_section,
    reversed_section,
    toeplitz_symbol,
)
from .symbols import TrigPolynomial, log_coefficients, strong_szego_constant, symbol_average, _default_grid


class DomainError(ValueError):
    """Test function evaluated outside its declared domain."""

    def __init__(self, message, sample):
        super().__init__(f"{message} (offending sample {sample})")
        self.sample = sample


class MethodError(ValueError):
    """Prediction method does not apply to the given operator."""


class WindowError(ValueError):
    """Averaging window does not fit inside the truncated section."""


class EmptyReportError(RuntimeError):
    """Every requested section was singular; no ratios to report."""


class ResolventZeroError(ZeroDivisionError):
    """The 0-0 entry of the inverted corner vanished."""


# ---------------------------------------------------------------------------
# test functions


@dataclass(frozen=True)
class TestFunction:
    """A function g applied to spectra and symbol values.

    Three kinds: 'polynomial' in x and conj(x) with explicit coefficients,
    'entire' power series, and a pointwise 'callable'.  The optional domain
    is ('interval', lo, hi) or ('disk', radius); violations raise DomainError
    carrying the offending sample.
    """

    kind: str
    data: tuple
    domain: tuple | None = None
    label: str = ""

    __test__ = False  # keep pytest from collecting this despite the name

    @classmethod
    def polynomial(cls, coeffs, domain=None, label="") -> "TestFunction":
        """Coefficients as a sequence [c_0, c_1, ...] for powers of x, or a
        mapping {(p, q): c} for x^p conj(x)^q terms."""
        if isinstance(coeffs, Mapping):
            terms = tuple(
                (int(p), int(q), complex(c)) for (p, q), c in sorted(coeffs.items())
            )
        else:
            terms = tuple(
                (k, 0, complex(c)) for k, c in enumerate(coeffs) if complex(c) != 0
            )
        return cls("polynomial", terms, domain, label or "poly")

    @classmethod
    def power(cls, k: int) -> "TestFunction":
        return cls.polynomial({(k, 0): 1.0}, label=f"x^{k}")

    @classmethod
    def identity(cls) -> "TestFunction":
        return cls.polynomial([0.0, 1.0], label="x")

    @classmethod
    def entire(cls, series, domain=None, label="") -> "TestFunction":
        return cls("entire", tuple(complex(c) for c in series), domain, label or "series")

    @classmethod
    def from_callable(cls, fn: Callable, domain=None, label="") -> "TestFunction":
        return cls("callable", (fn,), domain, label or getattr(fn, "__name__", "g"))

    @classmethod
    def exp(cls) -> "TestFunction":
        return cls.from_callable(np.exp, label="exp")

    @classmethod
    def log(cls) -> "TestFunction":
        return cls.from_callable(np.log, label="log")

    @property
    def is_x_polynomial(self) -> bool:
        return self.kind == "polynomial" and all(q == 0 for _, q, _ in self.data)

    def x_coefficients(self) -> np.ndarray:
        if not self.is_x_polynomial:
            raise MethodError(f"{self.label!r} is not a polynomial in x alone")
        degree = max((p for p, _, _ in self.data), default=0)
        coeffs = np.zeros(degree + 1, dtype=np.complex128)
        for p, _, c in self.data:
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
            for p, q, c in self.data:
                term = np.ones_like(vals) * c
                if p:
                    term = term * vals**p
                if q:
                    term = term * np.conj(vals) ** q
                out += term
        elif self.kind == "entire":
            out = np.zeros_like(vals)
            for c in reversed(self.data):
                out = out * vals + c
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
# spectra and reports


@dataclass(frozen=True)
class SpectrumSample:
    """Eigenvalues or singular values of one finite section."""

    n: int
    values: np.ndarray
    kind: str  # 'eigen' | 'singular'

    def __post_init__(self):
        vals = np.atleast_1d(np.asarray(self.values))
        if self.kind not in ("eigen", "singular"):
            raise ValueError(f"kind must be 'eigen' or 'singular', got {self.kind!r}")
        if self.kind == "singular" and np.any(vals.real < 0):
            raise ValueError("singular values must be non-negative")
        if len(vals) != self.n:
            raise ValueError(f"expected {self.n} values, got {len(vals)}")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class ReportRow:
    n: int
    empirical: complex
    predicted: complex
    residual: float
    flags: str = ""


@dataclass(frozen=True)
class SzegoReport:
    """Per-size empirical values against a predicted constant."""

    rows: tuple[ReportRow, ...]
    predicted: complex
    limit_estimate: complex
    skipped: tuple[tuple[int, str], ...] = ()

    def __post_init__(self):
        ns = [r.n for r in self.rows]
        if any(b <= a for a, b in zip(ns, ns[1:])):
            raise ValueError("report indices must be strictly increasing")
        if any(not math.isfinite(r.residual) for r in self.rows):
            raise ValueError("residuals must be finite")

    @property
    def final_residual(self) -> float:
        return self.rows[-1].residual if self.rows else math.nan

    def empirical_values(self) -> list[complex]:
        return [r.empirical for r in self.rows]


def _validate_sizes(n_range: Sequence[int]) -> list[int]:
    sizes = [int(n) for n in n_range]
    if not sizes:
        raise ValueError("empty size range")
    if any(n < 1 for n in sizes):
        raise ValueError("section sizes must be positive")
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError("section sizes must be strictly increasing")
    return sizes


def _build_report(entries, predicted, skipped=()) -> SzegoReport:
    values = [v for _, v in entries]
    limit_estimate = values[-1]
    pred = complex(predicted) if predicted is not None else limit_estimate
    rows = tuple(
        ReportRow(n, v, pred, abs(v - pred)) for (n, v) in entries
    )
    return SzegoReport(rows, pred, limit_estimate, tuple(skipped))


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
    each ratio comes from the band LU of the two sections, as
    exp(difference of log magnitudes) times the phase ratio; singular
    sections are recorded and their ratios omitted.  Without an explicit
    prediction the final ratio serves as the limit estimate.
    """
    sizes = _validate_sizes(n_range)
    top = sizes[-1]
    diagonals = band_diagonals(as_band_operator(A), top)
    pivots, stop = numkernel.band_lu_pivots(diagonals, top)
    entries: list[tuple[int, complex]] = []
    skipped: list[tuple[int, str]] = []
    needed = {k for n in sizes if n > stop for k in (n - 1, n)}
    logdets = {k: numkernel.band_logdet(diagonals, k) for k in needed}
    for n in sizes:
        if n <= stop:
            entries.append((n, complex(pivots[n - 1])))
            continue
        num, den = logdets[n], logdets[n - 1]
        if num.singular_flag or den.singular_flag:
            which = "n" if num.singular_flag else "n-1"
            skipped.append((n, f"singular section at {which}"))
            continue
        ratio = cmath.exp(num.log_abs - den.log_abs) * (num.phase / den.phase)
        entries.append((n, ratio))
    if not entries:
        raise EmptyReportError("all requested sections were singular")
    return _build_report(entries, predicted, skipped)


def det_ratio_via_cramer(A, n: int) -> complex:
    """det(section n-1)/det(section n) as the first component of the solution
    of (W_n A W_n) x = e_0 (Cramer's rule on the reversed section)."""
    band = as_band_operator(A)
    w = reversed_section(band, n)
    rhs = np.zeros(n, dtype=np.complex128)
    rhs[0] = 1.0
    x = solve(w, rhs)
    return complex(x[0])


def g_limit_constant(A: BandAPOperator, m: int) -> complex:
    """1 / ((flip section)^{-1})_{00}: the determinant-ratio limit along a
    distinguished sequence, where the operator is its own limit operator."""
    band = as_band_operator(A)
    f = flip_section(band, m)
    rhs = np.zeros(m, dtype=np.complex128)
    rhs[0] = 1.0
    x = solve(f, rhs)
    v = complex(x[0])
    if v == 0:
        raise ResolventZeroError("0-0 entry of the inverted flip section is zero")
    return 1.0 / v


@dataclass(frozen=True, kw_only=True)
class StrongSzegoReport(SzegoReport):
    """A strong Szego report with the constants it was measured against:
    G[a] and the tail bound of the truncated series for E[a]."""

    geometric_mean: complex
    tail_bound: float


def strong_szego_ratio(
    a: TrigPolynomial,
    n_range: Sequence[int],
    truncation: int | None = None,
) -> StrongSzegoReport:
    """det T_n(a) / G[a]^n against the truncated constant E[a].

    log|det T_n| is the running sum of log|pivot| of one banded LU pass, and
    its phase the running product of the pivot phases; from the pass's first
    row swap or zero pivot on, each determinant comes from the band LU of its
    own section, and a singular section raises.
    """
    sizes = _validate_sizes(n_range)
    grid = _default_grid(a.bandwidth)
    if truncation is None:
        truncation = grid // 4
    c0 = log_coefficients(a, grid, 0).coefficient(0)
    constant = strong_szego_constant(a, truncation)
    top = sizes[-1]
    diagonals = band_diagonals(as_band_operator(a), top)
    pivots, stop = numkernel.band_lu_pivots(diagonals, top)
    log_abs = np.cumsum(np.log(np.abs(pivots)))
    phases = np.cumprod(pivots / np.abs(pivots))
    entries = []
    for n in sizes:
        if n <= stop:
            ld = LogDet(float(log_abs[n - 1]), complex(phases[n - 1]) / abs(phases[n - 1]))
        else:
            ld = numkernel.band_logdet(diagonals, n)
            if ld.singular_flag:
                raise numkernel.SingularMatrixError(
                    f"singular section at n={n}", 0.0
                )
        d_n = cmath.exp(ld.log_abs - n * c0.real) * ld.phase * cmath.exp(
            -1j * n * c0.imag
        )
        entries.append((n, d_n))
    report = _build_report(entries, constant.value)
    return StrongSzegoReport(
        report.rows,
        report.predicted,
        report.limit_estimate,
        geometric_mean=complex(np.exp(c0)),
        tail_bound=constant.tail_bound,
    )


# ---------------------------------------------------------------------------
# distribution means


def eigen_sample(matrix: DenseMatrix) -> SpectrumSample:
    """Eigenvalues of a section; Hermitian input takes the self-adjoint path."""
    try:
        vals = numkernel.eigvals_hermitian(matrix)
    except numkernel.SymmetryError:
        vals = numkernel.eigvals_general(matrix)
    return SpectrumSample(len(vals), vals, "eigen")


def singular_sample(matrix: DenseMatrix) -> SpectrumSample:
    vals = numkernel.singular_values(matrix)
    return SpectrumSample(len(vals), vals, "singular")


def eigen_mean(sample: SpectrumSample, g: TestFunction) -> complex:
    """(1/n) sum_i g(lambda_i)."""
    if sample.kind != "eigen":
        raise ValueError("eigen_mean needs an eigenvalue sample")
    return complex(np.mean(g.apply(sample.values)))


def singular_mean(sample: SpectrumSample, g: TestFunction) -> float:
    """(1/n) sum_i g(sigma_i); real because singular values are real."""
    if sample.kind != "singular":
        raise ValueError("singular_mean needs a singular value sample")
    out = complex(np.mean(g.apply(sample.values)))
    return out.real


# ---------------------------------------------------------------------------
# limit predictions


def _symbol_of(A) -> TrigPolynomial:
    if isinstance(A, TrigPolynomial):
        return A
    if isinstance(A, CompositeOperator):
        return A.symbol()
    if isinstance(A, BandAPOperator):
        return toeplitz_symbol(A)
    raise MethodError(f"no symbol for {type(A).__name__}")


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
    method: str,
    m: int,
    window: int | None = None,
) -> complex:
    """Predicted distribution mean.

    'toeplitz-symbol': the circle average of g over the composite symbol
    (rejected when almost periodic multipliers are involved).
    'diagonal-of-g': assemble the m-section, form g of it (matrix polynomial,
    or spectral calculus on Hermitian input), and average the main diagonal
    over a central window, discarding boundary effects.
    """
    if method == "toeplitz-symbol":
        sym = _symbol_of(A)
        grid = max(1024, window or 0)
        return symbol_average(sym, g, grid)
    if method == "diagonal-of-g":
        band = as_band_operator(A)
        if window is None:
            window = m // 2
        if window < 1 or m < 2 * window:
            raise WindowError(
                f"window {window} does not fit centrally in truncation {m}"
            )
        if g.is_x_polynomial:
            diag = _poly_band_diagonal(band, m, g.x_coefficients())
        else:
            diag = _spectral_diagonal(np.asarray(band_ap_section(band, "P", m)), g)
        start = (m - window) // 2
        return complex(np.mean(diag[start : start + window]))
    raise MethodError(f"unknown prediction method {method!r}")


# ---------------------------------------------------------------------------
# Folner discrepancy


def folner_discrepancy(E: CompositeOperator, n: int, m: int | None = None) -> float:
    """Trace norm of (product of n-sections minus n-section of the product),
    divided by n."""
    prod, crop = composite_sections(E, n, m)
    diff = np.asarray(prod) - np.asarray(crop)
    sv = numkernel.singular_values(DenseMatrix(diff))
    return float(np.sum(sv) / n)


# ---------------------------------------------------------------------------
# stability probes


@dataclass(frozen=True)
class StabilityRow:
    n: int
    sigma_min_section: float
    sigma_min_flip: float


@dataclass(frozen=True)
class StabilityReport:
    """Observed smallest singular values; evidence, never a proof."""

    rows: tuple[StabilityRow, ...]
    verdict: str  # 'stability-consistent' | 'unstable-evidence' | 'inconclusive'
    margin: float
    norm_scale: float


def _decays(values: Sequence[float], threshold: float) -> bool:
    # non-increasing over the last >= 5 probes and final value below threshold
    if len(values) < 5:
        return False
    tail = values[-5:]
    non_increasing = all(b <= a for a, b in zip(tail, tail[1:]))
    return non_increasing and values[-1] < threshold


def stability_probe(
    A,
    n_range: Sequence[int],
    sequence: DistinguishedSequence | None = None,
) -> StabilityReport:
    """Smallest singular values of the sections and of the flipped corner.

    Verdict 'stability-consistent' when both families stay above a relative
    margin across the whole range, 'unstable-evidence' when either family
    decays below a much smaller threshold, otherwise 'inconclusive'.
    """
    sizes = _validate_sizes(sequence.values if sequence is not None else n_range)
    band = as_band_operator(A)
    rows = []
    norm_scale = 0.0
    for n in sizes:
        sv_section = numkernel.singular_values(band_ap_section(band, "P", n))
        sv_flip = numkernel.singular_values(flip_section(band, n))
        norm_scale = max(norm_scale, float(sv_section[0]), float(sv_flip[0]))
        rows.append(StabilityRow(n, float(sv_section[-1]), float(sv_flip[-1])))
    margin = 1e-6 * norm_scale
    decay_threshold = 1e-8 * norm_scale
    section_mins = [r.sigma_min_section for r in rows]
    flip_mins = [r.sigma_min_flip for r in rows]
    if min(section_mins + flip_mins) >= margin:
        verdict = "stability-consistent"
    elif _decays(section_mins, decay_threshold) or _decays(flip_mins, decay_threshold):
        verdict = "unstable-evidence"
    else:
        verdict = "inconclusive"
    return StabilityReport(tuple(rows), verdict, margin, norm_scale)


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
    otherwise.  Groups are returned ordered by center.
    """
    pts = sorted((complex(v) for v in values), key=lambda z: (z.real, z.imag))
    groups: list[list[complex]] = []
    centers: list[complex] = []
    totals: list[complex] = []  # running sum(group), started from 0 as sum() is
    for v in pts:
        if centers:
            dist, i = min((abs(v - c), i) for i, c in enumerate(centers))
            if dist <= gap:
                groups[i].append(v)
                totals[i] += v
                centers[i] = totals[i] / len(groups[i])
                continue
        groups.append([v])
        centers.append(v)
        totals.append(0 + v)
    out = []
    for grp, center in zip(groups, centers):
        radius = max(abs(v - center) for v in grp)
        out.append(Cluster(center, radius, len(grp)))
    return tuple(sorted(out, key=lambda c: (c.center.real, c.center.imag)))
