"""Determinant ratios, distribution means, limit predictions, Folner checks.

This is the layer that turns operator descriptions into the quantities the
limit theorems speak about: successive section determinant ratios and their
partial limits, the constant 1/((JQAQJ)^{-1})_{00} they converge to along
distinguished sequences (the last of those ratios on the section that ends
at the origin), strong Szego determinant ratios, eigenvalue and
singular value distribution means, diagonal-based limit predictions, Folner
trace-norm discrepancies, and observational stability probes.  Every
size-indexed quantity is swept by `sweep`: one measurement per section size
against one predicted limit, and one report constructor for the residuals.
Determinant ratios measure only the sizes past their pivot pass that way;
the sizes within it read their ratios off the pivots at once, and every
section is factored once (`numkernel.band_lu`), the largest by the pass.

Each quantity is read from the band storage of the sections (offset ->
diagonal vector, `operators.band_diagonals`) where that storage determines
it, through the band-storage algebra of `operators` (this module does no
index arithmetic on the storage), and a dense spectrum is taken only where
the quantity needs one:

- the eigenvalue mean of a polynomial g without a domain is the trace
  (1/n) tr p(A_n), from banded powers (`eigen_dist_mean`), and the singular
  value mean of g(x) = q(x^2) is (1/n) tr q(A_n^H A_n) (`singular_dist_mean`);
  any other g takes the eigenvalues (`numkernel.eigenvalues`, which picks
  the self-adjoint path) or singular values of the dense section;
- the Folner discrepancy takes the SVD of the trailing corner of total
  bandwidth size only, where the two band products differ;
- the stability probe slices every size from one assembly at the largest
  size, its flip section being the section over -n..-1 with rows and
  columns reversed, and takes |eigenvalues| for singular values when both
  are exactly real symmetric.
"""

from __future__ import annotations

import bisect
import cmath
import functools
import math
from dataclasses import dataclass
from operator import index, lt
from typing import Callable, Sequence

import numpy as np

from . import numkernel
from .numkernel import LogDet
from .operators import (
    BandAPOperator,
    CompositeOperator,
    _adjoint,
    _band_matmul,
    _band_product,
    _is_hermitian,
    _poly_diagonal,
    _trailing_block,
    as_band_operator,
    band_ap_section,
    band_diagonals,
    dense_section,
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
        if not all(map(lt, self.sizes, self.sizes[1:])):
            raise ValueError("report indices must be strictly increasing")
        if not np.isfinite(self.residuals).all():
            raise ValueError("residuals must be finite")

    @property
    def final_residual(self) -> float:
        return float(self.residuals[-1]) if self.sizes else math.nan


class _Sizes(tuple):
    """Section sizes already checked to be positive and strictly increasing,
    by `_validate_sizes` or by the CLI's config validation."""


def _size(n) -> int:
    """An integer size (numpy's too) as an int; a float is never rounded."""
    try:
        return index(n)
    except TypeError:
        raise ValueError(f"section sizes must be integers, got {n!r}") from None


def _validate_sizes(n_range: Sequence[int]) -> _Sizes:
    if type(n_range) is _Sizes:
        return n_range
    sizes = _Sizes(map(_size, n_range))
    if not sizes:
        raise ValueError("empty size range")
    if min(sizes) < 1:
        raise ValueError("section sizes must be positive")
    if not all(map(lt, sizes, sizes[1:])):
        raise ValueError("section sizes must be strictly increasing")
    return sizes


def _report(sizes, values, skipped, predicted) -> SzegoReport:
    """The one constructor of a measured report: residual i is
    |values[i] - predicted|, and without a prediction the last value serves
    as the limit estimate."""
    if not len(values):
        raise EmptyReportError("all requested sections were singular")
    values = np.asarray(values, dtype=np.complex128)
    pred = complex(predicted) if predicted is not None else complex(values[-1])
    with np.errstate(over="ignore"):  # an infinite residual fails the report's check
        d = values - pred  # np.hypot rounds as abs(complex) does; np.abs may not
        return SzegoReport(tuple(sizes), values, np.hypot(d.real, d.imag), None, pred, tuple(skipped))


def _measure_each(sizes: tuple[int, ...], measure: Callable[[int], complex]):
    """``measure(n)`` at every size: (the sizes that gave a value, the
    values, the skipped (size, reason) pairs)."""
    values: list[complex] = []
    skipped: list[tuple[int, str]] = []
    for n in sizes:
        try:
            values.append(measure(n))
        except SkippedSize as skip:
            skipped.append((n, str(skip)))
        except Exception as exc:  # carry the failing size with the error
            exc.args = (f"n={n}: {exc}",)
            raise
    if skipped:
        gone = {n for n, _ in skipped}
        sizes = tuple(n for n in sizes if n not in gone)
    return sizes, values, skipped


def sweep(
    n_range: Sequence[int],
    measure: Callable[[int], complex],
    predicted: complex | None = None,
) -> SzegoReport:
    """The per-size loop: ``measure(n)`` at every size against one prediction.

    A measurement raising `SkippedSize` records the size and its reason and
    leaves no row; any other error propagates with an ``n=<size>: `` prefix.
    Without a prediction the last value serves as the limit estimate.  The
    loop is `_measure_each` and the report comes from `_report`, which
    `det_ratio_sequence` shares for its sizes past the pivot pass.
    """
    return _report(*_measure_each(_validate_sizes(n_range), measure), predicted)


# ---------------------------------------------------------------------------
# determinant ratios


def _det_ratios(diagonals: dict[int, np.ndarray], sizes: _Sizes):
    """det(section n) / det(section n-1) of the band matrix in diagonal
    storage at every size, as `det_ratio_sequence` describes: (the sizes
    that gave a ratio, the ratios, the skipped (size, reason) pairs)."""
    top = numkernel.band_lu(diagonals, sizes[-1])  # also the largest section's det
    pivots = top.pivots
    in_pass = bisect.bisect_right(sizes, len(pivots))
    logdet = functools.cache(lambda k: (top if k == sizes[-1] else numkernel.band_lu(diagonals, k)).logdet())

    def ratio(n):
        num, den = logdet(n), logdet(n - 1)
        if num.singular_flag or den.singular_flag:
            raise SkippedSize(f"singular section at {'n' if num.singular_flag else 'n-1'}")
        return cmath.exp(num.log_abs - den.log_abs) * (num.phase / den.phase)

    kept, measured, skipped = _measure_each(sizes[in_pass:], ratio)
    values = pivots[np.array(sizes[:in_pass], dtype=np.intp) - 1]
    if measured:
        values = np.concatenate((values, measured))
    return sizes[:in_pass] + kept, values, skipped


def det_ratio_sequence(
    A,
    n_range: Sequence[int],
    predicted: complex | None = None,
) -> SzegoReport:
    """Ratios det(section n) / det(section n-1) over the size range.

    ``A`` is anything ``as_band_operator`` accepts.  One banded LU pass up to
    the largest size gives every ratio as a pivot, up to the pass's first
    row swap or zero pivot (`numkernel.BandLU.pivots`), so the sizes up to
    that ``stop`` take their ratios by one gather from the pivot array.
    Only the sizes past it go through `sweep`'s per-size loop: each ratio
    comes from the band LU of the two sections (each factored once, the
    largest by the pass itself), as exp(difference of log magnitudes) times
    the phase ratio, and a singular section is skipped.  Both parts
    (`_det_ratios`) form one report by `sweep`'s report constructor; without
    an explicit prediction the final ratio serves as the limit estimate.
    """
    sizes = _validate_sizes(n_range)
    diagonals = band_diagonals(as_band_operator(A), sizes[-1], lu=True)
    return _report(*_det_ratios(diagonals, sizes), predicted)


def g_limit_constant(A: BandAPOperator, m: int) -> complex:
    """1 / ((JQAQJ)^{-1})_{00}, the determinant-ratio limit along a
    distinguished sequence: by Cramer's rule det A_[-m,-1] / det A_[-m,-2],
    the last ratio of the section over -m..-1.  A singular m-section raises
    `SingularMatrixError`, a singular (m-1)-section `ResolventZeroError`."""
    (m,) = sizes = _validate_sizes((m,))
    diagonals = band_diagonals(as_band_operator(A), m, lu=True, start=-m)
    _, values, skipped = _det_ratios(diagonals, sizes)
    if skipped:
        ld = numkernel.band_lu(diagonals, m).logdet()
        if ld.singular_flag:
            raise numkernel.SingularMatrixError("flip section is numerically singular", ld.smallest_pivot)
        raise ResolventZeroError("0-0 entry of the inverted flip section is zero")
    return complex(values[0])


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
    own section (the largest one's is the pass's), and a singular section
    raises.
    """
    sizes = _validate_sizes(n_range)
    log = _sample_log(a)
    c0 = log.c0
    constant = log.strong_szego_constant()
    diagonals = band_diagonals(as_band_operator(a), sizes[-1], lu=True)
    top = numkernel.band_lu(diagonals, sizes[-1])
    pivots = top.pivots
    log_abs = np.cumsum(np.log(np.abs(pivots)))
    phases = np.cumprod(pivots / np.abs(pivots))

    def normalized_det(n):
        if n <= len(pivots):
            ld = LogDet(float(log_abs[n - 1]), complex(phases[n - 1]) / abs(phases[n - 1]))
        else:
            ld = (top if n == sizes[-1] else numkernel.band_lu(diagonals, n)).logdet()
            if ld.singular_flag:
                raise numkernel.SingularMatrixError("singular section", ld.smallest_pivot)
        return cmath.exp(ld.log_abs - n * c0.real) * ld.phase * cmath.exp(-1j * n * c0.imag)

    report = sweep(sizes, normalized_det, constant.value)
    return StrongSzegoReport(
        **vars(report),
        geometric_mean=complex(np.exp(c0)),
        tail_bound=constant.tail_bound,
    )


# ---------------------------------------------------------------------------
# distribution means


def eigen_dist_mean(A, g: TestFunction, n: int) -> complex:
    """(1/n) sum_i g(lambda_i) over the eigenvalues of the n-section of A.

    For a polynomial g without a domain this is the trace (1/n) tr p(A_n),
    read off banded powers in O(n w deg g); it is exact also on non-normal
    sections, whose computed eigenvalues are not.  On an exactly Hermitian
    section with real coefficients the real part is reported, as the
    eigenvalues give it.  Any other g (one with a domain, which is checked
    against the eigenvalues, or a named function) takes the eigenvalues of
    the dense section (`numkernel.eigenvalues`).
    """
    band = as_band_operator(A)
    if g.kind != "polynomial" or g.domain is not None:
        return complex(np.mean(g.apply(numkernel.eigenvalues(band_ap_section(band, n)))))
    vectors = band_diagonals(band, n)
    coeffs = g.x_coefficients()
    value = _trace_mean(vectors, n, coeffs, g)
    if not coeffs.imag.any() and _is_hermitian(vectors, n):
        return complex(value.real)
    return value


def singular_dist_mean(A, g: TestFunction, n: int) -> float:
    """(1/n) sum_i g(sigma_i) over the singular values of the n-section of A.

    For g(x) = q(x^2), a polynomial in even powers without a domain, this is
    (1/n) tr q(A_n^H A_n), from banded products in O(n w^2 deg g); for x^2
    it is the squared moduli of the band vectors summed.  Any other g takes
    the singular values of the dense section; the mean is real.
    """
    band = as_band_operator(A)
    if g.kind == "polynomial" and g.domain is None and not any(p % 2 for p, _ in g.data):
        q = g.x_coefficients()[::2]
        vectors = band_diagonals(band, n)
        gram = _band_matmul(_adjoint(vectors, n), vectors, n, main_only=len(q) <= 2)
        return _trace_mean(gram, n, q, g).real
    return complex(np.mean(g.apply(numkernel.singular_values(band_ap_section(band, n))))).real


def _trace_mean(base: dict[int, np.ndarray], m: int, coeffs: np.ndarray, g: TestFunction) -> complex:
    """(1/m) tr p(B), with p the polynomial of g; a trace that is not finite
    fails naming g, as `TestFunction.apply` does for a sample."""
    with np.errstate(all="ignore"):  # overflowing powers are caught below
        value = complex(np.mean(_poly_diagonal(base, m, coeffs)))
    if not cmath.isfinite(value):
        raise ValueError(f"g={g.label} not finite on the section: (1/n) tr g = {value}")
    return value


# ---------------------------------------------------------------------------
# limit predictions


def _spectral_diagonal(section: np.ndarray, g: TestFunction) -> np.ndarray:
    section = numkernel._as_square_array(section)  # the kernel's finiteness check
    if not numkernel._hermitian(section):
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
    its symbol is the same limit.  A prediction that is not finite fails
    naming g and m, as `_trace_mean` does for a size.
    """
    band = as_band_operator(A)
    if window is None:
        window = m // 2
    if window < 1 or m < 2 * window:
        raise WindowError(
            f"window {window} does not fit centrally in truncation {m}"
        )
    start = (m - window) // 2
    with np.errstate(all="ignore"):  # overflowing powers are caught below
        if g.kind == "polynomial":
            diag = _poly_diagonal(band_diagonals(band, m), m, g.x_coefficients())
        else:
            diag = _spectral_diagonal(band_ap_section(band, m), g)
        value = complex(np.mean(diag[start : start + window]))
    if not cmath.isfinite(value):
        raise ValueError(f"prediction: g={g.label} not finite on the m={m} section")
    return value


# ---------------------------------------------------------------------------
# Folner discrepancy


def folner_discrepancy(E: CompositeOperator, n: int) -> float:
    """Trace norm of (product of n-sections minus n-section of the product),
    divided by n.

    Both are band products: the n-section of the product is the leading
    block of the product of m-sections, m = n + total bandwidth w.  They
    differ only on paths that leave the indices below n, which start and end
    within w of n, so the SVD is taken of the trailing c x c corner,
    c = min(n, w), alone.
    """
    width = E.total_bandwidth
    c = min(n, width)
    if c == 0:  # products of multipliers: the sections multiply exactly
        return 0.0
    corner = np.zeros((c, c), dtype=np.complex128)
    for factors in E.products:
        for sign, m in ((1, n), (-1, n + width)):
            corner += sign * _trailing_block(_band_product(factors, m), n, c)
    return float(np.sum(numkernel.singular_values(corner)) / n)


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

    Both are assembled once, at the largest size; each size reads their
    leading blocks, which are bit for bit its own sections.  When both are
    exactly real symmetric (read off the band storage), their singular
    values are the moduli of their eigenvalues, from one real symmetric
    eigenvalue call per size on the pair; otherwise each block takes the
    SVD.  The margin is 1e-6 of the largest singular value met at any size,
    so this loop stays outside `sweep`.  Verdict 'stability-consistent' when
    both families stay above the margin across the whole range,
    'unstable-evidence' when every section is 0 or either family decays
    below a much smaller threshold, otherwise 'inconclusive'.
    """
    sizes = _validate_sizes(n_range)
    band = as_band_operator(A)
    top = sizes[-1]
    storage = (band_diagonals(band, top), band_diagonals(band, top, start=-top))
    section, corner = (dense_section(v, top) for v in storage)
    pair = np.stack([section, corner[::-1, ::-1]])  # the flip section: rows and columns reversed
    symmetric = all(_is_hermitian(v, top) and not any(x.imag.any() for x in v.values()) for v in storage)
    if symmetric:
        pair = pair.real
    section_mins, flip_mins = [], []
    norm_scale = 0.0
    for n in sizes:
        blocks = pair[:, :n, :n]
        if symmetric:
            sv_section, sv_flip = numkernel.symmetric_singular_values(blocks)
        else:
            sv_section, sv_flip = map(numkernel.singular_values, blocks)
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

    The order makes repeated values adjacent, and a converged sequence is
    mostly repeats.  A value equal to the one before it joins that value's
    group without a search when the group provably still wins: the moved
    center is no farther from it than the distance the last search found
    (``gap`` when the value opened the group), while every other group in
    reach is as far as before, and earlier groups, which win ties, farther.
    Otherwise it is searched as any value.  A group keeps a running total
    summed in visiting order, so its center has the bits of sum(group) / count,
    and its radius is taken over its distinct members.
    """
    z = np.asarray(values, dtype=np.complex128)
    pts = z[np.lexsort((z.imag, z.real))].tolist()  # stable, as sorted() is
    members: list[list[complex]] = []  # distinct members of each group, in order
    counts: list[int] = []
    centers: list[complex] = []
    totals: list[complex] = []  # running sum(group), started from 0 as sum() is
    active: list[int] = []  # groups in reach, in creation order
    reach = math.nextafter(gap, math.inf)  # dist < reach: dist <= gap
    prev, last, bound = None, -1, gap  # the previous value, its group, the guard
    for v in pts:
        if not (v == prev and abs(v - centers[last]) <= bound):
            prev = v
            best, best_dist = -1, reach
            for i in active:
                dist = abs(v - centers[i])
                if dist < best_dist:  # strict: the first of equally near groups wins
                    best, best_dist = i, dist
            if best < 0:
                active = [i for i in active if v.real - centers[i].real <= 2 * gap]
                last, bound = len(members), gap
                active.append(last)
                members.append([v])
                counts.append(1)
                centers.append(v)
                totals.append(0 + v)
                continue
            last, bound = best, best_dist
            if v != members[best][-1]:
                members[best].append(v)
        counts[last] += 1
        totals[last] += v
        centers[last] = totals[last] / counts[last]
    out = (
        Cluster(c, max(abs(v - c) for v in grp), k) for grp, c, k in zip(members, centers, counts)
    )
    return tuple(sorted(out, key=lambda c: (c.center.real, c.center.imag)))
