"""Linear algebra kernel: band LU in real or complex arithmetic, dense spectra.

Determinants of banded sections, eigenvalues and singular values of dense
complex matrices, and the singular values of real symmetric matrices as the
moduli of their eigenvalues.  Every factorization is LAPACK's partially
pivoted band LU in O(n w^2) for bandwidth w, ``dgbtrf`` on real band
storage (a real operator) and ``zgbtrf`` on complex: one factorization
gives the successive determinant ratios up to its first row swap, and one
more per size each larger determinant.  Pivots and phases are complex on
both routes.  Everything downstream (section determinants, limit
constants, spectral distribution means, stability probes) sits on these
operations.  All arithmetic is 64-bit floating point; determinants are only
ever exposed in log-magnitude/phase form because section determinants grow
geometrically with the section size.

Dense matrices are plain numpy arrays.  The eigenvalue and singular value
kernels read them as complex128 (float64 for the real symmetric ones, which
also take a stack of matrices) and check them where they read them: 2-d,
square where the operation needs it, and every entry finite.

Only the band LU (behind `band_logdet` and `band_lu_pivots`) uses SciPy,
and it loads it at its first call: importing this module, and every
eigenvalue and singular value path, loads numpy alone.
``python -X importtime -c "import szegolab.cli"`` shows it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np


class DimensionError(ValueError):
    """Matrix shape does not fit the operation (e.g. non-square input)."""


class SingularMatrixError(ArithmeticError):
    """Factorization met a pivot too small to continue."""

    def __init__(self, message, smallest_pivot):
        super().__init__(f"{message} (smallest pivot {smallest_pivot:.3e})")
        self.smallest_pivot = smallest_pivot


class SymmetryError(ValueError):
    """Input fails the Hermitian tolerance of the self-adjoint eigenpath."""


class ConvergenceError(RuntimeError):
    """Eigenvalue/singular value iteration did not converge."""


# Pivots below this magnitude would push log|det| outside the float range.
PIVOT_UNDERFLOW = 1e-292

# Entrywise tolerance for accepting a matrix as Hermitian.
HERMITIAN_TOL = 1e-12


@dataclass(frozen=True)
class LogDet:
    """Determinant in log form: det = exp(log_abs) * phase.

    ``phase`` has unit modulus unless ``singular_flag`` is set, in which case
    ``log_abs`` is -inf, ``phase`` is 0 and ``smallest_pivot`` holds the
    smallest |pivot| of the failed factorization (NaN otherwise).
    """

    log_abs: float
    phase: complex
    singular_flag: bool = False
    smallest_pivot: float = math.nan

    @property
    def value(self) -> complex:
        if self.singular_flag:
            return 0j
        return math.exp(self.log_abs) * self.phase


def _as_square_array(m, square: bool = True) -> np.ndarray:
    """The complex128 array of a 2-d (and, unless ``square`` is false,
    square) matrix whose entries are all finite: the one input check of the
    eigenvalue and singular value kernels."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2:
        raise DimensionError(f"expected a 2-d array, got ndim={a.ndim}")
    rows, cols = a.shape
    if square and rows != cols:
        raise DimensionError(f"square matrix required, got {rows}x{cols}")
    if a.size and not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


@functools.cache
def _linalg():
    """scipy.linalg, imported at the first band LU: it takes most of the
    import time of this package, and only the band LU uses it (cached, so a
    call costs what a module attribute lookup does)."""
    import scipy.linalg

    return scipy.linalg


def _logdet_from_lu(diag: np.ndarray, piv: np.ndarray) -> LogDet:
    """LogDet of a pivoted LU factorization from the diagonal of U and the
    0-based row interchanges; a pivot below PIVOT_UNDERFLOW (or NaN) is singular.
    The phase of a real factor is formed in complex arithmetic too."""
    diag = np.asarray(diag, dtype=np.complex128)
    absd = np.abs(diag)
    smallest = float(absd.min())
    if not smallest >= PIVOT_UNDERFLOW:  # also NaN
        return LogDet(-math.inf, 0j, True, smallest)
    log_abs = float(np.sum(np.log(absd)))
    swaps = int(np.count_nonzero(piv != np.arange(len(piv))))
    phase = complex(np.prod(diag / absd)) * (-1.0) ** swaps
    return LogDet(log_abs, phase / abs(phase), False)


def _band_lu(diagonals: Mapping[int, np.ndarray], n: int):
    """LAPACK's partially pivoted band LU of the leading n x n section, by
    ``dgbtrf`` when every vector is float64 and ``zgbtrf`` otherwise:
    (lu, ipiv, p, q) for p sub- and q superdiagonals, with the diagonal of U
    in row p + q of ``lu`` and 0-based row interchanges."""
    p = max(0, max(diagonals, default=0))
    q = max(0, -min(diagonals, default=0))
    # LAPACK band storage: entry (j+d, j) at ab[p+q+d, j]; rows 0..p-1 take
    # fill.  xGBTRF never reads the slots j+d >= n outside the section.
    real = all(v.dtype == np.float64 for v in diagonals.values())  # stops at a complex vector
    ab = np.zeros((2 * p + q + 1, n), dtype=np.float64 if real else np.complex128, order="F")
    for d, v in diagonals.items():
        ab[p + q + d] = v[:n]
    lapack = _linalg().lapack
    lu, ipiv, info = (lapack.dgbtrf if real else lapack.zgbtrf)(ab, p, q, overwrite_ab=True)
    if info < 0:
        raise ValueError(f"{'d' if real else 'z'}gbtrf rejected argument {-info}")
    return lu, ipiv, p, q


def band_logdet(diagonals: Mapping[int, np.ndarray], n: int) -> LogDet:
    """det of the leading n x n section of a band matrix (``diagonals`` as in
    `band_lu_pivots`, vectors of length >= n) from its band LU in O(n w^2);
    the sign comes from the row interchanges, and a pivot below
    PIVOT_UNDERFLOW flags the section singular."""
    if n == 0:
        return LogDet(0.0, 1 + 0j, False)
    lu, ipiv, p, q = _band_lu(diagonals, n)
    return _logdet_from_lu(lu[p + q], ipiv)


def band_lu_pivots(diagonals: Mapping[int, np.ndarray], n: int) -> tuple[np.ndarray, int]:
    """Pivots of the LU factorization without row swaps of an n x n band matrix.

    ``diagonals`` maps offset d to a length-n vector v with v[j] = entry(j+d, j),
    zero where j+d falls outside 0..n-1.  Pivot k is det(A_{k+1}) / det(A_k)
    for the leading k x k sections A_k, so one pass yields every successive
    determinant ratio.

    Returns (pivots, stop): ``stop`` is the first row swap of LAPACK's
    partially pivoted band LU (`_band_lu`) or its first pivot below
    PIVOT_UNDERFLOW (or NaN), n when neither occurs, and ``pivots`` holds the
    ``stop`` pivots before it, complex128 on either route.  Up to its first
    swap that factorization is the one without swaps.  Its multipliers are
    at most 1 in modulus on the real route (``dgbtrf`` keeps |pivot| >=
    every entry below) and at most sqrt(2) on the complex one (``zgbtrf``
    keeps cabs1(pivot) = |Re| + |Im| >= cabs1 of every entry below).
    """
    lu, ipiv, p, q = _band_lu(diagonals, n)
    diag = lu[p + q]
    swaps = np.flatnonzero(ipiv != np.arange(n))
    stop = int(swaps[0]) if swaps.size else n
    failed = np.flatnonzero(~(np.abs(diag[:stop]) >= PIVOT_UNDERFLOW))  # also NaN
    if failed.size:
        stop = int(failed[0])
    return diag[:stop].astype(np.complex128), stop


def eigvals_hermitian(m) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix, sorted ascending."""
    a = _as_square_array(m)
    if a.size:
        deviation = float(np.max(np.abs(a - a.conj().T)))
        if deviation > HERMITIAN_TOL:
            raise SymmetryError(
                f"matrix is not Hermitian: max |m - m*| = {deviation:.3e}"
            )
    return np.linalg.eigvalsh(a)


def eigvals_general(m) -> np.ndarray:
    """All eigenvalues of a square matrix (Hessenberg + shifted QR)."""
    a = _as_square_array(m)
    try:
        return np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigenvalue iteration failed: {exc}") from exc


def singular_values(m) -> np.ndarray:
    """Singular values, sorted descending, all non-negative."""
    a = _as_square_array(m, square=False)
    try:
        return np.linalg.svd(a, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"singular value iteration failed: {exc}") from exc


def symmetric_singular_values(m) -> np.ndarray:
    """Singular values of a real symmetric matrix, or of each matrix of a
    stack, sorted descending along the last axis: the moduli of its
    eigenvalues.  ``np.linalg.eigvalsh`` reads the lower triangle only, so
    the symmetry is the caller's to establish."""
    a = np.asarray(m, dtype=np.float64)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimensionError(f"square matrices required, got shape {a.shape}")
    if a.size and not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    try:
        return np.sort(np.abs(np.linalg.eigvalsh(a)))[..., ::-1]
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigenvalue iteration failed: {exc}") from exc
