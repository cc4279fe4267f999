"""Complex linear algebra kernel.

Log-scaled determinants, linear solves, eigenvalues and singular values of
dense complex matrices, and determinants of the leading sections of a band
matrix, all from LAPACK's partially pivoted band LU (``zgbtrf``): one
factorization gives the successive ratios up to its first row swap, one
more per size each larger determinant.  Everything downstream (section
determinants, spectral distribution means, stability probes) sits on these
operations.  All arithmetic is 64-bit floating point; dense determinants are
only ever exposed in log-magnitude/phase form because section determinants
grow geometrically with the section size.

Only the LU paths (`lu_logdet`, `solve` and the band LU behind
`band_logdet` and `band_lu_pivots`) use SciPy, and they load it at their
first call: importing this module, and every eigenvalue and singular value
path, loads numpy alone.  ``python -X importtime -c "import szegolab.cli"``
shows it.
"""

from __future__ import annotations

import functools
import math
import warnings
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
class DenseMatrix:
    """A complex matrix stored as a read-only row-major array.

    Entries must be finite; NaN or Inf anywhere is rejected at construction.
    """

    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data)
        if arr.ndim != 2:
            raise DimensionError(f"expected a 2-d array, got ndim={arr.ndim}")
        arr = np.ascontiguousarray(arr, dtype=np.complex128)
        if arr.size and not np.all(np.isfinite(arr)):
            raise ValueError("matrix entries must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    def __array__(self, dtype=None, copy=None):
        if dtype is not None and dtype != self.data.dtype:
            return self.data.astype(dtype)  # astype already copies
        return self.data.copy() if copy else self.data


@dataclass(frozen=True)
class LogDet:
    """Determinant in log form: det = exp(log_abs) * phase.

    ``phase`` has unit modulus unless ``singular_flag`` is set, in which case
    ``log_abs`` is -inf and ``phase`` is 0.
    """

    log_abs: float
    phase: complex
    singular_flag: bool = False

    @property
    def value(self) -> complex:
        if self.singular_flag:
            return 0j
        return math.exp(self.log_abs) * self.phase


def _as_square_array(m) -> np.ndarray:
    if not isinstance(m, DenseMatrix):
        m = DenseMatrix(np.asarray(m))
    rows, cols = m.data.shape
    if rows != cols:
        raise DimensionError(f"square matrix required, got {rows}x{cols}")
    return m.data


@functools.cache
def _linalg():
    """scipy.linalg, imported at the first LU: it takes most of the import
    time of this package, and only the LU paths use it (cached, so a call
    costs what a module attribute lookup does)."""
    import scipy.linalg

    return scipy.linalg


def _lu(a: np.ndarray):
    # scipy warns on exactly-zero pivots; singularity is handled by callers.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return _linalg().lu_factor(a, check_finite=False)


def _logdet_from_lu(diag: np.ndarray, piv: np.ndarray) -> LogDet:
    """LogDet of a pivoted LU factorization from the diagonal of U and the
    0-based row interchanges; a pivot below PIVOT_UNDERFLOW is singular."""
    absd = np.abs(diag)
    if float(absd.min()) < PIVOT_UNDERFLOW:
        return LogDet(-math.inf, 0j, True)
    log_abs = float(np.sum(np.log(absd)))
    swaps = int(np.count_nonzero(piv != np.arange(len(piv))))
    phase = complex(np.prod(diag / absd)) * (-1.0) ** swaps
    return LogDet(log_abs, phase / abs(phase), False)


def lu_logdet(m) -> LogDet:
    """Log-magnitude and phase of det(m) from a pivoted LU factorization."""
    a = _as_square_array(m)
    if a.shape[0] == 0:
        return LogDet(0.0, 1 + 0j, False)
    lu, piv = _lu(a)
    return _logdet_from_lu(np.diagonal(lu), piv)


def solve(m, rhs) -> np.ndarray:
    """Solve m x = rhs with the same pivoted factorization as lu_logdet."""
    a = _as_square_array(m)
    b = np.asarray(rhs, dtype=np.complex128)
    if b.shape != (a.shape[0],):
        raise DimensionError(
            f"rhs length {b.shape} does not match matrix order {a.shape[0]}"
        )
    if a.shape[0] == 0:
        return b.copy()
    lu, piv = _lu(a)
    smallest = float(np.abs(np.diagonal(lu)).min())
    if smallest < PIVOT_UNDERFLOW:
        raise SingularMatrixError("matrix is numerically singular", smallest)
    return _linalg().lu_solve((lu, piv), b, check_finite=False)


def _band_lu(diagonals: Mapping[int, np.ndarray], n: int) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal of U and 0-based row interchanges of LAPACK's partially
    pivoted band LU (``zgbtrf``) of the leading n x n section."""
    p = max(0, max(diagonals, default=0))
    q = max(0, -min(diagonals, default=0))
    # LAPACK band storage: entry (j+d, j) at ab[p+q+d, j]; rows 0..p-1 take
    # fill.  zgbtrf never reads the slots j+d >= n outside the section.
    ab = np.zeros((2 * p + q + 1, n), dtype=np.complex128, order="F")
    for d, v in diagonals.items():
        ab[p + q + d] = v[:n]
    lu, ipiv, info = _linalg().lapack.zgbtrf(ab, p, q, overwrite_ab=True)
    if info < 0:
        raise ValueError(f"zgbtrf rejected argument {-info}")
    return lu[p + q], ipiv


def band_logdet(diagonals: Mapping[int, np.ndarray], n: int) -> LogDet:
    """det of the leading n x n section of a band matrix (``diagonals`` as in
    `band_lu_pivots`, vectors of length >= n) from its band LU in O(n w^2);
    sign and singular test as in `lu_logdet`."""
    if n == 0:
        return LogDet(0.0, 1 + 0j, False)
    return _logdet_from_lu(*_band_lu(diagonals, n))


def band_lu_pivots(diagonals: Mapping[int, np.ndarray], n: int) -> tuple[np.ndarray, int]:
    """Pivots of the LU factorization without row swaps of an n x n band matrix.

    ``diagonals`` maps offset d to a length-n vector v with v[j] = entry(j+d, j),
    zero where j+d falls outside 0..n-1.  Pivot k is det(A_{k+1}) / det(A_k)
    for the leading k x k sections A_k, so one pass yields every successive
    determinant ratio.

    Returns (pivots, stop): ``stop`` is the first row swap of LAPACK's
    partially pivoted band LU (``zgbtrf``) or its first pivot below
    PIVOT_UNDERFLOW (or NaN), n when neither occurs, and ``pivots`` holds the
    ``stop`` pivots before it.  Up to its first swap that factorization is
    the one without swaps, with |multiplier| <= sqrt(2): partial pivoting
    keeps cabs1(pivot) = |Re| + |Im| >= cabs1 of every entry below.
    """
    diag, ipiv = _band_lu(diagonals, n)
    swaps = np.flatnonzero(ipiv != np.arange(n))
    stop = int(swaps[0]) if swaps.size else n
    failed = np.flatnonzero(~(np.abs(diag[:stop]) >= PIVOT_UNDERFLOW))  # also NaN
    if failed.size:
        stop = int(failed[0])
    return diag[:stop].copy(), stop


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
    if not isinstance(m, DenseMatrix):
        m = DenseMatrix(np.asarray(m))
    try:
        return np.linalg.svd(m.data, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"singular value iteration failed: {exc}") from exc
