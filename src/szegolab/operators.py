"""Operator descriptions and finite section assembly.

Every sectioned operator is a band operator with almost periodic diagonals
(`BandAPOperator`): a Toeplitz operator is the case where every diagonal is
constant (`as_band_operator` of its symbol), the almost Mathieu operator has
a cosine main diagonal, and composites are sums of products of band
operators, used by the Folner trace estimates.  The convention throughout:
the matrix entry at (i, j) is diagonal[i - j] evaluated at the column index
j.  One routine evaluates the diagonals on a column range; the diagonal
storage of `band_diagonals` and every dense section (sections over 0..n-1,
flipped and reversed corners, Toeplitz sections) are views of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .almostperiodic import APFunction, eval_ap
from .numkernel import DenseMatrix
from .symbols import TrigPolynomial


@dataclass(frozen=True)
class BandAPOperator:
    """Band operator: offset d -> almost periodic diagonal, |d| <= bandwidth.

    Entry (i, j) is diagonals[i - j](j) when the offset is present, else 0.
    ``domain`` marks whether indices run over all integers or only over the
    non-negative ones.
    """

    diagonals: Mapping[int, APFunction]
    domain: str = "Z"

    def __post_init__(self):
        if self.domain not in ("Z", "Z+"):
            raise ValueError(f"domain must be 'Z' or 'Z+', got {self.domain!r}")
        clean = {
            int(d): f for d, f in self.diagonals.items() if f.terms
        }
        object.__setattr__(self, "diagonals", clean)

    @property
    def bandwidth(self) -> int:
        if not self.diagonals:
            return 0
        return max(abs(d) for d in self.diagonals)


@dataclass(frozen=True)
class CompositeOperator:
    """Sum of products of band operators."""

    products: tuple[tuple[BandAPOperator, ...], ...]

    def __post_init__(self):
        if not self.products or any(not p for p in self.products):
            raise ValueError("composite operator needs at least one nonempty product")

    @classmethod
    def of(cls, *factors: BandAPOperator) -> "CompositeOperator":
        return cls((tuple(factors),))

    @property
    def total_bandwidth(self) -> int:
        return max(sum(f.bandwidth for f in prod) for prod in self.products)


def as_band_operator(op) -> BandAPOperator:
    """A band operator as is; a symbol as its Toeplitz operator over all
    integers."""
    if isinstance(op, BandAPOperator):
        return op
    if isinstance(op, TrigPolynomial):
        return BandAPOperator({k: APFunction.constant(c) for k, c in op.coeffs.items()})
    raise TypeError(f"cannot interpret {type(op).__name__} as a band operator")


def almost_mathieu(alpha: float, lam: float, theta: float = 0.0) -> BandAPOperator:
    """x_{n+1} + x_{n-1} + lam cos(2 pi (n alpha + theta)) x_n: ones
    off-diagonal, cosine main diagonal."""
    return BandAPOperator(
        {
            1: APFunction.constant(1.0),
            -1: APFunction.constant(1.0),
            0: APFunction.cosine(lam, alpha, theta),
        },
        "Z",
    )


def _diagonal_values(diagonals: Mapping[int, APFunction], size: int, start: int, step: int):
    """(d, lo, hi, values) for every offset d of a size x size section: its
    entries (j + d, j) for lo <= j < hi, and diagonals[d] at start + step * j
    (one value, broadcast over the range, when the diagonal is constant)."""
    for d, f in diagonals.items():
        if abs(d) < size:
            lo, hi = max(0, -d), size - max(0, d)
            constant = len(f.terms) == 1 and f.terms[0][0] == 0.0
            at = np.zeros(1) if constant else np.arange(start + step * lo, start + step * hi, step)
            yield d, lo, hi, eval_ap(f, at)


def _section(diagonals, size: int, start: int = 0, step: int = 1) -> np.ndarray:
    """Dense size x size matrix with entry (j + d, j) = diagonals[d](start + step * j)."""
    m = np.zeros((size, size), dtype=np.complex128)
    for d, lo, hi, values in _diagonal_values(diagonals, size, start, step):
        cols = np.arange(lo, hi)
        m[cols + d, cols] = values
    return m


def band_diagonals(A: BandAPOperator, n: int) -> dict[int, np.ndarray]:
    """Section over 0..n-1 in diagonal storage: offset d -> vector v with
    v[j] = entry(j+d, j) on the valid column range and 0 outside it."""
    vectors: dict[int, np.ndarray] = {}
    for d, lo, hi, values in _diagonal_values(A.diagonals, n, 0, 1):
        v = vectors[d] = np.zeros(n, dtype=np.complex128)
        v[lo:hi] = values
    return vectors


def band_ap_section(A: BandAPOperator, n: int) -> DenseMatrix:
    """Finite section over indices 0..n-1."""
    if n < 1:
        raise ValueError("section size must be >= 1")
    return DenseMatrix(_section(A.diagonals, n))


def toeplitz_section(a: TrigPolynomial, n: int) -> DenseMatrix:
    """The n x n section with entry (i, j) = a_{i-j}."""
    return band_ap_section(as_band_operator(a), n)


def _reflected(A: BandAPOperator) -> dict[int, APFunction]:
    return {-d: f for d, f in A.diagonals.items()}


def flip_section(A: BandAPOperator, n: int) -> DenseMatrix:
    """Section of the reflected negative-quadrant corner.

    Entry (i, j) = A(-1-i, -1-j) = diagonal[j-i](-1-j); this is the corner
    whose invertibility governs the second stability condition, and for a
    Toeplitz symbol a it reproduces the section of the reflected symbol
    a(1/t).
    """
    if n < 1:
        raise ValueError("section size must be >= 1")
    if A.domain != "Z":
        raise ValueError("flip sections need an operator over all integers")
    return DenseMatrix(_section(_reflected(A), n, -1, -1))


def reversed_section(A: BandAPOperator, n: int) -> DenseMatrix:
    """W_n A W_n: entry (i, j) = A(n-1-i, n-1-j) = diagonal[j-i](n-1-j)."""
    if n < 1:
        raise ValueError("section size must be >= 1")
    return DenseMatrix(_section(_reflected(A), n, n - 1, -1))


def _assemble(E: CompositeOperator, size: int) -> np.ndarray:
    total = np.zeros((size, size), dtype=np.complex128)
    for prod in E.products:
        acc = _section(prod[0].diagonals, size)
        for f in prod[1:]:
            acc = acc @ _section(f.diagonals, size)
        total += acc
    return total


def composite_sections(E: CompositeOperator, n: int) -> tuple[DenseMatrix, DenseMatrix]:
    """Product of n-sections vs n-crop of the m-truncated full product.

    For banded factors the crop is exact once m exceeds n plus the summed
    factor bandwidths; m doubles that margin and adds slack.
    """
    if n < 1:
        raise ValueError("section size must be >= 1")
    m = n + 2 * E.total_bandwidth + 8
    product_of_sections = _assemble(E, n)
    section_of_product = _assemble(E, m)[:n, :n]
    return DenseMatrix(product_of_sections), DenseMatrix(section_of_product)
