"""Operator descriptions, finite section assembly and band-storage algebra.

Every sectioned operator is a band operator with almost periodic diagonals
(`BandAPOperator`): a Toeplitz operator is the case where every diagonal is
constant (`as_band_operator` of its symbol), the almost Mathieu operator has
a cosine main diagonal, and composites are sums of products of band
operators, used by the Folner trace estimates.  The convention throughout:
the matrix entry at (i, j) is diagonal[i - j] evaluated at the column index
j.  Every section is the operator over start..start+n-1 in diagonal
storage, from one routine (`band_diagonals`): start is 0, or -n for the
section ending at the origin that the limit constant and the stability
probe's flip section read.  A constant diagonal (every diagonal of a
Toeplitz operator) is filled from its one value, so no array is evaluated
for it.  Storage is complex128, except the section of a real Toeplitz
operator for a band LU (``lu=True``): float64, which the LU factors in real
arithmetic.  `dense_section` scatters storage into a matrix.

Only this module, and the band LU's copy into LAPACK storage, index the
storage; its algebra, which `szego` calls, is here too: products, adjoints,
the exact Hermitian test, the main diagonal of a polynomial and the dense
trailing block of a section.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .almostperiodic import APFunction, eval_ap
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

    @property
    def is_real_toeplitz(self) -> bool:
        """Every diagonal a real constant: the Toeplitz operator of a symbol
        with real coefficients."""
        terms = [f.terms for f in self.diagonals.values()]
        return all(len(t) == 1 and t[0][0] == 0.0 and t[0][1].imag == 0 for t in terms)


@dataclass(frozen=True)
class CompositeOperator:
    """Sum of products of band operators."""

    products: tuple[tuple[BandAPOperator, ...], ...]

    def __post_init__(self):
        if not self.products or any(not p for p in self.products):
            raise ValueError("composite operator needs at least one nonempty product")

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


def dense_section(vectors: Mapping[int, np.ndarray], size: int) -> np.ndarray:
    """The size x size matrix with entry (j + d, j) = vectors[d][j] (diagonal
    storage as `band_diagonals` gives it)."""
    m = np.zeros((size, size), dtype=np.complex128)
    flat = m.reshape(-1)  # a view: entry (j + d, j) is flat[j * (size + 1) + d * size]
    for d, v in vectors.items():
        lo, hi = max(0, -d), size - max(0, d)
        flat[lo * (size + 1) + d * size :: size + 1][: hi - lo] = v[lo:hi]
    return m


def band_diagonals(
    A: BandAPOperator, n: int, lu: bool = False, start: int = 0
) -> dict[int, np.ndarray]:
    """Section over start..start+n-1 in diagonal storage: offset d -> vector
    v with v[j] = entry (j + d, j) = diagonals[d](start + j) on the valid
    column range and 0 outside it, complex128.  With ``lu``, the storage for
    a band LU, it is float64 for a real Toeplitz operator, whose LU then
    runs in real arithmetic.  A constant diagonal is filled from its one
    value, bit for bit what `eval_ap` gives, without evaluating it.  A
    negative ``start`` needs an operator over all integers."""
    if n < 1:
        raise ValueError("section size must be >= 1")
    if start < 0 and A.domain != "Z":
        raise ValueError("sections at negative indices need an operator over all integers")
    real = lu and A.is_real_toeplitz
    vectors: dict[int, np.ndarray] = {}
    for d, f in A.diagonals.items():
        if abs(d) < n:
            lo, hi = max(0, -d), n - max(0, d)
            v = vectors[d] = np.zeros(n, dtype=np.float64 if real else np.complex128)
            if len(f.terms) == 1 and f.terms[0][0] == 0.0:
                # eval_ap's value c * e^0, added to 0: a signed zero part reads +0.0
                c = f.terms[0][1]
                v[lo:hi] = c.real + 0.0 if real else complex(c.real + 0.0, c.imag + 0.0)
            else:
                v[lo:hi] = eval_ap(f, np.arange(start + lo, start + hi))
    return vectors


def band_ap_section(A: BandAPOperator, n: int) -> np.ndarray:
    """Finite section over indices 0..n-1."""
    return dense_section(band_diagonals(A, n), n)


# ---------------------------------------------------------------------------
# band storage algebra: offset d -> vector v, v[j] = entry (j + d, j)


def _band_matmul(
    a: dict[int, np.ndarray], b: dict[int, np.ndarray], m: int, main_only: bool = False
) -> dict[int, np.ndarray]:
    """Product of two m x m banded matrices in diagonal storage; only its
    main diagonal when ``main_only``.

    (AB)(j+d, j) = sum_{d1+d2=d} A(j+d2+d1, j+d2) B(j+d2, j); the stored
    vectors are zero outside their valid ranges, so only index bounds need
    care.
    """
    out: dict[int, np.ndarray] = {}
    for d1, va in a.items():
        for d2, vb in b.items():
            d = d1 + d2
            if not -m < d < m or (main_only and d):
                continue
            lo = max(0, -d2)
            hi = m - max(0, d2)
            if hi <= lo:
                continue
            acc = out.setdefault(d, np.zeros(m, dtype=np.complex128))
            acc[lo:hi] += va[lo + d2 : hi + d2] * vb[lo:hi]
    return out


def _adjoint(vectors: dict[int, np.ndarray], m: int) -> dict[int, np.ndarray]:
    """A^H of the m x m matrix A in diagonal storage: its entry (j, j + d) is
    the conjugate of entry (j + d, j) of A, so offset -d holds v_d shifted
    by d."""
    out: dict[int, np.ndarray] = {}
    for d, v in vectors.items():
        lo, hi = max(0, -d), m - max(0, d)
        u = out[-d] = np.zeros(m, dtype=np.complex128)
        u[lo + d : hi + d] = np.conj(v[lo:hi])
    return out


def _is_hermitian(vectors: dict[int, np.ndarray], m: int) -> bool:
    """Whether the matrix equals its adjoint entry for entry, with no
    tolerance: entry (j + d, j) is the conjugate of entry (j, j + d)."""
    for d, v in vectors.items():
        lo, hi = max(0, -d), m - max(0, d)
        w = vectors.get(-d)
        if w is None:
            if v[lo:hi].any():
                return False
        elif not (v[lo:hi] == np.conj(w[lo + d : hi + d])).all():
            return False
    return True


def _poly_diagonal(base: dict[int, np.ndarray], m: int, coeffs: np.ndarray) -> np.ndarray:
    """Main diagonal of p(B) = sum_k coeffs[k] B^k for the m x m matrix B in
    diagonal storage, from banded products: the k-th power of a bandwidth-w
    matrix has bandwidth k*w, so the cost stays linear in m."""
    diag = np.full(m, coeffs[0], dtype=np.complex128)
    power = None
    top = len(coeffs) - 1
    for k in range(1, top + 1):
        power = base if power is None else _band_matmul(power, base, m, main_only=k == top)
        if coeffs[k] != 0 and 0 in power:
            diag = diag + coeffs[k] * power[0]
    return diag


def _band_product(factors: Sequence[BandAPOperator], m: int) -> dict[int, np.ndarray]:
    """Product of the m-sections of the factors, in diagonal storage."""
    acc = band_diagonals(factors[0], m)
    for f in factors[1:]:
        acc = _band_matmul(acc, band_diagonals(f, m), m)
    return acc


def _trailing_block(vectors: Mapping[int, np.ndarray], n: int, c: int) -> np.ndarray:
    """Rows and columns n-c..n-1 of the matrix in diagonal storage, as a
    dense c x c matrix."""
    return dense_section({d: v[n - c : n] for d, v in vectors.items() if abs(d) < c}, c)
