"""Operator descriptions and finite section assembly.

Band operators with almost periodic diagonals (Toeplitz operators being the
constant-diagonal special case), the almost Mathieu operator, flipped and
reversed corner compressions, and composite sums of products used by the
Folner trace estimates.  The convention throughout: the matrix entry at
(i, j) is diagonal[i - j] evaluated at the column index j.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Union

import numpy as np
import scipy.linalg

from .almostperiodic import APFunction, ap_from_json, ap_to_json, eval_ap
from .numkernel import DenseMatrix
from .symbols import TrigPolynomial, symbol_from_json, symbol_to_json


class TruncationError(ValueError):
    """Big-product truncation window too small for the requested section."""


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

    def entry(self, i: int, j: int) -> complex:
        f = self.diagonals.get(i - j)
        if f is None:
            return 0j
        return eval_ap(f, j)

    def main_diagonal(self) -> APFunction:
        return self.diagonals.get(0, APFunction([]))

    def __add__(self, other: "BandAPOperator") -> "BandAPOperator":
        if self.domain != other.domain:
            raise ValueError("cannot add operators on different domains")
        merged = dict(self.diagonals)
        for d, f in other.diagonals.items():
            merged[d] = merged[d] + f if d in merged else f
        return BandAPOperator(merged, self.domain)

    def scaled(self, c) -> "BandAPOperator":
        return BandAPOperator(
            {d: f * c for d, f in self.diagonals.items()}, self.domain
        )


@dataclass(frozen=True)
class AlmostMathieuParams:
    """Parameters of x_{n+1} + x_{n-1} + lambda cos(2 pi (n alpha + theta)) x_n."""

    alpha: float
    lam: float
    theta: float = 0.0


@dataclass(frozen=True)
class ToeplitzFactor:
    symbol: TrigPolynomial

    @property
    def bandwidth(self) -> int:
        return self.symbol.bandwidth


@dataclass(frozen=True)
class APMultiplier:
    func: APFunction

    bandwidth = 0


@dataclass(frozen=True)
class ProjectionP:
    """The projection onto non-negative indices; the identity on its domain."""

    bandwidth = 0


Factor = Union[ToeplitzFactor, APMultiplier, ProjectionP]


@dataclass(frozen=True)
class CompositeOperator:
    """Sum of products of Toeplitz, multiplication and projection factors."""

    products: tuple[tuple[Factor, ...], ...]

    def __post_init__(self):
        if not self.products or any(not p for p in self.products):
            raise ValueError("composite operator needs at least one nonempty product")

    @classmethod
    def of(cls, *factors: Factor) -> "CompositeOperator":
        return cls((tuple(factors),))

    @property
    def total_bandwidth(self) -> int:
        return max(sum(f.bandwidth for f in prod) for prod in self.products)

    @property
    def has_ap_multiplier(self) -> bool:
        return any(
            isinstance(f, APMultiplier) for prod in self.products for f in prod
        )

    def symbol(self) -> TrigPolynomial:
        """Sum over products of the factor symbol products.

        Only defined inside the Toeplitz algebra: multiplication factors with
        genuinely almost periodic coefficients are rejected.
        """
        total = TrigPolynomial({})
        for prod in self.products:
            sym = TrigPolynomial.constant(1.0)
            for f in prod:
                if isinstance(f, ToeplitzFactor):
                    sym = sym * f.symbol
                elif isinstance(f, ProjectionP):
                    pass
                else:
                    raise ValueError(
                        "symbol is undefined for composites with almost periodic "
                        "multiplication factors"
                    )
            total = total + sym
        return total


def as_band_operator(op, domain: str = "Z") -> BandAPOperator:
    """Coerce a symbol or parameter object into a band operator."""
    if isinstance(op, BandAPOperator):
        return op
    if isinstance(op, TrigPolynomial):
        return BandAPOperator(
            {k: APFunction.constant(c) for k, c in op.coeffs.items()}, domain
        )
    if isinstance(op, AlmostMathieuParams):
        return almost_mathieu(op)
    raise TypeError(f"cannot interpret {type(op).__name__} as a band operator")


def toeplitz_symbol(op: BandAPOperator) -> TrigPolynomial:
    """Recover the symbol of a constant-diagonal (Toeplitz) band operator."""
    coeffs = {}
    for d, f in op.diagonals.items():
        if not f.is_constant:
            raise ValueError(f"diagonal {d} is not constant; operator is not Toeplitz")
        coeffs[d] = eval_ap(f, 0)
    return TrigPolynomial(coeffs)


def toeplitz_section(a: TrigPolynomial, n: int) -> DenseMatrix:
    """The n x n section with entry (i, j) = a_{i-j}."""
    if n < 1:
        raise ValueError("section size must be >= 1")
    col = np.array([a.coefficient(k) for k in range(n)], dtype=np.complex128)
    row = np.array([a.coefficient(-k) for k in range(n)], dtype=np.complex128)
    return DenseMatrix(scipy.linalg.toeplitz(col, row))


def _fill_band(size: int, index_of_col, diagonals) -> np.ndarray:
    m = np.zeros((size, size), dtype=np.complex128)
    for d, f in diagonals.items():
        if abs(d) >= size:
            continue
        cols = np.arange(max(0, -d), size - max(0, d))
        rows = cols + d
        m[rows, cols] = eval_ap(f, index_of_col(cols))
    return m


def band_ap_section(A: BandAPOperator, kind: str, n: int) -> DenseMatrix:
    """Finite section over indices 0..n-1 (kind 'P') or -n..n-1 (kind 'R')."""
    if n < 1:
        raise ValueError("section size must be >= 1")
    if kind == "P":
        size, offset = n, 0
    elif kind == "R":
        size, offset = 2 * n, -n
    else:
        raise ValueError(f"kind must be 'P' or 'R', got {kind!r}")
    return DenseMatrix(
        _fill_band(size, lambda cols: cols + offset, A.diagonals)
    )


def band_diagonals(A: BandAPOperator, n: int) -> dict[int, np.ndarray]:
    """Section over 0..n-1 in diagonal storage: offset d -> vector v with
    v[j] = entry(j+d, j) on the valid column range and 0 outside it."""
    vectors: dict[int, np.ndarray] = {}
    for d, f in A.diagonals.items():
        if abs(d) >= n:
            continue
        v = np.zeros(n, dtype=np.complex128)
        cols = np.arange(max(0, -d), n - max(0, d))
        v[cols] = eval_ap(f, cols)
        vectors[d] = v
    return vectors


def almost_mathieu(p: AlmostMathieuParams) -> BandAPOperator:
    """The almost Mathieu operator: ones off-diagonal, cosine main diagonal."""
    return BandAPOperator(
        {
            1: APFunction.constant(1.0),
            -1: APFunction.constant(1.0),
            0: APFunction.cosine(p.lam, p.alpha, p.theta),
        },
        "Z",
    )


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
    flipped = {-d: f for d, f in A.diagonals.items()}
    return DenseMatrix(
        _fill_band(n, lambda cols: -1 - cols, flipped)
    )


def reversed_section(A: BandAPOperator, n: int) -> DenseMatrix:
    """W_n A W_n: entry (i, j) = A(n-1-i, n-1-j) = diagonal[j-i](n-1-j)."""
    if n < 1:
        raise ValueError("section size must be >= 1")
    flipped = {-d: f for d, f in A.diagonals.items()}
    return DenseMatrix(
        _fill_band(n, lambda cols, _n=n: _n - 1 - cols, flipped)
    )


def _factor_section(f: Factor, size: int) -> np.ndarray:
    if isinstance(f, ToeplitzFactor):
        return np.asarray(toeplitz_section(f.symbol, size))
    if isinstance(f, APMultiplier):
        return np.diag(eval_ap(f.func, np.arange(size)))
    if isinstance(f, ProjectionP):
        return np.eye(size, dtype=np.complex128)
    raise TypeError(f"unknown factor {type(f).__name__}")


def _assemble(E: CompositeOperator, size: int) -> np.ndarray:
    total = np.zeros((size, size), dtype=np.complex128)
    for prod in E.products:
        acc = _factor_section(prod[0], size)
        for f in prod[1:]:
            acc = acc @ _factor_section(f, size)
        total += acc
    return total


def composite_sections(
    E: CompositeOperator, n: int, m: int | None = None
) -> tuple[DenseMatrix, DenseMatrix]:
    """Product of n-sections vs n-crop of the m-truncated full product.

    For banded factors the crop is exact once m exceeds n plus the summed
    factor bandwidths; the default margin doubles that and adds slack.
    """
    if n < 1:
        raise ValueError("section size must be >= 1")
    total_bw = E.total_bandwidth
    if m is None:
        m = n + 2 * total_bw + 8
    if m < n + total_bw:
        raise TruncationError(
            f"truncation m={m} too small: need at least n + total bandwidth = "
            f"{n + total_bw}"
        )
    product_of_sections = _assemble(E, n)
    section_of_product = _assemble(E, m)[:n, :n]
    return DenseMatrix(product_of_sections), DenseMatrix(section_of_product)


def operator_to_json(op) -> dict:
    """Tagged JSON description of an operator or symbol."""
    if isinstance(op, TrigPolynomial):
        return {"kind": "toeplitz", "symbol": symbol_to_json(op)}
    if isinstance(op, AlmostMathieuParams):
        return {
            "kind": "almost-mathieu",
            "alpha": op.alpha,
            "lambda": op.lam,
            "theta": op.theta,
        }
    if isinstance(op, BandAPOperator):
        return {
            "kind": "band-ap",
            "domain": op.domain,
            "diagonals": {str(d): ap_to_json(f) for d, f in op.diagonals.items()},
        }
    if isinstance(op, CompositeOperator):
        return {
            "kind": "composite",
            "products": [
                [_factor_to_json(f) for f in prod] for prod in op.products
            ],
        }
    raise TypeError(f"cannot serialize {type(op).__name__}")


def _factor_to_json(f: Factor) -> dict:
    if isinstance(f, ToeplitzFactor):
        return {"kind": "toeplitz", "symbol": symbol_to_json(f.symbol)}
    if isinstance(f, APMultiplier):
        return {"kind": "ap-multiplier", "terms": ap_to_json(f.func)}
    return {"kind": "projection"}


def operator_from_json(obj: Mapping):
    kind = obj.get("kind")
    if kind == "toeplitz":
        return symbol_from_json(obj["symbol"])
    if kind == "almost-mathieu":
        return almost_mathieu(
            AlmostMathieuParams(
                float(obj["alpha"]), float(obj["lambda"]), float(obj.get("theta", 0.0))
            )
        )
    if kind == "band-ap":
        diagonals = {
            int(d): ap_from_json(terms)
            for d, terms in obj["diagonals"].items()
        }
        return BandAPOperator(diagonals, obj.get("domain", "Z"))
    if kind == "composite":
        products = tuple(
            tuple(_factor_from_json(f) for f in prod) for prod in obj["products"]
        )
        return CompositeOperator(products)
    raise ValueError(f"unknown operator kind {kind!r}")


def _factor_from_json(obj: Mapping) -> Factor:
    kind = obj.get("kind")
    if kind == "toeplitz":
        return ToeplitzFactor(symbol_from_json(obj["symbol"]))
    if kind == "ap-multiplier":
        return APMultiplier(ap_from_json(obj["terms"]))
    if kind == "projection":
        return ProjectionP()
    raise ValueError(f"unknown factor kind {kind!r}")
