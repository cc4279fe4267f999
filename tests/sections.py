"""Dense section builders and solves that only the tests use: oracles for
the band routes of `szegolab`, which never form these matrices."""

import numpy as np

from szegolab.operators import (
    BandAPOperator,
    CompositeOperator,
    band_ap_section,
    band_diagonals,
    dense_section,
)


def composite_of(*factors: BandAPOperator) -> CompositeOperator:
    """The composite operator of one product of the factors."""
    return CompositeOperator((tuple(factors),))


def flip_section(A: BandAPOperator, n: int) -> np.ndarray:
    """The flip section, entry (i, j) = A(-1-i, -1-j): the section over
    -n..-1 with rows and columns reversed."""
    return dense_section(band_diagonals(A, n, start=-n), n)[::-1, ::-1]


def inverse_corner(section: np.ndarray) -> complex:
    """x[0] of section x = e_0, the 0-0 entry of the inverse, by numpy's
    dense solve (which raises `LinAlgError` on an exactly singular section)."""
    return complex(np.linalg.solve(section, np.eye(len(section))[0])[0])


def cramer_ratio(A: BandAPOperator, n: int) -> complex:
    """det(section n-1) / det(section n) by Cramer's rule: x[0] of
    (W_n A_n W_n) x = e_0, with W_n the reversal of 0..n-1."""
    return inverse_corner(band_ap_section(A, n)[::-1, ::-1])


def _assemble(E: CompositeOperator, size: int) -> np.ndarray:
    total = np.zeros((size, size), dtype=np.complex128)
    for prod in E.products:
        acc = dense_section(band_diagonals(prod[0], size), size)
        for f in prod[1:]:
            acc = acc @ dense_section(band_diagonals(f, size), size)
        total += acc
    return total


def composite_sections(E: CompositeOperator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Product of n-sections vs n-crop of the m-truncated full product, as
    dense matrices (`szego.folner_discrepancy` forms both in band storage).

    For banded factors the crop is exact once m exceeds n plus the summed
    factor bandwidths; m doubles that margin and adds slack.
    """
    if n < 1:
        raise ValueError("section size must be >= 1")
    m = n + 2 * E.total_bandwidth + 8
    return _assemble(E, n), _assemble(E, m)[:n, :n]
