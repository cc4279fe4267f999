"""Dense section builders that only the tests use: oracles for the band
routes of `szegolab`, which never form these matrices."""

import numpy as np

from szegolab.operators import (
    BandAPOperator,
    CompositeOperator,
    band_diagonals,
    dense_section,
    flip_diagonals,
)


def composite_of(*factors: BandAPOperator) -> CompositeOperator:
    """The composite operator of one product of the factors."""
    return CompositeOperator((tuple(factors),))


def flip_section(A: BandAPOperator, n: int) -> np.ndarray:
    """`flip_diagonals` as a dense matrix."""
    return dense_section(flip_diagonals(A, n), n)


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
