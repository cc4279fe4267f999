"""Finite sections of Toeplitz and almost periodic band operators.

A numerical laboratory for Szego-type limit behaviour: section determinant
ratios, strong Szego constants, eigenvalue and singular value distribution
means, distinguished section-size sequences from continued fractions, and
Folner trace estimates.
"""

from .numkernel import (
    LogDet,
    eigvals_general,
    eigvals_hermitian,
    singular_values,
)
from .symbols import (
    TrigPolynomial,
    geometric_mean,
    strong_szego_constant,
    symbol_average,
)
from .almostperiodic import (
    APFunction,
    ContinuedFraction,
    DistinguishedSequence,
    distinguished_sequence,
    eval_ap,
    expand_cf,
    mean_value,
)
from .operators import (
    BandAPOperator,
    CompositeOperator,
    almost_mathieu,
    as_band_operator,
    band_ap_section,
    composite_sections,
    flip_section,
)
from .szego import (
    SkippedSize,
    SzegoReport,
    TestFunction,
    cluster_partial_limits,
    det_ratio_sequence,
    det_ratio_via_cramer,
    eigen_mean,
    eigen_sample,
    folner_discrepancy,
    g_limit_constant,
    limit_prediction,
    singular_mean,
    stability_probe,
    strong_szego_ratio,
    sweep,
)

__version__ = "0.1.0"
