"""The band-storage routes of the spectral kinds against the dense routes
they replace: traces against eigenvalues and matrix powers, the singular
trace against the SVD, the Folner corner against the full difference, and
the stability probe's |eigenvalues| and sliced blocks against per-size SVDs.
Also the log determinant of the band LU against the eigenvalues (the
Thouless identity), and its closed forms for the almost Mathieu operator."""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from szegolab.almostperiodic import APFunction
from szegolab.cli import main
from szegolab.numkernel import band_lu, eigenvalues, singular_values
from szegolab.operators import BandAPOperator, CompositeOperator, almost_mathieu, band_ap_section, band_diagonals
from szegolab.szego import (
    TestFunction,
    eigen_dist_mean,
    folner_discrepancy,
    singular_dist_mean,
    stability_probe,
)

from sections import composite_sections, flip_section

EPS = np.finfo(float).eps
KINDS = ("hermitian", "symmetric", "general")
PART = st.floats(-1, 1, allow_subnormal=False)
COMPLEX = st.builds(complex, PART, PART)
FREQ = st.floats(0, 1, exclude_max=True)


@st.composite
def band_ap_operators(draw, kind, max_width=3):
    """Band operators over Z of bandwidth <= max_width.  'hermitian': a real
    almost periodic main diagonal (cosines) and conjugate constant
    off-diagonals, so every section is exactly Hermitian; 'symmetric': the
    same with real off-diagonals; 'general': one or two almost periodic
    terms with complex coefficients on every diagonal (non-normal)."""
    w = draw(st.integers(0, max_width))
    if kind == "general":
        return BandAPOperator(
            {d: APFunction(draw(st.lists(st.tuples(FREQ, COMPLEX), min_size=1, max_size=2)))
             for d in range(-w, w + 1)},
            "Z",
        )
    terms = [(0.0, complex(draw(PART)))]
    for f, c in draw(st.lists(st.tuples(FREQ, COMPLEX), max_size=2)):
        terms += [(f, c), (-f, c.conjugate())]
    diagonals = {0: APFunction(terms)}
    for d in range(1, w + 1):
        c = draw(COMPLEX if kind == "hermitian" else PART.map(complex))
        diagonals[d], diagonals[-d] = APFunction.constant(c), APFunction.constant(c.conjugate())
    return BandAPOperator(diagonals, "Z")


OPERATORS = st.sampled_from(KINDS).flatmap(band_ap_operators)
COEFFS = st.lists(PART, min_size=1, max_size=7)


def _norm(section):
    return max(1.0, float(np.abs(section).sum(axis=1).max()))


def _poly_trace_mean(section, coeffs):
    """(1/n) tr p(section) from dense matrix powers."""
    power = np.eye(len(section), dtype=complex)
    total = 0j
    for c in coeffs:
        total += c * np.trace(power)
        power = power @ section
    return total / len(section)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(op=OPERATORS, n=st.integers(1, 48), coeffs=COEFFS)
def test_trace_route_matches_dense_powers_and_hermitian_eigenvalues(op, n, coeffs):
    g = TestFunction.polynomial(coeffs)
    section = band_ap_section(op, n)
    scale = sum(abs(c) * _norm(section) ** k for k, c in enumerate(coeffs)) + 1.0
    value = eigen_dist_mean(op, g, n)
    assert abs(value - _poly_trace_mean(section, coeffs)) <= 1e-10 * scale
    if np.array_equal(section, section.conj().T):
        assert value.imag == 0.0  # real coefficients on a Hermitian section
        assert abs(value - np.mean(g.apply(eigenvalues(section)))) <= 1e-10 * scale


@settings(max_examples=150, deadline=None, derandomize=True)
@given(op=OPERATORS, n=st.integers(1, 48), q=st.lists(PART, min_size=1, max_size=4))
def test_singular_trace_matches_svd(op, n, q):
    coeffs = [c for k in q for c in (k, 0.0)][:-1]  # g(x) = q(x^2)
    g = TestFunction.polynomial(coeffs)
    section = band_ap_section(op, n)
    scale = sum(abs(c) * _norm(section) ** k for k, c in enumerate(coeffs)) + 1.0
    dense = np.mean(g.apply(singular_values(section))).real
    assert abs(singular_dist_mean(op, g, n) - dense) <= 1e-10 * scale


@st.composite
def composites(draw):
    """Up to two products of up to three factors of bandwidth <= 2."""
    factor = st.sampled_from(KINDS).flatmap(lambda kind: band_ap_operators(kind, max_width=2))
    return CompositeOperator(tuple(
        tuple(draw(st.lists(factor, min_size=1, max_size=3)))
        for _ in range(draw(st.integers(1, 2)))
    ))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(e=composites(), n=st.integers(1, 48))
def test_folner_corner_matches_full_svd(e, n):
    prod, crop = composite_sections(e, n)
    difference = prod - crop
    scale = max(float(np.prod([_norm(band_ap_section(f, n)) for f in p])) for p in e.products)
    c = min(n, e.total_bandwidth)
    outside = difference.copy()
    outside[n - c :, n - c :] = 0
    assert np.abs(outside).max() <= 1e-15 * scale  # rounding of the dense products only
    full = float(np.sum(singular_values(difference)) / n)
    assert abs(folner_discrepancy(e, n) - full) <= 1e-10 * scale


SIZES = st.lists(st.integers(1, 48), min_size=1, max_size=5, unique=True).map(sorted)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(op=OPERATORS, sizes=SIZES)
def test_stability_probe_matches_per_size_svd(op, sizes):
    rep = stability_probe(op, sizes)
    norm, mins = 0.0, []
    for n in sizes:
        section, flip = singular_values(band_ap_section(op, n)), singular_values(flip_section(op, n))
        norm = max(norm, section[0], flip[0])
        mins.append((section[-1], flip[-1]))
    symmetric = all(not s.imag.any() and np.array_equal(s, s.T) for s in (
        band_ap_section(op, sizes[-1]), flip_section(op, sizes[-1])))
    if symmetric:  # |eigenvalues|: within 8 rounding units of the norm
        assert abs(rep.norm_scale - norm) <= 8 * EPS * norm
        for value, (s, f) in zip(rep.values, mins):
            assert value.imag == 0.0 and abs(value.real - min(s, f)) <= 8 * EPS * norm
    else:  # the SVD of leading blocks of one assembly: bit for bit the per-size SVD
        assert rep.norm_scale == norm
        assert rep.values.tolist() == [complex(min(s, f)) for s, f in mins]
        assert rep.flags == tuple("section" if s <= f else "flip" for s, f in mins)


# ---------------------------------------------------------------------------
# through the CLI


def _run(tmp_path, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(cfg, output=str(tmp_path / "out"))), encoding="utf-8")
    return main(["run", str(path)])


def test_overflowing_trace_fails_its_size_naming_g(tmp_path, capsys):
    big = [{"freq": 0.0, "re": 1e3, "im": 0.0}]
    cfg = {"experiment": "eigen-dist", "g": {"kind": "power", "k": 256}, "n_range": [4, 8],
           "operator": {"kind": "band-ap", "diagonals": {"0": big, "1": big, "-1": big}},
           "predicted": 0.0}
    assert _run(tmp_path, cfg) == 1
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: n=4: ") and "g=x^256" in err


def test_overflowing_prediction_fails_naming_g_on_one_stderr_line(tmp_path, capsys):
    # as above without a pinned value: the prediction's powers overflow first,
    # silently, and the run fails before any size is measured
    big = [{"freq": 0.0, "re": 1e3, "im": 0.0}]
    cfg = {"experiment": "eigen-dist", "g": {"kind": "power", "k": 256}, "n_range": [4, 8],
           "operator": {"kind": "band-ap", "diagonals": {"0": big, "1": big, "-1": big}}}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert _run(tmp_path, cfg) == 1
    assert caught == []
    assert capsys.readouterr().err == "numeric failure: prediction: g=x^256 not finite on the m=32 section\n"
    assert not (tmp_path / "out.csv").exists()


def test_hermitian_complex_off_diagonals_report_zero_imaginary_parts_on_both_routes(tmp_path):
    cosine = [{"freq": 0.38, "re": 0.4, "im": 0.3}, {"freq": -0.38, "re": 0.4, "im": -0.3}]
    operator = {"kind": "band-ap", "diagonals": {
        "0": cosine,
        "1": [{"freq": 0.0, "re": 0.5, "im": 0.7}],
        "-1": [{"freq": 0.0, "re": 0.5, "im": -0.7}],
    }}
    g = {"kind": "poly", "coeffs": [0.5, -1.0, 2.0, 0.25]}
    values = []
    for route_g in (g, dict(g, domain={"kind": "disk", "radius": 100.0})):  # trace, eigenvalues
        cfg = {"experiment": "eigen-dist", "operator": operator, "g": route_g,
               "n_range": [1, 5, 9, 16], "predicted": 0.0, "tolerance": 100.0}
        assert _run(tmp_path, cfg) == 0
        rows = [line.split(",") for line in (tmp_path / "out.csv").read_text().splitlines()[1:]]
        assert [r[2] for r in rows] == ["0"] * 4
        values.append([float(r[1]) for r in rows])
    assert np.allclose(values[0], values[1], rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------------------
# log determinants: (1/n) log|det(A_n - E)| = (1/n) sum_i log|lambda_i - E|
# for Hermitian A (the Thouless formula's finite form; Avron-Simon, Duke
# Math. J. 50 (1983)), the band LU on one side and the eigenvalues on the other

GOLDEN = (math.sqrt(5) - 1) / 2


def _log_det_mean(op, n, energy):
    """(1/n) log|det(A_n - E)| from one band LU of the shifted storage."""
    diagonals = band_diagonals(op, n)
    diagonals[0] = diagonals.get(0, np.zeros(n, dtype=complex)) - energy
    return band_lu(diagonals, n).logdet().log_abs / n


@st.composite
def hermitian_band_ap_operators(draw):
    """Bandwidth <= 3: a real main diagonal of a constant and up to three
    cosines, conjugate constant off-diagonals."""
    main = [(0.0, complex(draw(PART)))]
    for amplitude, f, phase in draw(st.lists(st.tuples(PART, FREQ, FREQ), max_size=3)):
        main += APFunction.cosine(amplitude, f, phase).terms
    diagonals = {0: APFunction(main)}
    for d in range(1, draw(st.integers(0, 3)) + 1):
        c = draw(COMPLEX)
        diagonals[d], diagonals[-d] = APFunction.constant(c), APFunction.constant(c.conjugate())
    return BandAPOperator(diagonals, "Z")


@settings(max_examples=150, deadline=None, derandomize=True)
@given(op=hermitian_band_ap_operators(), n=st.integers(1, 128), energy=st.floats(-8, 8))
def test_log_determinant_is_the_eigenvalue_mean(op, n, energy):
    lam = eigenvalues(band_ap_section(op, n))
    assert lam.dtype == np.float64  # the self-adjoint path
    assume(np.abs(lam - energy).min() >= 1e-3 * max(1.0, np.abs(lam).max()))
    assert abs(_log_det_mean(op, n, energy) - np.log(np.abs(lam - energy)).mean()) <= 1e-12


@pytest.mark.parametrize("lam", [1.0, 3.0, 4.0])
def test_log_determinant_at_zero_is_the_lyapunov_exponent(lam):
    # E = 0 lies in the spectrum, where L(E) = max(0, log(lambda/2))
    # (Bourgain-Jitomirskaya, J. Stat. Phys. 108 (2002)); at n = 4096 the
    # mean was measured within 1.0e-5, 4.5e-5 and 5.9e-5 of it
    assert abs(_log_det_mean(almost_mathieu(GOLDEN, lam), 4096, 0.0) - max(0.0, math.log(lam / 2))) <= 2e-4


@pytest.mark.parametrize("energy", [5.0, -3.89])
def test_log_determinant_off_the_spectrum_exceeds_hermans_bound(energy):
    # L(E) >= log(lambda/2) for every E (Herman, Comment. Math. Helv. 58
    # (1983)), strictly off the spectrum: 1.4468 and 1.0195 against
    # log 1.5 = 0.4055.  On the spectrum a finite section can read below
    # the bound (E = 2.5: 2.5e-4 under it), so it is not tested there.
    assert _log_det_mean(almost_mathieu(GOLDEN, 3.0), 4096, energy) > math.log(1.5)
