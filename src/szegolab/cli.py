"""Experiment runner: JSON config in, CSV table and JSON verdict out.

One config describes one experiment over a sweep of section sizes.  Outputs
are bit-stable: fixed 17-significant-digit decimal formatting, LF line
endings, and no randomness anywhere in the pipeline, so identical configs
produce byte-identical artifacts.

Exit codes: 0 ok, 1 numeric failure, 2 config failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path

import numpy as np

from .almostperiodic import (
    DEFAULT_MAX_TERMS,
    DEFAULT_Q_CAP,
    APFunction,
    check_approximation_bounds,
    convergent_error_bound,
    distinguished_sequence,
    expand_cf,
)
from .numkernel import singular_values
from .operators import (
    BandAPOperator,
    CompositeOperator,
    almost_mathieu,
    as_band_operator,
    band_ap_section,
)
from .symbols import TrigPolynomial, geometric_mean, sample_circle, symbol_average
from .szego import (
    TestFunction,
    cluster_partial_limits,
    det_ratio_sequence,
    eigen_mean,
    eigen_sample,
    folner_discrepancy,
    limit_prediction,
    singular_mean,
    stability_probe,
    strong_szego_ratio,
    sweep,
)

EXPERIMENTS = (
    "szego-ratio",
    "strong-szego",
    "eigen-dist",
    "singular-dist",
    "mathieu-dist",
    "cf-expand",
    "folner",
    "stability",
)

CSV_HEADER = "n,empirical_re,empirical_im,predicted_re,predicted_im,residual,flags"

CF_CSV_HEADER = "n,b_n,p_n,q_n,error_bound"

# Circle points of the symbol averages that predict Toeplitz distribution
# means (eigen-dist over a Toeplitz operator, singular-dist).
SYMBOL_GRID = 4096

# Largest degree of a polynomial g (power.k, len(poly.coeffs) - 1).
MAX_DEGREE = 256

# Largest section size (n_range entries, a geometric stop, the largest
# distinguished size), prediction.m and |offset| of a symbol or diagonal.
MAX_SIZE = 2**16


class ConfigError(ValueError):
    """Config validation failure; the message names the offending field."""


def _write_lines(path, lines) -> None:
    """Write ASCII lines, each ended by LF."""
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def emit_report(report, path) -> None:
    """Write a report as one CSV file: header plus one line per row.

    Bit-stable output; I/O errors propagate untouched.
    """
    pred = "%.17g,%.17g" % (report.predicted.real, report.predicted.imag)
    flags = report.flags or ("",) * len(report.sizes)
    lines = [CSV_HEADER]
    lines.extend(
        "%d,%.17g,%.17g,%s,%.17g,%s" % (n, v.real, v.imag, pred, r, f)
        for n, v, r, f in zip(report.sizes, report.values.tolist(), report.residuals.tolist(), flags)
    )
    _write_lines(path, lines)


def _write_json(path, obj) -> None:
    _write_lines(path, [json.dumps(obj, sort_keys=True, indent=2)])


def _pair(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


# ---------------------------------------------------------------------------
# config parsing


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    output: str
    tolerance: float
    sizes: tuple[int, ...]
    symbol: TrigPolynomial | None = None  # the symbol of a Toeplitz operator
    operator: BandAPOperator | CompositeOperator | None = None
    g: TestFunction | None = None
    alpha: float | None = None
    max_terms: int = DEFAULT_MAX_TERMS
    q_cap: int = DEFAULT_Q_CAP
    predicted_override: complex | None = None
    prediction_m: int | None = None
    prediction_window: int | None = None
    sequence_source: str | None = None


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    """A finite real JSON number; booleans, and integers past the float
    range, do not count."""
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:  # an int too large to convert to a float
        return False


def _require(raw, field, path=""):
    if field not in raw:
        raise ConfigError(f"{path}{field}: missing required field")
    return raw[field]


def _parse_domain(d, path) -> tuple:
    """('interval', lo, hi) with lo <= hi, or ('disk', radius) with radius >= 0."""
    if not isinstance(d, dict):
        raise ConfigError(f"{path}: must be an object")
    kind = d.get("kind")
    fields = {"interval": ("lo", "hi"), "disk": ("radius",)}
    if not isinstance(kind, str) or kind not in fields:
        raise ConfigError(f"{path}.kind: must be 'interval' or 'disk'")
    for name in fields[kind]:
        if not _is_number(d.get(name)):
            raise ConfigError(f"{path}.{name}: must be a finite number")
    if kind == "interval" and d["hi"] < d["lo"]:
        raise ConfigError(f"{path}.hi: must be >= lo")
    if kind == "disk" and d["radius"] < 0:
        raise ConfigError(f"{path}.radius: must be non-negative")
    return (kind,) + tuple(float(d[name]) for name in fields[kind])


def _parse_g(obj, path="g") -> TestFunction:
    """The test function of a tagged description, with its ``domain`` if given."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: must be an object")
    kind = obj.get("kind")
    domain = _parse_domain(obj["domain"], f"{path}.domain") if "domain" in obj else None
    if kind == "poly":
        coeffs = obj.get("coeffs")
        if not isinstance(coeffs, list) or not 1 <= len(coeffs) <= MAX_DEGREE + 1:
            raise ConfigError(f"{path}.coeffs: must be a list of 1 to {MAX_DEGREE + 1} numbers")
        for i, c in enumerate(coeffs):
            if not _is_number(c):
                raise ConfigError(f"{path}.coeffs[{i}]: must be a finite number")
        g = TestFunction.polynomial([float(c) for c in coeffs])
    elif kind == "power":
        k = obj.get("k")
        if not _is_int(k) or not 0 <= k <= MAX_DEGREE:
            raise ConfigError(f"{path}.k: must be an integer from 0 to {MAX_DEGREE}")
        g = TestFunction.power(k)
    elif kind == "named":
        name = obj.get("name")
        named = {"identity": TestFunction.identity, "exp": TestFunction.exp, "log": TestFunction.log}
        if not isinstance(name, str) or name not in named:
            raise ConfigError(f"{path}.name: unknown function {name!r}")
        g = named[name]()
    else:
        raise ConfigError(f"{path}.kind: must be 'poly', 'power' or 'named'")
    return g if domain is None else replace(g, domain=domain)


def _parse_sizes(raw, alpha_hint=None) -> tuple[tuple[int, ...], str | None]:
    """Resolve the sweep grid: a distinguished sequence wins over n_range."""
    if "distinguished" in raw:
        block = raw["distinguished"]
        if not isinstance(block, dict):
            raise ConfigError("distinguished: must be an object")
        length = block.get("length")
        if not _is_int(length) or not 1 <= length <= MAX_SIZE:
            raise ConfigError(f"distinguished.length: must be an integer from 1 to {MAX_SIZE}")
        if "rational" in block:
            pair = block["rational"]
            if not (
                isinstance(pair, list)
                and len(pair) == 2
                and all(_is_int(v) for v in pair)
                and pair[1] >= 1
            ):
                raise ConfigError(
                    "distinguished.rational: must be a pair [p, q] of integers with q >= 1"
                )
            base = Fraction(*pair)
            if base.denominator * length > MAX_SIZE:
                raise ConfigError(
                    f"distinguished.rational: the largest size q * length exceeds {MAX_SIZE}"
                )
            seq = distinguished_sequence(base, length)
        else:
            alpha = block.get("alpha", alpha_hint)
            if alpha is None:
                raise ConfigError("distinguished.alpha: missing (no operator alpha to fall back on)")
            if not _is_number(alpha):
                raise ConfigError("distinguished.alpha: must be a finite number")
            try:
                seq = distinguished_sequence(float(alpha), length)
            except ValueError as exc:
                raise ConfigError(f"distinguished.alpha: {exc}") from exc
            if seq.values[-1] > MAX_SIZE:
                raise ConfigError(
                    f"distinguished.length: the largest size {seq.values[-1]} exceeds {MAX_SIZE}"
                )
        return seq.values, seq.source
    if "n_range" not in raw:
        raise ConfigError("n_range: missing required field")
    block = raw["n_range"]
    if isinstance(block, dict):
        if block.get("kind", "geometric") != "geometric":
            raise ConfigError("n_range.kind: only 'geometric' is supported")
        start = block.get("start")
        stop = block.get("stop")
        factor = block.get("factor", 2)
        if not _is_int(start) or start < 1:
            raise ConfigError("n_range.start: must be a positive integer")
        if not _is_int(stop) or not start <= stop <= MAX_SIZE:
            raise ConfigError(f"n_range.stop: must be an integer from start to {MAX_SIZE}")
        if not _is_int(factor) or factor < 2:
            raise ConfigError("n_range.factor: must be an integer >= 2")
        sizes = []
        n = start
        while n <= stop:
            sizes.append(n)
            n *= factor
        return tuple(sizes), None
    if not isinstance(block, list) or not block:
        raise ConfigError("n_range: must be a list or a geometric range object")
    if not all(type(n) is int and 1 <= n <= MAX_SIZE for n in block):
        for i, n in enumerate(block):
            if not _is_int(n) or n < 1:
                raise ConfigError(f"n_range[{i}]: must be a positive integer")
            if n > MAX_SIZE:
                raise ConfigError(f"n_range[{i}]: must be at most {MAX_SIZE}")
    sizes = tuple(block)
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ConfigError("n_range: must be strictly increasing")
    return sizes, None


def _offset(key, path, seen: set) -> int:
    """The integer a key spells, added to ``seen``; a key that spells an
    offset already in ``seen`` ("1" after "01") is an error."""
    try:
        d = int(key)
    except ValueError:
        raise ConfigError(f"{path}.{key}: offset must be an integer") from None
    if d in seen:
        raise ConfigError(f"{path}.{key}: offset {d} given twice")
    if abs(d) > MAX_SIZE:
        raise ConfigError(f"{path}.{key}: offset must lie in [-{MAX_SIZE}, {MAX_SIZE}]")
    seen.add(d)
    return d


def _parse_symbol(obj, path="symbol") -> TrigPolynomial:
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: must be an object")
    seen = set()
    coeffs = {}
    for key, val in obj.items():
        k = _offset(key, path, seen)
        re, im = val if isinstance(val, list) and len(val) == 2 else (val, 0.0)
        if not (_is_number(re) and _is_number(im)):
            raise ConfigError(f"{path}.{key}: must be a finite number or an [re, im] pair")
        coeffs[k] = complex(re, im)
    symbol = TrigPolynomial(coeffs)
    if not math.isfinite(sum(math.hypot(c.real, c.imag) for c in symbol.coeffs.values())):
        raise ConfigError(f"{path}: coefficient magnitudes sum past the float range")
    return symbol


def _parse_terms(obj, path) -> APFunction:
    """An almost periodic function from its [{freq, re, im}] terms; freq is
    required, and every given field must be a finite real number."""
    if not isinstance(obj, list):
        raise ConfigError(f"{path}: must be a list of {{freq, re, im}} terms")
    terms = []
    for i, term in enumerate(obj):
        if not isinstance(term, dict):
            raise ConfigError(f"{path}[{i}]: must be an object")
        _require(term, "freq", f"{path}[{i}].")
        for name in ("freq", "re", "im"):
            if name in term and not _is_number(term[name]):
                raise ConfigError(f"{path}[{i}].{name}: must be a finite number")
        terms.append((float(term["freq"]), complex(term.get("re", 0.0), term.get("im", 0.0))))
    try:
        f = APFunction(terms)  # every field is finite: a ValueError means a sum overflowed
        if math.isfinite(f.sup_bound):
            return f
    except ValueError:
        pass
    raise ConfigError(f"{path}: term magnitudes sum past the float range")


def _parse_almost_mathieu(obj, prefix) -> BandAPOperator:
    """alpha and lambda are required; they and theta, where given, must be
    finite real numbers."""
    _require(obj, "alpha", prefix)
    _require(obj, "lambda", prefix)
    for name in ("alpha", "lambda", "theta"):
        if name in obj and not _is_number(obj[name]):
            raise ConfigError(f"{prefix}{name}: must be a finite number")
    return almost_mathieu(float(obj["alpha"]), float(obj["lambda"]), float(obj.get("theta", 0.0)))


def _parse_factor(obj, path) -> BandAPOperator:
    kind = obj.get("kind") if isinstance(obj, dict) else None
    if kind == "toeplitz":
        return as_band_operator(_parse_symbol(_require(obj, "symbol", f"{path}."), f"{path}.symbol"))
    if kind == "ap-multiplier":
        return BandAPOperator({0: _parse_terms(_require(obj, "terms", f"{path}."), f"{path}.terms")})
    if kind == "projection":  # the projection onto 0, 1, ...: identity on sections
        return BandAPOperator({0: APFunction.constant(1.0)})
    raise ConfigError(f"{path}.kind: must be 'toeplitz', 'ap-multiplier' or 'projection'")


def _parse_operator(obj, path="operator"):
    """The operator of a tagged JSON description; a ``toeplitz`` one gives
    its symbol."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: must be an object")
    kind = obj.get("kind")
    if kind == "toeplitz":
        return _parse_symbol(_require(obj, "symbol", f"{path}."), f"{path}.symbol")
    if kind == "almost-mathieu":
        return _parse_almost_mathieu(obj, f"{path}.")
    if kind == "band-ap":
        diagonals = _require(obj, "diagonals", f"{path}.")
        if not isinstance(diagonals, dict):
            raise ConfigError(f"{path}.diagonals: must be an object")
        domain = obj.get("domain", "Z")
        if domain not in ("Z", "Z+"):
            raise ConfigError(f"{path}.domain: must be 'Z' or 'Z+'")
        seen = set()
        return BandAPOperator(
            {
                _offset(d, f"{path}.diagonals", seen): _parse_terms(t, f"{path}.diagonals.{d}")
                for d, t in diagonals.items()
            },
            domain,
        )
    if kind == "composite":
        products = _require(obj, "products", f"{path}.")
        if not (
            isinstance(products, list) and products and all(isinstance(p, list) and p for p in products)
        ):
            raise ConfigError(f"{path}.products: must be a nonempty list of nonempty factor lists")
        return CompositeOperator(tuple(
            tuple(_parse_factor(f, f"{path}.products[{i}][{j}]") for j, f in enumerate(prod))
            for i, prod in enumerate(products)
        ))
    raise ConfigError(f"{path}.kind: must be 'toeplitz', 'almost-mathieu', 'band-ap' or 'composite'")


def validate_config(raw) -> ExperimentConfig:
    """Check and normalize a raw config mapping; raises ConfigError."""
    if not isinstance(raw, dict):
        raise ConfigError("config: must be a JSON object")
    kind = _require(raw, "experiment")
    if kind not in EXPERIMENTS:
        raise ConfigError(
            f"experiment: unknown kind {kind!r}; see `szegolab list-experiments`"
        )
    output = _require(raw, "output")
    if not isinstance(output, str) or not output:
        raise ConfigError("output: must be a nonempty path prefix")
    tolerance = raw.get("tolerance", 1e-6)
    if not _is_number(tolerance) or tolerance <= 0:
        raise ConfigError("tolerance: must be a positive finite number")

    symbol = None
    operator = None
    mathieu = None  # the object holding almost Mathieu alpha/lambda/theta
    g = None
    alpha = None
    sizes: tuple[int, ...] = ()
    source = None
    predicted_override = None
    prediction_m = None
    prediction_window = None
    cf_options = {}  # max_terms and q_cap as given; absent ones keep their defaults

    for field in ("predicted", "prediction"):
        if field in raw and kind not in ("eigen-dist", "mathieu-dist"):
            raise ConfigError(
                f"{field}: {kind} computes its own prediction; only eigen-dist "
                "and mathieu-dist take a pinned value or an m and window"
            )
    if "predicted" in raw:
        val = raw["predicted"]
        if _is_number(val):
            predicted_override = complex(val)
        elif isinstance(val, list) and len(val) == 2 and all(_is_number(v) for v in val):
            predicted_override = complex(val[0], val[1])
        else:
            raise ConfigError("predicted: must be a number or an [re, im] pair")
    if "prediction" in raw:
        if predicted_override is not None:
            raise ConfigError("prediction: unused next to a pinned predicted value")
        block = raw["prediction"]
        if not isinstance(block, dict):
            raise ConfigError("prediction: must be an object")
        prediction_m = block.get("m")
        prediction_window = block.get("window")
        if prediction_m is not None and not (_is_int(prediction_m) and 1 <= prediction_m <= MAX_SIZE):
            raise ConfigError(f"prediction.m: must be an integer from 1 to {MAX_SIZE}")
        if prediction_window is not None and (
            not _is_int(prediction_window) or prediction_window < 1
        ):
            raise ConfigError("prediction.window: must be a positive integer")

    if kind in ("szego-ratio", "strong-szego", "singular-dist"):
        symbol = _parse_symbol(_require(raw, "symbol"))
        if not symbol.coeffs:
            raise ConfigError("symbol: must have at least one nonzero coefficient")
    if kind in ("eigen-dist", "folner", "stability"):
        operator = _parse_operator(_require(raw, "operator"))
        if raw["operator"].get("kind") == "almost-mathieu":
            mathieu = raw["operator"]
        if isinstance(operator, TrigPolynomial):
            symbol = operator
    if symbol is not None and kind != "strong-szego":  # strong_szego_ratio takes the symbol
        operator = as_band_operator(symbol)
    if kind == "mathieu-dist":
        mathieu = raw
        operator = _parse_almost_mathieu(raw, "")
    if kind in ("eigen-dist", "stability") and isinstance(operator, CompositeOperator):
        raise ConfigError(f"operator: {kind} needs a sectionable operator, not a composite")
    if kind == "folner" and not isinstance(operator, CompositeOperator):
        raise ConfigError("operator: folner needs a composite operator")
    if kind == "stability" and operator.domain != "Z":
        raise ConfigError(
            "operator.domain: stability needs an operator over all integers ('Z')"
        )
    if kind in ("eigen-dist", "mathieu-dist", "singular-dist"):
        g = _parse_g(_require(raw, "g"))
    if kind == "cf-expand":
        alpha = _require(raw, "alpha")
        if not _is_number(alpha) or not 0.0 < alpha < 1.0:
            raise ConfigError("alpha: must lie strictly between 0 and 1")
        for name in ("max_terms", "q_cap"):
            if name in raw:
                if not _is_int(raw[name]) or raw[name] < 1:
                    raise ConfigError(f"{name}: must be a positive integer")
                cf_options[name] = raw[name]
        sizes = (1,)  # unused; CSV rows come from the expansion itself
    else:
        alpha_hint = float(mathieu["alpha"]) if mathieu is not None else None
        sizes, source = _parse_sizes(raw, alpha_hint)
    if kind == "eigen-dist" and symbol is not None and "prediction" in raw:
        raise ConfigError(
            "prediction: a Toeplitz operator is predicted by the circle average "
            "of g over its symbol, which takes no m or window"
        )
    if (
        kind in ("eigen-dist", "mathieu-dist")
        and predicted_override is None
        and symbol is None
    ):
        # the central window of the computed prediction must fit in its section
        prediction_m = prediction_m or 4 * max(sizes)
        if prediction_window is None and prediction_m < 2:
            raise ConfigError("prediction.m: must be at least 2 to hold the default window m // 2")
        if prediction_window is not None and 2 * prediction_window > prediction_m:
            raise ConfigError(
                f"prediction.window: window {prediction_window} does not fit centrally "
                f"in m = {prediction_m} (needs 2 * window <= m)"
            )

    return ExperimentConfig(
        kind=kind,
        output=output,
        tolerance=float(tolerance),
        sizes=sizes,
        symbol=symbol,
        operator=operator,
        g=g,
        alpha=float(alpha) if alpha is not None else None,
        **cf_options,
        predicted_override=predicted_override,
        prediction_m=prediction_m,
        prediction_window=prediction_window,
        sequence_source=source,
    )


# ---------------------------------------------------------------------------
# experiment execution


def _run_szego_ratio(cfg: ExperimentConfig):
    predicted = geometric_mean(cfg.symbol)
    report = det_ratio_sequence(cfg.operator, cfg.sizes, predicted)
    clusters = cluster_partial_limits(report.values)
    summary = {
        "clusters": [
            {"center": _pair(c.center), "radius": c.radius, "count": c.count}
            for c in clusters
        ],
        "skipped": [list(s) for s in report.skipped],
    }
    return report, summary


def _run_strong_szego(cfg: ExperimentConfig):
    report = strong_szego_ratio(cfg.symbol, cfg.sizes)
    summary = {
        "geometric_mean": _pair(report.geometric_mean),
        "tail_bound": report.tail_bound,
    }
    return report, summary


def _run_eigen_dist(cfg: ExperimentConfig):
    """eigen-dist, and mathieu-dist over the almost Mathieu operator."""
    if cfg.predicted_override is not None:
        predicted = cfg.predicted_override
    elif cfg.symbol is not None:
        predicted = symbol_average(cfg.symbol, cfg.g, SYMBOL_GRID)
    else:
        predicted = limit_prediction(
            cfg.operator, cfg.g, cfg.prediction_m, cfg.prediction_window
        )
    report = sweep(
        cfg.sizes,
        lambda n: eigen_mean(eigen_sample(band_ap_section(cfg.operator, n)), cfg.g),
        predicted,
    )
    if cfg.kind == "mathieu-dist":
        return report, {"sequence_source": cfg.sequence_source}
    return report, {}


def _run_singular_dist(cfg: ExperimentConfig):
    predicted = np.mean(cfg.g.apply(np.abs(sample_circle(cfg.symbol, SYMBOL_GRID))))
    report = sweep(
        cfg.sizes,
        lambda n: singular_mean(singular_values(band_ap_section(cfg.operator, n)), cfg.g),
        predicted,
    )
    return report, {}


def _run_folner(cfg: ExperimentConfig):
    return sweep(cfg.sizes, lambda n: folner_discrepancy(cfg.operator, n), 0j), {}


def _run_stability(cfg: ExperimentConfig):
    report = stability_probe(cfg.operator, cfg.sizes)
    summary = {
        "verdict": report.verdict,
        "margin": report.predicted.real,
        "norm_scale": report.norm_scale,
    }
    return report, summary


def _run_cf_expand(cfg: ExperimentConfig, csv_path, json_path) -> int:
    cf = expand_cf(cfg.alpha, cfg.max_terms, cfg.q_cap)
    lines = [CF_CSV_HEADER]
    for i, (b, (p, q)) in enumerate(zip(cf.quotients, cf.convergents)):
        lines.append("%d,%d,%d,%d,%.17g" % (i + 1, b, p, q, convergent_error_bound(cf, i)))
    _write_lines(csv_path, lines)
    bounds_ok = check_approximation_bounds(cf)
    if cf.convergents:
        p, q = cf.convergents[-1]
        final_residual = abs(cf.alpha - p / q)
    else:
        final_residual = math.nan
    verdict = "pass" if bounds_ok else "fail"
    _write_json(
        json_path,
        {
            "experiment": cfg.kind,
            "predicted": [cfg.alpha, 0.0],
            "final_residual": final_residual,
            "verdict": verdict,
            "terminated": cf.terminated,
            "quotients": list(cf.quotients),
        },
    )
    return 0 if verdict == "pass" else 1


_RUNNERS = {
    "szego-ratio": _run_szego_ratio,
    "strong-szego": _run_strong_szego,
    "eigen-dist": _run_eigen_dist,
    "mathieu-dist": _run_eigen_dist,
    "singular-dist": _run_singular_dist,
    "folner": _run_folner,
    "stability": _run_stability,
}


def run_experiment(cfg) -> int:
    """Execute a validated config; writes <output>.csv and <output>.json.

    Returns 0 on a passing verdict, 1 on a failed one.
    """
    if not isinstance(cfg, ExperimentConfig):
        cfg = validate_config(cfg)
    prefix = Path(cfg.output)
    if prefix.parent != Path(""):
        prefix.parent.mkdir(parents=True, exist_ok=True)
    csv_path = prefix.with_name(prefix.name + ".csv")
    json_path = prefix.with_name(prefix.name + ".json")
    if cfg.kind == "cf-expand":
        return _run_cf_expand(cfg, csv_path, json_path)
    report, extras = _RUNNERS[cfg.kind](cfg)
    emit_report(report, csv_path)
    if cfg.kind == "stability":
        verdict = extras["verdict"]
        status = 0
    else:
        # A residual of float values is known only to the rounding unit of the
        # prediction, so a tolerance finer than that cannot be certified.
        resolution = sys.float_info.epsilon * abs(report.predicted)
        verdict = "pass" if report.final_residual + resolution <= cfg.tolerance else "fail"
        status = 0 if verdict == "pass" else 1
    summary = {
        "experiment": cfg.kind,
        "predicted": _pair(report.predicted),
        "final_residual": report.final_residual,
        "verdict": verdict,
    }
    summary.update(extras)
    _write_json(json_path, summary)
    return status


# ---------------------------------------------------------------------------
# entry point


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}") from exc
    except ValueError as exc:  # bad JSON, bad UTF-8, or an int past the digit limit
        raise ConfigError(f"config: invalid JSON in {path}: {exc}") from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="szegolab",
        description="Finite-section determinant and distribution experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config", help="path to a JSON experiment config")
    p_val = sub.add_parser("validate", help="validate a config without running it")
    p_val.add_argument("config", help="path to a JSON experiment config")
    sub.add_parser("list-experiments", help="list available experiment kinds")
    return parser


_PARSER = _build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)

    if args.command == "list-experiments":
        for kind in EXPERIMENTS:
            print(kind)
        return 0
    try:
        raw = _load_config(args.config)
        cfg = validate_config(raw)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if args.command == "validate":
        print("ok")
        return 0
    try:
        return run_experiment(cfg)
    except Exception as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
