"""End-to-end runs of the experiment CLI."""

import dataclasses
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from szegolab import cli, symbols, szego
from szegolab.cli import (
    CSV_HEADER,
    MAX_DEGREE,
    MAX_SIZE,
    ConfigError,
    emit_report,
    main,
    run_experiment,
    validate_config,
)
from szegolab.szego import SzegoReport, TestFunction, sweep

GOLDEN_DIR = Path(__file__).parent / "golden"
SRC_DIR = Path(__file__).parent.parent / "src"
GOLDEN_ALPHA = (math.sqrt(5) - 1) / 2
TWO_PLUS_COS = {"0": [2.0, 0.0], "1": [0.5, 0.0], "-1": [0.5, 0.0]}
X2 = {"kind": "poly", "coeffs": [0.0, 0.0, 1.0]}
MATHIEU = {"kind": "almost-mathieu", "alpha": GOLDEN_ALPHA, "lambda": 1.0}
ZPLUS_OPERATOR = {
    "kind": "band-ap",
    "domain": "Z+",
    "diagonals": {"0": [{"freq": 0.0, "re": 1.0, "im": 0.0}]},
}

# One small config per experiment kind (plus the eigen-dist twin of the
# mathieu-dist config); tests/golden holds the CSV and JSON each one wrote.
GOLDEN_CONFIGS = {
    "szego-ratio": {
        "experiment": "szego-ratio",
        "symbol": TWO_PLUS_COS,
        "n_range": {"kind": "geometric", "start": 1, "stop": 32},
    },
    "strong-szego": {
        "experiment": "strong-szego",
        "symbol": {"0": [3.0, 0.0], "1": [1.0, 0.5], "-1": [0.5, 0.0], "2": [0.25, 0.0]},
        "n_range": [2, 5, 9, 17, 32],
        "tolerance": 1e-3,
    },
    "eigen-dist-toeplitz": {
        "experiment": "eigen-dist",
        "operator": {"kind": "toeplitz", "symbol": {"1": [1.0, 0.0], "-1": [1.0, 0.0]}},
        "g": X2,
        "n_range": [4, 16, 32],
        "tolerance": 0.1,
    },
    "eigen-dist-band-ap": {
        "experiment": "eigen-dist",
        "operator": {
            "kind": "band-ap",
            "diagonals": {
                "0": [
                    {"freq": 0.0, "re": 1.0, "im": 0.0},
                    {"freq": 0.3, "re": 0.25, "im": 0.0},
                    {"freq": 0.7, "re": 0.25, "im": 0.0},
                ],
                "1": [{"freq": 0.0, "re": 1.0, "im": 0.0}],
                "-1": [{"freq": 0.0, "re": 1.0, "im": 0.0}],
            },
        },
        "g": {"kind": "named", "name": "exp"},
        "n_range": {"kind": "geometric", "start": 2, "stop": 32},
        "prediction": {"m": 40, "window": 10},
        "tolerance": 0.5,
    },
    "mathieu-dist": {
        "experiment": "mathieu-dist",
        "alpha": GOLDEN_ALPHA,
        "lambda": 1.5,
        "theta": 0.3,
        "g": X2,
        "distinguished": {"length": 7},
        "tolerance": 0.2,
    },
    "eigen-dist-almost-mathieu": {
        "experiment": "eigen-dist",
        "operator": {"kind": "almost-mathieu", "alpha": GOLDEN_ALPHA, "lambda": 1.5, "theta": 0.3},
        "g": X2,
        "distinguished": {"alpha": GOLDEN_ALPHA, "length": 7},
        "tolerance": 0.2,
    },
    "singular-dist": {
        "experiment": "singular-dist",
        "symbol": {"0": [1.0, 0.0], "1": [1.0, 0.0]},
        "g": {"kind": "power", "k": 4},
        "n_range": [3, 8, 32],
        "tolerance": 0.5,
    },
    "cf-expand": {"experiment": "cf-expand", "alpha": math.sqrt(2) - 1, "max_terms": 12},
    "folner": {
        "experiment": "folner",
        "operator": {
            "kind": "composite",
            "products": [
                [
                    {"kind": "toeplitz", "symbol": {"-1": [1.0, 0.0], "0": [0.5, 0.0]}},
                    {"kind": "ap-multiplier", "terms": [{"freq": GOLDEN_ALPHA, "re": 1.0, "im": 0.0}]},
                    {"kind": "toeplitz", "symbol": {"1": [1.0, 0.0]}},
                ]
            ],
        },
        "n_range": [4, 16, 32],
        "tolerance": 0.5,
    },
    "stability": {
        "experiment": "stability",
        "operator": {"kind": "almost-mathieu", "alpha": GOLDEN_ALPHA, "lambda": 3.0},
        "n_range": [2, 4, 8, 16, 32],
    },
}


def write_config(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


def ratio_config(tmp_path, **overrides):
    cfg = {
        "experiment": "szego-ratio",
        "symbol": {"0": [2.0, 0.0], "1": [0.5, 0.0], "-1": [0.5, 0.0]},
        "n_range": {"kind": "geometric", "start": 4, "stop": 128},
        "output": str(tmp_path / "out" / "ratio"),
        "tolerance": 1e-6,
    }
    cfg.update(overrides)
    return cfg


@pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS))
def test_golden_artifacts(tmp_path, name):
    cfg = dict(GOLDEN_CONFIGS[name], output=str(tmp_path / name))
    assert main(["run", write_config(tmp_path, "cfg.json", cfg)]) == 0
    for ext in ("csv", "json"):
        golden = GOLDEN_DIR / f"{name}.{ext}"
        written = (tmp_path / f"{name}.{ext}").read_bytes()
        if written != golden.read_bytes():
            pytest.fail(_first_difference(golden, written), pytrace=False)


def _first_difference(golden: Path, written: bytes) -> str:
    """The golden file's name and its first line that the run wrote differently."""
    pairs = itertools.zip_longest(
        golden.read_bytes().splitlines(keepends=True),
        written.splitlines(keepends=True),
        fillvalue=b"<no line>",
    )
    for number, (want, got) in enumerate(pairs, 1):
        if want != got:
            break
    return (
        f"tests/golden/{golden.name} differs at line {number}:\n"
        f"  golden:  {want.decode('ascii', 'replace')!r}\n"
        f"  written: {got.decode('ascii', 'replace')!r}"
    )


# Run in a fresh interpreter: validate every golden config, run every one
# whose kind needs no LU, note whether SciPy is loaded, then run szego-ratio.
COLD_START = """
import json, sys
from szegolab.cli import main
configs = json.loads(sys.argv[1])
codes = [main(["validate", c["path"]]) for c in configs.values()]
codes += [
    main(["run", c["path"]])
    for c in configs.values()
    if c["experiment"] not in ("szego-ratio", "strong-szego")
]
before = "scipy" in sys.modules
codes.append(main(["run", configs["szego-ratio"]["path"]]))
print(json.dumps({"codes": codes, "before": before, "after": "scipy" in sys.modules}))
"""


def test_cold_start_loads_scipy_only_for_lu(tmp_path):
    configs = {
        name: {
            "experiment": cfg["experiment"],
            "path": write_config(
                tmp_path, f"{name}.config.json", dict(cfg, output=str(tmp_path / name))
            ),
        }
        for name, cfg in GOLDEN_CONFIGS.items()
    }
    lu_runs = sum(c["experiment"] in ("szego-ratio", "strong-szego") for c in configs.values())
    proc = subprocess.run(
        [sys.executable, "-c", COLD_START, json.dumps(configs)],
        env=dict(os.environ, PYTHONPATH=str(SRC_DIR)),
        capture_output=True, text=True, timeout=120, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    runs = 2 * len(configs) - lu_runs + 1
    assert result == {"codes": [0] * runs, "before": False, "after": True}
    for ext in ("csv", "json"):
        golden = GOLDEN_DIR / f"szego-ratio.{ext}"
        assert (tmp_path / f"szego-ratio.{ext}").read_bytes() == golden.read_bytes()


def test_mathieu_dist_is_eigen_dist_over_almost_mathieu():
    csv = (GOLDEN_DIR / "mathieu-dist.csv").read_bytes()
    assert csv == (GOLDEN_DIR / "eigen-dist-almost-mathieu.csv").read_bytes()
    mathieu = json.loads((GOLDEN_DIR / "mathieu-dist.json").read_text())
    eigen = json.loads((GOLDEN_DIR / "eigen-dist-almost-mathieu.json").read_text())
    assert mathieu.pop("sequence_source") == "cf-denominators"
    assert mathieu == dict(eigen, experiment="mathieu-dist")


def test_szego_ratio_run_and_artifacts(tmp_path):
    cfg_path = write_config(tmp_path, "cfg.json", ratio_config(tmp_path))
    assert main(["run", cfg_path]) == 0
    csv_text = (tmp_path / "out" / "ratio.csv").read_text()
    lines = csv_text.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 7  # header + 6 geometric sizes
    assert csv_text.endswith("\n") and "\r" not in csv_text
    predicted_cols = {tuple(l.split(",")[3:5]) for l in lines[1:]}
    assert len(predicted_cols) == 1  # predicted constant replicated per row
    summary = json.loads((tmp_path / "out" / "ratio.json").read_text())
    assert summary["verdict"] == "pass"
    assert summary["predicted"][0] == pytest.approx((2 + math.sqrt(3)) / 2, abs=1e-10)


def test_run_is_byte_deterministic(tmp_path):
    cfg_path = write_config(tmp_path, "cfg.json", ratio_config(tmp_path))
    assert main(["run", cfg_path]) == 0
    first_csv = (tmp_path / "out" / "ratio.csv").read_bytes()
    first_json = (tmp_path / "out" / "ratio.json").read_bytes()
    assert main(["run", cfg_path]) == 0
    assert (tmp_path / "out" / "ratio.csv").read_bytes() == first_csv
    assert (tmp_path / "out" / "ratio.json").read_bytes() == first_json


def test_validate_subcommand(tmp_path, capsys):
    cfg_path = write_config(tmp_path, "cfg.json", ratio_config(tmp_path))
    assert main(["validate", cfg_path]) == 0
    assert "ok" in capsys.readouterr().out


def test_invalid_config_missing_n_range(tmp_path):
    cfg = ratio_config(tmp_path)
    del cfg["n_range"]
    cfg_path = write_config(tmp_path, "cfg.json", cfg)
    assert main(["run", cfg_path]) == 2
    assert not (tmp_path / "out").exists()  # no artifacts on config failure


@pytest.mark.parametrize(
    "n_range, message",
    [
        ([4, True, 8], "n_range[1]: must be a positive integer"),
        ([4, 0], "n_range[1]: must be a positive integer"),
        ([2.0, 3], "n_range[0]: must be a positive integer"),
        ([1, 2, "3"], "n_range[2]: must be a positive integer"),
        ([1, 2, -3, None], "n_range[2]: must be a positive integer"),
        ([3, 2], "n_range: must be strictly increasing"),
    ],
)
def test_n_range_list_names_first_bad_entry(tmp_path, n_range, message):
    with pytest.raises(ConfigError) as exc:
        validate_config(ratio_config(tmp_path, n_range=n_range))
    assert str(exc.value) == message


def test_invalid_configs_field_paths(tmp_path):
    bad = [
        ({"experiment": "nope", "output": "x"}, "experiment"),
        ({"experiment": "szego-ratio", "output": ""}, "output"),
        (ratio_config(tmp_path, tolerance=-1.0), "tolerance"),
        (ratio_config(tmp_path, n_range=[4, 4, 8]), "n_range"),
    ]
    for cfg, field in bad:
        with pytest.raises(ConfigError) as exc:
            validate_config(cfg)
        assert field in str(exc.value)


@pytest.mark.parametrize(
    "overrides, field",
    [
        ({"g": {"kind": "power", "k": True}}, "g.k"),
        ({"tolerance": float("nan")}, "tolerance"),
        ({"g": {"kind": "poly", "coeffs": [0.0, 1.0], "domain": "disk"}}, "g.domain"),
        ({"g": {"kind": "poly", "coeffs": [0.0, "x"]}}, "g.coeffs[1]"),
        ({"distinguished": {"rational": [1, 2, 3], "length": 3}}, "distinguished.rational"),
        ({"symbol": {"a": [1.0, 0.0]}}, "symbol.a"),
        ({"distinguished": {"alpha": 0.5, "length": 5}}, "distinguished.alpha"),
        ({"predicted": ["a", "b"]}, "predicted"),
        (
            {"experiment": "eigen-dist", "operator": {"kind": "band-ap", "diagonals": [1]}},
            "operator.diagonals",
        ),
        ({"experiment": "mathieu-dist", "alpha": True, "lambda": 1.0}, "alpha"),
        ({"experiment": "eigen-dist", "operator": {**MATHIEU, "lambda": True}}, "operator.lambda"),
        ({"experiment": "eigen-dist", "operator": {**MATHIEU, "lambda": "0.5"}}, "operator.lambda"),
        ({"experiment": "eigen-dist", "operator": {**MATHIEU, "theta": math.inf}}, "operator.theta"),
        ({"experiment": "stability", "operator": {**MATHIEU, "lambda": math.inf}}, "operator.lambda"),
        ({"experiment": "stability", "operator": ZPLUS_OPERATOR}, "operator.domain"),
        (
            {"experiment": "eigen-dist", "operator": MATHIEU, "prediction": {"m": 16, "window": 12}},
            "prediction.window",
        ),
        ({"experiment": "eigen-dist", "operator": MATHIEU, "prediction": {"m": 1}}, "prediction.m"),
        ({"experiment": "eigen-dist", "operator": {"kind": "almost-mathieu", "alpha": 0.5}}, "operator.lambda"),
        ({"experiment": "stability", "operator": {"kind": "almost-mathieu", "lambda": 1.0}}, "operator.alpha"),
        ({"predicted": [1.0, 0.0]}, "predicted"),  # singular-dist computes its own
        (  # a Toeplitz operator's prediction is its symbol average: no m or window
            {"experiment": "eigen-dist", "operator": {"kind": "toeplitz", "symbol": {"1": 1.0}},
             "prediction": {"m": 64}},
            "prediction",
        ),
        # a prediction block that would be ignored
        *(
            ({"experiment": kind, "prediction": {"m": 64, "window": 8}}, "prediction")
            for kind in ("szego-ratio", "strong-szego", "singular-dist", "folner", "stability", "cf-expand")
        ),
        *(
            ({"experiment": kind, "operator": MATHIEU, **MATHIEU, "predicted": 2.5,
              "prediction": {"m": 3, "window": 8}}, "prediction")
            for kind in ("eigen-dist", "mathieu-dist")
        ),
        # nested symbols and almost periodic terms are read like the top-level symbol
        ({"experiment": "eigen-dist", "operator": {"kind": "toeplitz", "symbol": {"1": True}}},
         "operator.symbol.1"),
        (
            {"experiment": "folner", "operator": {"kind": "composite", "products": [
                [{"kind": "toeplitz", "symbol": {"0": 1.0, "1": True}}]]}},
            "operator.products[0][0].symbol.1",
        ),
        (
            {"experiment": "folner", "operator": {"kind": "composite", "products": [
                [{"kind": "projection"}, {"kind": "ap-multiplier", "terms": [{"freq": 0.5, "im": "1"}]}]]}},
            "operator.products[0][1].terms[0].im",
        ),
        *(
            ({"experiment": "eigen-dist", "operator": {"kind": "band-ap", "diagonals": {"0": terms}}}, field)
            for terms, field in (
                ([{"freq": 0.0, "re": True}], "operator.diagonals.0[0].re"),
                ([{"freq": True, "re": 1.0}], "operator.diagonals.0[0].freq"),
                ([{"re": 1.0}], "operator.diagonals.0[0].freq"),
                (1, "operator.diagonals.0"),
            )
        ),
        # an offset spelled twice would silently drop a coefficient; the later key is named
        *(
            ({"symbol": {"0": [2.0, 0.0], "1": [0.5, 0.0], key: [0.7, 0.0]}}, f"symbol.{key}")
            for key in ("01", "+1", " 1")
        ),
        (
            {"experiment": "folner", "operator": {"kind": "composite", "products": [
                [{"kind": "toeplitz", "symbol": {"-1": 1.0, "-01": 0.5}}]]}},
            "operator.products[0][0].symbol.-01",
        ),
        (
            {"experiment": "eigen-dist", "operator": {"kind": "band-ap", "diagonals": {
                "0": [{"freq": 0.0, "re": 1.0}], "00": [{"freq": 0.0, "re": 2.0}]}}},
            "operator.diagonals.00",
        ),
        # finite terms of one frequency whose sum overflows
        (
            {"experiment": "eigen-dist", "operator": {"kind": "band-ap", "diagonals": {
                "0": [{"freq": 0.0, "re": 1e308}, {"freq": 0.0, "re": 1e308}]}}},
            "operator.diagonals.0",
        ),
        (
            {"experiment": "folner", "operator": {"kind": "composite", "products": [
                [{"kind": "ap-multiplier", "terms": [{"freq": 0.25, "im": 1e308},
                                                     {"freq": 1.25, "im": 1e308}]}]]}},
            "operator.products[0][0].terms",
        ),
        # a g domain that no value lies in, for every kind of g
        ({"g": {"kind": "power", "k": 2, "domain": {"kind": "interval", "lo": 1.0, "hi": 0.5}}},
         "g.domain.hi"),
        ({"g": {"kind": "named", "name": "exp", "domain": {"kind": "disk", "radius": -1.0}}},
         "g.domain.radius"),
        ({"g": {"kind": "power", "k": 2, "domain": {"kind": ["disk"], "radius": 1.0}}}, "g.domain.kind"),
        ({"g": {"kind": "named", "name": ["exp"]}}, "g.name"),
        # finite terms of different frequencies whose magnitudes sum past the float range
        (
            {"experiment": "eigen-dist", "operator": {"kind": "band-ap", "diagonals": {
                "0": [{"freq": 0.0, "re": 1e308}, {"freq": 0.25, "re": 1e308}, {"freq": 0.75, "re": 1e308}]}}},
            "operator.diagonals.0",
        ),
        (
            {"experiment": "folner", "operator": {"kind": "composite", "products": [
                [{"kind": "ap-multiplier", "terms": [{"freq": 0.25, "re": 1e308, "im": 1e308},
                                                     {"freq": 0.5, "re": 1e308}]}]]}},
            "operator.products[0][0].terms",
        ),
        ({"experiment": "szego-ratio", "symbol": {"0": 1e308, "1": 1e308, "-1": 1e308}}, "symbol"),
        (
            {"experiment": "folner", "operator": {"kind": "composite", "products": [
                [{"kind": "toeplitz", "symbol": {"0": [1.7e308, 1.7e308]}}]]}},
            "operator.products[0][0].symbol",
        ),
        # a degree of g past MAX_DEGREE
        ({"g": {"kind": "power", "k": MAX_DEGREE + 1}}, "g.k"),
        ({"g": {"kind": "poly", "coeffs": [1.0] * (MAX_DEGREE + 2)}}, "g.coeffs"),
        # a size, prediction.m or offset past MAX_SIZE
        ({"n_range": [1, 10**12]}, "n_range[1]"),
        ({"n_range": [1, MAX_SIZE + 1]}, "n_range[1]"),
        ({"n_range": {"kind": "geometric", "start": 1, "stop": 10**400}}, "n_range.stop"),
        ({"distinguished": {"rational": [1, 10**400], "length": 2}}, "distinguished.rational"),
        ({"distinguished": {"rational": [2, 6], "length": MAX_SIZE // 3 + 1}}, "distinguished.rational"),
        ({"distinguished": {"alpha": 0.25, "length": 10**9}}, "distinguished.length"),
        ({"experiment": "eigen-dist", "operator": MATHIEU, "prediction": {"m": 10**400}}, "prediction.m"),
        ({"symbol": {"0": 2.0, str(10**12): 0.5}}, f"symbol.{10**12}"),
        ({"symbol": {"0": 2.0, str(-MAX_SIZE - 1): 0.5}}, f"symbol.{-MAX_SIZE - 1}"),
        (
            {"experiment": "eigen-dist", "operator": {"kind": "band-ap", "diagonals": {
                "0": [{"freq": 0.0, "re": 1.0}], str(10**12): [{"freq": 0.0, "re": 1.0}]}}},
            f"operator.diagonals.{10**12}",
        ),
        # golden-ratio denominators: the 24th is the Fibonacci number 75025
        ({"experiment": "mathieu-dist", "alpha": GOLDEN_ALPHA, "lambda": 1.0, "distinguished": {"length": 24}},
         "distinguished.length"),
    ],
    ids=lambda v: v if isinstance(v, str) else None,
)
def test_malformed_config_exits_2_naming_field(tmp_path, capsys, overrides, field):
    cfg = ratio_config(tmp_path, experiment="singular-dist", g={"kind": "power", "k": 2})
    cfg.update(overrides)
    assert main(["validate", write_config(tmp_path, "cfg.json", cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {field}:")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "name, path, field",
    [
        ("szego-ratio", ("tolerance",), "tolerance"),
        ("mathieu-dist", ("alpha",), "alpha"),
        ("cf-expand", ("alpha",), "alpha"),
        ("eigen-dist-band-ap", ("operator", "diagonals", "0", 1, "freq"), "operator.diagonals.0[1].freq"),
        ("eigen-dist-toeplitz", ("g", "coeffs", 0), "g.coeffs[0]"),
    ],
)
def test_int_past_float_range_exits_2_naming_field(tmp_path, capsys, name, path, field):
    # a JSON int such as 1e400 written out in digits has no float value
    cfg = json.loads(json.dumps(dict(GOLDEN_CONFIGS[name], output=str(tmp_path / "out"))))
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = "BIG"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg).replace('"BIG"', "1" + "0" * 400), encoding="utf-8")
    assert main(["validate", str(cfg_path)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {field}:")


def test_g_degree_cap(tmp_path, capsys, monkeypatch):
    cfg = dict(GOLDEN_CONFIGS["singular-dist"], output=str(tmp_path / "out"))
    for g in ({"kind": "power", "k": MAX_DEGREE}, {"kind": "poly", "coeffs": [1.0] * (MAX_DEGREE + 1)}):
        assert len(validate_config(dict(cfg, g=g)).g.x_coefficients()) == MAX_DEGREE + 1

    # x^k for k = 10**9 would be a list of 10**9 floats, and 10**400 fits in no
    # index: the cap is checked before TestFunction.power is called
    def power(cls, k):
        raise AssertionError("TestFunction.power called past the degree cap")

    monkeypatch.setattr(TestFunction, "power", classmethod(power))
    for k in (10**9, 10**400):
        assert main(["validate", write_config(tmp_path, "cfg.json", dict(cfg, g={"kind": "power", "k": k}))]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: g.k:") and "Traceback" not in err


def test_near_zero_symbol_szego_ratio_predicts_g(tmp_path):
    # (1 + 0.99z)(1 + 0.99/z) has G[a] = 1; its log coefficients 0.99^k / k
    # need a grid of 32768 points, and the ratios converge to 1 by n = 2048
    cfg = ratio_config(
        tmp_path,
        symbol={"0": 1.9801, "1": 0.99, "-1": 0.99},
        n_range={"kind": "geometric", "start": 4, "stop": 2048},
        tolerance=1e-10,
    )
    assert main(["run", write_config(tmp_path, "cfg.json", cfg)]) == 0
    summary = json.loads((tmp_path / "out" / "ratio.json").read_text(encoding="ascii"))
    assert abs(complex(*summary["predicted"]) - 1.0) <= 1e-13


@pytest.mark.parametrize("name", ["szego-ratio", "strong-szego"])
def test_one_log_sampling_per_run(tmp_path, monkeypatch, name):
    # G[a] and E[a] read one sampling of log a
    calls = []
    original = symbols._sample_log

    def counted(a):
        calls.append(a)
        return original(a)

    for module in (symbols, szego, cli):
        if vars(module).get("_sample_log") is original:
            monkeypatch.setattr(module, "_sample_log", counted)
    cfg = dict(GOLDEN_CONFIGS[name], output=str(tmp_path / name))
    assert main(["run", write_config(tmp_path, "cfg.json", cfg)]) == 0
    assert len(calls) == 1


def test_size_cap(tmp_path, capsys, monkeypatch):
    cfg = ratio_config(tmp_path, experiment="singular-dist", g={"kind": "power", "k": 2})
    at_cap = [
        {"n_range": [1, MAX_SIZE]},
        {"n_range": {"kind": "geometric", "start": MAX_SIZE, "stop": MAX_SIZE}},
        {"distinguished": {"rational": [2, 8], "length": MAX_SIZE // 4}},  # q = 4 once reduced
        {"distinguished": {"alpha": GOLDEN_ALPHA, "length": 23}},  # largest size 46368
        {"symbol": {"0": 2.0, str(MAX_SIZE): 0.5, str(-MAX_SIZE): 0.5}},
    ]
    for overrides in at_cap:
        assert max(validate_config(dict(cfg, **overrides)).sizes) <= MAX_SIZE
    twin = dict(GOLDEN_CONFIGS["eigen-dist-band-ap"], output="out", prediction={"m": MAX_SIZE})
    assert validate_config(twin).prediction_m == MAX_SIZE

    # the largest distinguished size is checked before its tuple of
    # length sizes is built
    def sequence(base, length):
        raise AssertionError("distinguished_sequence called past the size cap")

    monkeypatch.setattr(cli, "distinguished_sequence", sequence)
    for pair, length in (([1, 1], 10**9), ([1, 3], MAX_SIZE)):
        over = dict(cfg, distinguished={"rational": pair, "length": length})
        assert main(["validate", write_config(tmp_path, "cfg.json", over)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: distinguished.") and "Traceback" not in err


@pytest.mark.parametrize(
    "content, reason",
    [
        (b'{"tolerance": ' + b"1" * 5000 + b"}", "Exceeds the limit (4300 digits)"),
        (b'{"output": "\xff"}', "can't decode byte 0xff"),
    ],
    ids=["int-past-digit-limit", "not-utf-8"],
)
def test_unparsable_config_file_exits_2(tmp_path, capsys, content, reason):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_bytes(content)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)  # the default, whatever the environment sets
    try:
        assert main(["validate", str(cfg_path)]) == 2
    finally:
        sys.set_int_max_str_digits(limit)
    err = capsys.readouterr().err
    assert err.startswith(f"config error: config: invalid JSON in {cfg_path}: ")
    assert reason in err


@pytest.mark.parametrize("kind", ["eigen-dist", "stability"])
def test_distinguished_sizes_fall_back_on_operator_alpha(kind):
    # without distinguished.alpha the almost Mathieu operator's alpha sets
    # the sizes, as mathieu-dist's top-level alpha does
    twin = validate_config(dict(GOLDEN_CONFIGS["mathieu-dist"], output="out"))
    cfg = dict(GOLDEN_CONFIGS["eigen-dist-almost-mathieu"], experiment=kind, output="out")
    cfg["distinguished"] = {"length": 7}
    assert validate_config(cfg).sizes == twin.sizes == (1, 2, 3, 5, 8, 13, 21)
    cfg["operator"] = GOLDEN_CONFIGS["eigen-dist-band-ap"]["operator"]
    with pytest.raises(ConfigError, match="^distinguished.alpha: missing"):
        validate_config(cfg)


MISSING = object()
FUZZ_POOL = (True, math.nan, math.inf, "0.5", [1.0], {"a": 1}, -3, MISSING)


def _field_paths(obj, prefix=()):
    """Every key (and list index) path in a config, nested ones included."""
    for key, val in obj.items() if isinstance(obj, dict) else enumerate(obj):
        yield prefix + (key,)
        if isinstance(val, (dict, list)):
            yield from _field_paths(val, prefix + (key,))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(name=st.sampled_from(sorted(GOLDEN_CONFIGS)), data=st.data())
def test_validate_fuzzed_config_exits_0_or_2(tmp_path_factory, name, data):
    cfg = json.loads(json.dumps(dict(GOLDEN_CONFIGS[name], output="out")))
    path = data.draw(st.sampled_from(list(_field_paths(cfg))))
    value = data.draw(st.sampled_from(FUZZ_POOL))
    node = cfg
    for key in path[:-1]:
        node = node[key]
    if value is MISSING:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    cfg_path = tmp_path_factory.getbasetemp() / "fuzzed.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    assert main(["validate", str(cfg_path)]) in (0, 2)


@pytest.mark.parametrize(
    "g",
    [{"kind": "power", "k": 2}, {"kind": "named", "name": "identity"}, {"kind": "poly", "coeffs": [0.0, 1.0]}],
)
def test_g_domain_applies_to_every_kind(tmp_path, capsys, g):
    # eigenvalues of almost Mathieu sections (lambda = 1) reach past |x| = 1
    domain = {"kind": "disk", "radius": 1.0}
    cfg = {"experiment": "eigen-dist", "operator": MATHIEU, "g": {**g, "domain": domain},
           "n_range": [8], "predicted": 2.5, "output": str(tmp_path / "eig")}
    assert validate_config(cfg).g.domain == ("disk", 1.0)
    assert main(["run", write_config(tmp_path, "cfg.json", cfg)]) == 1
    assert "numeric failure: n=8: value outside ('disk', 1.0)" in capsys.readouterr().err


def test_failing_tolerance_exit_code(tmp_path):
    cfg_path = write_config(
        tmp_path, "cfg.json", ratio_config(tmp_path, tolerance=1e-30)
    )
    assert main(["run", cfg_path]) == 1


def test_numeric_error_exit_code(tmp_path, capsys):
    cfg = ratio_config(tmp_path, symbol={"1": [1.0, 0.0]})  # winding 1: no log branch
    cfg_path = write_config(tmp_path, "cfg.json", cfg)
    assert main(["run", cfg_path]) == 1
    assert "numeric failure" in capsys.readouterr().err


def test_symbol_with_zeros_on_circle_exits_1(tmp_path, capsys):
    # 1 + 2 cos t vanishes at t = 2 pi / 3 and 4 pi / 3: G[a] does not exist
    cfg = ratio_config(tmp_path, symbol={"0": [1.0, 0.0], "1": [1.0, 0.0], "-1": [1.0, 0.0]})
    assert main(["run", write_config(tmp_path, "cfg.json", cfg)]) == 1
    assert "between grid points" in capsys.readouterr().err
    assert not list((tmp_path / "out").glob("ratio.*"))  # nothing reported


def test_list_experiments(capsys):
    assert main(["list-experiments"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "szego-ratio" in out and "cf-expand" in out and len(out) == 8


def test_cf_expand_rational(tmp_path):
    cfg = {
        "experiment": "cf-expand",
        "alpha": 0.4,
        "output": str(tmp_path / "cf"),
    }
    cfg_path = write_config(tmp_path, "cfg.json", cfg)
    assert main(["run", cfg_path]) == 0
    lines = (tmp_path / "cf.csv").read_text().splitlines()
    assert lines[0] == "n,b_n,p_n,q_n,error_bound"
    assert lines[1].startswith("1,2,1,2,")
    assert lines[2].startswith("2,2,2,5,")
    summary = json.loads((tmp_path / "cf.json").read_text())
    assert summary["terminated"] == "rational"
    assert summary["verdict"] == "pass"


@pytest.mark.parametrize("alpha", [2 / 9, 3 / 8, 5 / 16, (math.sqrt(5) - 1) / 2])
def test_cf_expand_verdict_passes(tmp_path, alpha):
    # a terminating expansion meets its last interior bound with equality
    cfg = {"experiment": "cf-expand", "alpha": alpha, "output": str(tmp_path / "cf")}
    assert main(["run", write_config(tmp_path, "cfg.json", cfg)]) == 0
    summary = json.loads((tmp_path / "cf.json").read_text())
    assert summary["verdict"] == "pass"


def test_strong_szego_run(tmp_path):
    cfg = {
        "experiment": "strong-szego",
        "symbol": {"0": [2.0, 0.0], "1": [0.5, 0.0], "-1": [0.5, 0.0]},
        "n_range": [8, 16, 32, 64],
        "output": str(tmp_path / "ss"),
        "tolerance": 1e-8,
    }
    assert run_experiment(cfg) == 0
    summary = json.loads((tmp_path / "ss.json").read_text())
    assert summary["verdict"] == "pass"
    assert summary["tail_bound"] <= 1e-12


def test_eigen_dist_run(tmp_path):
    cfg = {
        "experiment": "eigen-dist",
        "operator": {"kind": "toeplitz", "symbol": {"1": [1.0, 0.0], "-1": [1.0, 0.0]}},
        "g": {"kind": "poly", "coeffs": [0.0, 0.0, 1.0]},
        "n_range": [16, 64],
        "output": str(tmp_path / "eig"),
        "tolerance": 0.05,
    }
    assert run_experiment(cfg) == 0
    summary = json.loads((tmp_path / "eig.json").read_text())
    assert summary["predicted"][0] == pytest.approx(2.0, abs=1e-10)


def test_mathieu_dist_run_distinguished(tmp_path):
    golden = (math.sqrt(5) - 1) / 2
    cfg = {
        "experiment": "mathieu-dist",
        "alpha": golden,
        "lambda": 1.0,
        "theta": 0.3,
        "g": {"kind": "poly", "coeffs": [0.0, 0.0, 1.0]},
        "distinguished": {"length": 10},
        "predicted": [2.5, 0.0],
        "output": str(tmp_path / "am"),
        "tolerance": 0.05,
    }
    assert run_experiment(cfg) == 0
    lines = (tmp_path / "am.csv").read_text().splitlines()
    assert [int(l.split(",")[0]) for l in lines[1:]] == [1, 2, 3, 5, 8, 13, 21, 34, 55, 89]
    summary = json.loads((tmp_path / "am.json").read_text())
    assert summary["sequence_source"] == "cf-denominators"


def test_singular_dist_run(tmp_path):
    cfg = {
        "experiment": "singular-dist",
        "symbol": {"0": [1.0, 0.0], "1": [1.0, 0.0]},
        "g": {"kind": "power", "k": 4},
        "n_range": [16, 64],
        "output": str(tmp_path / "sv"),
        "tolerance": 0.1,
    }
    assert run_experiment(cfg) == 0
    summary = json.loads((tmp_path / "sv.json").read_text())
    assert summary["predicted"][0] == pytest.approx(6.0, abs=1e-6)


def test_folner_run(tmp_path):
    cfg = {
        "experiment": "folner",
        "operator": {
            "kind": "composite",
            "products": [
                [
                    {"kind": "toeplitz", "symbol": {"-1": [1.0, 0.0]}},
                    {"kind": "toeplitz", "symbol": {"1": [1.0, 0.0]}},
                ]
            ],
        },
        "n_range": [8, 64],
        "output": str(tmp_path / "fol"),
        "tolerance": 0.2,
    }
    assert run_experiment(cfg) == 0
    summary = json.loads((tmp_path / "fol.json").read_text())
    assert summary["final_residual"] == pytest.approx(1 / 64, abs=1e-12)


def test_stability_run(tmp_path):
    cfg = {
        "experiment": "stability",
        "operator": {
            "kind": "toeplitz",
            "symbol": {"0": [2.0, 0.0], "1": [0.5, 0.0], "-1": [0.5, 0.0]},
        },
        "n_range": [4, 8, 16, 32, 64],
        "output": str(tmp_path / "stab"),
    }
    assert run_experiment(cfg) == 0
    summary = json.loads((tmp_path / "stab.json").read_text())
    assert summary["verdict"] == "stability-consistent"


@pytest.mark.parametrize(
    "operator",
    [{"kind": "toeplitz", "symbol": {"0": 0}}, {"kind": "band-ap", "diagonals": {}}],
    ids=["zero-symbol", "no-diagonals"],
)
def test_stability_zero_operator_is_unstable_evidence(tmp_path, operator):
    # every section of the zero operator is singular: margin 0 and every
    # smallest singular value 0 must not read as staying above the margin
    cfg = {"experiment": "stability", "operator": operator, "n_range": [4, 8, 16],
           "output": str(tmp_path / "stab")}
    assert main(["run", write_config(tmp_path, "cfg.json", cfg)]) == 0
    summary = json.loads((tmp_path / "stab.json").read_text())
    assert summary["norm_scale"] == 0.0
    assert summary["verdict"] == "unstable-evidence"


def test_strong_szego_singular_section_names_size(tmp_path, capsys):
    # the 2-section [[1, 0.5], [2, 1]] is singular; the symbol has winding 0
    cfg = {
        "experiment": "strong-szego",
        "symbol": {"0": 1.0, "1": 2.0, "-1": 0.5, "2": -6.0, "-2": -6.0},
        "n_range": [1, 2, 3],
        "output": str(tmp_path / "ss"),
    }
    assert main(["run", write_config(tmp_path, "cfg.json", cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: n=2: singular section")


def test_stability_run_unstable_shift(tmp_path):
    cfg = {
        "experiment": "stability",
        "operator": {"kind": "toeplitz", "symbol": {"1": 1.0}},
        "n_range": [4, 8, 12, 16, 20, 24],
        "output": str(tmp_path / "stab"),
    }
    assert run_experiment(cfg) == 0
    summary = json.loads((tmp_path / "stab.json").read_text())
    assert summary["verdict"] == "unstable-evidence"
    rows = [line.split(",") for line in (tmp_path / "stab.csv").read_text().splitlines()[1:]]
    assert [int(r[0]) for r in rows] == cfg["n_range"]
    for _, emp_re, _, pred_re, _, residual, flags in rows:
        assert float(pred_re) == summary["margin"] > 0
        assert float(residual) == float(pred_re) - float(emp_re)
        assert flags == "section"


def test_emit_report_contract(tmp_path):
    report = SzegoReport(
        (4, 9),
        np.array([1.5 + 0.5j, complex(-0.0, 2.0)]),
        np.array([0.5, 2.5]),
        ("flip", "section"),
        1.5 + 0j,
        ((5, "singular section at n"),),
    )
    path = tmp_path / "r.csv"
    emit_report(report, path)
    # skipped sizes leave no row
    assert path.read_bytes() == (
        CSV_HEADER + "\n4,1.5,0.5,1.5,0,0.5,flip\n9,-0,2,1.5,0,2.5,section\n"
    ).encode()
    first = path.read_bytes()
    emit_report(report, path)
    assert path.read_bytes() == first


def _fmt_oracle(x):
    return format(float(x), ".17g")


def _row_oracle(n, e, p, residual, flags):
    """One CSV line as the per-row report writer formatted it."""
    return (
        f"{n},{_fmt_oracle(e.real)},{_fmt_oracle(e.imag)},{_fmt_oracle(p.real)},"
        f"{_fmt_oracle(p.imag)},{_fmt_oracle(residual)},{flags}"
    )


def _abs_or_inf(z):
    try:
        return abs(z)
    except OverflowError:  # abs(complex) raises past the float range
        return math.inf


EDGE_FLOATS = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e-310, 1e308, -1e308, 1.0, 0.1]
)
FLOATS = st.one_of(EDGE_FLOATS, st.floats(allow_nan=False, allow_infinity=False))
COMPLEX = st.builds(complex, FLOATS, FLOATS)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    values=st.lists(COMPLEX, min_size=1, max_size=6),
    predicted=COMPLEX,
    flags=st.lists(st.sampled_from(["", "section", "flip"]), min_size=6, max_size=6),
)
def test_report_row_bytes_match_per_row_oracle(tmp_path_factory, values, predicted, flags):
    sizes = range(1, len(values) + 1)
    expected = [_abs_or_inf(v - predicted) for v in values]
    if not all(math.isfinite(r) for r in expected):
        with pytest.raises(ValueError, match="residuals must be finite"):
            sweep(sizes, lambda n: values[n - 1], predicted)
        return
    report = sweep(sizes, lambda n: values[n - 1], predicted)
    assert [r.hex() for r in report.residuals.tolist()] == [r.hex() for r in expected]
    path = tmp_path_factory.getbasetemp() / "rows.csv"
    for row_flags in (None, tuple(flags[: len(values)])):
        emit_report(dataclasses.replace(report, flags=row_flags), path)
        lines = [CSV_HEADER] + [
            _row_oracle(n, v, predicted, r, row_flags[n - 1] if row_flags else "")
            for n, v, r in zip(sizes, values, expected)
        ]
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()
