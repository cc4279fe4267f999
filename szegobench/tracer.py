"""Outside-in tracer for the six szegolab layers.

Every module-level public function of the six layer modules is wrapped in a
span, and every binding of it in those modules is replaced (found by
identity in each module's ``vars()``), because the layers import each other's
functions by name: `szego` binds `lu_logdet`/`solve`, `cli` binds most of
`szego`, `operators` and `symbols`, `operators` binds `eval_ap`.  Methods
(e.g. `TrigPolynomial.coefficient`, called once per Toeplitz entry) are never
wrapped.  The `*_computed` counters are derived from argument and result
shapes, not measured.  Spans stay in memory until `write` at the end of a
run.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import time
import types
from collections import Counter

import numpy as np

LAYERS = ("numkernel", "symbols", "almostperiodic", "operators", "szego", "cli")

# The two cli helpers that bound its config-load and JSON-emit stages; all
# other wrapped functions are public.
CLI_STAGE_HELPERS = ("_load_config", "_write_json")

KERNEL_GROUPS = {
    "lu_logdet": "lu",
    "solve": "lu",
    "eigvals_hermitian": "eig",
    "eigvals_general": "eig",
    "singular_values": "svd",
}

SECTION_BUILDERS = (
    "toeplitz_section",
    "band_ap_section",
    "flip_section",
    "reversed_section",
    "composite_sections",
)

# Sub-stages reported as their own self time: metric name -> span names.
STAGES = {
    "numkernel.lu.self_s": ("numkernel.lu_logdet", "numkernel.solve"),
    "numkernel.eig.self_s": ("numkernel.eigvals_hermitian", "numkernel.eigvals_general"),
    "numkernel.svd.self_s": ("numkernel.singular_values",),
    "operators.composite.self_s": ("operators.composite_sections",),
    "szego.prediction.self_s": ("szego.limit_prediction",),
    "cli.validate.self_s": ("cli.validate_config", "cli._load_config"),
    "cli.emit.self_s": ("cli.emit_report", "cli._write_json"),
}


UNITS = {
    **{f"{layer}.{kind}": unit for layer in LAYERS
       for kind, unit in (("self_s", "s"), ("calls", "count"), ("errors", "count"))},
    "numkernel.lu.calls": "count",
    "numkernel.lu.self_s": "s",
    "numkernel.eig.calls": "count",
    "numkernel.eig.self_s": "s",
    "numkernel.svd.calls": "count",
    "numkernel.svd.self_s": "s",
    "numkernel.n3_computed": "n3",
    "numkernel.bytes_computed": "B",
    "numkernel.singular_ratio": "1",
    "operators.sections": "count",
    "operators.section_bytes_computed": "B",
    "operators.composite.self_s": "s",
    "almostperiodic.eval_points": "count",
    "symbols.grid_points": "count",
    "szego.prediction.self_s": "s",
    "szego.kernel_calls_per_row": "1",
    "szego.skipped_rows": "count",
    "cli.validate.self_s": "s",
    "cli.emit.self_s": "s",
    "cli.bytes_written": "B",
    "trace.wall_s": "s",
    "trace.unattributed_s": "s",
    "trace.spans": "count",
    "trace.overhead_ratio": "1",
}
"""Unit of every per-layer metric a traced run reports."""


def _order(m) -> int:
    return m.rows if hasattr(m, "rows") else np.shape(m)[0]


class Tracer:
    """Spans (name, layer, start, end, parent, run id, self time, error) and
    shape-derived counters for one benchmark process."""

    def __init__(self):
        self.modules = {layer: importlib.import_module(f"szegolab.{layer}") for layer in LAYERS}
        self.singular_error = self.modules["numkernel"].SingularMatrixError
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.run_id = ""
        self._stack: list[list] = []
        self._ids = itertools.count()
        self._saved: list[tuple] = []

    # -- installation -----------------------------------------------------

    def install(self) -> int:
        """Wrap every target and rebind it in all six modules; returns the
        number of bindings replaced."""
        wrappers = {}
        for layer, mod in self.modules.items():
            for name, obj in vars(mod).items():
                if (
                    isinstance(obj, types.FunctionType)
                    and obj.__module__ == mod.__name__
                    and (not name.startswith("_") or (layer == "cli" and name in CLI_STAGE_HELPERS))
                ):
                    wrappers[id(obj)] = (obj, self._wrap(layer, obj))
        for mod in self.modules.values():
            for name, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._saved.append((mod, name, obj))
                    setattr(mod, name, hit[1])
        return len(self._saved)

    def uninstall(self) -> None:
        for mod, name, obj in reversed(self._saved):
            setattr(mod, name, obj)
        self._saved.clear()

    def _wrap(self, layer: str, fn):
        span_name = f"{layer}.{fn.__name__}"
        count = self._counter(layer, fn.__name__)
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter
        # only the kernel's own span counts a singular factorization once
        singular = self.singular_error if layer == "numkernel" else ()

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [next(ids), 0.0]  # span id, time spent in child spans
            stack.append(frame)
            error = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = True
                if isinstance(exc, singular):
                    self.counts["numkernel.singular"] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                spans.append((frame[0], span_name, layer, start, end,
                              parent[0] if parent else None, self.run_id,
                              duration - frame[1], error))
            if count is not None:
                count(args, result)
            return result

        return traced

    def _counter(self, layer: str, name: str):
        counts = self.counts
        if layer == "numkernel" and name in KERNEL_GROUPS:
            def kernel(args, result):
                n = _order(args[0])
                counts["numkernel.n3_computed"] += n**3
                counts["numkernel.bytes_computed"] += 16 * n * n
                if name == "lu_logdet" and result.singular_flag:
                    counts["numkernel.singular"] += 1
            return kernel
        if layer == "operators" and name in SECTION_BUILDERS:
            def section(args, result):
                mats = result if isinstance(result, tuple) else (result,)
                counts["operators.sections"] += len(mats)
                counts["operators.section_bytes_computed"] += sum(m.data.nbytes for m in mats)
            return section
        if layer == "almostperiodic" and name == "eval_ap":
            return lambda args, result: counts.update({"almostperiodic.eval_points": np.size(args[1])})
        if layer == "symbols" and name == "evaluate":
            return lambda args, result: counts.update({"symbols.grid_points": np.size(args[1])})
        return None

    # -- per-pass metrics ---------------------------------------------------

    def pass_metrics(self, first_span: int, wall: float, report_rows: int,
                     skipped_rows: int, bytes_written: int) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since ``first_span``."""
        spans = self.spans[first_span:]
        out: dict[str, float] = {}
        for layer in LAYERS:
            mine = [s for s in spans if s[2] == layer]
            out[f"{layer}.self_s"] = sum(s[7] for s in mine)
            out[f"{layer}.calls"] = len(mine)
            out[f"{layer}.errors"] = sum(1 for s in mine if s[8])
        for metric, names in STAGES.items():
            out[metric] = sum(s[7] for s in spans if s[1] in names)
        kernel_calls = Counter(KERNEL_GROUPS.get(s[1].removeprefix("numkernel."))
                               for s in spans if s[2] == "numkernel")
        for group in ("lu", "eig", "svd"):
            out[f"numkernel.{group}.calls"] = kernel_calls[group]
        for key in ("numkernel.n3_computed", "numkernel.bytes_computed",
                    "operators.sections", "operators.section_bytes_computed",
                    "almostperiodic.eval_points", "symbols.grid_points"):
            out[key] = self.counts[key]
        out["numkernel.singular_ratio"] = self.counts["numkernel.singular"] / max(1, kernel_calls["lu"])
        out["szego.kernel_calls_per_row"] = out["numkernel.calls"] / max(1, report_rows)
        out["szego.skipped_rows"] = skipped_rows
        out["cli.bytes_written"] = bytes_written
        roots = sum(s[4] - s[3] for s in spans if s[5] is None)
        out["trace.wall_s"] = wall
        out["trace.unattributed_s"] = wall - roots
        out["trace.spans"] = len(spans)
        return out

    def write(self, path) -> None:
        keys = ("id", "name", "layer", "start", "end", "parent", "run", "self_s", "error")
        with open(path, "w", encoding="ascii") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
