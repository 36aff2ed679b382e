"""Span recorder that times calls into the library from outside it.

``Recorder.install`` replaces each public layer function in LAYER_FUNCTIONS,
in every ``qracah`` module that holds a reference to it (the defining module
and every module that imported it by name), with a wrapper that records a
span: name, operation index, start, end, parent span and, for
``build_family``, the number of grid points built.  The ``verify`` suite
registry entries are wrapped the same way.  Spans stay in memory; the
caller writes them out when the run ends.  ``uninstall`` puts the original
functions back.

Wrappers record only while an operation is being timed (``Recorder.op`` is
set), so the benchmark's own output checks never show up in the spans.
Functions missing from the library are skipped, and their metrics read 0.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter

LAYER_FUNCTIONS = (
    ("cfunctions", "weight_table"),
    ("polynomials", "build_family"),
    ("polynomials", "monomial_operator_matrix"),
    ("polynomials", "build_p_macdonald"),
    ("operators", "apply_dr"),
    ("operators", "apply_d"),
    ("operators", "e_multiplier"),
    ("operators", "pieri_residual"),
    ("operators", "flip_scan"),
    ("transform", "transform_context"),
    ("transform", "build_k_matrix"),
    ("transform", "diagonalization_report"),
    ("transform", "forward"),
    ("transform", "inverse"),
)

SUITES = (
    "cross", "diagonalization", "duality", "evaluation", "flip", "norms",
    "normrec", "orthogonality", "pieri", "positivity", "reslem", "symmetry",
    "transform", "vanishing",
)

ERROR_CLASSES = ("DegenerateParameterError", "PoleError", "SingularEvaluationError")

# Span fields.
NAME, OP, START, END, PARENT, POINTS, ERROR = range(7)


def per_layer_declarations() -> list:
    """Every per-layer metric the traced run reports, as BENCHMARK.json
    declares them."""
    out = []
    for mod, fn in LAYER_FUNCTIONS:
        out.append({"name": f"{mod}.{fn}.calls", "unit": "count", "better": "lower"})
        out.append({"name": f"{mod}.{fn}.self_s", "unit": "s", "better": "lower"})
        if fn == "build_family":
            out.append({"name": f"{mod}.{fn}.points", "unit": "count", "better": "lower"})
        if fn == "transform_context":
            out.append({"name": f"{mod}.{fn}.hit_ratio", "unit": "share", "better": "higher"})
    for suite in SUITES:
        out.append({"name": f"cli.suite.{suite}.s", "unit": "s", "better": "lower"})
        out.append({"name": f"cli.suite.{suite}.max_residual", "unit": "rel", "better": "lower"})
        out.append({"name": f"cli.suite.{suite}.failed", "unit": "count", "better": "lower"})
    for cls in ERROR_CLASSES + ("other",):
        out.append({"name": f"errors.{cls}", "unit": "count", "better": "lower"})
    out.append({"name": "trace.spans", "unit": "count", "better": "lower"})
    out.append({"name": "trace.overhead_s", "unit": "s", "better": "lower"})
    out.append({"name": "trace.overhead_share", "unit": "share", "better": "lower"})
    return out


class Recorder:
    """Spans of one traced pass, kept in memory."""

    def __init__(self):
        self.spans: list = []
        self.op: int | None = None
        self._stack: list = []
        self._patched: list = []

    def _wrap(self, name, fn, points=None):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if rec.op is None:
                return fn(*args, **kwargs)
            parent = rec._stack[-1] if rec._stack else -1
            span = [name, rec.op, 0.0, 0.0, parent, 0, None]
            rec._stack.append(len(rec.spans))
            rec.spans.append(span)
            span[START] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                span[ERROR] = type(exc).__name__
                raise
            finally:
                span[END] = perf_counter()
                rec._stack.pop()
            if points is not None:
                span[POINTS] = points(out)
            return out

        return wrapper

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key == "qracah" or key.startswith("qracah.")]
        for mod_name, fn_name in LAYER_FUNCTIONS:
            orig = getattr(importlib.import_module(f"qracah.{mod_name}"), fn_name, None)
            if orig is None:
                continue
            points = (lambda fam: len(fam.alcove)) if fn_name == "build_family" else None
            wrapper = self._wrap(f"{mod_name}.{fn_name}", orig, points)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is orig:
                        vars(module)[attr] = wrapper
                        self._patched.append((vars(module), attr, orig))
        registry = getattr(importlib.import_module("qracah.cli"), "_Q_SUITES", None)
        if isinstance(registry, dict):
            for suite, fn in list(registry.items()):
                registry[suite] = self._wrap(f"cli.suite.{suite}", fn)
                self._patched.append((registry, suite, fn))

    def uninstall(self) -> None:
        for namespace, key, orig in reversed(self._patched):
            namespace[key] = orig
        self._patched.clear()

    def write(self, path) -> None:
        """One JSON array per line: name, op, start, end, parent, points, error."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_metrics(spans: list, suites: dict, wall_traced: float, wall_plain: float) -> dict:
    """Per-layer metrics from the spans of a traced pass.

    ``suites`` maps suite name to {"max_residual", "failed"} from the output
    checks of the same pass.  Self time is a span's duration minus that of
    its children; an error is counted once, at the innermost span it left.
    """
    child_time = [0.0] * len(spans)
    has_child = [False] * len(spans)
    child_error = [set() for _ in spans]
    for span in spans:
        parent = span[PARENT]
        if parent >= 0:
            child_time[parent] += span[END] - span[START]
            has_child[parent] = True
            if span[ERROR]:
                child_error[parent].add(span[ERROR])
    calls, self_s, points, hits, errors = {}, {}, 0, 0, {}
    for i, span in enumerate(spans):
        name = span[NAME]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + (span[END] - span[START]) - child_time[i]
        if name == "polynomials.build_family":
            points += span[POINTS]
        if name == "transform.transform_context" and not has_child[i]:
            hits += 1
        if span[ERROR] and span[ERROR] not in child_error[i]:
            cls = span[ERROR] if span[ERROR] in ERROR_CLASSES else "other"
            errors[cls] = errors.get(cls, 0) + 1

    values = {}
    for mod, fn in LAYER_FUNCTIONS:
        name = f"{mod}.{fn}"
        values[f"{name}.calls"] = calls.get(name, 0)
        values[f"{name}.self_s"] = self_s.get(name, 0.0)
    values["polynomials.build_family.points"] = points
    ctx_calls = calls.get("transform.transform_context", 0)
    values["transform.transform_context.hit_ratio"] = hits / ctx_calls if ctx_calls else 0.0
    for suite in SUITES:
        name = f"cli.suite.{suite}"
        stats = suites.get(suite, {})
        total = sum((s[END] - s[START] for s in spans if s[NAME] == name), 0.0)
        values[f"{name}.s"] = total
        values[f"{name}.max_residual"] = stats.get("max_residual", 0.0)
        values[f"{name}.failed"] = stats.get("failed", 0)
    for cls in ERROR_CLASSES + ("other",):
        values[f"errors.{cls}"] = errors.get(cls, 0)
    values["trace.spans"] = len(spans)
    values["trace.overhead_s"] = wall_traced - wall_plain
    values["trace.overhead_share"] = (wall_traced - wall_plain) / wall_plain
    units = {d["name"]: d["unit"] for d in per_layer_declarations()}
    return {name: {"value": values[name], "unit": units[name]} for name in units}
