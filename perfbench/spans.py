"""Spans around calls into csp2c's public functions, recorded from outside the package.

`install` wraps the functions listed in `WRAPPED` wherever csp2c's modules
bind them, so a call made through any import alias is seen. Each wrapped
call becomes a span (name, start, end, parent span, run id) kept in
memory; `constraint_satisfied`, called once per oracle check, is too hot
for a span per call and is instead counted, with its time, on the span
that encloses it. Child processes started under a span are counted on it.

`layer_metrics` turns the spans of one pass into the per-layer metrics:
self times (a span's duration minus its child spans and counted calls)
and counts. Nothing here runs unless the benchmark asks for a traced run.
"""

from __future__ import annotations

import functools
import itertools
import os
import re
import subprocess
import sys
import time
from typing import Any, Callable

LEAF = "oracle.constraint_satisfied"

_START_TAG = re.compile(r"<[A-Za-z]")


def _elements(args, result) -> dict[str, int]:
    with open(args[0], "r", encoding="utf-8") as fh:
        return {"elements": len(_START_TAG.findall(fh.read()))}


# (span name, module, attribute, attributes recorded from (args, result))
WRAPPED: list[tuple[str, str, str, Callable[..., dict[str, Any]] | None]] = [
    ("cli.main", "csp2c.cli", "main", None),
    ("xcsp.parse_file", "csp2c.xcsp", "parse_file", _elements),
    ("model.constraints", "csp2c.model", "CspInstance.constraints",
     lambda a, r: {"constraints": len(r)}),
    ("codegen.transform", "csp2c.codegen", "transform",
     lambda a, r: {"bytes": len(r.source_text)}),
    ("oracle.solve", "csp2c.oracle", "solve", lambda a, r: {"explored": r.explored}),
    ("verify.compile_program", "csp2c.verify", "compile_program",
     lambda a, r: {"source_bytes": len(a[0].source_text)}),
    ("verify.differential_check", "csp2c.verify", "differential_check", None),
    ("harness.run_matrix", "csp2c.harness", "run_matrix",
     lambda a, r: {"jobs": len(r), "tool_s": sum(rec.wallclock_s for rec in r)}),
    ("harness.build_report", "csp2c.harness", "build_report", None),
    ("harness.emit_csv", "csp2c.harness", "emit_csv", None),
    ("harness.load_records_csv", "csp2c.harness", "load_records_csv", None),
    ("charts.emit_svg", "csp2c.charts", "emit_svg",
     lambda a, r: {"bytes": sum(os.path.getsize(p) for p in r)}),
]


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict[str, Any]] = []
        self._stack: list[dict[str, Any]] = []
        self._ids = itertools.count(1)

    def _open(self, name: str) -> dict[str, Any]:
        span = {
            "name": name,
            "id": next(self._ids),
            "parent": self._stack[-1]["id"] if self._stack else None,
            "run": self.run_id,
            "attrs": {},
            "start_ns": time.perf_counter_ns(),
        }
        self._stack.append(span)
        return span

    def _close(self, span: dict[str, Any]) -> None:
        span["end_ns"] = time.perf_counter_ns()
        self._stack.pop()
        self.spans.append(span)

    def add(self, key: str, amount: int = 1) -> None:
        """Add to a count on the innermost open span."""
        if self._stack:
            attrs = self._stack[-1]["attrs"]
            attrs[key] = attrs.get(key, 0) + amount

    def span(self, name: str, fn: Callable, attrs: Callable | None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if attrs is not None:
                span["attrs"].update(attrs(args, result))
            return result

        return wrapper

    def counted(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter_ns() - start
                self.add(name + ".calls")
                self.add(name + ".ns", elapsed)

        return wrapper


def _rebind(original: Any, replacement: Any) -> None:
    """Point every csp2c module binding of `original` at `replacement`."""
    for name, module in list(sys.modules.items()):
        if name == "csp2c" or name.startswith("csp2c."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def install(tracer: Tracer) -> None:
    import csp2c.cli  # noqa: F401  (imports every module that is wrapped)

    for span_name, module_name, attr, attrs in WRAPPED:
        owner: Any = sys.modules[module_name]
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = getattr(owner, leaf)
        wrapped = tracer.span(span_name, original, attrs)
        setattr(owner, leaf, wrapped)
        _rebind(original, wrapped)

    oracle = sys.modules["csp2c.oracle"]
    original = oracle.constraint_satisfied
    _rebind(original, tracer.counted(LEAF, original))

    class CountingPopen(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            tracer.add("processes")
            super().__init__(*args, **kwargs)

    subprocess.Popen = CountingPopen  # type: ignore[misc]


# ---------------------------------------------------------------------------
# Per-layer metrics from the spans of one pass
# ---------------------------------------------------------------------------

PER_LAYER = [
    ("xcsp.parse_s", "s"),
    ("xcsp.elements_per_s", "1/s"),
    ("model.constraints_s", "s"),
    ("model.constraints", "count"),
    ("codegen.transform_s", "s"),
    ("codegen.programs", "count"),
    ("codegen.bytes", "bytes"),
    ("oracle.solve_s", "s"),
    ("oracle.explored", "count"),
    ("oracle.checks", "count"),
    ("oracle.check_s", "s"),
    ("verify.compile_s", "s"),
    ("verify.compiles", "count"),
    ("verify.source_bytes", "bytes"),
    ("verify.driver_s", "s"),
    ("verify.processes", "count"),
    ("harness.run_matrix_s", "s"),
    ("harness.jobs", "count"),
    ("harness.tool_s", "s"),
    ("harness.overhead_s", "s"),
    ("harness.overhead_frac", "ratio"),
    ("harness.csv_write_s", "s"),
    ("harness.csv_read_s", "s"),
    ("harness.report_s", "s"),
    ("charts.svg_s", "s"),
    ("charts.bytes", "bytes"),
    ("cli.self_s", "s"),
]

# Counts that must read the same on every traced pass of one seed.
EXACT_COUNTS = ("verify.processes", "oracle.explored", "codegen.bytes", "harness.jobs")


# Attributes that hold times, scaled like span durations.
_TIMED_ATTRS = {"tool_s", LEAF + ".ns"}


def layer_metrics(spans: list[dict[str, Any]]) -> dict[str, float]:
    """Per-layer metrics from the spans of one pass.

    A span's optional "scale" (set by the benchmark) multiplies its
    durations and timed attributes, to report them at the reference speed.
    """
    dur: dict[tuple[str, int], float] = {}
    child: dict[tuple[str, int], float] = {}
    for s in spans:
        key = (s["run"], s["id"])
        dur[key] = (s["end_ns"] - s["start_ns"]) * s.get("scale", 1.0)
        if s["parent"] is not None:
            parent = (s["run"], s["parent"])
            child[parent] = child.get(parent, 0) + dur[key]

    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    attrs: dict[str, float] = {}
    for s in spans:
        key = (s["run"], s["id"])
        scale = s.get("scale", 1.0)
        leaf_ns = s["attrs"].get(LEAF + ".ns", 0) * scale
        name = s["name"]
        total[name] = total.get(name, 0.0) + dur[key] / 1e9
        self_s[name] = self_s.get(name, 0.0) + (dur[key] - child.get(key, 0) - leaf_ns) / 1e9
        calls[name] = calls.get(name, 0) + 1
        for k, v in s["attrs"].items():
            if k in _TIMED_ATTRS:
                v *= scale
            attrs[f"{name}:{k}"] = attrs.get(f"{name}:{k}", 0) + v

    def sel(name: str) -> float:
        return self_s.get(name, 0.0)

    def tot(name: str) -> float:
        return total.get(name, 0.0)

    def attr(name: str, key: str) -> float:
        return attrs.get(f"{name}:{key}", 0)

    parse_s = sel("xcsp.parse_file")
    run_matrix_s = tot("harness.run_matrix")
    tool_s = attr("harness.run_matrix", "tool_s")
    overhead_s = run_matrix_s - tool_s
    return {
        "xcsp.parse_s": parse_s,
        "xcsp.elements_per_s": attr("xcsp.parse_file", "elements") / parse_s if parse_s else 0.0,
        "model.constraints_s": sel("model.constraints"),
        "model.constraints": attr("model.constraints", "constraints"),
        "codegen.transform_s": sel("codegen.transform"),
        "codegen.programs": calls.get("codegen.transform", 0),
        "codegen.bytes": attr("codegen.transform", "bytes"),
        "oracle.solve_s": sel("oracle.solve"),
        "oracle.explored": attr("oracle.solve", "explored"),
        "oracle.checks": sum(v for k, v in attrs.items() if k.endswith(LEAF + ".calls")),
        "oracle.check_s": sum(v for k, v in attrs.items() if k.endswith(LEAF + ".ns")) / 1e9,
        "verify.compile_s": sel("verify.compile_program"),
        "verify.compiles": calls.get("verify.compile_program", 0),
        "verify.source_bytes": attr("verify.compile_program", "source_bytes"),
        "verify.driver_s": sel("verify.differential_check"),
        "verify.processes": attr("verify.compile_program", "processes")
        + attr("verify.differential_check", "processes"),
        "harness.run_matrix_s": run_matrix_s,
        "harness.jobs": attr("harness.run_matrix", "jobs"),
        "harness.tool_s": tool_s,
        "harness.overhead_s": overhead_s,
        "harness.overhead_frac": overhead_s / tool_s if tool_s else 0.0,
        "harness.csv_write_s": tot("harness.emit_csv"),
        "harness.csv_read_s": tot("harness.load_records_csv"),
        "harness.report_s": tot("harness.build_report"),
        "charts.svg_s": tot("charts.emit_svg"),
        "charts.bytes": attr("charts.emit_svg", "bytes"),
        "cli.self_s": sel("cli.main"),
    }
