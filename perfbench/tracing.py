"""In-memory span recorder for pipecal's layer functions.

Spans are recorded from outside the package: each traced public function is
replaced, for the duration of a traced run, wherever `pipecal.harness`,
`pipecal.signals` and `pipecal.calibration` bind it. Nothing in `src/`
changes. Only serial runs are traced; pool workers would not see the wrappers.
"""

from __future__ import annotations

import functools
import importlib
import json
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from time import perf_counter

# (module, public function) pairs; the span name is "module.function"
LAYER_FUNCTIONS = (
    ("adc", "build_adc"),
    ("adc", "convert_many"),
    ("signals", "gen_tones"),
    ("signals", "make_pairs"),
    ("correction", "selection_vectors"),
    ("correction", "apply_correction_batch"),
    ("calibration", "accumulate_statistics"),
    ("calibration", "hec_wiener"),
    ("calibration", "blhec_wiener"),
    ("calibration", "run_sgd"),
    ("spectral", "spectrum"),
    ("spectral", "analyze"),
)
SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fn in LAYER_FUNCTIONS)
BINDING_MODULES = ("pipecal.harness", "pipecal.signals", "pipecal.calibration")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None      # index of the enclosing span, None at top level
    member: int             # population member; a member starts at its build_adc call
    work: dict = field(default_factory=dict)


def _work(name: str, result) -> dict:
    """Exact work counters read from a layer call's return value."""
    if name == "adc.convert_many":
        return {"samples": len(result)}
    if name == "calibration.accumulate_statistics":
        # computed, not measured: the buffers the statistics object holds
        return {"bytes": int(result.h_x.nbytes + result.h_ax.nbytes
                             + result.y_x.nbytes + result.y_ax.nbytes)}
    if name == "calibration.blhec_wiener":
        return {"iterations": int(result.iterations), "converged": bool(result.converged)}
    if name == "calibration.run_sgd":
        return {"samples": int(result[0].k)}
    return {}


class Tracer:
    """Records one span per call of a wrapped layer function."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._member = -1

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == "adc.build_adc":
                self._member += 1
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else None, self._member)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._stack.pop()
            span.work = _work(name, result)
            return result
        return traced

    @contextmanager
    def installed(self):
        """Swap every binding of the layer functions for a recording wrapper."""
        originals = {f"{mod}.{fn}": getattr(importlib.import_module(f"pipecal.{mod}"), fn)
                     for mod, fn in LAYER_FUNCTIONS}
        wrappers = {name: self._wrap(name, fn) for name, fn in originals.items()}
        patched = []
        try:
            for modname in BINDING_MODULES:
                module = importlib.import_module(modname)
                for name, fn in originals.items():
                    attr = name.split(".", 1)[1]
                    if getattr(module, attr, None) is fn:
                        setattr(module, attr, wrappers[name])
                        patched.append((module, attr, fn))
            yield self
        finally:
            for module, attr, fn in patched:
                setattr(module, attr, fn)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def layer_profile(spans: list[Span], wall_s: float) -> dict:
    """Per-layer calls, self time and counters for one traced run.

    Self time is a span's duration minus the time its direct children cover;
    spans of a serial run nest without overlap. Whatever no top-level span
    covers is the harness's own time, so the self shares sum to one.
    """
    child_s = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_s[span.parent] += span.end - span.start
    layers = {name: {"calls": 0, "self_s": 0.0} for name in SPAN_NAMES}
    covered_s = 0.0
    for i, span in enumerate(spans):
        duration = span.end - span.start
        entry = layers[span.name]
        entry["calls"] += 1
        entry["self_s"] += duration - child_s[i]
        if span.parent is None:
            covered_s += duration

    counters = {
        "convert_samples": sum(s.work["samples"] for s in spans if s.name == "adc.convert_many"),
        "stat_bytes": sum(s.work["bytes"] for s in spans
                          if s.name == "calibration.accumulate_statistics"),
        "blhec_iterations": [s.work["iterations"] for s in spans
                             if s.name == "calibration.blhec_wiener"],
        "blhec_converged": [s.work["converged"] for s in spans
                            if s.name == "calibration.blhec_wiener"],
        "sgd_samples": sum(s.work["samples"] for s in spans if s.name == "calibration.run_sgd"),
        "members": len({s.member for s in spans}),
    }
    return {"wall_s": wall_s, "harness_self_s": wall_s - covered_s,
            "layers": layers, "counters": counters}
