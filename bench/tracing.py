"""Per-layer spans recorded by wrappers installed around public functions.

The wrappers replace each traced function wherever the package's modules
look it up (for example `oamboost.cli.simulate_counts` and
`oamboost.simulate.conditional_slice`), so calls from inside the package
are seen as well as calls from the benchmark.  No package source changes.

A span is (name, start, end, parent span id, pass id).  A layer's self time
is its span's duration minus the time its child spans cover; the code is
single-threaded, so children never overlap and nothing waits on a queue.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "simulate", "spectrum", "estimate", "hologram", "relativity")

# Traced function -> work it does, as (counter name, unit, count from the call's
# arguments and result).  Counts are computed from array sizes and output lengths.
TRACED = {
    "cli.main": None,
    "simulate.simulate_counts": ("cells", "count", lambda args, result: result.counts.size),
    "simulate.counts_conditional": None,
    "simulate.count_spectrum_to_csv": ("bytes", "B", lambda args, result: len(result)),
    "simulate.read_count_spectrum": ("bytes", "B", lambda args, result: os.path.getsize(args[0])),
    "spectrum.conditional_slice": None,
    "spectrum.mode_count_empirical": None,
    "spectrum.joint_spectrum": None,
    "spectrum.joint_spectrum_to_csv": ("bytes", "B", lambda args, result: len(result)),
    "spectrum.joint_probability_quadrature": None,
    "spectrum.joint_probability_spdc_oracle": None,
    "estimate.estimate_gamma_fit": None,
    "estimate.estimate_gamma_msum": None,
    "estimate.batch_csv": ("bytes", "B", lambda args, result: len(result)),
    "hologram.generate_hologram": ("pixels", "count", lambda args, result: result.phase.size),
    "hologram.export_hologram": ("bytes", "B", lambda args, result: len(result)),
    "relativity.require_gamma": None,
}


def metric_specs() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in the order they are reported."""
    specs = []
    for name, work in TRACED.items():
        specs += [(f"{name}.self_s", "s"), (f"{name}.calls", "count")]
        if work:
            specs.append((f"{name}.{work[0]}", work[1]))
    specs += [
        ("simulate.simulate_counts.us_per_cell", "us"),
        ("estimate.estimate_gamma_fit.ms_per_call", "ms"),
        ("estimate.gamma_rel_err", "ratio"),
        ("cli.out_bytes", "B"),
    ]
    specs += [(f"{layer}.errors", "count") for layer in LAYERS]
    specs.append(("trace.overhead_frac", "ratio"))
    return specs


class Tracer:
    """Collects spans, work counts and errors while its wrappers are enabled.

    Create it after the package is imported.
    """

    def __init__(self):
        self.spans = []
        self.pass_id = None
        self.work = Counter()
        self.errors = Counter()
        self._stack = []
        self._last_error = None
        self.patches = self._find_patches()

    def _wrap(self, name, fn, work):
        layer = name.split(".", 1)[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                # count an error once, in the innermost layer it passes through
                if exc is not self._last_error:
                    self._last_error = exc
                    self.errors[layer] += 1
                raise
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[span_id] = (name, start, end, parent, self.pass_id)
            if work:
                self.work[name] += work[2](args, result)
            return result

        return traced

    def _find_patches(self) -> list:
        """(module, attribute, original, wrapper) for every module-level reference
        to a traced function in the package."""
        wrappers = {}
        for name, work in TRACED.items():
            layer, func = name.split(".")
            fn = getattr(sys.modules[f"oamboost.{layer}"], func)
            wrappers[id(fn)] = (fn, self._wrap(name, fn, work))
        patches = []
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "oamboost" and not mod_name.startswith("oamboost."):
                continue
            for attr, value in list(vars(module).items()):
                found = wrappers.get(id(value))
                if found and found[0] is value:
                    patches.append((module, attr, value, found[1]))
        return patches

    def enable(self, on: bool) -> None:
        """Install the wrappers, or put the original functions back."""
        for module, attr, original, wrapper in self.patches:
            setattr(module, attr, wrapper if on else original)

    def write(self, path) -> None:
        """Write the spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, (name, start, end, parent, pass_id) in enumerate(self.spans):
                fh.write(json.dumps({"id": span_id, "name": name, "start": start, "end": end,
                                     "parent": parent, "pass": pass_id}) + "\n")

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Per-pass self time (median over passes), calls and work of each traced function."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, pass_id in self.spans:
            if parent is not None:
                child[parent] += end - start
        self_by = defaultdict(lambda: defaultdict(float))
        calls = Counter()
        for span_id, (name, start, end, parent, pass_id) in enumerate(self.spans):
            self_by[name][pass_id] += end - start - child[span_id]
            calls[name] += 1
        metrics = {}
        for name, work in TRACED.items():
            per_pass = list(self_by[name].values()) + [0.0] * (passes - len(self_by[name]))
            metrics[f"{name}.self_s"] = statistics.median(per_pass)
            metrics[f"{name}.calls"] = calls[name] / passes
            if work:
                metrics[f"{name}.{work[0]}"] = self.work[name] / passes
        total_self = {name: sum(self_by[name].values()) for name in TRACED}
        cells = self.work["simulate.simulate_counts"]
        fits = calls["estimate.estimate_gamma_fit"]
        metrics["simulate.simulate_counts.us_per_cell"] = 1e6 * total_self["simulate.simulate_counts"] / cells if cells else 0.0
        metrics["estimate.estimate_gamma_fit.ms_per_call"] = 1e3 * total_self["estimate.estimate_gamma_fit"] / fits if fits else 0.0
        for layer in LAYERS:
            metrics[f"{layer}.errors"] = self.errors[layer]
        return metrics
