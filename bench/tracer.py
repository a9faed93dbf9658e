"""Span tracing of the multicast_aoi layers, installed from outside the package.

:class:`Tracer` replaces the package's public functions (and the ``sample``
methods of the delay models) with timing wrappers.  A wrapper is put in
every place a package module holds the original -- names re-imported into
``experiments``, ``cli`` and the package root included -- so calls are seen
however they are looked up.  Leaving the ``with`` block puts every original
back.  Spans stay in memory as ``(name, start, end, parent)`` tuples, where
``parent`` is the index of the enclosing span or -1.
"""

from __future__ import annotations

import importlib
import json
import math
import sys
import time
from collections import defaultdict

import numpy as np

# (module, attribute) of each wrapped function; the span name is the
# module's last component and the attribute.  "Class.method" wraps a method.
TARGETS = (
    ("multicast_aoi.delay_models", "ShiftedExponential.sample"),
    ("multicast_aoi.delay_models", "HyperExponential.sample"),
    ("multicast_aoi.delay_models", "harmonic"),
    ("multicast_aoi.delay_models", "harmonic2"),
    ("multicast_aoi.simulator", "run_rounds"),
    ("multicast_aoi.simulator", "replicate"),
    ("multicast_aoi.analytics", "age_wait_for_all_general"),
    ("multicast_aoi.analytics", "age_wait_for_all"),
    ("multicast_aoi.analytics", "age_earliest_k"),
    ("multicast_aoi.analytics", "age_earliest_k_approx"),
    ("multicast_aoi.analytics", "age_preselected_k"),
    ("multicast_aoi.analytics", "age_preselected_k_process"),
    ("multicast_aoi.analytics", "age_preselected_k_approx"),
    ("multicast_aoi.analytics", "optimal_alpha"),
    ("multicast_aoi.analytics", "optimal_k_closed_form"),
    ("multicast_aoi.analytics", "optimal_k_exact"),
    ("multicast_aoi.experiments", "run_sweep"),
    ("multicast_aoi.experiments", "run_fig6"),
    ("multicast_aoi.cli", "main"),
)

# Span names whose calls report how many delays they drew.
_DRAW_SPANS = {"delay_models.ShiftedExponential.sample", "delay_models.HyperExponential.sample"}


def _package_modules():
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == "multicast_aoi" or name.startswith("multicast_aoi."))
    ]


class Tracer:
    """Context manager that records spans around the package's public calls."""

    def __init__(self):
        self.spans: list = []
        self.draws = 0
        self._stack: list = []
        self._patched: list = []

    def __enter__(self) -> "Tracer":
        try:
            for module_name, attr in TARGETS:
                self._install(importlib.import_module(module_name), attr)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _install(self, module, attr: str) -> None:
        span = module.__name__.rsplit(".", 1)[-1] + "." + attr
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name)
            original = vars(cls)[method]
            self._set(cls, method, self._wrap(span, original))
            return
        original = getattr(module, attr)
        wrapper = self._wrap(span, original)
        for holder in _package_modules():
            for name, value in list(vars(holder).items()):
                if value is original:
                    self._set(holder, name, wrapper)

    def _set(self, owner, name: str, value) -> None:
        self._patched.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def _restore(self) -> None:
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counts_draws = name in _DRAW_SPANS

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if counts_draws:
                self.draws += int(np.size(result))
            return result

        return wrapper

    def write(self, path) -> None:
        """Write the spans as JSON lines ``[index, parent, name, start, end]``."""
        with open(path, "w") as fh:
            for index, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps([index, parent, name, start, end]) + "\n")


def self_times(spans) -> list:
    """Each span's duration minus the time its direct children cover."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer totals, self times and counts from one traced repetition."""
    spans = tracer.spans
    own = self_times(spans)
    total = defaultdict(float)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    layer_self = defaultdict(float)
    for (name, start, end, parent), self_time in zip(spans, own):
        total[name] += end - start
        self_s[name] += self_time
        calls[name] += 1
        layer_self[name.split(".", 1)[0]] += self_time
    sample_s = total["delay_models.ShiftedExponential.sample"] + total[
        "delay_models.HyperExponential.sample"
    ]
    harmonic_names = ("delay_models.harmonic", "delay_models.harmonic2")
    metrics = {
        "delay_models.sample_s": sample_s,
        "delay_models.draws": tracer.draws,
        "delay_models.harmonic_s": sum(total[n] for n in harmonic_names),
        "delay_models.harmonic_calls": sum(calls[n] for n in harmonic_names),
        "simulator.resolve_s": total["simulator.run_rounds"],
        "simulator.resolve_calls": calls["simulator.run_rounds"],
        "simulator.engine_self_s": self_s["simulator.replicate"],
        "analytics.optimal_k_exact_s": total["analytics.optimal_k_exact"],
        "analytics.age_calls": calls["analytics.age_earliest_k"],
        "analytics.self_s": layer_self["analytics"],
        "experiments.sweep_self_s": self_s["experiments.run_sweep"],
        "experiments.self_s": layer_self["experiments"],
        "cli.self_s": self_s["cli.main"],
    }
    # Every span is a leaf (sampling, resolution, harmonic sums) or counts
    # toward its layer's self time, so these add up to the traced wall time.
    metrics["self_sum_s"] = math.fsum(
        metrics[name]
        for name in (
            "delay_models.sample_s",
            "delay_models.harmonic_s",
            "simulator.resolve_s",
            "simulator.engine_self_s",
            "analytics.self_s",
            "experiments.self_s",
            "cli.self_s",
        )
    )
    return metrics
