"""Spans and counts recorded around gridflex's functions, from outside the package.

`Tracer.installed()` replaces each binding listed in TARGETS with a wrapper, at
the place its caller looks the name up (a module global or a class attribute),
and puts the originals back on exit. Each call of a wrapped function becomes a
span: name, phase, start, end, the span that was open when it began (its
parent), the number of `Tensor` objects built while it ran, and the number of
items it handled. Spans stay in memory until `write` saves them.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

# Span name -> the bindings its wrapper replaces, as "module:attribute" or
# "module:Class.method". A function imported into another module by name is a
# second binding; only the ones the benchmarked code paths call are listed.
TARGETS: dict[str, tuple[str, ...]] = {
    "autodiff.backward": ("gridflex.autodiff:Tensor.backward",),
    "forecaster.train": ("gridflex.forecaster:train",),
    "forecaster.forward": ("gridflex.forecaster:forward",),
    "forecaster.gru": ("gridflex.forecaster:gru_forward",),
    "forecaster.self_attention": ("gridflex.forecaster:self_attention",),
    "forecaster.cross_attention": ("gridflex.forecaster:inter_series_attention",),
    # Only the forecaster's own binding: selector.classify imports gcn_layer too,
    # and its calls belong to the classifier span.
    "forecaster.gcn": ("gridflex.forecaster:gcn_layer",),
    "selector.run_selection": ("gridflex.selector:run_selection",
                               "gridflex.harness:run_selection"),
    "selector.classify": ("gridflex.selector:classify",),
    "selector.spectral_embed": ("gridflex.selector:spectral_embed",),
    "selector.kmeans": ("gridflex.selector:kmeans",),
    "selector.pick_queries": ("gridflex.selector:pick_queries",),
    "tariff.make_offer": ("gridflex.harness:make_offer",),
    "tariff.accept_offer": ("gridflex.harness:accept_offer",),
    "tariff.rate_hike": ("gridflex.harness:rate_hike",),
    "metrics.total_demand_reduction": ("gridflex.harness:total_demand_reduction",),
    "harness.oracle_truth": ("gridflex.harness:oracle_truth",),
    "harness.sweep_incentive": ("gridflex.cli:sweep_incentive",),
    "harness.sweep_reduction": ("gridflex.cli:sweep_reduction",),
    "harness.sweep_rate_hike": ("gridflex.cli:sweep_rate_hike",),
    "cli.sweep": ("gridflex.cli:cmd_sweep",),
    "community.generate": ("gridflex.community:generate_community",
                           "gridflex.harness:generate_community"),
    "community.save": ("gridflex.community:save_community",),
    "community.load": ("gridflex.community:load_community",),
    "community.by_id": ("gridflex.community:Community.by_id",),
}


def _forward_samples(model, windows, *args, **kwargs) -> int:
    """Samples in one forward call: (n, s) windows are one, (b, n, s) are b."""
    return 1 if np.ndim(windows) == 2 else len(windows)


# Span name -> how many items one call handled (default 1).
ITEMS = {"forecaster.forward": _forward_samples}


class Span(NamedTuple):
    name: str
    phase: str
    start: float
    end: float
    parent: int  # index into the span list, -1 at the top level
    tensors: int  # Tensor objects built while the span was open
    items: int


@dataclass
class Stat:
    calls: int = 0
    items: int = 0
    tensors: int = 0
    total_s: float = 0.0
    self_s: float = 0.0

    def counts(self) -> tuple[int, int, int]:
        return self.calls, self.items, self.tensors


def _resolve(binding: str):
    module_name, path = binding.split(":")
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.phase = "setup"
        self.tensors = 0
        self._open: list[int] = []

    def _wrap(self, name: str, fn, items):
        spans, open_spans = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = open_spans[-1] if open_spans else -1
            open_spans.append(index)
            tensors = self.tensors
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                open_spans.pop()
                spans[index] = Span(name, self.phase, start, end, parent,
                                    self.tensors - tensors,
                                    items(*args, **kwargs) if items else 1)

        return traced

    @contextmanager
    def installed(self):
        """Wrap every target and count Tensor construction; restore on exit."""
        saved = []
        try:
            for name, bindings in TARGETS.items():
                for binding in bindings:
                    owner, attr = _resolve(binding)
                    original = vars(owner)[attr]
                    saved.append((owner, attr, original))
                    setattr(owner, attr, self._wrap(name, original, ITEMS.get(name)))
            tensor_cls = importlib.import_module("gridflex.autodiff").Tensor
            init = tensor_cls.__init__

            def counting_init(obj, *args, **kwargs):
                self.tensors += 1
                init(obj, *args, **kwargs)

            saved.append((tensor_cls, "__init__", init))
            tensor_cls.__init__ = counting_init
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def summary(self, phase: str) -> dict[str, Stat]:
        """Per span name: calls, items, tensors, inclusive and self seconds.

        Call it only when no span is open.
        """
        child_s = defaultdict(float)
        for span in self.spans:
            if span.parent >= 0:
                child_s[span.parent] += span.end - span.start
        stats: dict[str, Stat] = defaultdict(Stat)
        for index, span in enumerate(self.spans):
            if span.phase != phase:
                continue
            stat = stats[span.name]
            stat.calls += 1
            stat.items += span.items
            stat.tensors += span.tensors
            stat.total_s += span.end - span.start
            stat.self_s += span.end - span.start - child_s[index]
        return dict(stats)

    def items_under(self, name: str, ancestor: str, phase: str) -> int:
        """Items of `name` spans that ran inside an `ancestor` span."""
        total = 0
        for span in self.spans:
            if span.name != name or span.phase != phase:
                continue
            parent = span.parent
            while parent >= 0 and self.spans[parent].name != ancestor:
                parent = self.spans[parent].parent
            if parent >= 0:
                total += span.items
        return total

    def write(self, path: Path, header: dict) -> None:
        """Save the header, the per-phase summaries and every span as JSON."""
        phases = sorted({s.phase for s in self.spans})
        doc = {
            **header,
            "summary": {p: {n: vars(s) for n, s in sorted(self.summary(p).items())}
                        for p in phases},
            "span_fields": list(Span._fields),
            "spans": [list(s) for s in self.spans],
        }
        path.write_text(json.dumps(doc) + "\n")
