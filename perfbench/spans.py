"""Per-layer spans recorded from outside texelkit.

Tracer.call() swaps each public function listed below for a wrapper in
every loaded texelkit module that holds it (cli imports names directly, so
patching the defining module alone would miss its calls), and puts the
originals back when the call returns. A span is a (name, start, end,
parent) tuple kept in memory; the caller writes them out when the run ends.

Functions called thousands of times per CLI call whose cost belongs to their
caller (outline drawing, GrayImage validation) are counted, not spanned, so
their time stays in the caller's self time.
"""

from __future__ import annotations

import functools
import sys
import time

# (span name, module, attribute); a dotted attribute is a method
SPANNED = (
    ("image.load_pgm", "texelkit.image", "load_pgm"),
    ("image.save_pgm", "texelkit.image", "save_pgm"),
    ("periodicity.estimate_periods", "texelkit.periodicity", "estimate_periods"),
    ("periodicity.row_dmf", "texelkit.periodicity", "row_dmf"),
    ("periodicity.column_dmf", "texelkit.periodicity", "column_dmf"),
    ("stats.features_of_region", "texelkit.stats", "features_of_region"),
    ("blocks.partition", "texelkit.blocks", "partition"),
    ("blocks.classify_blocks", "texelkit.blocks", "classify_blocks"),
    ("blocks.AnalysisResult.to_dict", "texelkit.blocks", "AnalysisResult.to_dict"),
    ("synthesis.extract_texel", "texelkit.synthesis", "extract_texel"),
    ("synthesis.synthesize", "texelkit.synthesis", "synthesize"),
    ("synthesis.highlight_anomalies", "texelkit.synthesis", "highlight_anomalies"),
    ("cli.emit_json", "texelkit.cli", "_emit_json"),
)

# (counter name, module, attribute); GrayImage also counts pixels validated
COUNTED = (
    ("image.draw_rect_outline", "texelkit.image", "draw_rect_outline"),
    ("image.GrayImage", "texelkit.image", "GrayImage.__post_init__"),
)

ROOT_SPAN = "cli.main"


class Tracer:
    """Spans and counters of one traced CLI call, kept in memory."""

    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, parent index)
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def _span(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent)

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts
        calls_key = name + ".calls"
        px_key = name + ".px" if name == "image.GrayImage" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            counts[calls_key] = counts.get(calls_key, 0) + 1
            if px_key:
                counts[px_key] = counts.get(px_key, 0) + args[0].pixels.size
            return out

        return wrapper

    def _patches(self):
        """(owner, attribute, original, wrapper) for every place to patch."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "texelkit" or n.startswith("texelkit."))]
        out = []
        for kind, table in ((self._span, SPANNED), (self._counter, COUNTED)):
            for name, module, attr in table:
                owner = sys.modules[module]
                if "." in attr:
                    cls, attr = attr.split(".")
                    owner = getattr(owner, cls)
                    original = owner.__dict__[attr]
                    out.append((owner, attr, original, kind(name, original)))
                    continue
                original = getattr(owner, attr)
                wrapper = kind(name, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            out.append((mod, key, original, wrapper))
        return out

    def call(self, fn, *args):
        """Run fn(*args) under a root span with every listed function wrapped."""
        patches = self._patches()
        for owner, attr, _, wrapper in patches:
            setattr(owner, attr, wrapper)
        try:
            return self._span(ROOT_SPAN, fn)(*args)
        finally:
            for owner, attr, original, _ in patches:
                setattr(owner, attr, original)

    def summary(self) -> dict[str, float]:
        """Total seconds, call count and self seconds of every span name,
        plus the counters."""
        child_s: dict[int, float] = {}
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] = child_s.get(parent, 0.0) + (end - start)
        m: dict[str, float] = dict(self.counts)
        for idx, (name, start, end, _) in enumerate(self.spans):
            dur = end - start
            m[name + ".s"] = m.get(name + ".s", 0.0) + dur
            m[name + ".calls"] = m.get(name + ".calls", 0) + 1
            m[name + ".self_s"] = m.get(name + ".self_s", 0.0) + dur - child_s.get(idx, 0.0)
        return m
