"""Span tracing of cardocr's public layer functions, from outside the package.

While a card is traced, each wrapped function is replaced by a wrapper that
records a span (name, start, end, parent span, card id) in memory and,
where the layer has one, a count taken from its result.  The
original functions are put back as soon as the card ends, so untraced cards
run the unmodified code.  Every wrapped call site looks the function up as
a module attribute at call time, which is what makes the swap take effect.
"""

import bisect
import json
import statistics
import time
from collections import Counter

from cardocr import binarize, imaging, pipeline, recognize, regions, segment, skew

# (module, function).  The span name is "<module>.<function>".
LAYERS = (
    (imaging, "load_pnm_file"),
    (pipeline, "run_pipeline"),
    (imaging, "to_grayscale"),
    (regions, "extract_regions"),
    (regions, "classify_grid"),
    (regions, "assemble_regions"),
    (regions, "compute_features"),
    (skew, "deskew"),
    (skew, "estimate_region_skew"),
    (imaging, "rotate"),
    (binarize, "binarize_region"),
    (binarize, "neighbor_counts"),
    (segment, "segment_lines"),
    (segment, "segment_characters"),
    (recognize, "normalize_glyph"),
    (recognize, "classify"),
)

LAYER_NAMES = tuple(f"{m.__name__.rsplit('.', 1)[-1]}.{f}" for m, f in LAYERS)

CARD = "card"

# Spans whose self time is glue rather than a layer's work: the benchmark's
# own per-card span and the stage loop of run_pipeline.
GLUE = (CARD, "pipeline.run_pipeline")


def _counts(name, result):
    """Work counts recorded at a layer boundary, as {counter: amount}."""
    if name == "regions.classify_grid":
        labels = result.labels
        return {"regions.blocks": labels.size, "regions.ib_blocks": int(labels.sum())}
    if name == "regions.assemble_regions":
        return {"regions.count": len(result)}
    if name == "regions.extract_regions":
        return {"regions.tr": sum(r.kind == regions.TR for r in result)}
    if name == "imaging.rotate":
        return {"imaging.rotate.px": result.size}
    if name == "segment.segment_characters":
        return {"segment.glyphs": len(result)}
    return {}


class Tracer:
    """In-memory span recorder.  Spans are tuples
    (span id, name, start ns, end ns, parent span id, card id)."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()  # counter -> total over all traced cards
        self.roots = []  # the card span id of each traced card run, in order
        self._stack = []
        self._card = None

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            span_id = len(self.spans)
            self.spans.append(None)  # reserve the id so children can point at it
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                self.spans[span_id] = (span_id, name, start, end, parent, self._card)
            self.counts[name + ".calls"] += 1
            self.counts.update(_counts(name, result))
            return result

        return traced

    def run_card(self, card_id, fn):
        """Call fn() as one traced card; returns (result, card span ns)."""
        originals = [(m, f, getattr(m, f)) for m, f in LAYERS]
        for (module, fname, original), name in zip(originals, LAYER_NAMES):
            setattr(module, fname, self._wrap(name, original))
        self._card = card_id
        root = len(self.spans)
        try:
            result = self._wrap(CARD, fn)()
        finally:
            for module, fname, original in originals:
                setattr(module, fname, original)
            self._card = None
        self.roots.append(root)
        _, _, start, end, _, _ = self.spans[root]
        return result, end - start

    def self_times_ns(self, scales):
        """Total self time per span name: duration minus the time covered by
        its direct children, times the scale of the card run it belongs to
        (`scales`: one per traced card run).  Calls nest on one thread, so
        children never overlap each other, and a card run's spans follow its
        card span."""
        child_ns = [0] * len(self.spans)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        totals = {}
        for span_id, name, start, end, _, _ in self.spans:
            scale = scales[max(0, bisect.bisect_right(self.roots, span_id) - 1)]
            totals[name] = totals.get(name, 0) + ((end - start) - child_ns[span_id]) * scale
        return totals

    def layer_metrics(self, pairs, scales, templates):
        """Per-layer metrics per traced card, as {name: (value, unit)}.
        `pairs` holds (traced ms, untraced ms) of the same card run back to
        back, `scales` the factor each traced card run's times are scaled
        by, and `templates` is the store size."""
        cards = len(self.roots)
        self_ns = self.self_times_ns(scales)
        counts = self.counts
        out = {name + ".ms": (self_ns.get(name, 0) / 1e6 / cards, "ms") for name in LAYER_NAMES}
        card_ns = sum(self_ns.values())  # self times partition the card spans
        layer_ns = sum(ns for name, ns in self_ns.items() if name not in GLUE)
        out["card.traced_ms"] = (card_ns / 1e6 / cards, "ms")
        out["trace.overhead_ms"] = (statistics.median((t - u) * k for (t, u), k in zip(pairs, scales)), "ms")
        out["trace.layer_share_pct"] = (100.0 * layer_ns / card_ns, "%")
        out["regions.ib_fraction"] = (counts["regions.ib_blocks"] / counts["regions.blocks"], "ratio")
        out["regions.count"] = (counts["regions.count"] / cards, "count")
        out["regions.tr_yield"] = (counts["regions.tr"] / max(1, counts["regions.count"]), "ratio")
        for key in ("skew.estimate_region_skew.calls", "imaging.rotate.calls",
                    "imaging.rotate.px", "segment.glyphs", "recognize.classify.calls"):
            out[key] = (counts[key] / cards, "count")
        # computed, not counted: every classify call compares all templates
        cells = counts["recognize.classify.calls"] * templates * recognize.PATTERN_SIZE ** 2
        out["recognize.cells_compared"] = (cells / cards, "count")
        return out

    def write(self, path):
        """Write every span as one JSON object per line."""
        with open(path, "w") as fh:
            for span_id, name, start, end, parent, card in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent, "card": card}))
                fh.write("\n")
