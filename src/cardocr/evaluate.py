"""Scoring against ground truth: stage metrics and whole suites.

Region-level matching uses bounding-box overlap over union at 0.5 with
greedy one-to-one assignment.  evaluate_suite runs the pipeline on every
card of a synthetic suite and scores it: region counts pooled over the
suite, and character accuracy over scheme-mapped labels.
"""

from dataclasses import dataclass

from . import pipeline, synth


class MetricUndefinedError(ValueError):
    """A metric denominator is zero."""


@dataclass
class EvalCounts:
    tp: int = 0
    fp: int = 0
    fn: int = 0

    def __add__(self, other):
        return EvalCounts(self.tp + other.tp, self.fp + other.fp, self.fn + other.fn)


@dataclass
class Metrics:
    recall: float     # percent
    precision: float  # percent
    f_measure: float  # percent


def f_measure(recall, precision):
    """Harmonic mean of recall and precision (both in percent)."""
    if recall + precision == 0:
        raise MetricUndefinedError("recall + precision is zero")
    return 2.0 * recall * precision / (recall + precision)


def metrics_from_counts(counts):
    if counts.tp + counts.fn == 0:
        raise MetricUndefinedError("no positives in ground truth (tp + fn = 0)")
    if counts.tp + counts.fp == 0:
        raise MetricUndefinedError("no predicted positives (tp + fp = 0)")
    recall = 100.0 * counts.tp / (counts.tp + counts.fn)
    precision = 100.0 * counts.tp / (counts.tp + counts.fp)
    return Metrics(recall=recall, precision=precision, f_measure=f_measure(recall, precision))


def overlap_over_union(a, b):
    """Box overlap area divided by union area."""
    ix = max(0, min(a.x2, b.x2) - max(a.x, b.x))
    iy = max(0, min(a.y2, b.y2) - max(a.y, b.y))
    inter = ix * iy
    union = a.w * a.h + b.w * b.h - inter
    return inter / union if union else 0.0


MATCH_THRESHOLD = 0.5


def region_eval(predicted, truth, threshold=MATCH_THRESHOLD):
    """Region-level confusion counts.

    `predicted` and `truth` are Region-like objects with .bbox and .kind.
    A predicted TR matches a truth TR at overlap/union >= threshold,
    assigned greedily one-to-one by overlap.  Truth NRs are not counted: a
    predicted TR over one is a false positive.
    """
    pred_tr = [r.bbox for r in predicted if r.kind == "TR"]
    truth_tr = [r.bbox for r in truth if r.kind == "TR"]

    pairs = []
    for i, p in enumerate(pred_tr):
        for j, t in enumerate(truth_tr):
            oou = overlap_over_union(p, t)
            if oou >= threshold:
                pairs.append((oou, i, j))
    pairs.sort(key=lambda x: (-x[0], x[1], x[2]))
    used_p, used_t = set(), set()
    tp = 0
    for _, i, j in pairs:
        if i in used_p or j in used_t:
            continue
        used_p.add(i)
        used_t.add(j)
        tp += 1
    fp = len(pred_tr) - tp
    fn = len(truth_tr) - tp
    return EvalCounts(tp=tp, fp=fp, fn=fn)


def evaluate_suite(paths, cfg, store):
    """Run the pipeline on the suite cards at `paths` and score it.

    Returns the `eval` report pairs: region recall, precision and F-measure
    over counts pooled across cards, character accuracy, and the card and
    character counts.  Accuracy compares scheme-mapped labels position by
    position on cards whose glyph count equals the truth's; every character
    of a misaligned card counts as wrong.  Raises MetricUndefinedError when
    no text region of the suite matched.
    """
    scheme = cfg.class_scheme()
    counts = EvalCounts()
    chars_total = chars_aligned = chars_correct = 0
    for base in paths:
        gray, truth_regions, transcript = synth.load_suite_card(base)
        result = pipeline.run_pipeline(gray, cfg, store)
        counts = counts + region_eval(
            [r.region for r in result.regions], truth_regions
        )
        truth = [scheme.apply(ch) for ch in transcript if not ch.isspace()]
        predicted = result.labels
        chars_total += len(truth)
        if len(predicted) == len(truth):
            chars_aligned += len(truth)
            chars_correct += sum(p == t for p, t in zip(predicted, truth))
    metrics = metrics_from_counts(counts)
    accuracy = 100.0 * chars_correct / chars_total if chars_total else 0.0
    return [
        ("recall", metrics.recall),
        ("precision", metrics.precision),
        ("f_measure", metrics.f_measure),
        ("accuracy", accuracy),
        ("cards", len(paths)),
        ("chars_total", chars_total),
        ("chars_aligned", chars_aligned),
    ]


def format_report(pairs):
    """Machine-diffable report: one 'key=value' line per metric, given
    order preserved; floats carry two decimals."""
    lines = []
    for key, value in pairs:
        if isinstance(value, float):
            lines.append(f"{key}={value:.2f}")
        else:
            lines.append(f"{key}={value}")
    return "\n".join(lines) + "\n"

