"""Correctness scoring against the synthetic generator's ground truth.

Character accuracy follows ISRI OCR evaluation (Rice et al., 1996): the
edit distance between the transcript and the truth text, over the number of
truth characters.  Both sides are mapped through the class scheme first, so
merged classes (O/0/o, I/l/1, ...) are not errors.  Region quality is the
F-measure of evaluate.region_eval over counts pooled across cards.
"""

from cardocr import evaluate


def edit_distance(a, b):
    """Levenshtein distance: unit-cost insert, delete and substitute."""
    if len(a) < len(b):
        a, b = b, a
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def char_errors(transcript, truth, scheme):
    """(edit distance, truth characters) of one card under `scheme`."""
    truth = "".join(scheme.apply(ch) for ch in truth.rstrip("\n"))
    transcript = "".join(scheme.apply(ch) for ch in transcript)
    return edit_distance(transcript, truth), len(truth)


def score_cards(cards, results, scheme):
    """(char errors, truth chars, pooled region counts) over the cards; a
    card without a result (its call raised) scores as an empty reading."""
    errors = chars = 0
    counts = evaluate.EvalCounts()
    for card, result in zip(cards, results):
        e, n = char_errors(result.transcript if result else "", card.truth_text, scheme)
        errors += e
        chars += n
        predicted = [r.region for r in result.regions] if result else []
        counts = counts + evaluate.region_eval(predicted, card.truth_regions)
    return errors, chars, counts


def pooled_f_pct(counts):
    """Region F-measure in percent; 0 when it is undefined (no truth or no
    predicted text region at all)."""
    try:
        return evaluate.metrics_from_counts(counts).f_measure
    except evaluate.MetricUndefinedError:
        return 0.0
