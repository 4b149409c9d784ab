"""Template-matching character recognition.

Glyphs are normalized to 48x48 binary patterns (tight bounding box, nearest
neighbor, aspect ratio not preserved) and compared against a store of
labeled templates by Hamming distance, computed as the popcount of the XOR
of bit-packed patterns; the smallest count wins.  A line's glyphs are
resampled by one gather from the line crop, given their box arrays, into
an (n, 48, 48) stack; a card's stacks are matched as one batch, and one
exact bound-then-verify search finds each glyph's nearest template
(branch and bound, Fukunaga & Narendra 1975, over zoning features).  The
ink counts of the 3x3 grid of 16x16 zones give a lower bound on the
distance of every (glyph, template) pair, the summed zone-count
differences; the exact distance to the template of smallest bound is an
upper bound; the XOR-popcount runs only on the pairs whose lower bound
does not exceed it, which always include every nearest template.  One
kernel computes every exact distance, pair by pair: the matcher's upper
bounds and candidates, and build_store's medoid ranking.
The matcher returns each winner's store index and distance; the caller
maps its label through a ClassScheme, which can quotient the 73-character
alphabet by merging visually symmetric classes (C/c, 0/O/o, S/s, U/u, V/v,
W/w, Z/z, I/l/1).

A store in memory is only the matcher's packed words, a template-major
(templates, 36) uint64 array, plus its label list; TemplateStore.patterns()
unpacks the bool stack when it is written out.  A store on disk is a
directory of two files: templates.pgm, every template stacked vertically
in store order (48n rows of 48 columns, foreground 0), and labels.txt, one
label per line in the same order.  Store order is the tie-break order of the matcher, so it
round-trips as written.  A store in an older layout is rebuilt with
`cardocr store-build`.
"""

import os
from dataclasses import dataclass

import numpy as np

from . import imaging
from .fontdata import ALPHABET

PATTERN_SIZE = 48
SAMPLES_PER_CLASS = 10

CLASS_INDEX = {ch: i for i, ch in enumerate(ALPHABET)}

MERGE_GROUPS = (
    ("C", "c"),
    ("O", "0", "o"),
    ("S", "s"),
    ("U", "u"),
    ("V", "v"),
    ("W", "w"),
    ("Z", "z"),
    ("I", "l", "1"),
)

MERGE_MAP = {ch: group[0] for group in MERGE_GROUPS for ch in group}


class StoreError(ValueError):
    """Template store is missing, inconsistent or too small."""


@dataclass(frozen=True)
class ClassScheme:
    mode: str = "merged"  # "merged" or "full"

    def __post_init__(self):
        if self.mode not in ("merged", "full"):
            raise ValueError(f"unknown class scheme {self.mode!r}")

    def apply(self, label):
        if self.mode == "merged":
            return MERGE_MAP.get(label, label)
        return label


MERGED = ClassScheme("merged")
FULL = ClassScheme("full")


def normalize_pattern(mask):
    """Crop a binary mask to its tight bounding box and resample it to
    48x48 with nearest neighbor (anisotropic)."""
    mask = np.asarray(mask, dtype=bool)
    rows = np.flatnonzero(mask.any(axis=1))
    cols = np.flatnonzero(mask.any(axis=0))
    if len(rows) == 0:
        raise ValueError("empty glyph: no foreground to normalize")
    return normalize_glyph(mask, cols[:1], cols[-1:], rows[:1], rows[-1:])[0]


def normalize_glyph(line, x1, x2, top, bottom):
    """Resample n boxes of a bool line crop to one (n, 48, 48) stack,
    nearest neighbor (anisotropic), by one gather from the crop.

    Box i spans columns x1[i]..x2[i] and rows top[i]..bottom[i], inclusive
    int arrays.  The boxes segment_characters returns are tight to their
    glyphs' foreground, so they need no crop search.
    """
    h, w = (bottom - top + 1)[:, None], (x2 - x1 + 1)[:, None]
    steps = np.arange(PATTERN_SIZE)
    rows = (top[:, None] + steps * h // PATTERN_SIZE) * line.shape[1]
    cols = x1[:, None] + steps * w // PATTERN_SIZE
    return line.take(rows[:, :, None] + cols[:, None, :])


PATTERN_WORDS = PATTERN_SIZE * PATTERN_SIZE // 64

# Bytes of the uint64 XOR temporary of one matcher batch; exact distances
# are computed in batches of pairs that keep it under this.
MATCH_BATCH_BYTES = 1 << 20

# A pattern is a ZONE_GRID x ZONE_GRID grid of 16x16 zones: a packed zone
# row is one uint16.
ZONE_GRID = PATTERN_SIZE // 16


def _pack_words(patterns):
    """An (n, 48, 48) bool stack as (n, 36) uint64 words."""
    flat = patterns.reshape(len(patterns), PATTERN_SIZE * PATTERN_SIZE)
    return np.packbits(flat, axis=1).view(np.uint64)


def _zone_counts(words):
    """(n, 9) int16 set-pixel counts per zone, in raster order, of (n, 36)
    packed words."""
    n = len(words)
    rows = np.bitwise_count(words.view(np.uint16)).reshape(n, ZONE_GRID, 16, ZONE_GRID)
    return rows.sum(axis=2, dtype=np.int16).reshape(n, ZONE_GRID * ZONE_GRID)


def _pair_distances(a, rows, b, cols):
    """int16 Hamming distances of the packed words a[rows] against
    b[cols], pair by pair, in batches whose uint64 XOR temporary stays
    under MATCH_BATCH_BYTES."""
    out = np.empty(len(rows), dtype=np.int16)
    step = max(1, MATCH_BATCH_BYTES // (8 * PATTERN_WORDS))
    for lo in range(0, len(rows), step):
        xor = a[rows[lo : lo + step]]
        xor ^= b[cols[lo : lo + step]]
        out[lo : lo + step] = np.bitwise_count(xor).sum(axis=1, dtype=np.int16)
    return out


class TemplateStore:
    """Immutable labeled templates held only as bit-packed words:
    48*48/64 = 36 uint64 words per template, template-major as a
    (templates, 36) array, plus the labels in store order and the
    (9, templates) int16 zone counts the matcher bounds distances with."""

    def __init__(self, patterns, labels):
        self.labels = list(labels)
        if not self.labels:
            raise StoreError("template store is empty")
        shape = (len(self.labels), PATTERN_SIZE, PATTERN_SIZE)
        if patterns.shape != shape:
            raise StoreError(
                f"template stack is {patterns.shape}, {len(self.labels)} labels need {shape}"
            )
        for i, label in enumerate(self.labels):
            if label not in CLASS_INDEX:
                raise StoreError(f"template {i} label {label!r} outside the alphabet")
        self._words = _pack_words(patterns)
        self._zones = np.ascontiguousarray(_zone_counts(self._words).T)

    def __len__(self):
        return len(self.labels)

    def patterns(self):
        """The (templates, 48, 48) bool stack, unpacked in store order."""
        bits = np.unpackbits(self._words.view(np.uint8), axis=1)
        return bits.reshape(len(self), PATTERN_SIZE, PATTERN_SIZE).astype(bool)


def classify(patterns, store):
    """Best template per pattern of an (n, 48, 48) stack, by smallest
    dissimilarity; ties go to store order.  Returns two (n,) arrays: the
    winning template's store index and its distance.

    Per zone |a - b| <= popcount(a ^ b), so the summed zone-count
    differences LB of a pair bound its distance from below, and the
    distance UB to the template of smallest LB bounds the best one from
    above.  Every nearest template has LB <= UB, so the exact distances of
    only those pairs decide the same winner as all of them."""
    if patterns.ndim != 3 or patterns.shape[1:] != (PATTERN_SIZE, PATTERN_SIZE):
        raise ValueError("patterns must be an (n, 48, 48) stack")
    if not len(patterns):
        return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.int16)
    words = _pack_words(patterns)
    zones = _zone_counts(words)
    shape = (len(words), len(store))
    bound, diff = np.zeros(shape, dtype=np.int16), np.empty(shape, dtype=np.int16)
    for z in range(ZONE_GRID * ZONE_GRID):
        np.subtract(zones[:, z, None], store._zones[z], out=diff)
        bound += np.abs(diff, out=diff)
    upper = _pair_distances(words, np.arange(len(words)), store._words, bound.argmin(axis=1))
    rows, cols = np.nonzero(bound <= upper[:, None])
    # The bounds are spent, and the exact distances reuse their scratch
    # buffer; pairs left out score above any distance, so argmin picks a
    # candidate.
    del bound
    exact = diff
    exact.fill(PATTERN_SIZE * PATTERN_SIZE + 1)
    exact[rows, cols] = _pair_distances(words, rows, store._words, cols)
    best = exact.argmin(axis=1)
    return best, exact[np.arange(len(best)), best]


def build_store(labeled_samples, samples_per_class=SAMPLES_PER_CLASS):
    """Select the most central samples per class as templates.

    `labeled_samples` yields (label, binary mask) pairs; masks are
    normalized here.  Per class, the `samples_per_class` samples with the
    smallest summed dissimilarity to their classmates, each sample's row
    computed by the matcher's kernel, are kept, preserving input order.
    Classes with fewer samples than that are an error.
    """
    by_class = {}
    for label, mask in labeled_samples:
        if label not in CLASS_INDEX:
            raise StoreError(f"label {label!r} outside the alphabet")
        by_class.setdefault(label, []).append(normalize_pattern(mask))
    stacks, labels = [], []
    for label in sorted(by_class, key=CLASS_INDEX.__getitem__):
        stack = np.stack(by_class[label])
        if len(stack) < samples_per_class:
            raise StoreError(
                f"class {label!r} has {len(stack)} samples, needs {samples_per_class}"
            )
        words, every = _pack_words(stack), np.arange(len(stack))
        scores = [
            _pair_distances(words, np.full_like(every, i), words, every).sum() for i in every
        ]
        keep = sorted(np.argsort(scores, kind="stable")[:samples_per_class])
        stacks.append(stack[keep])
        labels += [label] * len(keep)
    store = TemplateStore(np.concatenate(stacks), labels)
    # Identical patterns across different merged classes would make tie
    # breaking pick a wrong class, so refuse them; duplicates inside one
    # merged class are harmless.
    seen = {}
    for i, (row, label) in enumerate(zip(store._words, store.labels)):
        merged = MERGE_MAP.get(label, label)
        first, first_merged = seen.setdefault(row.tobytes(), (i, merged))
        if first_merged != merged:
            raise StoreError(
                f"templates {first} and {i} are identical patterns in different classes"
            )
    return store


STORE_IMAGE = "templates.pgm"
STORE_LABELS = "labels.txt"


def save_store(store, directory):
    """Write the store as one stacked PGM plus its label list."""
    os.makedirs(directory, exist_ok=True)
    stack = store.patterns().reshape(-1, PATTERN_SIZE)
    imaging.save_pnm_file(os.path.join(directory, STORE_IMAGE), stack)
    with open(os.path.join(directory, STORE_LABELS), "w", encoding="utf-8") as fh:
        fh.writelines(label + "\n" for label in store.labels)


def load_store(directory):
    """Load a store directory written by save_store, in store order."""
    path = os.path.join(directory, STORE_IMAGE)
    try:
        with open(path, "rb") as fh:
            magic = fh.read(2)  # the loader returns a PPM as gray too
        image = imaging.load_pnm_file(path)
        with open(os.path.join(directory, STORE_LABELS), encoding="utf-8") as fh:
            labels = fh.read().splitlines()
    except FileNotFoundError as exc:
        raise StoreError(f"missing {os.path.basename(exc.filename)} in {directory}") from None
    except (OSError, imaging.PnmError, UnicodeDecodeError) as exc:
        raise StoreError(f"cannot read store {directory}: {exc}") from None
    if magic != b"P5" or image.shape[1] != PATTERN_SIZE:
        raise StoreError(f"{STORE_IMAGE} is not a gray image 48 pixels wide")
    if image.shape[0] != PATTERN_SIZE * len(labels):
        raise StoreError(
            f"{STORE_IMAGE} has {image.shape[0]} rows, {len(labels)} labels need "
            f"{PATTERN_SIZE * len(labels)}"
        )
    return TemplateStore((image == 0).reshape(len(labels), PATTERN_SIZE, PATTERN_SIZE), labels)
