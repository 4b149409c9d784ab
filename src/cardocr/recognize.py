"""Template-matching character recognition.

Glyphs are normalized to 48x48 binary patterns (tight bounding box, nearest
neighbor, aspect ratio not preserved) and compared against a store of
labeled templates by Hamming distance, computed as the popcount of the XOR
of bit-packed patterns; the smallest count wins.  A card is one batch: its
glyphs are resampled by one gather into an (n, 48, 48) stack, and one
matcher compares the stack with every template word by word, one
(glyphs, templates) XOR, popcount and add per 64-bit word.
The 73-character alphabet can optionally be quotiented by merging visually
symmetric classes (C/c, 0/O/o, S/s, U/u, V/v, W/w, Z/z, I/l/1).
"""

import os
from dataclasses import dataclass

import numpy as np

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


@dataclass
class Template:
    pattern: np.ndarray  # bool (48, 48)
    label: str
    source_id: str = ""


@dataclass
class Classification:
    label: str          # scheme-mapped winner
    score: int          # dissimilarity of the winning template


def normalize_pattern(mask):
    """Crop a binary mask to its tight bounding box and resample it to
    48x48 with nearest neighbor (anisotropic)."""
    mask = np.asarray(mask, dtype=bool)
    rows = np.flatnonzero(mask.any(axis=1))
    cols = np.flatnonzero(mask.any(axis=0))
    if len(rows) == 0:
        raise ValueError("empty glyph: no foreground to normalize")
    tight = mask[rows[0] : rows[-1] + 1, cols[0] : cols[-1] + 1]
    h, w = tight.shape
    yy = (np.arange(PATTERN_SIZE) * h) // PATTERN_SIZE
    xx = (np.arange(PATTERN_SIZE) * w) // PATTERN_SIZE
    return tight[np.ix_(yy, xx)]


def normalize_glyph(glyphs):
    """Resample a card's segmented GlyphBoxes to one (n, 48, 48) stack.

    Each GlyphBox.pixels crop is already tight (segment_characters cuts it
    to foreground columns and to the rows between the first and last row
    with foreground), so this is normalize_pattern without the crop search,
    done as one gather over the concatenated pixels.
    """
    if not glyphs:
        return np.zeros((0, PATTERN_SIZE, PATTERN_SIZE), dtype=bool)
    shapes = np.array([g.pixels.shape for g in glyphs], dtype=np.intp)
    h, w = shapes[:, :1], shapes[:, 1:]
    sizes = shapes[:, 0] * shapes[:, 1]
    offsets = np.cumsum(sizes) - sizes
    steps = np.arange(PATTERN_SIZE)
    rows = (steps * h) // PATTERN_SIZE * w + offsets[:, None]
    cols = (steps * w) // PATTERN_SIZE
    flat = np.concatenate([g.pixels.reshape(-1) for g in glyphs])
    return flat[rows[:, :, None] + cols[:, None, :]]


_POPCOUNT8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


def _popcount_table(words):
    """Set bits per element of a contiguous uint64 array, by 256-entry
    lookup table over its bytes."""
    counts = _POPCOUNT8[words.view(np.uint8)]
    return counts.reshape(words.shape + (8,)).sum(axis=-1, dtype=np.uint8)


# np.bitwise_count exists from numpy 2.0 on; older numpy uses the table.
_popcount = np.bitwise_count if hasattr(np, "bitwise_count") else _popcount_table

PATTERN_WORDS = PATTERN_SIZE * PATTERN_SIZE // 64

# Bytes of the (glyphs, templates) uint64 XOR temporary of one matcher
# batch; a card's glyphs are matched in batches that keep it under this.
MATCH_BATCH_BYTES = 1 << 20


def _pack_words(patterns):
    """An (n, 48, 48) bool stack as (n, 36) uint64 words."""
    flat = patterns.reshape(len(patterns), PATTERN_SIZE * PATTERN_SIZE)
    return np.packbits(flat, axis=1).view(np.uint64)


class TemplateStore:
    """Immutable collection of labeled templates with a bit-packed match
    matrix: 48*48/64 = 36 uint64 words per template, stored word-major as
    a (36, templates) array so each word of every template is contiguous."""

    def __init__(self, templates):
        if not templates:
            raise StoreError("template store is empty")
        self.templates = list(templates)
        for t in self.templates:
            if t.pattern.shape != (PATTERN_SIZE, PATTERN_SIZE):
                raise StoreError(f"template {t.source_id!r} is not 48x48")
            if t.label not in CLASS_INDEX:
                raise StoreError(f"template label {t.label!r} outside the alphabet")
        self._words = np.ascontiguousarray(
            _pack_words(np.stack([t.pattern for t in self.templates])).T
        )
        self._labels = [t.label for t in self.templates]

    def __len__(self):
        return len(self.templates)

    def distances(self, patterns):
        """(n, templates) uint16 dissimilarities of an (n, 48, 48) stack
        against every template, in store order.

        Word by word, one (glyphs, templates) XOR, popcount and add, so the
        sum runs along contiguous rows."""
        words = _pack_words(patterns)
        n, count = len(words), len(self.templates)
        out = np.zeros((n, count), dtype=np.uint16)
        step = max(1, MATCH_BATCH_BYTES // (8 * count))
        for lo in range(0, n, step):
            batch = words[lo : lo + step]
            acc = out[lo : lo + step]
            xor = np.empty((len(batch), count), dtype=np.uint64)
            for k in range(PATTERN_WORDS):
                np.bitwise_xor(batch[:, k, None], self._words[k], out=xor)
                acc += _popcount(xor)
        return out


def classify(patterns, store, scheme=MERGED):
    """Best template per pattern of an (n, 48, 48) stack, by smallest
    dissimilarity; ties go to store order.  One Classification per row."""
    if patterns.ndim != 3 or patterns.shape[1:] != (PATTERN_SIZE, PATTERN_SIZE):
        raise ValueError("patterns must be an (n, 48, 48) stack")
    dists = store.distances(patterns)
    return [
        Classification(label=scheme.apply(store._labels[b]), score=s)
        for b, s in zip(dists.argmin(axis=1).tolist(), dists.min(axis=1).tolist())
    ]


def build_store(labeled_samples, samples_per_class=SAMPLES_PER_CLASS):
    """Select the most central samples per class as templates.

    `labeled_samples` yields (label, binary mask) pairs; masks are
    normalized here.  Per class, the `samples_per_class` samples with the
    smallest summed dissimilarity to their classmates are kept, preserving
    input order.  Classes with fewer samples than that are an error.
    """
    by_class = {}
    for label, mask in labeled_samples:
        if label not in CLASS_INDEX:
            raise StoreError(f"label {label!r} outside the alphabet")
        by_class.setdefault(label, []).append(normalize_pattern(mask))
    templates = []
    for label in sorted(by_class, key=CLASS_INDEX.__getitem__):
        patterns = by_class[label]
        n = len(patterns)
        if n < samples_per_class:
            raise StoreError(
                f"class {label!r} has {n} samples, needs {samples_per_class}"
            )
        if n == samples_per_class:
            keep = range(n)
        else:
            flat = np.stack([p.reshape(-1) for p in patterns]).astype(np.uint8)
            dist = np.count_nonzero(flat[:, None, :] != flat[None, :, :], axis=2)
            scores = dist.sum(axis=1)
            keep = sorted(np.argsort(scores, kind="stable")[:samples_per_class])
        for rank, idx in enumerate(keep):
            templates.append(
                Template(
                    pattern=patterns[idx],
                    label=label,
                    source_id=f"{CLASS_INDEX[label]:02d}_{rank}",
                )
            )
    # Identical patterns across different merged classes would make tie
    # breaking pick a wrong class, so refuse them; duplicates inside one
    # merged class are harmless.
    seen = {}
    for t in templates:
        key = t.pattern.tobytes()
        merged = MERGE_MAP.get(t.label, t.label)
        if key in seen and seen[key][1] != merged:
            raise StoreError(
                f"templates {seen[key][0]} and {t.source_id} are identical "
                "patterns in different classes"
            )
        seen.setdefault(key, (t.source_id, merged))
    return TemplateStore(templates)


MANIFEST_NAME = "manifest.txt"


def save_store(store, directory):
    """Write templates as PGM files plus an index->character manifest."""
    from . import imaging

    os.makedirs(directory, exist_ok=True)
    counters = {}
    used_classes = {}
    for t in store.templates:
        idx = CLASS_INDEX[t.label]
        sample = counters.get(idx, 0)
        counters[idx] = sample + 1
        used_classes[idx] = t.label
        imaging.save_pnm_file(
            os.path.join(directory, f"{idx:02d}_{sample}.pgm"), t.pattern
        )
    with open(os.path.join(directory, MANIFEST_NAME), "w") as fh:
        for idx in sorted(used_classes):
            fh.write(f"{idx:02d}\t{used_classes[idx]}\n")


def load_store(directory):
    """Load a template store directory, validating shape and manifest."""
    from . import imaging

    manifest_path = os.path.join(directory, MANIFEST_NAME)
    if not os.path.isfile(manifest_path):
        raise StoreError(f"missing manifest in {directory}")
    index_to_char = {}
    with open(manifest_path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            try:
                idx_text, ch = line.split("\t")
                idx = int(idx_text)
            except ValueError:
                raise StoreError(f"malformed manifest line {line!r}") from None
            if ch not in CLASS_INDEX or CLASS_INDEX[ch] != idx:
                raise StoreError(f"manifest maps {idx} to unexpected {ch!r}")
            index_to_char[idx] = ch
    entries = []
    for name in os.listdir(directory):
        if not name.endswith(".pgm"):
            continue
        stem = name[:-4]
        try:
            idx_text, sample_text = stem.split("_")
            idx, sample = int(idx_text), int(sample_text)
        except ValueError:
            raise StoreError(f"unexpected template file name {name!r}") from None
        if idx not in index_to_char:
            raise StoreError(f"template {name!r} has no manifest entry")
        entries.append((idx, sample, name))
    if not entries:
        raise StoreError(f"no templates found in {directory}")
    covered = {idx for idx, _, _ in entries}
    missing = set(index_to_char) - covered
    if missing:
        raise StoreError(f"manifest classes without templates: {sorted(missing)}")
    templates = []
    for idx, sample, name in sorted(entries):
        img = imaging.load_pnm_file(os.path.join(directory, name))
        if img.ndim != 2 or img.shape != (PATTERN_SIZE, PATTERN_SIZE):
            raise StoreError(f"template {name!r} is not 48x48")
        templates.append(
            Template(pattern=img == 0, label=index_to_char[idx], source_id=f"{idx:02d}_{sample}")
        )
    return TemplateStore(templates)

