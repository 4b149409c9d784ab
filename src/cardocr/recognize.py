"""Template-matching character recognition.

Glyphs are normalized to 48x48 binary patterns (tight bounding box, nearest
neighbor, aspect ratio not preserved) and compared against a store of
labeled templates by Hamming distance, computed as the popcount of the XOR
of bit-packed patterns; the smallest count wins.
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


def normalize_glyph(glyph_box):
    """Normalize a segmented GlyphBox to a 48x48 pattern."""
    return normalize_pattern(glyph_box.pixels)


_POPCOUNT8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


def _popcount_rows_table(bits):
    """Set bits per row of a uint8 matrix, by 256-entry lookup table."""
    return _POPCOUNT8[bits].sum(axis=1)


def _popcount_rows_native(bits):
    """Set bits per row of a uint8 matrix whose rows are whole uint64 words."""
    return np.bitwise_count(bits.view(np.uint64)).sum(axis=1)


# np.bitwise_count exists from numpy 2.0 on; older numpy uses the table.
_popcount_rows = (
    _popcount_rows_native if hasattr(np, "bitwise_count") else _popcount_rows_table
)


class TemplateStore:
    """Immutable collection of labeled templates with a bit-packed match
    matrix: one row of 48*48/8 = 288 bytes per template."""

    def __init__(self, templates):
        if not templates:
            raise StoreError("template store is empty")
        self.templates = list(templates)
        for t in self.templates:
            if t.pattern.shape != (PATTERN_SIZE, PATTERN_SIZE):
                raise StoreError(f"template {t.source_id!r} is not 48x48")
            if t.label not in CLASS_INDEX:
                raise StoreError(f"template label {t.label!r} outside the alphabet")
        self._packed = np.packbits(
            np.stack([t.pattern.reshape(-1) for t in self.templates]), axis=1
        )
        self._labels = [t.label for t in self.templates]

    def __len__(self):
        return len(self.templates)

    def distances(self, pattern):
        """Dissimilarity against every template, in store order."""
        return _popcount_rows(self._packed ^ np.packbits(pattern.reshape(-1)))


def classify(pattern, store, scheme=MERGED):
    """Best template by smallest dissimilarity; ties go to store order."""
    if pattern.shape != (PATTERN_SIZE, PATTERN_SIZE):
        raise ValueError("pattern must be 48x48")
    dists = store.distances(pattern)
    best = int(np.argmin(dists))
    return Classification(label=scheme.apply(store._labels[best]), score=int(dists[best]))


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

