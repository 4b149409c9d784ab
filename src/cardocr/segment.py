"""Line, word and character segmentation of binarized text regions.

Lines come from the horizontal projection profile: rows at or below a low
threshold are separator candidates (deliberately over-segmenting), and
implausibly thin bands are merged back into a neighbor.  Words and
characters come from the vertical profile of each line: zero-count column
runs split characters, and gaps much wider than the median split words.
"""

import statistics
from dataclasses import dataclass

import numpy as np

from .config import PipelineConfig
from .imaging import Rect


class EmptyRegionError(ValueError):
    """Region or line contains no usable foreground."""


@dataclass(frozen=True)
class Separator:
    start: int  # first row of the run (inclusive)
    end: int    # last row of the run (inclusive)

    @property
    def center(self):
        return (self.start + self.end) // 2

    @property
    def extent(self):
        return self.end - self.start + 1


@dataclass(frozen=True)
class LineBand:
    top: int     # inclusive
    bottom: int  # inclusive

    @property
    def height(self):
        return self.bottom - self.top + 1


@dataclass
class GlyphBox:
    rect: Rect            # within the line crop
    pixels: np.ndarray    # bool crop of the glyph
    word_index: int
    char_index: int


def horizontal_histogram(region):
    """Foreground count per row."""
    return np.count_nonzero(region, axis=1)


def vertical_histogram(region):
    """Foreground count per column."""
    return np.count_nonzero(region, axis=0)


def _runs(mask):
    """Maximal runs of True as (start, end) inclusive pairs."""
    idx = np.flatnonzero(mask)
    if len(idx) == 0:
        return []
    breaks = np.flatnonzero(np.diff(idx) > 1)
    starts = np.concatenate(([idx[0]], idx[breaks + 1]))
    ends = np.concatenate((idx[breaks], [idx[-1]]))
    return list(zip(starts.tolist(), ends.tolist()))


def find_separators(counts, threshold):
    """Maximal runs of rows with count <= threshold, including any runs that
    touch the top or bottom edge."""
    if threshold < 0:
        raise ValueError("threshold must be >= 0")
    counts = np.asarray(counts)
    return [Separator(s, e) for s, e in _runs(counts <= threshold)]


def reject_false_separators(separators, counts, r_min):
    """Turn separator runs into line bands, merging implausibly thin bands.

    Candidate bands are the row intervals between consecutive separators.
    While any band is thinner than r_min times the median band height, the
    thinnest one is merged across the narrower of its two adjacent gaps.
    """
    n = len(counts)
    covered = np.zeros(n, dtype=bool)
    for sep in separators:
        covered[sep.start : sep.end + 1] = True
    bands = [LineBand(s, e) for s, e in _runs(~covered)]
    if not bands:
        raise EmptyRegionError("no rows above the line threshold")

    def gap_between(a, b):
        return b.top - a.bottom - 1

    while len(bands) > 1:
        median = statistics.median(b.height for b in bands)
        bad = [i for i, b in enumerate(bands) if b.height < r_min * median]
        if not bad:
            break
        i = min(bad, key=lambda k: bands[k].height)
        band = bands[i]
        if i == 0:
            j = 1
        elif i == len(bands) - 1:
            j = i - 1
        else:
            gap_prev = gap_between(bands[i - 1], band)
            gap_next = gap_between(band, bands[i + 1])
            j = i - 1 if gap_prev <= gap_next else i + 1
        lo, hi = min(i, j), max(i, j)
        merged = LineBand(bands[lo].top, bands[hi].bottom)
        bands[lo : hi + 1] = [merged]
    return bands


def segment_lines(region, cfg=None):
    """Split a binarized region into text lines.

    Rows with at most cfg.line_threshold foreground pixels separate lines,
    and bands thinner than cfg.r_min times the median are merged.  Returns
    (LineBand, crop) pairs; band coordinates are rows of the region and
    crops are tightened to rows that actually hold foreground.
    """
    if cfg is None:
        cfg = PipelineConfig()
    counts = horizontal_histogram(region)
    separators = find_separators(counts, cfg.line_threshold)
    bands = reject_false_separators(separators, counts, cfg.r_min)
    out = []
    for band in bands:
        rows = np.flatnonzero(counts[band.top : band.bottom + 1] > 0)
        if len(rows) == 0:
            continue
        top = band.top + int(rows[0])
        bottom = band.top + int(rows[-1])
        tight = LineBand(top, bottom)
        out.append((tight, region[top : bottom + 1].copy()))
    if not out:
        raise EmptyRegionError("region has no foreground rows")
    return out


def segment_characters(line, cfg=None):
    """Split one line into glyphs with word/character indices.

    Characters are separated by zero-count column runs; a gap at least
    cfg.word_gap_factor times the median interior gap width is a word break.
    """
    if cfg is None:
        cfg = PipelineConfig()
    counts = vertical_histogram(line)
    spans = _runs(counts > 0)
    if not spans:
        raise EmptyRegionError("line has no foreground")
    gaps = [spans[i + 1][0] - spans[i][1] - 1 for i in range(len(spans) - 1)]
    if gaps:
        median_gap = statistics.median(gaps)
        word_break_at = [g >= cfg.word_gap_factor * median_gap for g in gaps]
    else:
        word_break_at = []
    glyphs = []
    word = 0
    char = 0
    for i, (x1, x2) in enumerate(spans):
        if i > 0 and word_break_at[i - 1]:
            word += 1
            char = 0
        window = line[:, x1 : x2 + 1]
        rows = np.flatnonzero(window.any(axis=1))
        y1, y2 = int(rows[0]), int(rows[-1])
        rect = Rect(int(x1), y1, int(x2 - x1 + 1), y2 - y1 + 1)
        glyphs.append(
            GlyphBox(
                rect=rect,
                pixels=window[y1 : y2 + 1].copy(),
                word_index=word,
                char_index=char,
            )
        )
        char += 1
    return glyphs


def format_band_dump(bands):
    """Debug dump: one 'band top bottom' row per band."""
    return "".join(f"band {b.top} {b.bottom}\n" for b in bands)


def format_glyph_dump(glyphs):
    """Debug dump: one 'glyph x y w h word char' row per glyph."""
    return "".join(
        f"glyph {g.rect.x} {g.rect.y} {g.rect.w} {g.rect.h} "
        f"{g.word_index} {g.char_index}\n"
        for g in glyphs
    )
