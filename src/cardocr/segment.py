"""Line, word and character segmentation of binarized text regions.

Lines come from the horizontal projection profile: candidate bands are the
runs of rows above a low threshold (deliberately over-segmenting), and
implausibly thin bands are merged back into a neighbor.  Words and
characters come from the vertical profile of each line: zero-count column
runs split characters, and gaps much wider than the median split words.
"""

import statistics
from dataclasses import dataclass

import numpy as np

from .imaging import Rect


class EmptyRegionError(ValueError):
    """Region or line contains no usable foreground."""


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


def candidate_bands(counts, threshold):
    """Maximal runs of rows with count > threshold as line bands, including
    any runs that touch the top or bottom edge."""
    return [LineBand(s, e) for s, e in _runs(np.asarray(counts) > threshold)]


def reject_false_separators(bands, r_min):
    """Merge implausibly thin candidate bands into a neighbor.

    While any band is thinner than r_min times the median band height, the
    thinnest one is merged across the narrower of its two adjacent gaps.
    """
    if not bands:
        raise EmptyRegionError("no rows above the line threshold")
    bands = list(bands)

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


def segment_lines(region, cfg):
    """Split a binarized region into text lines.

    Runs of rows with more than cfg.line_threshold foreground pixels are
    candidate lines, and bands thinner than cfg.r_min times the median are
    merged.  Returns (LineBand, crop) pairs; band coordinates are rows of
    the region.  Every band starts and ends on a row above the threshold,
    so each crop is tight to rows that hold foreground.
    """
    bands = candidate_bands(horizontal_histogram(region), cfg.line_threshold)
    return [
        (band, region[band.top : band.bottom + 1].copy())
        for band in reject_false_separators(bands, cfg.r_min)
    ]


def segment_characters(line, cfg):
    """Split one line into glyphs with word/character indices.

    Characters are separated by zero-count column runs; a gap at least
    cfg.word_gap_factor times the median interior gap width is a word break.
    """
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
