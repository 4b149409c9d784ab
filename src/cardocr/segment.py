"""Line, word and character segmentation of binarized text regions.

Lines come from the horizontal projection profile: candidate bands are the
runs of rows above a low threshold (deliberately over-segmenting), and
implausibly thin bands are merged back into a neighbor.  A region's lines
are one (n, 2) int array of inclusive (top, bottom) rows; a region with no
row above the threshold has zero bands.  Words and characters come from the
vertical profile of each line: columns with no ink split characters, and
gaps much wider than the median split words.  A line's glyphs are one set
of parallel arrays (Glyphs), built in one pass over its column runs, and
read as arrays up to the matcher.
"""

from dataclasses import dataclass

import numpy as np

from .imaging import runs

LINE_THRESHOLD = 0  # a row with at most this many ink pixels separates lines
R_MIN = 0.5  # min band height, as a share of the median band's
WORD_GAP_FACTOR = 2.0  # a gap this many times the median gap breaks a word


@dataclass(frozen=True)
class Glyphs:
    """The glyphs of one line in column order, as parallel int arrays:
    inclusive columns x1..x2 and rows top..bottom within the line crop, the
    word index and the character index within the word."""

    x1: np.ndarray
    x2: np.ndarray
    top: np.ndarray
    bottom: np.ndarray
    word: np.ndarray
    char: np.ndarray

    def __len__(self):
        return len(self.x1)

    def __getitem__(self, index):
        """The glyphs that an index array, mask or slice selects."""
        return Glyphs(*(a[index] for a in vars(self).values()))


def reject_false_separators(top, bottom):
    """Merge implausibly thin candidate bands into a neighbor.

    `top` and `bottom` are the inclusive rows of bands in top-down order.
    While the thinnest band is thinner than R_MIN times the median band
    height, it is merged across the narrower of its two adjacent gaps.  Of
    equally thin bands the first merges first; a band with equal gaps on
    both sides merges into the band above; the first band merges into the
    one below and the last into the one above.  Returns the merged (top,
    bottom) arrays.
    """
    while len(top) > 1:
        height = bottom - top + 1
        i = height.argmin()
        if height[i] >= R_MIN * np.median(height):
            break
        gap = top[1:] - bottom[:-1] - 1  # gap[k] lies between bands k and k + 1
        k = i if i == 0 or (i < len(gap) and gap[i] < gap[i - 1]) else i - 1
        top, bottom = np.delete(top, k + 1), np.delete(bottom, k)  # bands k, k + 1 -> one
    return top, bottom


def segment_lines(region):
    """Split a binarized region into text lines.

    Runs of rows with more than LINE_THRESHOLD foreground pixels are
    candidate lines, and bands thinner than R_MIN times the median are
    merged.  Returns an (n, 2) int array of inclusive (top, bottom) rows of
    the region, one row per line in top-down order; a region with no row
    above the threshold has zero bands.  Every band starts and ends on a row
    above the threshold, so `region[top : bottom + 1]` is tight to rows that
    hold foreground.
    """
    top, bottom = runs(np.count_nonzero(region, axis=1) > LINE_THRESHOLD)
    return np.column_stack(reject_false_separators(top, bottom))


def segment_characters(line):
    """Split one line into Glyphs.

    Characters are separated by runs of columns with no ink; a gap at least
    WORD_GAP_FACTOR times the median interior gap width is a word break.
    Each glyph's rows run from the first to the last row with foreground in
    its columns.  A line with no foreground has no glyphs.
    """
    x1, x2 = runs(line.any(axis=0))
    gaps = x1[1:] - x2[:-1] - 1
    first = np.ones(len(x1), dtype=bool)  # the first glyph of a word
    if len(gaps):
        first[1:] = gaps >= WORD_GAP_FACTOR * np.median(gaps)
    word = np.cumsum(first) - 1
    # Gap columns hold no foreground, so the columns from one run's start
    # to the next run's start hold exactly that run's ink.
    ink = np.logical_or.reduceat(line, x1, axis=1)
    return Glyphs(
        x1=x1,
        x2=x2,
        top=ink.argmax(axis=0),
        bottom=len(line) - 1 - ink[::-1].argmax(axis=0),
        word=word,
        char=np.arange(len(x1)) - np.flatnonzero(first)[word],
    )


def format_band_dump(bands):
    """Debug dump: one 'band top bottom' row per (top, bottom) int row."""
    return "".join("band %d %d\n" % tuple(row) for row in np.asarray(bands).tolist())


def format_glyph_dump(glyphs):
    """Debug dump: one 'glyph x y w h word char' row per glyph."""
    g = glyphs
    rows = np.column_stack((g.x1, g.top, g.x2 - g.x1 + 1, g.bottom - g.top + 1, g.word, g.char))
    return "".join("glyph %d %d %d %d %d %d\n" % tuple(row) for row in rows.tolist())
