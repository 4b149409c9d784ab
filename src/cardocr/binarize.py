"""Binarization of de-skewed text regions.

An improved midpoint method: pass 1 thresholds each pixel against the
midpoint of the region's minimum and maximum gray levels; pass 2 promotes
any background pixel with more than four foreground neighbors, reconnecting
broken strokes.  Both passes read immutable labels, so the result is
independent of scan order.
"""

import logging

import numpy as np

from . import imaging

log = logging.getLogger(__name__)


def neighbor_counts(mask):
    """Number of True values among each pixel's existing 8 neighbors: the
    sum over its 3x3 window, taken as a sum of three across each row and
    then of three down each column, less the pixel itself."""
    m = np.asarray(mask, dtype=bool).view(np.uint8)
    rows = np.empty_like(m)
    np.add(m[:, 1:], m[:, :-1], out=rows[:, 1:])
    rows[:, :1] = m[:, :1]
    rows[:, :-1] += m[:, 1:]
    counts = np.empty_like(m)
    np.add(rows[1:], rows[:-1], out=counts[1:])
    counts[:1] = rows[:1]
    counts[:-1] += rows[1:]
    counts -= m
    return counts


def threshold_region(region):
    """Pass 1: foreground where a pixel is dark (imaging.dark_mask), below
    the midpoint of the region's extremes.  Returns a bool image."""
    fg = imaging.dark_mask(region)
    if not fg.any():
        log.warning("constant region (gray %d): binarized to all background",
                    region.flat[0])
    return fg


def binarize_region(region):
    """Pass 1, then pass 2: promote every background pixel with more than
    four foreground neighbors.  Returns a bool image (True = foreground)."""
    fg = threshold_region(region)
    return fg | (neighbor_counts(fg) > 4)
