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
    """Number of True values among each pixel's existing 8 neighbors."""
    counts = np.zeros(mask.shape, dtype=np.uint8)
    m = mask.astype(np.uint8)
    h, w = mask.shape
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            if dy == dx == 0:
                continue
            ys = slice(max(0, dy), h + min(0, dy))
            xs = slice(max(0, dx), w + min(0, dx))
            yd = slice(max(0, -dy), h + min(0, -dy))
            xd = slice(max(0, -dx), w + min(0, -dx))
            counts[yd, xd] += m[ys, xs]
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
