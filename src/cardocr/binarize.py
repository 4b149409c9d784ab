"""Binarization of de-skewed text regions.

An improved midpoint method: pass 1 thresholds each pixel against the mean
of the surrounding min/max gray levels (whole-region extremes by default, or
a local square window); pass 2 promotes any background pixel with more than
four foreground neighbors, reconnecting broken strokes.  Both passes read
immutable labels, so the result is independent of scan order.
"""

import logging

import numpy as np

from .config import PipelineConfig

log = logging.getLogger(__name__)


def _sliding_extrema(img, window):
    """Per-pixel min and max over a centered window x window neighborhood.

    Separable: reduce rows then columns.  Edges replicate, which equals
    clipping the window at the border.
    """
    pad = window // 2

    def reduce_axis(arr, fn, axis):
        padded = np.pad(arr, [(pad, pad) if a == axis else (0, 0) for a in range(2)],
                        mode="edge")
        view = np.lib.stride_tricks.sliding_window_view(padded, window, axis=axis)
        return fn(view, axis=-1)

    mn = reduce_axis(reduce_axis(img, np.min, 0), np.min, 1)
    mx = reduce_axis(reduce_axis(img, np.max, 0), np.max, 1)
    return mn, mx


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


def threshold_region(region, cfg=None):
    """Pass 1: foreground where a pixel is below the midpoint of the
    region's extremes (cfg.binarize_mode "global") or of its
    cfg.binarize_window neighborhood ("local").  Returns a bool image."""
    if cfg is None:
        cfg = PipelineConfig()
    if region.size == 0:
        raise ValueError("empty region")
    g_min, g_max = int(region.min()), int(region.max())
    if g_min == g_max:
        log.warning("constant region (gray %d): binarized to all background", g_min)
        return np.zeros(region.shape, dtype=bool)
    if cfg.binarize_mode == "global":
        return region < (g_min + g_max) / 2.0
    mn, mx = _sliding_extrema(region, cfg.binarize_window)
    return region < (mn.astype(np.float32) + mx.astype(np.float32)) / 2.0


def binarize_region(region, cfg=None):
    """Pass 1, then pass 2: promote every background pixel with more than
    four foreground neighbors.  Returns a bool image (True = foreground)."""
    fg = threshold_region(region, cfg)
    return fg | (neighbor_counts(fg) > 4)
