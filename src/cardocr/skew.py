"""Skew estimation and correction for text regions.

The estimate comes from the region's bottom profile: per column, the
distance from the bottom edge of the bounding box up to the first dark
pixel.  Outlier columns outside mean +/- first-order-moment are dropped,
three anchor points (leftmost, rightmost, middle) are kept, and the angle
is the average of the three pairwise slopes.

A profile is two parallel int arrays (cols, heights), read from the
(rows, cols) coordinate arrays of the region's dark pixels (imaging.dark_mask
of the crop, taken once); the mu +/- tau filter returns a bool mask over
them.  Refining an estimate maps those coordinates through the rotation
instead of resampling the crop, so each region is rotated once, by its final
angle.
"""

import logging
import math

import numpy as np

from . import imaging

log = logging.getLogger(__name__)


class DegenerateProfileError(ValueError):
    """No dark pixel, or too few usable profile columns to estimate an angle."""


def bottom_profile(shape, rows, cols, total=0.0):
    """(cols, heights) of the crop of `shape` rotated by -total degrees,
    from the (rows, cols) of the crop's dark pixels: per column holding one,
    in increasing order, the distance from the bottom edge to the lowest.

    Each dark pixel centre is mapped through imaging.rotate_points onto the
    canvas imaging.rotate(crop, -total) would make, and binned to its
    nearest column; a column's height is rint(out_h - 1 - its largest
    mapped row).  At total 0 the map is the identity, so this is the first
    dark row counted upward from the crop's bottom.  Dark is decided once,
    on the crop (imaging.dark_mask: below the midpoint of the crop's own
    min/max), not on a resampled image.
    """
    if len(rows) == 0:
        raise DegenerateProfileError("no dark pixel, nothing to profile")
    (out_h, out_w), rows, cols = imaging.rotate_points(shape, -total, rows, cols)
    lowest = np.full(out_w, -np.inf)
    np.maximum.at(lowest, np.rint(cols).astype(np.intp), rows)
    present = np.flatnonzero(lowest > -np.inf)
    return present, np.rint(out_h - 1 - lowest[present]).astype(np.int64)


def filter_profile(heights):
    """(keep, mu, tau): the bool mask of the heights inside [mu - tau,
    mu + tau] (inclusive), where mu is the mean height and tau the first
    order moment, the mean absolute deviation from mu."""
    if len(heights) == 0:
        raise DegenerateProfileError("empty profile")
    mu = float(np.mean(heights))
    tau = float(np.mean(np.abs(mu - heights)))
    keep = (heights >= mu - tau) & (heights <= mu + tau)
    if int(keep.sum()) < 3:
        raise DegenerateProfileError(
            f"only {int(keep.sum())} profile entries inside mu +/- tau"
        )
    return keep, mu, tau


def estimate_skew(cols, heights):
    """Skew in degrees, positive for a baseline rising left to right: the
    average of the three pairwise angles of the left/middle/right anchors.

    `cols` must be strictly increasing.  The middle anchor is the first
    column nearest the midpoint of the ends; with three or more columns
    that is never an end, since cols[1] is nearer the midpoint than either.
    """
    if len(cols) < 3:
        raise DegenerateProfileError("need at least 3 retained profile entries")
    i = int(np.argmin(np.abs(cols - (int(cols[0]) + int(cols[-1])) / 2.0)))
    (c1, c3, c2), (h1, h3, h2) = cols[[0, i, -1]].tolist(), heights[[0, i, -1]].tolist()
    a13 = math.degrees(math.atan((h3 - h1) / (c3 - c1)))
    a32 = math.degrees(math.atan((h2 - h3) / (c2 - c3)))
    a12 = math.degrees(math.atan((h2 - h1) / (c2 - c1)))
    return (a13 + a32 + a12) / 3.0


def estimate_region_skew(shape, rows, cols, total=0.0):
    """One estimation pass: bottom_profile at `total` -> filter -> estimate.
    Returns the residual skew of the crop rotated by -total degrees."""
    cols, heights = bottom_profile(shape, rows, cols, total)
    keep, _, _ = filter_profile(heights)
    return estimate_skew(cols[keep], heights[keep])


CONVERGENCE_DEG = 0.05  # degrees; a smaller residual estimate ends the passes
SKEW_CLAMP = 20.0  # degrees; an estimate beyond it stops the refinement
SKEW_PASSES = 3  # most estimation passes per region


def deskew(region):
    """Rotate the region upright.  Returns (corrected image, estimated angle).

    The three-anchor estimator underestimates large angles (the mu +/- tau
    band flattens steep profiles), so the estimate is refined up to
    SKEW_PASSES times.  Pass 1 reads the crop itself; each later pass
    reads the crop's dark pixels mapped through the rotation by the total so
    far, so its dark rule is the crop's own midpoint, not the midpoint of a
    resampled image.  The region is rotated once, by the final total.

    Degenerate regions (no dark pixels, too-flat profiles, estimates beyond
    SKEW_CLAMP degrees) pass through unchanged with angle 0.
    """
    dark = np.flatnonzero(imaging.dark_mask(region))
    # a flat nonzero and a divmod beat the 2-D np.nonzero by about 2x
    rows, cols = np.divmod(dark, region.shape[1])
    total = 0.0
    for _ in range(SKEW_PASSES):
        try:
            angle = estimate_region_skew(region.shape, rows, cols, total)
        except DegenerateProfileError as exc:
            log.debug("skew estimation degenerate, stopping at %.2f: %s", total, exc)
            break
        if abs(total + angle) > SKEW_CLAMP:
            log.debug(
                "skew estimate %.2f beyond +/-%.1f clamp, stopping at %.2f",
                angle, SKEW_CLAMP, total,
            )
            break
        total += angle
        if abs(angle) < CONVERGENCE_DEG:
            break
    if total == 0.0:
        return region, total
    # the mean of the light pixels, from exact integer sums: one correctly
    # rounded division, as their float mean makes
    light = int(region.sum()) - int(region.ravel()[dark].sum())
    fill = round(light / (region.size - len(dark)))
    # hold no dark-pixel coordinates through the rotation
    del dark, rows, cols
    return imaging.rotate(region, -total, fill=fill), total


def format_profile_dump(region, angle):
    """Debug dump of the region's profile fit: one 'col height retained' row
    per profile column, then 'mu tau angle'.  Empty when the fit is
    degenerate."""
    dark = imaging.dark_mask(region)
    try:
        cols, heights = bottom_profile(dark.shape, *np.nonzero(dark))
        keep, mu, tau = filter_profile(heights)
    except DegenerateProfileError:
        return ""
    lines = [
        "%d %d %d" % row
        for row in zip(cols.tolist(), heights.tolist(), keep.tolist())
    ]
    lines.append("%.4f %.4f %.4f" % (mu, tau, angle))
    return "\n".join(lines) + "\n"
