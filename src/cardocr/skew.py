"""Skew estimation and correction for text regions.

The estimate comes from the region's bottom profile: per column, the
distance from the bottom edge of the bounding box up to the first dark
pixel.  Outlier columns outside mean +/- first-order-moment are dropped,
three anchor points (leftmost, rightmost, middle) are kept, and the angle
is the average of the three pairwise slopes.

The profile is read from the coordinates of the region's dark pixels
(imaging.dark_mask of the crop, taken once).  Refining an estimate maps
those coordinates through the rotation instead of resampling the crop, so
each region is rotated once, by its final angle.
"""

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import imaging

log = logging.getLogger(__name__)


class DegenerateProfileError(ValueError):
    """No dark pixel, or too few usable profile columns to estimate an angle."""


@dataclass
class Profile:
    """Bottom-distance profile.  Columns with no dark pixel are absent."""

    cols: np.ndarray     # int column indices of present entries
    heights: np.ndarray  # distance (px) from the bottom edge, same length


@dataclass
class DarkPixels:
    """The dark pixels of a region crop, as coordinates."""

    shape: tuple       # (height, width) of the crop
    rows: np.ndarray   # int row of each dark pixel
    cols: np.ndarray   # int column of each dark pixel, same length


def dark_pixels(dark):
    """DarkPixels of a crop's dark mask (imaging.dark_mask of the crop)."""
    # a flat nonzero and a divmod beat the 2-D np.nonzero by about 2x
    return DarkPixels(dark.shape, *np.divmod(np.flatnonzero(dark), dark.shape[1]))


def bottom_profile(pixels, total=0.0):
    """Per column of the crop rotated by -total degrees, the distance from
    the bottom edge to the lowest dark pixel.

    Each dark pixel centre is mapped through imaging.rotate_points onto the
    canvas imaging.rotate(crop, -total) would make, and binned to its
    nearest column; a column's height is rint(out_h - 1 - its largest
    mapped row).  At total 0 the map is the identity, so this is the first
    dark row counted upward from the crop's bottom.  Dark is decided once,
    on the crop (imaging.dark_mask: below the midpoint of the crop's own
    min/max), not on a resampled image.
    """
    if len(pixels.rows) == 0:
        raise DegenerateProfileError("no dark pixel, nothing to profile")
    (out_h, out_w), rows, cols = imaging.rotate_points(
        pixels.shape, -total, pixels.rows, pixels.cols
    )
    lowest = np.full(out_w, -np.inf)
    np.maximum.at(lowest, np.rint(cols).astype(np.intp), rows)
    present = np.flatnonzero(lowest > -np.inf)
    heights = np.rint(out_h - 1 - lowest[present]).astype(np.int64)
    return Profile(cols=present, heights=heights)


def filter_profile(profile):
    """Keep only entries inside [mu - tau, mu + tau] (inclusive), where mu is
    the mean height and tau the first order moment, the mean absolute
    deviation from mu.  Returns (retained profile, mu, tau)."""
    if len(profile.cols) == 0:
        raise DegenerateProfileError("empty profile")
    heights = profile.heights
    mu = float(np.mean(heights))
    tau = float(np.mean(np.abs(mu - heights)))
    keep = (heights >= mu - tau) & (heights <= mu + tau)
    if int(keep.sum()) < 3:
        raise DegenerateProfileError(
            f"only {int(keep.sum())} profile entries inside mu +/- tau"
        )
    return Profile(cols=profile.cols[keep], heights=heights[keep]), mu, tau


def _pair_angle(col_a, h_a, col_b, h_b):
    return math.degrees(math.atan((h_b - h_a) / (col_b - col_a)))


def estimate_skew(profile):
    """Skew in degrees, positive for a baseline rising left to right: the
    average of the three pairwise angles of the left/middle/right anchors."""
    if len(profile.cols) < 3:
        raise DegenerateProfileError("need at least 3 retained profile entries")
    c1, h1 = int(profile.cols[0]), float(profile.heights[0])
    c2, h2 = int(profile.cols[-1]), float(profile.heights[-1])
    mid = (c1 + c2) / 2.0
    i3 = int(np.argmin(np.abs(profile.cols - mid)))
    c3, h3 = int(profile.cols[i3]), float(profile.heights[i3])
    if len({c1, c2, c3}) != 3:
        raise DegenerateProfileError("anchor columns are not pairwise distinct")
    return (
        _pair_angle(c1, h1, c3, h3)
        + _pair_angle(c3, h3, c2, h2)
        + _pair_angle(c1, h1, c2, h2)
    ) / 3.0


def estimate_region_skew(pixels, total=0.0):
    """One estimation pass: bottom_profile at `total` -> filter -> estimate.
    Returns the residual skew of the crop rotated by -total degrees."""
    retained, _, _ = filter_profile(bottom_profile(pixels, total))
    return estimate_skew(retained)


def background_fill(region, dark):
    """Mean intensity of the light (not `dark`) pixels, the rotation fill."""
    return int(round(float(region[~dark].mean())))


CONVERGENCE_DEG = 0.05


def deskew(region, cfg):
    """Rotate the region upright.  Returns (corrected image, estimated angle).

    The three-anchor estimator underestimates large angles (the mu +/- tau
    band flattens steep profiles), so the estimate is refined up to
    cfg.skew_passes times.  Pass 1 reads the crop itself; each later pass
    reads the crop's dark pixels mapped through the rotation by the total so
    far, so its dark rule is the crop's own midpoint, not the midpoint of a
    resampled image.  The region is rotated once, by the final total.

    Degenerate regions (no dark pixels, too-flat profiles, estimates beyond
    cfg.skew_clamp degrees) pass through unchanged with angle 0.
    """
    dark = imaging.dark_mask(region)
    pixels = dark_pixels(dark)
    total = 0.0
    for _ in range(cfg.skew_passes):
        try:
            angle = estimate_region_skew(pixels, total)
        except DegenerateProfileError as exc:
            log.debug("skew estimation degenerate, stopping at %.2f: %s", total, exc)
            break
        if abs(total + angle) > cfg.skew_clamp:
            log.debug(
                "skew estimate %.2f beyond +/-%.1f clamp, stopping at %.2f",
                angle, cfg.skew_clamp, total,
            )
            break
        total += angle
        if abs(angle) < CONVERGENCE_DEG:
            break
    if total == 0.0:
        return region, total
    fill = background_fill(region, dark)
    # hold neither the mask nor its coordinates through the rotation: its
    # temporaries are the card's memory peak
    del dark, pixels
    return imaging.rotate(region, -total, fill=fill), total


def format_profile_dump(region, angle):
    """Debug dump of the region's profile fit: one 'col height retained' row
    per profile column, then 'mu tau angle'.  Empty when the fit is
    degenerate."""
    try:
        profile = bottom_profile(dark_pixels(imaging.dark_mask(region)))
        retained, mu, tau = filter_profile(profile)
    except DegenerateProfileError:
        return ""
    kept = np.isin(profile.cols, retained.cols)
    lines = [
        "%d %d %d" % row
        for row in zip(profile.cols.tolist(), profile.heights.tolist(), kept.tolist())
    ]
    lines.append("%.4f %.4f %.4f" % (mu, tau, angle))
    return "\n".join(lines) + "\n"
