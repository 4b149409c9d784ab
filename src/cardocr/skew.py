"""Skew estimation and correction for text regions.

The estimate comes from the region's bottom profile: per column, the
distance from the bottom edge of the bounding box up to the first dark
pixel.  Outlier columns outside mean +/- first-order-moment are dropped,
three anchor points (leftmost, rightmost, middle) are kept, and the angle
is the average of the three pairwise slopes.
"""

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import imaging

log = logging.getLogger(__name__)


class NoTextError(ValueError):
    """Region has one intensity, so no pixel is dark."""


class DegenerateProfileError(ValueError):
    """Too few usable profile columns to estimate an angle."""


@dataclass
class Profile:
    """Bottom-distance profile.  Columns with no dark pixel are absent."""

    cols: np.ndarray     # int column indices of present entries
    heights: np.ndarray  # distance (px) from the bottom edge, same length


@dataclass
class ProfileStats:
    mu: float   # mean height
    tau: float  # first order moment: mean absolute deviation from mu


def bottom_profile(region):
    """Per-column distance from the bottom edge to the first dark pixel.

    Dark means below the midpoint of the region's own min/max intensity
    (the region is not binarized yet at this stage).
    """
    h = region.shape[0]
    vmin, vmax = int(region.min()), int(region.max())
    if vmin == vmax:
        raise NoTextError("region has no intensity variation, nothing to profile")
    # vmin < vmax, so the vmin pixel is dark and some column is present
    dark = region < (vmin + vmax) / 2.0
    present = dark.any(axis=0)
    # distance from the bottom: h-1 minus the last dark row per column
    last_dark = (h - 1) - np.argmax(dark[::-1, :], axis=0)
    cols = np.flatnonzero(present)
    heights = (h - 1) - last_dark[cols]
    return Profile(cols=cols, heights=heights.astype(np.int64))


def profile_stats(profile):
    if len(profile.cols) == 0:
        raise DegenerateProfileError("empty profile")
    mu = float(np.mean(profile.heights))
    tau = float(np.mean(np.abs(mu - profile.heights)))
    return ProfileStats(mu=mu, tau=tau)


def filter_profile(profile, stats):
    """Keep only entries inside [mu - tau, mu + tau] (inclusive)."""
    keep = (profile.heights >= stats.mu - stats.tau) & (
        profile.heights <= stats.mu + stats.tau
    )
    if int(keep.sum()) < 3:
        raise DegenerateProfileError(
            f"only {int(keep.sum())} profile entries inside mu +/- tau"
        )
    return Profile(cols=profile.cols[keep], heights=profile.heights[keep])


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


def estimate_region_skew(region):
    """bottom_profile -> stats -> filter -> estimate, in one call."""
    profile = bottom_profile(region)
    stats = profile_stats(profile)
    return estimate_skew(filter_profile(profile, stats))


def background_fill(region):
    """Mean intensity of the light (non-dark) pixels, used as rotation fill."""
    vmin, vmax = int(region.min()), int(region.max())
    light = region[region >= (vmin + vmax) / 2.0]
    return int(round(float(light.mean())))


CONVERGENCE_DEG = 0.05


def deskew(region, cfg):
    """Rotate the region upright.  Returns (corrected image, estimated angle).

    The three-anchor estimator underestimates large angles (the mu +/- tau
    band flattens steep profiles), so the estimate is refined by re-running
    it on the provisionally corrected region, up to cfg.skew_passes times.
    The returned image is always a single rotation of the original by the
    total.

    Degenerate regions (no dark pixels, too-flat profiles, estimates beyond
    cfg.skew_clamp degrees) pass through unchanged with angle 0.
    """
    fill = None
    total = 0.0
    corrected = region  # corrected at the current total
    for _ in range(cfg.skew_passes):
        try:
            angle = estimate_region_skew(corrected)
        except (NoTextError, DegenerateProfileError) as exc:
            log.debug("skew estimation degenerate, stopping at %.2f: %s", total, exc)
            break
        if abs(total + angle) > cfg.skew_clamp:
            log.debug(
                "skew estimate %.2f beyond +/-%.1f clamp, stopping at %.2f",
                angle, cfg.skew_clamp, total,
            )
            break
        if total + angle == total:
            break  # the same total again: the same rotation, and converged
        total += angle
        if total == 0.0:
            corrected = region
        else:
            if fill is None:
                fill = background_fill(region)
            corrected = imaging.rotate(region, -total, fill=fill)
        if abs(angle) < CONVERGENCE_DEG:
            break
    return corrected, total  # a zero total leaves `corrected` the region itself


def format_profile_dump(profile, retained_cols, stats, angle):
    """Debug dump: one 'col height retained' row per column plus a trailer."""
    retained = set(int(c) for c in retained_cols)
    lines = [
        "%d %d %d" % (int(c), int(h), 1 if int(c) in retained else 0)
        for c, h in zip(profile.cols, profile.heights)
    ]
    lines.append("%.4f %.4f %.4f" % (stats.mu, stats.tau, angle))
    return "\n".join(lines) + "\n"
