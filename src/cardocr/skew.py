"""Skew estimation and correction for text regions.

The angle is the one whose horizontal projection profile of the crop's
dark pixels has the largest energy, the sum of its squared bin counts
(Postl's criterion; Bloomberg, Kopec and Dasari use the same measure).  At
angle a a dark pixel at (row, col) falls in bin row + floor(col tan a +
0.5), with uncentred columns.

No projection touches a pixel.  Because |tan a| < 1, the columns fall into
runs that share one offset, and the profile is each run's per-row dark
count shifted by that offset.  One cumulative count over the transposed
dark mask (column_sums) makes a run's counts the difference of two of its
rows, and one bincount projects every run of every angle of a search
stage.  The search is a coarse stage around the region's moment angle and
a fine stage around the coarse best; a region that reads exactly 0 degrees
is not rotated.
"""

import math

import numpy as np

from . import imaging

SKEW_CLAMP = 20.0  # degrees; the search never leaves +/- this range
COARSE_STEP = 0.5  # degrees between the angles of the coarse stage
COARSE_HALF_WIDTH = 3.0  # degrees either side of the moment angle
FINE_STEP = 0.05  # degrees between the angles of the fine stage
FINE_HALF_WIDTH = 0.5  # degrees either side of the coarse best


def column_sums(dark):
    """The (w + 1, h) int32 cumulative dark count of an (h, w) bool mask:
    row k holds, per mask row, its dark pixels left of column k."""
    h, w = dark.shape
    cum = np.empty((w + 1, h), dtype=np.int32)
    cum[0] = 0
    # cast first: a cumsum that casts as it goes takes half as long again
    cum[1:] = dark.T
    np.cumsum(cum[1:], axis=0, out=cum[1:])
    return cum


def profile_energies(cum, angles):
    """int64 energy per angle in `angles` (degrees, |a| < 45): the sum of
    squares of the profile that counts the dark pixels at
    row + floor(col tan a + 0.5), from the column_sums of the mask.

    Each angle's columns split into runs of one offset; a run's profile is
    the difference of its end rows of `cum`, shifted by its offset, and one
    bincount adds the runs of all angles, each angle in its own span of
    bins."""
    w, h = cum.shape[0] - 1, cum.shape[1]
    offsets = np.multiply.outer(np.tan(np.radians(angles)), np.arange(w))
    offsets += 0.5
    offsets = np.floor(offsets, out=offsets).astype(np.intp)  # column 0's is 0
    starts = np.ones(offsets.shape, dtype=bool)
    np.not_equal(offsets[:, 1:], offsets[:, :-1], out=starts[:, 1:])
    first = np.flatnonzero(starts)  # (angle, column) of each run's first column
    angle, begin = np.divmod(first, w)
    end = np.append(first[1:], starts.size) - angle * w
    last = offsets[:, -1]
    span = h + int(np.abs(last).max())
    shift = angle * span + offsets.ravel()[first] - np.minimum(last, 0)[angle]
    profile = np.bincount((shift[:, None] + np.arange(h)).ravel(),
                          (cum[end] - cum[begin]).ravel(), len(offsets) * span)
    profile = profile.astype(np.int64)
    profile *= profile
    return profile.reshape(-1, span).sum(axis=1)


def moment_angle(cum):
    """Degrees of the principal axis of the dark pixels, from their second
    central moments: -atan2(2 mu11, mu20 - mu02) / 2, positive for a
    baseline rising left to right.

    Per row, the sum of its dark columns is sum_{0<j<w} (cum[w] - cum[j])
    and that of their squares sum_{0<j<w} (2j - 1)(cum[w] - cum[j]), both
    read off `cum` by one float64 product (exact: integers below 2**53)."""
    w, h = cum.shape[0] - 1, cum.shape[1]
    j = np.arange(w + 1.0)
    sums = np.stack((np.ones(w + 1), 2 * j - 1)) @ cum
    per_row = cum[-1].astype(np.float64)
    row_x = w * per_row - sums[0]
    row_x2 = w * w * per_row - sums[1]
    ys = np.arange(h, dtype=np.float64)
    n, sy, syy = (int(v) for v in (per_row.sum(), ys @ per_row, (ys * ys) @ per_row))
    sx, sxx, sxy = (int(v) for v in (row_x.sum(), row_x2.sum(), ys @ row_x))
    # n times the central moments, in exact integers
    mu20, mu02, mu11 = n * sxx - sx * sx, n * syy - sy * sy, n * sxy - sx * sy
    return -0.5 * math.degrees(math.atan2(2 * mu11, mu20 - mu02))


def estimate_region_skew(dark):
    """Skew in degrees of the dark mask of a region, positive for a
    baseline rising left to right, with the energy curve it was read from:
    (angle, angles, energies), the coarse stage's rows then the fine
    stage's.  A mask with no dark pixel reads 0.0 with an empty curve.

    Each stage tries the multiples of its step within its half width of
    the stage's centre, snapped to the grid, inside +/-SKEW_CLAMP, so 0.0
    is tried whenever the window holds it.  The coarse stage is centred on
    the moment angle (clamped), the fine one on the coarse best, and the
    angle is the fine stage's best.  Ties go to the smallest |angle|, so a
    level dark row reads exactly 0.0.
    """
    rows = np.flatnonzero(dark.any(axis=1))
    if len(rows) == 0:
        return 0.0, np.zeros(0), np.zeros(0, dtype=np.int64)
    # rows with no dark pixel only shift the bins: leave out those above and below
    cum = column_sums(dark[rows[0] : rows[-1] + 1])
    best = min(SKEW_CLAMP, max(-SKEW_CLAMP, moment_angle(cum)))
    tried, energies = [], []
    for step, half_width in ((COARSE_STEP, COARSE_HALF_WIDTH), (FINE_STEP, FINE_HALF_WIDTH)):
        mid, reach = round(best / step), round(half_width / step)
        angles = np.arange(mid - reach, mid + reach + 1) * step
        angles = angles[np.abs(angles) <= SKEW_CLAMP]
        energy = profile_energies(cum, angles)
        top = np.flatnonzero(energy == energy.max())
        best = float(angles[top[np.argmin(np.abs(angles[top]))]])
        tried.append(angles)
        energies.append(energy)
    return best, np.concatenate(tried), np.concatenate(energies)


def deskew(region):
    """Rotate the region upright.  Returns (corrected image, estimated angle).

    A region that reads exactly 0 degrees, a region with no dark pixel
    among them, is returned itself.  Otherwise it is rotated once by
    -angle, with the mean of its light pixels as the fill.
    """
    dark = imaging.dark_mask(region)
    angle = estimate_region_skew(dark)[0]
    if angle == 0.0:
        return region, angle
    # the mean of the light pixels, from exact integer sums: one correctly
    # rounded division, as their float mean makes
    light = int(region.sum()) - int(region.sum(where=dark))
    fill = round(light / (region.size - int(np.count_nonzero(dark))))
    del dark
    return imaging.rotate(region, -angle, fill=fill), angle


def format_profile_dump(region):
    """Debug dump of the region's skew search: one 'angle energy' row per
    angle tried, the coarse stage's then the fine stage's, then the chosen
    angle.  Empty when the region has no dark pixel."""
    angle, angles, energies = estimate_region_skew(imaging.dark_mask(region))
    if len(angles) == 0:
        return ""
    lines = ["%.2f %d" % row for row in zip(angles.tolist(), energies.tolist())]
    lines.append("%.2f" % angle)
    return "\n".join(lines) + "\n"
