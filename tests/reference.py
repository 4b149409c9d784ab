"""Reference implementations that only tests use: plain, slow definitions
that the acceptance criteria and unit tests check the package against.
"""

import math
import statistics

import numpy as np

from cardocr.evaluate import EvalCounts
from cardocr.imaging import MAX_ROTATION_DEG, PnmError, _parse_header_tokens
from cardocr.recognize import PATTERN_SIZE
from cardocr.regions import NR, TR


def dissimilarity(a, b):
    """Cell-wise absolute difference count (Hamming distance)."""
    if a.shape != (PATTERN_SIZE, PATTERN_SIZE) or b.shape != (PATTERN_SIZE, PATTERN_SIZE):
        raise ValueError("patterns must be 48x48")
    return int(np.count_nonzero(a != b))


def nearest_templates(patterns, store):
    """(label, distance) per pattern of its nearest template by a full scan,
    ties to store order, one pattern at a time."""
    templates = store.patterns()
    found = []
    for p in patterns:
        dists = np.count_nonzero(p != templates, axis=(1, 2))
        best = int(dists.argmin())
        found.append((store.labels[best], int(dists[best])))
    return found


def resample_48(tight):
    """Nearest-neighbor (anisotropic) resample of a tight crop to 48x48,
    one crop at a time."""
    h, w = tight.shape
    yy = (np.arange(PATTERN_SIZE) * h) // PATTERN_SIZE
    xx = (np.arange(PATTERN_SIZE) * w) // PATTERN_SIZE
    return tight[np.ix_(yy, xx)]


def segment_glyphs(line, word_gap_factor):
    """(x1, x2, top, bottom, word, char) per glyph of a bool line, one glyph
    at a time: column spans with foreground, then the gaps between them, a
    word break at each gap of at least word_gap_factor times their median,
    then each span's first and last row with foreground."""
    spans, start = [], None
    for x, ink in enumerate(line.any(axis=0).tolist() + [False]):
        if ink and start is None:
            start = x
        elif not ink and start is not None:
            spans.append((start, x - 1))
            start = None
    gaps = [spans[i + 1][0] - spans[i][1] - 1 for i in range(len(spans) - 1)]
    glyphs, word, char = [], 0, 0
    for i, (x1, x2) in enumerate(spans):
        if i and gaps[i - 1] >= word_gap_factor * statistics.median(gaps):
            word, char = word + 1, 0
        rows = np.flatnonzero(line[:, x1 : x2 + 1].any(axis=1))
        glyphs.append((x1, x2, int(rows[0]), int(rows[-1]), word, char))
        char += 1
    return glyphs


def merge_thin_bands(bands, r_min):
    """Line bands as (top, bottom) tuples after merging, by list surgery,
    each band thinner than r_min times the median height: the thinnest
    first (the first of equals), across the narrower adjacent gap (upward
    on equal gaps), until none is thinner."""
    bands = list(bands)
    while len(bands) > 1:
        heights = [bottom - top + 1 for top, bottom in bands]
        median = statistics.median(heights)
        bad = [i for i, h in enumerate(heights) if h < r_min * median]
        if not bad:
            break
        i = min(bad, key=lambda k: heights[k])
        if i == 0:
            j = 1
        elif i == len(bands) - 1:
            j = i - 1
        else:
            gap_prev = bands[i][0] - bands[i - 1][1] - 1
            gap_next = bands[i + 1][0] - bands[i][1] - 1
            j = i - 1 if gap_prev <= gap_next else i + 1
        lo, hi = min(i, j), max(i, j)
        bands[lo : hi + 1] = [(bands[lo][0], bands[hi][1])]
    return bands


def _pair_angle(col_a, h_a, col_b, h_b):
    return math.degrees(math.atan((h_b - h_a) / (col_b - col_a)))


def three_anchor_skew(cols, heights):
    """Skew in degrees of a profile with strictly increasing columns, one
    anchor at a time: the end columns and the first column nearest their
    midpoint, and the mean of the anchors' three pairwise angles."""
    cols, heights = [int(c) for c in cols], [float(h) for h in heights]
    c1, h1, c2, h2 = cols[0], heights[0], cols[-1], heights[-1]
    mid = (c1 + c2) / 2.0
    i3 = min(range(len(cols)), key=lambda i: abs(cols[i] - mid))
    c3, h3 = cols[i3], heights[i3]
    if len({c1, c2, c3}) != 3:
        raise ValueError("anchor columns are not pairwise distinct")
    return (
        _pair_angle(c1, h1, c3, h3)
        + _pair_angle(c3, h3, c2, h2)
        + _pair_angle(c1, h1, c2, h2)
    ) / 3.0


def classify_region(row, cfg):
    """TR iff every geometric gate of the PipelineConfig passes, NR
    otherwise, for one region's scalar features (a dict keyed by the
    Regions column names)."""
    ok = (
        row["area"] >= cfg.min_area_blocks
        and cfg.ar_min <= row["aspect_ratio"] <= cfg.ar_max
        and cfg.dens_min <= row["info_pixel_density"] <= cfg.dens_max
        and row["coverage_ratio"] >= cfg.cov_min
    )
    return TR if ok else NR


def region_dump(rows):
    """The region dump of regions given one at a time, each a dict keyed by
    the Regions column names."""
    return "".join(
        "%d %d %d %d %s %d %.4f %.4f %.4f\n"
        % (r["x"], r["y"], r["w"], r["h"], TR if r["text"] else NR, r["area"],
           r["aspect_ratio"], r["info_pixel_density"], r["coverage_ratio"])
        for r in rows
    )


def truth_region_rows(truth):
    """The rows of a card's truth region dump, one truth region at a time:
    its box and kind, then the 16-pixel blocks the box spans, its aspect
    ratio, the ink share of the box and 1."""
    rows = []
    for region in truth.regions:
        r = region.bbox
        window = truth.mask[r.y : r.y2, r.x : r.x2]
        rows.append(dict(
            x=r.x, y=r.y, w=r.w, h=r.h, text=region.kind == TR,
            area=-(-r.w // 16) * (-(-r.h // 16)),
            aspect_ratio=r.w / r.h,
            info_pixel_density=float(window.mean()) if window.size else 0.0,
            coverage_ratio=1.0,
        ))
    return rows


def char_accuracy(predicted, truth, scheme):
    """Percent of aligned positions whose scheme-mapped labels agree."""
    if len(predicted) != len(truth):
        raise ValueError(
            f"length mismatch: {len(predicted)} predicted vs {len(truth)} truth"
        )
    if not truth:
        raise ValueError("empty sequences")
    correct = sum(
        1 for p, t in zip(predicted, truth) if scheme.apply(p) == scheme.apply(t)
    )
    return 100.0 * correct / len(truth)


def pixel_eval(predicted, truth):
    """Per-pixel confusion counts; foreground (True) is the positive class."""
    if predicted.shape != truth.shape:
        raise ValueError(
            f"dimension mismatch: {predicted.shape} vs {truth.shape}"
        )
    tp = int(np.count_nonzero(predicted & truth))
    fp = int(np.count_nonzero(predicted & ~truth))
    fn = int(np.count_nonzero(~predicted & truth))
    return EvalCounts(tp=tp, fp=fp, fn=fn)


def resample_mask(mask, fy, fx=None):
    """Nearest-neighbor rescale of a bool mask by (fy, fx) factors."""
    if fx is None:
        fx = fy
    h, w = mask.shape
    nh = max(1, int(round(h * fy)))
    nw = max(1, int(round(w * fx)))
    yy = np.minimum((np.arange(nh) * h) // nh, h - 1)
    xx = np.minimum((np.arange(nw) * w) // nw, w - 1)
    return mask[np.ix_(yy, xx)]


def _pnm_pixels(data):
    """View the pixels of binary PGM/PPM bytes in place: the whole file in
    memory, a color image for a PPM."""
    magic = bytes(data[:2])
    if magic == b"P5":
        channels = 1
    elif magic == b"P6":
        channels = 3
    else:
        raise PnmError(f"malformed header: unsupported magic {magic!r}")
    tokens, offset = _parse_header_tokens(data, 3)
    try:
        width, height, maxval = (int(t) for t in tokens)
    except ValueError:
        raise PnmError(f"malformed header: non-numeric fields {tokens!r}") from None
    if width < 1 or height < 1:
        raise PnmError(f"malformed header: bad dimensions {width}x{height}")
    if maxval != 255:
        raise PnmError(f"unsupported maxval {maxval} (only 255 is handled)")
    expected = width * height * channels
    available = len(data) - offset
    if available < expected:
        raise PnmError(f"truncated payload: expected {expected} bytes, got {available}")
    arr = np.frombuffer(data, dtype=np.uint8, count=expected, offset=offset)
    if channels == 1:
        return arr.reshape(height, width)
    return arr.reshape(height, width, 3)


def load_pnm(data):
    """Decode binary PGM/PPM bytes into a gray or color array."""
    return _pnm_pixels(data).copy()


def rotate(img, angle_deg, fill=255):
    """Bilinear rotation of the whole canvas at once: every output pixel's
    coordinates, taps and blend in one set of full-frame arrays, with the
    blend clipped to 0..255 at the end.  For a fill in 0..255
    `imaging.rotate`, which resamples row strips and has no clip, must
    match it byte for byte."""
    if abs(angle_deg) > MAX_ROTATION_DEG:
        raise ValueError(f"rotation angle {angle_deg} outside +/-{MAX_ROTATION_DEG}")
    if img.ndim != 2:
        raise ValueError("rotate expects a gray image of shape (h, w)")
    h, w = img.shape
    theta = math.radians(angle_deg)
    c, s = math.cos(theta), math.sin(theta)
    # Grow the canvas symmetrically so the source center stays on the same
    # pixel parity; a rotate/unrotate pair then maps the original footprint
    # back onto exact integer positions.
    pad_x = max(0, int(math.ceil((w * abs(c) + h * abs(s) - w) / 2 - 1e-9)))
    pad_y = max(0, int(math.ceil((w * abs(s) + h * abs(c) - h) / 2 - 1e-9)))
    out_w = w + 2 * pad_x
    out_h = h + 2 * pad_y

    # Pad the source with one ring of fill so bilinear taps that straddle the
    # border blend into fill and far-outside taps clamp onto pure fill.
    padded = np.full((h + 2, w + 2), fill, dtype=np.float32)
    padded[1:-1, 1:-1] = img

    cx_d, cy_d = (out_w - 1) / 2.0, (out_h - 1) / 2.0
    cx_s, cy_s = (w - 1) / 2.0, (h - 1) / 2.0
    dx = np.arange(out_w, dtype=np.float32) - np.float32(cx_d)
    dy = (np.arange(out_h, dtype=np.float32) - np.float32(cy_d))[:, None]
    # Inverse of a counter-clockwise rotation in y-down pixel coordinates.
    xs = np.float32(cx_s) + dx * np.float32(c) - dy * np.float32(s)
    ys = np.float32(cy_s) + dx * np.float32(s) + dy * np.float32(c)

    xs += 1.0  # shift into padded coordinates
    ys += 1.0
    np.clip(xs, 0.0, w + 1 - 1e-4, out=xs)
    np.clip(ys, 0.0, h + 1 - 1e-4, out=ys)
    x0 = xs.astype(np.int32)
    y0 = ys.astype(np.int32)
    fx = xs - x0
    fy = ys - y0

    # Gather the four taps through one flat index array stepped in place,
    # cheaper than 2-D fancy indexing, then blend in place.  fx and fy are
    # float64, so this is top = p00 + (p01 - p00) * fx, bot likewise, and
    # top + (bot - top) * fy, all in float64.
    flat = padded.ravel()
    idx = y0.astype(np.intp)
    idx *= w + 2
    idx += x0
    p00 = flat.take(idx)
    idx += 1
    p01 = flat.take(idx)
    idx += w + 1
    p10 = flat.take(idx)
    idx += 1
    p11 = flat.take(idx)
    p01 -= p00
    top = p01 * fx
    top += p00
    p11 -= p10
    out = p11 * fx
    out += p10
    out -= top
    out *= fy
    out += top
    np.rint(out, out=out)
    np.clip(out, 0, 255, out=out)
    return out.astype(np.uint8)
