"""Reference implementations that only tests use: plain, slow definitions
that the acceptance criteria and unit tests check the package against.
"""

import math
import statistics

import numpy as np

from cardocr import imaging, regions
from cardocr.evaluate import EvalCounts
from cardocr.imaging import HEADER_TOKEN_BYTES, MAX_ROTATION_DEG, ROTATE_FRAC_BITS, PnmError
from cardocr.recognize import PATTERN_SIZE
from cardocr.regions import NR, TR
from cardocr.synth import apply_noise


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


def zone_counts(patterns):
    """(n, 9) set-pixel counts of the 3x3 grid of 16x16 zones of an
    (n, 48, 48) bool stack, zones in raster order, one zone at a time."""
    return np.array([[int(np.count_nonzero(p[16 * zr : 16 * zr + 16, 16 * zc : 16 * zc + 16]))
                      for zr in range(3) for zc in range(3)] for p in patterns])


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


def projection_energy(dark, angle_deg):
    """Energy of the horizontal projection profile of a bool mask at
    `angle_deg`, one dark pixel at a time: each dark pixel at (row, col) is
    counted in bin row + floor(col tan a + 0.5), and the energy is the sum
    of the squared bin counts.  The tangent is taken as skew takes it, of an
    array of angles."""
    rows, cols = np.nonzero(dark)
    if len(rows) == 0:
        return 0
    tan = np.tan(np.radians(np.array([angle_deg], dtype=np.float64)))[0]
    bins = rows + np.floor(cols * tan + 0.5).astype(np.int64)
    counts = np.bincount(bins - bins.min()).astype(np.int64)
    return int((counts * counts).sum())


def shape_gate(row):
    """True iff the gates that read no pixel, area, aspect ratio and
    coverage, pass on one region's scalar features (a dict keyed by the
    Regions column names), by the regions module's constants."""
    return (
        row["area"] >= regions.MIN_AREA_BLOCKS
        and regions.AR_MIN <= row["aspect_ratio"] <= regions.AR_MAX
        and row["coverage_ratio"] >= regions.COV_MIN
    )


def classify_region(row):
    """TR iff every geometric gate of the regions module's constants
    passes, NR otherwise, for one region's scalar features (a dict keyed by
    the Regions column names)."""
    ok = shape_gate(row) and regions.DENS_MIN <= row["info_pixel_density"] <= regions.DENS_MAX
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


def rotate_mask(mask, angle_deg):
    """Rotate a bool mask via the gray-image path and re-threshold."""
    if angle_deg == 0.0:
        return mask
    gray = np.where(mask, 0, 255).astype(np.uint8)
    rotated = imaging.rotate(gray, angle_deg, fill=255)
    return rotated < imaging.midpoint(0, 255)


def noisy(render, sigma, seed):
    """A rendered region's image with Gaussian noise of `sigma` drawn from
    `seed`."""
    return apply_noise(render.image, np.random.default_rng(seed), sigma)


def to_gray(rgb):
    """The gray image of an RGB array by the integer rule
    (299r + 587g + 114b + 500) // 1000, which the loader's float32 kernel
    imaging.to_grayscale must match exactly."""
    r, g, b = (rgb[..., k].astype(np.int64) for k in range(3))
    return ((299 * r + 587 * g + 114 * b + 500) // 1000).astype(np.uint8)


_PNM_SPACE = frozenset(b" \t\n\r\v\f")  # the bytes bytes.isspace accepts


def _parse_header_tokens(data, count):
    """Read `count` whitespace-separated tokens after the magic of the
    whole file's bytes `data`, by index, honoring '#' comments.  Returns
    (tokens, offset of the payload).  A token is refused where it passes
    HEADER_TOKEN_BYTES; the other two errors are raised only where the
    tokens run into the end of `data`."""
    tokens = []
    i = 2  # past the two magic bytes
    n = len(data)
    while len(tokens) < count:
        while i < n and data[i] in _PNM_SPACE:
            i += 1
        if i < n and data[i] == ord("#"):
            while i < n and data[i] != ord("\n"):
                i += 1
            continue
        start = i
        while i < n and data[i] not in _PNM_SPACE:
            i += 1
            if i - start > HEADER_TOKEN_BYTES:
                field = ("width", "height", "maxval")[len(tokens)]
                raise PnmError(
                    f"malformed header: {field} longer than {HEADER_TOKEN_BYTES} bytes")
        if i == start:
            raise PnmError("malformed header: ran out of data while reading dimensions")
        tokens.append(data[start:i])
    if i >= n:
        raise PnmError("malformed header: missing payload")
    i += 1  # single whitespace byte after maxval
    return tokens, i


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


def _canvas(img, angle_deg):
    """cos, sin and the canvas (out_h, out_w) of rotating `img`, checked."""
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
    return c, s, h + 2 * pad_y, w + 2 * pad_x


def rotate_points(shape, angle_deg, rows, cols):
    """Where imaging.rotate(img, angle_deg) puts the centres of the pixels
    at (rows, cols) of an image of `shape`: the forward map of the geometry
    rotate inverts.  Returns ((out_h, out_w), rows, cols), the mapped
    coordinates as float64 arrays; angle 0 maps every pixel onto itself."""
    h, w = shape
    c, s, out_h, out_w = _canvas(np.zeros(shape, np.uint8), angle_deg)
    u = cols - (w - 1) / 2.0
    v = rows - (h - 1) / 2.0
    out_cols = (out_w - 1) / 2.0 + c * u + s * v
    out_rows = (out_h - 1) / 2.0 - s * u + c * v
    return (out_h, out_w), out_rows, out_cols


def fixed_rotate(img, angle_deg, fill=255):
    """Fixed-point bilinear rotation of the whole canvas at once, in int64:
    every output pixel's source coordinates in units of 2**-b px (b =
    imaging.ROTATE_FRAC_BITS), each a per-column and a per-row term rounded
    from float64, clipped into a one-pixel ring of fill; its four taps by
    2-D indexing, weighted by (2**b - fx)(2**b - fy), fx (2**b - fy),
    (2**b - fx) fy and fx fy; and their sum rounded half up.
    `imaging.rotate`, which gathers packed taps in row strips and blends in
    int32, must match it byte for byte."""
    c, s, out_h, out_w = _canvas(img, angle_deg)
    h, w = img.shape
    one = 1 << ROTATE_FRAC_BITS
    padded = np.full((h + 2, w + 2), fill, dtype=np.int64)
    padded[1:-1, 1:-1] = img
    dx = np.arange(out_w) - (out_w - 1) / 2.0
    dy = (np.arange(out_h) - (out_h - 1) / 2.0)[:, None]

    def fixed(v):
        return np.rint(v * one).astype(np.int64)

    # padded source x = cx + 1 + dx c - dy s and y = cy + 1 + dx s + dy c
    xs = fixed((w - 1) / 2.0 + 1 + dx * c) - fixed(dy * s)
    ys = fixed((h - 1) / 2.0 + 1 + dx * s) + fixed(dy * c)
    x0, fx = np.divmod(np.clip(xs, 0, (w + 1) * one - 1), one)
    y0, fy = np.divmod(np.clip(ys, 0, (h + 1) * one - 1), one)
    total = (padded[y0, x0] * (one - fx) * (one - fy)
             + padded[y0, x0 + 1] * fx * (one - fy)
             + padded[y0 + 1, x0] * (one - fx) * fy
             + padded[y0 + 1, x0 + 1] * fx * fy)
    return ((total + one * one // 2) // (one * one)).astype(np.uint8)
