"""Image primitives shared by every pipeline stage.

Images are numpy arrays, row-major, origin at the top-left, x = column and
y = row:

* color image -- uint8 array of shape (height, width, 3), RGB order
* gray image  -- uint8 array of shape (height, width)
* binary image -- bool array of shape (height, width), True = foreground

File I/O is limited to binary PGM ("P5") and PPM ("P6") with maxval 255,
which round-trip bit-exactly without any third-party decoder.
"""

import math
import os
from dataclasses import dataclass

import numpy as np

MAX_ROTATION_DEG = 45.0


class PnmError(ValueError):
    """Raised for malformed, truncated or unsupported PNM data."""


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle: x/y is the top-left corner, w/h the size."""

    x: int
    y: int
    w: int
    h: int

    def __post_init__(self):
        if self.w < 1 or self.h < 1:
            raise ValueError(f"rectangle must have positive size, got {self.w}x{self.h}")

    @property
    def x2(self):
        """One past the rightmost column."""
        return self.x + self.w

    @property
    def y2(self):
        """One past the bottom row."""
        return self.y + self.h


def is_color(img):
    return img.ndim == 3


def midpoint(lo, hi):
    """The dark threshold of gray extremes lo <= hi: an integer pixel p is
    below (lo + hi) / 2 exactly when p < midpoint(lo, hi).  Works
    element-wise on integer arrays; a constant lo == hi gives lo itself,
    so nothing is below it."""
    return (lo + hi + 1) >> 1


def dark_mask(gray):
    """Pixels below the midpoint of the image's own min and max."""
    return gray < midpoint(int(gray.min()), int(gray.max()))


# Bytes of the float32 temporaries of one grayscale strip: the strip's
# three channels (12 bytes a pixel) and their weighted sum (4 bytes a
# pixel), however large the image.
GRAY_STRIP_BYTES = 1 << 19
_GRAY_WEIGHTS = np.array([299, 587, 114], dtype=np.float32)


def to_grayscale(img):
    """Convert an RGB image to gray with the 0.299/0.587/0.114 weighting.

    Computes (299r + 587g + 114b + 500) // 1000, i.e. rounding half up, so
    (v, v, v) maps to exactly v.  The weighted sum is an integer below 2**24,
    so float32 holds it exactly; float32(1/1000) lies just above 1/1000, so
    the product truncates to the same integer as the floor division.  The
    image is processed in row strips through one preallocated float32
    buffer into one preallocated output.
    """
    if img.ndim != 3 or img.shape[2] != 3:
        raise ValueError(f"expected an RGB array of shape (h, w, 3), got {img.shape}")
    h, w = img.shape[:2]
    out = np.empty((h, w), dtype=np.uint8)
    if out.size == 0:
        return out
    rows = min(h, max(1, GRAY_STRIP_BYTES // (16 * w)))
    buf = np.empty((rows, w, 3), dtype=np.float32)
    acc = np.empty((rows, w), dtype=np.float32)
    for y in range(0, h, rows):
        strip = img[y : y + rows]
        chans, total = buf[: len(strip)], acc[: len(strip)]
        np.copyto(chans, strip, casting="unsafe")
        np.matmul(chans, _GRAY_WEIGHTS, out=total)
        total += 500
        total *= np.float32(1 / 1000)
        np.copyto(out[y : y + rows], total, casting="unsafe")
    return out


_PNM_SPACE = frozenset(b" \t\n\r\v\f")  # the bytes bytes.isspace accepts


def _parse_header_tokens(data, count):
    """Read `count` whitespace-separated tokens after the magic, honoring
    '#' comments.  Returns (tokens, offset of the payload)."""
    data = memoryview(data)  # indexes to ints, not to numpy scalars
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
        if i == start:
            raise PnmError("malformed header: ran out of data while reading dimensions")
        tokens.append(bytes(data[start:i]))
    if i >= n:
        raise PnmError("malformed header: missing payload")
    i += 1  # single whitespace byte after maxval
    return tokens, i


def _pnm_pixels(data):
    """View the pixels of binary PGM/PPM data (bytes or a uint8 array) in place."""
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
    # read the payload in place: slicing `data` would copy it once more
    arr = np.frombuffer(data, dtype=np.uint8, count=expected, offset=offset)
    if channels == 1:
        return arr.reshape(height, width)
    return arr.reshape(height, width, 3)


def save_pnm(img):
    """Encode a gray, color or binary array as binary PGM/PPM bytes.

    Binary images are written as PGM with foreground = 0, background = 255.
    """
    if img.dtype == bool:
        img = np.where(img, 0, 255).astype(np.uint8)
    if img.dtype != np.uint8:
        raise ValueError(f"expected uint8 or bool pixels, got {img.dtype}")
    if img.ndim == 2:
        magic = b"P5"
    elif img.ndim == 3 and img.shape[2] == 3:
        magic = b"P6"
    else:
        raise ValueError(f"unsupported image shape {img.shape}")
    h, w = img.shape[:2]
    header = magic + b"\n%d %d\n255\n" % (w, h)
    return header + img.tobytes()


def load_pnm_file(path):
    """Decode a PGM/PPM file.  The pixels are a writable view of the file's
    bytes, read into an unfilled buffer, so the image is held in memory once
    and written once."""
    with open(path, "rb") as fh:
        data = np.empty(os.fstat(fh.fileno()).st_size, dtype=np.uint8)
        data = data[: fh.readinto(data)]
    return _pnm_pixels(data)


def save_pnm_file(path, img):
    with open(path, "wb") as fh:
        fh.write(save_pnm(img))


def _rotation_frame(h, w, angle_deg):
    """cos, sin and the canvas (out_h, out_w) of rotating an h x w image."""
    theta = math.radians(angle_deg)
    c, s = math.cos(theta), math.sin(theta)
    # Grow the canvas symmetrically so the source center stays on the same
    # pixel parity; a rotate/unrotate pair then maps the original footprint
    # back onto exact integer positions.
    pad_x = max(0, int(math.ceil((w * abs(c) + h * abs(s) - w) / 2 - 1e-9)))
    pad_y = max(0, int(math.ceil((w * abs(s) + h * abs(c) - h) / 2 - 1e-9)))
    return c, s, h + 2 * pad_y, w + 2 * pad_x


def rotate_points(shape, angle_deg, rows, cols):
    """Where rotate(img, angle_deg) puts the centres of the pixels at
    (rows, cols) of an image of `shape`: the forward map of the geometry
    rotate inverts.  Returns ((out_h, out_w), rows, cols), the mapped
    coordinates as float64 arrays; angle 0 maps every pixel onto itself."""
    h, w = shape
    c, s, out_h, out_w = _rotation_frame(h, w, angle_deg)
    u = cols - (w - 1) / 2.0
    v = rows - (h - 1) / 2.0
    out_cols = (out_w - 1) / 2.0 + c * u + s * v
    out_rows = (out_h - 1) / 2.0 - s * u + c * v
    return (out_h, out_w), out_rows, out_cols


def rotate(img, angle_deg, fill=255):
    """Rotate a gray image by `angle_deg` counter-clockwise (as displayed).

    The canvas grows to hold the rotated bounding box.  Resampling is
    inverse-mapped bilinear; destination pixels that fall outside the source
    take the fill intensity, which must lie in 0..255.  Angles beyond +/-45
    degrees are rejected.
    """
    if abs(angle_deg) > MAX_ROTATION_DEG:
        raise ValueError(f"rotation angle {angle_deg} outside +/-{MAX_ROTATION_DEG}")
    if img.ndim != 2:
        raise ValueError("rotate expects a gray image of shape (h, w)")
    if not 0 <= fill <= 255:
        raise ValueError(f"fill intensity {fill} outside 0..255")
    h, w = img.shape
    c, s, out_h, out_w = _rotation_frame(h, w, angle_deg)

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
    # top + (bot - top) * fy, all in float64.  The taps are exact and
    # rounding is monotone, so each blend stays between its two ends: the
    # result lies in 0..255 without a clip.
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
    return out.astype(np.uint8)
