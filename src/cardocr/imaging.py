"""Image primitives shared by every pipeline stage.

Images are numpy arrays, row-major, origin at the top-left, x = column and
y = row:

* color image -- uint8 array of shape (height, width, 3), RGB order
* gray image  -- uint8 array of shape (height, width)
* binary image -- bool array of shape (height, width), True = foreground

File I/O is limited to binary PGM ("P5") and PPM ("P6") with maxval 255,
written bit-exactly without any third-party codec.  A file loads as a gray
image: a PPM is converted to gray strip by strip as it is read, so its
color image is never held whole.
"""

import math
import os
from dataclasses import dataclass

import numpy as np

MAX_ROTATION_DEG = 45.0
# Output pixels of one rotate strip.  Its temporaries take 72 bytes a pixel;
# strips of 4096 pixels rotated the criterion-9 card's crops a third slower.
ROTATE_STRIP_PX = 1 << 14


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


def _gray_rows(w):
    """Rows of one grayscale strip of an image `w` pixels wide."""
    return max(1, GRAY_STRIP_BYTES // (16 * w))


def _gray_strips(strips, h, w):
    """The (h, w) gray image of `strips`, an iterable of consecutive RGB
    row strips of at most _gray_rows(w) rows, through one preallocated
    float32 buffer into one preallocated output."""
    out = np.empty((h, w), dtype=np.uint8)
    rows = min(h, _gray_rows(w))
    buf = np.empty((rows, w, 3), dtype=np.float32)
    acc = np.empty((rows, w), dtype=np.float32)
    y = 0
    for strip in strips:
        chans, total = buf[: len(strip)], acc[: len(strip)]
        np.copyto(chans, strip, casting="unsafe")
        np.matmul(chans, _GRAY_WEIGHTS, out=total)
        total += 500
        total *= np.float32(1 / 1000)
        np.copyto(out[y : y + len(strip)], total, casting="unsafe")
        y += len(strip)
    return out


def to_grayscale(img):
    """Convert an RGB image to gray with the 0.299/0.587/0.114 weighting.

    Computes (299r + 587g + 114b + 500) // 1000, i.e. rounding half up, so
    (v, v, v) maps to exactly v.  The weighted sum is an integer below 2**24,
    so float32 holds it exactly; float32(1/1000) lies just above 1/1000, so
    the product truncates to the same integer as the floor division.  The
    image is processed in row strips, as load_pnm_file converts a PPM.
    """
    if img.ndim != 3 or img.shape[2] != 3:
        raise ValueError(f"expected an RGB array of shape (h, w, 3), got {img.shape}")
    h, w = img.shape[:2]
    if h == 0 or w == 0:
        return np.empty((h, w), dtype=np.uint8)
    rows = _gray_rows(w)
    return _gray_strips((img[y : y + rows] for y in range(0, h, rows)), h, w)


_PNM_SPACE = frozenset(b" \t\n\r\v\f")  # the bytes bytes.isspace accepts
# Bytes of a PNM file read for its header at first; a longer header (a long
# comment) is read in doubling steps.
HEADER_READ_BYTES = 1 << 8


def _parse_header_tokens(data, count):
    """Read `count` whitespace-separated tokens after the magic, honoring
    '#' comments.  Returns (tokens, offset of the payload).  Both errors
    are raised only where the tokens run into the end of `data`."""
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
        tokens.append(data[start:i])
    if i >= n:
        raise PnmError("malformed header: missing payload")
    i += 1  # single whitespace byte after maxval
    return tokens, i


def _read_header(fh):
    """Parse the header at the start of the open file `fh` and leave it at
    the first payload byte.  Returns (height, width, channels)."""
    head = fh.read(HEADER_READ_BYTES)
    magic = head[:2]
    if magic == b"P5":
        channels = 1
    elif magic == b"P6":
        channels = 3
    else:
        raise PnmError(f"malformed header: unsupported magic {magic!r}")
    while True:
        try:
            tokens, offset = _parse_header_tokens(head, 3)
            break
        except PnmError:
            more = fh.read(len(head))  # the header may go on past `head`
            if not more:
                raise
            head += more
    try:
        width, height, maxval = (int(t) for t in tokens)
    except ValueError:
        raise PnmError(f"malformed header: non-numeric fields {tokens!r}") from None
    if width < 1 or height < 1:
        raise PnmError(f"malformed header: bad dimensions {width}x{height}")
    if maxval != 255:
        raise PnmError(f"unsupported maxval {maxval} (only 255 is handled)")
    fh.seek(offset)
    return height, width, channels


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
    """Decode a PGM/PPM file to a gray image.  A PGM payload is read
    straight into the image.  A PPM payload is read in row strips into one
    strip buffer and converted to gray strip by strip, as to_grayscale
    does, so the color image is never held whole.  The payload's length is
    checked against the file's size before any pixel buffer is allocated;
    each read is checked too, in case the file shrinks while it is read."""
    with open(path, "rb") as fh:
        h, w, channels = _read_header(fh)
        expected = h * w * channels
        available = os.fstat(fh.fileno()).st_size - fh.tell()
        if available < expected:
            raise PnmError(f"truncated payload: expected {expected} bytes, got {available}")

        def read(buf, done):
            got = fh.readinto(buf)
            if got < buf.nbytes:
                raise PnmError(f"truncated payload: expected {expected} bytes, got {done + got}")
            return buf

        if channels == 1:
            return read(np.empty((h, w), dtype=np.uint8), 0)
        rows = _gray_rows(w)
        strip = np.empty((min(h, rows), w, 3), dtype=np.uint8)
        return _gray_strips(
            (read(strip[: h - y], y * w * 3) for y in range(0, h, rows)), h, w)


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
    degrees are rejected.  The canvas is resampled in row strips of about
    ROTATE_STRIP_PX pixels, so the temporaries are sized by the strip.
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
    flat = padded.ravel()

    cx_d, cy_d = (out_w - 1) / 2.0, (out_h - 1) / 2.0
    cx_s, cy_s = (w - 1) / 2.0, (h - 1) / 2.0
    dx = np.arange(out_w, dtype=np.float32) - np.float32(cx_d)
    dy = (np.arange(out_h, dtype=np.float32) - np.float32(cy_d))[:, None]
    # Inverse of a counter-clockwise rotation in y-down pixel coordinates:
    # source x = cx_s + dx c - dy s and y = cy_s + dx s + dy c, all float32,
    # from a per-column and a per-row term each.
    x_col = np.float32(cx_s) + dx * np.float32(c)
    y_col = np.float32(cy_s) + dx * np.float32(s)
    x_row, y_row = dy * np.float32(s), dy * np.float32(c)

    out = np.empty((out_h, out_w), dtype=np.uint8)
    rows = max(1, ROTATE_STRIP_PX // out_w)
    for y in range(0, out_h, rows):
        xs = x_col - x_row[y : y + rows]
        ys = y_col + y_row[y : y + rows]
        xs += 1.0  # shift into padded coordinates
        ys += 1.0
        np.clip(xs, 0.0, w + 1 - 1e-4, out=xs)
        np.clip(ys, 0.0, h + 1 - 1e-4, out=ys)
        x0 = xs.astype(np.int32)
        y0 = ys.astype(np.int32)
        fx = xs - x0
        fy = ys - y0

        # Gather the four taps through one flat index array stepped in
        # place, cheaper than 2-D fancy indexing, then blend in place.  fx
        # and fy are float64, so this is top = p00 + (p01 - p00) * fx, bot
        # likewise, and top + (bot - top) * fy, all in float64.  The taps
        # are exact and rounding is monotone, so each blend stays between
        # its two ends: the result lies in 0..255 without a clip.
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
        blend = p11 * fx
        blend += p10
        blend -= top
        blend *= fy
        blend += top
        np.rint(blend, out=blend)
        np.copyto(out[y : y + rows], blend, casting="unsafe")
    return out
