"""Image primitives shared by every pipeline stage.

Images are numpy arrays, row-major, origin at the top-left, x = column and
y = row:

* color image -- uint8 array of shape (height, width, 3), RGB order
* gray image  -- uint8 array of shape (height, width)
* binary image -- bool array of shape (height, width), True = foreground

File I/O is limited to binary PGM ("P5") and PPM ("P6") with maxval 255,
written bit-exactly without any third-party codec.  A file's header is read
in one forward pass, a byte at a time, so a '#' comment may be any length
and the file is left at the payload.  A file loads as a gray image, the
pipeline's only input: a PPM is read strip by strip into to_grayscale's
buffers and converted as it is read, so its color image is never held
whole and its load costs the gray image plus GRAY_STRIP_BYTES.
"""

import math
import os
from dataclasses import dataclass

import numpy as np

MAX_ROTATION_DEG = 45.0
# Output pixels of one rotate strip.  Its temporaries take 24 bytes a pixel.
# Strips of 8192 or 32768 pixels moved the criterion-9 card's time by under
# 4% either way, in alternating in-process rounds.
ROTATE_STRIP_PX = 1 << 14
# Fraction bits of rotate's fixed-point coordinates and weights (OpenCV's
# INTER_BITS is 5).  Its int32 blend holds 255 * 2**(2 bits), so at most 10.
ROTATE_FRAC_BITS = 10


# Bytes a width, height or maxval token of a PNM header may hold.  A longer
# token is refused as soon as it passes this, and its bytes are not echoed.
HEADER_TOKEN_BYTES = 32


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


def midpoint(lo, hi):
    """The dark threshold of gray extremes lo <= hi: an integer pixel p is
    below (lo + hi) / 2 exactly when p < midpoint(lo, hi).  Works
    element-wise on integer arrays; a constant lo == hi gives lo itself,
    so nothing is below it."""
    return (lo + hi + 1) >> 1


def dark_mask(gray):
    """Pixels below the midpoint of the image's own min and max."""
    return gray < midpoint(int(gray.min()), int(gray.max()))


def runs(mask):
    """Maximal runs of True in a 1-D bool array as (starts, ends) int
    arrays, ends inclusive."""
    idx = np.flatnonzero(mask)
    breaks = np.flatnonzero(np.diff(idx) > 1)
    return np.concatenate((idx[:1], idx[breaks + 1])), np.concatenate((idx[breaks], idx[-1:]))


# Bytes of the float32 buffers of one grayscale strip: the strip's three
# channels (12 bytes a pixel) and their weighted sum (4 bytes a pixel),
# however large the image.  The strip's file bytes are read into the sum
# buffer, so it needs no buffer of its own.
GRAY_STRIP_BYTES = 1 << 19
# The gray weights folded with the 1/1000 scale, and the rounding bias: a
# hair above 1/2, see to_grayscale.
_GRAY_WEIGHTS = (np.array([299, 587, 114]) / 1000).astype(np.float32)
_GRAY_BIAS = np.float32(0.50025)


def _gray_rows(w):
    """Rows of one grayscale strip of an image `w` pixels wide."""
    return max(1, GRAY_STRIP_BYTES // (16 * w))


def to_grayscale(read, h, w):
    """The (h, w) gray image of an RGB image whose rows `read(strip, y)`
    writes, strip by strip: `strip` is a C-contiguous uint8 (n, w, 3)
    array for rows y to y + n, at most _gray_rows(w) rows, and the strips
    come in order.  It lies in the first 3 bytes a pixel of the float32
    sum buffer, so a strip costs the two float32 buffers alone: its bytes
    are converted into the channel buffer before the weighted sum
    overwrites them.

    Computes (299r + 587g + 114b + 500) // 1000 with the 0.299/0.587/0.114
    weighting, i.e. rounding half up, so (v, v, v) maps to exactly v, as
    one float32 matmul by the weights over 1000, one add of a bias of
    0.50025 and a truncating cast.  This is exact.  With S the integer
    weighted sum, the float32 result is within 5e-5 of S / 1000 + 0.50025:
    rounding the weights costs at most 4.5e-6 at 255 levels, and the at
    most six roundings of the products, the sums and the bias add, all of
    values below 256 (half an ulp is at most 7.6e-6), cost 3.6e-5.  The
    fraction of every true (S + 500) / 1000 is a multiple of 0.001, so the
    2.5e-4 the bias lies above 1/2 never carries it across an integer, and
    the error never takes it below one.  A bias of exactly 0.5 gets 481 of
    the 2**24 RGB triples wrong.
    """
    out = np.empty((h, w), dtype=np.uint8)
    rows = min(h, _gray_rows(w))
    buf = np.empty((rows, w, 3), dtype=np.float32)
    acc = np.empty((rows, w), dtype=np.float32)
    raw = acc.reshape(-1).view(np.uint8)[: rows * w * 3].reshape(rows, w, 3)
    for y in range(0, h, rows):
        strip = raw[: h - y]
        read(strip, y)
        chans, total = buf[: len(strip)], acc[: len(strip)]
        np.copyto(chans, strip, casting="unsafe")
        np.matmul(chans, _GRAY_WEIGHTS, out=total)
        total += _GRAY_BIAS
        np.copyto(out[y : y + len(strip)], total, casting="unsafe")
    return out


def _read_header(fh):
    """Parse the header at the start of the open file `fh` in one forward
    pass, a byte at a time, and leave it at the first payload byte.
    Returns (height, width, channels)."""
    magic = fh.read(2)
    if magic == b"P5":
        channels = 1
    elif magic == b"P6":
        channels = 3
    else:
        raise PnmError(f"malformed header: unsupported magic {magic!r}")
    tokens = []
    while len(tokens) < 3:
        byte = fh.read(1)
        if byte.isspace():
            continue
        if byte == b"#":  # a comment only where a token would start
            fh.readline()
            continue
        if not byte:
            raise PnmError("malformed header: ran out of data while reading dimensions")
        token = bytearray(byte)
        while (byte := fh.read(1)) and not byte.isspace():
            token += byte
            if len(token) > HEADER_TOKEN_BYTES:
                field = ("width", "height", "maxval")[len(tokens)]
                raise PnmError(
                    f"malformed header: {field} longer than {HEADER_TOKEN_BYTES} bytes")
        tokens.append(bytes(token))
    if not byte:  # maxval must end in the single whitespace byte just read
        raise PnmError("malformed header: missing payload")
    try:
        width, height, maxval = (int(t) for t in tokens)
    except ValueError:
        raise PnmError(f"malformed header: non-numeric fields {tokens!r}") from None
    if width < 1 or height < 1:
        raise PnmError(f"malformed header: bad dimensions {width}x{height}")
    if maxval != 255:
        raise PnmError(f"unsupported maxval {maxval} (only 255 is handled)")
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
    straight into the image.  A PPM payload is read in row strips into
    to_grayscale's own strip buffers and converted to gray strip by strip,
    so the color image is never held whole and loading it costs the gray
    image plus GRAY_STRIP_BYTES.  The payload's length is checked against
    the file's size before any pixel buffer is allocated; each read is
    checked too, in case the file shrinks while it is read."""
    with open(path, "rb") as fh:
        h, w, channels = _read_header(fh)
        expected = h * w * channels
        available = os.fstat(fh.fileno()).st_size - fh.tell()
        if available < expected:
            raise PnmError(f"truncated payload: expected {expected} bytes, got {available}")

        def read(buf, y):
            got = fh.readinto(buf)
            if got < buf.nbytes:
                raise PnmError(f"truncated payload: expected {expected} bytes, "
                               f"got {y * w * channels + got}")
            return buf

        if channels == 1:
            return read(np.empty((h, w), dtype=np.uint8), 0)
        return to_grayscale(read, h, w)


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


def rotate(img, angle_deg, fill=255):
    """Rotate a gray image by `angle_deg` counter-clockwise (as displayed).

    The canvas grows to hold the rotated bounding box.  Resampling is
    inverse-mapped bilinear in fixed point, as OpenCV's remap does: source
    coordinates in units of 2**-ROTATE_FRAC_BITS px and an integer blend.
    The synthetic generator renders skewed bands and perturbed store glyphs
    through it too.  Destination pixels that fall outside the source take
    the fill intensity, an integer in 0..255.
    Angles beyond +/-45 degrees are rejected.  The canvas is resampled in
    row strips of about ROTATE_STRIP_PX pixels, so the temporaries are sized
    by the strip.
    """
    if abs(angle_deg) > MAX_ROTATION_DEG:
        raise ValueError(f"rotation angle {angle_deg} outside +/-{MAX_ROTATION_DEG}")
    if img.ndim != 2:
        raise ValueError("rotate expects a gray image of shape (h, w)")
    if not (0 <= fill <= 255 and fill == int(fill)):
        raise ValueError(f"fill intensity {fill} is not an integer in 0..255")
    h, w = img.shape
    c, s, out_h, out_w = _rotation_frame(h, w, angle_deg)

    # The tap table: entry (y, x) packs the four bilinear taps at (y, x) of
    # the source padded with one ring of fill, pixels (y, x), (y, x + 1),
    # (y + 1, x) and (y + 1, x + 1), a byte each, so that one int32 gather
    # fetches all four.  Taps that straddle the border blend into fill.
    taps = np.full((h + 1, w + 1, 4), fill, dtype=np.uint8)
    taps[1:, 1:, 0] = img
    taps[1:, :w, 1] = img
    taps[:h, 1:, 2] = img
    taps[:h, :w, 3] = img
    flat = taps.view("<i4").ravel()

    bits = ROTATE_FRAC_BITS
    cx_d, cy_d = (out_w - 1) / 2.0, (out_h - 1) / 2.0
    cx_s, cy_s = (w - 1) / 2.0, (h - 1) / 2.0
    dx = np.arange(out_w) - cx_d
    dy = (np.arange(out_h) - cy_d)[:, None]
    # Inverse of a counter-clockwise rotation in y-down pixel coordinates:
    # padded source x = cx_s + 1 + dx c - dy s and y = cy_s + 1 + dx s + dy c,
    # each from a per-column and a per-row term rounded from float64 to
    # units of 2**-bits px.  int32 holds them and the table indices unless
    # the canvas or the table is huge; then they are int64.
    wide = max((out_h + out_w + 2) << bits, (h + 1) * (w + 1)) >= 1 << 31
    coord = np.int64 if wide else np.int32
    x_col = np.rint((cx_s + 1 + dx * c) * (1 << bits)).astype(coord)
    y_col = np.rint((cy_s + 1 + dx * s) * (1 << bits)).astype(coord)
    x_row = np.rint(dy * (s * (1 << bits))).astype(coord)
    y_row = np.rint(dy * (c * (1 << bits))).astype(coord)

    out = np.empty((out_h, out_w), dtype=np.uint8)
    rows = max(1, ROTATE_STRIP_PX // max(1, out_w))
    for y in range(0, out_h, rows):
        out[y : y + rows] = _blend_strip(
            flat, h, w, x_col - x_row[y : y + rows], y_col + y_row[y : y + rows])
    return out


def _blend_strip(flat, h, w, xs, ys):
    """One strip of rotate's canvas, as int32 in 0..255, from the flat tap
    table of an h x w source and the strip's padded source coordinates xs
    and ys in units of 2**-ROTATE_FRAC_BITS px, which it overwrites.  Its
    temporaries are freed on return, before the next strip's are made."""
    bits = ROTATE_FRAC_BITS
    # Coordinates are clipped below w + 1 and h + 1, so the taps stay inside
    # the table; far-outside points clamp onto pure fill.
    np.clip(xs, 0, ((w + 1) << bits) - 1, out=xs)
    np.clip(ys, 0, ((h + 1) << bits) - 1, out=ys)
    idx = ys >> bits
    idx *= w + 1
    idx += xs >> bits
    xs &= (1 << bits) - 1  # the fractions fx and fy
    ys &= (1 << bits) - 1

    # Unpack the gathered taps a byte at a time, then blend in int32:
    # top = p00 2**bits + (p01 - p00) fx, bottom likewise, and
    # (top 2**bits + (bottom - top) fy + 2**(2 bits - 1)) >> 2 bits, rounding
    # half up.  Every sum lies in 0..255 * 2**(2 bits) + 2**(2 bits - 1),
    # below 2**31 for bits <= 10, and the result in 0..255.
    bot = flat.take(idx)
    del idx
    top = bot & 255
    bot >>= 8
    p01 = bot & 255
    bot >>= 8
    p11 = bot >> 8
    p11 &= 255
    bot &= 255
    p01 -= top
    p01 *= xs
    top <<= bits
    top += p01
    p11 -= bot
    p11 *= xs
    bot <<= bits
    bot += p11
    bot -= top
    bot *= ys
    top <<= bits
    top += bot
    top += 1 << (2 * bits - 1)
    top >>= 2 * bits
    return top
