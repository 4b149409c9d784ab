"""Reference implementations that only tests use: plain, slow definitions
that the acceptance criteria and unit tests check the package against.
"""

import numpy as np

from cardocr.evaluate import EvalCounts
from cardocr.imaging import _pnm_pixels
from cardocr.recognize import PATTERN_SIZE


def dissimilarity(a, b):
    """Cell-wise absolute difference count (Hamming distance)."""
    if a.shape != (PATTERN_SIZE, PATTERN_SIZE) or b.shape != (PATTERN_SIZE, PATTERN_SIZE):
        raise ValueError("patterns must be 48x48")
    return int(np.count_nonzero(a != b))


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
    tn = int(np.count_nonzero(~predicted & ~truth))
    return EvalCounts(tp=tp, fp=fp, tn=tn, fn=fn)


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


def load_pnm(data):
    """Decode binary PGM/PPM bytes into a gray or color array."""
    return _pnm_pixels(data).copy()
