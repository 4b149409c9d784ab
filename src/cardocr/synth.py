"""Synthetic business-card generator with exact ground truth.

Cards are composed from the bundled bitmap font: text bands (optionally
multi-line), filled decoy shapes standing in for logos, a global skew
rotation per card, and additive Gaussian plus salt-and-pepper noise.  The
ground truth is recorded before noise, so it is exact by construction: one
Regions table of the card's boxes and kinds, the pipeline's own region
record, each text region's lines as word lists, and the text ink mask.  The
card's skew angle is its spec's.  render_region draws all text: a region is
laid out once in font cells and scaled once, and a store glyph is a
one-glyph region.  A rotated region's ink is what falls below
imaging.midpoint of its two gray levels, the pipeline's own dark rule.
Noise is apply_noise's alone, drawn over the whole card.
"""

import math
import os
import re
from dataclasses import dataclass, field

import numpy as np

from . import imaging
from .fontdata import ALPHABET, GLYPH_ROWS, GLYPHS, TALL_CHARS, glyph_mask
from .imaging import Rect
from .recognize import build_store
from .regions import BLOCK_SIZE, Regions, format_region_dump, parse_region_dump

GENERATOR_ID = "numpy-pcg64"

CHAR_GAP_CELLS = 1
WORD_GAP_CELLS = 3
LINE_GAP_CELLS = 2
MAX_SKEW_DEG = 20
CARD_MARGIN = 48  # px kept clear around generated bands and decoys
DECOY_INTENSITY = 60  # gray level of a decoy's fill
MAX_LINE_WORDS = 3  # words of a random text line, at most
BANDS_MIN, BANDS_MAX = 2, 3  # text bands a random card draws
# The default template store: its seed and perturbed samples per class.
FONT_STORE_SEED = 7
FONT_STORE_SAMPLES = 12
# A perturbed store glyph: its scales, its rotation range in degrees and
# the share of its bounding box's pixels flipped.
GLYPH_SCALES = (4, 5, 6)
GLYPH_ROTATE_DEG = 1.5
GLYPH_FLIP_FRACTION = 0.02


class SuiteFormatError(ValueError):
    """A suite regions or truth file that cannot be read as the suite wrote it."""


@dataclass
class Band:
    text: str  # words separated by spaces; '\n' separates lines
    x: int
    y: int
    scale: int


@dataclass
class Decoy:
    shape: str  # "rect" or "ellipse"
    rect: Rect


@dataclass
class CardSpec:
    width: int
    height: int
    bands: list = field(default_factory=list)
    decoys: list = field(default_factory=list)
    skew_deg: float = 0.0
    noise_sigma: float = 0.0
    salt_pepper: float = 0.0
    background: int = 220
    foreground: int = 30

    def __post_init__(self):
        if not abs(self.skew_deg) <= MAX_SKEW_DEG:
            raise ValueError(f"card skew is limited to +/-{MAX_SKEW_DEG} degrees")
        if not (math.isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise ValueError("noise_sigma must be finite and >= 0")
        if not 0.0 <= self.salt_pepper <= 1.0:
            raise ValueError("salt_pepper must be a probability")
        if not all(type(v) is int for v in (self.foreground, self.background)):
            raise ValueError("foreground and background must be integers")
        if not 0 <= self.foreground < self.background <= 255:
            raise ValueError("need 0 <= foreground < background <= 255")
        for band in self.bands:
            chars = band.text.replace(" ", "").replace("\n", "")
            if not chars:
                raise ValueError(f"band text {band.text!r} has no characters")
            for ch in chars:
                if ch not in GLYPHS:
                    raise ValueError(f"character {ch!r} outside the supported alphabet")
            if not (all(type(v) is int for v in (band.x, band.y, band.scale)) and band.scale >= 1):
                raise ValueError("band x, y and scale must be integers, with scale >= 1")


@dataclass
class GroundTruth:
    """A rendered card's truth.  `regions` is one Regions table, every band
    (TR) then every decoy (NR) in spec order; only the boxes and kinds are
    truth, the other columns are informational: the BLOCK_SIZE blocks a
    box spans, its aspect ratio, the ink share of the box and 1.  `lines`
    holds each TR's lines as word lists, in table order, and `mask` the
    bool text ink, before noise."""

    regions: Regions
    lines: list
    mask: np.ndarray


@dataclass
class RegionRender:
    image: np.ndarray        # gray, fg ink on bg, rotated if skewed
    mask: np.ndarray         # bool ink mask: image below imaging.midpoint(fg, bg)
    line_spans: list         # inclusive (top, bottom) ink rows per line, before rotation
    words_per_line: list     # list of word lists


def _line_cells(text):
    """One line's layout at one pixel per font cell: its bool ink mask,
    GLYPH_ROWS high, glyphs CHAR_GAP_CELLS apart and words WORD_GAP_CELLS
    apart, and its words."""
    words = [w for w in text.split(" ") if w]
    cells = [np.zeros((GLYPH_ROWS, 0), dtype=bool)]
    for wi, word in enumerate(words):
        for ci, ch in enumerate(word):
            if wi or ci:
                gap = CHAR_GAP_CELLS if ci else WORD_GAP_CELLS
                cells.append(np.zeros((GLYPH_ROWS, gap), dtype=bool))
            cells.append(glyph_mask(ch))
    return np.hstack(cells), words


def measure_line(text, scale):
    """Rendered pixel width of a one-line string."""
    return _line_cells(text)[0].shape[1] * scale


def apply_noise(img, rng, sigma=0.0, salt_pepper=0.0):
    """Additive Gaussian noise then salt-and-pepper, clamped to [0, 255]."""
    out = img
    if sigma > 0:
        noisy = img.astype(np.float32) + rng.normal(0.0, sigma, img.shape).astype(np.float32)
        out = np.clip(np.rint(noisy), 0, 255).astype(np.uint8)
    if salt_pepper > 0:
        out = out.copy() if out is img else out
        u = rng.random(img.shape[:2])
        out[u < salt_pepper / 2] = 0
        out[(u >= salt_pepper / 2) & (u < salt_pepper)] = 255
    return out


def render_region(lines, scale, skew_deg=0.0, fg=30, bg=220, margin_cells=2):
    """Render text lines as one region, the generator's only rasterizer: the
    lines stacked in font cells, LINE_GAP_CELLS apart inside a margin of
    `margin_cells`, scaled once to `scale` pixels per cell and drawn in `fg`
    on `bg`, then rotated by `skew_deg` with `bg` fill.  After a rotation
    the mask is the pixels below imaging.midpoint(fg, bg)."""
    if scale < 1:
        raise ValueError("scale must be >= 1")
    laid = [_line_cells(line) for line in lines]
    advance = GLYPH_ROWS + LINE_GAP_CELLS
    cells = np.zeros((2 * margin_cells + GLYPH_ROWS + (len(laid) - 1) * advance,
                      2 * margin_cells + max(c.shape[1] for c, _ in laid)), dtype=bool)
    spans = []
    for k, (line, _) in enumerate(laid):
        y = margin_cells + k * advance
        cells[y : y + GLYPH_ROWS, margin_cells : margin_cells + line.shape[1]] = line
        rows = np.flatnonzero(line.any(axis=1))
        spans.append(((y + int(rows[0])) * scale, (y + int(rows[-1]) + 1) * scale - 1))
    mask = np.kron(cells, np.ones((scale, scale), dtype=bool))
    image = np.where(mask, fg, bg).astype(np.uint8)
    if skew_deg != 0.0:
        image = imaging.rotate(image, skew_deg, fill=bg)
        mask = image < imaging.midpoint(fg, bg)
    return RegionRender(image=image, mask=mask, line_spans=spans,
                        words_per_line=[words for _, words in laid])


def render_card(spec, seed=0):
    """Render a card from its spec.  Returns (color image, GroundTruth)."""
    canvas = np.full((spec.height, spec.width), spec.background, dtype=np.uint8)
    mask = np.zeros((spec.height, spec.width), dtype=bool)
    boxes, lines = [], []  # (x, y, w, h) of every band, then of every decoy

    for band in spec.bands:
        text = [ln for ln in band.text.split("\n") if ln.strip()]
        render = render_region(text, band.scale, skew_deg=spec.skew_deg,
                               fg=spec.foreground, bg=spec.background,
                               margin_cells=1)
        stamp = render.image
        h, w = stamp.shape
        if band.y < 0 or band.x < 0 or band.y + h > spec.height or band.x + w > spec.width:
            raise ValueError(
                f"band at ({band.x}, {band.y}) size {w}x{h} exceeds the canvas"
            )
        window = canvas[band.y : band.y + h, band.x : band.x + w]
        np.minimum(window, stamp, out=window)
        mask[band.y : band.y + h, band.x : band.x + w] |= render.mask
        # truth rect: the ink bounding box plus the band's natural margin
        rows = np.flatnonzero(render.mask.any(axis=1))
        cols = np.flatnonzero(render.mask.any(axis=0))
        pad = band.scale
        x1 = max(0, band.x + int(cols[0]) - pad)
        y1 = max(0, band.y + int(rows[0]) - pad)
        x2 = min(spec.width, band.x + int(cols[-1]) + 1 + pad)
        y2 = min(spec.height, band.y + int(rows[-1]) + 1 + pad)
        boxes.append((x1, y1, x2 - x1, y2 - y1))
        lines.append(render.words_per_line)

    for decoy in spec.decoys:
        r = decoy.rect
        if r.x < 0 or r.y < 0 or r.x2 > spec.width or r.y2 > spec.height:
            raise ValueError(f"decoy {r} exceeds the canvas")
        if decoy.shape == "rect":
            canvas[r.y : r.y2, r.x : r.x2] = DECOY_INTENSITY
        elif decoy.shape == "ellipse":
            yy, xx = np.mgrid[r.y : r.y2, r.x : r.x2]
            cy, cx = r.y + (r.h - 1) / 2.0, r.x + (r.w - 1) / 2.0
            inside = ((xx - cx) / (r.w / 2.0)) ** 2 + ((yy - cy) / (r.h / 2.0)) ** 2 <= 1.0
            canvas[r.y : r.y2, r.x : r.x2][inside] = DECOY_INTENSITY
        else:
            raise ValueError(f"unknown decoy shape {decoy.shape!r}")
        boxes.append((r.x, r.y, r.w, r.h))

    x, y, w, h = np.array(boxes, dtype=np.intp).reshape(-1, 4).T
    truth = GroundTruth(regions=Regions(
        x=x, y=y, w=w, h=h,
        area=-(-w // BLOCK_SIZE) * -(-h // BLOCK_SIZE),
        aspect_ratio=w / h,
        info_pixel_density=np.array([mask[by : by + bh, bx : bx + bw].mean()
                                     for bx, by, bw, bh in boxes]),
        coverage_ratio=np.ones(len(boxes)),
        text=np.arange(len(boxes)) < len(lines),
    ), lines=lines, mask=mask)
    if spec.noise_sigma > 0 or spec.salt_pepper > 0:
        rng = np.random.default_rng(seed)
        canvas = apply_noise(canvas, rng, spec.noise_sigma, spec.salt_pepper)
    color = np.repeat(canvas[:, :, None], 3, axis=2)
    return color, truth


# ---------------------------------------------------------------------------
# glyph samples for template stores and recognition experiments

def perturbed_glyph_mask(ch, rng):
    """One perturbed rendering of a font glyph: a one-glyph region at a
    random scale and small rotation, cropped to its ink, with a few pixel
    flips inside that box (so even solid glyphs like '-' yield distinct
    patterns)."""
    scale = GLYPH_SCALES[int(rng.integers(0, len(GLYPH_SCALES)))]
    angle = float(rng.uniform(-GLYPH_ROTATE_DEG, GLYPH_ROTATE_DEG))
    mask = render_region([ch], scale, skew_deg=angle, fg=0, bg=255, margin_cells=0).mask
    rows = np.flatnonzero(mask.any(axis=1))
    cols = np.flatnonzero(mask.any(axis=0))
    tight = mask[rows[0] : rows[-1] + 1, cols[0] : cols[-1] + 1].copy()
    h, w = tight.shape
    flips = max(3, int(round(GLYPH_FLIP_FRACTION * h * w)))
    ys = rng.integers(0, h, flips)
    xs = rng.integers(0, w, flips)
    tight[ys, xs] = ~tight[ys, xs]
    return tight


def font_store_samples(samples_per_class=FONT_STORE_SAMPLES, seed=FONT_STORE_SEED):
    """Deterministic labeled samples for building the default template store."""
    seeds = np.random.SeedSequence(seed).spawn(len(ALPHABET))
    out = []
    for ch, ss in zip(ALPHABET, seeds):
        rng = np.random.default_rng(ss)
        for _ in range(samples_per_class):
            out.append((ch, perturbed_glyph_mask(ch, rng)))
    return out


def build_font_store(seed=FONT_STORE_SEED, samples_per_class=FONT_STORE_SAMPLES):
    """Build the default template store from the bundled font."""
    return build_store(font_store_samples(samples_per_class, seed))


# ---------------------------------------------------------------------------
# random specs and suite generation

@dataclass(frozen=True)
class SuiteParams:
    count: int = 100
    width: int = 1024
    height: int = 768
    decoys_min: int = 0
    decoys_max: int = 1
    scales: tuple = (3, 4, 5)
    skew_min: float = 0.0
    skew_max: float = 0.0
    sigma_min: float = 0.0
    sigma_max: float = 5.0
    salt_pepper_min: float = 0.0
    salt_pepper_max: float = 0.0
    seed: int = 1

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("suite needs at least one card")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if not (isinstance(self.scales, tuple) and self.scales
                and all(type(s) is int and s >= 1 for s in self.scales)):
            raise ValueError(
                f"scales must be a non-empty tuple of integers >= 1, got {self.scales!r}")
        scale = max(self.scales)
        widest = max(measure_line(ch, scale) for ch in GLYPHS)
        if _text_width(self.width, scale) < widest:
            raise ValueError(f"card width {self.width} cannot hold a glyph at scale {scale}")
        if 2 * CARD_MARGIN + _band_footprint(0, scale, 0.0)[1] > self.height:
            raise ValueError(f"card height {self.height} cannot hold a text band at scale {scale}")
        if not (abs(self.skew_min) <= MAX_SKEW_DEG and abs(self.skew_max) <= MAX_SKEW_DEG):
            raise ValueError(f"card skew is limited to +/-{MAX_SKEW_DEG} degrees")
        if not all(math.isfinite(s) and s >= 0 for s in (self.sigma_min, self.sigma_max)):
            raise ValueError("noise sigma must be finite and >= 0")
        if not (0.0 <= self.salt_pepper_min <= 1.0 and 0.0 <= self.salt_pepper_max <= 1.0):
            raise ValueError("salt-and-pepper fractions must be in [0, 1]")
        for name in ("skew", "sigma", "salt_pepper", "decoys"):
            low, high = getattr(self, f"{name}_min"), getattr(self, f"{name}_max")
            if low > high:
                raise ValueError(f"{name}_min {low} is above {name}_max {high}")


def _text_width(card_width, scale):
    """Widest line of text a generated band at `scale` may hold."""
    return int((card_width - 2 * CARD_MARGIN - 2 * scale) * 0.8)


def _band_footprint(text_width, scale, skew_deg):
    """(width, height) bound of a band's stamp of one text line
    `text_width` px wide, rotated by `skew_deg`."""
    w_px = text_width + 2 * scale
    h_px = (GLYPH_ROWS + 2) * scale
    rad = math.radians(abs(skew_deg))
    w_rot = int(math.ceil(w_px * math.cos(rad) + h_px * math.sin(rad))) + 2
    h_rot = int(math.ceil(w_px * math.sin(rad) + h_px * math.cos(rad))) + 2
    return w_rot, h_rot


_WORD_CHARS = sorted(GLYPHS)
_TALL_LIST = sorted(TALL_CHARS)


def random_line_text(rng, max_width, scale):
    """Random words over the alphabet; every line gets at least one tall
    character so text lines have full vertical extent."""
    words = []
    n_words = int(rng.integers(1, MAX_LINE_WORDS + 1))
    for _ in range(n_words):
        length = int(rng.integers(3, 9))
        chars = [_WORD_CHARS[int(i)] for i in rng.integers(0, len(_WORD_CHARS), length)]
        words.append("".join(chars))
    if not any(ch in TALL_CHARS for w in words for ch in w):
        words[0] = _TALL_LIST[int(rng.integers(0, len(_TALL_LIST)))] + words[0][1:]
    text = " ".join(words)
    while words[0] and measure_line(text, scale) > max_width:
        if len(words) > 1:
            words.pop()
        else:
            words[0] = words[0][:-1]
        text = " ".join(words)
    if not words[0]:
        text = _TALL_LIST[int(rng.integers(0, len(_TALL_LIST)))]
    return text


def random_card_spec(rng, params):
    """Draw one card spec.  Bands and decoys are stacked vertically with at
    least two block rows of clearance so regions stay separable."""
    spec = CardSpec(
        width=params.width,
        height=params.height,
        skew_deg=float(rng.uniform(params.skew_min, params.skew_max)),
        noise_sigma=float(rng.uniform(params.sigma_min, params.sigma_max)),
        salt_pepper=float(rng.uniform(params.salt_pepper_min, params.salt_pepper_max)),
    )
    n_bands = int(rng.integers(BANDS_MIN, BANDS_MAX + 1))
    n_decoys = int(rng.integers(params.decoys_min, params.decoys_max + 1))
    margin = CARD_MARGIN
    y = margin
    gap = 40
    for _ in range(n_bands):
        scale = int(params.scales[int(rng.integers(0, len(params.scales)))])
        text = random_line_text(rng, _text_width(params.width, scale), scale)
        w_rot, h_rot = _band_footprint(measure_line(text, scale), scale, spec.skew_deg)
        if y + h_rot + margin > params.height:
            break
        x = margin + int(rng.integers(0, max(1, params.width - w_rot - 2 * margin)))
        spec.bands.append(Band(text=text, x=x, y=y, scale=scale))
        y += h_rot + gap
    for _ in range(n_decoys):
        kind = "rect" if rng.random() < 0.5 else "ellipse"
        if rng.random() < 0.5:
            side = int(rng.integers(64, 129))  # near-square blob: aspect gate
            w_px, h_px = side, side
        else:
            # big enough that the boundary ring of information blocks covers
            # clearly less than half of the bounding box (coverage gate)
            w_px = int(rng.integers(160, 289))
            h_px = int(rng.integers(112, 177))
        if y + h_px + margin > params.height:
            break
        x = margin + int(rng.integers(0, max(1, params.width - w_px - 2 * margin)))
        spec.decoys.append(Decoy(shape=kind, rect=Rect(x, y, w_px, h_px)))
        y += h_px + gap
    return spec


def generate_suite(out_dir, params):
    """Write a deterministic card suite: same seed, byte-identical files."""
    os.makedirs(out_dir, exist_ok=True)
    seeds = np.random.SeedSequence(params.seed).spawn(params.count)
    for k in range(params.count):
        rng = np.random.default_rng(seeds[k])
        spec = random_card_spec(rng, params)
        color, truth = render_card(spec, seed=params.seed * 1_000_003 + k)
        base = os.path.join(out_dir, f"card_{k}")
        imaging.save_pnm_file(base + ".ppm", color)
        imaging.save_pnm_file(base + ".mask.pgm", truth.mask)
        with open(base + ".regions.txt", "w") as fh:
            fh.write(format_region_dump(truth.regions))
        with open(base + ".truth.txt", "w") as fh:
            fh.write(truth_transcript(truth))
    manifest = {
        "generator": GENERATOR_ID,
        "seed": params.seed,
        "count": params.count,
        "width": params.width,
        "height": params.height,
        "scales": ",".join(str(s) for s in params.scales),
        "skew_min": params.skew_min,
        "skew_max": params.skew_max,
        "sigma_min": params.sigma_min,
        "sigma_max": params.sigma_max,
        "salt_pepper_min": params.salt_pepper_min,
        "salt_pepper_max": params.salt_pepper_max,
    }
    with open(os.path.join(out_dir, "manifest.txt"), "w") as fh:
        for key, value in manifest.items():
            fh.write(f"{key}={value}\n")
    return manifest


def truth_transcript(truth):
    """Transcript of the text regions: words joined by spaces, lines by
    newlines, regions by blank lines."""
    blocks = ["\n".join(" ".join(words) for words in lines) for lines in truth.lines]
    return "\n\n".join(blocks) + ("\n" if blocks else "")


def load_suite_truth(base_path):
    """The truth of one suite card by its path prefix (without extension):
    (truth regions, transcript text).  The card's image is `<base>.ppm`
    and its ink mask `<base>.mask.pgm`.  A regions or truth file that is
    not UTF-8 or not in the suite format raises SuiteFormatError.
    """
    path = base_path + ".regions.txt"
    try:
        with open(path, encoding="utf-8") as fh:
            regions = parse_region_dump(fh.read())
        path = base_path + ".truth.txt"
        with open(path, encoding="utf-8") as fh:
            transcript = fh.read()
    except ValueError as exc:  # UnicodeDecodeError is a ValueError too
        raise SuiteFormatError(f"malformed suite file {path}: {exc}") from None
    return regions, transcript


def suite_card_paths(suite_dir):
    paths = []
    for name in os.listdir(suite_dir):
        m = re.fullmatch(r"card_(\d+)\.ppm", name)
        if m:
            paths.append((int(m.group(1)), os.path.join(suite_dir, f"card_{m.group(1)}")))
    return [p for _, p in sorted(paths)]
