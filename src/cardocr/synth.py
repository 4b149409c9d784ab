"""Synthetic business-card generator with exact ground truth.

Cards are composed from the bundled bitmap font: text bands (optionally
multi-line), filled decoy shapes standing in for logos, a global skew
rotation per card, and additive Gaussian plus salt-and-pepper noise.  The
ground truth (region boxes, skew angle, ink mask, transcript) is recorded
before noise, so it is exact by construction.
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
from .regions import TR, Regions, format_region_dump, parse_region_dump

GENERATOR_ID = "numpy-pcg64"

CHAR_GAP_CELLS = 1
WORD_GAP_CELLS = 3
LINE_GAP_CELLS = 2
MAX_SKEW_DEG = 20
CARD_MARGIN = 48  # px kept clear around generated bands and decoys


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
    intensity: int = 60


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
        if self.foreground >= self.background:
            raise ValueError("foreground must be darker than background")
        for band in self.bands:
            for ch in band.text.replace(" ", "").replace("\n", ""):
                if ch not in GLYPHS:
                    raise ValueError(f"character {ch!r} outside the supported alphabet")


@dataclass
class TruthRegion:
    bbox: Rect
    kind: str  # "TR" or "NR"
    skew_deg: float = 0.0
    lines: list = field(default_factory=list)  # list of word lists


@dataclass
class GroundTruth:
    regions: list = field(default_factory=list)
    mask: np.ndarray = None  # bool, text ink only, pre-noise

    @property
    def text_regions(self):
        return [r for r in self.regions if r.kind == "TR"]


@dataclass
class RegionRender:
    image: np.ndarray        # gray, noise applied if requested
    mask: np.ndarray         # bool ink mask, post-rotation, pre-noise
    line_spans: list         # (top, bottom) ink rows per line (pre-rotation layout)
    words_per_line: list     # list of word lists
    glyph_counts: list       # glyphs per line
    skew_deg: float


def render_glyph(ch, scale):
    """Upscale a font glyph to `scale` pixels per cell (bool mask)."""
    if scale < 1:
        raise ValueError("scale must be >= 1")
    return np.kron(glyph_mask(ch), np.ones((scale, scale), dtype=bool))


def measure_line(text, scale):
    """Rendered pixel width of a one-line string."""
    width = 0
    first = True
    for word in text.split(" "):
        if not word:
            continue
        if not first:
            width += WORD_GAP_CELLS * scale
        first = False
        for i, ch in enumerate(word):
            if i:
                width += CHAR_GAP_CELLS * scale
            width += glyph_mask(ch).shape[1] * scale
    return width


def render_line_mask(text, scale):
    """Render one line of text.  Returns (mask, words, glyph_count)."""
    words = [w for w in text.split(" ") if w]
    if not words:
        raise ValueError("line has no words")
    width = measure_line(text, scale)
    mask = np.zeros((GLYPH_ROWS * scale, width), dtype=bool)
    x = 0
    glyphs = 0
    for wi, word in enumerate(words):
        if wi:
            x += WORD_GAP_CELLS * scale
        for ci, ch in enumerate(word):
            if ci:
                x += CHAR_GAP_CELLS * scale
            g = render_glyph(ch, scale)
            mask[:, x : x + g.shape[1]] |= g
            x += g.shape[1]
            glyphs += 1
    return mask, words, glyphs


def render_region_mask(lines, scale, margin_cells=2):
    """Stack text lines into one region mask with a margin.

    Returns (mask, line_spans, words_per_line, glyph_counts) where line_spans
    are inclusive (top, bottom) ink rows of each line inside the mask.
    """
    rendered = [render_line_mask(line, scale) for line in lines]
    margin = margin_cells * scale
    advance = (GLYPH_ROWS + LINE_GAP_CELLS) * scale
    width = max(m.shape[1] for m, _, _ in rendered) + 2 * margin
    height = margin * 2 + GLYPH_ROWS * scale + (len(rendered) - 1) * advance
    mask = np.zeros((height, width), dtype=bool)
    spans = []
    words_per_line = []
    glyph_counts = []
    y = margin
    for line_mask, words, count in rendered:
        h, w = line_mask.shape
        mask[y : y + h, margin : margin + w] |= line_mask
        rows = np.flatnonzero(line_mask.any(axis=1))
        spans.append((y + int(rows[0]), y + int(rows[-1])))
        words_per_line.append(words)
        glyph_counts.append(count)
        y += advance
    return mask, spans, words_per_line, glyph_counts


def mask_to_gray(mask, fg, bg):
    return np.where(mask, fg, bg).astype(np.uint8)


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


def render_region(lines, scale, skew_deg=0.0, sigma=0.0, salt_pepper=0.0,
                  seed=0, fg=30, bg=220, margin_cells=2):
    """Render a standalone text region (the per-band building block)."""
    mask, spans, words, counts = render_region_mask(lines, scale, margin_cells)
    gray = mask_to_gray(mask, fg, bg)
    if skew_deg != 0.0:
        gray = imaging.rotate(gray, skew_deg, fill=bg)
        mask = gray < (fg + bg) / 2.0
    if sigma > 0 or salt_pepper > 0:
        rng = np.random.default_rng(seed)
        image = apply_noise(gray, rng, sigma, salt_pepper)
    else:
        image = gray
    return RegionRender(
        image=image, mask=mask, line_spans=spans, words_per_line=words,
        glyph_counts=counts, skew_deg=skew_deg,
    )


def _tight_bbox(mask):
    rows = np.flatnonzero(mask.any(axis=1))
    cols = np.flatnonzero(mask.any(axis=0))
    if len(rows) == 0:
        return None
    return Rect(int(cols[0]), int(rows[0]), int(cols[-1] - cols[0] + 1), int(rows[-1] - rows[0] + 1))


def render_card(spec, seed=0):
    """Render a card from its spec.  Returns (color image, GroundTruth)."""
    canvas = np.full((spec.height, spec.width), spec.background, dtype=np.uint8)
    mask = np.zeros((spec.height, spec.width), dtype=bool)
    truth = GroundTruth(regions=[], mask=None)
    midpoint = (spec.foreground + spec.background) / 2.0

    for band in spec.bands:
        lines = [ln for ln in band.text.split("\n") if ln.strip()]
        render = render_region(lines, band.scale, skew_deg=spec.skew_deg,
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
        stamp_mask = stamp < midpoint
        mask[band.y : band.y + h, band.x : band.x + w] |= stamp_mask
        # truth rect: the ink bounding box plus the band's natural margin
        tight = _tight_bbox(stamp_mask)
        pad = band.scale
        x1 = max(0, band.x + tight.x - pad)
        y1 = max(0, band.y + tight.y - pad)
        x2 = min(spec.width, band.x + tight.x + tight.w + pad)
        y2 = min(spec.height, band.y + tight.y + tight.h + pad)
        rect = Rect(x1, y1, x2 - x1, y2 - y1)
        truth.regions.append(TruthRegion(bbox=rect, kind="TR",
                                         skew_deg=spec.skew_deg,
                                         lines=render.words_per_line))

    for decoy in spec.decoys:
        r = decoy.rect
        if r.x < 0 or r.y < 0 or r.x2 > spec.width or r.y2 > spec.height:
            raise ValueError(f"decoy {r} exceeds the canvas")
        if decoy.shape == "rect":
            canvas[r.y : r.y2, r.x : r.x2] = decoy.intensity
        elif decoy.shape == "ellipse":
            yy, xx = np.mgrid[r.y : r.y2, r.x : r.x2]
            cy, cx = r.y + (r.h - 1) / 2.0, r.x + (r.w - 1) / 2.0
            inside = ((xx - cx) / (r.w / 2.0)) ** 2 + ((yy - cy) / (r.h / 2.0)) ** 2 <= 1.0
            canvas[r.y : r.y2, r.x : r.x2][inside] = decoy.intensity
        else:
            raise ValueError(f"unknown decoy shape {decoy.shape!r}")
        truth.regions.append(TruthRegion(bbox=r, kind="NR"))

    truth.mask = mask
    if spec.noise_sigma > 0 or spec.salt_pepper > 0:
        rng = np.random.default_rng(seed)
        canvas = apply_noise(canvas, rng, spec.noise_sigma, spec.salt_pepper)
    color = np.repeat(canvas[:, :, None], 3, axis=2)
    return color, truth


# ---------------------------------------------------------------------------
# glyph samples for template stores and recognition experiments

def rotate_mask(mask, angle_deg):
    """Rotate a bool mask via the gray-image path and re-threshold."""
    if angle_deg == 0.0:
        return mask
    gray = mask_to_gray(mask, 0, 255)
    rotated = imaging.rotate(gray, angle_deg, fill=255)
    return rotated < 128


def perturbed_glyph_mask(ch, rng, scales=(4, 5, 6), rotate_range=1.5,
                         flip_fraction=0.02):
    """One perturbed rendering of a font glyph: random scale, small rotation,
    and a few pixel flips inside the bounding box (so even solid glyphs like
    '-' yield distinct patterns)."""
    scale = int(scales[int(rng.integers(0, len(scales)))])
    mask = render_glyph(ch, scale)
    angle = float(rng.uniform(-rotate_range, rotate_range))
    mask = rotate_mask(mask, angle)
    rows = np.flatnonzero(mask.any(axis=1))
    cols = np.flatnonzero(mask.any(axis=0))
    tight = mask[rows[0] : rows[-1] + 1, cols[0] : cols[-1] + 1].copy()
    h, w = tight.shape
    flips = max(3, int(round(flip_fraction * h * w)))
    ys = rng.integers(0, h, flips)
    xs = rng.integers(0, w, flips)
    tight[ys, xs] = ~tight[ys, xs]
    if not tight.any():
        tight = mask[rows[0] : rows[-1] + 1, cols[0] : cols[-1] + 1]
    return tight


def font_store_samples(samples_per_class=12, seed=7, scales=(4, 5, 6)):
    """Deterministic labeled samples for building the default template store."""
    seeds = np.random.SeedSequence(seed).spawn(len(ALPHABET))
    out = []
    for ch, ss in zip(ALPHABET, seeds):
        rng = np.random.default_rng(ss)
        for _ in range(samples_per_class):
            out.append((ch, perturbed_glyph_mask(ch, rng, scales=scales)))
    return out


def build_font_store(seed=7, samples_per_class=12):
    """Build the default template store from the bundled font."""
    return build_store(font_store_samples(samples_per_class, seed))


# ---------------------------------------------------------------------------
# random specs and suite generation

@dataclass(frozen=True)
class SuiteParams:
    count: int = 100
    width: int = 1024
    height: int = 768
    bands_min: int = 2
    bands_max: int = 3
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


def random_line_text(rng, max_width, scale, max_words=3):
    """Random words over the alphabet; every line gets at least one tall
    character so text lines have full vertical extent."""
    words = []
    n_words = int(rng.integers(1, max_words + 1))
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
    n_bands = int(rng.integers(params.bands_min, params.bands_max + 1))
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
            fh.write(format_truth_regions(truth))
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


def format_truth_regions(truth):
    """Ground-truth regions in the region dump format.  Only the boxes and
    kinds are truth; the other fields are informational: the 16-pixel
    blocks the box spans, its aspect ratio, the ink share of the box and 1."""
    boxes = [r.bbox for r in truth.regions]
    x, y, w, h = (np.array([getattr(b, k) for b in boxes], dtype=np.intp) for k in "xywh")
    windows = [truth.mask[b.y : b.y2, b.x : b.x2] for b in boxes]
    return format_region_dump(Regions(
        x=x, y=y, w=w, h=h,
        area=-(-w // 16) * -(-h // 16),
        aspect_ratio=w / h,
        info_pixel_density=np.array([win.mean() if win.size else 0.0 for win in windows]),
        coverage_ratio=np.ones(len(boxes)),
        text=np.array([r.kind == TR for r in truth.regions], dtype=bool),
    ))


def truth_transcript(truth):
    """Transcript of the text regions: words joined by spaces, lines by
    newlines, regions by blank lines."""
    blocks = []
    for region in truth.text_regions:
        blocks.append("\n".join(" ".join(words) for words in region.lines))
    return "\n\n".join(blocks) + ("\n" if blocks else "")


def load_suite_card(base_path):
    """Load one card by its path prefix (without extension).

    Returns (gray image, truth regions, transcript text): the card's PPM
    is converted to gray as it is read, and its ink mask stays on disk as
    `<base>.mask.pgm`.  A regions or truth file that is not UTF-8 or not in
    the suite format raises SuiteFormatError.
    """
    gray = imaging.load_pnm_file(base_path + ".ppm")
    path = base_path + ".regions.txt"
    try:
        with open(path, encoding="utf-8") as fh:
            regions = parse_region_dump(fh.read())
        path = base_path + ".truth.txt"
        with open(path, encoding="utf-8") as fh:
            transcript = fh.read()
    except ValueError as exc:  # UnicodeDecodeError is a ValueError too
        raise SuiteFormatError(f"malformed suite file {path}: {exc}") from None
    return gray, regions, transcript


def suite_card_paths(suite_dir):
    paths = []
    for name in os.listdir(suite_dir):
        m = re.fullmatch(r"card_(\d+)\.ppm", name)
        if m:
            paths.append((int(m.group(1)), os.path.join(suite_dir, f"card_{m.group(1)}")))
    return [p for _, p in sorted(paths)]
