"""Text region extraction.

The gray image is tiled into fixed-size blocks, each block is labeled as
information or background by its intensity variation, 8-connected groups of
information blocks become regions, and every region is classified as text
(TR) or non-text (NR) from cheap geometric features.
"""

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .imaging import Rect

IB = "IB"  # information block
BB = "BB"  # background block
TR = "TR"  # text region
NR = "NR"  # non-text region


@dataclass
class RegionConfig:
    block_h: int = 16
    block_w: int = 16
    t_var: int = 40
    min_area_blocks: int = 4
    ar_min: float = 1.2
    ar_max: float = 40.0
    dens_min: float = 0.03
    dens_max: float = 0.6
    cov_min: float = 0.5


@dataclass
class BlockGrid:
    """Disjoint tiling of an image; edge tiles shrink to the image bounds."""

    block_h: int
    block_w: int
    rows: int
    cols: int
    image_h: int
    image_w: int
    labels: np.ndarray = None  # bool (rows, cols), True = IB

    def block_rect(self, r, c):
        y = r * self.block_h
        x = c * self.block_w
        return Rect(x, y, min(self.block_w, self.image_w - x), min(self.block_h, self.image_h - y))


@dataclass
class RegionFeatures:
    width: int
    height: int
    aspect_ratio: float
    info_pixel_density: float
    area: int  # member block count
    coverage_ratio: float


@dataclass
class Region:
    blocks: list  # (row, col) grid coordinates
    bbox: Rect
    kind: str = NR
    features: RegionFeatures = field(default=None)


class ImageTooSmallError(ValueError):
    """The image cannot hold a single block of the grid."""


def partition_blocks(img, block_h, block_w):
    """Lay out the block grid for an image (no classification yet)."""
    if block_h < 4 or block_w < 4:
        raise ValueError(f"block size must be at least 4, got {block_h}x{block_w}")
    h, w = img.shape[:2]
    if block_h > h or block_w > w:
        raise ImageTooSmallError(f"block {block_h}x{block_w} larger than image {h}x{w}")
    rows = -(-h // block_h)
    cols = -(-w // block_w)
    return BlockGrid(block_h, block_w, rows, cols, h, w)


def classify_block(pixels, t_var):
    """IB iff the intensity spread inside the block reaches t_var."""
    if pixels.size == 0:
        raise ValueError("empty block window")
    return IB if int(pixels.max()) - int(pixels.min()) >= t_var else BB


def classify_grid(img, grid, t_var):
    """Label every block of the grid in one vectorized pass.

    A ragged image is edge-padded to whole blocks first; repeating an edge
    pixel leaves every tile's max and min unchanged.
    """
    bh, bw = grid.block_h, grid.block_w
    pad_h = grid.rows * bh - grid.image_h
    pad_w = grid.cols * bw - grid.image_w
    if pad_h or pad_w:
        img = np.pad(img, ((0, pad_h), (0, pad_w)), mode="edge")
    tiles = img.reshape(grid.rows, bh, grid.cols, bw)
    # reducing the row axis first keeps the inner loop on contiguous memory
    mx = tiles.max(axis=1).max(axis=2)
    mn = tiles.min(axis=1).min(axis=2)
    grid.labels = (mx.astype(np.int16) - mn.astype(np.int16)) >= t_var
    return grid


_NEIGHBORS8 = [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)]


def assemble_regions(grid):
    """Group 8-connected information blocks into regions (unclassified)."""
    labels = grid.labels
    seen = np.zeros_like(labels, dtype=bool)
    regions = []
    for r in range(grid.rows):
        for c in range(grid.cols):
            if not labels[r, c] or seen[r, c]:
                continue
            queue = deque([(r, c)])
            seen[r, c] = True
            blocks = []
            while queue:
                br, bc = queue.popleft()
                blocks.append((br, bc))
                for dr, dc in _NEIGHBORS8:
                    nr_, nc_ = br + dr, bc + dc
                    if 0 <= nr_ < grid.rows and 0 <= nc_ < grid.cols:
                        if labels[nr_, nc_] and not seen[nr_, nc_]:
                            seen[nr_, nc_] = True
                            queue.append((nr_, nc_))
            blocks.sort()
            regions.append(Region(blocks=blocks, bbox=_blocks_bbox(grid, blocks)))
    regions.sort(key=lambda reg: (reg.bbox.y, reg.bbox.x))
    return regions


def _blocks_bbox(grid, blocks):
    rects = [grid.block_rect(r, c) for r, c in blocks]
    x1 = min(r.x for r in rects)
    y1 = min(r.y for r in rects)
    x2 = max(r.x2 for r in rects)
    y2 = max(r.y2 for r in rects)
    return Rect(x1, y1, x2 - x1, y2 - y1)


def compute_features(img, grid, region):
    """Geometric and intensity features over the region's member blocks."""
    bbox = region.bbox
    member_pixels = 0
    vmin, vmax = 255, 0
    for r, c in region.blocks:
        rect = grid.block_rect(r, c)
        window = img[rect.y : rect.y2, rect.x : rect.x2]
        member_pixels += window.size
        vmin = min(vmin, int(window.min()))
        vmax = max(vmax, int(window.max()))
    midpoint = (vmin + vmax) / 2.0
    dark = 0
    for r, c in region.blocks:
        rect = grid.block_rect(r, c)
        window = img[rect.y : rect.y2, rect.x : rect.x2]
        dark += int(np.count_nonzero(window < midpoint))
    return RegionFeatures(
        width=bbox.w,
        height=bbox.h,
        aspect_ratio=bbox.w / bbox.h,
        info_pixel_density=dark / member_pixels,
        area=len(region.blocks),
        coverage_ratio=member_pixels / (bbox.w * bbox.h),
    )


def classify_region(features, cfg):
    """TR iff every geometric gate passes, NR otherwise."""
    ok = (
        features.area >= cfg.min_area_blocks
        and cfg.ar_min <= features.aspect_ratio <= cfg.ar_max
        and cfg.dens_min <= features.info_pixel_density <= cfg.dens_max
        and features.coverage_ratio >= cfg.cov_min
    )
    return TR if ok else NR


def extract_regions(img, cfg):
    """Full block pipeline; returns every region (TR and NR), ordered
    top-to-bottom then left-to-right by bounding box origin."""
    grid = partition_blocks(img, cfg.block_h, cfg.block_w)
    classify_grid(img, grid, cfg.t_var)
    regions = assemble_regions(grid)
    for region in regions:
        region.features = compute_features(img, grid, region)
        region.kind = classify_region(region.features, cfg)
    return regions


def extract_text_regions(img, cfg):
    """Return (region, gray crop) pairs for the text regions only."""
    out = []
    for region in extract_regions(img, cfg):
        if region.kind == TR:
            crop = img[region.bbox.y : region.bbox.y2, region.bbox.x : region.bbox.x2].copy()
            out.append((region, crop))
    return out


def format_region_dump(regions):
    """Debug dump: one region per line, fixed field order."""
    lines = []
    for region in regions:
        f = region.features
        lines.append(
            "%d %d %d %d %s %d %.4f %.4f %.4f"
            % (
                region.bbox.x,
                region.bbox.y,
                region.bbox.w,
                region.bbox.h,
                region.kind,
                f.area,
                f.aspect_ratio,
                f.info_pixel_density,
                f.coverage_ratio,
            )
        )
    return "\n".join(lines) + ("\n" if lines else "")


def parse_region_dump(text):
    """Inverse of format_region_dump, tolerant of the informational fields."""
    regions = []
    for line in text.splitlines():
        parts = line.split()
        if not parts:
            continue
        x, y, w, h = (int(p) for p in parts[:4])
        kind = parts[4]
        features = None
        if len(parts) >= 9:
            features = RegionFeatures(
                width=w,
                height=h,
                area=int(parts[5]),
                aspect_ratio=float(parts[6]),
                info_pixel_density=float(parts[7]),
                coverage_ratio=float(parts[8]),
            )
        regions.append(Region(blocks=[], bbox=Rect(x, y, w, h), kind=kind, features=features))
    return regions
