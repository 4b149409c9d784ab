"""Text region extraction.

The gray image is tiled into fixed-size blocks, each block is labeled as
information or background by its intensity variation, 8-connected groups of
information blocks become regions, and every region is classified as text
(TR) or non-text (NR) from cheap geometric features.
"""

from dataclasses import dataclass

import numpy as np

from .imaging import Rect, midpoint

TR = "TR"  # text region
NR = "NR"  # non-text region


@dataclass
class BlockGrid:
    """Disjoint tiling of an image; edge tiles shrink to the image bounds."""

    block_h: int
    block_w: int
    rows: int
    cols: int
    image_h: int
    image_w: int
    labels: np.ndarray = None  # bool (rows, cols), True = information block (IB)
    block_max: np.ndarray = None  # uint8 (rows, cols), brightest pixel per block
    block_min: np.ndarray = None  # uint8 (rows, cols), darkest pixel per block
    # intp, one per IB in raster order (the order np.nonzero(labels) lists
    # them in): index of the block's region in the list assemble_regions
    # returned
    block_region: np.ndarray = None


@dataclass
class RegionFeatures:
    aspect_ratio: float
    info_pixel_density: float
    area: int  # member block count
    coverage_ratio: float


@dataclass
class Region:
    bbox: Rect
    kind: str = NR
    features: RegionFeatures = None


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


def _tiles(img, grid, **pad):
    """View the image as (rows, block_h, cols, block_w) tiles.  A ragged
    image is first padded to whole blocks by np.pad with `pad`."""
    pad_h = grid.rows * grid.block_h - grid.image_h
    pad_w = grid.cols * grid.block_w - grid.image_w
    if pad_h or pad_w:
        img = np.pad(img, ((0, pad_h), (0, pad_w)), **pad)
    return img.reshape(grid.rows, grid.block_h, grid.cols, grid.block_w)


def classify_grid(img, grid, t_var):
    """Label every block of the grid in one vectorized pass.

    A ragged image is edge-padded to whole blocks first; repeating an edge
    pixel leaves every tile's max and min unchanged.  The per-block max and
    min stay on the grid for compute_features.
    """
    tiles = _tiles(img, grid, mode="edge")
    # reducing the row axis first keeps the inner loop on contiguous memory
    grid.block_max = tiles.max(axis=1).max(axis=2)
    grid.block_min = tiles.min(axis=1).min(axis=2)
    grid.labels = (grid.block_max.astype(np.int16) - grid.block_min) >= t_var
    return grid


def _component_roots(n, a, b):
    """Union-find over nodes 0..n-1 joined by the edges (a[i], b[i]).

    Every round points each node at its root, then hooks the larger root of
    every edge whose ends still differ under the smaller one.  Roots only
    ever move down, so each node ends at the smallest node of its component.
    """
    parent = np.arange(n)
    while True:
        while True:
            grand = parent[parent]
            if np.array_equal(grand, parent):
                break
            parent = grand
        ra, rb = parent[a], parent[b]
        split = ra != rb
        if not split.any():
            return parent
        ra, rb = ra[split], rb[split]
        np.minimum.at(parent, np.maximum(ra, rb), np.minimum(ra, rb))


def assemble_regions(grid):
    """Group 8-connected information blocks into regions (unclassified).

    Components are labelled over horizontal runs of IB blocks rather than
    blocks: a run [s, e) in row r touches a run [s2, e2) in row r + 1 iff
    s2 <= e and s <= e2 (ends exclusive, diagonals included).  Regions are
    numbered by their first block in raster order, then stably sorted by
    bounding-box origin (y, x).  The region of every IB, in raster order, is
    recorded in grid.block_region.
    """
    rows, cols = grid.rows, grid.cols
    padded = np.zeros((rows, cols + 2), dtype=np.int8)
    padded[:, 1:-1] = grid.labels
    step = np.diff(padded, axis=1)
    run_row, run_start = np.nonzero(step == 1)
    run_end = np.nonzero(step == -1)[1]

    # Raster keys row * width + column are sorted over all runs, so one
    # searchsorted per side finds, for every run, the contiguous range
    # [lo, hi) of runs in the next row that touch it.
    width = cols + 1
    key_start = run_row * width + run_start
    key_end = run_row * width + run_end
    lo = np.searchsorted(key_end, key_start + width, side="left")
    hi = np.searchsorted(key_start, key_end + width, side="right")
    fan = np.maximum(hi - lo, 0)
    first = np.cumsum(fan) - fan
    a = np.repeat(np.arange(len(fan)), fan)
    b = np.repeat(lo - first, fan) + np.arange(fan.sum())
    roots, comp = np.unique(_component_roots(len(fan), a, b), return_inverse=True)

    # The root is the component's first run, which holds its first block
    # and its top row.
    m = len(roots)
    top = run_row[roots]
    bottom = np.zeros(m, dtype=np.intp)
    left = np.full(m, cols, dtype=np.intp)
    right = np.zeros(m, dtype=np.intp)
    np.maximum.at(bottom, comp, run_row)
    np.minimum.at(left, comp, run_start)
    np.maximum.at(right, comp, run_end)
    order = np.lexsort((np.arange(m), left, top))
    rank = np.empty(m, dtype=np.intp)
    rank[order] = np.arange(m)
    # The runs are in raster order, so each run's region repeated over its
    # length is the region of every IB in raster order.
    grid.block_region = np.repeat(rank[comp], run_end - run_start)

    bh, bw = grid.block_h, grid.block_w
    x1 = left[order] * bw
    y1 = top[order] * bh
    x2 = np.minimum(right[order] * bw, grid.image_w)
    y2 = np.minimum((bottom[order] + 1) * bh, grid.image_h)
    return [
        Region(bbox=Rect(x, y, xe - x, ye - y))
        for x, y, xe, ye in zip(x1.tolist(), y1.tolist(), x2.tolist(), y2.tolist())
    ]


def compute_features(img, grid, regions):
    """Geometric and intensity features of every region, in one pass.

    `regions` is the list assemble_regions returned for `grid`.  A pixel is
    dark when it is below the midpoint of its region's extremes.
    """
    m = len(regions)
    br, bc = np.nonzero(grid.labels)
    region = grid.block_region
    vmin = np.full(m, 255, dtype=np.int16)
    vmax = np.zeros(m, dtype=np.int16)
    np.minimum.at(vmin, region, grid.block_min[br, bc])
    np.maximum.at(vmax, region, grid.block_max[br, bc])
    threshold = midpoint(vmin, vmax)

    # 255 is never below a midpoint, so padding is never dark
    tiles = _tiles(img, grid, constant_values=255)[br, :, bc, :]
    dark_per_block = np.count_nonzero(tiles < threshold[region][:, None, None], axis=(1, 2))
    dark = np.bincount(region, weights=dark_per_block, minlength=m)
    bh, bw = grid.block_h, grid.block_w
    block_h = np.minimum(bh, grid.image_h - bh * np.arange(grid.rows))
    block_w = np.minimum(bw, grid.image_w - bw * np.arange(grid.cols))
    pixels = np.bincount(region, weights=block_h[br] * block_w[bc], minlength=m)
    area = np.bincount(region, minlength=m)

    features = []
    for reg, n_dark, n_pixels, n_blocks in zip(
        regions, dark.tolist(), pixels.tolist(), area.tolist()
    ):
        w, h = reg.bbox.w, reg.bbox.h
        features.append(
            RegionFeatures(
                aspect_ratio=w / h,
                info_pixel_density=n_dark / n_pixels,
                area=n_blocks,
                coverage_ratio=n_pixels / (w * h),
            )
        )
    return features


def classify_region(features, cfg):
    """TR iff every geometric gate of the PipelineConfig passes, NR otherwise."""
    ok = (
        features.area >= cfg.min_area_blocks
        and cfg.ar_min <= features.aspect_ratio <= cfg.ar_max
        and cfg.dens_min <= features.info_pixel_density <= cfg.dens_max
        and features.coverage_ratio >= cfg.cov_min
    )
    return TR if ok else NR


def extract_regions(img, cfg):
    """Full block pipeline under a PipelineConfig; returns every region (TR
    and NR), ordered top-to-bottom then left-to-right by bounding box
    origin."""
    grid = partition_blocks(img, cfg.block_h, cfg.block_w)
    classify_grid(img, grid, cfg.t_var)
    regions = assemble_regions(grid)
    for region, features in zip(regions, compute_features(img, grid, regions)):
        region.features = features
        region.kind = classify_region(features, cfg)
    return regions


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
        if len(parts) < 5:
            raise ValueError(f"region line needs x y w h kind: {line!r}")
        x, y, w, h = (int(p) for p in parts[:4])
        kind = parts[4]
        features = None
        if len(parts) >= 9:
            features = RegionFeatures(
                area=int(parts[5]),
                aspect_ratio=float(parts[6]),
                info_pixel_density=float(parts[7]),
                coverage_ratio=float(parts[8]),
            )
        regions.append(Region(bbox=Rect(x, y, w, h), kind=kind, features=features))
    return regions
