"""Text region extraction.

The gray image is tiled into fixed-size blocks, each block is labeled as
information or background by its intensity variation, 8-connected groups of
information blocks become regions, and every region is classified as text
(TR) or non-text (NR) from cheap geometric features.  A set of regions is
one table of parallel arrays (Regions): extraction builds, measures and
gates it in one pass over the grid's runs of information blocks, and the
region dump, which is also the suite truth format, writes and reads it.  A
Region, a box and its kind, is built only for a row read one at a time.
"""

from dataclasses import dataclass

import numpy as np

from .imaging import Rect, midpoint, runs

TR = "TR"  # text region
NR = "NR"  # non-text region

# The paper's fixed parameters, read by the stage functions below when they
# are called.
BLOCK_SIZE = 16  # block height and width in pixels
T_VAR = 40  # min max - min intensity of an information block
MIN_AREA_BLOCKS = 4  # min member blocks of a TR
AR_MIN, AR_MAX = 1.2, 40.0  # accepted box aspect ratio (w / h) of a TR
DENS_MIN, DENS_MAX = 0.03, 0.6  # accepted dark-pixel density of a TR
COV_MIN = 0.5  # min share of a TR's box that its member blocks cover

# Bytes of one chunk of classify_grid's row reduction, and of its
# transposed copy: a chunk of block rows whose reduction holds at most
# this, or one block row.
GRID_CHUNK_BYTES = 1 << 16
# Bytes of the gathered tiles of one chunk of compute_features' IBs, 512
# IBs of 16 x 16; their dark mask takes as many again.  Chunks of 256 IBs
# read 2-3% slower on 1024 x 768 cards.
FEATURE_CHUNK_BYTES = 1 << 17


@dataclass
class BlockGrid:
    """The labelled BLOCK_SIZE tiling of an image, as classify_grid builds
    it; edge tiles shrink to the image bounds."""

    image_h: int
    image_w: int
    labels: np.ndarray  # bool (rows, cols), True = information block (IB)
    block_max: np.ndarray  # uint8 (rows, cols), brightest pixel per block
    block_min: np.ndarray  # uint8 (rows, cols), darkest pixel per block
    # intp, one per IB in raster order (the order np.flatnonzero(labels)
    # lists them in): index of the block's region among the boxes
    # assemble_regions returned
    block_region: np.ndarray = None


@dataclass
class Region:
    """One row of a Regions table: its box and kind."""

    bbox: Rect
    kind: str = NR


@dataclass(frozen=True)
class Regions:
    """A set of regions as parallel arrays: the box x, y, w, h and the
    member block count `area` (int), the float64 features aspect_ratio
    (w / h), info_pixel_density (dark share of the member pixels) and
    coverage_ratio (member pixels over box pixels), and `text`, True for a
    TR.  A card's table is ordered top-to-bottom then left-to-right by
    bounding-box origin.  Indexing and iterating build one Region at a
    time."""

    x: np.ndarray
    y: np.ndarray
    w: np.ndarray
    h: np.ndarray
    area: np.ndarray
    aspect_ratio: np.ndarray
    info_pixel_density: np.ndarray
    coverage_ratio: np.ndarray
    text: np.ndarray

    def __len__(self):
        return len(self.x)

    def __getitem__(self, i):
        return Region(
            bbox=Rect(int(self.x[i]), int(self.y[i]), int(self.w[i]), int(self.h[i])),
            kind=TR if self.text[i] else NR,
        )

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))


class ImageTooSmallError(ValueError):
    """The image cannot hold a single block of the grid."""


def _tiles(img, **pad):
    """Yield the BLOCK_SIZE blocks of an image as (r0, c0, tiles) parts,
    `tiles` a (r, BLOCK_SIZE, c, BLOCK_SIZE) array of the blocks from block
    row r0 and block column c0 on.  The whole blocks are one view of the
    image.  A ragged image adds its last block column, then its last block
    row, each a copy of that strip padded to whole blocks by np.pad with
    `pad`, made when it is reached, so the image itself is never copied."""
    b = BLOCK_SIZE
    h, w = img.shape
    rows, cols = h // b, w // b
    pad_h, pad_w = -h % b, -w % b
    yield 0, 0, img[: rows * b, : cols * b].reshape(rows, b, cols, b)
    if pad_w:
        strip = np.pad(img[: rows * b, cols * b :], ((0, 0), (0, pad_w)), **pad)
        yield 0, cols, strip.reshape(rows, b, 1, b)
    if pad_h:
        strip = np.pad(img[rows * b :], ((0, pad_h), (0, pad_w)), **pad)
        yield rows, 0, strip.reshape(1, b, -(-w // b), b)


def classify_grid(img):
    """Tile the image into BLOCK_SIZE blocks and label each one in one
    vectorized pass: a block is an IB when its max - min is at least
    T_VAR.  Returns the BlockGrid.

    A ragged image's last block row and column are edge-padded to whole
    blocks (_tiles); repeating an edge pixel leaves every tile's max and
    min unchanged.  The per-block max and min stay on the grid for
    compute_features.

    Each extreme is reduced over the rows of a block first, a pass over
    whole image rows.  The block's columns are then a last axis only
    BLOCK_SIZE long, which numpy would reduce one block at a time, so they
    are reduced from a transposed copy of that result instead, whose outer
    axis they are.  Both are taken a chunk of block rows at a time, at
    most GRID_CHUNK_BYTES each, so the peak does not grow with the image's
    height.
    """
    h, w = img.shape
    if BLOCK_SIZE > h or BLOCK_SIZE > w:
        raise ImageTooSmallError(f"block {BLOCK_SIZE}x{BLOCK_SIZE} larger than image {h}x{w}")
    block_max = np.empty((-(-h // BLOCK_SIZE), -(-w // BLOCK_SIZE)), dtype=np.uint8)
    block_min = np.empty_like(block_max)
    for r0, c0, tiles in _tiles(img, mode="edge"):
        rows, cols = tiles.shape[0], tiles.shape[2]
        step = max(1, GRID_CHUNK_BYTES // (cols * BLOCK_SIZE))
        for r in range(0, rows, step):
            part = tiles[r : r + step]
            at = np.s_[r0 + r : r0 + r + len(part), c0 : c0 + cols]
            part.max(axis=1).transpose(2, 0, 1).copy().max(axis=0, out=block_max[at])
            part.min(axis=1).transpose(2, 0, 1).copy().min(axis=0, out=block_min[at])
    # a block's max is never below its min, so the uint8 range cannot wrap
    return BlockGrid(h, w, block_max - block_min >= T_VAR, block_max, block_min)


def _component_roots(n, a, b):
    """Union-find over nodes 0..n-1 joined by the edges (a[i], b[i]).

    Every round hooks the larger parent of each edge whose ends' parents
    still differ under the smaller one, then halves every path twice by
    pointer jumping.  A node's parent is never larger than the node and
    never leaves its component.  Once no edge is split, every node of a
    component has one parent, which is in the component and so its own
    parent: each node ends at the smallest node of its component, with no
    further compression.
    """
    parent = np.arange(n)
    while True:
        ra, rb = parent[a], parent[b]
        split = ra != rb
        if not split.any():
            return parent
        ra, rb = ra[split], rb[split]
        np.minimum.at(parent, np.maximum(ra, rb), np.minimum(ra, rb))
        parent = parent[parent]
        parent = parent[parent]


def assemble_regions(grid):
    """Group 8-connected information blocks into regions (unclassified) and
    return their boxes as one (m, 4) int array of rows x, y, w, h.

    Components are labelled over horizontal runs of IB blocks rather than
    blocks: a run [s, e) in row r touches a run [s2, e2) in row r + 1 iff
    s2 <= e and s <= e2 (ends exclusive, diagonals included).  Each run is
    found as a pair of raster keys row * (cols + 1) + column, its start and
    its end, by imaging.runs over the raveled label rows with one
    background column after each row, which keeps every run inside its
    row.  Regions are numbered by their first block in raster order (the
    root mask of _component_roots and its cumsum), then stably sorted by
    bounding-box origin (y, x).  The region of every IB, in raster order,
    is recorded in grid.block_region.
    """
    rows, cols = grid.labels.shape
    width = cols + 1
    padded = np.zeros((rows, width), dtype=bool)
    padded[:, :cols] = grid.labels
    key_start, key_end = runs(padded.ravel())
    key_end += 1
    run_row, run_start = np.divmod(key_start, width)
    run_end = key_end - run_row * width

    # The keys are sorted over all runs, so one searchsorted per side finds,
    # for every run, the contiguous range [lo, hi) of runs in the next row
    # that touch it.
    lo = np.searchsorted(key_end, key_start + width, side="left")
    hi = np.searchsorted(key_start, key_end + width, side="right")
    fan = np.maximum(hi - lo, 0)
    first = np.cumsum(fan) - fan
    a = np.repeat(np.arange(len(fan)), fan)
    b = np.repeat(lo - first, fan) + np.arange(fan.sum())
    parent = _component_roots(len(fan), a, b)
    is_root = parent == np.arange(len(fan))
    roots = np.flatnonzero(is_root)
    comp = (np.cumsum(is_root) - 1)[parent]

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
    grid.block_region = np.repeat(rank[comp], key_end - key_start)

    x = left[order] * BLOCK_SIZE
    y = top[order] * BLOCK_SIZE
    w = np.minimum(right[order] * BLOCK_SIZE, grid.image_w) - x
    h = np.minimum((bottom[order] + 1) * BLOCK_SIZE, grid.image_h) - y
    return np.stack((x, y, w, h), axis=1)


def compute_features(img, grid, boxes):
    """The features of every region, in one pass: a dict of the parallel
    arrays area, aspect_ratio, info_pixel_density and coverage_ratio,
    named as the Regions columns they become.

    `boxes` are what assemble_regions returned for `grid`.  A pixel is dark
    when it is below the midpoint of its region's extremes.  The IB tiles
    of each part of _tiles are gathered a chunk of FEATURE_CHUNK_BYTES at a
    time, each tile row as one BLOCK_SIZE-byte item (a byte-wise gather
    costs about six times as much), and compared as an (IBs, BLOCK_SIZE**2)
    array with their region's uint8 threshold; the mask is bit-packed per
    IB and its set bits counted with np.bitwise_count.  So the tiles and
    their mask never hold more than a chunk each, and the rest of the peak
    is a few arrays with one entry per IB, among them the dark count of
    each IB, which one np.bincount sums per region.
    """
    m = len(boxes)
    rows, cols = grid.labels.shape
    br, bc = np.divmod(np.flatnonzero(grid.labels), cols)
    region = grid.block_region
    # A run's IBs are consecutive in raster order and share a region, so the
    # extremes are reduced per stretch of one region first, then per region.
    first = np.flatnonzero(np.diff(region, prepend=-1))
    vmin = np.full(m, 255, dtype=np.uint8)
    vmax = np.zeros(m, dtype=np.uint8)
    np.minimum.at(vmin, region[first], np.minimum.reduceat(grid.block_min[br, bc], first))
    np.maximum.at(vmax, region[first], np.maximum.reduceat(grid.block_max[br, bc], first))
    # lo + hi + 1 overflows uint8, the midpoint itself is at most 255
    threshold = midpoint(vmin.astype(np.int16), vmax).astype(np.uint8)

    # 255 is never below a midpoint, so padding is never dark.  A tile row
    # is gathered as one BLOCK_SIZE-byte item, which needs contiguous image
    # rows: a loaded image has them, and only a strided view is copied.
    img = np.ascontiguousarray(img)
    chunk = max(1, FEATURE_CHUNK_BYTES // BLOCK_SIZE**2)
    dark = np.empty(len(region), dtype=np.intp)
    for r0, c0, tiles in _tiles(img, constant_values=255):
        inside = np.flatnonzero((br >= r0) & (br < r0 + tiles.shape[0])
                                & (bc >= c0) & (bc < c0 + tiles.shape[2]))
        tile_rows = tiles.view(np.dtype((np.void, BLOCK_SIZE)))[..., 0]
        # One expression a chunk, so that each temporary is freed once it
        # is read and none outlives its chunk.
        for start in range(0, len(inside), chunk):
            ib = inside[start : start + chunk]
            dark[ib] = np.bitwise_count(np.packbits(
                tile_rows[br[ib] - r0, :, bc[ib] - c0].view(np.uint8)
                < threshold[region[ib]][:, None], axis=1)).sum(axis=1)
    tile_h = np.minimum(BLOCK_SIZE, grid.image_h - BLOCK_SIZE * np.arange(rows))
    tile_w = np.minimum(BLOCK_SIZE, grid.image_w - BLOCK_SIZE * np.arange(cols))
    pixels = np.bincount(region, weights=tile_h[br] * tile_w[bc], minlength=m)
    w, h = boxes[:, 2], boxes[:, 3]
    return dict(
        area=np.bincount(region, minlength=m),
        aspect_ratio=w / h,
        info_pixel_density=np.bincount(region, weights=dark, minlength=m) / pixels,
        coverage_ratio=pixels / (w * h),
    )


def classify_region(table):
    """The text gate: a bool array, True (TR) where every geometric gate
    passes and False (NR) otherwise; every bound is inclusive.  `table`
    maps the feature column names of Regions to parallel arrays:
    compute_features' dict, or vars() of a table."""
    aspect, density = table["aspect_ratio"], table["info_pixel_density"]
    return (
        (table["area"] >= MIN_AREA_BLOCKS)
        & (aspect >= AR_MIN)
        & (aspect <= AR_MAX)
        & (density >= DENS_MIN)
        & (density <= DENS_MAX)
        & (table["coverage_ratio"] >= COV_MIN)
    )


def extract_regions(img):
    """Full block pipeline on BLOCK_SIZE blocks; returns the Regions table
    of every region (TR and NR), ordered top-to-bottom then left-to-right by
    bounding box origin."""
    grid = classify_grid(img)
    boxes = assemble_regions(grid)
    features = compute_features(img, grid, boxes)
    x, y, w, h = boxes.T
    return Regions(x=x, y=y, w=w, h=h, **features, text=classify_region(features))


def format_region_dump(regions):
    """The region dump of a Regions table: one line per region, its fields
    `x y w h TR|NR area aspect density coverage`, the features to four
    decimals."""
    rows = zip(regions.x.tolist(), regions.y.tolist(), regions.w.tolist(),
               regions.h.tolist(), [TR if t else NR for t in regions.text.tolist()],
               regions.area.tolist(), regions.aspect_ratio.tolist(),
               regions.info_pixel_density.tolist(), regions.coverage_ratio.tolist())
    return "".join("%d %d %d %d %s %d %.4f %.4f %.4f\n" % row for row in rows)


def parse_region_dump(text):
    """The Regions table of a region dump; blank lines are skipped.  Any
    other line must hold exactly the nine fields format_region_dump writes,
    with integer x, y, w, h and area, a box of positive size and a kind of
    TR or NR, or ValueError is raised."""
    rows = []
    for line in text.splitlines():
        parts = line.split()
        if not parts:
            continue
        if len(parts) != 9 or parts[4] not in (TR, NR):
            raise ValueError(
                f"region line needs x y w h TR|NR area aspect density coverage: {line!r}")
        x, y, w, h, area = (int(p) for p in parts[:4] + parts[5:6])
        if w < 1 or h < 1:
            raise ValueError(f"region box must have positive size: {line!r}")
        rows.append((x, y, w, h, area, *map(float, parts[6:]), parts[4] == TR))
    columns = list(zip(*rows)) or [()] * 9
    dtypes = [np.intp] * 5 + [np.float64] * 3 + [bool]
    return Regions(*(np.array(c, dtype=t) for c, t in zip(columns, dtypes)))
