import tracemalloc
from collections import deque

import numpy as np
import pytest

from cardocr import imaging, regions as rg, synth
from cardocr.config import PipelineConfig
from cardocr.imaging import Rect
from reference import classify_region, region_dump


def tile_rect(grid, r, c):
    """Pixel rectangle of block (r, c); edge tiles shrink to the image."""
    y, x = r * grid.block_h, c * grid.block_w
    return Rect(x, y, min(grid.block_w, grid.image_w - x), min(grid.block_h, grid.image_h - y))


def flood_fill_oracle(labels):
    """Brute-force 8-connected component labeling used as the reference for
    assemble_regions."""
    rows, cols = labels.shape
    seen = np.zeros_like(labels, dtype=bool)
    comps = []
    for r in range(rows):
        for c in range(cols):
            if not labels[r, c] or seen[r, c]:
                continue
            stack = [(r, c)]
            seen[r, c] = True
            comp = set()
            while stack:
                br, bc = stack.pop()
                comp.add((br, bc))
                for dr in (-1, 0, 1):
                    for dc in (-1, 0, 1):
                        if dr == dc == 0:
                            continue
                        nr, nc = br + dr, bc + dc
                        if 0 <= nr < rows and 0 <= nc < cols:
                            if labels[nr, nc] and not seen[nr, nc]:
                                seen[nr, nc] = True
                                stack.append((nr, nc))
            comps.append(frozenset(comp))
    return set(comps)


def reference_extract(img, cfg):
    """Per-block reference for extract_regions: a BFS over blocks, then two
    slicing passes over each region's blocks for its features.  Returns the
    regions as rows, dicts keyed by the Regions column names, and, for
    each, its member blocks as a sorted (row, col) list."""
    grid = rg.partition_blocks(img, cfg.block_h, cfg.block_w)
    labels = rg.classify_grid(img, grid, cfg.t_var).labels
    seen = np.zeros_like(labels)
    found = []
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
                for nr in range(max(br - 1, 0), min(br + 2, grid.rows)):
                    for nc in range(max(bc - 1, 0), min(bc + 2, grid.cols)):
                        if labels[nr, nc] and not seen[nr, nc]:
                            seen[nr, nc] = True
                            queue.append((nr, nc))
            blocks.sort()
            rects = [tile_rect(grid, br, bc) for br, bc in blocks]
            x1, y1 = min(b.x for b in rects), min(b.y for b in rects)
            x2, y2 = max(b.x2 for b in rects), max(b.y2 for b in rects)
            found.append((blocks, dict(x=x1, y=y1, w=x2 - x1, h=y2 - y1)))
    found.sort(key=lambda pair: (pair[1]["y"], pair[1]["x"]))
    for blocks, row in found:
        windows = []
        for br, bc in blocks:
            rect = tile_rect(grid, br, bc)
            windows.append(img[rect.y : rect.y2, rect.x : rect.x2])
        member_pixels = sum(w.size for w in windows)
        vmin = min(int(w.min()) for w in windows)
        vmax = max(int(w.max()) for w in windows)
        midpoint = (vmin + vmax) / 2.0
        dark = sum(int(np.count_nonzero(w < midpoint)) for w in windows)
        row.update(
            aspect_ratio=row["w"] / row["h"],
            info_pixel_density=dark / member_pixels,
            area=len(blocks),
            coverage_ratio=member_pixels / (row["w"] * row["h"]),
        )
        row["text"] = classify_region(row, cfg) == rg.TR
    return [row for _, row in found], [blocks for blocks, _ in found]


def assemble(grid):
    """assemble_regions on a labelled grid.  Returns the region boxes as
    Rects and, for each, its member blocks as a sorted (row, col) list, read
    back from grid.block_region and the raster order of
    np.nonzero(grid.labels)."""
    boxes = rg.assemble_regions(grid)
    assert boxes.shape == (len(boxes), 4) and boxes.dtype.kind == "i"
    members = [[] for _ in boxes]
    for r, c, k in zip(*np.nonzero(grid.labels), grid.block_region, strict=True):
        members[k].append((int(r), int(c)))
    return [Rect(*box) for box in boxes.tolist()], members


def make_grid(labels):
    labels = np.asarray(labels, dtype=bool)
    rows, cols = labels.shape
    grid = rg.BlockGrid(16, 16, rows, cols, rows * 16, cols * 16)
    grid.labels = labels
    return grid


def double_spiral(n):
    """Two one-block-wide square spirals wound in from opposite corners of
    an n x n grid, every arm one empty block from the next, drawn a block
    at a time each.  For even n they meet at the centre as one component."""
    labels = np.zeros((n, n), dtype=bool)
    turtles = [[0, 0, 0, 1], [n - 1, n - 1, 0, -1]]  # row, col, heading
    labels[0, 0] = labels[n - 1, n - 1] = True

    def free(r, c, dr, dc):
        # the next block is inside and not set, nor is the one beyond it
        nr, nc = r + dr, c + dc
        if not (0 <= nr < n and 0 <= nc < n) or labels[nr, nc]:
            return False
        fr, fc = nr + dr, nc + dc
        return not (0 <= fr < n and 0 <= fc < n and labels[fr, fc])

    while turtles:
        for turtle in list(turtles):
            r, c, dr, dc = turtle
            if not free(r, c, dr, dc):
                dr, dc = dc, -dr  # turn right
                if not free(r, c, dr, dc):
                    turtles.remove(turtle)
                    continue
            turtle[:] = r + dr, c + dc, dr, dc
            labels[r + dr, c + dc] = True
    return labels


def comb(rows, teeth):
    """Teeth one block wide and one apart, joined only along the bottom row."""
    labels = np.zeros((rows, 2 * teeth - 1), dtype=bool)
    labels[:, ::2] = True
    labels[-1] = True
    return labels


def staircase(n):
    """One block per row, each one column right of the row above."""
    return np.eye(n, dtype=bool)


def square_wave(bits):
    """One-block-wide strokes joined alternately at a peak and along the
    bottom row, the k-th peak in row bit-reverse(k).  The peaks are local
    minima of the raster order at every scale, so a union-find that hooks
    roots onto their smallest neighbour needs bits + 1 hook rounds."""
    n = 1 << bits
    labels = np.zeros((n + 1, 4 * n - 1), dtype=bool)
    for k in range(n):
        top = int(format(k, f"0{bits}b")[::-1], 2)
        labels[top, 4 * k : 4 * k + 3] = True
        labels[top:, 4 * k] = labels[top:, 4 * k + 2] = True
        labels[n, 4 * k + 2 : 4 * k + 5] = True
    return labels


def salt_and_pepper_card():
    """A 1024x768 gray card: one text band and 0.2% salt-and-pepper."""
    spec = synth.CardSpec(
        width=1024, height=768, salt_pepper=0.002,
        bands=[synth.Band(text="Center for Microprocessor", x=60, y=80, scale=3)],
    )
    color, _ = synth.render_card(spec, seed=5)
    return imaging.to_grayscale(color)


def speckle_band(img, rect, rng, dark=30, p=0.3):
    """Stamp a text-like speckle pattern (for intensity variation) in rect."""
    window = img[rect.y : rect.y2, rect.x : rect.x2]
    mask = rng.random(window.shape) < p
    window[mask] = dark


class TestPartition:
    def test_exact_tiling(self):
        grid = rg.partition_blocks(np.zeros((32, 32), np.uint8), 16, 16)
        assert (grid.rows, grid.cols) == (2, 2)

    def test_ragged_tiling(self):
        grid = rg.partition_blocks(np.zeros((32, 33), np.uint8), 16, 16)
        assert (grid.rows, grid.cols) == (2, 3)
        assert tile_rect(grid, 0, 2).w == 1

    def test_block_too_large(self):
        with pytest.raises(ValueError, match="larger"):
            rg.partition_blocks(np.zeros((10, 10), np.uint8), 16, 16)

    def test_block_too_small(self):
        with pytest.raises(ValueError, match="at least"):
            rg.partition_blocks(np.zeros((32, 32), np.uint8), 2, 16)

    @pytest.mark.parametrize("h", [16, 17, 31, 32, 33])
    @pytest.mark.parametrize("w", [16, 20, 32, 47])
    def test_blocks_cover_image_exactly(self, h, w):
        grid = rg.partition_blocks(np.zeros((h, w), np.uint8), 16, 16)
        total = 0
        hits = np.zeros((h, w), dtype=int)
        for r in range(grid.rows):
            for c in range(grid.cols):
                rect = tile_rect(grid, r, c)
                total += rect.w * rect.h
                hits[rect.y : rect.y2, rect.x : rect.x2] += 1
        assert total == h * w
        assert (hits == 1).all()


def block_is_information(pixels, t_var):
    """classify_grid's label for an image that is exactly one block."""
    grid = rg.partition_blocks(pixels, *pixels.shape)
    return bool(rg.classify_grid(pixels, grid, t_var).labels[0, 0])


class TestClassifyBlock:
    def test_constant_block_is_background(self):
        assert not block_is_information(np.full((4, 4), 9, np.uint8), 40)

    def test_full_range_block_is_information(self):
        block = np.zeros((4, 4), np.uint8)
        block[0, 0] = 255
        assert block_is_information(block, 255)

    def test_spread_below_threshold(self):
        block = np.full((4, 4), 100, np.uint8)
        block[1, 1] = 135  # spread 35 < 40
        assert not block_is_information(block, 40)

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            block = rng.integers(0, 256, size=(5, 5), dtype=np.uint8)
            labels = [block_is_information(block, t) for t in range(0, 260, 20)]
            # once BB, raising the threshold can never flip back to IB
            first_bb = labels.index(False) if False in labels else len(labels)
            assert not any(labels[first_bb:])

    def test_classify_grid_matches_per_block(self):
        rng = np.random.default_rng(4)
        # a ragged edge, exact block multiples, a 1-pixel remainder on each axis
        for shape in [(37, 51), (32, 48), (16, 16), (33, 49), (17, 32)]:
            img = rng.integers(0, 256, size=shape, dtype=np.uint8)
            grid = rg.partition_blocks(img, 16, 16)
            rg.classify_grid(img, grid, 40)
            assert grid.labels.shape == (grid.rows, grid.cols)
            for r in range(grid.rows):
                for c in range(grid.cols):
                    rect = tile_rect(grid, r, c)
                    window = img[rect.y : rect.y2, rect.x : rect.x2]
                    assert grid.block_max[r, c] == window.max()
                    assert grid.block_min[r, c] == window.min()
                    spread = int(window.max()) - int(window.min())
                    assert grid.labels[r, c] == (spread >= 40)


class TestAssemble:
    def test_all_background(self):
        assert rg.assemble_regions(make_grid(np.zeros((3, 3)))).shape == (0, 4)

    def test_single_block(self):
        _, members = assemble(make_grid([[0, 0], [0, 1]]))
        assert members == [[(1, 1)]]

    def test_diagonal_blocks_connect(self):
        _, members = assemble(make_grid([[1, 0], [0, 1]]))
        assert members == [[(0, 0), (1, 1)]]

    def test_matches_flood_fill_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            labels = rng.random((6, 8)) < 0.4
            _, members = assemble(make_grid(labels))
            got = {frozenset(blocks) for blocks in members}
            assert len(got) == len(members)
            assert got == flood_fill_oracle(labels)

    @pytest.mark.parametrize("labels", [
        double_spiral(20), comb(12, 16), staircase(64), staircase(64)[:, ::-1],
        square_wave(4), np.random.default_rng(11).random((64, 64)) < 0.5,
    ], ids=["double_spiral", "comb", "staircase", "staircase_left", "square_wave",
            "dense_64x64"])
    def test_stress_grids_match_flood_fill_oracle(self, labels):
        _, members = assemble(make_grid(labels))
        got = {frozenset(blocks) for blocks in members}
        assert len(got) == len(members)
        assert got == flood_fill_oracle(labels)

    def test_long_shapes_are_one_region(self):
        for labels in (double_spiral(20), comb(12, 16), staircase(64), square_wave(4)):
            boxes, members = assemble(make_grid(labels))
            assert len(boxes) == 1 and len(members[0]) == int(labels.sum())

    def test_component_roots_are_smallest_nodes(self):
        rng = np.random.default_rng(12)
        for _ in range(40):
            n = int(rng.integers(1, 200))
            k = int(rng.integers(0, 2 * n))
            a, b = rng.integers(0, n, size=(2, k))
            want = list(range(n))  # smallest node of each component

            def find(x):
                while want[x] != x:
                    x = want[x]
                return x

            for i, j in zip(a.tolist(), b.tolist()):
                ri, rj = find(i), find(j)
                want[max(ri, rj)] = min(ri, rj)
            want = [find(x) for x in range(n)]
            assert rg._component_roots(n, a, b).tolist() == want

    def test_regions_disjoint_and_exclude_background(self):
        rng = np.random.default_rng(10)
        labels = rng.random((8, 8)) < 0.5
        grid = make_grid(labels)
        boxes, members = assemble(grid)
        # one region id per IB, and every region holds a block
        assert grid.block_region.shape == (int(labels.sum()),)
        assert sorted(set(grid.block_region.tolist())) == list(range(len(boxes)))
        for box, blocks in zip(boxes, members):
            rects = [tile_rect(grid, r, c) for r, c in blocks]
            x1, y1 = min(b.x for b in rects), min(b.y for b in rects)
            x2, y2 = max(b.x2 for b in rects), max(b.y2 for b in rects)
            assert box == Rect(x1, y1, x2 - x1, y2 - y1)


def features(**columns):
    """Feature columns as compute_features returns them, parallel arrays
    keyed by the Regions column names; a column given as a scalar is
    repeated to the length of the others."""
    base = dict(aspect_ratio=5.0, info_pixel_density=0.2, area=10, coverage_ratio=1.0)
    base.update(columns)
    n = max(np.size(v) for v in base.values())
    return {k: np.broadcast_to(v, (n,)) for k, v in base.items()}


class TestClassifyRegion:
    def kind(self, **columns):
        text = rg.classify_region(features(**columns), PipelineConfig())
        assert text.shape == (1,) and text.dtype == bool
        return rg.TR if text[0] else rg.NR

    def test_small_region_rejected(self):
        assert self.kind(area=1) == rg.NR

    def test_elongated_text_band_accepted(self):
        assert self.kind(aspect_ratio=6.0, info_pixel_density=0.15,
                         coverage_ratio=0.9, area=12) == rg.TR

    def test_square_dense_blob_rejected(self):
        assert self.kind(aspect_ratio=1.0, info_pixel_density=0.85) == rg.NR

    def test_low_coverage_ring_rejected(self):
        assert self.kind(coverage_ratio=0.3) == rg.NR

    def test_empty_table(self):
        table = rg.parse_region_dump("")
        assert rg.classify_region(vars(table), PipelineConfig()).shape == (0,)

    # (feature, config field, side): the region outside the bound lies one
    # float step (one block for area) below a lower bound or above an upper
    # one
    BOUNDS = [
        ("area", "min_area_blocks", -1),
        ("aspect_ratio", "ar_min", -1),
        ("aspect_ratio", "ar_max", +1),
        ("info_pixel_density", "dens_min", -1),
        ("info_pixel_density", "dens_max", +1),
        ("coverage_ratio", "cov_min", -1),
    ]

    @pytest.mark.parametrize("feature, bound, side", BOUNDS)
    def test_each_bound_is_inclusive(self, feature, bound, side):
        cfg = PipelineConfig()
        at = getattr(cfg, bound)
        if feature == "area":
            outside = at + side
        else:
            outside = float(np.nextafter(at, side * np.inf))
        f = features(**{feature: np.array([at, outside])})
        assert rg.classify_region(f, cfg).tolist() == [True, False]
        rows = [{k: v[i].item() for k, v in f.items()} for i in range(2)]
        assert [classify_region(row, cfg) for row in rows] == [rg.TR, rg.NR]


def text_regions(img, cfg):
    return [r for r in rg.extract_regions(img, cfg) if r.kind == rg.TR]


class TestExtract:
    def test_blank_image(self):
        img = np.full((128, 256), 200, np.uint8)
        assert text_regions(img, PipelineConfig()) == []

    def test_two_bands_and_decoy(self):
        rng = np.random.default_rng(21)
        img = np.full((320, 480), 220, np.uint8)
        band1 = Rect(32, 48, 320, 32)
        band2 = Rect(32, 160, 256, 32)
        speckle_band(img, band1, rng)
        speckle_band(img, band2, rng)
        # big filled square: only its boundary blocks carry variation
        img[240:312, 320:392] = 60
        cfg = PipelineConfig()
        all_regions = rg.extract_regions(img, cfg)
        trs = [r for r in all_regions if r.kind == rg.TR]
        nrs = [r for r in all_regions if r.kind == rg.NR]
        assert len(trs) == 2
        assert len(nrs) >= 1
        for truth, got in zip([band1, band2], trs):
            assert abs(got.bbox.y - truth.y) <= cfg.block_h
            assert abs(got.bbox.x - truth.x) <= cfg.block_w
            assert abs(got.bbox.y2 - truth.y2) <= cfg.block_h
            assert abs(got.bbox.x2 - truth.x2) <= cfg.block_w

    def test_ordering_and_determinism(self):
        rng = np.random.default_rng(22)
        img = np.full((320, 480), 220, np.uint8)
        speckle_band(img, Rect(200, 220, 200, 32), rng)
        speckle_band(img, Rect(16, 32, 200, 32), rng)
        speckle_band(img, Rect(16, 120, 280, 32), rng)
        cfg = PipelineConfig()
        first = text_regions(img, cfg)
        second = text_regions(img, cfg)
        origins = [(r.bbox.y, r.bbox.x) for r in first]
        assert origins == sorted(origins)
        assert [(r.bbox, r.kind) for r in first] == [(r.bbox, r.kind) for r in second]

    def test_interior_region_area_is_block_multiple(self):
        rng = np.random.default_rng(23)
        img = np.full((320, 480), 220, np.uint8)
        speckle_band(img, Rect(32, 64, 320, 32), rng)
        cfg = PipelineConfig()
        grid = rg.partition_blocks(img, cfg.block_h, cfg.block_w)
        rg.classify_grid(img, grid, cfg.t_var)
        for blocks in assemble(grid)[1]:
            interior = all(r < grid.rows - 1 and c < grid.cols - 1 for r, c in blocks)
            if interior:
                pixels = sum(
                    tile_rect(grid, r, c).w * tile_rect(grid, r, c).h for r, c in blocks
                )
                assert pixels % (cfg.block_h * cfg.block_w) == 0


def row_region(row):
    return rg.Region(bbox=Rect(row["x"], row["y"], row["w"], row["h"]),
                     kind=rg.TR if row["text"] else rg.NR)


def assert_table_matches(table, want):
    """A Regions table against reference rows, column by column and bit for
    bit, as arrays, as the Regions it builds and as its dump."""
    assert len(table) == len(want)
    for name in vars(table):
        assert getattr(table, name).tolist() == [row[name] for row in want]
    kinds = [getattr(table, name).dtype.kind for name in vars(table)]
    assert kinds == ["i"] * 5 + ["f"] * 3 + ["b"]
    regions = [row_region(row) for row in want]
    assert list(table) == regions
    assert [table[i] for i in range(len(table))] == regions
    assert rg.format_region_dump(table) == region_dump(want)


class TestMatchesReference:
    def assert_matches(self, img, cfg=None):
        """extract_regions against the reference: the same table, dump and
        member blocks per region.  Returns the table and the blocks."""
        cfg = cfg or PipelineConfig()
        got = rg.extract_regions(img, cfg)
        want, want_blocks = reference_extract(img, cfg)
        assert_table_matches(got, want)
        grid = rg.partition_blocks(img, cfg.block_h, cfg.block_w)
        rg.classify_grid(img, grid, cfg.t_var)
        boxes, blocks = assemble(grid)
        assert boxes == [row_region(row).bbox for row in want]
        assert blocks == want_blocks
        return got, blocks

    def test_random_images(self):
        rng = np.random.default_rng(31)
        shapes = [(37, 51), (33, 49), (17, 32), (64, 64), (96, 160), (130, 75)]
        for i in range(60):
            img = np.full(shapes[i % len(shapes)], 220, np.uint8)
            mask = rng.random(img.shape) < rng.uniform(0.0, 0.05)
            img[mask] = rng.integers(0, 256, size=int(mask.sum()))
            # small blocks give many regions with ragged edge tiles
            block = int(rng.integers(4, 17))
            self.assert_matches(img, PipelineConfig(block_h=block, block_w=block))
            self.assert_matches(img)

    def test_ragged_image(self):
        rng = np.random.default_rng(32)
        img = rng.integers(0, 256, size=(37, 53), dtype=np.uint8)
        img[rng.random(img.shape) < 0.7] = 220
        table, _ = self.assert_matches(img)
        assert len(table) > 0

    def test_all_background(self):
        table, blocks = self.assert_matches(np.full((96, 128), 220, np.uint8))
        assert len(table) == 0 and blocks == []
        assert list(table) == [] and rg.format_region_dump(table) == ""
        assert all(getattr(table, name).shape == (0,) for name in vars(table))

    def test_one_block_image(self):
        img = np.full((16, 16), 220, np.uint8)
        img[3:9, 4:12] = 20
        table, blocks = self.assert_matches(img)
        assert blocks == [[(0, 0)]]
        assert table[0].bbox == Rect(0, 0, 16, 16) and table.area[0] == 1

    def test_one_information_block(self):
        img = np.full((64, 96), 220, np.uint8)
        img[37, 70] = 0
        table, blocks = self.assert_matches(img)
        assert blocks == [[(2, 4)]]
        assert len(table) == 1 and list(table) == [table[0]] == [table[-1]]
        assert table[0].bbox == Rect(64, 32, 16, 16) and table[0].kind == rg.NR
        assert table.info_pixel_density[0] == 1 / 256

    def test_salt_and_pepper_card(self):
        regions, _ = self.assert_matches(salt_and_pepper_card())
        assert len(regions) > 50

    def test_suite_noise_cards(self, tmp_path):
        # the cards of perfbench's suite_noise workload
        params = synth.SuiteParams(
            count=5, seed=17, skew_min=-2, skew_max=2, sigma_min=0, sigma_max=5,
            salt_pepper_min=0.002, salt_pepper_max=0.002,
        )
        synth.generate_suite(tmp_path, params)
        for base in synth.suite_card_paths(tmp_path):
            gray, _, _ = synth.load_suite_card(base)
            regions, _ = self.assert_matches(gray)
            assert len(regions) > 50

    @pytest.mark.parametrize("block_h, block_w", [(5, 7), (4, 6)])
    def test_non_square_blocks_on_ragged_images(self, block_h, block_w):
        # a 5x7 block's dark mask ends in a partial byte when bit-packed, a
        # 4x6 block's does not; no image is a whole number of blocks
        rng = np.random.default_rng(34)
        cfg = PipelineConfig(block_h=block_h, block_w=block_w)
        for shape in [(37, 53), (41, 50), (23, 29)]:
            for _ in range(5):
                img = np.full(shape, 220, np.uint8)
                mask = rng.random(shape) < rng.uniform(0.01, 0.05)
                img[mask] = rng.integers(0, 256, size=int(mask.sum()))
                table, _ = self.assert_matches(img, cfg)
                assert len(table) > 0

    def test_every_block_is_information(self):
        # t_var=0 makes every block an IB, so an image is one region
        cfg = PipelineConfig(t_var=0)
        for value in (0, 255):
            table, _ = self.assert_matches(np.full((37, 53), value, np.uint8), cfg)
            assert len(table) == 1 and table.info_pixel_density[0] == 0
        # extremes 254 and 255 put the threshold at 255: every 254 is dark,
        # the 255 padding of the ragged edge tiles is not
        img = np.full((37, 53), 255, np.uint8)
        img[np.random.default_rng(35).random(img.shape) < 0.3] = 254
        table, _ = self.assert_matches(img, cfg)
        assert table.info_pixel_density[0] == np.count_nonzero(img == 254) / img.size
        rng = np.random.default_rng(36)
        for _ in range(5):
            img = rng.integers(0, 256, size=(41, 50), dtype=np.uint8)
            table, _ = self.assert_matches(img, cfg)
            assert len(table) == 1

    def test_shared_origin_keeps_raster_order(self):
        # {(0, 0)} and {(0, 2), (1, 2), (2, 1), (2, 0)} are not 8-connected
        # but both have their bbox origin at block (0, 0)
        img = np.full((64, 64), 220, np.uint8)
        for r, c in [(0, 0), (0, 2), (1, 2), (2, 1), (2, 0)]:
            img[16 * r + 5, 16 * c + 5] = 0
        regions, blocks = self.assert_matches(img)
        assert blocks == [[(0, 0)], [(0, 2), (1, 2), (2, 0), (2, 1)]]
        assert regions[0].bbox.x == regions[1].bbox.x == 0
        assert regions[0].bbox.y == regions[1].bbox.y == 0


class TestFeatureMemory:
    # compute_features' transient peak on this card when it counted dark
    # pixels with np.count_nonzero over the gathered tiles (c00164b, numpy
    # 2.4, after one warm-up call).  The bit-packed count stays below it
    # only because the tiles are released before the mask is packed.
    COUNT_NONZERO_PEAK_BYTES = 451_676

    def test_peak_no_higher_than_before(self):
        img = salt_and_pepper_card()
        cfg = PipelineConfig()
        grid = rg.partition_blocks(img, cfg.block_h, cfg.block_w)
        rg.classify_grid(img, grid, cfg.t_var)
        boxes = rg.assemble_regions(grid)
        rg.compute_features(img, grid, boxes)
        was_tracing = tracemalloc.is_tracing()
        if not was_tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            rg.compute_features(img, grid, boxes)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not was_tracing:
                tracemalloc.stop()
        assert peak <= self.COUNT_NONZERO_PEAK_BYTES


def criterion9_card():
    """The gray 3 MP card of acceptance criterion 9."""
    spec = synth.CardSpec(width=2048, height=1536, noise_sigma=4.0, bands=[
        synth.Band("Ayatullah Faruk Mollah", 100, 150, 6),
        synth.Band("School of Mobile Computing", 100, 400, 5),
        synth.Band("Jadavpur University Kolkata", 100, 650, 5),
        synth.Band("Phone: +91 33 2414 6666", 100, 900, 5),
        synth.Band("www.jaduniv.edu.in", 100, 1150, 5),
    ])
    return imaging.to_grayscale(synth.render_card(spec, seed=3)[0])


class TestDump:
    def test_round_trip(self):
        table = rg.Regions(
            x=np.array([10]), y=np.array([20]), w=np.array([100]), h=np.array([20]),
            area=np.array([12]), aspect_ratio=np.array([5.0]),
            info_pixel_density=np.array([0.21]), coverage_ratio=np.array([0.97]),
            text=np.array([True]),
        )
        text = rg.format_region_dump(table)
        assert text.splitlines()[0].startswith("10 20 100 20 TR 12 5.0000")
        back = rg.parse_region_dump(text)
        assert back[0].bbox == Rect(10, 20, 100, 20)
        assert back[0].kind == rg.TR

    def test_empty(self):
        empty = rg.parse_region_dump("")
        assert rg.format_region_dump(empty) == ""
        assert list(empty) == []

    def assert_round_trip(self, table):
        """parse_region_dump gives back the boxes, kinds and areas exactly
        and the features to the dump's four decimals."""
        text = rg.format_region_dump(table)
        back = rg.parse_region_dump(text)
        assert [getattr(back, name).dtype.kind for name in vars(back)] == \
            [getattr(table, name).dtype.kind for name in vars(table)]
        for name in ("x", "y", "w", "h", "area", "text"):
            assert getattr(back, name).tolist() == getattr(table, name).tolist()
        for name in ("aspect_ratio", "info_pixel_density", "coverage_ratio"):
            np.testing.assert_allclose(getattr(back, name), getattr(table, name),
                                       rtol=0, atol=5e-5)
        assert rg.format_region_dump(back) == text
        return back

    def test_round_trip_criterion9_card(self):
        table = rg.extract_regions(criterion9_card(), PipelineConfig())
        assert np.count_nonzero(self.assert_round_trip(table).text) == 5

    def test_round_trip_nr_regions(self):
        table = rg.extract_regions(salt_and_pepper_card(), PipelineConfig())
        assert not self.assert_round_trip(table).text.all()

    def test_round_trip_empty_table(self):
        table = rg.extract_regions(np.full((96, 128), 220, np.uint8), PipelineConfig())
        assert len(self.assert_round_trip(table)) == 0

    # the shapes tests/test_cli.py does not run through `eval`
    @pytest.mark.parametrize("line", [
        "1 2 3 4 TR 1 1.0",                # some informational fields missing
        "1 2 3 4 TR 1.5 1.0 0.1 1.0",      # fractional area
        "1 2 3 4 TR 1 wide 0.1 1.0",       # a feature that is not a number
    ])
    def test_malformed_line_raises(self, line):
        with pytest.raises(ValueError):
            rg.parse_region_dump("0 0 16 16 NR 1 1.0000 0.5000 1.0000\n" + line + "\n")

    def test_blank_lines_skipped(self):
        table = rg.parse_region_dump("\n1 2 3 4 TR 1 0.7500 0.1000 1.0000\n  \n")
        assert list(table) == [rg.Region(bbox=Rect(1, 2, 3, 4), kind=rg.TR)]
