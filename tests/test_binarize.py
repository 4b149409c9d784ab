import numpy as np
import pytest

from cardocr import binarize as bz


def reference_binarize(region, promotion=True):
    """Nested-loop reference implementation (the oracle)."""
    h, w = region.shape
    fg = np.zeros((h, w), dtype=bool)
    g_min, g_max = int(region.min()), int(region.max())
    for y in range(h):
        for x in range(w):
            fg[y, x] = region[y, x] < (g_min + g_max) / 2.0
    if not promotion:
        return fg
    out = fg.copy()
    for y in range(h):
        for x in range(w):
            if fg[y, x]:
                continue
            n = 0
            for dy in (-1, 0, 1):
                for dx in (-1, 0, 1):
                    if dy == dx == 0:
                        continue
                    yy, xx = y + dy, x + dx
                    if 0 <= yy < h and 0 <= xx < w and fg[yy, xx]:
                        n += 1
            if n > 4:
                out[y, x] = True
    return out


class TestPassOne:
    def test_global_threshold_rule(self):
        region = np.array([[50, 80, 120, 150]], dtype=np.uint8)
        # G_min=50, G_max=150 -> threshold 100
        fg = bz.threshold_region(region)
        assert list(fg[0]) == [True, True, False, False]

    def test_strict_less_than(self):
        region = np.array([[0, 100, 200]], dtype=np.uint8)
        fg = bz.threshold_region(region)
        assert list(fg[0]) == [True, False, False]  # 100 is not < 100

    def test_constant_region_all_background(self, caplog):
        region = np.full((4, 4), 77, dtype=np.uint8)
        with caplog.at_level("WARNING"):
            fg = bz.binarize_region(region)
        assert not fg.any()
        assert any("constant region" in r.message for r in caplog.records)

    def test_inversion_symmetry_global(self):
        rng = np.random.default_rng(5)
        region = rng.integers(0, 256, size=(12, 9), dtype=np.uint8)
        fg = bz.threshold_region(region)
        inv = bz.threshold_region((255 - region).astype(np.uint8))
        g_min, g_max = int(region.min()), int(region.max())
        t = (g_min + g_max) / 2.0
        inv_t = ((255 - g_max) + (255 - g_min)) / 2.0
        at_edge = (region == t) | ((255 - region) == inv_t)
        assert np.array_equal(fg[~at_edge], ~inv[~at_edge])


class TestPromotion:
    def test_five_neighbors_promoted(self):
        region = np.full((3, 3), 200, dtype=np.uint8)
        # corner L: left column + bottom row dark -> center bg pixel has
        # exactly 5 foreground neighbors
        region[:, 0] = 10
        region[2, :] = 10
        fg = bz.binarize_region(region)
        assert fg[1, 1]

    def test_four_neighbors_not_promoted(self):
        region = np.full((3, 3), 200, dtype=np.uint8)
        region[0, 0] = region[0, 2] = region[2, 0] = region[2, 2] = 10
        fg = bz.binarize_region(region)
        assert not fg[1, 1]

    def test_checkerboard_no_promotion(self):
        region = np.zeros((5, 5), dtype=np.uint8)
        region[::2, 1::2] = 255
        region[1::2, ::2] = 255
        fg = bz.binarize_region(region)
        # interior background pixels have exactly 4 foreground neighbors
        assert np.array_equal(fg, region == 0)
        assert np.array_equal(fg, reference_binarize(region))

    def test_promotion_is_superset(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            region = rng.integers(0, 256, size=(8, 8), dtype=np.uint8)
            base = bz.threshold_region(region)
            full = bz.binarize_region(region)
            assert (full | base).sum() == full.sum()
            assert (full & base).sum() == base.sum()

    def test_neighbor_counts_borders(self):
        mask = np.ones((3, 3), dtype=bool)
        counts = bz.neighbor_counts(mask)
        assert counts[1, 1] == 8
        assert counts[0, 0] == 3
        assert counts[0, 1] == 5


class TestAgainstReference:
    @pytest.mark.parametrize("seed", range(6))
    def test_global_matches_oracle(self, seed):
        rng = np.random.default_rng(seed)
        region = rng.integers(0, 256, size=(10, 13), dtype=np.uint8)
        got = bz.binarize_region(region)
        assert np.array_equal(got, reference_binarize(region))

    @pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (2, 2), (1, 2), (2, 1)])
    def test_degenerate_shapes_match_oracle(self, shape):
        rng = np.random.default_rng(sum(shape))
        for _ in range(20):
            region = rng.integers(0, 256, size=shape, dtype=np.uint8)
            assert np.array_equal(bz.binarize_region(region), reference_binarize(region))

    @pytest.mark.parametrize("seed", range(4))
    def test_dense_masks_match_oracle(self, seed):
        # about 70% dark: many background pixels have five or more dark
        # neighbours, so pass 2 promotes
        rng = np.random.default_rng(100 + seed)
        region = np.where(rng.random((17, 23)) < 0.7, 0, 255).astype(np.uint8)
        got = bz.binarize_region(region)
        assert (got & ~bz.threshold_region(region)).any()
        assert np.array_equal(got, reference_binarize(region))

    def test_all_true_mask_counts(self):
        counts = bz.neighbor_counts(np.ones((5, 7), dtype=bool))
        expected = np.full((5, 7), 8)
        expected[[0, -1], :] = expected[:, [0, -1]] = 5
        expected[[0, 0, -1, -1], [0, -1, 0, -1]] = 3
        assert np.array_equal(counts, expected)

    def test_two_level_pass_one_is_exact(self):
        # on a {0, 255} image pass 1 recovers exactly the 0-pixels
        rng = np.random.default_rng(42)
        mask = rng.random((9, 9)) < 0.4
        region = np.where(mask, 0, 255).astype(np.uint8)
        fg = bz.threshold_region(region)
        assert np.array_equal(fg, mask)

    def test_rerendered_output_pass_one_stable(self):
        # render the binarized result back to {0, 255}: pass 1 of a second
        # binarization reproduces the first result exactly
        rng = np.random.default_rng(43)
        region = rng.integers(0, 256, size=(10, 10), dtype=np.uint8)
        first = bz.binarize_region(region)
        rendered = np.where(first, 0, 255).astype(np.uint8)
        second_p1 = bz.threshold_region(rendered)
        assert np.array_equal(second_p1, first)

    def test_idempotent_on_stable_patterns(self):
        # single strokes and checkerboards promote nothing, so a second full
        # binarization of the rendered result is a no-op
        patterns = []
        stroke = np.full((7, 7), 255, dtype=np.uint8)
        stroke[3, 1:6] = 0
        patterns.append(stroke)
        board = np.full((6, 6), 255, dtype=np.uint8)
        board[::2, ::2] = 0
        board[1::2, 1::2] = 0
        patterns.append(board)
        for region in patterns:
            first = bz.binarize_region(region)
            rendered = np.where(first, 0, 255).astype(np.uint8)
            second = bz.binarize_region(rendered)
            assert np.array_equal(second, first)


class TestEmptyRegion:
    def test_empty_region(self):
        with pytest.raises(ValueError):
            bz.binarize_region(np.zeros((0, 3), dtype=np.uint8))
