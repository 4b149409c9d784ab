import numpy as np
import pytest

from cardocr import segment as sg
from cardocr import synth
from cardocr.config import ConfigError, PipelineConfig
from cardocr.segment import EmptyRegionError, LineBand


def region_from_row_counts(counts, width=20):
    """Binary region whose horizontal histogram equals `counts`."""
    region = np.zeros((len(counts), width), dtype=bool)
    for row, count in enumerate(counts):
        region[row, :count] = True
    return region


def line_from_spans(spans, height=8, width=None):
    """Binary line with foreground column spans (start, end) inclusive."""
    width = width if width is not None else max(e for _, e in spans) + 2
    line = np.zeros((height, width), dtype=bool)
    for s, e in spans:
        line[2:6, s : e + 1] = True
    return line


class TestHistogram:
    def test_all_background(self):
        assert list(sg.horizontal_histogram(np.zeros((4, 5), bool))) == [0] * 4

    def test_full_row(self):
        region = np.zeros((4, 5), dtype=bool)
        region[2] = True
        assert list(sg.horizontal_histogram(region)) == [0, 0, 5, 0]

    def test_matches_brute_force(self):
        rng = np.random.default_rng(1)
        region = rng.random((4, 4)) < 0.5
        expected = [sum(1 for x in range(4) if region[y, x]) for y in range(4)]
        assert list(sg.horizontal_histogram(region)) == expected
        expected_v = [sum(1 for y in range(4) if region[y, x]) for x in range(4)]
        assert list(sg.vertical_histogram(region)) == expected_v

    def test_conservation(self):
        rng = np.random.default_rng(2)
        region = rng.random((9, 7)) < 0.3
        assert sg.horizontal_histogram(region).sum() == region.sum()


class TestCandidateBands:
    def test_hand_case(self):
        counts = [0, 0, 5, 6, 0, 0, 7, 8, 0]
        assert sg.candidate_bands(counts, 0) == [LineBand(2, 3), LineBand(6, 7)]
        # runs that touch the top and bottom edge are bands too
        counts = [4, 0, 0, 5, 0, 3, 3]
        assert sg.candidate_bands(counts, 0) == [
            LineBand(0, 0), LineBand(3, 3), LineBand(5, 6)
        ]

    def test_no_separators(self):
        assert sg.candidate_bands([3, 4, 5], 0) == [LineBand(0, 2)]

    def test_everything_is_separator(self):
        assert sg.candidate_bands([1, 2, 1], 2) == []

    def test_threshold_monotonicity(self):
        rng = np.random.default_rng(3)
        counts = rng.integers(0, 10, 30)
        previous = len(counts) + 1
        for t in range(0, 10):
            bands = sg.candidate_bands(counts, t)
            rows = sum(b.height for b in bands)
            assert rows <= previous
            assert all((counts[b.top : b.bottom + 1] > t).all() for b in bands)
            previous = rows

    def test_negative_threshold(self):
        # the config rejects it, so segment_lines never sees one
        with pytest.raises(ConfigError):
            PipelineConfig(line_threshold=-1)


class TestRejectFalseSeparators:
    def test_equal_bands_unchanged(self):
        bands = [LineBand(1, 10), LineBand(12, 21), LineBand(23, 32)]
        assert sg.reject_false_separators(bands, 0.5) == bands

    def test_thin_band_merges(self):
        # heights 10, 2, 10 with r_min 0.5: the 2-row strip merges
        bands = [LineBand(0, 9), LineBand(12, 13), LineBand(16, 25)]
        assert len(sg.reject_false_separators(bands, 0.5)) == 2

    def test_merge_prefers_smaller_gap(self):
        # gaps of 4 above and 1 below the thin band: merge goes down
        bands = [LineBand(0, 9), LineBand(14, 15), LineBand(17, 26)]
        merged = sg.reject_false_separators(bands, 0.5)
        assert merged == [LineBand(0, 9), LineBand(14, 26)]
        assert bands == [LineBand(0, 9), LineBand(14, 15), LineBand(17, 26)]

    def test_single_band_unchanged(self):
        assert sg.reject_false_separators([LineBand(1, 3)], 0.5) == [LineBand(1, 3)]

    def test_zero_bands(self):
        with pytest.raises(EmptyRegionError):
            sg.reject_false_separators([], 0.5)

    def test_edge_thin_band_merges_inward(self):
        bands = [LineBand(0, 1), LineBand(4, 13), LineBand(16, 25)]
        merged = sg.reject_false_separators(bands, 0.5)
        assert merged == [LineBand(0, 13), LineBand(16, 25)]


class TestSegmentLines:
    def test_three_rendered_lines(self):
        render = synth.render_region(
            ["Ayatullah Faruk", "Jadavpur University", "Kolkata 700032"], 4
        )
        lines = sg.segment_lines(render.mask)
        assert len(lines) == 3
        for (band, crop), (top, bottom) in zip(lines, render.line_spans):
            assert abs(band.top - top) <= 1
            assert abs(band.bottom - bottom) <= 1
            assert crop.shape[0] == band.height

    def test_single_line(self):
        render = synth.render_region(["Mobile: 9830098300"], 3)
        lines = sg.segment_lines(render.mask)
        assert len(lines) == 1

    def test_blank_region(self):
        with pytest.raises(EmptyRegionError):
            sg.segment_lines(np.zeros((10, 10), dtype=bool))

    def test_bands_disjoint_ordered_nonempty(self):
        render = synth.render_region(["First Line", "Second Line 22"], 5)
        lines = sg.segment_lines(render.mask)
        counts = sg.horizontal_histogram(render.mask)
        previous_bottom = -1
        for band, _ in lines:
            assert band.top > previous_bottom
            assert counts[band.top : band.bottom + 1].max() > 0
            previous_bottom = band.bottom


class TestSegmentCharacters:
    def test_two_blobs_one_word(self):
        # one 3-wide gap, no other gaps: not a word break (3 < 2 * 3)
        line = line_from_spans([(1, 5), (9, 13)])
        glyphs = sg.segment_characters(line)
        assert len(glyphs) == 2
        assert [g.word_index for g in glyphs] == [0, 0]
        assert [g.char_index for g in glyphs] == [0, 1]

    def test_word_break_on_wide_gap(self):
        # gaps 2, 2, 8: median 2, 8 >= 2*2 -> word break at the wide gap
        spans = [(0, 3), (6, 9), (12, 15), (24, 27)]
        glyphs = sg.segment_characters(line_from_spans(spans))
        assert [g.word_index for g in glyphs] == [0, 0, 0, 1]
        assert [g.char_index for g in glyphs] == [0, 1, 2, 0]
        # 8 < 5 * 2: a larger word_gap_factor keeps one word
        wide = PipelineConfig(word_gap_factor=5.0)
        glyphs = sg.segment_characters(line_from_spans(spans), wide)
        assert [g.word_index for g in glyphs] == [0, 0, 0, 0]

    def test_single_blob(self):
        glyphs = sg.segment_characters(line_from_spans([(2, 6)]))
        assert len(glyphs) == 1
        assert (glyphs[0].word_index, glyphs[0].char_index) == (0, 0)

    def test_empty_line(self):
        with pytest.raises(EmptyRegionError):
            sg.segment_characters(np.zeros((5, 9), dtype=bool))

    def test_glyphs_tightened_vertically(self):
        line = np.zeros((10, 6), dtype=bool)
        line[3:7, 1:4] = True
        g = sg.segment_characters(line)[0]
        assert (g.rect.y, g.rect.h) == (3, 4)
        assert g.pixels.shape == (4, 3)

    def test_cover_and_disjoint(self):
        render = synth.render_region(["Phone: +91-33 2414"], 4)
        lines = sg.segment_lines(render.mask)
        for band, crop in lines:
            glyphs = sg.segment_characters(crop)
            covered = np.zeros(crop.shape[1], dtype=int)
            for g in glyphs:
                covered[g.rect.x : g.rect.x + g.rect.w] += 1
            assert covered.max() <= 1
            fg_cols = np.flatnonzero(crop.any(axis=0))
            assert (covered[fg_cols] == 1).all()

    def test_rendered_text_counts(self):
        for text in ("OCR 2010", "Business Card Reader", "a1 b2 c3"):
            render = synth.render_region([text], 4)
            lines = sg.segment_lines(render.mask)
            glyphs = sg.segment_characters(lines[0][1])
            expected = len(text.replace(" ", ""))
            assert len(glyphs) == expected
            words = [w for w in text.split(" ") if w]
            assert max(g.word_index for g in glyphs) + 1 == len(words)


class TestDumps:
    def test_band_dump(self):
        assert sg.format_band_dump([LineBand(1, 4)]) == "band 1 4\n"

    def test_glyph_dump(self):
        glyphs = sg.segment_characters(line_from_spans([(1, 3)]))
        dump = sg.format_glyph_dump(glyphs)
        assert dump == "glyph 1 2 3 4 0 0\n"
