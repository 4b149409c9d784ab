import numpy as np
import pytest

from cardocr import imaging, pipeline
from cardocr import segment as sg
from cardocr import synth
from cardocr.config import PipelineConfig

from reference import merge_thin_bands, segment_glyphs, to_gray
from test_skew import CRITERION_9_SPEC


def band_lines(result):
    """(band crop, the band's Glyphs) per line band of a RunResult."""
    return [(result.regions[tr].binary[top : bottom + 1], result.glyphs[result.glyph_band == k])
            for k, (tr, top, bottom) in enumerate(result.bands.tolist())]


def band_rows(top_bottom):
    """(top, bottom) int arrays as a list of (top, bottom) tuples."""
    return list(zip(*(a.tolist() for a in top_bottom)))


def merged(bands):
    """reject_false_separators on a list of (top, bottom) tuples."""
    top, bottom = np.array(bands, dtype=np.intp).reshape(-1, 2).T
    return band_rows(sg.reject_false_separators(top, bottom))


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


class TestCandidateBands:
    """The candidate bands of segment_lines are the imaging.runs of its rows
    with more than LINE_THRESHOLD ink pixels."""

    def test_hand_case(self):
        counts = np.array([0, 0, 5, 6, 0, 0, 7, 8, 0])
        assert band_rows(imaging.runs(counts > 0)) == [(2, 3), (6, 7)]
        # runs that touch the top and bottom edge are bands too
        counts = np.array([4, 0, 0, 5, 0, 3, 3])
        assert band_rows(imaging.runs(counts > 0)) == [(0, 0), (3, 3), (5, 6)]

    def test_no_separators(self):
        assert band_rows(imaging.runs(np.array([3, 4, 5]) > 0)) == [(0, 2)]

    def test_everything_is_separator(self):
        assert band_rows(imaging.runs(np.array([1, 2, 1]) > 2)) == []

    def test_threshold_monotonicity(self):
        rng = np.random.default_rng(3)
        counts = rng.integers(0, 10, 30)
        previous = len(counts) + 1
        for t in range(0, 10):
            bands = band_rows(imaging.runs(counts > t))
            rows = sum(bottom - top + 1 for top, bottom in bands)
            assert rows <= previous
            assert all((counts[top : bottom + 1] > t).all() for top, bottom in bands)
            previous = rows

    def test_matches_brute_force(self):
        # the maximal runs of a mask, and the glyphs' columns are the runs
        # of columns with ink; the sparser mask has gaps, and runs of one
        # and of several entries
        rng = np.random.default_rng(1)
        for line in (rng.random((4, 4)) < 0.5, rng.random((4, 16)) < 0.2):
            inked = [line[:, x].any() for x in range(line.shape[1])]
            want = []
            for x, ink in enumerate(inked):
                if ink and x > 0 and inked[x - 1]:
                    want[-1][1] = x
                elif ink:
                    want.append([x, x])
            assert [list(r) for r in band_rows(imaging.runs(np.array(inked)))] == want
            glyphs = sg.segment_characters(line)
            assert [list(r) for r in zip(glyphs.x1.tolist(), glyphs.x2.tolist())] == want

    def test_bands_at_another_line_threshold(self, monkeypatch):
        # rows of 1, 3, 0, 2 and 4 ink pixels: at LINE_THRESHOLD 2 only the
        # rows of 3 and 4 are bands
        region = region_from_row_counts([1, 3, 0, 2, 4])
        assert sg.segment_lines(region).tolist() == [[0, 1], [3, 4]]
        monkeypatch.setattr(sg, "LINE_THRESHOLD", 2)
        assert sg.segment_lines(region).tolist() == [[1, 1], [4, 4]]


class TestRejectFalseSeparators:
    def test_equal_bands_unchanged(self):
        bands = [(1, 10), (12, 21), (23, 32)]
        assert merged(bands) == bands

    def test_thin_band_merges(self):
        # heights 10, 2, 10 with R_MIN 0.5: the 2-row strip merges
        bands = [(0, 9), (12, 13), (16, 25)]
        assert sg.R_MIN == 0.5
        assert len(merged(bands)) == 2

    def test_merge_prefers_smaller_gap(self):
        # gaps of 4 above and 1 below the thin band: merge goes down
        top, bottom = np.array([0, 14, 17]), np.array([9, 15, 26])
        assert band_rows(sg.reject_false_separators(top, bottom)) == [(0, 9), (14, 26)]
        assert (top.tolist(), bottom.tolist()) == ([0, 14, 17], [9, 15, 26])

    def test_single_band_unchanged(self):
        assert merged([(1, 3)]) == [(1, 3)]

    def test_zero_bands(self):
        assert merged([]) == []

    def test_edge_thin_band_merges_inward(self):
        bands = [(0, 1), (4, 13), (16, 25)]
        assert merged(bands) == [(0, 13), (16, 25)]


class TestRejectFalseSeparatorsReference:
    """reject_false_separators against the list merge in reference.py."""

    def test_random_band_sets(self, monkeypatch):
        rng = np.random.default_rng(43)
        seen = dict.fromkeys(
            ("single band", "tied heights", "tied gaps", "thin first", "thin last",
             "r_min 0", "r_min 1", "merges"), 0)
        for _ in range(2000):
            n = int(rng.integers(1, 9))
            heights = rng.integers(1, int(rng.choice([3, 6, 12])) + 1, n)
            gaps = rng.integers(1, int(rng.choice([2, 4, 8])) + 1, n)
            bottom = np.cumsum(gaps + heights) - 1
            top = bottom - heights + 1
            r_min = float(rng.choice([0.0, 0.3, 0.5, 0.75, 1.0]))
            bands = list(zip(top.tolist(), bottom.tolist()))
            want = merge_thin_bands(bands, r_min)
            monkeypatch.setattr(sg, "R_MIN", r_min)
            assert band_rows(sg.reject_false_separators(top, bottom)) == want
            thin = heights < r_min * np.median(heights)
            seen["single band"] += n == 1
            seen["tied heights"] += n > 1 and thin.any() and (heights == heights.min()).sum() > 1
            i = heights.argmin()  # gaps[i] lies above band i, gaps[i + 1] below
            seen["tied gaps"] += 0 < i < n - 1 and thin[i] and gaps[i] == gaps[i + 1]
            seen["thin first"] += n > 1 and heights[0] == heights.min() and thin[0]
            seen["thin last"] += n > 1 and heights[-1] == heights.min() and thin[-1]
            seen["r_min 0"] += r_min == 0.0
            seen["r_min 1"] += r_min == 1.0
            seen["merges"] += len(want) < n
        assert min(seen.values()) > 0, seen


class TestSegmentLines:
    def test_three_rendered_lines(self):
        render = synth.render_region(
            ["Ayatullah Faruk", "Jadavpur University", "Kolkata 700032"], 4
        )
        lines = sg.segment_lines(render.mask)
        assert len(lines) == 3
        for (top, bottom), (true_top, true_bottom) in zip(lines.tolist(), render.line_spans):
            assert abs(top - true_top) <= 1
            assert abs(bottom - true_bottom) <= 1

    def test_single_line(self):
        render = synth.render_region(["Mobile: 9830098300"], 3)
        lines = sg.segment_lines(render.mask)
        assert len(lines) == 1

    def test_blank_region(self):
        assert sg.segment_lines(np.zeros((10, 10), dtype=bool)).shape == (0, 2)

    def test_bands_disjoint_ordered_nonempty(self):
        render = synth.render_region(["First Line", "Second Line 22"], 5)
        lines = sg.segment_lines(render.mask)
        counts = np.count_nonzero(render.mask, axis=1)
        previous_bottom = -1
        for top, bottom in lines.tolist():
            assert top > previous_bottom
            assert counts[top : bottom + 1].max() > 0
            previous_bottom = bottom


class TestSegmentCharacters:
    def test_two_blobs_one_word(self):
        # one 3-wide gap, no other gaps: not a word break (3 < 2 * 3)
        line = line_from_spans([(1, 5), (9, 13)])
        glyphs = sg.segment_characters(line)
        assert len(glyphs) == 2
        assert glyphs.word.tolist() == [0, 0]
        assert glyphs.char.tolist() == [0, 1]

    def test_word_break_on_wide_gap(self, monkeypatch):
        # gaps 2, 2, 8: median 2, 8 >= 2*2 -> word break at the wide gap
        spans = [(0, 3), (6, 9), (12, 15), (24, 27)]
        glyphs = sg.segment_characters(line_from_spans(spans))
        assert glyphs.word.tolist() == [0, 0, 0, 1]
        assert glyphs.char.tolist() == [0, 1, 2, 0]
        # 8 < 5 * 2: a larger WORD_GAP_FACTOR keeps one word
        monkeypatch.setattr(sg, "WORD_GAP_FACTOR", 5.0)
        glyphs = sg.segment_characters(line_from_spans(spans))
        assert glyphs.word.tolist() == [0, 0, 0, 0]

    def test_single_blob(self):
        glyphs = sg.segment_characters(line_from_spans([(2, 6)]))
        assert len(glyphs) == 1
        assert (glyphs.word.tolist(), glyphs.char.tolist()) == ([0], [0])

    def test_empty_line(self):
        glyphs = sg.segment_characters(np.zeros((5, 9), dtype=bool))
        assert len(glyphs) == 0
        assert all(a.shape == (0,) for a in vars(glyphs).values())

    def test_glyphs_tightened_vertically(self):
        line = np.zeros((10, 6), dtype=bool)
        line[3:7, 1:4] = True
        g = sg.segment_characters(line)
        assert (g.top.tolist(), g.bottom.tolist()) == ([3], [6])
        assert (g.x1.tolist(), g.x2.tolist()) == ([1], [3])

    def test_cover_and_disjoint(self):
        render = synth.render_region(["Phone: +91-33 2414"], 4)
        for top, bottom in sg.segment_lines(render.mask).tolist():
            crop = render.mask[top : bottom + 1]
            glyphs = sg.segment_characters(crop)
            covered = np.zeros(crop.shape[1], dtype=int)
            for x1, x2 in zip(glyphs.x1, glyphs.x2):
                covered[x1 : x2 + 1] += 1
            assert covered.max() <= 1
            fg_cols = np.flatnonzero(crop.any(axis=0))
            assert (covered[fg_cols] == 1).all()

    def test_rendered_text_counts(self):
        for text in ("OCR 2010", "Business Card Reader", "a1 b2 c3"):
            render = synth.render_region([text], 4)
            top, bottom = sg.segment_lines(render.mask)[0]
            glyphs = sg.segment_characters(render.mask[top : bottom + 1])
            expected = len(text.replace(" ", ""))
            assert len(glyphs) == expected
            words = [w for w in text.split(" ") if w]
            assert glyphs.word.max() + 1 == len(words)


def glyph_rows(glyphs):
    """segment_characters' arrays as one (x1, x2, top, bottom, word, char)
    tuple per glyph."""
    fields = (glyphs.x1, glyphs.x2, glyphs.top, glyphs.bottom, glyphs.word, glyphs.char)
    return list(zip(*(f.tolist() for f in fields)))


class TestSegmentCharactersReference:
    """segment_characters against the per-glyph loop in reference.py."""

    def test_random_lines(self, monkeypatch):
        rng = np.random.default_rng(41)
        seen = dict.fromkeys(
            ("first column", "last column", "single glyph", "even gaps", "gap at the factor",
             "empty interior row"), 0)
        for _ in range(600):
            h, w = int(rng.integers(1, 12)), int(rng.integers(1, 50))
            line = rng.random((h, w)) < rng.uniform(0.1, 0.7)
            line[:, rng.random(w) < rng.uniform(0.0, 0.8)] = False  # gap columns
            line[rng.integers(h), rng.integers(w)] = True
            factor = float(rng.choice([1.0, 1.5, 2.0, 2.5]))
            want = segment_glyphs(line, factor)
            monkeypatch.setattr(sg, "WORD_GAP_FACTOR", factor)
            assert glyph_rows(sg.segment_characters(line)) == want
            gaps = [b[0] - a[1] - 1 for a, b in zip(want, want[1:])]
            seen["first column"] += want[0][0] == 0
            seen["last column"] += want[-1][1] == w - 1
            seen["single glyph"] += len(want) == 1
            seen["even gaps"] += len(gaps) > 0 and len(gaps) % 2 == 0
            seen["gap at the factor"] += any(
                g == factor * np.median(gaps) for g in gaps)
            seen["empty interior row"] += any(
                not line[top : bottom + 1, x1 : x2 + 1].any(axis=1).all()
                for x1, x2, top, bottom, _, _ in want)
        assert min(seen.values()) > 0, seen

    def test_gap_exactly_at_the_factor_with_an_even_gap_count(self):
        # gaps 1, 3, 7, 4: median (3 + 4) / 2 = 3.5, and 7 = 2 * 3.5 breaks
        spans = [(0, 1), (3, 4), (8, 9), (17, 18), (23, 24)]
        line = line_from_spans(spans)
        got = sg.segment_characters(line)
        assert got.word.tolist() == [0, 0, 0, 1, 1]
        assert glyph_rows(got) == segment_glyphs(line, sg.WORD_GAP_FACTOR)

    def test_criterion_9_card_lines(self, store):
        color, _ = synth.render_card(CRITERION_9_SPEC, seed=3)
        result = pipeline.run_pipeline(to_gray(color), PipelineConfig(), store)
        lines = band_lines(result)
        assert sum(len(g) for _, g in lines) == 105
        for crop, glyphs in lines:
            assert glyph_rows(glyphs) == glyph_rows(sg.segment_characters(crop))
            assert glyph_rows(glyphs) == segment_glyphs(crop, sg.WORD_GAP_FACTOR)


class TestDumps:
    def test_band_dump(self):
        assert sg.format_band_dump(np.array([[1, 4]])) == "band 1 4\n"

    def test_glyph_dump(self):
        glyphs = sg.segment_characters(line_from_spans([(1, 3)]))
        dump = sg.format_glyph_dump(glyphs)
        assert dump == "glyph 1 2 3 4 0 0\n"
