import filecmp
import os

import numpy as np
import pytest

from cardocr import imaging, synth
from cardocr.imaging import Rect
from cardocr.synth import Band, CardSpec, Decoy, SuiteParams

from reference import region_dump, resample_mask, truth_region_rows


class TestGlyphRendering:
    def test_scale_blows_up_cells(self):
        g1 = synth.render_glyph("L", 1)
        g3 = synth.render_glyph("L", 3)
        assert g3.shape == (g1.shape[0] * 3, g1.shape[1] * 3)
        assert g3.sum() == g1.sum() * 9

    def test_unknown_character(self):
        with pytest.raises(KeyError):
            synth.render_glyph("?", 2)

    def test_measure_matches_render(self):
        for text in ("OCR", "a b", "Kolkata 700032"):
            mask, _, _ = synth.render_line_mask(text, 3)
            assert mask.shape[1] == synth.measure_line(text, 3)

    def test_line_words_and_counts(self):
        mask, words, glyphs = synth.render_line_mask("OCR 2010", 2)
        assert words == ["OCR", "2010"]
        assert glyphs == 7

    def test_region_line_spans(self):
        mask, spans, words, counts = synth.render_region_mask(["Top", "Bottom"], 3)
        assert len(spans) == 2
        assert spans[0][1] < spans[1][0]
        assert counts == [3, 6]
        # each span brackets real ink
        for top, bottom in spans:
            assert mask[top].any() and mask[bottom].any()


class TestRenderCard:
    def test_empty_spec(self):
        spec = CardSpec(width=64, height=64)
        color, truth = synth.render_card(spec)
        assert color.shape == (64, 64, 3)
        assert (color == spec.background).all()
        assert truth.regions == []
        assert not truth.mask.any()

    def test_mask_equals_ink_union(self):
        spec = CardSpec(width=400, height=120,
                        bands=[Band(text="OCR 2010", x=20, y=20, scale=4)])
        color, truth = synth.render_card(spec)
        gray = imaging.to_grayscale(color)
        assert np.array_equal(truth.mask, gray == spec.foreground)
        assert truth.regions[0].kind == "TR"
        assert truth.regions[0].lines == [["OCR", "2010"]]

    def test_skew_angle_recorded(self):
        spec = CardSpec(width=500, height=200, skew_deg=7.0,
                        bands=[Band(text="Skewed", x=30, y=30, scale=4)])
        _, truth = synth.render_card(spec)
        assert truth.regions[0].skew_deg == 7.0

    def test_band_outside_canvas(self):
        spec = CardSpec(width=60, height=40,
                        bands=[Band(text="TooWideForThis", x=0, y=0, scale=4)])
        with pytest.raises(ValueError, match="canvas"):
            synth.render_card(spec)

    def test_invalid_character_rejected(self):
        with pytest.raises(ValueError, match="alphabet"):
            CardSpec(width=100, height=100,
                     bands=[Band(text="nope!", x=0, y=0, scale=2)])

    def test_negative_noise_sigma_rejected(self):
        with pytest.raises(ValueError, match="noise_sigma"):
            CardSpec(width=100, height=100, noise_sigma=-1.0)

    def test_decoys_recorded_as_nr(self):
        spec = CardSpec(width=300, height=300,
                        decoys=[Decoy(shape="rect", rect=Rect(40, 40, 100, 100)),
                                Decoy(shape="ellipse", rect=Rect(40, 180, 120, 80))])
        color, truth = synth.render_card(spec)
        assert [r.kind for r in truth.regions] == ["NR", "NR"]
        assert not truth.mask.any()  # decoys are not text ink
        gray = imaging.to_grayscale(color)
        assert (gray[60, 60] == 60) and (gray[220, 100] == 60)

    def test_noise_determinism(self):
        spec = CardSpec(width=200, height=100, noise_sigma=8.0, salt_pepper=0.01,
                        bands=[Band(text="Noise", x=10, y=10, scale=3)])
        a, _ = synth.render_card(spec, seed=5)
        b, _ = synth.render_card(spec, seed=5)
        c, _ = synth.render_card(spec, seed=6)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_truth_recorded_before_noise(self):
        base = dict(width=300, height=100,
                    bands=[Band(text="Stable", x=10, y=10, scale=3)])
        _, clean = synth.render_card(CardSpec(**base))
        _, noisy = synth.render_card(CardSpec(**base, noise_sigma=15.0), seed=3)
        assert np.array_equal(clean.mask, noisy.mask)
        assert clean.regions[0].bbox == noisy.regions[0].bbox


class TestRegionRender:
    def test_zero_noise_mask_matches_image(self):
        r = synth.render_region(["Hello World"], 4)
        assert np.array_equal(r.mask, r.image == 30)

    def test_skew_changes_geometry(self):
        flat = synth.render_region(["Wide enough text line"], 4)
        tilted = synth.render_region(["Wide enough text line"], 4, skew_deg=8.0)
        assert tilted.image.shape[0] > flat.image.shape[0]

    def test_glyph_counts(self):
        r = synth.render_region(["ab cd", "efg"], 3)
        assert r.glyph_counts == [4, 3]


class TestPerturbedGlyphs:
    def test_deterministic(self):
        a = synth.perturbed_glyph_mask("Q", np.random.default_rng(3))
        b = synth.perturbed_glyph_mask("Q", np.random.default_rng(3))
        assert np.array_equal(a, b)

    def test_nonempty_for_all_classes(self):
        rng = np.random.default_rng(4)
        for ch in synth.GLYPHS:
            assert synth.perturbed_glyph_mask(ch, rng).any()

    def test_store_samples_count(self):
        samples = synth.font_store_samples(samples_per_class=12, seed=7)
        assert len(samples) == 73 * 12


class TestSuite:
    def test_deterministic_and_layout(self, tmp_path):
        params = SuiteParams(count=3, seed=11, skew_min=-5, skew_max=5)
        a_dir = tmp_path / "a"
        b_dir = tmp_path / "b"
        synth.generate_suite(a_dir, params)
        synth.generate_suite(b_dir, params)
        names = sorted(os.listdir(a_dir))
        assert names == sorted(os.listdir(b_dir))
        expected = {"manifest.txt"}
        for k in range(3):
            expected |= {
                f"card_{k}.ppm", f"card_{k}.mask.pgm",
                f"card_{k}.regions.txt", f"card_{k}.truth.txt",
            }
        assert set(names) == expected
        for name in names:
            assert filecmp.cmp(a_dir / name, b_dir / name, shallow=False), name

    def test_manifest_contents(self, tmp_path):
        params = SuiteParams(count=2, seed=9)
        manifest = synth.generate_suite(tmp_path / "s", params)
        text = (tmp_path / "s" / "manifest.txt").read_text()
        assert "generator=numpy-pcg64" in text
        assert "seed=9" in text
        assert manifest["count"] == 2

    def test_parameter_ranges_honored(self, tmp_path):
        params = SuiteParams(count=5, seed=3, skew_min=2.0, skew_max=6.0)
        synth.generate_suite(tmp_path / "s", params)
        seeds = np.random.SeedSequence(3).spawn(5)
        for k in range(5):
            spec = synth.random_card_spec(np.random.default_rng(seeds[k]), params)
            assert 2.0 <= spec.skew_deg <= 6.0
            assert 0.0 <= spec.noise_sigma <= 5.0

    def test_load_suite_card(self, tmp_path):
        params = SuiteParams(count=1, seed=21)
        synth.generate_suite(tmp_path / "s", params)
        paths = synth.suite_card_paths(str(tmp_path / "s"))
        assert len(paths) == 1
        gray, regions, transcript = synth.load_suite_card(paths[0])
        assert gray.shape == (params.height, params.width) and gray.dtype == np.uint8
        mask = imaging.load_pnm_file(paths[0] + ".mask.pgm") == 0
        assert mask.shape == gray.shape
        trs = [r for r in regions if r.kind == "TR"]
        assert len(trs) >= 1
        assert transcript.strip()
        blocks = [b for b in transcript.strip().split("\n\n") if b]
        assert len(blocks) == len(trs)

    def test_count_validation(self, tmp_path):
        with pytest.raises(ValueError):
            synth.generate_suite(tmp_path / "x", SuiteParams(count=0))

    @pytest.mark.parametrize("scales", [(0,), (-2,), (2.5,), (3, 0), (), [3, 4], (True,), 3])
    def test_scales_validation(self, scales):
        with pytest.raises(ValueError, match="scales must be a non-empty tuple of integers >= 1"):
            SuiteParams(count=1, scales=scales)

    def test_scales_drawn_per_band(self):
        params = SuiteParams(count=4, seed=5, scales=(1, 8))
        seeds = np.random.SeedSequence(5).spawn(4)
        drawn = {band.scale
                 for seed in seeds
                 for band in synth.random_card_spec(np.random.default_rng(seed), params).bands}
        assert drawn == {1, 8}


class TestResample:
    def test_identity(self):
        rng = np.random.default_rng(2)
        mask = rng.random((8, 10)) < 0.5
        assert np.array_equal(resample_mask(mask, 1.0), mask)

    def test_double(self):
        mask = np.array([[True, False]])
        out = resample_mask(mask, 1.0, 2.0)
        assert out.shape == (1, 4)
        assert list(out[0]) == [True, True, False, False]


def test_truth_regions_match_per_region_formula():
    # the dump of a generated suite's truth, decoys included, equals the
    # per-region formula, and reads back as the truth's boxes and kinds
    params = SuiteParams(count=6, seed=5, decoys_min=1, decoys_max=2, skew_min=-5, skew_max=5)
    seeds = np.random.SeedSequence(params.seed).spawn(params.count)
    kinds = set()
    for k, seed in enumerate(seeds):
        spec = synth.random_card_spec(np.random.default_rng(seed), params)
        _, truth = synth.render_card(spec, seed=k)
        text = synth.format_truth_regions(truth)
        assert text == region_dump(truth_region_rows(truth))
        back = synth.parse_region_dump(text)
        assert [(r.bbox, r.kind) for r in back] == [(r.bbox, r.kind) for r in truth.regions]
        kinds.update(r.kind for r in truth.regions)
    assert kinds == {"TR", "NR"}
