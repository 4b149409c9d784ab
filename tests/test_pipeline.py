import tracemalloc

import numpy as np
import pytest

from cardocr import cli, imaging, pipeline, synth
from cardocr import evaluate as ev
from cardocr import regions as rg
from cardocr.config import PipelineConfig
from cardocr.imaging import Rect
from cardocr.synth import Band, CardSpec


@pytest.fixture(scope="module")
def cfg():
    return PipelineConfig().validate()


def simple_card(text="OCR 2010", scale=5, **spec_kw):
    spec = CardSpec(width=700, height=220,
                    bands=[Band(text=text, x=40, y=60, scale=scale)], **spec_kw)
    return synth.render_card(spec, seed=2)


class TestRunPipeline:
    def test_merged_transcript_of_clean_card(self, cfg, store):
        color, _ = simple_card()
        result = pipeline.run_pipeline(color, cfg, store)
        # merged scheme maps 0 -> O and 1 -> I
        assert result.transcript == "OCR 2OIO"

    def test_full_scheme_transcript(self, store):
        cfg = PipelineConfig(scheme="full").validate()
        color, _ = simple_card()
        result = pipeline.run_pipeline(color, cfg, store)
        assert result.transcript == "OCR 2010"

    def test_blank_image_empty_transcript(self, cfg, store):
        blank = np.full((256, 256, 3), 220, np.uint8)
        result = pipeline.run_pipeline(blank, cfg, store)
        assert result.transcript == ""
        assert result.regions == []

    def test_multi_band_regions_and_blank_line(self, cfg, store):
        spec = CardSpec(width=800, height=400,
                        bands=[Band(text="First Band", x=40, y=50, scale=4),
                               Band(text="Second 22", x=40, y=200, scale=4)])
        color, truth = synth.render_card(spec, seed=1)
        result = pipeline.run_pipeline(color, cfg, store)
        assert len(result.regions) == 2
        assert "\n\n" in result.transcript
        counts = ev.region_eval([r.region for r in result.regions], truth.regions)
        assert counts.fp == 0 and counts.fn == 0

    def test_gray_input_accepted(self, cfg, store):
        color, _ = simple_card()
        result = pipeline.run_pipeline(imaging.to_grayscale(color), cfg, store)
        assert result.transcript == "OCR 2OIO"

    def test_determinism(self, cfg, store):
        color, _ = simple_card(noise_sigma=6.0)
        a = pipeline.run_pipeline(color, cfg, store)
        b = pipeline.run_pipeline(color, cfg, store)
        assert a.transcript == b.transcript
        assert len(a.regions) == len(b.regions)

    def test_skewed_card_angle_recovered(self, cfg, store):
        spec = CardSpec(width=900, height=300, skew_deg=5.0,
                        bands=[Band(text="Skewed Text Band For Angle", x=60, y=60, scale=4)])
        color, _ = synth.render_card(spec, seed=4)
        result = pipeline.run_pipeline(color, cfg, store)
        assert len(result.regions) == 1
        assert result.regions[0].angle == pytest.approx(5.0, abs=3.0)

    def test_card_whose_regions_keep_no_line(self, store, monkeypatch):
        # no row of a region holds more foreground than the whole card is
        # wide, so segment_lines finds zero bands in every region
        cfg = PipelineConfig(line_threshold=700)
        stacks = []
        classify = pipeline.rec.classify

        def recording(patterns, store):
            stacks.append(len(patterns))
            return classify(patterns, store)

        monkeypatch.setattr(pipeline.rec, "classify", recording)
        color, _ = simple_card()
        result = pipeline.run_pipeline(color, cfg, store)
        assert len(result.regions) == 1
        assert result.bands.shape == (0, 3)
        assert result.transcript == ""
        assert stacks in ([], [0])

    def test_glyph_count_and_flat_labels(self, cfg, store):
        color, _ = simple_card()
        result = pipeline.run_pipeline(color, cfg, store)
        assert len(result.glyphs) == len(result.glyph_band) == 7
        assert result.labels == list("OCR2OIO")

    @pytest.mark.xfail(strict=True, reason=(
        "known defect: at small card skew the bottom-profile estimate of a "
        "two-line region is off (-0.76 and -0.93 deg here for +1.5), so the "
        "first region's two lines merge into one band"))
    def test_two_line_regions_keep_both_bands(self, cfg, store):
        spec = CardSpec(width=1000, height=600, skew_deg=1.5, noise_sigma=2.0, bands=[
            Band("Ayatullah Faruk Mollah\nSchool of Mobile Computing", 60, 80, 4),
            Band("Phone: +91 33 2414 6666\nwww.jaduniv.edu.in", 80, 330, 4),
        ])
        color, _ = synth.render_card(spec, seed=5)
        result = pipeline.run_pipeline(color, cfg, store)
        bands = np.bincount(result.bands[:, 0], minlength=len(result.regions))
        assert bands.tolist() == [2, 2]

    @pytest.mark.xfail(strict=True, reason=(
        "known defect: the anisotropic 48x48 normalization turns '.' and '-' "
        "into the same filled block, so the dots read as '-' "
        "(WWW-jadUniV-edU-in)"))
    def test_criterion_9_card_keeps_its_dots(self, cfg, store):
        spec = CardSpec(width=2048, height=1536, noise_sigma=4.0, bands=[
            Band("Ayatullah Faruk Mollah", 100, 150, 6),
            Band("School of Mobile Computing", 100, 400, 5),
            Band("Jadavpur University Kolkata", 100, 650, 5),
            Band("Phone: +91 33 2414 6666", 100, 900, 5),
            Band("www.jaduniv.edu.in", 100, 1150, 5),
        ])
        color, _ = synth.render_card(spec, seed=3)
        result = pipeline.run_pipeline(color, cfg, store)
        assert result.transcript.splitlines()[-1] == "WWW.jadUniV.edU.in"


class TestEmptyCard:
    """A card that keeps no line band: a blank card, which has no text
    region, and the line_threshold=700 card of
    test_card_whose_regions_keep_no_line, whose text region keeps none."""

    @pytest.mark.parametrize("blank", [True, False], ids=["no TR", "TR without band"])
    def test_empty_card_arrays_dumps_and_exit_4(self, store, store_dir, tmp_path, capsys, blank):
        image = np.full((256, 256, 3), 220, np.uint8) if blank else simple_card()[0]
        threshold = PipelineConfig.line_threshold if blank else 700
        result = pipeline.run_pipeline(image, PipelineConfig(line_threshold=threshold), store)
        assert len(result.regions) == (0 if blank else 1)
        assert result.bands.shape == (0, 3)
        assert len(result.glyphs) == 0 and result.glyph_band.shape == (0,)
        assert result.labels == [] and result.transcript == ""
        # the empty arrays are shared constants, not built per card
        assert result.bands is pipeline.NO_BANDS and result.glyphs is pipeline.NO_GLYPHS

        card, config, dumps = tmp_path / "card.ppm", tmp_path / "card.cfg", tmp_path / "dumps"
        imaging.save_pnm_file(card, image)
        config.write_text(f"line_threshold = {threshold}\n")
        code = cli.main(["run", str(card), "--templates", store_dir, "--config", str(config),
                         "--dump-stages", str(dumps)])
        assert code == cli.EXIT_NO_TEXT
        assert capsys.readouterr().out == ""
        assert len(list(dumps.glob("region_*.bands.txt"))) == len(result.regions)
        for i in range(len(result.regions)):
            assert (dumps / f"region_{i}.bands.txt").read_bytes() == b""
            assert (dumps / f"region_{i}.glyphs.txt").read_bytes() == b""


class TestTimePipeline:
    def test_timings_structure(self, cfg, store):
        color, _ = simple_card()
        timings, result = pipeline.time_pipeline(color, cfg, store, runs=2)
        assert result.transcript == "OCR 2OIO"
        assert set(timings.times_ms) == set(pipeline.STAGES)
        assert timings.total_ms > 0
        assert timings.runs == 2
        assert timings.input_bytes == color.nbytes
        assert timings.total_ms >= timings.times_ms["extraction"]

    def test_bad_runs(self, cfg, store):
        color, _ = simple_card()
        with pytest.raises(ValueError):
            pipeline.time_pipeline(color, cfg, store, runs=0)

    def test_leaves_tracemalloc_off(self, cfg, store, monkeypatch):
        color, _ = simple_card()
        assert not tracemalloc.is_tracing()
        pipeline.time_pipeline(color, cfg, store)
        assert not tracemalloc.is_tracing()

        def fail(*args):
            raise RuntimeError("matcher failed")

        monkeypatch.setattr("cardocr.recognize.classify", fail)
        with pytest.raises(RuntimeError, match="matcher failed"):
            pipeline.time_pipeline(color, cfg, store)
        assert not tracemalloc.is_tracing()

    def test_times_with_tracing_off(self, cfg, store, monkeypatch):
        # the timed passes run untraced; only one extra pass traces the peaks
        color, _ = simple_card()
        traced = []
        stage = pipeline._stage_segment

        def recording(results, stage_cfg):
            traced.append(tracemalloc.is_tracing())
            return stage(results, stage_cfg)

        monkeypatch.setattr(pipeline, "_stage_segment", recording)
        timer, result = pipeline.time_pipeline(color, cfg, store, runs=3)
        assert traced == [False, False, False, True]
        assert result.transcript == "OCR 2OIO"
        assert timer.times_ms["segment"] > 0
        assert timer.max_peak_bytes > 0

    def test_leaves_tracemalloc_on(self, cfg, store):
        color, _ = simple_card()
        tracemalloc.start()
        try:
            timer, _ = pipeline.time_pipeline(color, cfg, store)
            assert tracemalloc.is_tracing()
        finally:
            tracemalloc.stop()
        assert timer.max_peak_bytes > 0


class TestTimeLoad:
    def test_gray_image_time_and_peak(self, tmp_path):
        color, _ = simple_card()
        path = tmp_path / "card.ppm"
        imaging.save_pnm_file(path, color)
        assert not tracemalloc.is_tracing()
        image, ms, peak = pipeline.time_load(path, runs=2)
        assert not tracemalloc.is_tracing()
        assert np.array_equal(image, imaging.to_grayscale(color))
        assert ms > 0
        # the gray image and the strip buffers: GRAY_STRIP_BYTES of float32
        # and 3/16 of that of file bytes, which for a card this small hold
        # more than its color image
        assert image.nbytes <= peak <= image.nbytes + 2 * imaging.GRAY_STRIP_BYTES

    def test_bad_runs(self, tmp_path):
        path = tmp_path / "card.pgm"
        imaging.save_pnm_file(path, np.zeros((4, 4), np.uint8))
        with pytest.raises(ValueError):
            pipeline.time_load(path, runs=0)


class TestTimer:
    def test_stage_accounting(self):
        timer = pipeline.StageTimer()
        tracemalloc.start()
        try:
            out = timer.run("extraction", lambda: np.zeros(300_000, dtype=np.uint8))
            assert out.size == 300_000
            timer.run("skew", lambda: None)
        finally:
            tracemalloc.stop()
        assert timer.times_ms["extraction"] >= 0.0
        assert timer.peak_bytes["extraction"] >= 300_000
        assert timer.total_ms >= timer.times_ms["extraction"]
        assert timer.max_peak_bytes == max(timer.peak_bytes.values())

    def test_report_format_and_order(self):
        timer = pipeline.StageTimer(input_bytes=99)
        timer.times_ms = {s: 1.0 for s in pipeline.STAGES}
        timer.peak_bytes = {s: 10 for s in pipeline.STAGES}
        text = ev.format_report(timer.report_pairs())
        lines = text.strip().splitlines()
        assert lines[0] == "extraction_ms=1.00"
        assert lines[5] == "total_ms=5.00"
        assert lines[6] == "extraction_peak_bytes=10"
        assert lines[-2] == "input_bytes=99"
        assert lines[-1] == "runs=1"


class TestDumps:
    def test_dump_stage_artifacts(self, cfg, store, tmp_path):
        color, _ = simple_card()
        result = pipeline.run_pipeline(color, cfg, store)
        out = tmp_path / "dumps"
        pipeline.dump_stages(result, out)
        names = {p.name for p in out.iterdir()}
        assert "regions.txt" in names
        for artifact in ("region_0.pgm", "region_0.deskewed.pgm", "region_0.bin.pgm",
                         "region_0.profile.txt", "region_0.bands.txt",
                         "region_0.glyphs.txt"):
            assert artifact in names
        glyph_rows = (out / "region_0.glyphs.txt").read_text().strip().splitlines()
        assert len(glyph_rows) == 7

    @pytest.mark.parametrize("dark_cols", [0, 2])
    def test_degenerate_profile_dump_is_empty(self, tmp_path, dark_cols):
        # a constant crop has no dark pixel, and two dark columns are fewer
        # than the three a profile fit retains: either way profile.txt is
        # written, and empty
        crop = np.full((20, 30), 200, dtype=np.uint8)
        crop[15, :dark_cols] = 20
        region = rg.Region(bbox=Rect(0, 0, 30, 20))
        result = pipeline.RunResult(
            all_regions=rg.parse_region_dump(""),
            regions=[pipeline.RegionResult(
                region=region, crop=crop, deskewed=crop, angle=0.0, binary=crop < 100)],
            bands=pipeline.NO_BANDS, glyphs=pipeline.NO_GLYPHS,
            glyph_band=pipeline.NO_GLYPHS.x1, labels=[], transcript="")
        pipeline.dump_stages(result, tmp_path)
        assert (tmp_path / "region_0.profile.txt").read_bytes() == b""
        assert (tmp_path / "region_0.bands.txt").read_bytes() == b""

    def test_dump_determinism(self, cfg, store, tmp_path):
        color, _ = simple_card(noise_sigma=3.0)
        for name in ("a", "b"):
            result = pipeline.run_pipeline(color, cfg, store)
            pipeline.dump_stages(result, tmp_path / name)
        for path in sorted((tmp_path / "a").iterdir()):
            other = tmp_path / "b" / path.name
            assert path.read_bytes() == other.read_bytes(), path.name
