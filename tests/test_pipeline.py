import sys
import tracemalloc
import weakref

import numpy as np
import pytest

from cardocr import cli, imaging, pipeline, skew, synth
from cardocr import evaluate as ev
from cardocr import regions as rg
from cardocr import segment as sg
from cardocr.config import PipelineConfig
from cardocr.imaging import Rect
from cardocr.synth import Band, CardSpec
from reference import to_gray
from test_imaging import LOAD_SLACK_BYTES, traced_peak
from test_skew import CRITERION_9_SPEC

# A Python call hands the caller's reference to an argument over to the
# callee only from CPython 3.11; before, the caller holds it until the call
# returns, so run_pipeline cannot free the image it was handed.
FRAME_RELEASE = pytest.mark.skipif(
    sys.version_info < (3, 11), reason="the caller keeps its argument alive before CPython 3.11")


@pytest.fixture(scope="module")
def cfg():
    return PipelineConfig()


def simple_spec(text="OCR 2010", scale=5, **spec_kw):
    return CardSpec(width=700, height=220,
                    bands=[Band(text=text, x=40, y=60, scale=scale)], **spec_kw)


def simple_card(**spec_kw):
    """The gray card and its truth."""
    color, truth = synth.render_card(simple_spec(**spec_kw), seed=2)
    return to_gray(color), truth


@pytest.fixture
def card_file(tmp_path):
    """The card of simple_card as the generator writes it, a PPM file."""
    path = tmp_path / "card.ppm"
    imaging.save_pnm_file(path, synth.render_card(simple_spec(), seed=2)[0])
    return path


class TestRunPipeline:
    def test_merged_transcript_of_clean_card(self, cfg, store):
        gray, _ = simple_card()
        result = pipeline.run_pipeline(gray, cfg, store)
        # merged scheme maps 0 -> O and 1 -> I
        assert result.transcript == "OCR 2OIO"

    def test_full_scheme_transcript(self, store):
        cfg = PipelineConfig(scheme="full")
        gray, _ = simple_card()
        result = pipeline.run_pipeline(gray, cfg, store)
        assert result.transcript == "OCR 2010"

    def test_blank_image_empty_transcript(self, cfg, store):
        blank = np.full((256, 256), 220, np.uint8)
        result = pipeline.run_pipeline(blank, cfg, store)
        assert result.transcript == ""
        assert result.regions == []

    def test_multi_band_regions_and_blank_line(self, cfg, store):
        spec = CardSpec(width=800, height=400,
                        bands=[Band(text="First Band", x=40, y=50, scale=4),
                               Band(text="Second 22", x=40, y=200, scale=4)])
        color, truth = synth.render_card(spec, seed=1)
        result = pipeline.run_pipeline(to_gray(color), cfg, store)
        assert len(result.regions) == 2
        assert "\n\n" in result.transcript
        counts = ev.region_eval(result.all_regions, truth.regions)
        assert counts.fp == 0 and counts.fn == 0

    def test_gray_input_accepted(self, cfg, store, card_file):
        # the gray image the loader makes of the card's PPM
        result = pipeline.run_pipeline(imaging.load_pnm_file(card_file), cfg, store)
        assert result.transcript == "OCR 2OIO"

    def test_determinism(self, cfg, store):
        gray, _ = simple_card(noise_sigma=6.0)
        a = pipeline.run_pipeline(gray, cfg, store)
        b = pipeline.run_pipeline(gray, cfg, store)
        assert a.transcript == b.transcript
        assert len(a.regions) == len(b.regions)

    def test_skewed_card_angle_recovered(self, cfg, store):
        spec = CardSpec(width=900, height=300, skew_deg=5.0,
                        bands=[Band(text="Skewed Text Band For Angle", x=60, y=60, scale=4)])
        color, _ = synth.render_card(spec, seed=4)
        result = pipeline.run_pipeline(to_gray(color), cfg, store)
        assert len(result.regions) == 1
        assert result.regions[0].angle == pytest.approx(5.0, abs=3.0)

    def test_card_whose_regions_keep_no_line(self, cfg, store, monkeypatch):
        # no row of a region holds more foreground than the whole card is
        # wide, so segment_lines finds zero bands in every region
        monkeypatch.setattr(sg, "LINE_THRESHOLD", 700)
        stacks = []
        classify = pipeline.rec.classify

        def recording(patterns, store):
            stacks.append(len(patterns))
            return classify(patterns, store)

        monkeypatch.setattr(pipeline.rec, "classify", recording)
        gray, _ = simple_card()
        result = pipeline.run_pipeline(gray, cfg, store)
        assert len(result.regions) == 1
        assert result.bands.shape == (0, 3)
        assert result.transcript == ""
        assert stacks in ([], [0])

    def test_glyph_count_and_flat_labels(self, cfg, store):
        gray, _ = simple_card()
        result = pipeline.run_pipeline(gray, cfg, store)
        assert len(result.glyphs) == len(result.glyph_band) == 7
        assert result.labels == list("OCR2OIO")

    def test_two_line_regions_keep_both_bands(self, cfg, store):
        # at +1.5 degrees the two lines of a region stay two bands only
        # once the region is turned level
        spec = CardSpec(width=1000, height=600, skew_deg=1.5, noise_sigma=2.0, bands=[
            Band("Ayatullah Faruk Mollah\nSchool of Mobile Computing", 60, 80, 4),
            Band("Phone: +91 33 2414 6666\nwww.jaduniv.edu.in", 80, 330, 4),
        ])
        color, _ = synth.render_card(spec, seed=5)
        result = pipeline.run_pipeline(to_gray(color), cfg, store)
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
        result = pipeline.run_pipeline(to_gray(color), cfg, store)
        assert result.transcript.splitlines()[-1] == "WWW.jadUniV.edU.in"


def camera_card_ppm(path):
    """A ragged 4000x3000 PPM, 187.5 block rows, drawn in numpy: five
    bands of glyph-like bars with a word gap, a noise patch and a speckled
    bottom-right corner, so that extraction finds TRs, an NR, and IBs in
    the padded last block row."""
    rng = np.random.default_rng(49)
    gray = np.full((3000, 4000), 225, np.uint8)
    for k in range(5):
        band = gray[300 + 500 * k : 348 + 500 * k, 200:1000]
        band.reshape(48, 40, 20)[:, :, 6:14] = 40
        band[:, 100 * (k + 2) : 100 * (k + 2) + 40] = 225
    gray[2000:2256, 2400:2656] = rng.integers(0, 256, size=(256, 256), dtype=np.uint8)
    gray[-6:, -100:] = rng.integers(0, 256, size=(6, 100), dtype=np.uint8)
    imaging.save_pnm_file(path, np.repeat(gray[:, :, None], 3, axis=2))


@FRAME_RELEASE
class TestFrameRelease:
    """No stage after extraction reads the card image: handed over as the
    only reference, it is freed before the skew stage, and the card's
    memory peak is the load's own."""

    def test_frame_freed_before_skew(self, cfg, store, monkeypatch):
        holder = [simple_card()[0]]
        frame = weakref.ref(holder[0])
        alive = []
        deskew = skew.deskew

        def recording(crop):
            alive.append(frame() is not None)
            return deskew(crop)

        monkeypatch.setattr(skew, "deskew", recording)
        result = pipeline.run_pipeline(holder.pop(), cfg, store)
        assert result.transcript == "OCR 2OIO"
        assert alive == [False]

    def test_card_peak_is_the_load_peak(self, cfg, store, tmp_path):
        # the criterion-9 card and a ragged 12 MP camera frame from their
        # files: extraction's scratch and the stages after it hold less
        # than the load's strip buffers
        color, _ = synth.render_card(CRITERION_9_SPEC, seed=3)
        paths = [tmp_path / "card.ppm", tmp_path / "camera.ppm"]
        imaging.save_pnm_file(paths[0], color)
        del color
        camera_card_ppm(paths[1])
        for path, (h, w) in zip(paths, [(1536, 2048), (3000, 4000)]):
            pipeline.run_pipeline(imaging.load_pnm_file(path), cfg, store)  # warm up
            _, load = traced_peak(lambda: imaging.load_pnm_file(path))
            _, card = traced_peak(lambda: pipeline.run_pipeline(
                imaging.load_pnm_file(path), cfg, store))
            assert h * w < load <= h * w + imaging.GRAY_STRIP_BYTES + LOAD_SLACK_BYTES
            assert card <= load


class TestEmptyCard:
    """A card that keeps no line band: a blank card, which has no text
    region, and the LINE_THRESHOLD = 700 card of
    test_card_whose_regions_keep_no_line, whose text region keeps none."""

    @pytest.mark.parametrize("blank", [True, False], ids=["no TR", "TR without band"])
    def test_empty_card_arrays_dumps_and_exit_4(self, cfg, store, store_dir, tmp_path, capsys,
                                               monkeypatch, blank):
        image = np.full((256, 256), 220, np.uint8) if blank else simple_card()[0]
        if not blank:
            monkeypatch.setattr(sg, "LINE_THRESHOLD", 700)
        result = pipeline.run_pipeline(image, cfg, store)
        assert len(result.regions) == (0 if blank else 1)
        assert result.bands.shape == (0, 3)
        assert len(result.glyphs) == 0 and result.glyph_band.shape == (0,)
        assert result.labels == [] and result.transcript == ""
        # the empty arrays are shared constants, not built per card
        assert result.bands is pipeline.NO_BANDS and result.glyphs is pipeline.NO_GLYPHS

        card, dumps = tmp_path / "card.pgm", tmp_path / "dumps"
        imaging.save_pnm_file(card, image)
        code = cli.main(["run", str(card), "--templates", store_dir, "--dump-stages", str(dumps)])
        assert code == cli.EXIT_NO_TEXT
        assert capsys.readouterr().out == ""
        assert len(list(dumps.glob("region_*.bands.txt"))) == len(result.regions)
        for i in range(len(result.regions)):
            assert (dumps / f"region_{i}.bands.txt").read_bytes() == b""
            assert (dumps / f"region_{i}.glyphs.txt").read_bytes() == b""


class TestTimePipeline:
    def test_timings_structure(self, cfg, store, card_file):
        timings, result = pipeline.time_pipeline(card_file, cfg, store, runs=2)
        assert result.transcript == "OCR 2OIO"
        assert set(timings.times_ms) == set(pipeline.STAGES)
        assert timings.total_ms > 0
        assert timings.runs == 2
        assert timings.input_bytes == 700 * 220  # the gray card
        assert timings.total_ms >= timings.times_ms["load"] + timings.times_ms["extraction"]

    def test_bad_runs(self, cfg, store, card_file):
        with pytest.raises(ValueError):
            pipeline.time_pipeline(card_file, cfg, store, runs=0)

    def test_leaves_tracemalloc_off(self, cfg, store, card_file, monkeypatch):
        assert not tracemalloc.is_tracing()
        pipeline.time_pipeline(card_file, cfg, store)
        assert not tracemalloc.is_tracing()

        def fail(*args):
            raise RuntimeError("matcher failed")

        monkeypatch.setattr("cardocr.recognize.classify", fail)
        with pytest.raises(RuntimeError, match="matcher failed"):
            pipeline.time_pipeline(card_file, cfg, store)
        assert not tracemalloc.is_tracing()

    def test_times_with_tracing_off(self, cfg, store, card_file, monkeypatch):
        # the timed passes run untraced; only one extra pass traces the peaks
        traced = []
        stage = pipeline._stage_segment

        def recording(results):
            traced.append(tracemalloc.is_tracing())
            return stage(results)

        monkeypatch.setattr(pipeline, "_stage_segment", recording)
        timer, result = pipeline.time_pipeline(card_file, cfg, store, runs=3)
        assert traced == [False, False, False, True]
        assert result.transcript == "OCR 2OIO"
        assert timer.times_ms["segment"] > 0
        assert timer.max_peak_bytes > 0

    def test_leaves_tracemalloc_on(self, cfg, store, card_file):
        tracemalloc.start()
        try:
            timer, _ = pipeline.time_pipeline(card_file, cfg, store)
            assert tracemalloc.is_tracing()
        finally:
            tracemalloc.stop()
        assert timer.max_peak_bytes > 0


class TestTimeLoad:
    def test_gray_image_time_and_peak(self, cfg, store, card_file):
        # the card's PPM is loaded as the first stage
        timer, _ = pipeline.time_pipeline(card_file, cfg, store, runs=2)
        assert timer.times_ms["load"] > 0
        # the gray image and the strip buffers, GRAY_STRIP_BYTES of float32
        # that the file's strips are read into, which for a card this small
        # hold more than its color image
        assert 700 * 220 <= timer.peak_bytes["load"] <= (
            700 * 220 + imaging.GRAY_STRIP_BYTES + LOAD_SLACK_BYTES)

    def test_bad_runs(self, cfg, store, tmp_path, monkeypatch):
        # runs=0 is refused before the card's file is read
        path = tmp_path / "card.pgm"
        imaging.save_pnm_file(path, np.zeros((4, 4), np.uint8))
        loads = []
        load = imaging.load_pnm_file
        monkeypatch.setattr(imaging, "load_pnm_file", lambda p: loads.append(p) or load(p))
        with pytest.raises(ValueError):
            pipeline.time_pipeline(path, cfg, store, runs=0)
        assert loads == []


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
        assert lines[0] == "load_ms=1.00"
        assert lines[6] == "total_ms=6.00"
        assert lines[7] == "load_peak_bytes=10"
        assert lines[-2] == "input_bytes=99"
        assert lines[-1] == "runs=1"


class TestDumps:
    def test_dump_stage_artifacts(self, cfg, store, tmp_path):
        gray, _ = simple_card()
        result = pipeline.run_pipeline(gray, cfg, store)
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

    @pytest.mark.parametrize("dark_cols", [0])
    def test_degenerate_profile_dump_is_empty(self, tmp_path, dark_cols):
        # a constant crop has no dark pixel, so the skew search tries no
        # angle: profile.txt is written, and empty
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
        gray, _ = simple_card(noise_sigma=3.0)
        for name in ("a", "b"):
            result = pipeline.run_pipeline(gray, cfg, store)
            pipeline.dump_stages(result, tmp_path / name)
        for path in sorted((tmp_path / "a").iterdir()):
            other = tmp_path / "b" / path.name
            assert path.read_bytes() == other.read_bytes(), path.name
