"""End-to-end pipeline: extract text regions, de-skew, binarize, segment
into lines and characters, classify each glyph under the config's class
scheme, and join the labels into the transcript.

Each stage returns values, and run_pipeline builds one frozen RunResult.
Images are kept per text region (TR); the card's line bands, glyphs and
labels each cover the whole card in reading order, and the transcript, the
stage dumps and `eval` read them in slices.

Every stage is a pure function of its inputs, so repeated runs on the same
image and config are byte-identical.  The pipeline times its own stages:
the same stage breakdown drives both the normal run path and the benchmark,
which records each stage's wall time with tracing off and its tracemalloc
peak in a separate pass.
"""

import contextlib
import os
import time
import tracemalloc
from dataclasses import dataclass, field

import numpy as np

from . import binarize as bz
from . import imaging
from . import recognize as rec
from . import regions as rg
from . import segment as sg
from . import skew


@dataclass(frozen=True)
class RegionResult:
    """One TR: its row of the card's Regions table, its gray crop, the crop
    de-skewed by `angle` degrees, and that image binarized."""

    region: rg.Region
    crop: np.ndarray
    deskewed: np.ndarray
    angle: float
    binary: np.ndarray


@dataclass(frozen=True)
class RunResult:
    """A card's result: images per TR, and bands, glyphs and labels over
    the whole card in reading order."""

    all_regions: rg.Regions  # every region, TR and NR
    regions: list  # RegionResult per TR
    bands: np.ndarray  # (TR index, top, bottom) rows; inclusive rows of the TR's binary
    glyphs: sg.Glyphs  # every band's glyphs; top and bottom are rows of the band
    glyph_band: np.ndarray  # the bands row of each glyph
    labels: list  # scheme-mapped label per glyph
    transcript: str


STAGES = ("extraction", "skew", "binarize", "segment", "recognize")


@dataclass
class StageTimer:
    """Wall time and tracemalloc transient-peak accounting per stage.

    Every run() of a stage adds its time and keeps the largest peak above
    the stage's starting allocation.  Peaks read 0 unless tracemalloc is
    tracing.
    """

    input_bytes: int = 0
    runs: int = 1
    times_ms: dict = field(default_factory=lambda: dict.fromkeys(STAGES, 0.0))
    peak_bytes: dict = field(default_factory=lambda: dict.fromkeys(STAGES, 0))

    def run(self, stage, fn):
        tracemalloc.reset_peak()
        start_current, _ = tracemalloc.get_traced_memory()
        t0 = time.perf_counter()
        result = fn()
        elapsed = (time.perf_counter() - t0) * 1000.0
        _, peak = tracemalloc.get_traced_memory()
        self.times_ms[stage] += elapsed
        self.peak_bytes[stage] = max(self.peak_bytes[stage], peak - start_current)
        return result

    @property
    def total_ms(self):
        return sum(self.times_ms.values())

    @property
    def max_peak_bytes(self):
        return max(self.peak_bytes.values())

    def report_pairs(self):
        """The `bench` report as ordered (key, value) pairs."""
        return (
            [(f"{stage}_ms", self.times_ms[stage]) for stage in STAGES]
            + [("total_ms", self.total_ms)]
            + [(f"{stage}_peak_bytes", self.peak_bytes[stage]) for stage in STAGES]
            + [("max_peak_bytes", self.max_peak_bytes),
               ("input_bytes", self.input_bytes),
               ("runs", self.runs)]
        )


# What a card that keeps no line band returns, built once.
NO_BANDS = np.empty((0, 3), dtype=np.intp)
NO_GLYPHS = sg.Glyphs(*[np.empty(0, dtype=np.intp)] * 6)


def _stage_segment(binaries, cfg):
    """The card's bands, glyphs and glyph_band, as RunResult holds them."""
    bands = [(i, top, bottom) for i, binary in enumerate(binaries)
             for top, bottom in sg.segment_lines(binary, cfg).tolist()]
    lines = [sg.segment_characters(binaries[i][top : bottom + 1], cfg) for i, top, bottom in bands]
    if not lines:
        return NO_BANDS, NO_GLYPHS, NO_GLYPHS.x1
    glyphs = sg.Glyphs(*map(np.concatenate, zip(*(vars(g).values() for g in lines))))
    glyph_band = np.repeat(np.arange(len(lines)), [len(g) for g in lines])
    return np.array(bands), glyphs, glyph_band


def _stage_recognize(binaries, bands, glyphs, glyph_band, store, scheme):
    """Classify every glyph of the card as one batch.  Returns the labels
    and the transcript, in which each glyph but the first follows a blank
    line if it starts a TR, a newline if it starts a band, and a space if it
    starts a word."""
    if not len(glyphs):
        return [], ""
    tr, band_top = bands[glyph_band, 0], bands[glyph_band, 1]
    stacks = []
    for i in np.unique(tr).tolist():
        g, top = glyphs[tr == i], band_top[tr == i]  # band rows -> rows of TR i's image
        stacks.append(rec.normalize_glyph(binaries[i], g.x1, g.x2, g.top + top, g.bottom + top))
    best, _ = rec.classify(np.concatenate(stacks), store)
    labels = [scheme.apply(store.labels[i]) for i in best.tolist()]
    # A glyph that starts a TR also starts a band, and one that starts a band
    # also starts a word, so the count of what it starts picks its separator.
    starts = (np.diff(tr) != 0).astype(int) + (np.diff(glyph_band) != 0) + (glyphs.char[1:] == 0)
    separators = ("", " ", "\n", "\n\n")
    return labels, "".join(separators[k] + label for k, label in zip([0, *starts.tolist()], labels))


def run_pipeline(image, cfg, store, timer=None):
    """Run the full pipeline on a color or gray image.

    `timer` is an optional StageTimer; when given, each stage is
    timed and memory-profiled.
    """
    def timed(stage, fn):
        return timer.run(stage, fn) if timer is not None else fn()

    def extract():
        gray = imaging.to_grayscale(image) if imaging.is_color(image) else image
        all_regions = rg.extract_regions(gray, cfg)
        regions = [all_regions[i] for i in np.flatnonzero(all_regions.text).tolist()]
        return all_regions, regions, [gray[r.bbox.y : r.bbox.y2, r.bbox.x : r.bbox.x2].copy()
                                      for r in regions]

    all_regions, regions, crops = timed("extraction", extract)
    rotations = timed("skew", lambda: [skew.deskew(crop, cfg) for crop in crops])
    binaries = timed("binarize", lambda: [bz.binarize_region(d) for d, _ in rotations])
    bands, glyphs, glyph_band = timed("segment", lambda: _stage_segment(binaries, cfg))
    labels, transcript = timed("recognize", lambda: _stage_recognize(
        binaries, bands, glyphs, glyph_band, store, cfg.class_scheme()))
    tr_results = [RegionResult(region, crop, *rotation, binary)
                  for region, crop, rotation, binary in zip(regions, crops, rotations, binaries)]
    return RunResult(all_regions, tr_results, bands, glyphs, glyph_band, labels, transcript)


def time_pipeline(image, cfg, store, runs=1):
    """Benchmark the pipeline.  Stage times are the mean of `runs` passes
    timed without tracemalloc (unless the caller is already tracing); stage
    peaks come from one more pass under tracemalloc.  Returns the StageTimer
    and the last RunResult.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    timer = StageTimer(input_bytes=int(image.nbytes), runs=runs)
    for _ in range(runs):
        run_pipeline(image, cfg, store, timer=timer)
    for stage in STAGES:
        timer.times_ms[stage] /= runs
    peaks = StageTimer()
    with _tracing():
        result = run_pipeline(image, cfg, store, timer=peaks)
    timer.peak_bytes = peaks.peak_bytes
    return timer, result


def time_load(path, runs=1):
    """Benchmark imaging.load_pnm_file, which converts a PPM to gray as it
    reads it.  The time is the mean of `runs` loads timed as time_pipeline
    times its stages, the peak that of one more load above the allocation
    at its start.  Returns (the image, ms, peak bytes)."""
    if runs < 1:
        raise ValueError("runs must be >= 1")
    t0 = time.perf_counter()
    for _ in range(runs):
        image = imaging.load_pnm_file(path)
    ms = (time.perf_counter() - t0) * 1000.0 / runs
    with _tracing():
        tracemalloc.reset_peak()
        start, _ = tracemalloc.get_traced_memory()
        imaging.load_pnm_file(path)
        peak = tracemalloc.get_traced_memory()[1] - start
    return image, ms, peak


@contextlib.contextmanager
def _tracing():
    """tracemalloc on for the block: started here unless it is already
    tracing, and stopped again only if it was started here."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        yield
    finally:
        if started:
            tracemalloc.stop()


def dump_stages(result, directory):
    """Write the documented per-stage debug artifacts."""
    os.makedirs(directory, exist_ok=True)

    def path(name):
        return os.path.join(directory, name)

    def write(name, text):
        with open(path(name), "w") as fh:
            fh.write(text)

    write("regions.txt", rg.format_region_dump(result.all_regions))
    band_tr = result.bands[:, 0]
    glyph_tr = band_tr[result.glyph_band]
    for i, r in enumerate(result.regions):
        imaging.save_pnm_file(path(f"region_{i}.pgm"), r.crop)
        imaging.save_pnm_file(path(f"region_{i}.deskewed.pgm"), r.deskewed)
        imaging.save_pnm_file(path(f"region_{i}.bin.pgm"), r.binary)
        write(f"region_{i}.profile.txt", skew.format_profile_dump(r.crop, r.angle))
        write(f"region_{i}.bands.txt", sg.format_band_dump(result.bands[band_tr == i, 1:]))
        write(f"region_{i}.glyphs.txt", sg.format_glyph_dump(result.glyphs[glyph_tr == i]))
