"""End-to-end pipeline: extract text regions, de-skew, binarize, segment
into lines and characters, classify each glyph under the config's class
scheme, and join the labels into the transcript.

Every stage is a pure function of its inputs, so repeated runs on the same
image and config are byte-identical.  The pipeline times its own stages:
the same stage breakdown drives both the normal run path and the benchmark,
which records each stage's wall time with tracing off and its tracemalloc
peak in a separate pass.
"""

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


@dataclass
class LineResult:
    band: sg.LineBand
    glyphs: sg.Glyphs
    labels: list  # scheme-mapped template label per glyph


@dataclass
class RegionResult:
    region: rg.Region
    crop: np.ndarray = None
    deskewed: np.ndarray = None
    angle: float = 0.0
    binary: np.ndarray = None
    lines: list = field(default_factory=list)


@dataclass
class RunResult:
    # every region, TR and NR, as the card's regions.Regions table
    all_regions: rg.Regions
    regions: list  # RegionResult per TR
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


def _stage_extract(gray, cfg):
    all_regions = rg.extract_regions(gray, cfg)
    results = []
    for i in np.flatnonzero(all_regions.text).tolist():
        region = all_regions[i]
        box = region.bbox
        crop = gray[box.y : box.y2, box.x : box.x2].copy()
        results.append(RegionResult(region=region, crop=crop))
    return all_regions, results


def _stage_skew(results, cfg):
    for r in results:
        r.deskewed, r.angle = skew.deskew(r.crop, cfg)


def _stage_binarize(results):
    for r in results:
        r.binary = bz.binarize_region(r.deskewed)


def _stage_segment(results, cfg):
    for r in results:
        r.lines = []
        try:
            bands = sg.segment_lines(r.binary, cfg)
        except sg.EmptyRegionError:
            continue
        for band, crop in bands:
            glyphs = sg.segment_characters(crop, cfg)
            r.lines.append(LineResult(band=band, glyphs=glyphs, labels=[]))


def _stage_recognize(results, store, scheme):
    """Classify every glyph of the card as one batch and return the
    transcript: a space before each word's first glyph but a line's first,
    a newline between lines, and a blank line between regions that kept a
    line."""
    crops = [(r.binary[line.band.top : line.band.bottom + 1], line.glyphs)
             for r in results for line in r.lines]
    if not crops:
        return ""
    best, _ = rec.classify(np.concatenate([
        rec.normalize_glyph(crop, g.x1, g.x2, g.top, g.bottom) for crop, g in crops
    ]), store)
    labels = iter([scheme.apply(store.labels[i]) for i in best.tolist()])
    blocks = []
    for r in results:
        lines = []
        for line in r.lines:
            line.labels = [next(labels) for _ in range(len(line.glyphs))]
            lines.append("".join(
                (" " if char == 0 and i else "") + label
                for i, (char, label) in enumerate(zip(line.glyphs.char.tolist(), line.labels))
            ))
        if lines:
            blocks.append("\n".join(lines))
    return "\n\n".join(blocks)


def run_pipeline(image, cfg, store, timer=None):
    """Run the full pipeline on a color or gray image.

    `timer` is an optional StageTimer; when given, each stage is
    timed and memory-profiled.
    """
    def timed(stage, fn):
        return timer.run(stage, fn) if timer is not None else fn()

    def extract():
        gray = imaging.to_grayscale(image) if imaging.is_color(image) else image
        return _stage_extract(gray, cfg)

    all_regions, results = timed("extraction", extract)
    timed("skew", lambda: _stage_skew(results, cfg))
    timed("binarize", lambda: _stage_binarize(results))
    timed("segment", lambda: _stage_segment(results, cfg))
    transcript = timed(
        "recognize", lambda: _stage_recognize(results, store, cfg.class_scheme())
    )
    return RunResult(all_regions=all_regions, regions=results, transcript=transcript)


def time_pipeline(image, cfg, store, runs=1):
    """Benchmark the pipeline.  Stage times are the mean of `runs` passes
    timed without tracemalloc (unless the caller is already tracing); stage
    peaks come from one more pass under tracemalloc.  Returns the StageTimer
    and the last RunResult.

    tracemalloc is started for the peak pass unless it is already tracing,
    and stopped again only if it was started here.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    timer = StageTimer(input_bytes=int(image.nbytes), runs=runs)
    for _ in range(runs):
        run_pipeline(image, cfg, store, timer=timer)
    for stage in STAGES:
        timer.times_ms[stage] /= runs
    peaks = StageTimer()
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        result = run_pipeline(image, cfg, store, timer=peaks)
    finally:
        if started:
            tracemalloc.stop()
    timer.peak_bytes = peaks.peak_bytes
    return timer, result


def dump_stages(result, directory):
    """Write the documented per-stage debug artifacts."""
    os.makedirs(directory, exist_ok=True)

    def path(name):
        return os.path.join(directory, name)

    def write(name, text):
        with open(path(name), "w") as fh:
            fh.write(text)

    write("regions.txt", rg.format_region_dump(result.all_regions))
    for i, r in enumerate(result.regions):
        imaging.save_pnm_file(path(f"region_{i}.pgm"), r.crop)
        imaging.save_pnm_file(path(f"region_{i}.deskewed.pgm"), r.deskewed)
        imaging.save_pnm_file(path(f"region_{i}.bin.pgm"), r.binary)
        write(f"region_{i}.profile.txt", skew.format_profile_dump(r.crop, r.angle))
        write(f"region_{i}.bands.txt", sg.format_band_dump([line.band for line in r.lines]))
        write(f"region_{i}.glyphs.txt",
              "".join(sg.format_glyph_dump(line.glyphs) for line in r.lines))
