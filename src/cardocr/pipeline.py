"""End-to-end pipeline: extract text regions, de-skew, binarize, segment
into lines and characters, classify, and assemble the transcript.

Every stage is a pure function of its inputs, so repeated runs on the same
image and config are byte-identical.  The same stage breakdown drives both
the normal run path and the benchmark instrumentation.
"""

import os
from dataclasses import dataclass, field

import numpy as np

from . import binarize as bz
from . import evaluate as ev
from . import imaging
from . import recognize as rec
from . import regions as rg
from . import segment as sg
from . import skew


@dataclass
class LineResult:
    band: sg.LineBand
    glyphs: list
    labels: list  # raw (pre-scheme) template labels per glyph


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
    all_regions: list = field(default_factory=list)  # every region, TR and NR
    regions: list = field(default_factory=list)      # RegionResult per TR
    transcript: str = ""

    def flat_labels(self, scheme):
        out = []
        for region in self.regions:
            for line in region.lines:
                out.extend(scheme.apply(lb) for lb in line.labels)
        return out


def _stage_extract(gray, cfg):
    all_regions = rg.extract_regions(gray, cfg)
    results = []
    for region in all_regions:
        if region.kind != rg.TR:
            continue
        box = region.bbox
        crop = gray[box.y : box.y2, box.x : box.x2].copy()
        results.append(RegionResult(region=region, crop=crop))
    return all_regions, results


def _stage_skew(results, cfg):
    for r in results:
        r.deskewed, r.angle = skew.deskew(r.crop, cfg)


def _stage_binarize(results, cfg):
    for r in results:
        r.binary = bz.binarize_region(r.deskewed, cfg)


def _stage_segment(results, cfg):
    for r in results:
        r.lines = []
        try:
            bands = sg.segment_lines(r.binary, cfg)
        except sg.EmptyRegionError:
            continue
        for band, crop in bands:
            try:
                glyphs = sg.segment_characters(crop, cfg)
            except sg.EmptyRegionError:
                continue
            r.lines.append(LineResult(band=band, glyphs=glyphs, labels=[]))


def _stage_recognize(results, store, scheme):
    for r in results:
        for line in r.lines:
            line.labels = [
                rec.classify(rec.normalize_glyph(g), store, rec.FULL).label
                for g in line.glyphs
            ]
    region_labels = []
    for r in results:
        lines_out = []
        for line in r.lines:
            words = []
            for glyph, label in zip(line.glyphs, line.labels):
                if glyph.word_index == len(words):
                    words.append([])
                words[glyph.word_index].append(scheme.apply(label))
            lines_out.append(words)
        region_labels.append(lines_out)
    region_labels = [lines for lines in region_labels if lines]
    return rec.transcribe(region_labels)


def run_pipeline(image, cfg, store, timer=None):
    """Run the full pipeline on a color or gray image.

    `timer` is an optional evaluate.StageTimer; when given, each stage is
    timed and memory-profiled.
    """
    def timed(stage, fn):
        return timer.run(stage, fn) if timer is not None else fn()

    def extract():
        gray = imaging.to_grayscale(image) if imaging.is_color(image) else image
        return _stage_extract(gray, cfg)

    all_regions, results = timed("extraction", extract)
    timed("skew", lambda: _stage_skew(results, cfg))
    timed("binarize", lambda: _stage_binarize(results, cfg))
    timed("segment", lambda: _stage_segment(results, cfg))
    transcript = timed(
        "recognize", lambda: _stage_recognize(results, store, cfg.class_scheme())
    )
    return RunResult(all_regions=all_regions, regions=results, transcript=transcript)


def time_pipeline(image, cfg, store, runs=1):
    """Benchmark the pipeline; averages stage times over `runs` passes."""
    if runs < 1:
        raise ValueError("runs must be >= 1")
    accumulated = None
    result = None
    for _ in range(runs):
        timer = ev.StageTimer()
        try:
            result = run_pipeline(image, cfg, store, timer=timer)
        except Exception as exc:
            timer.close()
            exc.partial_timings = timer.timings
            raise
        timer.close()
        if accumulated is None:
            accumulated = timer.timings
        else:
            for stage in ev.STAGES:
                accumulated.times_ms[stage] += timer.timings.times_ms.get(stage, 0.0)
                accumulated.peak_bytes[stage] = max(
                    accumulated.peak_bytes.get(stage, 0),
                    timer.timings.peak_bytes.get(stage, 0),
                )
    for stage in ev.STAGES:
        accumulated.times_ms[stage] /= runs
    accumulated.runs = runs
    accumulated.input_bytes = int(image.nbytes)
    return accumulated, result


def dump_stages(result, directory):
    """Write the documented per-stage debug artifacts."""
    os.makedirs(directory, exist_ok=True)

    def path(name):
        return os.path.join(directory, name)

    with open(path("regions.txt"), "w") as fh:
        fh.write(rg.format_region_dump(result.all_regions))
    for i, r in enumerate(result.regions):
        imaging.save_pnm_file(path(f"region_{i}.pgm"), r.crop)
        imaging.save_pnm_file(path(f"region_{i}.deskewed.pgm"), r.deskewed)
        imaging.save_pnm_file(path(f"region_{i}.bin.pgm"), r.binary)
        try:
            profile = skew.bottom_profile(r.crop)
            stats = skew.profile_stats(profile)
            retained = skew.filter_profile(profile, stats).cols
        except (skew.NoTextError, skew.DegenerateProfileError):
            profile, stats, retained = None, None, []
        with open(path(f"region_{i}.profile.txt"), "w") as fh:
            if profile is not None:
                fh.write(skew.format_profile_dump(profile, retained, stats, r.angle))
        with open(path(f"region_{i}.bands.txt"), "w") as fh:
            fh.write(sg.format_band_dump([line.band for line in r.lines]))
        with open(path(f"region_{i}.glyphs.txt"), "w") as fh:
            for line in r.lines:
                fh.write(sg.format_glyph_dump(line.glyphs))
