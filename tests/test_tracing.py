"""The contract between the package and perfbench/tracing.py: the tracer
reads its work counts from the results of the layers it wraps (the grid of
classify_grid, the length of assemble_regions' boxes, the kinds of
extract_regions' table, the size of each rotation, the length of each
line's glyphs).  A traced card must count what the same card computes, and
every traced layer must run on it."""

import importlib.util
import pathlib

import numpy as np
import pytest

from cardocr import imaging, pipeline, regions as rg, synth
from cardocr.config import PipelineConfig

TRACING = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def card(tmp_path_factory):
    """The card's PPM file, as the generator writes it."""
    spec = synth.CardSpec(
        width=480, height=240, skew_deg=2.0, salt_pepper=0.001,
        bands=[synth.Band(text="Mobile Computing", x=40, y=60, scale=3),
               synth.Band(text="Kolkata", x=40, y=150, scale=4)],
    )
    color, _ = synth.render_card(spec, seed=4)
    path = tmp_path_factory.mktemp("tracing") / "card.ppm"
    imaging.save_pnm_file(path, color)
    return path


@pytest.fixture(scope="module")
def tracing():
    return load_tracing()


@pytest.fixture(scope="module")
def traced(tracing, card, store):
    """The tracer and the result of the card run as perfbench's card op
    runs it: the load, then the pipeline on its image."""
    tracer = tracing.Tracer()
    result, _ = tracer.run_card(0, lambda: pipeline.run_pipeline(
        imaging.load_pnm_file(card), PipelineConfig(), store))
    return tracer, result


def test_every_traced_layer_runs(tracing, traced):
    tracer, _ = traced
    assert [name for name in tracing.LAYER_NAMES if not tracer.counts[name + ".calls"]] == []


def test_traced_counts_equal_direct_counts(card, traced):
    tracer, result = traced
    gray = imaging.load_pnm_file(card)
    grid = rg.classify_grid(gray)
    boxes = rg.assemble_regions(grid)
    table = rg.extract_regions(gray)
    rotated = [r.deskewed for r in result.regions if r.angle != 0.0]
    direct = {
        "regions.blocks": grid.labels.size,
        "regions.ib_blocks": int(np.count_nonzero(grid.labels)),
        "regions.count": boxes.shape[0],
        "regions.tr": int(np.count_nonzero(table.text)),
        "imaging.rotate.px": sum(r.size for r in rotated),
        "segment.glyphs": len(result.glyphs),
    }
    assert {name: tracer.counts[name] for name in direct} == direct
    assert tracer.counts["imaging.rotate.calls"] == len(rotated)
    # the card exercises every count, with NRs beside its text regions
    assert all(direct.values())
    assert direct["regions.count"] > direct["regions.tr"] == len(result.regions)
    assert len(result.all_regions) == len(table)

