"""The contract between the package and perfbench/score.py: the benchmark
scores a suite card's truth as regions.parse_region_dump reads it against
the text regions of run_pipeline's result (`.region.bbox`, `.region.kind`),
and its pooled region counts must be evaluate.region_eval's."""

import importlib.util
import pathlib
import types

from cardocr import evaluate, imaging, pipeline, regions as rg, synth
from cardocr.config import PipelineConfig

SCORE = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "score.py"


def load_score():
    spec = importlib.util.spec_from_file_location("perfbench_score", SCORE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_pooled_counts_equal_region_eval(store, tmp_path):
    synth.generate_suite(tmp_path, synth.SuiteParams(count=2, seed=3, skew_min=-2, skew_max=2))
    cfg = PipelineConfig()
    cards, results = [], []
    expected = evaluate.EvalCounts()
    for base in synth.suite_card_paths(tmp_path):
        truth = rg.parse_region_dump(pathlib.Path(base + ".regions.txt").read_text())
        text = pathlib.Path(base + ".truth.txt").read_text()
        result = pipeline.run_pipeline(imaging.load_pnm_file(base + ".ppm"), cfg, store)
        cards.append(types.SimpleNamespace(truth_text=text, truth_regions=truth))
        results.append(result)
        expected = expected + evaluate.region_eval([r.region for r in result.regions], truth)

    _, chars, counts = load_score().score_cards(cards, results, cfg.class_scheme())
    assert counts == expected
    # text regions were matched and characters scored
    assert counts.tp > 0 and chars > 0
