"""Acceptance suite: one test per shipping criterion, each printed as a
PASS line with its measured value.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import time

import numpy as np
import pytest

from cardocr import binarize as bz
from cardocr import cli
from cardocr import evaluate as ev
from cardocr import imaging
from cardocr import pipeline
from cardocr import recognize as rec
from cardocr import regions as rg
from cardocr import segment as sg
from cardocr import skew
from cardocr import synth
from cardocr.synth import Band, CardSpec, SuiteParams

from reference import char_accuracy, dissimilarity, noisy, pixel_eval, resample_mask, rotate_mask

MERGED, FULL = rec.ClassScheme("merged"), rec.ClassScheme("full")

CAPS = [c for c in rec.ALPHABET if c.isupper() or c.isdigit()]
LOWER = [c for c in rec.ALPHABET if c.islower()]


def card_line(rng, n_words=6, wlen=(4, 9)):
    """A card-realistic text line: a mix of capital/digit and lowercase words."""
    words = []
    for _ in range(n_words):
        n = int(rng.integers(*wlen))
        pool = CAPS if rng.random() < 0.5 else LOWER
        words.append("".join(pool[int(i)] for i in rng.integers(0, len(pool), n)))
    if not any(c in synth.TALL_CHARS for w in words for c in w):
        words[0] = "B" + words[0][1:]
    return " ".join(words)


def test_c01_f_measure_oracle():
    fm = ev.f_measure(93.52, 96.27)
    assert fm == pytest.approx(94.88, abs=0.01)
    print(f"PASS criterion 1: f_measure(93.52, 96.27) = {fm:.4f} (94.88 +/- 0.01)")


def test_c02_skew_accuracy():
    # CPU time of this process, so a busy shared host does not count
    t0 = time.process_time()
    rng = np.random.default_rng(42)
    errors = []
    for i in range(200):
        true_deg = float(rng.uniform(-10.0, 10.0))
        sigma = float(rng.uniform(0.0, 8.0))
        text = card_line(rng, n_words=5)
        render = synth.render_region([text], 3, skew_deg=true_deg)
        _, estimate = skew.deskew(noisy(render, sigma, 1000 + i))
        errors.append(abs(estimate - true_deg))
    elapsed = time.process_time() - t0
    within = float(np.mean(np.array(errors) <= 3.0))

    # flat profile: exactly zero
    flat = np.full((12, 40), 220, np.uint8)
    flat[8, :] = 30
    _, angle = skew.deskew(flat)

    assert within >= 0.95
    assert angle == 0.0
    assert elapsed < 5.0
    print(
        f"PASS criterion 2: skew within +/-3 deg on {within * 100:.1f}% of 200 "
        f"bands (>= 95%), flat profile = {angle} deg, {elapsed:.1f}s (< 5s)"
    )


def test_c03_region_extraction(tmp_path):
    t0 = time.time()
    params = SuiteParams(count=100, seed=77, skew_min=-2.0, skew_max=2.0,
                         decoys_min=1, decoys_max=2)
    suite_dir = tmp_path / "suite"
    synth.generate_suite(suite_dir, params)
    counts = ev.EvalCounts()
    decoy_clean_cards = 0
    decoy_cards = 0
    for base in synth.suite_card_paths(str(suite_dir)):
        truth_regions, _ = synth.load_suite_truth(base)
        predicted = [
            r for r in rg.extract_regions(imaging.load_pnm_file(base + ".ppm"))
            if r.kind == rg.TR
        ]
        counts = counts + ev.region_eval(predicted, truth_regions)
        decoys = [r for r in truth_regions if r.kind == "NR"]
        if decoys:
            decoy_cards += 1
            claimed = any(
                ev.overlap_over_union(p.bbox, d.bbox) >= 0.5
                for p in predicted
                for d in decoys
            )
            if not claimed:
                decoy_clean_cards += 1
    metrics = ev.metrics_from_counts(counts)
    decoy_rate = decoy_clean_cards / decoy_cards
    elapsed = time.time() - t0
    assert metrics.f_measure >= 95.0
    assert decoy_rate >= 0.90
    assert elapsed < 60.0
    print(
        f"PASS criterion 3: region FM = {metrics.f_measure:.2f}% (>= 95%), decoys NR "
        f"on {decoy_rate * 100:.0f}% of {decoy_cards} cards (>= 90%), {elapsed:.1f}s (< 60s)"
    )


def test_c04_binarization():
    rng = np.random.default_rng(50)
    counts = ev.EvalCounts()
    for i in range(60):
        n_lines = int(rng.integers(1, 4))
        scale = int(rng.integers(3, 6))
        lines = [card_line(rng, n_words=int(rng.integers(1, 4))) for _ in range(n_lines)]
        render = synth.render_region(lines, scale)
        binary = bz.binarize_region(noisy(render, 10.0, 900 + i))
        counts = counts + pixel_eval(binary, render.mask)
    metrics = ev.metrics_from_counts(counts)

    # promotion superset property, exhaustively over 10^4 random patches
    rng2 = np.random.default_rng(51)
    for _ in range(10_000):
        patch = rng2.integers(0, 256, size=(8, 8), dtype=np.uint8)
        pass1 = bz.threshold_region(patch)
        full = bz.binarize_region(patch)
        assert bool(np.all(full[pass1])), "promotion shrank the foreground"

    assert metrics.f_measure >= 95.0
    print(
        f"PASS criterion 4: pixel FM = {metrics.f_measure:.2f}% at sigma=10 (>= 95%), "
        f"promotion superset held on 10000 random 8x8 patches"
    )


def _line_count_run(sigma, count, seed):
    rng = np.random.default_rng(seed)
    correct = 0
    for i in range(count):
        n_lines = int(rng.integers(1, 6))
        scale = int(rng.integers(3, 6))
        lines = [card_line(rng, n_words=int(rng.integers(1, 4))) for _ in range(n_lines)]
        render = synth.render_region(lines, scale)
        binary = bz.binarize_region(noisy(render, sigma, seed * 100 + i))
        bands = sg.segment_lines(binary).tolist()
        if len(bands) != n_lines:
            continue
        # one band per truth line and one truth line per band (no merge/split)
        truth_hits = [
            sum(1 for b_top, b_bottom in bands if not (b_bottom < top or b_top > bottom))
            for top, bottom in render.line_spans
        ]
        band_hits = [
            sum(1 for top, bottom in render.line_spans
                if not (b_bottom < top or b_top > bottom))
            for b_top, b_bottom in bands
        ]
        if all(h == 1 for h in truth_hits) and all(h == 1 for h in band_hits):
            correct += 1
    return correct / count


def test_c05_line_segmentation():
    clean = _line_count_run(sigma=0.0, count=100, seed=60)
    noisy = _line_count_run(sigma=10.0, count=100, seed=61)
    assert clean == 1.0
    assert noisy >= 0.98
    print(
        f"PASS criterion 5: line counts {clean * 100:.0f}% clean (= 100%), "
        f"{noisy * 100:.0f}% at sigma=10 (>= 98%)"
    )


def test_c06_character_segmentation():
    rng = np.random.default_rng(70)
    correct = 0
    total = 200
    for i in range(total):
        scale = int(rng.integers(4, 6))  # 3 MP-equivalent glyph size
        text = card_line(rng, n_words=int(rng.integers(1, 4)))
        render = synth.render_region([text], scale)
        binary = bz.binarize_region(noisy(render, 10.0, 500 + i))
        top, bottom = sg.segment_lines(binary)[0]
        glyphs = sg.segment_characters(binary[top : bottom + 1])
        if len(glyphs) == len("".join(render.words_per_line[0])):
            correct += 1
    rate = correct / total
    assert rate >= 0.97
    print(
        f"PASS criterion 6: glyph counts correct on {rate * 100:.1f}% of {total} "
        f"lines (>= 97%)"
    )


def test_c07_recognition_properties(store):
    # every stored template matches itself with zero dissimilarity
    assert len(store) == 730
    best, dist = rec.classify(store.patterns(), store)
    for label, i, score in zip(store.labels, best.tolist(), dist.tolist()):
        assert score == 0
        assert MERGED.apply(store.labels[i]) == MERGED.apply(label)

    # metric axioms on 10^5 random triples, in batches; the batch distance
    # formula (ink-only/background-only disagreement split) independently
    # cross-checks the module's counter
    rng = np.random.default_rng(80)
    triples = 0
    for _ in range(50):
        a = rng.random((2000, 48 * 48)) < 0.5
        b = rng.random((2000, 48 * 48)) < 0.5
        c = rng.random((2000, 48 * 48)) < 0.5
        dab = (a & ~b).sum(axis=1) + (~a & b).sum(axis=1)
        dbc = (b & ~c).sum(axis=1) + (~b & c).sum(axis=1)
        dac = (a & ~c).sum(axis=1) + (~a & c).sum(axis=1)
        assert (dac <= dab + dbc).all()
        assert ((a & ~a).sum(axis=1) == 0).all()
        triples += 2000
    a0 = a[0].reshape(48, 48)
    b0 = b[0].reshape(48, 48)
    assert dissimilarity(a0, b0) == int(dab[0])
    assert dissimilarity(a0, b0) == dissimilarity(b0, a0)
    assert dissimilarity(a0, a0) == 0

    print(
        f"PASS criterion 7: 730/730 template self-consistency at score 0, "
        f"metric axioms on {triples} triples"
    )


def _perturbed_eval(store, count, seed):
    rng = np.random.default_rng(seed)
    truth = []
    raw_predictions = []
    for _ in range(count):
        ch = rec.ALPHABET[int(rng.integers(0, len(rec.ALPHABET)))]
        mask = synth.render_region([ch], int(rng.integers(4, 7)), margin_cells=0).mask
        mask = resample_mask(
            mask, float(rng.uniform(0.8, 1.2)), float(rng.uniform(0.8, 1.2))
        )
        mask = rotate_mask(mask, float(rng.uniform(-2.0, 2.0)))
        if not mask.any():
            continue
        pattern = rec.normalize_pattern(mask)
        pattern = pattern ^ (rng.random(pattern.shape) < 0.02)
        [best], _ = rec.classify(pattern[None], store)
        raw_predictions.append(store.labels[best])
        truth.append(ch)
    merged_acc = char_accuracy(raw_predictions, truth, MERGED)
    full_acc = char_accuracy(raw_predictions, truth, FULL)
    return merged_acc, full_acc, len(truth)


def test_c08_recognition_suite(store):
    t0 = time.time()
    # seed disjoint from the store-building draws (store uses seed 7)
    merged_acc, full_acc, n = _perturbed_eval(store, 5000, seed=12345)
    elapsed = time.time() - t0
    assert n >= 5000
    assert merged_acc >= 90.0
    assert merged_acc >= full_acc  # merge dominance on a real evaluation run
    assert elapsed < 120.0
    print(
        f"PASS criterion 8: merged accuracy {merged_acc:.2f}% on {n} perturbed "
        f"glyphs (>= 90%), full {full_acc:.2f}% <= merged, {elapsed:.1f}s (< 120s)"
    )


def test_c09_performance_envelope(store_dir, tmp_path, capsys):
    spec = CardSpec(
        width=2048, height=1536,  # 3 MP
        bands=[
            Band(text="Ayatullah Faruk Mollah", x=100, y=150, scale=6),
            Band(text="School of Mobile Computing", x=100, y=400, scale=5),
            Band(text="Jadavpur University Kolkata", x=100, y=650, scale=5),
            Band(text="Phone: +91 33 2414 6666", x=100, y=900, scale=5),
            Band(text="www.jaduniv.edu.in", x=100, y=1150, scale=5),
        ],
        noise_sigma=4.0,
    )
    color, _ = synth.render_card(spec, seed=3)
    card = tmp_path / "bench.ppm"
    imaging.save_pnm_file(card, color)
    assert cli.main(["bench", str(card), "--templates", store_dir]) == 0
    report = dict(
        line.split("=") for line in capsys.readouterr().out.strip().splitlines()
    )
    total_ms = float(report["total_ms"])
    max_peak = int(report["max_peak_bytes"])
    input_bytes = int(report["input_bytes"])
    assert total_ms <= 2000.0
    assert max_peak <= 4 * input_bytes
    with capsys.disabled():
        print(
            f"\nPASS criterion 9: 3 MP card in {total_ms:.0f} ms (<= 2000), peak "
            f"{max_peak / 1e6:.1f} MB <= 4x input ({4 * input_bytes / 1e6:.1f} MB)"
        )


def test_c10_determinism(store_dir, tmp_path, capsys):
    spec = CardSpec(width=700, height=220, noise_sigma=5.0,
                    bands=[Band(text="OCR 2010", x=40, y=60, scale=5)])
    color, _ = synth.render_card(spec, seed=2)
    card = tmp_path / "card.ppm"
    imaging.save_pnm_file(card, color)
    transcripts = []
    dump_bytes = []
    for run in ("a", "b"):
        dumps = tmp_path / f"dump_{run}"
        assert cli.main(["run", str(card), "--templates", store_dir,
                         "--dump-stages", str(dumps)]) == 0
        transcripts.append(capsys.readouterr().out)
        dump_bytes.append(
            {p.name: p.read_bytes() for p in sorted(dumps.iterdir())}
        )
    assert transcripts[0] == transcripts[1]
    assert dump_bytes[0] == dump_bytes[1]

    params = SuiteParams(count=3, seed=31, skew_min=-3, skew_max=3,
                         salt_pepper_min=0.005, salt_pepper_max=0.005)
    suite_files = []
    for name in ("s1", "s2"):
        out = tmp_path / name
        synth.generate_suite(out, params)
        suite_files.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert suite_files[0] == suite_files[1]
    with capsys.disabled():
        print(
            "\nPASS criterion 10: cmd_run transcript and stage dumps byte-identical; "
            "suite generation byte-identical under a fixed seed"
        )
