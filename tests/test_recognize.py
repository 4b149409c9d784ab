import tracemalloc

import numpy as np
import pytest

from cardocr import cli, imaging, pipeline, synth
from cardocr import segment as sg
from cardocr.config import PipelineConfig
from cardocr import recognize as rec
from cardocr.recognize import ClassScheme, StoreError, TemplateStore
from reference import dissimilarity, nearest_templates, resample_48, to_gray, zone_counts
from test_imaging import traced_peak
from test_segment import band_lines

MERGED, FULL = ClassScheme("merged"), ClassScheme("full")


def pattern_from(mask_rows):
    return np.array([[c == "#" for c in row] for row in mask_rows], dtype=bool)


def random_pattern(rng):
    return rng.random((48, 48)) < 0.5


def classified(patterns, store):
    """(label, distance) of each pattern's winning template."""
    best, dist = rec.classify(patterns, store)
    return [(store.labels[i], d) for i, d in zip(best.tolist(), dist.tolist())]


class TestNormalize:
    def test_tight_48_input_is_identity(self):
        rng = np.random.default_rng(0)
        p = random_pattern(rng)
        p[0, 0] = p[-1, -1] = p[0, -1] = p[-1, 0] = True  # tight bbox
        assert np.array_equal(rec.normalize_pattern(p), p)

    def test_solid_block_stays_solid(self):
        assert rec.normalize_pattern(np.ones((10, 20), dtype=bool)).all()

    def test_checkerboard_quadrants(self):
        quad = rec.normalize_pattern(np.array([[True, False], [False, True]]))
        assert quad[:24, :24].all()
        assert not quad[:24, 24:].any()
        assert not quad[24:, :24].any()
        assert quad[24:, 24:].all()

    def test_crops_margins(self):
        mask = np.zeros((30, 30), dtype=bool)
        mask[10:20, 5:25] = True
        assert rec.normalize_pattern(mask).all()

    def test_empty_glyph(self):
        with pytest.raises(ValueError, match="empty"):
            rec.normalize_pattern(np.zeros((5, 5), dtype=bool))


class TestDissimilarity:
    def test_identical(self):
        p = random_pattern(np.random.default_rng(1))
        assert dissimilarity(p, p) == 0

    def test_complement(self):
        p = random_pattern(np.random.default_rng(2))
        assert dissimilarity(p, ~p) == 48 * 48

    def test_seven_cells(self):
        rng = np.random.default_rng(3)
        a = random_pattern(rng)
        b = a.copy()
        flat = b.reshape(-1)
        flat[[0, 100, 200, 300, 400, 500, 600]] ^= True
        assert dissimilarity(a, b) == 7

    def test_metric_axioms(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            a, b, c = (random_pattern(rng) for _ in range(3))
            dab = dissimilarity(a, b)
            assert dab == dissimilarity(b, a)
            assert dissimilarity(a, a) == 0
            assert (dab == 0) == np.array_equal(a, b)
            assert dab <= dissimilarity(a, c) + dissimilarity(c, b)

    def test_shape_check(self):
        with pytest.raises(ValueError):
            dissimilarity(np.zeros((4, 4), bool), np.zeros((4, 4), bool))


class TestScheme:
    def test_merges(self):
        for group in rec.MERGE_GROUPS:
            canon = group[0]
            for ch in group:
                assert MERGED.apply(ch) == canon

    def test_identity_elsewhere(self):
        assert MERGED.apply("B") == "B"
        assert MERGED.apply("@") == "@"
        assert FULL.apply("l") == "l"

    def test_idempotent(self):
        for ch in rec.ALPHABET:
            assert MERGED.apply(MERGED.apply(ch)) == MERGED.apply(ch)

    def test_class_counts(self):
        assert len({FULL.apply(ch) for ch in rec.ALPHABET}) == 73
        # 73 minus the ten labels MERGE_MAP sends to another
        assert len({rec.MERGE_MAP.get(ch, ch) for ch in rec.ALPHABET}) == 63

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            ClassScheme("fuzzy")

    def test_schemes_are_the_config_and_cli_choices(self):
        # the config, its scheme object and the --scheme flag read SCHEMES
        assert list(rec.SCHEMES) == ["merged", "full"]
        for name in rec.SCHEMES:
            assert PipelineConfig(scheme=name).class_scheme() == ClassScheme(name)
        with pytest.raises(ValueError, match="^unknown class scheme 'fuzzy'$"):
            PipelineConfig(scheme="fuzzy")
        parser = cli.build_parser()
        for name in rec.SCHEMES:
            assert parser.parse_args(["run", "CARD", "--scheme", name]).scheme == name
        with pytest.raises(SystemExit):
            parser.parse_args(["run", "CARD", "--scheme", "fuzzy"])


class TestClassify:
    def make_store(self, labels, rng):
        return TemplateStore(np.stack([random_pattern(rng) for _ in labels]), labels)

    def test_self_match(self, store):
        [(label, score)] = classified(store.patterns()[37:38], store)
        assert score == 0
        assert label == store.labels[37]

    def test_merged_label_for_small_l(self, store):
        i = store.labels.index("l")
        [best], _ = rec.classify(store.patterns()[i : i + 1], store)
        assert MERGED.apply(store.labels[best]) == "I"

    def test_matches_brute_force(self):
        rng = np.random.default_rng(9)
        store = self.make_store(["A", "B", "C", "D", "E"], rng)
        probes = np.stack([random_pattern(rng) for _ in range(25)])
        for probe, (label, score) in zip(probes, classified(probes, store)):
            dists = [dissimilarity(probe, t) for t in store.patterns()]
            best = min(range(5), key=lambda i: (dists[i], i))
            assert label == store.labels[best]
            assert score == dists[best]

    def test_tie_breaks_to_store_order(self):
        rng = np.random.default_rng(10)
        shared = random_pattern(rng)
        store = TemplateStore(np.stack([shared, shared]), ["X", "Y"])
        assert classified(shared[None], store)[0][0] == "X"

    def test_ties_in_a_batch_break_to_store_order(self):
        rng = np.random.default_rng(15)
        shared, other = random_pattern(rng), random_pattern(rng)
        store = TemplateStore(np.stack([shared, other, shared, other]), ["X", "Z", "Y", "W"])
        got = classified(np.stack([shared, other, shared]), store)
        assert got == [("X", 0), ("Z", 0), ("X", 0)]

    def test_empty_store(self):
        with pytest.raises(StoreError, match="empty"):
            TemplateStore(np.zeros((0, 48, 48), dtype=bool), [])

    def test_patterns_and_labels_of_different_lengths(self):
        rng = np.random.default_rng(17)
        stack = np.stack([random_pattern(rng) for _ in range(3)])
        with pytest.raises(StoreError, match="3 labels need"):
            TemplateStore(stack[:2], ["A", "B", "C"])
        with pytest.raises(StoreError, match="2 labels need"):
            TemplateStore(stack, ["A", "B"])
        with pytest.raises(StoreError, match="1 labels need"):
            TemplateStore(np.zeros((1, 48, 47), dtype=bool), ["A"])

    def test_patterns_round_trip(self):
        rng = np.random.default_rng(18)
        stack = np.stack([random_pattern(rng) for _ in range(7)])
        got = TemplateStore(stack, ["A"] * 7).patterns()
        assert got.dtype == bool and np.array_equal(got, stack)

    def test_rejects_a_single_pattern(self, store):
        with pytest.raises(ValueError, match="stack"):
            rec.classify(store.patterns()[0], store)


@pytest.fixture(scope="module")
def card_glyphs(store):
    """(line crop, Glyphs) per segmented line of a three-band card."""
    spec = synth.CardSpec(width=1024, height=768, noise_sigma=3.0, bands=[
        synth.Band(text="Ayatullah Faruk Mollah", x=60, y=80, scale=5),
        synth.Band(text="Phone: +91 33 2414 6666", x=60, y=300, scale=4),
        synth.Band(text="www.jaduniv.edu.in", x=60, y=500, scale=3),
    ])
    color, _ = synth.render_card(spec, seed=4)
    return band_lines(pipeline.run_pipeline(to_gray(color), PipelineConfig(), store))


def card_stack(card_glyphs):
    """The card's (n, 48, 48) stack, gathered line by line as the pipeline
    does."""
    return np.concatenate([
        rec.normalize_glyph(crop, g.x1, g.x2, g.top, g.bottom) for crop, g in card_glyphs
    ])


class TestBatch:
    """The per-line gather against the per-glyph references."""

    def test_normalize_glyph_matches_normalize_pattern(self, card_glyphs):
        crops = [
            crop[top : bottom + 1, x1 : x2 + 1]
            for crop, g in card_glyphs
            for x1, x2, top, bottom in zip(g.x1, g.x2, g.top, g.bottom)
        ]
        assert len(crops) > 50
        stack = card_stack(card_glyphs)
        assert stack.shape == (len(crops), 48, 48) and stack.dtype == bool
        for crop, pattern in zip(crops, stack):
            assert np.array_equal(pattern, resample_48(crop))
            assert np.array_equal(pattern, rec.normalize_pattern(crop))

    def test_empty_batch(self, store, monkeypatch):
        def fail(*args):
            raise AssertionError("bound computed for an empty stack")

        none = np.zeros(0, dtype=np.intp)
        stack = rec.normalize_glyph(np.ones((4, 4), dtype=bool), none, none, none, none)
        assert stack.shape == (0, 48, 48) and stack.dtype == bool
        monkeypatch.setattr(rec, "_zone_counts", fail)
        best, dist = rec.classify(stack, store)
        assert best.shape == dist.shape == (0,)


class TestZoneCounts:
    """The matcher's zone counts, summed over a transposed copy of the
    packed row counts, equal a per-zone popcount of the pattern."""

    def test_random_patterns(self):
        rng = np.random.default_rng(24)
        density = rng.random((40, 1, 1))
        stack = rng.random((40, 48, 48)) < density
        stack[0], stack[1] = False, True
        got = rec._zone_counts(rec._pack_words(stack))
        assert got.dtype == np.int16 and got.shape == (40, 9)
        assert np.array_equal(got, zone_counts(stack))

    def test_store_words(self, store):
        expected = zone_counts(store.patterns())
        assert np.array_equal(rec._zone_counts(store._words), expected)
        assert np.array_equal(store._zones, expected.T)


class TestPrunedSearch:
    """The bound-then-verify matcher returns the exhaustive argmin and
    minimum distance, ties to store order."""

    def test_card_glyphs(self, card_glyphs, store):
        stack = card_stack(card_glyphs)
        assert classified(stack, store) == nearest_templates(stack, store)

    def test_noisy_store_patterns(self, store):
        rng = np.random.default_rng(22)
        picks = rng.integers(0, len(store), 300)
        noisy = store.patterns()[picks] ^ (rng.random((300, 48, 48)) < 0.08)
        assert classified(noisy, store) == nearest_templates(noisy, store)

    # What classify holds beyond one batch's gathered words, at the 9,083
    # candidate pairs below: the pair indices and distances and the two
    # (13, 730) int16 bound buffers, 263,698 bytes (numpy 2.4).  When a
    # batch was sized by its XOR temporary alone, the gathered b[cols]
    # beside it doubled the batch, and the call peaked at 2,360,594 bytes.
    BEYOND_BATCH_BYTES = 1 << 19

    def test_batch_peak_counts_both_operands(self, store):
        patterns = np.random.default_rng(0).random((13, 48, 48)) < 0.3
        rec.classify(patterns, store)
        _, peak = traced_peak(lambda: rec.classify(patterns, store))
        assert peak <= rec.MATCH_BATCH_BYTES + self.BEYOND_BATCH_BYTES

    def test_equal_zone_counts_prune_nothing(self, monkeypatch):
        # every template shuffles the pixels of one pattern inside each
        # 16x16 zone, so all lower bounds of a probe are equal and every
        # pair is verified, seven pairs per exact batch
        rng = np.random.default_rng(23)
        base = random_pattern(rng).reshape(3, 16, 3, 16).transpose(0, 2, 1, 3).reshape(9, 256)
        templates = []
        for _ in range(24):
            zones = np.stack([rng.permutation(zone) for zone in base])
            templates.append(zones.reshape(3, 3, 16, 16).transpose(0, 2, 1, 3).reshape(48, 48))
        templates[17] = templates[5]  # a tie the later label must lose
        stack = np.stack(templates)
        counts = stack.reshape(-1, 3, 16, 3, 16).sum(axis=(2, 4))
        assert (counts == counts[0]).all()
        store = TemplateStore(stack, list(rec.ALPHABET[:24]))
        monkeypatch.setattr(rec, "MATCH_BATCH_BYTES", 2 * 7 * 8 * rec.PATTERN_WORDS)
        probes = np.concatenate([stack[[5, 17, 0]], stack[:10] ^ (rng.random((10, 48, 48)) < 0.1)])
        got = classified(probes, store)
        assert got[:3] == [(store.labels[5], 0), (store.labels[5], 0), (store.labels[0], 0)]
        assert got == nearest_templates(probes, store)


class TestBuildStore:
    def glyph_samples(self, label, n, rng, distinct=True):
        base = synth.render_region([label], 5, margin_cells=0).mask
        out = []
        for i in range(n):
            mask = base.copy()
            if distinct:
                mask[rng.integers(0, mask.shape[0]), rng.integers(0, mask.shape[1])] ^= True
            out.append((label, mask))
        return out

    def test_exact_count_kept(self):
        rng = np.random.default_rng(12)
        store = rec.build_store(self.glyph_samples("A", 10, rng))
        assert len(store) == 10
        assert store.labels == ["A"] * 10

    def test_identical_samples_keep_ten(self):
        samples = [("B", synth.render_region(["B"], 5, margin_cells=0).mask)] * 12
        store = rec.build_store(samples)
        assert len(store) == 10

    def test_outlier_dropped(self):
        rng = np.random.default_rng(13)
        samples = self.glyph_samples("C", 10, rng)
        samples.append(("C", np.ones((40, 40), dtype=bool)))  # solid blob outlier
        store = rec.build_store(samples)
        assert len(store) == 10
        solid = rec.normalize_pattern(np.ones((40, 40), dtype=bool))
        assert all(dissimilarity(p, solid) > 0 for p in store.patterns())

    @pytest.mark.parametrize("batch_pairs", [None, 7], ids=["one-batch", "seven-pair-batches"])
    def test_medoids_match_reference_ranking(self, monkeypatch, batch_pairs):
        # with seven pairs per batch, each sample's 16 pairs span three
        if batch_pairs:
            monkeypatch.setattr(rec, "MATCH_BATCH_BYTES",
                                2 * batch_pairs * 8 * rec.PATTERN_WORDS)
        rng = np.random.default_rng(15)
        samples = [("E", synth.perturbed_glyph_mask("E", rng)) for _ in range(16)]
        patterns = [rec.normalize_pattern(mask) for _, mask in samples]
        scores = [sum(dissimilarity(p, q) for q in patterns) for p in patterns]
        keep = sorted(np.argsort(scores, kind="stable")[:10])
        store = rec.build_store(samples)
        assert [p.tobytes() for p in store.patterns()] == [
            patterns[i].tobytes() for i in keep
        ]

    def test_too_few_samples(self):
        rng = np.random.default_rng(14)
        with pytest.raises(StoreError, match="needs"):
            rec.build_store(self.glyph_samples("D", 9, rng))

    def test_unknown_label(self):
        with pytest.raises(StoreError):
            rec.build_store([("?", np.ones((9, 9), bool))] * 10)

    def test_cross_class_duplicates_rejected(self):
        mask = np.ones((20, 20), dtype=bool)
        samples = [("-", mask)] * 10 + [(".", mask)] * 10
        with pytest.raises(StoreError, match="identical"):
            rec.build_store(samples)

    def test_full_font_store(self, store):
        assert len(store) == 730  # 73 classes x 10 samples
        labels = store.labels
        assert len(set(labels)) == 73
        assert all(labels.count(ch) == 10 for ch in set(labels))


class TestStoreIO:
    def test_round_trip(self, store, tmp_path):
        directory = tmp_path / "store"
        rec.save_store(store, directory)
        assert sorted(p.name for p in directory.iterdir()) == ["labels.txt", "templates.pgm"]
        back = rec.load_store(directory)
        assert len(back) == len(store)
        assert back.labels == store.labels
        assert np.array_equal(back.patterns(), store.patterns())

    def test_loaded_store_holds_only_packed_words(self, store_dir):
        # 730 templates as 36 uint64 words each are 0.21 MB; a bool copy
        # of the patterns would add 1.68 MB
        tracemalloc.start()
        try:
            back = rec.load_store(store_dir)
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(back) == 730
        assert retained < 500_000

    def test_round_trip_keeps_order_and_ties(self, tmp_path):
        # store order is the tie-break order, so [B, A] must not come back
        # sorted by class
        shared = random_pattern(np.random.default_rng(21))
        store = TemplateStore(np.stack([shared, shared]), ["B", "A"])
        rec.save_store(store, tmp_path)
        assert (tmp_path / "labels.txt").read_text() == "B\nA\n"
        back = rec.load_store(tmp_path)
        assert back.labels == ["B", "A"]
        assert classified(shared[None], back)[0][0] == "B"

    def write_store(self, directory, image, labels):
        imaging.save_pnm_file(directory / "templates.pgm", image)
        (directory / "labels.txt").write_text("".join(lb + "\n" for lb in labels))

    def test_missing_templates_image(self, tmp_path):
        # a store directory in the older one-file-per-template layout
        (tmp_path / "manifest.txt").write_text("21\tA\n")
        imaging.save_pnm_file(tmp_path / "21_0.pgm", np.zeros((48, 48), np.uint8))
        with pytest.raises(StoreError, match="missing templates.pgm"):
            rec.load_store(tmp_path)

    def test_missing_labels(self, tmp_path):
        imaging.save_pnm_file(tmp_path / "templates.pgm", np.zeros((48, 48), np.uint8))
        with pytest.raises(StoreError, match="missing labels.txt"):
            rec.load_store(tmp_path)

    def test_label_count_mismatch(self, tmp_path):
        self.write_store(tmp_path, np.zeros((96, 48), np.uint8), ["A"])
        with pytest.raises(StoreError, match="96 rows, 1 labels need 48"):
            rec.load_store(tmp_path)

    def test_wrong_image_width(self, tmp_path):
        self.write_store(tmp_path, np.zeros((48, 10), np.uint8), ["A"])
        with pytest.raises(StoreError, match="48 pixels wide"):
            rec.load_store(tmp_path)

    def test_color_image(self, tmp_path):
        self.write_store(tmp_path, np.zeros((48, 48, 3), np.uint8), ["A"])
        with pytest.raises(StoreError, match="gray"):
            rec.load_store(tmp_path)

    def test_label_outside_alphabet(self, tmp_path):
        self.write_store(tmp_path, np.zeros((96, 48), np.uint8), ["A", "?"])
        with pytest.raises(StoreError, match="template 1 label '\\?' outside the alphabet"):
            rec.load_store(tmp_path)

    def test_truncated_image(self, tmp_path):
        self.write_store(tmp_path, np.zeros((48, 48), np.uint8), ["A"])
        data = (tmp_path / "templates.pgm").read_bytes()
        (tmp_path / "templates.pgm").write_bytes(data[:-1])
        with pytest.raises(StoreError, match="truncated"):
            rec.load_store(tmp_path)

    def test_directory_in_place_of_image(self, tmp_path):
        (tmp_path / "templates.pgm").mkdir()
        (tmp_path / "labels.txt").write_text("A\n")
        with pytest.raises(StoreError, match="cannot read store"):
            rec.load_store(tmp_path)

    def test_labels_not_utf8(self, tmp_path):
        imaging.save_pnm_file(tmp_path / "templates.pgm", np.zeros((48, 48), np.uint8))
        (tmp_path / "labels.txt").write_bytes(b"\xff\n")
        with pytest.raises(StoreError, match="utf-8"):
            rec.load_store(tmp_path)


def tight_glyph(ch):
    """A font glyph cropped to its bounding box, as segmentation cuts it."""
    mask = synth.render_region([ch], 4, margin_cells=0).mask
    rows = np.flatnonzero(mask.any(axis=1))
    cols = np.flatnonzero(mask.any(axis=0))
    return mask[rows[0] : rows[-1] + 1, cols[0] : cols[-1] + 1]


def recognize_stage(regions, store, scheme=FULL):
    """Run the pipeline's recognize stage on clean font glyphs laid out as
    `regions`: each region a list of lines, each line a list of words.
    Each line is a band of the region's binary image, its glyphs side by
    side from the band's top row.  Returns (transcript, labels)."""
    binaries, bands, boxes, glyph_band = [], [], [], []
    for tr, region in enumerate(regions):
        lines = [
            [(tight_glyph(ch), wi, ci) for wi, word in enumerate(words) for ci, ch in enumerate(word)]
            for words in region
        ]
        masks = [mask for line in lines for mask, _, _ in line]
        height = max((m.shape[0] for m in masks), default=0)
        binary = np.zeros((height * len(lines), sum(m.shape[1] for m in masks)), dtype=bool)
        for i, line in enumerate(lines):
            x = 0
            for mask, wi, ci in line:
                h, w = mask.shape
                binary[i * height : i * height + h, x : x + w] = mask
                boxes.append((x, x + w - 1, 0, h - 1, wi, ci))
                glyph_band.append(len(bands))
                x += w
            bands.append((tr, i * height, (i + 1) * height - 1))
        binaries.append(binary)
    glyphs = sg.Glyphs(*(np.array(f) for f in zip(*boxes)))
    labels, transcript = pipeline._stage_recognize(
        binaries, np.array(bands), glyphs, np.array(glyph_band), store, scheme)
    return transcript, labels


class TestTranscribe:
    def test_single_glyph(self, store):
        assert recognize_stage([[["A"]]], store)[0] == "A"

    def test_words_and_digits(self, store):
        assert recognize_stage([[["JU", "2010"]]], store)[0] == "JU 2010"
        # labels are classified under the given scheme, once
        transcript, labels = recognize_stage([[["JU", "2010"]]], store, MERGED)
        assert transcript == "JU 2OIO"
        assert labels == list("JU2OIO")

    def test_two_lines(self, store):
        assert recognize_stage([[["Hi"], ["Bye"]]], store)[0] == "Hi\nBye"

    def test_two_regions_blank_line(self, store):
        assert recognize_stage([[["A"]], [["B"]]], store)[0] == "A\n\nB"
        # a region that kept no line adds no block
        assert recognize_stage([[["A"]], [], [["B"]]], store)[0] == "A\n\nB"


class TestMergeDominance:
    def test_dominance_on_random_predictions(self, store):
        rng = np.random.default_rng(20)
        labels = []
        patterns = []
        for _ in range(200):
            ch = rec.ALPHABET[int(rng.integers(0, 73))]
            mask = synth.perturbed_glyph_mask(ch, rng)
            patterns.append(rec.normalize_pattern(mask))
            labels.append(ch)
        predictions = [label for label, _ in classified(np.stack(patterns), store)]
        full_correct = sum(p == t for p, t in zip(predictions, labels))
        merged_correct = sum(
            MERGED.apply(p) == MERGED.apply(t) for p, t in zip(predictions, labels)
        )
        assert merged_correct >= full_correct
