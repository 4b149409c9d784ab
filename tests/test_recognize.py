import numpy as np
import pytest

from cardocr import recognize as rec
from cardocr import synth
from cardocr.recognize import (
    FULL,
    MERGED,
    ClassScheme,
    StoreError,
    Template,
    TemplateStore,
)

from reference import dissimilarity


@pytest.fixture(scope="module")
def font_store():
    return synth.build_font_store(seed=7)


def pattern_from(mask_rows):
    return np.array([[c == "#" for c in row] for row in mask_rows], dtype=bool)


def random_pattern(rng):
    return rng.random((48, 48)) < 0.5


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


class TestClassify:
    def make_store(self, labels, rng):
        return TemplateStore(
            [Template(pattern=random_pattern(rng), label=lb) for lb in labels]
        )

    def test_self_match(self, font_store):
        t = font_store.templates[37]
        c = rec.classify(t.pattern, font_store, FULL)
        assert c.score == 0
        assert c.label == t.label

    def test_merged_label_for_small_l(self, font_store):
        sample = next(t for t in font_store.templates if t.label == "l")
        c = rec.classify(sample.pattern, font_store, MERGED)
        assert c.label == "I"

    def test_matches_brute_force(self):
        rng = np.random.default_rng(9)
        store = self.make_store(["A", "B", "C", "D", "E"], rng)
        for _ in range(25):
            probe = random_pattern(rng)
            dists = [dissimilarity(probe, t.pattern) for t in store.templates]
            best = min(range(5), key=lambda i: (dists[i], i))
            got = rec.classify(probe, store, FULL)
            assert got.label == store.templates[best].label
            assert got.score == dists[best]

    def test_tie_breaks_to_store_order(self):
        rng = np.random.default_rng(10)
        shared = random_pattern(rng)
        store = TemplateStore(
            [Template(pattern=shared, label="X"), Template(pattern=shared, label="Y")]
        )
        assert rec.classify(shared, store, FULL).label == "X"

    def test_table_popcount_matches_dissimilarity(self, monkeypatch):
        # the lookup-table path used on numpy < 2, forced on any numpy
        monkeypatch.setattr(rec, "_popcount_rows", rec._popcount_rows_table)
        rng = np.random.default_rng(11)
        for _ in range(20):
            a, b = random_pattern(rng), random_pattern(rng)
            store = TemplateStore(
                [Template(pattern=a, label="A"), Template(pattern=b, label="B")]
            )
            assert list(store.distances(b)) == [dissimilarity(a, b), 0]
        shared = random_pattern(rng)
        store = TemplateStore(
            [Template(pattern=shared, label="Y"), Template(pattern=shared, label="X")]
        )
        probe = shared.copy()
        probe[0, 0] = not probe[0, 0]
        got = rec.classify(probe, store, FULL)
        assert (got.label, got.score) == ("Y", 1)

    def test_empty_store(self):
        with pytest.raises(StoreError):
            TemplateStore([])


class TestBuildStore:
    def glyph_samples(self, label, n, rng, distinct=True):
        base = synth.render_glyph(label, 5)
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
        assert all(t.label == "A" for t in store.templates)

    def test_identical_samples_keep_ten(self):
        samples = [("B", synth.render_glyph("B", 5))] * 12
        store = rec.build_store(samples)
        assert len(store) == 10

    def test_outlier_dropped(self):
        rng = np.random.default_rng(13)
        samples = self.glyph_samples("C", 10, rng)
        samples.append(("C", np.ones((40, 40), dtype=bool)))  # solid blob outlier
        store = rec.build_store(samples)
        assert len(store) == 10
        solid = rec.normalize_pattern(np.ones((40, 40), dtype=bool))
        assert all(dissimilarity(t.pattern, solid) > 0 for t in store.templates)

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

    def test_full_font_store(self, font_store):
        assert len(font_store) == 730  # 73 classes x 10 samples
        labels = [t.label for t in font_store.templates]
        assert len(set(labels)) == 73
        assert all(labels.count(ch) == 10 for ch in set(labels))


class TestStoreIO:
    def test_round_trip(self, font_store, tmp_path):
        directory = tmp_path / "store"
        rec.save_store(font_store, directory)
        assert (directory / "manifest.txt").exists()
        assert len(list(directory.glob("*.pgm"))) == 730
        back = rec.load_store(directory)
        assert len(back) == len(font_store)
        assert [t.label for t in back.templates] == [t.label for t in font_store.templates]
        for a, b in zip(back.templates, font_store.templates):
            assert np.array_equal(a.pattern, b.pattern)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(StoreError, match="manifest"):
            rec.load_store(tmp_path)

    def test_malformed_manifest(self, tmp_path):
        (tmp_path / "manifest.txt").write_text("not a manifest\n")
        with pytest.raises(StoreError, match="malformed"):
            rec.load_store(tmp_path)

    def test_manifest_class_without_templates(self, tmp_path):
        (tmp_path / "manifest.txt").write_text("21\tA\n")
        with pytest.raises(StoreError):
            rec.load_store(tmp_path)

    def test_wrong_template_size(self, tmp_path):
        from cardocr import imaging

        (tmp_path / "manifest.txt").write_text("21\tA\n")
        imaging.save_pnm_file(tmp_path / "21_0.pgm", np.zeros((10, 10), np.uint8))
        with pytest.raises(StoreError, match="48x48"):
            rec.load_store(tmp_path)


class TestTranscribe:
    def test_single_glyph(self):
        assert rec.transcribe([[[["A"]]]]) == "A"

    def test_words_and_digits(self):
        line = [["J", "U"], ["2", "0", "1", "0"]]
        assert rec.transcribe([[line]]) == "JU 2010"

    def test_two_lines(self):
        region = [[["H", "i"]], [["B", "y", "e"]]]
        assert rec.transcribe([region]) == "Hi\nBye"

    def test_two_regions_blank_line(self):
        r1 = [[["A"]]]
        r2 = [[["B"]]]
        assert rec.transcribe([r1, r2]) == "A\n\nB"


class TestMergeDominance:
    def test_dominance_on_random_predictions(self, font_store):
        rng = np.random.default_rng(20)
        labels = []
        predictions = []
        for _ in range(200):
            ch = rec.ALPHABET[int(rng.integers(0, 73))]
            mask = synth.perturbed_glyph_mask(ch, rng)
            pattern = rec.normalize_pattern(mask)
            raw = rec.classify(pattern, font_store, FULL)
            labels.append(ch)
            predictions.append(raw.label)
        full_correct = sum(p == t for p, t in zip(predictions, labels))
        merged_correct = sum(
            MERGED.apply(p) == MERGED.apply(t) for p, t in zip(predictions, labels)
        )
        assert merged_correct >= full_correct
