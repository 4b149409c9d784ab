import numpy as np
import pytest

from cardocr import evaluate as ev
from cardocr.evaluate import EvalCounts, MetricUndefinedError
from cardocr.imaging import Rect
from cardocr.recognize import FULL, MERGED
from cardocr.regions import Region

from reference import char_accuracy, pixel_eval


def tr(x, y, w, h):
    return Region(blocks=[], bbox=Rect(x, y, w, h), kind="TR")


def nr(x, y, w, h):
    return Region(blocks=[], bbox=Rect(x, y, w, h), kind="NR")


class TestFMeasure:
    def test_perfect(self):
        m = ev.metrics_from_counts(EvalCounts(tp=10, fp=0, tn=0, fn=0))
        assert (m.recall, m.precision, m.f_measure) == (100.0, 100.0, 100.0)

    def test_reported_rates(self):
        # the published binarization rates: FM comes out at 94.88
        assert ev.f_measure(93.52, 96.27) == pytest.approx(94.88, abs=0.01)

    def test_balanced_counts(self):
        m = ev.metrics_from_counts(EvalCounts(tp=1, fp=1, tn=0, fn=1))
        assert m.recall == pytest.approx(50.0)
        assert m.precision == pytest.approx(50.0)
        assert m.f_measure == pytest.approx(50.0)

    def test_symmetry_and_equal_case(self):
        assert ev.f_measure(80.0, 40.0) == ev.f_measure(40.0, 80.0)
        assert ev.f_measure(66.0, 66.0) == pytest.approx(66.0)

    def test_harmonic_mean_bounds(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            r = float(rng.uniform(1, 100))
            p = float(rng.uniform(1, 100))
            fm = ev.f_measure(r, p)
            assert min(r, p) - 1e-9 <= fm <= max(r, p) + 1e-9

    def test_undefined_denominators(self):
        with pytest.raises(MetricUndefinedError, match="ground truth"):
            ev.metrics_from_counts(EvalCounts(tp=0, fp=1, tn=0, fn=0))
        with pytest.raises(MetricUndefinedError, match="predicted"):
            ev.metrics_from_counts(EvalCounts(tp=0, fp=0, tn=0, fn=1))


class TestRegionEval:
    def test_exact_match(self):
        boxes = [tr(0, 0, 100, 20), tr(0, 50, 80, 20)]
        c = ev.region_eval(boxes, boxes)
        assert (c.tp, c.fp, c.fn) == (2, 0, 0)

    def test_empty_prediction(self):
        truth = [tr(0, 0, 10, 10), tr(20, 20, 10, 10), tr(40, 40, 10, 10)]
        c = ev.region_eval([], truth)
        assert (c.tp, c.fp, c.fn) == (0, 0, 3)

    def test_point_six_overlap_is_match(self):
        # identical height, widths 100 vs 60 sharing 60 -> overlap/union 0.6
        pred = [tr(0, 0, 60, 10)]
        truth = [tr(0, 0, 100, 10)]
        assert ev.overlap_over_union(pred[0].bbox, truth[0].bbox) == pytest.approx(0.6)
        c = ev.region_eval(pred, truth)
        assert (c.tp, c.fp, c.fn) == (1, 0, 0)

    def test_low_overlap_is_miss(self):
        pred = [tr(0, 0, 30, 10)]
        truth = [tr(0, 0, 100, 10)]
        c = ev.region_eval(pred, truth)
        assert (c.tp, c.fp, c.fn) == (0, 1, 1)

    def test_one_to_one_assignment(self):
        # two predictions over one truth box: only one can match
        pred = [tr(0, 0, 100, 10), tr(2, 0, 100, 10)]
        truth = [tr(0, 0, 100, 10)]
        c = ev.region_eval(pred, truth)
        assert (c.tp, c.fp, c.fn) == (1, 1, 0)
        assert c.tp <= min(len(pred), len(truth))

    def test_true_negative_decoys(self):
        pred = [tr(0, 0, 100, 10)]
        truth = [tr(0, 0, 100, 10), nr(0, 50, 40, 40)]
        c = ev.region_eval(pred, truth)
        assert c.tn == 1

    def test_claimed_decoy_not_tn(self):
        pred = [tr(0, 50, 40, 40)]
        truth = [nr(0, 50, 40, 40)]
        c = ev.region_eval(pred, truth)
        assert c.tn == 0
        assert c.fp == 1


class TestPixelEval:
    def test_identical(self):
        rng = np.random.default_rng(7)
        mask = rng.random((6, 6)) < 0.4
        c = pixel_eval(mask, mask)
        assert c.fp == c.fn == 0
        assert c.tp == int(mask.sum())

    def test_complement(self):
        rng = np.random.default_rng(8)
        mask = rng.random((6, 6)) < 0.4
        c = pixel_eval(~mask, mask)
        assert c.tp == 0
        assert c.tn == 0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(9)
        a = rng.random((4, 4)) < 0.5
        b = rng.random((4, 4)) < 0.5
        c = pixel_eval(a, b)
        tp = sum(1 for y in range(4) for x in range(4) if a[y, x] and b[y, x])
        fp = sum(1 for y in range(4) for x in range(4) if a[y, x] and not b[y, x])
        fn = sum(1 for y in range(4) for x in range(4) if not a[y, x] and b[y, x])
        tn = 16 - tp - fp - fn
        assert (c.tp, c.fp, c.fn, c.tn) == (tp, fp, fn, tn)

    def test_conservation(self):
        rng = np.random.default_rng(10)
        a = rng.random((9, 13)) < 0.5
        b = rng.random((9, 13)) < 0.5
        c = pixel_eval(a, b)
        assert c.tp + c.fp + c.tn + c.fn == 9 * 13

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            pixel_eval(np.zeros((2, 2), bool), np.zeros((3, 3), bool))


class TestCharAccuracy:
    def test_all_correct(self):
        assert char_accuracy(list("ABC"), list("ABC"), FULL) == 100.0

    def test_published_ratio(self):
        # 14659 correct of 15807 rounds to 92.74
        truth = ["A"] * 15807
        predicted = ["A"] * 14659 + ["B"] * (15807 - 14659)
        acc = char_accuracy(predicted, truth, FULL)
        assert f"{acc:.2f}" == "92.74"

    def test_merged_scheme_forgives(self):
        assert char_accuracy(["0"], ["O"], MERGED) == 100.0
        assert char_accuracy(["0"], ["O"], FULL) == 0.0

    def test_dominance(self):
        rng = np.random.default_rng(11)
        from cardocr.recognize import ALPHABET

        truth = [ALPHABET[int(i)] for i in rng.integers(0, 73, 500)]
        predicted = [
            ALPHABET[int(i)] if rng.random() < 0.3 else t
            for t, i in zip(truth, rng.integers(0, 73, 500))
        ]
        assert char_accuracy(predicted, truth, MERGED) >= char_accuracy(
            predicted, truth, FULL
        )

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            char_accuracy(["A"], ["A", "B"], FULL)


class TestCounts:
    def test_addition(self):
        total = EvalCounts(1, 2, 3, 4) + EvalCounts(10, 20, 30, 40)
        assert (total.tp, total.fp, total.tn, total.fn) == (11, 22, 33, 44)


class TestFormatReport:
    def test_format_report_floats(self):
        assert ev.format_report([("recall", 93.5234)]) == "recall=93.52\n"
