import math

import numpy as np
import pytest

from cardocr import skew, synth
from cardocr.config import PipelineConfig
from cardocr.skew import DegenerateProfileError, NoTextError, Profile

CFG = PipelineConfig()


def region_from_heights(heights, height=40, present=None):
    """Build a gray region whose bottom profile equals `heights`.

    `present=None` marks every column present; otherwise a bool list.
    """
    width = len(heights)
    img = np.full((height, width), 220, np.uint8)
    for col, h in enumerate(heights):
        if present is not None and not present[col]:
            continue
        img[height - 1 - int(h), col] = 30
    return img


def make_profile(cols, heights):
    cols = np.asarray(cols, dtype=np.int64)
    heights = np.asarray(heights, dtype=np.float64)
    return Profile(cols=cols, heights=heights)


class TestBottomProfile:
    def test_dark_bottom_row(self):
        img = np.full((10, 6), 220, np.uint8)
        img[-1, :] = 30
        p = skew.bottom_profile(img)
        assert (p.heights == 0).all()
        assert len(p.cols) == 6

    def test_dark_row_at_distance(self):
        img = np.full((10, 6), 220, np.uint8)
        img[10 - 1 - 4, :] = 30
        p = skew.bottom_profile(img)
        assert (p.heights == 4).all()

    def test_ramp(self):
        heights = list(range(12))
        p = skew.bottom_profile(region_from_heights(heights, height=20))
        assert list(p.heights) == heights

    def test_absent_columns(self):
        heights = [3, 0, 5]
        img = region_from_heights(heights, present=[True, False, True])
        p = skew.bottom_profile(img)
        assert list(p.cols) == [0, 2]
        assert list(p.heights) == [3, 5]

    def test_no_dark_pixels(self):
        with pytest.raises(NoTextError):
            skew.bottom_profile(np.full((5, 5), 200, np.uint8))

    def test_lowest_dark_pixel_wins(self):
        img = np.full((10, 1), 220, np.uint8)
        img[2, 0] = 30
        img[7, 0] = 30
        p = skew.bottom_profile(img)
        assert p.heights[0] == 2  # 9 - 7


class TestProfileStats:
    def test_hand_case(self):
        s = skew.profile_stats(make_profile([0, 1, 2, 3], [2, 2, 2, 10]))
        assert s.mu == pytest.approx(4.0)
        assert s.tau == pytest.approx(3.0)

    def test_constant(self):
        s = skew.profile_stats(make_profile([0, 1, 2], [7, 7, 7]))
        assert (s.mu, s.tau) == (7.0, 0.0)

    def test_two_values(self):
        s = skew.profile_stats(make_profile([0, 1], [0, 10]))
        assert (s.mu, s.tau) == (5.0, 5.0)

    def test_empty(self):
        with pytest.raises(DegenerateProfileError):
            skew.profile_stats(make_profile([], []))


class TestFilterProfile:
    def test_outlier_dropped(self):
        p = make_profile([0, 1, 2, 3], [2, 2, 2, 10])
        f = skew.filter_profile(p, skew.profile_stats(p))
        assert list(f.heights) == [2, 2, 2]
        assert list(f.cols) == [0, 1, 2]

    def test_constant_all_retained(self):
        p = make_profile([0, 1, 2, 3], [5, 5, 5, 5])
        f = skew.filter_profile(p, skew.profile_stats(p))
        assert len(f.cols) == 4

    def test_never_grows(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(3, 30))
            p = make_profile(np.arange(n), rng.integers(0, 50, n))
            try:
                f = skew.filter_profile(p, skew.profile_stats(p))
            except DegenerateProfileError:
                continue  # fewer than 3 survivors, still "not grown"
            assert len(f.cols) <= len(p.cols)

    def test_idempotent_on_constant(self):
        p = make_profile([0, 1, 2], [4, 4, 4])
        f1 = skew.filter_profile(p, skew.profile_stats(p))
        f2 = skew.filter_profile(f1, skew.profile_stats(f1))
        assert list(f2.cols) == list(f1.cols)

    def test_too_few_retained(self):
        p = make_profile([0, 1], [1, 9])
        with pytest.raises(DegenerateProfileError):
            skew.filter_profile(p, skew.profile_stats(p))


class TestEstimate:
    def test_constant_profile_is_zero(self):
        assert skew.estimate_skew(make_profile([0, 5, 9], [4, 4, 4])) == 0.0

    def test_exact_sparse_ramp(self):
        # dark pixels only every 10th column, heights on an exact 0.1 line
        cols = np.arange(0, 210, 10)
        heights = cols // 10
        img = region_from_heights(
            [heights[list(cols).index(c)] if c in cols else 0 for c in range(210)],
            height=40,
            present=[c in set(cols) for c in range(210)],
        )
        expected = math.degrees(math.atan(0.1))
        assert skew.estimate_region_skew(img) == pytest.approx(expected, abs=0.1)

    def test_dense_ramp_five_degrees(self):
        # exact (unrounded) ramp: every pairwise angle equals the slope
        slope = math.tan(math.radians(5))
        p = make_profile(np.arange(300), np.arange(300) * slope)
        est = skew.estimate_skew(skew.filter_profile(p, skew.profile_stats(p)))
        assert est == pytest.approx(5.0, abs=1e-9)

    def test_rounded_ramp_five_degrees(self):
        # pixel-quantized ramp from an actual image stays within 0.1 degree
        slope = math.tan(math.radians(5))
        heights = [round(i * slope) for i in range(300)]
        est = skew.estimate_region_skew(region_from_heights(heights, height=60))
        assert est == pytest.approx(5.0, abs=0.5)

    def test_spike_is_filtered(self):
        cols = list(range(0, 210, 10))
        heights = [c // 10 for c in cols]
        clean = skew.estimate_skew(
            skew.filter_profile(p := make_profile(cols, heights), skew.profile_stats(p))
        )
        spiked = make_profile(cols + [105], heights + [200])
        order = np.argsort(spiked.cols)
        spiked = Profile(spiked.cols[order], spiked.heights[order])
        est = skew.estimate_skew(
            skew.filter_profile(spiked, skew.profile_stats(spiked))
        )
        assert est == pytest.approx(clean, abs=1e-9)

    def test_shift_invariance(self):
        cols = [0, 3, 7, 12, 20, 31, 45]
        heights = [2, 3, 5, 6, 8, 11, 13]
        a = skew.estimate_skew(make_profile(cols, heights))
        b = skew.estimate_skew(make_profile(cols, [h + 17 for h in heights]))
        assert a == pytest.approx(b, abs=1e-12)

    def test_reflection_antisymmetry(self):
        cols = [0, 3, 7, 12, 20, 31, 45]
        heights = [2, 3, 5, 6, 8, 11, 13]
        a = skew.estimate_skew(make_profile(cols, heights))
        m = max(cols)
        rcols = [m - c for c in reversed(cols)]
        rheights = list(reversed(heights))
        b = skew.estimate_skew(make_profile(rcols, rheights))
        assert a == pytest.approx(-b, abs=1e-12)

    def test_linear_profile_pairwise_angles_agree(self):
        # the anchors are the end columns 0 and 40 and the middle column 20;
        # on a line their three pairwise angles, and so the average, are
        # the line's angle, with or without the columns between them
        cols = [0, 10, 20, 30, 40]
        heights = [0, 2, 4, 6, 8]
        line = math.degrees(math.atan(0.2))
        assert skew.estimate_skew(make_profile(cols, heights)) == pytest.approx(line)
        assert skew.estimate_skew(make_profile([0, 20, 40], [0, 4, 8])) == pytest.approx(line)
        # moving the middle anchor off the line moves the estimate
        assert skew.estimate_skew(make_profile([0, 20, 40], [0, 5, 8])) != pytest.approx(line)

    def test_too_few_entries(self):
        with pytest.raises(DegenerateProfileError):
            skew.estimate_skew(make_profile([0, 1], [0, 0]))


class TestDeskew:
    def band(self, text, scale=4, skew_deg=0.0, sigma=0.0, seed=0):
        return synth.render_region([text], scale, skew_deg=skew_deg,
                                   sigma=sigma, seed=seed).image

    def test_upright_band_near_zero(self):
        img = self.band("Jadavpur University Kolkata 700032")
        _, angle = skew.deskew(img, CFG)
        assert abs(angle) <= 0.5

    def test_flat_profile_exactly_zero(self):
        img = np.full((12, 30), 220, np.uint8)
        img[8, :] = 30
        out, angle = skew.deskew(img, CFG)
        assert angle == 0.0
        assert out is img

    def test_seven_degree_band(self):
        img = self.band("Center for Microprocessor Application 2010",
                        skew_deg=7.0, sigma=4.0, seed=3)
        _, angle = skew.deskew(img, CFG)
        assert angle == pytest.approx(7.0, abs=3.0)

    def test_negative_skew(self):
        img = self.band("School of Mobile Computing JU 2010",
                        skew_deg=-6.0, sigma=2.0, seed=4)
        _, angle = skew.deskew(img, CFG)
        assert angle == pytest.approx(-6.0, abs=3.0)

    def test_residual_smaller_after_correction(self):
        img = self.band("Department of Computer Science and Engineering",
                        skew_deg=8.0, seed=5)
        corrected, angle = skew.deskew(img, CFG)
        before = abs(skew.estimate_region_skew(img))
        after = abs(skew.estimate_region_skew(corrected))
        assert after < max(before, 1.0)

    def test_no_text_passthrough(self):
        img = np.full((20, 20), 130, np.uint8)
        out, angle = skew.deskew(img, CFG)
        assert angle == 0.0
        assert out is img

    def test_beyond_clamp_passthrough(self):
        heights = [round(i * math.tan(math.radians(30))) for i in range(80)]
        img = region_from_heights(heights, height=60)
        out, angle = skew.deskew(img, PipelineConfig(skew_clamp=20.0, skew_passes=1))
        assert angle == 0.0
        assert out is img

    def test_converged_total_is_not_rotated_again(self, monkeypatch):
        # a second estimate that leaves the total unchanged ends the loop
        # without a second, identical rotation
        img = self.band("Business Card Reader 2010", seed=7)
        angles = iter([-0.44, 0.0])
        monkeypatch.setattr(skew, "estimate_region_skew", lambda region: next(angles))
        rotations = []
        rotate = skew.imaging.rotate
        monkeypatch.setattr(skew.imaging, "rotate",
                            lambda *a, **k: rotations.append(a) or rotate(*a, **k))
        out, angle = skew.deskew(img, CFG)
        assert angle == -0.44
        assert len(rotations) == 1
        assert np.array_equal(out, rotate(img, 0.44, fill=skew.background_fill(img)))

    def test_single_pass_mode(self):
        img = self.band("Business Card Reader 2010", skew_deg=3.0, seed=6)
        _, angle = skew.deskew(img, PipelineConfig(skew_passes=1))
        assert angle == pytest.approx(3.0, abs=3.0)


class TestDump:
    def test_format(self):
        p = make_profile([0, 1, 2, 3], [2, 2, 2, 10])
        s = skew.profile_stats(p)
        f = skew.filter_profile(p, s)
        text = skew.format_profile_dump(p, f.cols, s, 0.0)
        lines = text.strip().splitlines()
        assert lines[0] == "0 2 1"
        assert lines[3] == "3 10 0"
        assert lines[4] == "4.0000 3.0000 0.0000"
