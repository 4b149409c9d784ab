import hashlib
import math

import numpy as np
import pytest

from cardocr import imaging, skew, synth
from cardocr import regions as rg
from cardocr.skew import DegenerateProfileError
from cardocr.synth import Band, CardSpec
from reference import noisy, three_anchor_skew, to_gray


def pixels_of(img):
    """The skew estimator's input for a gray region: its shape and the
    (rows, cols) of its dark pixels."""
    dark = imaging.dark_mask(img)
    return (dark.shape, *np.nonzero(dark))


def column_scan_profile(dark):
    """Bottom profile read straight off a dark mask: per column with a dark
    pixel, the first dark row counted upward from the bottom."""
    cols = np.flatnonzero(dark.any(axis=0))
    return cols, np.argmax(dark[::-1], axis=0)[cols]


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
    return np.asarray(cols, dtype=np.int64), np.asarray(heights, dtype=np.float64)


def estimate_filtered(cols, heights):
    """estimate_skew of the entries filter_profile keeps."""
    keep, _, _ = skew.filter_profile(heights)
    return skew.estimate_skew(cols[keep], heights[keep])


def background_fill(img):
    """The fill deskew rotates with: the mean of the not-dark pixels."""
    return int(round(float(img[~imaging.dark_mask(img)].mean())))


class TestBottomProfile:
    def test_dark_bottom_row(self):
        img = np.full((10, 6), 220, np.uint8)
        img[-1, :] = 30
        cols, heights = skew.bottom_profile(*pixels_of(img))
        assert (heights == 0).all()
        assert len(cols) == 6

    def test_dark_row_at_distance(self):
        img = np.full((10, 6), 220, np.uint8)
        img[10 - 1 - 4, :] = 30
        _, heights = skew.bottom_profile(*pixels_of(img))
        assert (heights == 4).all()

    def test_ramp(self):
        heights = list(range(12))
        _, got = skew.bottom_profile(*pixels_of(region_from_heights(heights, height=20)))
        assert list(got) == heights

    def test_absent_columns(self):
        heights = [3, 0, 5]
        img = region_from_heights(heights, present=[True, False, True])
        cols, heights = skew.bottom_profile(*pixels_of(img))
        assert list(cols) == [0, 2]
        assert list(heights) == [3, 5]

    def test_no_dark_pixels(self):
        with pytest.raises(DegenerateProfileError):
            skew.bottom_profile(*pixels_of(np.full((5, 5), 200, np.uint8)))

    def test_lowest_dark_pixel_wins(self):
        img = np.full((10, 1), 220, np.uint8)
        img[2, 0] = 30
        img[7, 0] = 30
        _, heights = skew.bottom_profile(*pixels_of(img))
        assert heights[0] == 2  # 9 - 7

    def test_zero_total_is_the_column_scan(self):
        # at total 0 the coordinate profile is the mask's own column scan
        rng = np.random.default_rng(12)
        for _ in range(300):
            h, w = (int(v) for v in rng.integers(1, 40, size=2))
            dark = rng.random((h, w)) < rng.choice([0.01, 0.1, 0.5, 0.95])
            dark[:, rng.random(w) < 0.2] = False  # some empty columns
            if not dark.any():
                continue
            got = skew.bottom_profile(dark.shape, *np.nonzero(dark))
            want = column_scan_profile(dark)
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])

    def test_rotated_flat_line_reads_the_rotation(self):
        # a level line seen through a rotation by -total tilts by -total
        img = np.full((20, 600), 220, np.uint8)
        img[12, :] = 30
        for total in (-6.0, 2.5, 9.0):
            profile = skew.bottom_profile(*pixels_of(img), total)
            assert skew.estimate_skew(*profile) == pytest.approx(-total, abs=0.1)

    def test_rotated_profile_matches_the_rotated_image(self):
        # the coordinate profile at a total is the profile of the crop
        # rotated by -total, up to resampling and the rotated image's own dark
        # rule: their estimates agree within 0.5 deg (0.37 at most here)
        img = synth.render_region(["Business Card Reader 2010"], 4, skew_deg=5.0).image
        fill = background_fill(img)
        for total in (1.0, 2.0, 4.0, 6.0):
            rotated = imaging.rotate(img, -total, fill=fill)
            assert skew.estimate_region_skew(*pixels_of(img), total) == pytest.approx(
                skew.estimate_region_skew(*pixels_of(rotated)), abs=0.5)


class TestProfileStats:
    """mu and tau as filter_profile returns them with the kept mask."""

    def test_hand_case(self):
        _, mu, tau = skew.filter_profile(np.array([2.0, 2, 2, 10]))
        assert mu == pytest.approx(4.0)
        assert tau == pytest.approx(3.0)

    def test_constant(self):
        _, mu, tau = skew.filter_profile(np.array([7.0, 7, 7]))
        assert (mu, tau) == (7.0, 0.0)

    def test_two_values(self):
        # both values sit exactly on mu -/+ tau, so all four are retained
        keep, mu, tau = skew.filter_profile(np.array([0.0, 10, 0, 10]))
        assert (mu, tau) == (5.0, 5.0)
        assert keep.all()

    def test_empty(self):
        with pytest.raises(DegenerateProfileError):
            skew.filter_profile(np.array([], dtype=np.float64))


class TestFilterProfile:
    def test_outlier_dropped(self):
        cols, heights = make_profile([0, 1, 2, 3], [2, 2, 2, 10])
        keep, _, _ = skew.filter_profile(heights)
        assert list(heights[keep]) == [2, 2, 2]
        assert list(cols[keep]) == [0, 1, 2]

    def test_constant_all_retained(self):
        keep, _, _ = skew.filter_profile(np.array([5.0, 5, 5, 5]))
        assert keep.tolist() == [True] * 4

    def test_never_grows(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(3, 30))
            _, heights = make_profile(np.arange(n), rng.integers(0, 50, n))
            try:
                keep, _, _ = skew.filter_profile(heights)
            except DegenerateProfileError:
                continue  # fewer than 3 survivors, still "not grown"
            # one mask entry per input entry: the kept set is a subset
            assert keep.shape == (n,)

    def test_idempotent_on_constant(self):
        heights = np.array([4.0, 4, 4])
        keep, _, _ = skew.filter_profile(heights)
        again, _, _ = skew.filter_profile(heights[keep])
        assert again.all()

    def test_too_few_retained(self):
        with pytest.raises(DegenerateProfileError):
            skew.filter_profile(np.array([1.0, 9]))


class TestEstimate:
    def test_constant_profile_is_zero(self):
        assert skew.estimate_skew(*make_profile([0, 5, 9], [4, 4, 4])) == 0.0

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
        assert skew.estimate_region_skew(*pixels_of(img)) == pytest.approx(expected, abs=0.1)

    def test_dense_ramp_five_degrees(self):
        # exact (unrounded) ramp: every pairwise angle equals the slope
        slope = math.tan(math.radians(5))
        est = estimate_filtered(*make_profile(np.arange(300), np.arange(300) * slope))
        assert est == pytest.approx(5.0, abs=1e-9)

    def test_rounded_ramp_five_degrees(self):
        # pixel-quantized ramp from an actual image stays within 0.1 degree
        slope = math.tan(math.radians(5))
        heights = [round(i * slope) for i in range(300)]
        est = skew.estimate_region_skew(*pixels_of(region_from_heights(heights, height=60)))
        assert est == pytest.approx(5.0, abs=0.5)

    def test_spike_is_filtered(self):
        cols = list(range(0, 210, 10))
        heights = [c // 10 for c in cols]
        clean = estimate_filtered(*make_profile(cols, heights))
        spiked_cols, spiked_heights = make_profile(cols + [105], heights + [200])
        order = np.argsort(spiked_cols)
        est = estimate_filtered(spiked_cols[order], spiked_heights[order])
        assert est == pytest.approx(clean, abs=1e-9)

    def test_shift_invariance(self):
        cols = [0, 3, 7, 12, 20, 31, 45]
        heights = [2, 3, 5, 6, 8, 11, 13]
        a = skew.estimate_skew(*make_profile(cols, heights))
        b = skew.estimate_skew(*make_profile(cols, [h + 17 for h in heights]))
        assert a == pytest.approx(b, abs=1e-12)

    def test_reflection_antisymmetry(self):
        cols = [0, 3, 7, 12, 20, 31, 45]
        heights = [2, 3, 5, 6, 8, 11, 13]
        a = skew.estimate_skew(*make_profile(cols, heights))
        m = max(cols)
        rcols = [m - c for c in reversed(cols)]
        rheights = list(reversed(heights))
        b = skew.estimate_skew(*make_profile(rcols, rheights))
        assert a == pytest.approx(-b, abs=1e-12)

    def test_linear_profile_pairwise_angles_agree(self):
        # the anchors are the end columns 0 and 40 and the middle column 20;
        # on a line their three pairwise angles, and so the average, are
        # the line's angle, with or without the columns between them
        cols = [0, 10, 20, 30, 40]
        heights = [0, 2, 4, 6, 8]
        line = math.degrees(math.atan(0.2))
        assert skew.estimate_skew(*make_profile(cols, heights)) == pytest.approx(line)
        assert skew.estimate_skew(*make_profile([0, 20, 40], [0, 4, 8])) == pytest.approx(line)
        # moving the middle anchor off the line moves the estimate
        assert skew.estimate_skew(*make_profile([0, 20, 40], [0, 5, 8])) != pytest.approx(line)

    def test_too_few_entries(self):
        with pytest.raises(DegenerateProfileError):
            skew.estimate_skew(*make_profile([0, 1], [0, 0]))

    def test_random_profiles_match_the_reference(self):
        # the array form equals the anchor-by-anchor reference exactly, on
        # int heights (as bottom_profile gives) and on float ones; some
        # profiles hold two columns equally near the midpoint, where the
        # first of them is the middle anchor
        rng = np.random.default_rng(23)
        ties = 0
        for _ in range(1500):
            n = int(rng.integers(3, 40))
            cols = np.sort(rng.choice(int(rng.integers(n, 3 * n + 2)), n, replace=False))
            if rng.random() < 0.3:
                # mirror a column about the midpoint of the ends
                i = int(rng.integers(1, n - 1))
                cols = np.unique(np.append(cols, cols[0] + cols[-1] - cols[i]))
            mid = (cols[0] + cols[-1]) / 2.0
            ties += np.count_nonzero(np.abs(cols - mid) == np.abs(cols - mid).min()) == 2
            heights = rng.integers(0, 60, len(cols))
            if rng.random() < 0.5:
                heights = heights + rng.random(len(cols))
            assert skew.estimate_skew(cols, heights) == three_anchor_skew(cols, heights)
        assert ties >= 100


class TestDeskew:
    def band(self, text, scale=4, skew_deg=0.0, sigma=0.0, seed=0):
        return noisy(synth.render_region([text], scale, skew_deg=skew_deg), sigma, seed)

    def test_upright_band_near_zero(self):
        img = self.band("Jadavpur University Kolkata 700032")
        _, angle = skew.deskew(img)
        assert abs(angle) <= 0.5

    def test_flat_profile_exactly_zero(self):
        img = np.full((12, 30), 220, np.uint8)
        img[8, :] = 30
        out, angle = skew.deskew(img)
        assert angle == 0.0
        assert out is img

    def test_seven_degree_band(self):
        img = self.band("Center for Microprocessor Application 2010",
                        skew_deg=7.0, sigma=4.0, seed=3)
        _, angle = skew.deskew(img)
        assert angle == pytest.approx(7.0, abs=3.0)

    def test_negative_skew(self):
        img = self.band("School of Mobile Computing JU 2010",
                        skew_deg=-6.0, sigma=2.0, seed=4)
        _, angle = skew.deskew(img)
        assert angle == pytest.approx(-6.0, abs=3.0)

    def test_residual_smaller_after_correction(self):
        img = self.band("Department of Computer Science and Engineering",
                        skew_deg=8.0, seed=5)
        corrected, angle = skew.deskew(img)
        before = abs(skew.estimate_region_skew(*pixels_of(img)))
        after = abs(skew.estimate_region_skew(*pixels_of(corrected)))
        assert after < max(before, 1.0)

    def test_no_text_passthrough(self):
        img = np.full((20, 20), 130, np.uint8)
        out, angle = skew.deskew(img)
        assert angle == 0.0
        assert out is img

    def test_beyond_clamp_passthrough(self, monkeypatch):
        monkeypatch.setattr(skew, "SKEW_PASSES", 1)
        heights = [round(i * math.tan(math.radians(30))) for i in range(80)]
        img = region_from_heights(heights, height=60)
        assert skew.SKEW_CLAMP == 20.0
        out, angle = skew.deskew(img)
        assert angle == 0.0
        assert out is img

    def test_converged_total_is_not_rotated_again(self, monkeypatch):
        # a second estimate that leaves the total unchanged ends the loop
        # without a second, identical rotation
        img = self.band("Business Card Reader 2010", seed=7)
        angles = iter([-0.44, 0.0])
        monkeypatch.setattr(skew, "estimate_region_skew",
                            lambda shape, rows, cols, total: next(angles))
        rotations = []
        rotate = skew.imaging.rotate
        monkeypatch.setattr(skew.imaging, "rotate",
                            lambda *a, **k: rotations.append(a) or rotate(*a, **k))
        out, angle = skew.deskew(img)
        assert angle == -0.44
        assert len(rotations) == 1
        assert np.array_equal(out, rotate(img, 0.44, fill=background_fill(img)))

    @pytest.mark.parametrize("passes", [1, 2, 3])
    def test_rotates_at_most_once(self, monkeypatch, passes):
        img = self.band("Center for Microprocessor Application 2010",
                        skew_deg=7.0, sigma=4.0, seed=3)
        rotations = []
        rotate = skew.imaging.rotate
        monkeypatch.setattr(skew.imaging, "rotate",
                            lambda *a, **k: rotations.append(a) or rotate(*a, **k))
        monkeypatch.setattr(skew, "SKEW_PASSES", passes)
        out, angle = skew.deskew(img)
        assert len(rotations) <= 1
        assert np.array_equal(out, rotate(img, -angle, fill=background_fill(img)))

    def test_every_pass_estimates_at_the_running_total(self, monkeypatch):
        # each pass is one estimate_region_skew call, made at the total so far
        img = self.band("Center for Microprocessor Application 2010",
                        skew_deg=7.0, sigma=4.0, seed=3)
        calls = []
        estimate = skew.estimate_region_skew

        def recording(shape, rows, cols, total):
            angle = estimate(shape, rows, cols, total)
            calls.append((total, angle))
            return angle

        monkeypatch.setattr(skew, "estimate_region_skew", recording)
        _, angle = skew.deskew(img)
        assert len(calls) == skew.SKEW_PASSES
        assert calls[0][0] == 0.0
        for (total, step), (next_total, _) in zip(calls, calls[1:]):
            assert next_total == total + step
        assert angle == calls[-1][0] + calls[-1][1]

    def test_fill_is_the_light_pixel_mean(self, monkeypatch):
        # the fill from integer sums over the dark indices equals the float
        # mean of the not-dark pixels, on seeded skewed, noisy bands
        rng = np.random.default_rng(60)
        crops = [self.band("Card Reader 2010", scale=int(rng.integers(2, 6)),
                           skew_deg=float(rng.uniform(-8, 8)), sigma=float(rng.uniform(0, 12)),
                           seed=seed) for seed in range(40)]
        fills = []
        rotate = skew.imaging.rotate
        monkeypatch.setattr(skew.imaging, "rotate",
                            lambda img, angle, fill: fills.append(fill) or rotate(img, angle, fill))
        expected = [background_fill(img) for img in crops if skew.deskew(img)[1] != 0.0]
        assert len(expected) >= 30
        assert fills == expected
        assert all(type(fill) is int for fill in fills)

    def test_single_pass_mode(self, monkeypatch):
        monkeypatch.setattr(skew, "SKEW_PASSES", 1)
        img = self.band("Business Card Reader 2010", skew_deg=3.0, seed=6)
        _, angle = skew.deskew(img)
        assert angle == pytest.approx(3.0, abs=3.0)


class TestDump:
    def test_format(self):
        img = region_from_heights([2, 2, 2, 10], height=20)
        text = skew.format_profile_dump(img, 0.0)
        lines = text.strip().splitlines()
        assert lines[0] == "0 2 1"
        assert lines[3] == "3 10 0"
        assert lines[4] == "4.0000 3.0000 0.0000"

    def test_absent_columns_have_no_row(self):
        img = region_from_heights([2, 0, 2, 2, 9], height=20,
                                  present=[True, False, True, True, True])
        lines = skew.format_profile_dump(img, 1.5).splitlines()
        assert lines == ["0 2 1", "2 2 1", "3 2 1", "4 9 0", "3.7500 2.6250 1.5000"]

    @pytest.mark.parametrize("heights", [[], [3, 3]])
    def test_degenerate_fit_is_empty(self, heights):
        # no dark pixel (a constant region), or fewer than 3 retained columns
        img = region_from_heights(heights + [0] * 4, height=20,
                                  present=[True] * len(heights) + [False] * 4)
        assert skew.format_profile_dump(img, 0.0) == ""


CRITERION_9_SPEC = CardSpec(width=2048, height=1536, noise_sigma=4.0, bands=[
    Band("Ayatullah Faruk Mollah", 100, 150, 6),
    Band("School of Mobile Computing", 100, 400, 5),
    Band("Jadavpur University Kolkata", 100, 650, 5),
    Band("Phone: +91 33 2414 6666", 100, 900, 5),
    Band("www.jaduniv.edu.in", 100, 1150, 5),
])


class TestCriterion9Card:
    """Regression pins on the text regions of the criterion-9 card (seed 3),
    taken when each refinement pass still resampled the crop."""

    @pytest.fixture(scope="class")
    def crops(self):
        color, _ = synth.render_card(CRITERION_9_SPEC, seed=3)
        gray = to_gray(color)
        return [gray[r.bbox.y:r.bbox.y2, r.bbox.x:r.bbox.x2]
                for r in rg.extract_regions(gray) if r.kind == rg.TR]

    def test_totals(self, crops):
        totals = [skew.deskew(crop)[1] for crop in crops]
        assert totals == pytest.approx([
            -0.006999117648930501, 0.44481619736766637, -0.39908690712006356,
            0.484696410803685, -0.5943770118940949,
        ], abs=1e-9)

    def test_single_pass_keeps_total_and_output(self, crops, monkeypatch):
        # pass 1 reads the crop itself: a loop that ends after it keeps the
        # estimate and the rotated bytes
        with monkeypatch.context() as patch:
            patch.setattr(skew, "SKEW_PASSES", 1)
            outs = [skew.deskew(crop) for crop in crops]
        assert [angle for _, angle in outs] == pytest.approx([
            -0.006999117648930501, 0.44481619736766637, -0.39879136391234016,
            0.48579735925592193, -0.6143291937788531,
        ], abs=1e-9)
        assert [hashlib.sha256(out.tobytes()).hexdigest()[:16] for out, _ in outs] == [
            "081b3962c24324d1", "52e98af3cc1a2ff9", "af37c860741e46f4",
            "647d73098f79f10d", "33e89cb6a54b78f3",
        ]
        # the first region converges after one pass with the default passes
        out, angle = skew.deskew(crops[0])
        assert angle == outs[0][1]
        assert np.array_equal(out, outs[0][0])
