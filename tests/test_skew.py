import hashlib
import math

import numpy as np
import pytest

from cardocr import imaging, skew, synth
from cardocr import regions as rg
from cardocr.synth import Band, CardSpec
from reference import noisy, projection_energy, to_gray


def estimate(img):
    """The search's angle for a gray region, as deskew reads it."""
    return skew.estimate_region_skew(imaging.dark_mask(img))[0]


def region_from_heights(heights, height=40, present=None):
    """Build a gray region with one dark pixel per column, `heights[col]`
    rows above the bottom edge.

    `present=None` marks every column present; otherwise a bool list.
    """
    width = len(heights)
    img = np.full((height, width), 220, np.uint8)
    for col, h in enumerate(heights):
        if present is not None and not present[col]:
            continue
        img[height - 1 - int(h), col] = 30
    return img


def background_fill(img):
    """The fill deskew rotates with: the mean of the not-dark pixels."""
    return int(round(float(img[~imaging.dark_mask(img)].mean())))


def counting_rotations(monkeypatch):
    """Patch imaging.rotate to record the arguments of every call; returns
    the list they go into."""
    rotations = []
    rotate = skew.imaging.rotate
    monkeypatch.setattr(skew.imaging, "rotate",
                        lambda *a, **k: rotations.append(a) or rotate(*a, **k))
    return rotations


def recording_searches(monkeypatch):
    """Patch skew.estimate_region_skew to record the dark mask of every
    call and the angle it read; returns the list they go into."""
    calls = []
    search = skew.estimate_region_skew

    def recording(dark):
        result = search(dark)
        calls.append((dark, result[0]))
        return result

    monkeypatch.setattr(skew, "estimate_region_skew", recording)
    return calls


def random_masks(rng, count):
    """Bool masks up to 60 px a side at densities from empty to all dark,
    with 1-pixel-wide and 1-row masks among them."""
    for i in range(count):
        h, w = (int(v) for v in rng.integers(1, 60, size=2))
        if i % 7 == 1:
            w = 1
        elif i % 7 == 2:
            h = 1
        yield rng.random((h, w)) < rng.choice([0.0, 0.02, 0.3, 0.8, 1.0])


class TestProfileEnergies:
    """The strip-sum energies of skew.profile_energies equal the
    per-dark-pixel definition exactly."""

    WINDOW_EDGES = [-20.0, -19.95, -17.0, -3.0, -0.5, 0.0, 0.05, 0.5, 3.0, 17.0, 20.0]

    def test_window_edges_and_special_masks(self):
        full = np.ones((9, 37), bool)
        for dark in (np.zeros((5, 8), bool), full, full[:1], full[:, :1], full[:1, :1]):
            got = skew.profile_energies(skew.column_sums(dark), self.WINDOW_EDGES)
            assert got.dtype == np.int64
            assert got.tolist() == [projection_energy(dark, a) for a in self.WINDOW_EDGES]

    def test_angle_zero_is_the_row_counts(self):
        rng = np.random.default_rng(71)
        dark = rng.random((30, 50)) < 0.3
        rows = dark.sum(axis=1)
        assert skew.profile_energies(skew.column_sums(dark), [0.0]).tolist() == [
            int((rows * rows).sum())]

    def test_moment_angle_is_the_pixel_moments(self):
        rng = np.random.default_rng(72)
        for dark in random_masks(rng, 100):
            rows, cols = np.nonzero(dark)
            if len(rows) == 0:
                continue
            # n times the central moments, one pixel at a time in Python ints
            n, x, y = len(rows), cols.tolist(), rows.tolist()
            mu20 = n * sum(c * c for c in x) - sum(x) ** 2
            mu02 = n * sum(r * r for r in y) - sum(y) ** 2
            mu11 = n * sum(c * r for c, r in zip(x, y)) - sum(x) * sum(y)
            want = -0.5 * math.degrees(math.atan2(2 * mu11, mu20 - mu02))
            assert skew.moment_angle(skew.column_sums(dark)) == want

    def test_column_sums(self):
        dark = np.array([[1, 0, 1], [0, 1, 1]], bool)
        assert skew.column_sums(dark).tolist() == [[0, 0], [1, 0], [1, 1], [2, 2]]


class TestProfileStats:
    """The energy, the one statistic the search reads off a projection
    profile, on profiles small enough to add up by hand."""

    def energies(self, dark, angles):
        return skew.profile_energies(skew.column_sums(dark), angles).tolist()

    def test_hand_case(self):
        # rows of 2, 2, 2 and 10 dark pixels: 4 + 4 + 4 + 100 at 0 degrees
        dark = np.zeros((4, 10), bool)
        dark[:3, :2] = True
        dark[3, :] = True
        assert self.energies(dark, [0.0]) == [112]
        # a level row of 4 at +/-20 degrees (tan 0.364): offsets 0, 0, 1, 1
        # and 0, 0, -1, -1 split it into two bins of 2
        assert self.energies(np.ones((1, 4), bool), [0.0, 20.0, -20.0]) == [16, 8, 8]

    def test_constant(self):
        # every row of 5: until 4 tan a reaches 0.5 (7.1 degrees) no column
        # leaves its row's bin, and the energy stays 3 * 25
        dark = np.ones((3, 5), bool)
        assert self.energies(dark, [-7.0, -3.0, 0.0, 3.0, 7.0]) == [75] * 5
        # at 7.5 degrees column 4 moves one bin down: bins of 4, 5, 5 and 1
        assert self.energies(dark, [7.5]) == [16 + 25 + 25 + 1]

    def test_two_values(self):
        # rows alternating 0 and 10 dark pixels: 2 * 100 at 0 degrees; at
        # 6.5 degrees (tan 0.114) columns 5-9 move one bin down and each
        # row splits into two bins of 5
        dark = np.zeros((4, 10), bool)
        dark[1::2] = True
        assert self.energies(dark, [0.0, 6.5]) == [200, 100]

    def test_empty(self):
        # no dark pixel: zero energy at every angle, and the search tries
        # none
        dark = np.zeros((6, 9), bool)
        assert self.energies(dark, [-20.0, 0.0, 0.05, 20.0]) == [0, 0, 0, 0]
        angle, angles, energies = skew.estimate_region_skew(dark)
        assert (angle, angles.tolist(), energies.tolist()) == (0.0, [], [])


class TestEstimate:
    def test_constant_profile_is_zero(self):
        # every column holds the same dark rows: a plateau around 0 that
        # the tie rule reads as exactly 0
        img = np.full((30, 200), 220, np.uint8)
        img[[10, 11, 12, 20], :] = 30
        img[:, 50:60] = 220
        assert estimate(img) == 0.0

    def test_exact_sparse_ramp(self):
        # dark pixels only every 10th column, heights on an exact 0.1 line
        cols = np.arange(0, 210, 10)
        img = region_from_heights(
            [c // 10 if c in set(cols) else 0 for c in range(210)],
            height=40,
            present=[c in set(cols) for c in range(210)],
        )
        # all 21 pixels share a bin from 5.57 to 5.85 degrees (atan 0.1 is
        # 5.71); of the fine angles on that plateau, the tie rule reads 5.60
        assert estimate(img) == pytest.approx(5.6)

    def test_dense_ramp_five_degrees(self):
        # a band 6 px thick along an exact 5 degree line
        slope = math.tan(math.radians(5))
        img = np.full((60, 300), 220, np.uint8)
        for col in range(300):
            bottom = 55 - int(round(col * slope))
            img[bottom - 5 : bottom + 1, col] = 30
        assert estimate(img) == pytest.approx(5.0, abs=0.05)

    def test_rounded_ramp_five_degrees(self):
        # pixel-quantized ramp from an actual image stays within 0.1 degree
        slope = math.tan(math.radians(5))
        heights = [round(i * slope) for i in range(300)]
        assert estimate(region_from_heights(heights, height=60)) == pytest.approx(5.0, abs=0.1)

    def test_spike_is_filtered(self):
        # a stray dark pixel adds to one bin at every angle: the estimate
        # does not move
        img = synth.render_region(["Business Card Reader 2010"], 4, skew_deg=3.0).image
        spiked = img.copy()
        spiked[2, -3] = 30
        assert estimate(spiked) == estimate(img)

    def test_shift_invariance(self):
        # rows above or below shift every bin alike: same curve, same angle
        img = synth.render_region(["Center for Microprocessor"], 3, skew_deg=-4.0).image
        shifted = np.vstack([np.full((17, img.shape[1]), 220, np.uint8), img])
        a, b = (skew.estimate_region_skew(imaging.dark_mask(i)) for i in (img, shifted))
        assert a[0] == b[0]
        assert np.array_equal(a[1], b[1]) and np.array_equal(a[2], b[2])

    def test_reflection_antisymmetry(self):
        # a mirrored region reads the opposite angle, up to the uncentred
        # columns' rounding
        img = synth.render_region(["School of Mobile Computing"], 3, skew_deg=6.0).image
        assert estimate(img[:, ::-1]) == pytest.approx(-estimate(img), abs=0.1)

    def test_linear_profile_pairwise_angles_agree(self):
        # dots on a 0.2 line (11.31 degrees) at columns 0 to 40: every pair
        # of them shares a bin from 10.62 to 12.0 degrees, so the search
        # reads that plateau's smallest fine angle, 10.65, with or without
        # the dots between the ends
        def dots(cols, heights):
            present = [c in cols for c in range(cols[-1] + 1)]
            col_heights = [heights[cols.index(c)] if c in cols else 0
                           for c in range(cols[-1] + 1)]
            return region_from_heights(col_heights, height=20, present=present)

        line = math.degrees(math.atan(0.2))
        assert projection_energy(imaging.dark_mask(dots([0, 20, 40], [0, 4, 8])), line) == 9
        assert estimate(dots([0, 10, 20, 30, 40], [0, 2, 4, 6, 8])) == pytest.approx(10.65)
        assert estimate(dots([0, 20, 40], [0, 4, 8])) == pytest.approx(10.65)
        # moving the middle dot off the line moves the estimate
        assert estimate(dots([0, 20, 40], [0, 5, 8])) != pytest.approx(10.65, abs=1.0)

    def test_too_few_entries(self):
        # one dark pixel projects to one bin at every angle: exactly 0
        img = np.full((20, 20), 220, np.uint8)
        img[7, 13] = 30
        assert estimate(img) == 0.0

    def test_random_profiles_match_the_reference(self):
        # the search's curve is the per-dark-pixel energy at every angle
        # tried, on random masks, empty, all dark, 1 px wide and 1 row ones
        rng = np.random.default_rng(23)
        for dark in random_masks(rng, 300):
            angle, angles, energies = skew.estimate_region_skew(dark)
            if not dark.any():
                assert (angle, len(angles)) == (0.0, 0)
                continue
            assert energies.tolist() == [projection_energy(dark, a) for a in angles.tolist()]
            fine = angles[-21:][energies[-21:] == energies[-21:].max()]
            assert angle == fine[np.argmin(np.abs(fine))]

    def test_random_angles_match_the_reference(self):
        # energies at random angles across +/-20 degrees
        rng = np.random.default_rng(24)
        for dark in random_masks(rng, 150):
            angles = rng.uniform(-20.0, 20.0, 5)
            got = skew.profile_energies(skew.column_sums(dark), angles)
            assert got.tolist() == [projection_energy(dark, a) for a in angles.tolist()]

    def test_search_grid(self):
        # 13 coarse multiples of 0.5 around the moment angle, then 21
        # multiples of 0.05 around the coarse best
        img = synth.render_region(["Jadavpur University Kolkata"], 3, skew_deg=8.0).image
        angle, angles, _ = skew.estimate_region_skew(imaging.dark_mask(img))
        coarse, fine = angles[:13], angles[13:]
        assert len(fine) == 21
        assert np.allclose(np.diff(coarse), 0.5) and np.allclose(np.diff(fine), 0.05)
        assert np.allclose(coarse / 0.5, np.rint(coarse / 0.5))
        assert fine[10] in coarse and angle in fine
        assert angle == pytest.approx(8.0, abs=0.2)


class TestDeskew:
    def band(self, text, scale=4, skew_deg=0.0, sigma=0.0, seed=0):
        return noisy(synth.render_region([text], scale, skew_deg=skew_deg), sigma, seed)

    def test_upright_band_near_zero(self, monkeypatch):
        # an upright band reads exactly 0 and comes back unrotated
        img = self.band("Jadavpur University Kolkata 700032", sigma=4.0, seed=2)
        rotations = counting_rotations(monkeypatch)
        out, angle = skew.deskew(img)
        assert angle == 0.0
        assert out is img
        assert rotations == []

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
        assert angle == pytest.approx(7.0, abs=0.5)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_rotates_at_most_once(self, monkeypatch, seed):
        # a band at +7 or -7 degrees, noise drawn from `seed`: one rotation,
        # by -angle with the light-pixel fill
        img = self.band("Center for Microprocessor Application 2010",
                        skew_deg=7.0 if seed % 2 else -7.0, sigma=4.0, seed=seed)
        rotations = counting_rotations(monkeypatch)
        out, angle = skew.deskew(img)
        assert len(rotations) == 1
        assert np.array_equal(out, skew.imaging.rotate(img, -angle, fill=background_fill(img)))

    def test_negative_skew(self):
        img = self.band("School of Mobile Computing JU 2010",
                        skew_deg=-6.0, sigma=2.0, seed=4)
        _, angle = skew.deskew(img)
        assert angle == pytest.approx(-6.0, abs=0.5)

    def test_residual_smaller_after_correction(self):
        img = self.band("Department of Computer Science and Engineering",
                        skew_deg=8.0, seed=5)
        corrected, _ = skew.deskew(img)
        assert abs(estimate(corrected)) < max(abs(estimate(img)), 1.0)

    def test_no_text_passthrough(self):
        img = np.full((20, 20), 130, np.uint8)
        out, angle = skew.deskew(img)
        assert angle == 0.0
        assert out is img

    def test_single_dark_pixel_passthrough(self):
        img = np.full((20, 20), 220, np.uint8)
        img[3, 17] = 30
        out, angle = skew.deskew(img)
        assert angle == 0.0
        assert out is img

    def test_search_stays_within_clamp(self):
        # a 30 degree ramp: the search never leaves +/-SKEW_CLAMP
        heights = [round(i * math.tan(math.radians(30))) for i in range(80)]
        img = region_from_heights(heights, height=60)
        assert skew.SKEW_CLAMP == 20.0
        for dark in (imaging.dark_mask(img), imaging.dark_mask(img[:, ::-1])):
            angle, angles, _ = skew.estimate_region_skew(dark)
            assert np.abs(angles).max() == skew.SKEW_CLAMP
            assert 19.0 <= abs(angle) <= skew.SKEW_CLAMP

    def test_converged_total_is_not_rotated_again(self, monkeypatch):
        # a band deskew has turned upright reads exactly 0 on a second
        # deskew, which hands it back without a second rotation
        for skew_deg in (3.0, -4.0, 7.0):
            img = self.band("Business Card Reader 2010", skew_deg=skew_deg, sigma=4.0, seed=7)
            corrected, angle = skew.deskew(img)
            assert angle == pytest.approx(skew_deg, abs=0.1)
            rotations = counting_rotations(monkeypatch)
            out, again = skew.deskew(corrected)
            assert again == 0.0
            assert out is corrected
            assert rotations == []
            monkeypatch.undo()

    def test_every_pass_estimates_at_the_running_total(self, monkeypatch):
        # deskew is one pass: one search, on the dark mask of the crop
        # itself (a running total of 0), whose angle it returns
        img = self.band("Center for Microprocessor Application 2010",
                        skew_deg=7.0, sigma=4.0, seed=3)
        calls = recording_searches(monkeypatch)
        _, angle = skew.deskew(img)
        assert len(calls) == 1
        assert np.array_equal(calls[0][0], imaging.dark_mask(img))
        assert angle == calls[0][1]

    def test_single_pass_mode(self, monkeypatch):
        # the one pass reads a 3 degree band within a fine step
        img = self.band("Business Card Reader 2010", skew_deg=3.0, seed=6)
        calls = recording_searches(monkeypatch)
        _, angle = skew.deskew(img)
        assert len(calls) == 1
        assert angle == pytest.approx(3.0, abs=0.1)

    def test_fill_is_the_light_pixel_mean(self, monkeypatch):
        # the fill from integer sums over the dark mask equals the float
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


class TestDump:
    def test_format(self):
        # a level row 4 px wide: its offsets stay 0 over 4 columns at every
        # angle tried, so all 34 rows read 16 and the tie rule picks 0
        img = np.full((6, 4), 220, np.uint8)
        img[3, :] = 30
        lines = skew.format_profile_dump(img).splitlines()
        assert len(lines) == 13 + 21 + 1
        assert lines[6] == "0.00 16"
        assert lines[0] == "-3.00 16"
        assert lines[13] == "-0.50 16"
        assert lines[-1] == "0.00"

    def test_curve_is_the_search(self):
        img = synth.render_region(["www.jaduniv.edu.in"], 3, skew_deg=-2.5).image
        angle, angles, energies = skew.estimate_region_skew(imaging.dark_mask(img))
        rows = [line.split() for line in skew.format_profile_dump(img).splitlines()]
        assert [float(a) for a, _ in rows[:-1]] == pytest.approx(angles.tolist())
        assert [int(e) for _, e in rows[:-1]] == energies.tolist()
        assert rows[-1] == ["%.2f" % angle]

    def test_absent_columns_have_no_row(self):
        # the curve has one row per angle tried, none per column, and
        # columns with no dark pixel right of the ink change no row
        heights = [2, 0, 2, 2, 2, 3, 3, 3, 3, 3]
        present = [True, False] + [True] * 8
        text = skew.format_profile_dump(region_from_heights(heights, height=20, present=present))
        assert len(text.splitlines()) == 13 + 21 + 1
        for absent in (1, 7, 40):
            wider = region_from_heights(heights + [0] * absent, height=20,
                                        present=present + [False] * absent)
            assert skew.format_profile_dump(wider) == text

    @pytest.mark.parametrize("heights", [[]])
    def test_degenerate_fit_is_empty(self, heights):
        # no dark pixel (a constant region): no curve
        img = region_from_heights(heights + [0] * 4, height=20,
                                  present=[True] * len(heights) + [False] * 4)
        assert skew.format_profile_dump(img) == ""


CRITERION_9_SPEC = CardSpec(width=2048, height=1536, noise_sigma=4.0, bands=[
    Band("Ayatullah Faruk Mollah", 100, 150, 6),
    Band("School of Mobile Computing", 100, 400, 5),
    Band("Jadavpur University Kolkata", 100, 650, 5),
    Band("Phone: +91 33 2414 6666", 100, 900, 5),
    Band("www.jaduniv.edu.in", 100, 1150, 5),
])


class TestCriterion9Card:
    """Pins on the text regions of the criterion-9 card (seed 3), which
    has no skew."""

    @pytest.fixture(scope="class")
    def crops(self):
        color, _ = synth.render_card(CRITERION_9_SPEC, seed=3)
        gray = to_gray(color)
        return [gray[r.bbox.y:r.bbox.y2, r.bbox.x:r.bbox.x2]
                for r in rg.extract_regions(gray) if r.kind == rg.TR]

    def test_totals(self, crops, monkeypatch):
        # every crop reads exactly 0 and is handed back unrotated
        rotations = counting_rotations(monkeypatch)
        outs = [skew.deskew(crop) for crop in crops]
        assert [angle for _, angle in outs] == [0.0] * 5
        assert all(out is crop for (out, _), crop in zip(outs, crops))
        assert rotations == []

    def test_single_pass_keeps_total_and_output(self, crops, monkeypatch):
        # one search per crop: each keeps the total 0 and the crop's bytes
        calls = recording_searches(monkeypatch)
        outs = [skew.deskew(crop) for crop in crops]
        assert [angle for _, angle in calls] == [0.0] * 5
        assert all(np.array_equal(dark, imaging.dark_mask(crop))
                   for (dark, _), crop in zip(calls, crops))
        assert [hashlib.sha256(out.tobytes()).hexdigest() for out, _ in outs] == [
            hashlib.sha256(crop.tobytes()).hexdigest() for crop in crops]
