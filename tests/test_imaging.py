import numpy as np
import pytest

from cardocr import imaging
from cardocr.fontdata import glyph_mask
from cardocr.imaging import PnmError, Rect

from reference import load_pnm, rotate as clipping_rotate


def box_blur(img, passes):
    """3x3 box blur with clipped borders, used to soften glyph edges the way
    a slightly defocused camera would."""
    out = img
    for _ in range(passes):
        p = out.astype(np.float32)
        acc = np.zeros_like(p)
        cnt = np.zeros_like(p)
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                ys = slice(max(0, dy), p.shape[0] + min(0, dy))
                xs = slice(max(0, dx), p.shape[1] + min(0, dx))
                yd = slice(max(0, -dy), p.shape[0] + min(0, -dy))
                xd = slice(max(0, -dx), p.shape[1] + min(0, -dx))
                acc[yd, xd] += p[ys, xs]
                cnt[yd, xd] += 1
        out = np.rint(acc / cnt).astype(np.uint8)
    return out


def text_patch(text, scale, blur=0, fg=30, bg=220):
    masks = [glyph_mask(c) for c in text]
    width = sum(m.shape[1] for m in masks) * scale + (len(masks) + 3) * scale
    img = np.full((13 * scale, width), bg, np.uint8)
    x = 2 * scale
    for m in masks:
        mm = np.kron(m, np.ones((scale, scale), dtype=bool))
        h, w = mm.shape
        img[2 * scale : 2 * scale + h, x : x + w][mm] = fg
        x += w + scale
    return box_blur(img, blur)


class TestGrayscale:
    @pytest.mark.parametrize(
        "rgb,expected",
        [
            ((255, 255, 255), 255),
            ((0, 0, 0), 0),
            # 0.299*100 + 0.587*150 + 0.114*200 = 140.75 -> 141 (half up)
            ((100, 150, 200), 141),
        ],
    )
    def test_pointwise(self, rgb, expected):
        img = np.array([[rgb]], dtype=np.uint8)
        assert imaging.to_grayscale(img)[0, 0] == expected

    def test_neutral_gray_is_identity(self):
        v = np.arange(256, dtype=np.uint8)
        img = np.stack([v, v, v], axis=-1)[None, :, :]
        assert np.array_equal(imaging.to_grayscale(img)[0], v)

    def test_monotone(self):
        rng = np.random.default_rng(7)
        a = rng.integers(0, 256, size=(40, 40, 3), dtype=np.uint8)
        bump = rng.integers(0, 40, size=(40, 40, 3))
        b = np.minimum(a.astype(int) + bump, 255).astype(np.uint8)
        ga, gb = imaging.to_grayscale(a), imaging.to_grayscale(b)
        assert (gb >= ga).all()

    @staticmethod
    def expected(img):
        r, g, b = (img[:, :, k].astype(np.int64) for k in range(3))
        return (299 * r + 587 * g + 114 * b + 500) // 1000

    def test_shape_preserved(self):
        rng = np.random.default_rng(3)
        # a strip holds three float32 channels and their float32 sum per pixel
        strip_rows = lambda w: imaging.GRAY_STRIP_BYTES // ((3 + 1) * 4 * w)
        assert strip_rows(2048) > 1
        # one strip; two whole strips plus a partial one, also a single column
        for h, w in [(5, 9), (2 * strip_rows(2048) + 5, 2048), (2 * strip_rows(1) + 5, 1)]:
            img = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
            got = imaging.to_grayscale(img)
            assert got.shape == (h, w) and got.dtype == np.uint8
            assert np.array_equal(got, self.expected(img))

    @pytest.mark.parametrize("shape", [(5, 0, 3), (0, 5, 3)])
    def test_empty_image(self, shape):
        got = imaging.to_grayscale(np.zeros(shape, dtype=np.uint8))
        assert got.shape == shape[:2] and got.dtype == np.uint8

    def test_non_contiguous_input(self):
        rng = np.random.default_rng(4)
        img = rng.integers(0, 256, size=(40, 2 * 301, 3), dtype=np.uint8)[:, ::2]
        assert not img.flags.c_contiguous
        assert np.array_equal(imaging.to_grayscale(img), self.expected(img))

    def test_read_only_input(self):
        rng = np.random.default_rng(5)
        raw = rng.integers(0, 256, size=33 * 47 * 3, dtype=np.uint8).tobytes()
        img = np.frombuffer(raw, dtype=np.uint8).reshape(33, 47, 3)
        assert not img.flags.writeable
        assert np.array_equal(imaging.to_grayscale(img), self.expected(img))

    def test_every_rgb_triple(self):
        # all 2**24 triples: one (256, 256, 3) image per red value, green
        # down the rows and blue across the columns
        g, b = np.meshgrid(np.arange(256), np.arange(256), indexing="ij")
        img = np.empty((256, 256, 3), dtype=np.uint8)
        img[:, :, 1], img[:, :, 2] = g, b
        for r in range(256):
            img[:, :, 0] = r
            expected = (299 * r + 587 * g + 114 * b + 500) // 1000
            assert np.array_equal(imaging.to_grayscale(img), expected)

    def test_rejects_gray_input(self):
        with pytest.raises(ValueError):
            imaging.to_grayscale(np.zeros((4, 4), dtype=np.uint8))


def decode(tmp_path, data):
    """Decode PNM bytes through the file loader, as the CLI does."""
    path = tmp_path / "img.pnm"
    path.write_bytes(data)
    return imaging.load_pnm_file(path)


class TestPnm:
    def test_load_p5_minimal(self, tmp_path):
        img = decode(tmp_path, b"P5 2 1 255 " + bytes([0, 255]))
        assert img.shape == (1, 2)
        assert list(img[0]) == [0, 255]

    def test_load_p6_single_pixel(self, tmp_path):
        img = decode(tmp_path, b"P6 1 1 255 " + bytes([10, 20, 30]))
        assert img.shape == (1, 1, 3)
        assert tuple(img[0, 0]) == (10, 20, 30)

    def test_load_honors_comments(self, tmp_path):
        img = decode(tmp_path, b"P5\n# a comment\n2 2\n255\n" + bytes(4))
        assert img.shape == (2, 2)

    def test_truncated_payload(self, tmp_path):
        with pytest.raises(PnmError, match="truncated"):
            decode(tmp_path, b"P5 2 2 255 " + bytes(3))

    def test_bad_magic(self, tmp_path):
        with pytest.raises(PnmError, match="magic"):
            decode(tmp_path, b"P3 1 1 255 0")

    def test_unsupported_maxval(self, tmp_path):
        with pytest.raises(PnmError, match="maxval"):
            decode(tmp_path, b"P5 1 1 65535 \0\0")

    def test_non_numeric_header(self, tmp_path):
        with pytest.raises(PnmError, match="header"):
            decode(tmp_path, b"P5 x 1 255 \0")

    def test_save_gray_payload(self):
        data = imaging.save_pnm(np.array([[128]], dtype=np.uint8))
        assert data.startswith(b"P5\n1 1\n255\n")
        assert data[-1] == 128

    def test_save_binary_mapping(self):
        data = imaging.save_pnm(np.array([[True, False]]))
        assert data.endswith(bytes([0, 255]))

    @pytest.mark.parametrize("shape", [(3, 3), (3, 3, 3)])
    def test_round_trip(self, shape, tmp_path):
        rng = np.random.default_rng(11)
        img = rng.integers(0, 256, size=shape, dtype=np.uint8)
        assert np.array_equal(decode(tmp_path, imaging.save_pnm(img)), img)

    def test_binary_round_trip(self, tmp_path):
        rng = np.random.default_rng(12)
        mask = rng.random((4, 5)) < 0.5
        back = decode(tmp_path, imaging.save_pnm(mask))
        assert np.array_equal(back == 0, mask)

    def test_file_round_trip(self, tmp_path):
        img = np.arange(12, dtype=np.uint8).reshape(3, 4)
        path = tmp_path / "img.pgm"
        imaging.save_pnm_file(path, img)
        assert np.array_equal(imaging.load_pnm_file(path), img)

    def test_file_load_matches_bytes_load(self, tmp_path):
        rng = np.random.default_rng(6)
        for name, img in [("g.pgm", rng.integers(0, 256, size=(5, 7), dtype=np.uint8)),
                          ("c.ppm", rng.integers(0, 256, size=(4, 3, 3), dtype=np.uint8))]:
            data = imaging.save_pnm(img)
            (tmp_path / name).write_bytes(b"P" + data[1:2] + b" # comment\n" + data[3:])
            loaded = imaging.load_pnm_file(tmp_path / name)
            assert np.array_equal(loaded, load_pnm((tmp_path / name).read_bytes()))
            assert np.array_equal(loaded, img)
            assert loaded.flags.writeable
            loaded[0, 0] = 0  # writing is allowed and leaves the file alone
            assert np.array_equal(imaging.load_pnm_file(tmp_path / name), img)

    @pytest.mark.parametrize(
        "data,expected",
        [
            (b"P5\t2\r3\v255\f" + bytes(range(6)), np.arange(6).reshape(3, 2)),
            (b"P6\t\r\v\f1 \t1\r\n255\v" + bytes([7, 8, 9]), [[[7, 8, 9]]]),
            (b"P5#comment right after the magic\n2 1 255\n" + bytes([4, 5]), [[4, 5]]),
            (b"P5 2 1 255\n" + bytes([1, 2]) + b"trailing bytes", [[1, 2]]),
            (b"P6\n2", "malformed header: ran out of data while reading dimensions"),
            (b"P6\n2 1 255", "malformed header: missing payload"),
        ],
        ids=["p5-separators", "p6-separators", "comment-after-magic", "trailing-bytes",
             "cut-in-header", "cut-before-payload"],
    )
    def test_file_load_agrees_with_reference(self, tmp_path, data, expected):
        # the file loader reads into an unfilled numpy buffer, the reference
        # decodes `bytes`: same pixels or the same error message
        if isinstance(expected, str):
            for load in (lambda d: decode(tmp_path, d), load_pnm):
                with pytest.raises(PnmError) as exc:
                    load(data)
                assert str(exc.value) == expected
        else:
            loaded = decode(tmp_path, data)
            assert np.array_equal(loaded, load_pnm(data))
            assert np.array_equal(loaded, np.array(expected, dtype=np.uint8))
            assert loaded.flags.writeable


class TestCrop:
    """The crop rectangle type (the crop helper itself is gone)."""

    def test_degenerate_rect(self):
        with pytest.raises(ValueError):
            Rect(0, 0, 0, 1)


class TestDarkRule:
    def test_midpoint_matches_half_sum_exhaustively(self):
        # for every 0 <= lo <= hi <= 255 and every gray p: p < midpoint(lo, hi)
        # exactly when p < (lo + hi) / 2
        lo, hi = np.meshgrid(np.arange(256), np.arange(256), indexing="ij")
        lo, hi = lo[lo <= hi], hi[lo <= hi]
        mid = imaging.midpoint(lo, hi)
        half = (lo + hi) / 2
        for p in range(256):
            assert np.array_equal(p < mid, p < half), p

    def test_midpoint_elementwise_equals_scalar(self):
        lo = np.array([0, 3, 100, 255], dtype=np.int16)
        hi = np.array([0, 4, 201, 255], dtype=np.int16)
        got = imaging.midpoint(lo, hi)
        assert got.tolist() == [imaging.midpoint(a, b) for a, b in zip(lo.tolist(), hi.tolist())]
        assert got.tolist() == [0, 4, 151, 255]

    @pytest.mark.parametrize("value", [0, 77, 255])
    def test_constant_image_has_no_dark_pixel(self, value):
        assert not imaging.dark_mask(np.full((3, 4), value, dtype=np.uint8)).any()

    def test_dark_mask_is_strictly_below_half_sum(self):
        gray = np.array([[0, 99, 100, 101, 200]], dtype=np.uint8)
        assert imaging.dark_mask(gray).tolist() == [[True, True, False, False, False]]
        gray = np.array([[0, 100, 101, 201]], dtype=np.uint8)  # half sum 100.5
        assert imaging.dark_mask(gray).tolist() == [[True, True, False, False]]


class TestRotate:
    def test_zero_angle_is_identity(self):
        rng = np.random.default_rng(5)
        img = rng.integers(0, 256, size=(15, 33), dtype=np.uint8)
        assert np.array_equal(imaging.rotate(img, 0.0, fill=99), img)

    def test_angle_out_of_range(self):
        with pytest.raises(ValueError, match="angle"):
            imaging.rotate(np.zeros((4, 4), dtype=np.uint8), 46.0)

    def test_center_pixel_fixed_point(self):
        for theta in (-30.0, -7.0, 5.0, 20.0, 44.0):
            img = np.zeros((31, 31), dtype=np.uint8)
            img[15, 15] = 255
            out = imaging.rotate(img, theta, fill=0)
            oh, ow = out.shape
            assert out[(oh - 1) // 2, (ow - 1) // 2] > 0

    def test_constant_image_stays_constant(self):
        img = np.full((10, 20), 77, dtype=np.uint8)
        out = imaging.rotate(img, 13.0, fill=77)
        assert (out == 77).all()

    def test_linear_field_is_resampled_exactly(self):
        # Bilinear interpolation reproduces linear intensity fields, so a
        # rotated ramp must match the analytic ramp wherever the sample
        # point lands inside the source.
        h, w = 41, 61
        yy, xx = np.mgrid[0:h, 0:w]
        img = np.clip(2 * xx + yy + 20, 0, 255).astype(np.uint8)
        theta = 9.0
        out = imaging.rotate(img, theta, fill=0)
        oh, ow = out.shape
        rad = np.radians(theta)
        c, s = np.cos(rad), np.sin(rad)
        dyy, dxx = np.mgrid[0:oh, 0:ow]
        dxx = dxx - (ow - 1) / 2
        dyy = dyy - (oh - 1) / 2
        sx = (w - 1) / 2 + dxx * c - dyy * s
        sy = (h - 1) / 2 + dxx * s + dyy * c
        inside = (sx >= 0) & (sx <= w - 1) & (sy >= 0) & (sy <= h - 1)
        expect = 2 * sx + sy + 20
        err = np.abs(out.astype(float) - expect)[inside & (expect <= 254)]
        assert err.max() <= 1.0

    def test_round_trip_on_soft_text(self):
        # Camera-soft glyph edges (several-pixel transitions): a rotate and
        # unrotate pair must reproduce the original footprint within 8 gray
        # levels for small angles.  Measured worst case is 6 at this blur.
        img = text_patch("HelloOCR2010", 5, blur=8)
        h, w = img.shape
        for theta in (1.0, 4.0, 7.0, 10.0):
            back = imaging.rotate(imaging.rotate(img, theta, 220), -theta, 220)
            bh, bw = back.shape
            oy, ox = (bh - h) // 2, (bw - w) // 2
            win = back[oy : oy + h, ox : ox + w]
            diff = np.abs(win.astype(int) - img.astype(int))
            assert diff.max() <= 8

    def test_round_trip_on_sharp_text_mean_error(self):
        # Hard 0/255-style edges cannot round-trip pixel-exactly through two
        # bilinear resamples; the mean deviation still stays small.
        img = text_patch("OCR2010", 4, blur=0)
        h, w = img.shape
        back = imaging.rotate(imaging.rotate(img, 8.0, 220), -8.0, 220)
        bh, bw = back.shape
        oy, ox = (bh - h) // 2, (bw - w) // 2
        diff = np.abs(back[oy : oy + h, ox : ox + w].astype(int) - img.astype(int))
        assert diff.mean() <= 8.0

    @pytest.mark.parametrize("fill", [-1, 256, 300, float("nan")])
    def test_fill_out_of_range(self, fill):
        with pytest.raises(ValueError, match="fill"):
            imaging.rotate(np.zeros((4, 4), dtype=np.uint8), 5.0, fill=fill)

    def test_matches_clipping_reference(self):
        # dropping the final clip changes no byte for an in-range fill
        rng = np.random.default_rng(21)
        for _ in range(200):
            h, w = (int(v) for v in rng.integers(1, 60, size=2))
            img = rng.integers(0, 256, size=(h, w), dtype=np.uint8)
            if rng.random() < 0.3:
                img = np.where(rng.random((h, w)) < 0.5, 0, 255).astype(np.uint8)
            angle = float(rng.uniform(-45, 45))
            fill = int(rng.choice([0, 255, int(rng.integers(0, 256))]))
            assert np.array_equal(
                imaging.rotate(img, angle, fill), clipping_rotate(img, angle, fill)
            )
