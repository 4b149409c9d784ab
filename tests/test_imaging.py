import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from cardocr import imaging
from cardocr.fontdata import glyph_mask
from cardocr.imaging import PnmError, Rect

from reference import load_pnm, rotate as full_frame_rotate


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


def gray_of(img):
    """What the file loader returns for a decoded PGM or PPM image."""
    return img if img.ndim == 2 else imaging.to_grayscale(img)


class TestPnm:
    def test_load_p5_minimal(self, tmp_path):
        img = decode(tmp_path, b"P5 2 1 255 " + bytes([0, 255]))
        assert img.shape == (1, 2)
        assert list(img[0]) == [0, 255]

    def test_load_p6_single_pixel(self, tmp_path):
        # a PPM loads as gray: (299 * 10 + 587 * 20 + 114 * 30 + 500) // 1000
        img = decode(tmp_path, b"P6 1 1 255 " + bytes([10, 20, 30]))
        assert img.shape == (1, 1) and img.dtype == np.uint8
        assert img.tolist() == [[18]]

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
        # a PGM round-trips as written, a PPM comes back as its gray image
        rng = np.random.default_rng(11)
        img = rng.integers(0, 256, size=shape, dtype=np.uint8)
        assert np.array_equal(decode(tmp_path, imaging.save_pnm(img)), gray_of(img))

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
            assert np.array_equal(loaded, gray_of(load_pnm((tmp_path / name).read_bytes())))
            assert np.array_equal(loaded, gray_of(img))
            assert loaded.flags.writeable
            loaded[0, 0] = 0  # writing is allowed and leaves the file alone
            assert np.array_equal(imaging.load_pnm_file(tmp_path / name), gray_of(img))

    @pytest.mark.parametrize(
        "data,expected",
        [
            (b"P5\t2\r3\v255\f" + bytes(range(6)), np.arange(6).reshape(3, 2)),
            # (299 * 7 + 587 * 8 + 114 * 9 + 500) // 1000
            (b"P6\t\r\v\f1 \t1\r\n255\v" + bytes([7, 8, 9]), [[8]]),
            (b"P5#comment right after the magic\n2 1 255\n" + bytes([4, 5]), [[4, 5]]),
            (b"P5 2 1 255\n" + bytes([1, 2]) + b"trailing bytes", [[1, 2]]),
            (b"P6\n2", "malformed header: ran out of data while reading dimensions"),
            (b"P6\n2 1 255", "malformed header: missing payload"),
        ],
        ids=["p5-separators", "p6-separators", "comment-after-magic", "trailing-bytes",
             "cut-in-header", "cut-before-payload"],
    )
    def test_file_load_agrees_with_reference(self, tmp_path, data, expected):
        # the file loader reads row strips into numpy buffers, the reference
        # decodes `bytes`: the same gray pixels or the same error message
        if isinstance(expected, str):
            for load in (lambda d: decode(tmp_path, d), load_pnm):
                with pytest.raises(PnmError) as exc:
                    load(data)
                assert str(exc.value) == expected
        else:
            loaded = decode(tmp_path, data)
            assert np.array_equal(loaded, gray_of(load_pnm(data)))
            assert np.array_equal(loaded, np.array(expected, dtype=np.uint8))
            assert loaded.flags.writeable


def traced_peak(fn):
    """(result, tracemalloc peak of fn() above the allocation at its start)."""
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not was_tracing:
            tracemalloc.stop()
    return result, peak


class TestStripLoader:
    """The file loader reads a PPM in row strips and converts each to gray;
    it must agree with decoding the whole file's bytes and then converting
    the color image."""

    @staticmethod
    def check(tmp_path, data):
        """The loader and the bytes reference give the same gray pixels or
        the same error message."""
        try:
            expected = gray_of(load_pnm(data))
        except PnmError as exc:
            with pytest.raises(PnmError) as got:
                decode(tmp_path, data)
            assert str(got.value) == str(exc)
            return None
        loaded = decode(tmp_path, data)
        assert loaded.dtype == np.uint8 and loaded.flags.writeable
        assert np.array_equal(loaded, expected)
        return loaded

    @pytest.mark.parametrize("strip_bytes", [imaging.GRAY_STRIP_BYTES, 16 * 7, 1])
    def test_random_shapes(self, tmp_path, monkeypatch, strip_bytes):
        # at the default budget and at budgets of a few rows or of one: most
        # shapes end in a ragged strip
        monkeypatch.setattr(imaging, "GRAY_STRIP_BYTES", strip_bytes)
        rng = np.random.default_rng(40)
        shapes = [(1, 1), (1, 2), (2, 1)] + [tuple(int(v) for v in rng.integers(1, 90, 2))
                                             for _ in range(30)]
        for h, w in shapes:
            for channels in (1, 3):
                size = (h, w) if channels == 1 else (h, w, 3)
                img = rng.integers(0, 256, size=size, dtype=np.uint8)
                assert self.check(tmp_path, imaging.save_pnm(img)).shape == (h, w)

    def test_ragged_last_strip_at_default_budget(self, tmp_path):
        rng = np.random.default_rng(41)
        w = 1000
        rows = imaging.GRAY_STRIP_BYTES // (16 * w)
        for h in (rows - 1, rows, rows + 1, 3 * rows + 5):
            img = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
            self.check(tmp_path, imaging.save_pnm(img))

    def test_width_above_strip_budget(self, tmp_path):
        # wider than a strip's budget: one row per strip
        w = imaging.GRAY_STRIP_BYTES // 16 + 3
        img = np.random.default_rng(42).integers(0, 256, size=(3, w, 3), dtype=np.uint8)
        assert self.check(tmp_path, imaging.save_pnm(img)).shape == (3, w)

    @pytest.mark.parametrize("extra", [-12, 0, 1, 9 * imaging.HEADER_READ_BYTES])
    def test_header_longer_than_first_read(self, tmp_path, extra):
        # a comment or a run of spaces `extra` bytes longer than the first read
        img = np.random.default_rng(43).integers(0, 256, size=(4, 5, 3), dtype=np.uint8)
        length = imaging.HEADER_READ_BYTES + extra
        comment = b"#" + b"c" * length + b"\n"
        for data in (b"P6\n" + comment + b"5 4\n255\n" + img.tobytes(),
                     b"P6 5" + b" " * length + b"4 " + comment + b"255\n" + img.tobytes(),
                     b"P5 5 4\n" + comment + b"255 " + img[:, :, 0].tobytes()):
            assert self.check(tmp_path, data).shape == (4, 5)
        for cut in (b"P6\n" + comment, b"P6\n" + comment + b"5 4 255"):  # header cut short
            self.check(tmp_path, cut)
        self.check(tmp_path, b"P6\n" + comment[:-1])

    @pytest.mark.parametrize("shrinks", [False, True])
    def test_truncated_in_a_later_strip(self, tmp_path, monkeypatch, shrinks):
        # a short file is refused by its size before any read; one whose
        # size says it is whole but that ends early (it shrinks while it is
        # read) is refused by the read that comes up short
        monkeypatch.setattr(imaging, "GRAY_STRIP_BYTES", 16 * 4 * 3)  # 3 rows of 4 pixels
        if shrinks:
            monkeypatch.setattr(imaging, "os", SimpleNamespace(
                fstat=lambda fd: SimpleNamespace(st_size=1 << 40)))
        img = np.random.default_rng(44).integers(0, 256, size=(10, 4, 3), dtype=np.uint8)
        data = imaging.save_pnm(img)
        header = len(data) - img.nbytes
        for keep in (0, 1, 36, 37, 50, 107, 119):  # within the first to the last strip
            with pytest.raises(PnmError, match="truncated payload: expected 120 bytes, "
                                               f"got {keep}$"):
                decode(tmp_path, data[: header + keep])
            self.check(tmp_path, data[: header + keep])
        gray = imaging.save_pnm(img[:, :, 0])
        with pytest.raises(PnmError, match="expected 40 bytes, got 39$"):
            decode(tmp_path, gray[:-1])

    @pytest.mark.parametrize("data", [
        b"", b"P", b"P6", b"P6 0 1 255 ", b"P6 1 -1 255 ", b"P6 1 1 255 \0\0",
        b"P6 1 1 255\n\0\0\0\0\0\0", b"P6 1#x\n1 255 \1\2\3", b"P6 1 1 255#\1\2\3",
        b"P5 9999999999 9999999999 255 \0\0\0", b"P6 1000000000 1 255 \0\0\0",
    ])
    def test_header_cases(self, tmp_path, data):
        # short files, bad dimensions, a one-pixel PPM short or long, '#'
        # inside a token, which starts no comment, and dimensions far beyond
        # the payload, which are refused before any pixel buffer is made
        self.check(tmp_path, data)

    def test_peak_is_gray_plus_strip_buffers(self, tmp_path):
        # a 3 MP PPM: the gray image, one uint8 strip of the file, its
        # float32 channels and sum, and the file object's read buffer
        h, w = 1536, 2048
        img = np.random.default_rng(45).integers(0, 256, size=(h, w, 3), dtype=np.uint8)
        path = tmp_path / "card.ppm"
        imaging.save_pnm_file(path, img)
        del img
        rows = imaging.GRAY_STRIP_BYTES // (16 * w)
        strips = rows * w * 3 + imaging.GRAY_STRIP_BYTES
        gray, peak = traced_peak(lambda: imaging.load_pnm_file(path))
        assert gray.shape == (h, w)
        assert peak <= gray.nbytes + strips + (1 << 16)


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
        # the final clip changes no byte for an in-range fill
        rng = np.random.default_rng(21)
        for _ in range(200):
            h, w = (int(v) for v in rng.integers(1, 60, size=2))
            img = rng.integers(0, 256, size=(h, w), dtype=np.uint8)
            if rng.random() < 0.3:
                img = np.where(rng.random((h, w)) < 0.5, 0, 255).astype(np.uint8)
            angle = float(rng.uniform(-45, 45))
            fill = int(rng.choice([0, 255, int(rng.integers(0, 256))]))
            assert np.array_equal(
                imaging.rotate(img, angle, fill), full_frame_rotate(img, angle, fill)
            )


class TestRotateStrips:
    """imaging.rotate resamples the canvas in row strips; its output must be
    byte for byte that of the full-frame body in tests/reference.py."""

    @pytest.mark.parametrize("strip_px", [imaging.ROTATE_STRIP_PX, 97, 1])
    def test_matches_full_frame(self, monkeypatch, strip_px):
        # 200 cases per budget: most canvases end in a ragged strip, and
        # many are wider than the two small budgets (one row per strip)
        monkeypatch.setattr(imaging, "ROTATE_STRIP_PX", strip_px)
        rng = np.random.default_rng(50 + strip_px)
        for _ in range(200):
            h, w = (int(v) for v in rng.integers(1, 150, size=2))
            img = rng.integers(0, 256, size=(h, w), dtype=np.uint8)
            angle = float(rng.uniform(-45, 45))
            fill = int(rng.integers(0, 256))
            assert np.array_equal(imaging.rotate(img, angle, fill),
                                  full_frame_rotate(img, angle, fill))

    def test_canvas_wider_than_budget(self):
        # at the shipped budget: a canvas row holds more than one strip's
        # pixels, and a canvas of a few whole strips and a ragged one
        rng = np.random.default_rng(51)
        budget = imaging.ROTATE_STRIP_PX
        for shape, angle in [((2, budget + 5), 0.0), ((5, 300), 44.0), ((190, 200), -3.5)]:
            img = rng.integers(0, 256, size=shape, dtype=np.uint8)
            out = imaging.rotate(img, angle, 200)
            assert np.array_equal(out, full_frame_rotate(img, angle, 200))
        assert out.shape[0] % (budget // out.shape[1]) != 0

    def test_peak_is_bounded_by_the_strip(self):
        # above its output and the padded float32 copy of its source, the
        # peak is one strip's temporaries (72 bytes a pixel), numpy's cast
        # buffers and the per-row and per-column terms, on canvases of 1 to
        # 100 strips; the full frame took 72 bytes a canvas pixel
        rng = np.random.default_rng(52)
        for h, w in [(60, 200), (300, 900), (900, 1500)]:
            img = rng.integers(0, 256, size=(h, w), dtype=np.uint8)
            out, peak = traced_peak(lambda: imaging.rotate(img, 7.0, 128))
            assert peak - out.nbytes - 4 * (h + 2) * (w + 2) <= (
                80 * imaging.ROTATE_STRIP_PX + (1 << 18))


class TestRotatePoints:
    def test_zero_angle_is_identity(self):
        rng = np.random.default_rng(30)
        rows = rng.integers(0, 15, 50)
        cols = rng.integers(0, 33, 50)
        shape, out_rows, out_cols = imaging.rotate_points((15, 33), 0.0, rows, cols)
        assert shape == (15, 33)
        assert np.array_equal(out_rows, rows) and np.array_equal(out_cols, cols)

    def test_canvas_is_rotate_canvas(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            h, w = (int(v) for v in rng.integers(1, 80, size=2))
            angle = float(rng.uniform(-45, 45))
            shape, _, _ = imaging.rotate_points((h, w), angle, np.zeros(0), np.zeros(0))
            assert shape == imaging.rotate(np.zeros((h, w), np.uint8), angle).shape

    def test_inverse_map_of_rotate_returns_the_points(self):
        # rotate samples output pixel (y, x) at the source point below; fed
        # the forward-mapped centres, that inverse map gives them back
        rng = np.random.default_rng(32)
        for angle in (-44.0, -7.5, 0.3, 12.0, 45.0):
            h, w = 37, 90
            rows, cols = rng.integers(0, h, 40), rng.integers(0, w, 40)
            (oh, ow), y, x = imaging.rotate_points((h, w), angle, rows, cols)
            c, s = np.cos(np.radians(angle)), np.sin(np.radians(angle))
            dx, dy = x - (ow - 1) / 2, y - (oh - 1) / 2
            assert np.allclose((w - 1) / 2 + dx * c - dy * s, cols, atol=1e-9)
            assert np.allclose((h - 1) / 2 + dx * s + dy * c, rows, atol=1e-9)

    def test_bright_pixel_lands_where_mapped(self):
        for angle in (-30.0, -3.0, 8.0, 41.0):
            img = np.zeros((25, 60), np.uint8)
            img[4, 50] = 255
            out = imaging.rotate(img, angle, fill=0)
            _, y, x = imaging.rotate_points(img.shape, angle, np.array([4]), np.array([50]))
            peak = np.unravel_index(np.argmax(out), out.shape)
            assert abs(peak[0] - y[0]) <= 1.0 and abs(peak[1] - x[0]) <= 1.0
