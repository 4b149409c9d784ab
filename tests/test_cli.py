import os
import pathlib
import subprocess
import sys
import weakref

import numpy as np
import pytest

from cardocr import cli, imaging, pipeline, recognize, skew, synth
from cardocr.synth import Band, CardSpec
from test_imaging import LOAD_SLACK_BYTES
from test_pipeline import FRAME_RELEASE


def write_card(path, text="OCR 2010", **spec_kw):
    spec = CardSpec(width=700, height=220,
                    bands=[Band(text=text, x=40, y=60, scale=5)], **spec_kw)
    color, truth = synth.render_card(spec, seed=2)
    imaging.save_pnm_file(path, color)
    return truth


class TestRun:
    def test_transcript_to_stdout(self, store_dir, tmp_path, capsys):
        card = tmp_path / "card.ppm"
        write_card(card)
        code = cli.main(["run", str(card), "--templates", store_dir])
        assert code == 0
        assert capsys.readouterr().out == "OCR 2OIO\n"

    def test_full_scheme_flag(self, store_dir, tmp_path, capsys):
        card = tmp_path / "card.ppm"
        write_card(card)
        code = cli.main(["run", str(card), "--templates", store_dir,
                         "--scheme", "full"])
        assert code == 0
        assert capsys.readouterr().out == "OCR 2010\n"

    @FRAME_RELEASE
    def test_image_freed_before_skew(self, store_dir, tmp_path, capsys, monkeypatch):
        # `run` hands the loaded image over as the pipeline's only reference
        card = tmp_path / "card.ppm"
        write_card(card)
        frames, alive = [], []
        load, deskew = imaging.load_pnm_file, skew.deskew

        def loading(path):
            image = load(path)
            frames.append(weakref.ref(image))
            return image

        def deskewing(crop):
            alive.append(frames[-1]() is not None)  # the card, loaded after the store
            return deskew(crop)

        monkeypatch.setattr(imaging, "load_pnm_file", loading)
        monkeypatch.setattr(skew, "deskew", deskewing)
        assert cli.main(["run", str(card), "--templates", store_dir]) == 0
        assert capsys.readouterr().out == "OCR 2OIO\n"
        assert alive == [False]

    def test_blank_image_exit_4(self, store_dir, tmp_path, capsys):
        card = tmp_path / "blank.ppm"
        imaging.save_pnm_file(card, np.full((128, 128, 3), 220, np.uint8))
        code = cli.main(["run", str(card), "--templates", store_dir])
        assert code == 4
        assert capsys.readouterr().out == ""

    def test_missing_input_exit_2(self, store_dir, tmp_path, capsys):
        code = cli.main(["run", str(tmp_path / "nope.ppm"), "--templates", store_dir])
        assert code == 2

    def test_ill_formed_input_exit_2(self, store_dir, tmp_path):
        bad = tmp_path / "bad.ppm"
        bad.write_bytes(b"JFIF not a pnm")
        assert cli.main(["run", str(bad), "--templates", store_dir]) == 2

    def test_overlong_header_token_exit_2(self, store_dir, tmp_path, capsys):
        # a width of 9000 zeros and a 5 is refused by its length, and the
        # message names the field instead of echoing the token
        bad = tmp_path / "long.ppm"
        bad.write_bytes(b"P6 " + b"0" * 9000 + b"5 4 255\n" + bytes(60))
        assert cli.main(["run", str(bad), "--templates", store_dir]) == 2
        err = capsys.readouterr().err
        assert err == "input error: malformed header: width longer than 32 bytes\n"
        assert len(err.encode()) < 200

    def test_ill_formed_input_makes_no_dump_directory(self, store_dir, tmp_path):
        bad = tmp_path / "bad.ppm"
        bad.write_bytes(b"JFIF not a pnm")
        dumps = tmp_path / "stages"
        assert cli.main(["run", str(bad), "--templates", store_dir,
                         "--dump-stages", str(dumps)]) == 2
        assert not dumps.exists()

    def test_image_smaller_than_block_exit_2(self, store_dir, tmp_path, capsys):
        tiny = tmp_path / "tiny.pgm"
        imaging.save_pnm_file(tiny, np.full((8, 8), 200, np.uint8))
        assert cli.main(["run", str(tiny), "--templates", store_dir]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error:") and err.count("\n") == 1

    def test_missing_store_exit_3(self, tmp_path):
        card = tmp_path / "card.ppm"
        write_card(card)
        assert cli.main(["run", str(card), "--templates", str(tmp_path / "ghost")]) == 3

    def test_no_store_given_exit_3(self, tmp_path):
        card = tmp_path / "card.ppm"
        write_card(card)
        assert cli.main(["run", str(card)]) == 3

    def test_dump_stages(self, store_dir, tmp_path, capsys):
        card = tmp_path / "card.ppm"
        write_card(card)
        dumps = tmp_path / "stages"
        code = cli.main(["run", str(card), "--templates", store_dir,
                         "--dump-stages", str(dumps)])
        assert code == 0
        capsys.readouterr()
        assert (dumps / "regions.txt").exists()
        assert (dumps / "region_0.bin.pgm").exists()

    def test_byte_identical_reruns(self, store_dir, tmp_path, capsys):
        card = tmp_path / "card.ppm"
        write_card(card, noise_sigma=5.0)
        outputs = []
        for _ in range(2):
            assert cli.main(["run", str(card), "--templates", store_dir]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]


class TestSynthCommand:
    def test_suite_generated(self, tmp_path, capsys):
        out = tmp_path / "suite"
        code = cli.main(["synth", str(out), "--count", "2", "--seed", "5"])
        assert code == 0
        report = capsys.readouterr().out
        assert "count=2" in report
        assert (out / "card_0.ppm").exists()
        assert (out / "card_1.truth.txt").exists()
        assert (out / "manifest.txt").exists()

    def test_scales_flag(self, tmp_path, capsys):
        out = tmp_path / "suite"
        assert cli.main(["synth", str(out), "--count", "2", "--seed", "5", "--scales", "2,8"]) == 0
        assert "scales=2,8\n" in capsys.readouterr().out
        assert "scales=2,8\n" in (out / "manifest.txt").read_text()
        # the flag reaches the generator: the suite is the one SuiteParams renders
        synth.generate_suite(tmp_path / "direct", synth.SuiteParams(count=2, seed=5, scales=(2, 8)))
        for name in os.listdir(out):
            assert (out / name).read_bytes() == (tmp_path / "direct" / name).read_bytes(), name

    def test_default_scales(self, tmp_path, capsys):
        assert cli.main(["synth", str(tmp_path / "suite"), "--count", "1"]) == 0
        assert "scales=3,4,5\n" in capsys.readouterr().out

    def test_defaults_are_suite_params(self):
        args = cli.build_parser().parse_args(["synth", "out"])
        params = synth.SuiteParams()
        for name in ("count", "seed", "width", "height",
                     "skew_min", "skew_max", "sigma_min", "sigma_max"):
            assert getattr(args, name) == getattr(params, name), name
        assert args.scales == ",".join(map(str, params.scales))
        assert args.salt_pepper == params.salt_pepper_min == params.salt_pepper_max


class TestArgumentErrors:
    """Out-of-range synth, store-build and bench arguments exit 2 with one
    input error line, before anything is written."""

    @pytest.mark.parametrize("flags", [
        ["--count", "0"],
        ["--salt-pepper", "2"],
        ["--skew-min", "-30", "--skew-max", "-30"],
        ["--height", "10"],
        ["--height", "0"],
        ["--sigma-min", "-1"],
        ["--sigma-max", "-1"],
        # NaN fails no `<` check, and inf is no usable sigma
        ["--count", "1", "--sigma-min", "nan"],
        ["--count", "1", "--sigma-max", "nan"],
        ["--count", "1", "--sigma-max", "inf"],
        ["--count", "1", "--skew-min", "nan"],
        ["--count", "1", "--skew-max", "nan"],
        ["--count", "1", "--scales", "0"],
        ["--count", "1", "--scales", "-2"],
        ["--count", "1", "--scales", "2.5"],
        ["--count", "1", "--scales", "2,,8"],
        ["--count", "1", "--scales", ""],
        ["--count", "1", "--scales", "a"],
        ["--count", "1", "--scales", "400"],
        # a minimum above its maximum (the default --sigma-max is 5)
        ["--count", "1", "--sigma-min", "7"],
        ["--count", "1", "--skew-min", "6", "--skew-max", "-6"],
    ])
    def test_synth_argument_exit_2(self, tmp_path, capsys, flags):
        out = tmp_path / "suite"
        assert cli.main(["synth", str(out), *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error:") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--samples", "0"], "--samples must be >= 10"),
        (["--samples", "5"], "--samples must be >= 10"),
        (["--samples", "9"], "--samples must be >= 10"),
        (["--seed", "-1"], "--seed must be >= 0"),
    ])
    def test_store_build_argument_exit_2(self, tmp_path, capsys, flags, message):
        out = tmp_path / "store"
        assert cli.main(["store-build", str(out), *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"input error: {message}\n"
        assert not out.exists()

    def test_bench_zero_runs_exit_2(self, store_dir, tmp_path, capsys):
        card = tmp_path / "card.ppm"
        write_card(card)
        code = cli.main(["bench", str(card), "--templates", store_dir, "--runs", "0"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "input error: --runs must be >= 1\n"

    def test_narrow_card_exit_2(self, tmp_path):
        # a card too narrow for one glyph once made the text generator spin
        # forever, so run it in a child process the test can time out
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        out = tmp_path / "suite"
        proc = subprocess.run(
            [sys.executable, "-m", "cardocr.cli", "synth", str(out),
             "--count", "1", "--width", "10", "--height", "10"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("input error:") and proc.stderr.count("\n") == 1
        assert not out.exists()


class TestStoreBuild:
    def test_builds_and_reports(self, tmp_path, capsys):
        out = tmp_path / "store"
        code = cli.main(["store-build", str(out), "--seed", "7"])
        assert code == 0
        assert capsys.readouterr().out == "templates=730\n"
        assert sorted(p.name for p in out.iterdir()) == ["labels.txt", "templates.pgm"]
        assert imaging.load_pnm_file(out / "templates.pgm").shape == (730 * 48, 48)
        assert len((out / "labels.txt").read_text().splitlines()) == 730

    def test_defaults_are_the_font_store_defaults(self):
        args = cli.build_parser().parse_args(["store-build", "out"])
        assert (args.seed, args.samples) == (synth.FONT_STORE_SEED, synth.FONT_STORE_SAMPLES)

    def test_rebuild_is_byte_identical(self, tmp_path, capsys):
        first, second = tmp_path / "a", tmp_path / "b"
        assert cli.main(["store-build", str(first), "--seed", "7"]) == 0
        assert cli.main(["store-build", str(second), "--seed", "7"]) == 0
        for name in ("templates.pgm", "labels.txt"):
            assert (first / name).read_bytes() == (second / name).read_bytes()


class TestStoreErrors:
    """A store that cannot be read exits 3 with one error line."""

    def run_with_store(self, tmp_path, capsys, store):
        card = tmp_path / "card.ppm"
        write_card(card)
        code = cli.main(["run", str(card), "--templates", str(store)])
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("template store error:")
        assert captured.err.count("\n") == 1
        return code, captured.err

    def copy_store(self, store_dir, tmp_path):
        store = tmp_path / "store"
        store.mkdir()
        for name in ("templates.pgm", "labels.txt"):
            (store / name).write_bytes((pathlib.Path(store_dir) / name).read_bytes())
        return store

    def test_truncated_templates_exit_3(self, store_dir, tmp_path, capsys):
        store = self.copy_store(store_dir, tmp_path)
        image = store / "templates.pgm"
        image.write_bytes(image.read_bytes()[:-100])
        code, err = self.run_with_store(tmp_path, capsys, store)
        assert code == 3 and "truncated" in err

    def test_directory_in_place_of_templates_exit_3(self, store_dir, tmp_path, capsys):
        store = self.copy_store(store_dir, tmp_path)
        (store / "templates.pgm").unlink()
        (store / "templates.pgm").mkdir()
        assert self.run_with_store(tmp_path, capsys, store)[0] == 3

    def test_older_layout_exit_3(self, tmp_path, capsys):
        store = tmp_path / "store"
        store.mkdir()
        (store / "manifest.txt").write_text("21\tA\n")
        imaging.save_pnm_file(store / "21_0.pgm", np.zeros((48, 48), np.uint8))
        code, err = self.run_with_store(tmp_path, capsys, store)
        assert code == 3 and "missing templates.pgm" in err


# argv with PATH as the path under test, the kind of path, the exit code
FILESYSTEM_CASES = [
    (["run", "PATH", "--templates", "STORE"], "missing", 2),
    (["run", "PATH", "--templates", "STORE"], "dir", 2),
    (["run", "CARD", "--templates", "PATH"], "missing", 3),
    (["run", "CARD", "--templates", "PATH"], "file", 3),
    (["run", "CARD", "--templates", "STORE", "--dump-stages", "PATH"], "missing", 0),
    (["run", "CARD", "--templates", "STORE", "--dump-stages", "PATH"], "file", 2),
    (["synth", "PATH", "--count", "1"], "missing", 0),
    (["synth", "PATH", "--count", "1"], "file", 2),
    (["store-build", "PATH", "--samples", "10"], "missing", 0),
    (["store-build", "PATH"], "file", 2),
    (["eval", "PATH", "--templates", "STORE"], "missing", 2),
    (["eval", "PATH", "--templates", "STORE"], "file", 2),
    (["eval", "DIR", "--templates", "PATH"], "missing", 3),
    (["eval", "DIR", "--templates", "PATH"], "file", 3),
    (["bench", "PATH", "--templates", "STORE"], "missing", 2),
    (["bench", "PATH", "--templates", "STORE"], "dir", 2),
    (["bench", "CARD", "--templates", "PATH"], "missing", 3),
    (["bench", "CARD", "--templates", "PATH"], "file", 3),
]


def filesystem_case_id(argv, kind):
    flag = argv[argv.index("PATH") - 1]
    return "-".join([argv[0], flag[2:] if flag.startswith("--") else "arg", kind])


class TestFilesystemContract:
    """Every subcommand against a missing path, a regular file where a
    directory is expected and a directory where a file is expected ends in
    a documented exit code; a failure is one stderr line that names the
    path.  Unreadable-permission cases are left out: they do not fail for
    the root user."""

    PREFIX = {2: "input error:", 3: "template store error:"}

    @pytest.mark.parametrize(
        "argv, kind, expected", FILESYSTEM_CASES,
        ids=[filesystem_case_id(argv, kind) for argv, kind, _ in FILESYSTEM_CASES],
    )
    def test_exit_code(self, store_dir, tmp_path, capsys, monkeypatch, argv, kind, expected):
        if expected != 0:
            # a bad path fails before any card is recognized or store rendered
            def fail(*args, **kwargs):
                raise AssertionError("work started before the paths were checked")

            monkeypatch.setattr(pipeline, "run_pipeline", fail)
            monkeypatch.setattr(synth, "build_font_store", fail)
        path = tmp_path / kind
        if kind == "file":
            path.write_text("a regular file\n")
        elif kind == "dir":
            path.mkdir()
        card, empty = tmp_path / "card.ppm", tmp_path / "empty"
        write_card(card)
        empty.mkdir()
        slots = {"PATH": str(path), "CARD": str(card), "STORE": store_dir, "DIR": str(empty)}
        code = cli.main([slots.get(arg, arg) for arg in argv])
        err = capsys.readouterr().err
        assert code == expected
        if code == 0:
            assert err == ""
        else:
            assert err.startswith(self.PREFIX[code]) and err.count("\n") == 1
            assert str(path) in err


# argv of the retired config file and config command, with F a config
# file that the former parser accepted
RETIRED_CONFIG_CASES = [
    ["run", "CARD", "--templates", "STORE", "--config", "F"],
    ["eval", "DIR", "--templates", "STORE", "--config", "F"],
    ["bench", "CARD", "--templates", "STORE", "--config", "F"],
    ["config"],
]


@pytest.mark.parametrize("argv", RETIRED_CONFIG_CASES, ids=lambda argv: argv[0])
def test_config_file_is_refused(store_dir, tmp_path, monkeypatch, argv):
    # settings are flags only: argparse refuses the file and the command
    # before any store is loaded or card recognized
    def fail(*args, **kwargs):
        raise AssertionError("work started for a refused command line")

    monkeypatch.setattr(recognize, "load_store", fail)
    monkeypatch.setattr(pipeline, "run_pipeline", fail)
    card, empty, cfg = tmp_path / "card.ppm", tmp_path / "empty", tmp_path / "pipeline.cfg"
    write_card(card)
    empty.mkdir()
    cfg.write_text("scheme = full\n")
    slots = {"CARD": str(card), "STORE": store_dir, "DIR": str(empty), "F": str(cfg)}
    with pytest.raises(SystemExit) as exc:
        cli.main([slots.get(arg, arg) for arg in argv])
    assert exc.value.code == 2


class TestEval:
    def test_perfect_suite_metrics(self, store_dir, tmp_path, capsys):
        # seed 3 is a suite this pipeline recognizes perfectly
        suite = tmp_path / "suite"
        assert cli.main(["synth", str(suite), "--count", "2", "--seed", "3"]) == 0
        capsys.readouterr()
        code = cli.main(["eval", str(suite), "--templates", store_dir])
        assert code == 0
        report = capsys.readouterr().out
        lines = report.strip().splitlines()
        keys = [ln.split("=")[0] for ln in lines]
        assert keys == ["recall", "precision", "f_measure", "accuracy",
                        "cards", "chars_total", "chars_aligned"]
        values = dict(ln.split("=") for ln in lines)
        assert values["recall"] == "100.00"
        assert values["precision"] == "100.00"
        assert values["f_measure"] == "100.00"
        assert float(values["accuracy"]) >= 95.0
        assert values["chars_aligned"] == values["chars_total"]

    def test_misaligned_suite_golden(self, store_dir, tmp_path, capsys):
        # the report of a suite of cards set at up to +/-2 degrees: every
        # card reads as many glyphs as its truth holds, so all 111
        # characters are compared (a card whose glyph count is off the
        # truth's is covered by test_evaluate.py)
        suite = tmp_path / "suite"
        assert cli.main(["synth", str(suite), "--count", "4", "--seed", "3",
                         "--skew-min", "-2", "--skew-max", "2"]) == 0
        capsys.readouterr()
        assert cli.main(["eval", str(suite), "--templates", store_dir]) == 0
        assert capsys.readouterr().out == (
            "recall=100.00\n"
            "precision=100.00\n"
            "f_measure=100.00\n"
            "accuracy=99.10\n"
            "cards=4\n"
            "chars_total=111\n"
            "chars_aligned=111\n"
        )

    def test_no_text_found_exit_4(self, store_dir, tmp_path, capsys):
        # 0.2% salt-and-pepper breaks every region up, so no text region
        # matches and region recall and precision are undefined
        suite = tmp_path / "suite"
        assert cli.main(["synth", str(suite), "--count", "2", "--seed", "1",
                         "--salt-pepper", "0.002"]) == 0
        capsys.readouterr()
        assert cli.main(["eval", str(suite), "--templates", store_dir]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("no text found:") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("suffix, data", [
        (".regions.txt", b"garbage line here x\n"),
        (".regions.txt", b"1 2 3 4\n"),
        (".regions.txt", b"1 2 3 4 XX 1 1.0 0.1 1.0\n"),
        (".regions.txt", b"1 2 3 4 TR\n"),
        (".regions.txt", b"1 2 3 4 TR 1 1.0 0.1 1.0 7\n"),
        (".regions.txt", b"1 2 0 4 TR 1 1.0 0.1 1.0\n"),
        (".truth.txt", b"\xff"),
    ])
    def test_malformed_suite_file_exit_2(self, store_dir, tmp_path, capsys, suffix, data):
        suite = tmp_path / "suite"
        assert cli.main(["synth", str(suite), "--count", "1", "--seed", "3"]) == 0
        capsys.readouterr()
        path = suite / ("card_0" + suffix)
        with open(path, "ab") as fh:
            fh.write(data)
        assert cli.main(["eval", str(suite), "--templates", store_dir]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("input error: malformed suite file")
        assert str(path) in captured.err and captured.err.count("\n") == 1

    def test_empty_suite_exit_2(self, store_dir, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert cli.main(["eval", str(empty), "--templates", store_dir]) == 2


class TestBench:
    def test_report_schema(self, store_dir, tmp_path, capsys):
        card = tmp_path / "card.ppm"
        write_card(card)
        code = cli.main(["bench", str(card), "--templates", store_dir, "--runs", "2"])
        assert code == 0
        report = capsys.readouterr().out
        keys = [ln.split("=")[0] for ln in report.strip().splitlines()]
        assert keys == [
            "load_ms", "extraction_ms", "skew_ms", "binarize_ms", "segment_ms",
            "recognize_ms", "total_ms", "load_peak_bytes", "extraction_peak_bytes",
            "skew_peak_bytes", "binarize_peak_bytes", "segment_peak_bytes",
            "recognize_peak_bytes", "max_peak_bytes", "input_bytes", "runs",
        ]
        values = dict(ln.split("=") for ln in report.strip().splitlines())
        assert values["runs"] == "2"
        # the loader returns the gray card: its bytes are the input, and
        # loading it peaks at those plus the strip buffers
        assert int(values["input_bytes"]) == 700 * 220
        assert 700 * 220 <= int(values["load_peak_bytes"]) <= (
            700 * 220 + imaging.GRAY_STRIP_BYTES + LOAD_SLACK_BYTES)
        assert float(values["load_ms"]) > 0
