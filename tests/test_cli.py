import os

import numpy as np
import pytest

from cardocr import cli, imaging, synth
from cardocr.synth import Band, CardSpec


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

    def test_bad_config_exit_5(self, store_dir, tmp_path):
        card = tmp_path / "card.ppm"
        write_card(card)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("no_such_key = 1\n")
        code = cli.main(["run", str(card), "--templates", store_dir,
                         "--config", str(cfg)])
        assert code == 5

    def test_config_file_respected(self, store_dir, tmp_path, capsys):
        card = tmp_path / "card.ppm"
        write_card(card)
        cfg = tmp_path / "full.cfg"
        cfg.write_text("scheme = full\n")
        code = cli.main(["run", str(card), "--templates", store_dir,
                         "--config", str(cfg)])
        assert code == 0
        assert capsys.readouterr().out == "OCR 2010\n"

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


class TestStoreBuild:
    def test_builds_and_reports(self, tmp_path, capsys):
        out = tmp_path / "store"
        code = cli.main(["store-build", str(out), "--seed", "7"])
        assert code == 0
        assert capsys.readouterr().out == "templates=730\n"
        assert (out / "manifest.txt").exists()
        assert len(list(out.glob("*.pgm"))) == 730


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
        # with +/-2 degree skew some cards come out with a glyph count off
        # the truth's; every character of such a card counts as wrong
        suite = tmp_path / "suite"
        assert cli.main(["synth", str(suite), "--count", "4", "--seed", "3",
                         "--skew-min", "-2", "--skew-max", "2"]) == 0
        capsys.readouterr()
        assert cli.main(["eval", str(suite), "--templates", store_dir]) == 0
        assert capsys.readouterr().out == (
            "recall=100.00\n"
            "precision=100.00\n"
            "f_measure=100.00\n"
            "accuracy=76.58\n"
            "cards=4\n"
            "chars_total=111\n"
            "chars_aligned=85\n"
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
            "extraction_ms", "skew_ms", "binarize_ms", "segment_ms",
            "recognize_ms", "total_ms", "extraction_peak_bytes",
            "skew_peak_bytes", "binarize_peak_bytes", "segment_peak_bytes",
            "recognize_peak_bytes", "max_peak_bytes", "input_bytes", "runs",
        ]
        values = dict(ln.split("=") for ln in report.strip().splitlines())
        assert values["runs"] == "2"


class TestConfigCommand:
    def test_prints_effective_config(self, capsys):
        assert cli.main(["config"]) == 0
        out = capsys.readouterr().out
        assert "block_h = 16" in out
        assert "scheme = merged" in out

    def test_default_output_golden(self, capsys):
        assert cli.main(["config"]) == 0
        assert capsys.readouterr().out == (
            "block_h = 16\n"
            "block_w = 16\n"
            "t_var = 40\n"
            "min_area_blocks = 4\n"
            "ar_min = 1.2\n"
            "ar_max = 40.0\n"
            "dens_min = 0.03\n"
            "dens_max = 0.6\n"
            "cov_min = 0.5\n"
            "skew_clamp = 20.0\n"
            "skew_passes = 3\n"
            "binarize_mode = global\n"
            "binarize_window = 31\n"
            "line_threshold = 0\n"
            "r_min = 0.5\n"
            "word_gap_factor = 2.0\n"
            "scheme = merged\n"
            "templates = \n"
        )
