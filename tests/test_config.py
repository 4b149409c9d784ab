import os
import re
from dataclasses import FrozenInstanceError, fields

import pytest

from cardocr.config import ConfigError, PipelineConfig, format_config, load_config, parse_config_text


class TestDefaults:
    def test_documented_defaults(self):
        cfg = PipelineConfig().validate()
        assert (cfg.block_h, cfg.block_w) == (16, 16)
        assert cfg.t_var == 40
        assert cfg.min_area_blocks == 4
        assert (cfg.ar_min, cfg.ar_max) == (1.2, 40.0)
        assert (cfg.dens_min, cfg.dens_max) == (0.03, 0.6)
        assert cfg.cov_min == 0.5
        assert cfg.skew_clamp == 20.0
        assert cfg.binarize_mode == "global"
        assert cfg.binarize_window == 31
        assert cfg.line_threshold == 0
        assert cfg.r_min == 0.5
        assert cfg.word_gap_factor == 2.0
        assert cfg.scheme == "merged"

    def test_readme_documents_every_field(self):
        readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
        with open(readme) as fh:
            section = fh.read().split("## Configuration", 1)[1].split("\n## ", 1)[0]
        keys = set()
        for row in section.splitlines():
            if row.startswith("| `"):
                keys.update(re.findall(r"`(\w+)`", row.split("|")[1]))
        assert {f.name for f in fields(PipelineConfig)} <= keys

    def test_format_parses_back(self):
        cfg = PipelineConfig()
        text = format_config(cfg)
        again = parse_config_text(text)
        assert again == cfg


class TestConstruction:
    @pytest.mark.parametrize("kwargs", [{"binarize_mode": "otsu"}, {"block_h": 2}])
    def test_invalid_value_fails_at_construction(self, kwargs):
        with pytest.raises(ConfigError):
            PipelineConfig(**kwargs)

    def test_fields_cannot_be_assigned(self):
        cfg = PipelineConfig()
        with pytest.raises(FrozenInstanceError):
            cfg.skew_passes = 0
        assert cfg.skew_passes == 3


class TestParsing:
    def test_overrides_and_comments(self):
        cfg = parse_config_text("t_var = 55  # higher gate\n\nscheme = full\n")
        assert cfg.t_var == 55
        assert cfg.scheme == "full"

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text("blocksize = 8\n")

    def test_bad_value_type(self):
        with pytest.raises(ConfigError, match="bad value"):
            parse_config_text("t_var = forty\n")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_text("just words\n")

    @pytest.mark.parametrize(
        "line",
        [
            "block_h = 2",
            "t_var = 300",
            "ar_min = 0",
            "dens_min = 0.9\ndens_max = 0.5",
            "binarize_mode = otsu",
            "binarize_window = 10",
            "r_min = 1.5",
            "word_gap_factor = 0.5",
            "scheme = fuzzy",
            "skew_passes = 0",
        ],
    )
    def test_range_validation(self, line):
        with pytest.raises(ConfigError):
            parse_config_text(line + "\n")

    def test_load_file(self, tmp_path):
        path = tmp_path / "pipeline.cfg"
        path.write_text("block_h = 32\nblock_w = 32\n")
        cfg = load_config(path)
        assert (cfg.block_h, cfg.block_w) == (32, 32)
        # the file's values override the defaults; every other key keeps its default
        assert cfg == PipelineConfig(block_h=32, block_w=32)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "nope.cfg")
