import os
import re
from dataclasses import FrozenInstanceError, fields

import pytest

from cardocr import regions, segment, skew
from cardocr.config import ConfigError, PipelineConfig, format_config, load_config, parse_config_text

# The paper's fixed parameters: (module, constant, value), as README's
# second Configuration table lists them.
FIXED = [
    (regions, "BLOCK_SIZE", 16),
    (regions, "T_VAR", 40),
    (regions, "MIN_AREA_BLOCKS", 4),
    (regions, "AR_MIN", 1.2),
    (regions, "AR_MAX", 40.0),
    (regions, "DENS_MIN", 0.03),
    (regions, "DENS_MAX", 0.6),
    (regions, "COV_MIN", 0.5),
    (skew, "SKEW_CLAMP", 20.0),
    (skew, "SKEW_PASSES", 3),
    (skew, "CONVERGENCE_DEG", 0.05),
    (segment, "LINE_THRESHOLD", 0),
    (segment, "R_MIN", 0.5),
    (segment, "WORD_GAP_FACTOR", 2.0),
]


def readme_tables():
    """The rows of the tables in README's Configuration section, split
    into cells, one list per table."""
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        section = fh.read().split("## Configuration", 1)[1].split("\n## ", 1)[0]
    tables = [[]]
    for row in section.splitlines():
        if row.startswith("| `"):
            tables[-1].append([cell.strip() for cell in row.strip("|").split("|")])
        elif tables[-1]:
            tables.append([])
    return [t for t in tables if t]


class TestDefaults:
    def test_documented_defaults(self):
        cfg = PipelineConfig().validate()
        assert [f.name for f in fields(cfg)] == ["scheme", "templates"]
        assert (cfg.scheme, cfg.templates) == ("merged", "")
        for module, name, value in FIXED:
            assert getattr(module, name) == value, name

    def test_readme_documents_every_field(self):
        settings, constants = readme_tables()
        keys = {key for row in settings for key in re.findall(r"`(\w+)`", row[0])}
        assert keys == {f.name for f in fields(PipelineConfig)}
        # each fixed parameter's row: `module.CONSTANT` | value | meaning
        documented = {re.fullmatch(r"`(\w+\.\w+)`", row[0])[1]: row[1] for row in constants}
        assert documented == {f"{m.__name__.rsplit('.', 1)[-1]}.{name}": str(value)
                              for m, name, value in FIXED}

    def test_format_parses_back(self):
        cfg = PipelineConfig()
        text = format_config(cfg)
        again = parse_config_text(text)
        assert again == cfg


class TestConstruction:
    @pytest.mark.parametrize("kwargs", [{"scheme": "otsu"}, {"scheme": ""}])
    def test_invalid_value_fails_at_construction(self, kwargs):
        with pytest.raises(ConfigError):
            PipelineConfig(**kwargs)

    def test_fields_cannot_be_assigned(self):
        cfg = PipelineConfig()
        with pytest.raises(FrozenInstanceError):
            cfg.scheme = "full"
        assert cfg.scheme == "merged"


class TestParsing:
    def test_overrides_and_comments(self):
        cfg = parse_config_text("templates = store  # built by store-build\n\nscheme = full\n")
        assert cfg.templates == "store"
        assert cfg.scheme == "full"

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text("blocksize = 8\n")
        # t_var was a setting; the paper's thresholds are stage constants now
        with pytest.raises(ConfigError, match="unknown key 't_var'"):
            parse_config_text("t_var = 40\n")

    def test_bad_value_type(self):
        # a value is kept as its text, which a scheme must match exactly
        with pytest.raises(ConfigError, match="scheme must be"):
            parse_config_text("scheme = 1\n")

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
            "line_threshold = -1",
            "skew_clamp = 50",
            "r_min = 1.5",
            "word_gap_factor = 0.5",
            "scheme = fuzzy",
            "skew_passes = 0",
            "word_gap_factor = nan",
        ],
    )
    def test_range_validation(self, line):
        # scheme is the one setting with a range; every other line sets a
        # former field, whose value no stage reads, and is refused by its key
        match = "scheme must be" if line.startswith("scheme") else "unknown key"
        with pytest.raises(ConfigError, match=match):
            parse_config_text(line + "\n")

    def test_load_file(self, tmp_path):
        path = tmp_path / "pipeline.cfg"
        path.write_text("scheme = full\n")
        cfg = load_config(path)
        assert cfg.scheme == "full"
        # the file's values override the defaults; every other key keeps its default
        assert cfg == PipelineConfig(scheme="full")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "nope.cfg")

    def test_file_not_utf8(self, tmp_path):
        path = tmp_path / "pipeline.cfg"
        path.write_bytes(b"\xffblock_h = 32\n")
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(path)
