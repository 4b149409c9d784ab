import os
import re
from dataclasses import FrozenInstanceError, fields

import pytest

from cardocr import regions, segment, skew
from cardocr.config import PipelineConfig

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
    (skew, "COARSE_STEP", 0.5),
    (skew, "COARSE_HALF_WIDTH", 3.0),
    (skew, "FINE_STEP", 0.05),
    (skew, "FINE_HALF_WIDTH", 0.5),
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
        cfg = PipelineConfig()
        assert [f.name for f in fields(cfg)] == ["scheme"]
        assert cfg.scheme == "merged"
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


class TestConstruction:
    @pytest.mark.parametrize("kwargs", [{"scheme": "otsu"}, {"scheme": ""}])
    def test_invalid_value_fails_at_construction(self, kwargs):
        with pytest.raises(ValueError, match="^unknown class scheme "):
            PipelineConfig(**kwargs)

    def test_fields_cannot_be_assigned(self):
        cfg = PipelineConfig()
        with pytest.raises(FrozenInstanceError):
            cfg.scheme = "full"
        assert cfg.scheme == "merged"
