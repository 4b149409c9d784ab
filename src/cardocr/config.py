"""Pipeline configuration: one flat key=value file, every tunable validated.

PipelineConfig is the only place a stage default is declared; every stage
function that has a setting takes it and reads its own fields.  A config
is frozen and validates itself when it is built, so an out-of-range value
fails before any stage runs; a changed config is a new one, made with
dataclasses.replace.  Flags given on the command line override file values;
unknown keys are rejected so typos fail loudly.
"""

from dataclasses import dataclass, fields

from .recognize import SCHEMES, ClassScheme


class ConfigError(ValueError):
    """Bad config file, unknown key or out-of-range value."""


@dataclass(frozen=True)
class PipelineConfig:
    # region extraction
    block_h: int = 16
    block_w: int = 16
    t_var: int = 40
    min_area_blocks: int = 4
    ar_min: float = 1.2
    ar_max: float = 40.0
    dens_min: float = 0.03
    dens_max: float = 0.6
    cov_min: float = 0.5
    # skew
    skew_clamp: float = 20.0
    skew_passes: int = 3
    # segmentation
    line_threshold: int = 0
    r_min: float = 0.5
    word_gap_factor: float = 2.0
    # recognition
    scheme: str = "merged"
    templates: str = ""

    def __post_init__(self):
        self.validate()

    def validate(self):
        if self.block_h < 4 or self.block_w < 4:
            raise ConfigError("block_h and block_w must be >= 4")
        if self.t_var < 0 or self.t_var > 255:
            raise ConfigError("t_var must be in [0, 255]")
        if self.min_area_blocks < 1:
            raise ConfigError("min_area_blocks must be >= 1")
        if not 0 < self.ar_min <= self.ar_max:
            raise ConfigError("need 0 < ar_min <= ar_max")
        if not 0.0 <= self.dens_min <= self.dens_max <= 1.0:
            raise ConfigError("need 0 <= dens_min <= dens_max <= 1")
        if not 0.0 <= self.cov_min <= 1.0:
            raise ConfigError("cov_min must be in [0, 1]")
        if not 0.0 < self.skew_clamp <= 45.0:
            raise ConfigError("skew_clamp must be in (0, 45]")
        if self.skew_passes < 1:
            raise ConfigError("skew_passes must be >= 1")
        if self.line_threshold < 0:
            raise ConfigError("line_threshold must be >= 0")
        if not 0.0 <= self.r_min <= 1.0:
            raise ConfigError("r_min must be in [0, 1]")
        if not self.word_gap_factor >= 1.0:
            raise ConfigError("word_gap_factor must be >= 1")
        if self.scheme not in SCHEMES:
            raise ConfigError(f"scheme must be {' or '.join(map(repr, SCHEMES))}")
        return self

    def class_scheme(self):
        return ClassScheme(self.scheme)


_FIELD_TYPES = {f.name: f.type for f in fields(PipelineConfig)}


def parse_config_text(text):
    """Parse 'key = value' lines into a PipelineConfig; keys not given keep
    their default."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _FIELD_TYPES:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        try:
            values[key] = _FIELD_TYPES[key](value)
        except ValueError:
            raise ConfigError(f"line {lineno}: bad value for {key}: {value!r}") from None
    return PipelineConfig(**values)


def load_config(path):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return parse_config_text(text)


def format_config(cfg):
    """Render a config back to the file format (the documentation of record
    for every default)."""
    lines = [f"{f.name} = {getattr(cfg, f.name)}" for f in fields(PipelineConfig)]
    return "\n".join(lines) + "\n"
