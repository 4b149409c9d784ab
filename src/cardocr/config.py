"""Pipeline configuration: one flat key=value file of the settings a caller
chooses, the class scheme and the template store.

The paper's thresholds are not settings: each is a constant of the one
stage that reads it (regions, skew, segment).  A config is frozen and
validates itself when it is built, so a bad scheme fails before any stage
runs; a changed config is a new one, made with dataclasses.replace.  Flags
given on the command line override file values; unknown keys, a former
threshold among them, are rejected so typos fail loudly.
"""

from dataclasses import dataclass, fields

from .recognize import SCHEMES, ClassScheme


class ConfigError(ValueError):
    """Bad config file, unknown key or out-of-range value."""


@dataclass(frozen=True)
class PipelineConfig:
    scheme: str = "merged"
    templates: str = ""

    def __post_init__(self):
        self.validate()

    def validate(self):
        if self.scheme not in SCHEMES:
            raise ConfigError(f"scheme must be {' or '.join(map(repr, SCHEMES))}")
        return self

    def class_scheme(self):
        return ClassScheme(self.scheme)


_KEYS = {f.name for f in fields(PipelineConfig)}


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
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        values[key] = value
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
