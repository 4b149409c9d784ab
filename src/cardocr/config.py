"""Pipeline configuration: the one setting a caller chooses, the class
scheme, which `--scheme` sets on the command line.

The paper's thresholds are not settings: each is a constant of the one
stage that reads it (regions, skew, segment).  The template store is not
one either: `--templates` names it and `cli` loads it.  A config is frozen
and builds its scheme when it is built, so a bad scheme fails, with
ClassScheme's error, before any stage runs.
"""

from dataclasses import dataclass

from .recognize import ClassScheme


@dataclass(frozen=True)
class PipelineConfig:
    scheme: str = "merged"

    def __post_init__(self):
        self.class_scheme()

    def class_scheme(self):
        return ClassScheme(self.scheme)
