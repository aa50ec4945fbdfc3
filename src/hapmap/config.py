"""Pipeline configuration: a flat key-value file with section prefixes.

Every tunable constant of the pipeline appears here with its default, so
``format_config(PipelineConfig())`` doubles as the reference config file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

from .dcgd import DcgdParams
from .depthio import key_value_lines, parse_value
from .geomfeat import GeometryThresholds

OUTPUT_FORMATS = ("json", "ascii", "pgm")


@dataclass(frozen=True)
class PipelineConfig:
    intrinsics_path: str = ""
    dcgd: DcgdParams = DcgdParams()
    segment_link_mm: float = 80.0
    segment_min_px: int = 200
    model_path: str = ""
    confidence_threshold: float = 0.85
    thresholds: GeometryThresholds = GeometryThresholds()
    grid_small_basis: int = 24
    grid_rows: int = 96
    grid_cols: int = 120
    glyphs_path: str = ""
    output_format: str = "ascii"
    seed: int = 0

    def __post_init__(self):
        positives = {
            "segment.link_mm": self.segment_link_mm,
            "segment.min_px": self.segment_min_px,
            "grid.small_basis": self.grid_small_basis,
            "grid.rows": self.grid_rows, "grid.cols": self.grid_cols,
        }
        for key, value in positives.items():
            if not 0 < value < math.inf:
                raise ValueError(f"{key} must be positive and finite")
        if not 0.0 < self.confidence_threshold < 1.0:
            raise ValueError("classifier.threshold must lie in (0, 1)")
        if self.output_format not in OUTPUT_FORMATS:
            raise ValueError(f"output.format must be one of {OUTPUT_FORMATS}")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


def _nested(prefix: str, group: str, params) -> dict:
    """The float key prefix.<field> of each field of a nested parameter object."""
    return {f"{prefix}.{f.name}": (group, f.name, float) for f in fields(params)}


#: every config key in file order, as (group, field, type): the key sets
#: PipelineConfig.<field>, or with a group the field of PipelineConfig.<group>
KEYS = {
    "intrinsics.path": (None, "intrinsics_path", str),
    "segment.link_mm": (None, "segment_link_mm", float),
    "segment.min_px": (None, "segment_min_px", int),
    "model.path": (None, "model_path", str),
    "classifier.threshold": (None, "confidence_threshold", float),
    "grid.small_basis": (None, "grid_small_basis", int),
    "grid.rows": (None, "grid_rows", int),
    "grid.cols": (None, "grid_cols", int),
    "glyphs.path": (None, "glyphs_path", str),
    "output.format": (None, "output_format", str),
    "seed": (None, "seed", int),
    **_nested("dcgd", "dcgd", DcgdParams),
    **_nested("geometry", "thresholds", GeometryThresholds),
}


def parse_config(text: str) -> PipelineConfig:
    """Parse `section.key=value` lines; '#' starts a comment; unknown keys fail."""
    values: dict = {group: {} for group, _, _ in KEYS.values()}
    for lineno, key, value in key_value_lines(text, "config"):
        if key not in KEYS:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        group, attr, conv = KEYS[key]
        values[group][attr] = parse_value(conv, value,
                                          f"config line {lineno}: {key}")
    cfg = PipelineConfig()
    updates = values.pop(None)
    for group, kw in values.items():
        updates[group] = replace(getattr(cfg, group), **kw)
    return replace(cfg, **updates)


def format_config(cfg: PipelineConfig) -> str:
    """Every key with its value, one per line; parse_config reads it back."""
    return "".join(
        f"{key}={getattr(getattr(cfg, group) if group else cfg, attr)}\n"
        for key, (group, attr, _) in KEYS.items())
