"""Pipeline configuration: a flat key-value file with section prefixes.

Every tunable constant of the pipeline appears here with its default, so
``format_config(PipelineConfig())`` doubles as the reference config file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .dcgd import DcgdParams
from .depthio import key_value_lines
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


#: config keys, each with the PipelineConfig field it sets and its type
SCALAR_KEYS = {
    "intrinsics.path": ("intrinsics_path", str),
    "segment.link_mm": ("segment_link_mm", float),
    "segment.min_px": ("segment_min_px", int),
    "model.path": ("model_path", str),
    "classifier.threshold": ("confidence_threshold", float),
    "grid.small_basis": ("grid_small_basis", int),
    "grid.rows": ("grid_rows", int),
    "grid.cols": ("grid_cols", int),
    "glyphs.path": ("glyphs_path", str),
    "output.format": ("output_format", str),
    "seed": ("seed", int),
}
#: float keys of the nested DcgdParams
DCGD_KEYS = {"dcgd.z0": "z0", "dcgd.zf": "zf", "dcgd.dz": "dz",
             "dcgd.baseline_tol": "baseline_tol",
             "dcgd.include_tol": "include_tol"}
#: float keys of the nested GeometryThresholds: (pair field, index)
THRESHOLD_KEYS = {"geometry.height_low": ("height_mm", 0),
                  "geometry.height_high": ("height_mm", 1),
                  "geometry.area_low": ("area_m2", 0),
                  "geometry.area_high": ("area_m2", 1)}


def parse_config(text: str) -> PipelineConfig:
    """Parse `section.key=value` lines; '#' starts a comment; unknown keys fail."""
    cfg = PipelineConfig()
    dcgd_kw = {}
    thr_kw: dict = {}
    updates: dict = {}
    for lineno, key, value in key_value_lines(text, "config"):
        if key in SCALAR_KEYS:
            attr, conv = SCALAR_KEYS[key]
            updates[attr] = conv(value)
        elif key in DCGD_KEYS:
            dcgd_kw[DCGD_KEYS[key]] = float(value)
        elif key in THRESHOLD_KEYS:
            field_name, idx = THRESHOLD_KEYS[key]
            pair = list(thr_kw.get(field_name,
                                   getattr(cfg.thresholds, field_name)))
            pair[idx] = float(value)
            thr_kw[field_name] = tuple(pair)
        else:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")

    if dcgd_kw:
        updates["dcgd"] = replace(cfg.dcgd, **dcgd_kw)
    if thr_kw:
        updates["thresholds"] = replace(cfg.thresholds, **thr_kw)
    return replace(cfg, **updates)


def format_config(cfg: PipelineConfig) -> str:
    """Every key with its value, one per line; parse_config reads it back."""
    lines = [f"{key}={getattr(cfg, attr)}"
             for key, (attr, _) in SCALAR_KEYS.items()]
    lines += [f"{key}={getattr(cfg.dcgd, attr)}"
              for key, attr in DCGD_KEYS.items()]
    lines += [f"{key}={getattr(cfg.thresholds, name)[idx]}"
              for key, (name, idx) in THRESHOLD_KEYS.items()]
    return "\n".join(lines) + "\n"
