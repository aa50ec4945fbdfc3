"""hapmap: single depth image to tactile pin-grid scene synthesis."""

from .config import PipelineConfig, format_config, parse_config
from .depthio import (DEFAULT_INTRINSICS, DepthFrame, Intrinsics, backproject,
                      load_depth_pgm)
from .pipeline import PipelineResult, StageError, run_pipeline

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_INTRINSICS", "DepthFrame", "Intrinsics", "PipelineConfig",
    "PipelineResult", "StageError", "backproject", "format_config",
    "load_depth_pgm", "parse_config", "run_pipeline",
    "__version__",
]
