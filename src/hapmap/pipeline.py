"""End-to-end orchestration: depth frame in, tactile pin grid plus report out."""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import classifier as clf
from . import dcgd, depthio, geomfeat, segment as seg
from .config import PipelineConfig
from .labeling import ObjectDescriptor, parse_glyph_sheet, builtin_sheet, stairs_direction
from .synthgrid import AreaGeometry, PinGrid, barycenter_pin, emit, rasterize_scene

REPORT_HEADER = "# segment\tclass\theight_mm\tarea_m2\theight_class\tarea_class\tpin"


class StageError(RuntimeError):
    """Wraps a failure with the pipeline stage it happened in."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage}: {cause}")
        self.stage = stage
        self.cause = cause


@contextmanager
def _stage(name: str):
    try:
        yield
    except StageError:
        raise
    except Exception as exc:
        raise StageError(name, exc) from exc


@dataclass
class PipelineResult:
    grid: PinGrid
    emitted: bytes
    report: str
    descriptors: list[ObjectDescriptor]
    pins: list[tuple[int, int]]


def _class_cell(desc: ObjectDescriptor) -> str:
    if desc.label is not None:
        return desc.label
    if desc.confidence is not None:
        return f"rejected(p={desc.confidence:.2f})"
    return "none"


def format_report(descriptors, pins) -> str:
    lines = [REPORT_HEADER]
    for desc, (u, v) in zip(descriptors, pins):
        g = desc.geometry
        lines.append("\t".join([
            str(desc.segment_id),
            _class_cell(desc),
            f"{g.height_mm:.1f}",
            f"{g.area_m2:.4f}",
            str(g.height_class),
            str(g.area_class),
            f"{u},{v}",
        ]))
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class SceneAnalysis:
    """One frame's front end, read by run_pipeline and the stage subcommands."""

    on_ground: np.ndarray                       # ground flag per cloud row
    ground_y: float                             # ground elevation, mm
    cloud: np.ndarray                           # row i: pixel frame.pixels[i]
    points: np.ndarray                          # occupied cloud rows
    segmentation: seg.Segmentation              # one label per occupied row
    segments: list[seg.Segment]
    footprints: list[geomfeat.Footprint]        # one per segment
    geometries: list[geomfeat.GeometricClass]   # one per segment


def camera_intrinsics(config: PipelineConfig) -> depthio.Intrinsics:
    """The configured intrinsics file, else DEFAULT_INTRINSICS."""
    if config.intrinsics_path:
        return depthio.load_intrinsics(Path(config.intrinsics_path).read_text())
    return depthio.DEFAULT_INTRINSICS


def area_geometry(config: PipelineConfig, k: depthio.Intrinsics,
                  width: int) -> AreaGeometry:
    """The configured synthesis area for a camera of the given image width.

    Built under the synthgrid stage right after the inputs load, so a band
    or grid that cannot fit fails before any frame analysis runs.
    """
    with _stage("synthgrid"):
        return AreaGeometry.from_intrinsics(
            k, width, near=config.dcgd.z0, far=config.dcgd.zf,
            small_basis=config.grid_small_basis, rows=config.grid_rows,
            cols=config.grid_cols)


def load_inputs(config: PipelineConfig, depth_path: str | Path):
    """(frame, intrinsics) for one depth file, under the depthio stage."""
    with _stage("depthio"):
        frame = depthio.load_depth_pgm(Path(depth_path).read_bytes())
        return frame, camera_intrinsics(config)


def backproject_ground(config: PipelineConfig, frame: depthio.DepthFrame,
                       k: depthio.Intrinsics) -> tuple[np.ndarray, np.ndarray]:
    """(cloud, on_ground) under the dcgd stage: the frame's one
    back-projection and DCGD's ground flag for each of its points."""
    with _stage("dcgd"):
        cloud = depthio.backproject(frame, k)
        return cloud, dcgd.detect_ground(frame, cloud, config.dcgd)


def analyze_scene(config: PipelineConfig, frame: depthio.DepthFrame,
                  k: depthio.Intrinsics) -> SceneAnalysis:
    """Ground, occupied-space segments and their geometric features.

    The depth cuts cover the whole band, so an in-band point implies
    detected ground; ground_y is 0 only when the band is empty.
    """
    cloud, on_ground = backproject_ground(config, frame, k)

    with _stage("segment"):
        near, far = config.dcgd.z0, config.dcgd.zf
        in_band = (cloud[:, 2] >= near) & (cloud[:, 2] <= far)
        ground_y = (dcgd.ground_elevation(cloud, on_ground)
                    if on_ground.any() else 0.0)
        occupied = in_band & ~on_ground
        points = np.compress(occupied, cloud, axis=0)   # cloud[occupied], faster
        labels = seg.image_segments(frame, cloud, occupied,
                                    config.segment_link_mm,
                                    config.segment_min_px)
        segments = seg.extract_segments(
            points, np.compress(occupied, frame.pixels), labels)

    with _stage("features"):
        footprints = [geomfeat.footprint(s.points, s.pixels % frame.width)
                      for s in segments]
        geometries = [
            geomfeat.classify_geometry(
                geomfeat.height_p90(s.points, ground_y),
                fp.area_m2, config.thresholds)
            for s, fp in zip(segments, footprints)
        ]

    return SceneAnalysis(on_ground=on_ground, ground_y=ground_y, cloud=cloud,
                         points=points, segmentation=labels, segments=segments,
                         footprints=footprints, geometries=geometries)


def analyze_depth_file(config: PipelineConfig, depth_path: str | Path
                       ) -> tuple[SceneAnalysis, AreaGeometry]:
    """(scene analysis, synthesis area) of one depth file; the area comes
    first, so a band that does not fit the grid fails before analysis."""
    frame, k = load_inputs(config, depth_path)
    geometry = area_geometry(config, k, frame.width)
    return analyze_scene(config, frame, k), geometry


def load_classifier(config: PipelineConfig
                    ) -> tuple[clf.PointSetModel | None, dict[str, str]]:
    """(model, labeling class of each model class) under the classifier
    stage; (None, {}) without a model file.

    A missing or corrupt file, or a class without a labeling class,
    fails here, not at the first accepted segment.
    """
    if not config.model_path:
        return None, {}
    with _stage("classifier"):
        model = clf.load_model(Path(config.model_path).read_bytes())
        return model, {c: clf.to_labeling_class(c) for c in model.classes}


def run_pipeline(config: PipelineConfig, depth_path: str | Path) -> PipelineResult:
    """Run every stage on one depth frame.

    Without a model file the pipeline degrades to geometry-only output:
    every object keeps its footprint and geometric classes, no glyphs.
    The model loads first, so a bad one fails before any frame work.
    Given identical config and inputs the result is byte-stable.
    """
    model, labeling_class = load_classifier(config)
    scene, geometry = analyze_depth_file(config, depth_path)

    descriptors: list[ObjectDescriptor] = []
    with _stage("classifier"):
        for s, fp, geom in zip(scene.segments, scene.footprints,
                               scene.geometries):
            label = None
            confidence = None
            if model is not None:
                rng = np.random.default_rng([config.seed, s.id])
                pred = clf.predict_gated(model, s.points,
                                         config.confidence_threshold, rng)
                confidence = pred.confidence
                if pred.accepted:
                    label = labeling_class[pred.label]
                    if label == "stairs":
                        direction = stairs_direction(s.points, scene.ground_y)
                        label = f"stairs_{direction}"
            descriptors.append(ObjectDescriptor(
                segment_id=s.id, footprint=fp, geometry=geom,
                label=label, confidence=confidence))

    with _stage("synthgrid"):
        sheet = builtin_sheet()
        if config.glyphs_path:
            sheet = parse_glyph_sheet(Path(config.glyphs_path).read_text())
        grid = rasterize_scene([], descriptors, geometry, sheet)
        pins = [barycenter_pin(desc, geometry) for desc in descriptors]
        emitted = emit(grid, config.output_format)

    return PipelineResult(grid=grid, emitted=emitted,
                          report=format_report(descriptors, pins),
                          descriptors=descriptors, pins=pins)
