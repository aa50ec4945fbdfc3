"""End-to-end orchestration: depth frame in, tactile pin grid plus report out."""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace
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
            f"{desc.footprint.area_m2:.4f}",
            str(g.height_class),
            str(g.area_class),
            f"{u},{v}",
        ]))
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class SceneAnalysis:
    """One frame's front end, read by run_pipeline and the stage subcommands.

    ``cloud`` row i is pixel ``frame.pixels[i]``, and every other array
    indexes those rows: a segment is a set of them, so ``cloud[s.rows]``
    are its points and ``frame.pixels[s.rows]`` its pixels.  Each segment
    has one label-free object record, ``objects[i]`` for ``segments[i]``:
    its footprint and geometric classes.
    """

    frame: depthio.DepthFrame                   # the band frame: the pixels
                                                # some depth cut reaches
    on_ground: np.ndarray                       # ground flag per cloud row
    ground_y: float                             # ground elevation, mm
    cloud: np.ndarray                           # the band frame's points
    occupied: np.ndarray                        # ascending occupied rows
    labels: np.ndarray                          # segment id per occupied
                                                # row, -1 for noise
    segments: list[seg.Segment]
    objects: list[ObjectDescriptor]             # one per segment, no label


def camera_intrinsics(config: PipelineConfig) -> depthio.Intrinsics:
    """The configured intrinsics file, else DEFAULT_INTRINSICS."""
    if config.intrinsics_path:
        return depthio.load_intrinsics(Path(config.intrinsics_path).read_text())
    return depthio.DEFAULT_INTRINSICS


def analyze_scene(config: PipelineConfig, frame: depthio.DepthFrame,
                  k: depthio.Intrinsics) -> SceneAnalysis:
    """Ground, occupied-space segments and their geometric features.

    The depth cuts cover the whole band, so an in-band point implies
    detected ground; ground_y is 0 only when the band is empty.  Every
    stage reads the band frame (``dcgd.band_frame``), and pixels outside
    it are never back-projected: the cloud and the ground flags are
    row-aligned with its pixel index, and the segments are sets of those
    rows.
    """
    with _stage("dcgd"):
        band = dcgd.band_frame(frame, k.depth_scale, config.dcgd)
        cloud = depthio.backproject(band, k)
        on_ground = dcgd.detect_ground(band, cloud, config.dcgd)

    with _stage("segment"):
        near, far = config.dcgd.z0, config.dcgd.zf
        in_band = (cloud[:, 2] >= near) & (cloud[:, 2] <= far)
        ground_y = (dcgd.ground_elevation(cloud, on_ground)
                    if on_ground.any() else 0.0)
        occupied = np.flatnonzero(in_band & ~on_ground)
        labels = seg.image_segments(band, cloud, occupied,
                                    config.segment_link_mm,
                                    config.segment_min_px)

    with _stage("features"):
        # footprint's frame-wide temporaries are freed before the
        # segments' points are gathered, so they add nothing to the
        # frame's peak memory
        footprints = geomfeat.footprint(cloud, occupied, labels,
                                        band.pixels[occupied] % band.width)
        segments = seg.extract_segments(cloud, occupied, labels)
        objects = []
        for s, fp in zip(segments, footprints):
            geom = geomfeat.classify_geometry(
                geomfeat.height_p90(s.points, ground_y), fp.area_m2,
                config.thresholds)
            objects.append(ObjectDescriptor(s.id, fp, geom))

    return SceneAnalysis(frame=band, on_ground=on_ground, ground_y=ground_y,
                         cloud=cloud, occupied=occupied, labels=labels,
                         segments=segments, objects=objects)


def analyze_depth_file(config: PipelineConfig, depth_path: str | Path
                       ) -> tuple[SceneAnalysis, AreaGeometry]:
    """(scene analysis, synthesis area) of one depth file; the area is
    built right after the frame loads, so a band that does not fit the
    grid fails before analysis."""
    with _stage("depthio"):
        frame = depthio.load_depth_pgm(Path(depth_path).read_bytes())
        k = camera_intrinsics(config)
    with _stage("synthgrid"):
        geometry = AreaGeometry.from_intrinsics(
            k, frame.width, near=config.dcgd.z0, far=config.dcgd.zf,
            small_basis=config.grid_small_basis, rows=config.grid_rows,
            cols=config.grid_cols)
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
    The model and glyph sheet load first, so a bad one fails before any
    frame work.  Given identical config and inputs the result is byte-stable.
    """
    model, labeling_class = load_classifier(config)
    with _stage("synthgrid"):
        sheet = (parse_glyph_sheet(Path(config.glyphs_path).read_text())
                 if config.glyphs_path else builtin_sheet())
    scene, geometry = analyze_depth_file(config, depth_path)

    descriptors = []
    with _stage("classifier"):
        for s, obj in zip(scene.segments, scene.objects):
            if model is not None:
                rng = np.random.default_rng([config.seed, s.id])
                pred = clf.predict_gated(model, s.points,
                                         config.confidence_threshold, rng)
                label = None
                if pred.accepted:
                    label = labeling_class[pred.label]
                    if label == "stairs":
                        direction = stairs_direction(s.points, scene.ground_y)
                        label = f"stairs_{direction}"
                obj = replace(obj, label=label, confidence=pred.confidence)
            descriptors.append(obj)

    with _stage("synthgrid"):
        grid = rasterize_scene([], descriptors, geometry, sheet)
        pins = [barycenter_pin(desc, geometry) for desc in descriptors]
        emitted = emit(grid, config.output_format)

    return PipelineResult(grid=grid, emitted=emitted,
                          report=format_report(descriptors, pins),
                          descriptors=descriptors, pins=pins)
