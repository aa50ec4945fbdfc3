"""Trapezoid pin-grid synthesis: the tactile rendering of the scene.

The synthesis area is a uniformly scaled top view of the camera's
ground-plane view field: a trapezoid whose small basis (the near depth
plane) spans ``small_basis`` pins, so world coordinates map through one
scale factor.  Pins take five levels: 0 holes, 1 ground, 2 object
footprints, and 2..4 for glyph dots driven by the object's height class.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .depthio import Intrinsics
from .labeling import GlyphSheet, ObjectDescriptor, builtin_sheet, label_level

INACTIVE = -1
ASCII_INACTIVE = "·"   # middle dot
#: emit's ascii characters by code, level - INACTIVE; "\n" maps to itself
_ASCII_CHARS = str.maketrans(
    {0: ASCII_INACTIVE, **{level + 1: str(level) for level in range(5)}})
#: height band of rasterize_raw, mm
RAW_BAND_MM = 500.0


class FrustumError(ValueError):
    pass


def _round_half_up(x):
    return np.floor(x + 0.5)


def _pin_index(f, n: int):
    """Round half up, then clamp into the n pins of a grid axis (clamping
    before the integer cast, so no float is too large to cast)."""
    return np.clip(_round_half_up(f), 0, n - 1).astype(np.int64)


@dataclass(frozen=True)
class AreaGeometry:
    """Mapping constants between the ground plane (mm) and the pin grid.

    half_tan is tan of half the horizontal field of view, width/(2 fx);
    the near-plane view-field width is d = 2 * near * half_tan and the
    grid scale is small_basis / d pins per millimeter.
    """

    near: float = 800.0
    far: float = 4000.0
    half_tan: float = 640.0 / (2.0 * 575.8)
    small_basis: int = 24
    rows: int = 96
    cols: int = 120

    def __post_init__(self):
        if not 0 < self.near < self.far:
            raise ValueError("need 0 < near < far")
        if self.half_tan <= 0:
            raise ValueError("field of view must be positive")
        if self.small_basis <= 0 or self.rows <= 0 or self.cols <= 0:
            raise ValueError("grid dimensions must be positive")
        if self.small_basis * self.far / self.near > self.cols:
            raise ValueError("far basis exceeds the grid width")
        if self.v_max > self.rows - 1:
            raise ValueError("depth extent exceeds the grid height")

    @property
    def near_width(self) -> float:
        """View-field width at the near plane, mm (the trapezoid small basis)."""
        return 2.0 * self.near * self.half_tan

    @property
    def scale(self) -> float:
        """Pins per millimeter."""
        return self.small_basis / self.near_width

    @property
    def v_max(self) -> int:
        """Pin row of the far plane, before any clamping into the grid."""
        return int(_round_half_up(self.scale * (self.far - self.near)))

    @classmethod
    def from_intrinsics(cls, k: Intrinsics, width: int, **area) -> "AreaGeometry":
        """The area seen by a camera of the given image width; other fields as given."""
        return cls(half_tan=width / (2.0 * k.fx), **area)


def map_continuous(x, z, g: AreaGeometry):
    """Unrounded pin coordinates: u centered on the grid, v measured from near."""
    return g.scale * x + g.cols / 2.0, g.scale * (z - g.near)


def map_to_pins(x, z, g: AreaGeometry):
    """The one ground-to-pin mapping, on scalars or arrays (mm): round half
    up, then clamp into the grid.  Callers decide what lies in the view field."""
    uf, vf = map_continuous(x, z, g)
    return _pin_index(uf, g.cols), _pin_index(vf, g.rows)


def map_to_area(x: float, z: float, g: AreaGeometry) -> tuple[int, int]:
    """Map a ground-plane point (mm) to its pin, rounding half up.

    Raises FrustumError for points outside the view field; results are
    clamped into the grid so frustum-edge points land on boundary pins.
    """
    tol = 1e-9 * max(abs(x), abs(z), 1.0)
    if not (g.near - tol <= z <= g.far + tol) or abs(x) > z * g.half_tan + tol:
        raise FrustumError("outside view field")
    u, v = map_to_pins(x, z, g)
    return int(u), int(v)


def barycenter_pin(obj: ObjectDescriptor, g: AreaGeometry) -> tuple[int, int]:
    """The pin of an object: its barycenter, clamped into the view field."""
    bx, _, bz = obj.footprint.barycenter
    return map_to_area(*clamp_into_frustum(bx, bz, g), g)


def trapezoid_mask(g: AreaGeometry) -> np.ndarray:
    """Active-pin mask: pins whose rounding pre-image meets the view field,
    i.e. each row v spans the pins of the view-field edges at its far depth.
    The edge points go through ``map_to_pins``, so an in-view point and the
    edge round through the same float product."""
    z_hi = np.minimum(g.far, g.near + (np.arange(g.v_max + 1) + 0.5) / g.scale)
    edge = z_hi * g.half_tan
    lo, _ = map_to_pins(-edge, z_hi, g)
    hi, _ = map_to_pins(edge, z_hi, g)
    col = np.arange(g.cols)
    mask = np.zeros((g.rows, g.cols), dtype=bool)
    mask[:g.v_max + 1] = (col >= lo[:, None]) & (col <= hi[:, None])
    return mask


@dataclass
class PinGrid:
    cells: np.ndarray   # (rows, cols) int8; -1 inactive, else level 0..4

    def __post_init__(self):
        cells = np.asarray(self.cells, dtype=np.int8)
        if cells.ndim != 2:
            raise ValueError("grid must be 2-D")
        if cells.size and (cells.min() < INACTIVE or cells.max() > 4):
            raise ValueError("pin levels must lie in -1..4")
        self.cells = cells

    @property
    def active(self) -> np.ndarray:
        return self.cells != INACTIVE

    @classmethod
    def empty(cls, g: AreaGeometry) -> "PinGrid":
        cells = np.full((g.rows, g.cols), INACTIVE, dtype=np.int8)
        cells[trapezoid_mask(g)] = 1   # ground level everywhere in view
        return cls(cells)

    def __eq__(self, other):
        return isinstance(other, PinGrid) and np.array_equal(self.cells, other.cells)


# ---------------------------------------------------------------------------
# Polygon helpers
# ---------------------------------------------------------------------------

def clip_polygon_to_frustum(poly: np.ndarray, g: AreaGeometry) -> np.ndarray:
    """Sutherland-Hodgman clip of an (x, z) polygon against the view field."""
    planes = (
        lambda p: p[1] - g.near,                    # z >= near
        lambda p: g.far - p[1],                     # z <= far
        lambda p: p[1] * g.half_tan - p[0],         # x <= z tan
        lambda p: p[1] * g.half_tan + p[0],         # x >= -z tan
    )
    pts = [np.asarray(p, dtype=np.float64) for p in np.asarray(poly).reshape(-1, 2)]
    for side in planes:
        if not pts:
            break
        out = []
        for i, cur in enumerate(pts):
            prev = pts[i - 1]
            f_cur, f_prev = side(cur), side(prev)
            if f_prev >= 0 and f_cur >= 0:
                out.append(cur)
            elif f_prev >= 0 or f_cur >= 0:
                t = f_prev / (f_prev - f_cur)
                out.append(prev + t * (cur - prev))
                if f_cur >= 0:
                    out.append(cur)
        pts = out
    return np.array(pts).reshape(-1, 2)


def _fill_polygon(cells: np.ndarray, active: np.ndarray, poly_uv: np.ndarray,
                  level: int, mode: str) -> None:
    """Scanline fill over pin centers; boundary pins included.

    Each pin row v in the polygon's extent intersects every edge at once
    in a (rows, edges) array: an edge that spans v gives its crossing u,
    a flat edge lying on v gives both its ends.  The row is filled from
    its lowest to its highest u, widened by 1e-9 against rounding.
    """
    if poly_uv.shape[0] < 3:
        return
    eps = 1e-9
    v_lo = max(int(math.ceil(poly_uv[:, 1].min() - eps)), 0)
    v_hi = min(int(math.floor(poly_uv[:, 1].max() + eps)), cells.shape[0] - 1)
    if v_lo > v_hi:
        return
    v = np.arange(v_lo, v_hi + 1, dtype=np.float64)[:, None]
    pu, pv = poly_uv[:, 0], poly_uv[:, 1]
    qu, qv = np.roll(pu, -1), np.roll(pv, -1)
    spans = (pv - v) * (qv - v) <= 0
    flat = pv == qv
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        u = pu + (v - pv) * (qu - pu) / (qv - pv)
    u_min = np.where(spans, np.where(flat, np.minimum(pu, qu), u), np.inf).min(axis=1)
    u_max = np.where(spans, np.where(flat, np.maximum(pu, qu), u), -np.inf).max(axis=1)
    lo = np.ceil(u_min - eps)[:, None]
    hi = np.floor(u_max + eps)[:, None]
    col = np.arange(cells.shape[1])
    block = cells[v_lo:v_hi + 1]
    inside = (col >= lo) & (col <= hi) & active[v_lo:v_hi + 1]
    fill = np.maximum(block, level) if mode == "max" else level
    block[...] = np.where(inside, fill, block)


def clamp_into_frustum(x: float, z: float, g: AreaGeometry) -> tuple[float, float]:
    z = min(max(z, g.near), g.far)
    lim = z * g.half_tan
    return min(max(x, -lim), lim), z


# ---------------------------------------------------------------------------
# Rasterization
# ---------------------------------------------------------------------------

def rasterize_scene(ground_holes, objects: list[ObjectDescriptor],
                    g: AreaGeometry, sheet: GlyphSheet | None = None) -> PinGrid:
    """Compose the tactile scene: ground 1, holes 0, footprints 2, glyphs 2..4.

    Hole footprints and object footprints are (x, z) polygons in mm;
    objects outside the view field are clipped.  Overlaps take the maximum
    level, so object order does not matter.  Objects with a gated-off
    class get their footprint only; accepted classes also stamp their
    glyph centered on the mapped barycenter, clipped at the trapezoid
    border rather than shifted.
    """
    if sheet is None:
        sheet = builtin_sheet()
    grid = PinGrid.empty(g)
    cells, active = grid.cells, grid.active

    def fill(poly, level, mode):
        x, z = clip_polygon_to_frustum(poly, g).T
        _fill_polygon(cells, active, np.column_stack(map_continuous(x, z, g)),
                      level, mode)

    for hole in ground_holes:
        fill(hole, 0, "set")

    for obj in objects:
        if not obj.footprint.degenerate:
            fill(obj.footprint.hull, 2, "max")
        if obj.label is None:
            continue
        glyph = sheet[obj.label]
        level = label_level(obj.geometry.height_class)
        u0, v0 = barycenter_pin(obj, g)
        r, c = np.nonzero(glyph.as_array())
        u = u0 + c - 2
        v = v0 + 2 - r      # glyph top row points away from the user
        on = (v >= 0) & (v < g.rows) & (u >= 0) & (u < g.cols)
        u, v = u[on], v[on]
        ok = active[v, u]
        cells[v[ok], u[ok]] = np.maximum(cells[v[ok], u[ok]], level)
    return grid


def rasterize_raw(cloud: np.ndarray, g: AreaGeometry,
                  ground_y: float) -> PinGrid:
    """Map raw points straight onto the grid, pin level from height bands.

    Heights above ground quantize into RAW_BAND_MM bands: the lowest band
    (ground) is level 1, and heights from 3 bands up all take level 4.
    Each pin keeps the maximum level of the points that land on it.
    Points outside the view field are dropped.
    """
    grid = PinGrid.empty(g)
    pts = np.asarray(cloud, dtype=np.float64).reshape(-1, 3)
    x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
    keep = (z >= g.near) & (z <= g.far) & (np.abs(x) <= z * g.half_tan)
    u, v = map_to_pins(x[keep], z[keep], g)
    h = np.maximum(y[keep] - ground_y, 0.0)
    level = 1 + np.minimum(np.floor(h / RAW_BAND_MM), 3).astype(np.int8)
    ok = grid.active[v, u]
    np.maximum.at(grid.cells, (v[ok], u[ok]), level[ok])
    return grid


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------

def emit(grid: PinGrid, format: str) -> bytes:
    """Serialize the grid: json round-trips, ascii for eyes, pgm for viewers.

    pgm bytes are 0 for inactive pins and 40 + 50 * level otherwise.
    """
    rows, cols = grid.cells.shape
    if format == "json":
        doc = {"rows": rows, "cols": cols,
               "cells": [int(c) for c in grid.cells.ravel()]}
        return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("ascii")
    if format == "ascii":
        codes = np.full((rows, cols + 1), ord("\n"), dtype=np.uint8)
        codes[:, :cols] = grid.cells - INACTIVE
        text = codes.tobytes().decode("latin-1").translate(_ASCII_CHARS)
        # a grid without rows still ends in one newline
        return (text or "\n").encode("utf-8")
    if format == "pgm":
        body = np.where(grid.cells == INACTIVE, 0,
                        40 + 50 * grid.cells.astype(np.int16)).astype(np.uint8)
        header = f"P5\n{cols} {rows}\n255\n".encode("ascii")
        return header + body.tobytes()
    raise ValueError(f"unknown format {format!r}")


def parse_grid_json(blob: bytes) -> PinGrid:
    doc = json.loads(blob.decode("utf-8"))
    cells = np.array(doc["cells"], dtype=np.int8).reshape(doc["rows"], doc["cols"])
    return PinGrid(cells)
