"""Trapezoid pin-grid synthesis: the tactile rendering of the scene.

The synthesis area is a uniformly scaled top view of the camera's
ground-plane view field: a trapezoid whose small basis (the near depth
plane) spans ``small_basis`` pins, so world coordinates map through one
scale factor.  Every pin level is decided here: 0 holes, 1 ground, 2 object
footprints, 2..4 glyph dots (``label_level``) and the raw height bands.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .depthio import Intrinsics, pgm_bytes
from .labeling import GlyphSheet, ObjectDescriptor, builtin_sheet

INACTIVE = -1
ASCII_INACTIVE = "·"   # middle dot
#: emit's ascii characters by code, level - INACTIVE; "\n" maps to itself
_ASCII_CHARS = str.maketrans(
    {0: ASCII_INACTIVE, **{level + 1: str(level) for level in range(5)}})
#: height band of rasterize_raw, mm
RAW_BAND_MM = 500.0


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
    """Unrounded pin coordinates: v from near, u from the grid's left edge
    with x = 0 at u = cols / 2.  So with an even cols, x = 0 has cols/2 pins
    to its left and cols/2 - 1 to its right, pin u mirrors to cols - u, and
    pin 0 has no mirror partner."""
    return g.scale * x + g.cols / 2.0, g.scale * (z - g.near)


def map_to_pins(x, z, g: AreaGeometry):
    """The one ground-to-pin mapping, on scalars or arrays (mm): round half
    up, then clamp into the grid.  Callers decide what lies in the view field."""
    uf, vf = map_continuous(x, z, g)
    return _pin_index(uf, g.cols), _pin_index(vf, g.rows)


def map_to_area(x: float, z: float, g: AreaGeometry) -> tuple[int, int]:
    """The pin of one ground-plane point (mm) as ints, by ``map_to_pins``."""
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
        cells = np.asarray(self.cells)
        if cells.ndim != 2:
            raise ValueError("grid must be 2-D")
        # checked before the cast, which would wrap 257 to 1 and cut 1.7 to 1
        if cells.dtype.kind not in "biuf" or cells.size and not (
                INACTIVE <= cells.min() and cells.max() <= 4
                and np.array_equal(cells, cells.astype(np.int8))):
            raise ValueError("pin levels must be whole numbers in -1..4")
        self.cells = cells.astype(np.int8, copy=False)

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
                  level: int) -> None:
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
    block[...] = np.where(inside, level, block)


def _raise_pins(cells: np.ndarray, active: np.ndarray, v, u, level) -> None:
    """Raise the active, in-grid pins (v, u) to at least level, a scalar
    or one level per pin; a pin listed twice keeps the higher level."""
    on = (v >= 0) & (v < cells.shape[0]) & (u >= 0) & (u < cells.shape[1])
    on[on] = active[v[on], u[on]]
    np.maximum.at(cells, (v[on], u[on]), np.broadcast_to(level, on.shape)[on])


def clamp_into_frustum(x: float, z: float, g: AreaGeometry) -> tuple[float, float]:
    z = min(max(z, g.near), g.far)
    lim = z * g.half_tan
    return min(max(x, -lim), lim), z


# ---------------------------------------------------------------------------
# Rasterization
# ---------------------------------------------------------------------------

def label_level(height_class: int) -> int:
    """Pin level carrying the glyph: height class 1/2/3 to level 2/3/4."""
    if height_class not in (1, 2, 3):
        raise ValueError("height class must be 1, 2 or 3")
    return 1 + height_class


def rasterize_scene(ground_holes, objects: list[ObjectDescriptor],
                    g: AreaGeometry, sheet: GlyphSheet | None = None) -> PinGrid:
    """Compose the tactile scene in level order on ground 1: holes 0, then
    non-degenerate footprints 2, then glyphs raised to their label_level.

    Hole footprints and object footprints are (x, z) polygons in mm;
    objects outside the view field are clipped.  Object order does not
    matter.  Objects with a gated-off class get their footprint only;
    accepted classes also stamp their glyph centered on the mapped
    barycenter, clipped at the trapezoid border rather than shifted.
    """
    if sheet is None:
        sheet = builtin_sheet()
    grid = PinGrid.empty(g)
    cells, active = grid.cells, grid.active

    def fill(poly, level):
        x, z = clip_polygon_to_frustum(poly, g).T
        _fill_polygon(cells, active, np.column_stack(map_continuous(x, z, g)),
                      level)

    for hole in ground_holes:
        fill(hole, 0)
    for obj in objects:
        if not obj.footprint.degenerate:
            fill(obj.footprint.hull, 2)
    for obj in objects:
        if obj.label is None:
            continue
        u0, v0 = barycenter_pin(obj, g)
        r, c = np.nonzero(sheet[obj.label].as_array())
        # glyph top row points away from the user
        _raise_pins(cells, active, v0 + 2 - r, u0 + c - 2,
                    label_level(obj.geometry.height_class))
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
    _raise_pins(grid.cells, grid.active, v, u, level)
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
        body = np.where(grid.cells == INACTIVE, 0, 40 + 50 * grid.cells.astype(np.int16))
        return pgm_bytes(body.astype(np.uint8))
    raise ValueError(f"unknown format {format!r}")
