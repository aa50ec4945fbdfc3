"""Per-segment geometric features: footprint hull, area, p90 height, classes."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MM2_PER_M2 = 1e6


@dataclass(frozen=True)
class GeometryThresholds:
    """Upper bounds of classes 1 and 2 (class 3 is open-ended)."""

    height_mm: tuple[float, float] = (400.0, 1000.0)
    area_m2: tuple[float, float] = (0.25, 1.0)

    def __post_init__(self):
        if not 0 < self.height_mm[0] < self.height_mm[1] < np.inf:
            raise ValueError("height thresholds must be finite and strictly increasing")
        if not 0 < self.area_m2[0] < self.area_m2[1] < np.inf:
            raise ValueError("area thresholds must be finite and strictly increasing")


DEFAULT_THRESHOLDS = GeometryThresholds()


@dataclass(frozen=True)
class GeometricClass:
    height_class: int    # 1..3
    area_class: int      # 1..3
    height_mm: float
    area_m2: float


@dataclass
class Footprint:
    hull: np.ndarray          # (m, 2) counter-clockwise (x, z) hull of each
                              # image column's nearest and farthest point
    area_m2: float
    barycenter: np.ndarray    # (3,) centroid of the segment points, mm
    degenerate: bool


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def convex_hull_2d(points: np.ndarray) -> np.ndarray:
    """Monotone-chain convex hull, counter-clockwise, collinear-free.

    Fewer than 3 distinct non-collinear points yield a degenerate result
    with fewer than 3 vertices.  The points are sorted by (x, z) and
    repeats of the row before are dropped, keeping the first in input
    order; the chain runs over what remains.
    """
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]
    distinct = np.ones(pts.shape[0], dtype=bool)
    distinct[1:] = (pts[1:] != pts[:-1]).any(axis=1)
    pts = pts[distinct]
    if pts.shape[0] < 3:
        return pts
    # Python floats: the same IEEE double arithmetic, without the cost
    # of numpy scalars
    pts = pts.tolist()
    lower: list[list[float]] = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[list[float]] = []
    for p in pts[::-1]:
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return np.array(lower[:-1] + upper[:-1])


def polygon_area(polygon: np.ndarray) -> float:
    """Shoelace area of a simple (x, z) polygon in mm, returned in m²."""
    poly = np.asarray(polygon, dtype=np.float64).reshape(-1, 2)
    if poly.shape[0] < 3:
        return 0.0
    x, z = poly[:, 0], poly[:, 1]
    twice = np.dot(x, np.roll(z, -1)) - np.dot(z, np.roll(x, -1))
    return abs(twice) / 2.0 / MM2_PER_M2


def height_p90(points: np.ndarray, ground_y: float) -> float:
    """Nearest-rank 90th percentile of heights above the ground elevation.

    Heights are sorted ascending and the 1-based element ceil(0.9 * n) is
    returned, which sheds the top decile of outliers.
    """
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    if pts.shape[0] == 0:
        raise ValueError("empty segment")
    heights = np.sort(pts[:, 1] - ground_y)
    rank = int(np.ceil(0.9 * heights.size))
    return float(heights[rank - 1])


def classify_geometry(height_mm: float, area_m2: float,
                      thresholds: GeometryThresholds = DEFAULT_THRESHOLDS) -> GeometricClass:
    """Discrete height/area classes; lower bounds of classes 2 and 3 inclusive."""
    h1, h2 = thresholds.height_mm
    a1, a2 = thresholds.area_m2
    height_class = 1 if height_mm < h1 else (2 if height_mm < h2 else 3)
    area_class = 1 if area_m2 < a1 else (2 if area_m2 < a2 else 3)
    return GeometricClass(height_class=height_class, area_class=area_class,
                          height_mm=height_mm, area_m2=area_m2)


def footprint(points: np.ndarray, columns: np.ndarray) -> Footprint:
    """Ground-plane footprint of a segment: hull over (x, z) plus centroid.

    columns holds each point's image column.  The points of one column
    lie on one ray from the camera in (x, z), so only the column's
    nearest and farthest points (least and greatest z) can be hull
    vertices, and the chain runs on those alone.  Without an image,
    np.arange(n) gives each point its own column and drops nothing.
    """
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    columns = np.asarray(columns)
    if pts.shape[0] == 0:
        raise ValueError("empty segment")
    if columns.shape != (pts.shape[0],):
        raise ValueError("columns need one entry per point")
    if columns.min() < 0:
        raise ValueError("columns must be non-negative")
    z = pts[:, 2]
    near = np.full(columns.max() + 1, np.inf)
    far = np.full(near.size, -np.inf)
    np.minimum.at(near, columns, z)
    np.maximum.at(far, columns, z)
    ends = (z == near[columns]) | (z == far[columns])
    hull = convex_hull_2d(np.compress(ends, pts, axis=0)[:, [0, 2]])
    return Footprint(hull=hull,
                     area_m2=polygon_area(hull),
                     barycenter=pts.mean(axis=0),
                     degenerate=hull.shape[0] < 3)
