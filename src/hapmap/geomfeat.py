"""Per-segment geometric features: footprint hull, area, p90 height, classes.

``footprint`` serves a whole frame in one call, and ``convex_hull_2d``
takes the hulls of all its segments at once: both monotone chains run as
vectorised elimination passes, a few per frame, though a cascade that
uncovers one point per pass needs O(n).  Its orientation test is exact:
a float filter with Shewchuk's error bound settles almost every turn, and
rationals the rest, so a hull never depends on how its turns were
ordered or on which other segments shared the batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

MM2_PER_M2 = 1e6


@dataclass(frozen=True)
class GeometryThresholds:
    """Upper bounds of classes 1 and 2 (class 3 is open-ended)."""

    height_low: float = 400.0    # mm
    height_high: float = 1000.0
    area_low: float = 0.25       # m²
    area_high: float = 1.0

    def __post_init__(self):
        if not 0 < self.height_low < self.height_high < np.inf:
            raise ValueError("height thresholds must be finite and strictly increasing")
        if not 0 < self.area_low < self.area_high < np.inf:
            raise ValueError("area thresholds must be finite and strictly increasing")


DEFAULT_THRESHOLDS = GeometryThresholds()


@dataclass(frozen=True)
class GeometricClass:
    height_class: int    # 1..3
    area_class: int      # 1..3
    height_mm: float


@dataclass
class Footprint:
    hull: np.ndarray          # (m, 2) counter-clockwise (x, z) hull of each
                              # image column's nearest and farthest point
    area_m2: float
    barycenter: np.ndarray    # (3,) centroid of the segment points, mm

    @property
    def degenerate(self) -> bool:
        """Fewer than 3 hull vertices: a point or a line, zero area."""
        return self.hull.shape[0] < 3


# Shewchuk's error bound for the float orientation l - r (DCG 1997): its
# sign is the exact sign when |l - r| >= (3 + 16 eps) eps (|l| + |r|).
# The bound leaves about eps**2 (|l| + |r|) of slack, which covers the
# rounding of an underflowed product while |l| + |r| >= 2**-900; below
# 2**900 nothing has overflowed.
EPS = 2.0 ** -53
ORIENT_BOUND = (3.0 + 16.0 * EPS) * EPS
BOUND_RANGE = (2.0 ** -900, 2.0 ** 900)
_FRACTION = np.frompyfunc(Fraction, 1, 1)


def _turns(x, z) -> np.ndarray:
    """Exact sign (-1, 0 or 1) of the turn at each interior point of the
    sequence (x, z): from point i - 1 through i to i + 1.

    The float cross product decides every turn whose sign the error bound
    makes certain.  Where |l| + |r| leaves BOUND_RANGE (a product may
    have underflowed or overflowed) only a product of a zero difference
    is certain, and every other turn is settled in rationals
    (``fractions.Fraction``), so a sign never depends on which triples
    were formed or in what order.
    """
    o, a, b = slice(0, -2), slice(1, -1), slice(2, None)
    ox, oz = x[o], z[o]
    ax, az = x[a] - ox, z[a] - oz
    bx, bz = x[b] - ox, z[b] - oz
    left, right = ax * bz, az * bx
    det = left - right
    size = np.abs(left) + np.abs(right)
    sign = np.sign(det)
    sure = np.abs(det) >= ORIENT_BOUND * size
    odd = np.flatnonzero(~((size >= BOUND_RANGE[0]) & (size <= BOUND_RANGE[1])))
    if odd.size:
        sign[odd] = 0.0
        sure[odd] = (((ax[odd] == 0) | (bz[odd] == 0))
                     & ((az[odd] == 0) | (bx[odd] == 0)))
    unsure = np.flatnonzero(~sure)
    if unsure.size:
        (ox, oz), (ax, az), (bx, bz) = (
            (_FRACTION(x[i][unsure]), _FRACTION(z[i][unsure])) for i in (o, a, b))
        exact = (ax - ox) * (bz - oz) - (az - oz) * (bx - ox)
        sign[unsure] = (exact > 0).astype(float) - (exact < 0).astype(float)
    return sign


def _lower_chains(x, z, ids) -> np.ndarray:
    """Ascending indices of the lower monotone chain of every id at once.

    The points are sorted by (id, x, z) with no repeats.  Each pass drops
    every interior point of an id that makes no left turn with its
    current neighbours in the id (no such point is a chain vertex), and
    passes repeat until none drops.  A cascade that uncovers one point
    per pass takes O(n) passes; the column ends of a segment take a few.
    """
    keep = np.arange(x.size)
    while keep.size > 2:
        group = ids[keep]
        drop = (_turns(x[keep], z[keep]) <= 0) & (group[:-2] == group[2:])
        if not drop.any():
            break
        alive = np.ones(keep.size, dtype=bool)
        alive[1:-1] = ~drop
        keep = keep[alive]
    return keep


def convex_hull_2d(points: np.ndarray, ids: np.ndarray) -> list[np.ndarray]:
    """Monotone-chain convex hull of each id's points, counter-clockwise,
    collinear-free; one (m, 2) hull per id from 0 to ids.max().

    Fewer than 3 distinct non-collinear points yield a degenerate result
    with fewer than 3 vertices, and an id without points an empty one.
    The points are sorted by (id, x, z) and repeats of the row before are
    dropped, keeping the first in input order.  Both chains of Andrew's
    monotone chain (IPL 1979) run as one batch of elimination passes
    (``_lower_chains``): the upper chain is the lower chain of the points
    turned through 180 degrees, which keeps every orientation.  The
    orientation test is exact, so each id's hull is the exact hull of its
    points, whatever else shares the batch.
    """
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    ids = np.asarray(ids)
    if ids.shape != (pts.shape[0],):
        raise ValueError("ids need one entry per point")
    k = int(ids.max(initial=-1)) + 1
    if k == 0:
        return []
    order = np.lexsort((pts[:, 1], pts[:, 0], ids))
    pts, ids = pts[order], ids[order]
    distinct = np.ones(ids.size, dtype=bool)
    distinct[1:] = (ids[1:] != ids[:-1]) | (pts[1:] != pts[:-1]).any(axis=1)
    pts, ids = pts[distinct], ids[distinct]
    n = ids.size
    # the points, then the same points turned and in reverse order: point
    # i comes back as 2n - 1 - i, and id g as id k + g
    group = np.concatenate([ids, ids[::-1] + k])
    keep = _lower_chains(np.concatenate([pts[:, 0], -pts[::-1, 0]]),
                         np.concatenate([pts[:, 1], -pts[::-1, 1]]), group)
    point = np.where(keep < n, keep, 2 * n - 1 - keep)
    # an id's hull: each chain but its last point, and a lone point once
    group = group[keep]
    change = group[1:] != group[:-1]
    last, first = np.append(change, True), np.insert(change, 0, True)
    point = point[~last | (first & (keep < n))]
    point = point[np.argsort(ids[point], kind="stable")]
    bounds = np.searchsorted(ids[point], np.arange(k + 1))
    hull = pts[point]
    return [hull[a:b] for a, b in zip(bounds[:-1], bounds[1:])]


def polygon_area(polygon: np.ndarray) -> float:
    """Shoelace area of a simple (x, z) polygon in mm, returned in m²."""
    poly = np.asarray(polygon, dtype=np.float64).reshape(-1, 2)
    if poly.shape[0] < 3:
        return 0.0
    ring = np.concatenate([poly, poly[:1]])
    x, z = ring[:-1, 0], ring[:-1, 1]
    twice = np.dot(x, ring[1:, 1]) - np.dot(z, ring[1:, 0])
    return abs(twice) / 2.0 / MM2_PER_M2


def height_p90(points: np.ndarray, ground_y: float) -> float:
    """Nearest-rank 90th percentile of heights above the ground elevation.

    The 1-based element ceil(0.9 * n) of the heights in ascending order
    is returned, which sheds the top decile of outliers; a partition
    finds it without sorting.
    """
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    if pts.shape[0] == 0:
        raise ValueError("empty segment")
    heights = pts[:, 1] - ground_y
    rank = int(np.ceil(0.9 * heights.size))
    return float(np.partition(heights, rank - 1)[rank - 1])


def classify_geometry(height_mm: float, area_m2: float,
                      thresholds: GeometryThresholds = DEFAULT_THRESHOLDS) -> GeometricClass:
    """Discrete height/area classes; lower bounds of classes 2 and 3 inclusive."""
    height_class = (1 if height_mm < thresholds.height_low
                    else 2 if height_mm < thresholds.height_high else 3)
    area_class = (1 if area_m2 < thresholds.area_low
                  else 2 if area_m2 < thresholds.area_high else 3)
    return GeometricClass(height_class=height_class, area_class=area_class,
                          height_mm=height_mm)


def footprint(cloud: np.ndarray, rows: np.ndarray, labels: np.ndarray,
              columns: np.ndarray) -> list[Footprint]:
    """Ground-plane footprint of every segment of a frame: the hull over
    (x, z) plus the centroid, one Footprint per id from 0 to k-1.

    rows, labels and columns follow ``segment.extract_segments``: the
    ascending cloud rows, the segment id of each (-1 for noise, dropped)
    and its image column.  The points of one column lie on one ray from
    the camera in (x, z), so only a segment's nearest and farthest points
    (least and greatest z) in each column can be hull vertices, and the
    hulls (``convex_hull_2d``) run on those alone; one pass over the key
    id * span + column finds them for every segment.  The centroid sums
    each coordinate over a segment's rows in ascending order, the order
    in which ``mean(axis=0)`` adds the rows of the segment's C-ordered
    (m, 3) points, so the two agree to the bit.  Without an image,
    np.arange(n) gives each row its own column and drops nothing.
    """
    rows, labels, columns = map(np.asarray, (rows, labels, columns))
    if not rows.shape == labels.shape == columns.shape == (rows.size,):
        raise ValueError("labels and columns need one entry per row")
    k = int(labels.max(initial=-1)) + 1
    if k == 0:
        return []
    if columns.min() < 0:
        raise ValueError("columns must be non-negative")
    # noise takes bin 0 and segment i bin i + 1
    ids = labels + 1
    count = np.bincount(ids, minlength=k + 1)[1:]
    if not count.all():
        raise ValueError("empty segment")
    z = cloud[:, 2][rows]
    sums = [np.bincount(ids, weights=cloud[:, c][rows] if c < 2 else z,
                        minlength=k + 1)[1:] for c in range(3)]
    centroids = np.column_stack(sums) / count[:, None]
    span = int(columns.max()) + 1
    key = ids                           # in place: id * span + column
    key *= span
    key += columns
    near = np.full((k + 1) * span, np.inf)
    far = np.full(near.size, -np.inf)
    np.minimum.at(near, key, z)
    np.maximum.at(far, key, z)
    ends = np.flatnonzero((z == near[key]) | (z == far[key]))
    ends = ends[labels[ends] >= 0]
    hulls = convex_hull_2d(np.column_stack([cloud[:, 0][rows[ends]], z[ends]]),
                           labels[ends])
    return [Footprint(hull=hull, area_m2=polygon_area(hull), barycenter=c)
            for hull, c in zip(hulls, centroids)]
