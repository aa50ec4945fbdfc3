"""Synthetic depth-camera simulator: floor-plus-boxes scenes with ground truth.

Renders depth frames by per-pixel ray casting against a horizontal floor
plane and axis-aligned boxes resting on it, and produces the matching
per-pixel ground-truth masks.  Also provides parametric point-cloud
generators for the desk-scale classifier dataset.

Scene frame == camera frame: the camera sits at the origin at
``camera_height`` mm above the floor, optical axis horizontal along +z,
y up.  The floor is the plane y = -camera_height.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields as dataclass_fields
from functools import partial

import numpy as np

from .depthio import DepthFrame, Intrinsics, key_value_lines, parse_value


def _require_finite(spec) -> None:
    """ValueError naming the first float field of spec that is nan or inf."""
    for f in dataclass_fields(spec):
        if f.type == "float" and not math.isfinite(getattr(spec, f.name)):
            raise ValueError(f"{type(spec).__name__}.{f.name} must be finite")


def _rectangle(center_x: float, center_z: float, width: float,
               depth: float) -> np.ndarray:
    """Counter-clockwise (x, z) corners of a floor-plane rectangle."""
    hw, hd = width / 2, depth / 2
    return np.array([
        [center_x - hw, center_z - hd],
        [center_x + hw, center_z - hd],
        [center_x + hw, center_z + hd],
        [center_x - hw, center_z + hd],
    ])


@dataclass(frozen=True)
class BoxSpec:
    """Axis-aligned box resting on the floor (dimensions in mm)."""

    center_x: float
    center_z: float
    width: float
    depth: float
    height: float
    fine_class: str = "box"

    def __post_init__(self):
        _require_finite(self)
        if min(self.width, self.depth, self.height) <= 0:
            raise ValueError("box dimensions must be positive")

    @property
    def footprint(self) -> np.ndarray:
        """Counter-clockwise (x, z) rectangle corners."""
        return _rectangle(self.center_x, self.center_z, self.width, self.depth)


@dataclass(frozen=True)
class HoleSpec:
    """Floor rectangle that returns nothing (sensor hole)."""

    center_x: float
    center_z: float
    width: float
    depth: float

    def __post_init__(self):
        _require_finite(self)
        if min(self.width, self.depth) <= 0:
            raise ValueError("hole dimensions must be positive")

    @property
    def footprint(self) -> np.ndarray:
        """Counter-clockwise (x, z) rectangle corners."""
        return _rectangle(self.center_x, self.center_z, self.width, self.depth)


#: range test and error of each scalar field of SceneSpec
_SCENE_RANGES = {
    "camera_height": (lambda v: v > 0, "camera must sit above the floor"),
    "floor_extent": (lambda v: v > 0, "scene needs a floor"),
    "noise_sigma": (lambda v: v >= 0, "noise sigma must be non-negative"),
    "seed": (lambda v: v >= 0, "seed must be non-negative"),
}


def _check_scene_scalar(name: str, value: float) -> None:
    """ValueError unless value is finite and in range for SceneSpec.name."""
    if not math.isfinite(value):
        raise ValueError(f"SceneSpec.{name} must be finite")
    in_range, message = _SCENE_RANGES[name]
    if not in_range(value):
        raise ValueError(message)


def _on_floor(rect: BoxSpec | HoleSpec, floor_extent: float):
    """rect itself; ValueError if the box or hole leaves the floor."""
    if (abs(rect.center_x) + rect.width / 2 > floor_extent / 2
            or rect.center_z - rect.depth / 2 < 0
            or rect.center_z + rect.depth / 2 > floor_extent):
        kind = "box" if isinstance(rect, BoxSpec) else "hole"
        raise ValueError(f"{kind} at ({rect.center_x}, {rect.center_z}) "
                         "lies outside the floor extent")
    return rect


@dataclass
class SceneSpec:
    camera_height: float
    floor_extent: float = 8000.0
    noise_sigma: float = 0.0
    boxes: list[BoxSpec] = field(default_factory=list)
    holes: list[HoleSpec] = field(default_factory=list)
    seed: int = 0

    def __post_init__(self):
        for name in _SCENE_RANGES:
            _check_scene_scalar(name, getattr(self, name))
        for rect in self.boxes + self.holes:
            _on_floor(rect, self.floor_extent)


@dataclass
class GroundTruth:
    ground_mask: np.ndarray                # (h, w) bool, noiseless classification
    object_masks: list[np.ndarray]         # one (h, w) bool per box


def render_depth(spec: SceneSpec, k: Intrinsics, width: int = 640,
                 height: int = 480) -> tuple[DepthFrame, GroundTruth]:
    """Ray-cast the scene into a depth frame plus ground-truth masks.

    Depth is the z coordinate of the nearest hit (z-depth, not ray length),
    recorded when it falls in [1, 2^16) mm.  Gaussian noise of
    spec.noise_sigma, drawn from spec.seed, is added to hit depths and
    clamped at 0; masks always come from the noiseless hit classification.
    Floor pixels inside a hole rectangle return 0.  Each primitive is cast
    only where it can be seen: the floor's depth is one t per row, a box is
    cast on the window of columns and rows whose own slab interval meets
    its z slab (every ray that hits the box passes both), a hole on the
    rows its floor depth spans.
    """
    if not (0 <= k.cx < width and 0 <= k.cy < height):
        raise ValueError("principal point lies outside the image")
    cam_h = spec.camera_height

    dx = (np.arange(width, dtype=np.float64) - k.cx) / k.fx    # per column
    dy = (k.cy - np.arange(height, dtype=np.float64)) / k.fy   # per row, y up

    # Ray p(t) = t * (dx, dy, 1): t is the z-depth of the point directly.
    best_t = np.full((height, width), np.inf)
    # hit ids: -1 none, 0 floor, 1 + i for box i
    hit_id = np.full((height, width), -1, dtype=np.int32)

    # x = dx * t only where t is finite: no 0 * inf at a whole-pixel cx
    with np.errstate(divide="ignore"):
        t_row = np.where(dy < 0, -cam_h / dy, np.inf)
    rows = np.flatnonzero((t_row > 0) & (t_row <= spec.floor_extent))
    t = t_row[rows, None]
    on_floor = np.abs(dx * t) <= spec.floor_extent / 2
    best_t[rows] = np.where(on_floor, t, np.inf)
    hit_id[rows] = np.where(on_floor, 0, -1)

    for i, box in enumerate(spec.boxes):
        # slab test (Kay & Kajiya, SIGGRAPH 1986): t intervals per column (x)
        # and row (y), each cut to the z slab and t >= 0 (dz == 1)
        lo = (box.center_x - box.width / 2, -cam_h,
              max(0.0, box.center_z - box.depth / 2))
        hi = (box.center_x + box.width / 2, -cam_h + box.height,
              box.center_z + box.depth / 2)
        near, far = [], []
        for axis, d in ((0, dx), (1, dy)):
            with np.errstate(divide="ignore", invalid="ignore"):
                t1 = lo[axis] / d
                t2 = hi[axis] / d
            parallel = np.abs(d) < 1e-12
            inside = lo[axis] <= 0 <= hi[axis]
            near.append(np.maximum(np.where(parallel, 0.0 if inside else np.inf,
                                            np.minimum(t1, t2)), lo[2]))
            far.append(np.minimum(np.where(parallel, np.inf if inside else -np.inf,
                                           np.maximum(t1, t2)), hi[2]))
        cols, rows = (np.flatnonzero(n <= f) for n, f in zip(near, far))
        if not (cols.size and rows.size):
            continue
        cols, rows = slice(cols[0], cols[-1] + 1), slice(rows[0], rows[-1] + 1)
        tmin = np.maximum(near[0][cols], near[1][rows, None])
        tmax = np.minimum(far[0][cols], far[1][rows, None])
        window_t = best_t[rows, cols]
        better = (tmax >= tmin) & (tmin > 0) & (tmin < window_t)
        window_t[better] = tmin[better]
        hit_id[rows, cols][better] = i + 1

    in_range = np.isfinite(best_t) & (best_t >= 1) & (best_t < 2**16)
    hit_id = np.where(in_range, hit_id, -1)

    # Holes knock out floor returns but do not reclassify them as objects.
    hole_mask = np.zeros((height, width), dtype=bool)
    for hole in spec.holes:
        rows = np.flatnonzero(np.abs(t_row - hole.center_z) <= hole.depth / 2)
        inside = np.abs(dx * t_row[rows, None] - hole.center_x) <= hole.width / 2
        hole_mask[rows] |= (hit_id[rows] == 0) & inside

    # one frame-sized float array, updated in place
    hit = hit_id >= 0
    depth = np.where(hit, best_t, 0.0)
    if spec.noise_sigma > 0:
        depth += np.random.default_rng(spec.seed).normal(
            0.0, spec.noise_sigma, size=depth.shape)
        np.maximum(depth, 0.0, out=depth)
        depth[~hit] = 0.0
    depth[hole_mask] = 0.0
    np.rint(depth, out=depth)
    raw = np.clip(depth, 0, 65535, out=depth).astype(np.uint16)

    truth = GroundTruth(
        ground_mask=(hit_id == 0) & ~hole_mask,
        object_masks=[hit_id == i + 1 for i in range(len(spec.boxes))],
    )
    return DepthFrame(raw), truth


# ---------------------------------------------------------------------------
# Scene spec text format
# ---------------------------------------------------------------------------

#: the repeatable scene keys: the SceneSpec list each fills and its type
_RECTS = {"box": ("boxes", BoxSpec), "hole": ("holes", HoleSpec)}
#: scene file keys and the number of fields each takes
_SCENE_FIELDS = {**dict.fromkeys(_SCENE_RANGES, 1),
                 **{key: len(dataclass_fields(cls))
                    for key, (_, cls) in _RECTS.items()}}


def _scene_value(key: str, fields: list[str]):
    """The value of one scene line: a BoxSpec, a HoleSpec or a checked scalar."""
    if key in _RECTS:
        cls = _RECTS[key][1]
        return cls(*(float(v) if f.type == "float" else v
                     for f, v in zip(dataclass_fields(cls), fields)))
    value = (int if key == "seed" else float)(fields[0])
    _check_scene_scalar(key, value)
    return value


def parse_scene_spec(text: str) -> SceneSpec:
    """Parse the flat scene file: key=value lines, repeated box=/hole= entries.

    box  = center_x center_z width depth height fine_class
    hole = center_x center_z width depth
    Fields may be separated by spaces or commas; '#' starts a comment.  An
    invalid value names its line and key.
    """
    kwargs: dict = {}
    rects: list[tuple[str, str, BoxSpec | HoleSpec]] = []
    for lineno, key, val in key_value_lines(text, "scene",
                                            repeatable=tuple(_RECTS)):
        if key not in _SCENE_FIELDS:
            raise ValueError(f"scene line {lineno}: unknown key {key!r}")
        where = f"scene line {lineno}: {key}"
        fields = val.replace(",", " ").split()
        count = _SCENE_FIELDS[key]
        if len(fields) != count:
            raise ValueError(f"{where} needs {count} "
                             + ("value" if count == 1 else "fields"))
        value = parse_value(partial(_scene_value, key), fields, where)
        if key in _RECTS:
            rects.append((where, key, value))
        else:
            kwargs[key] = value
    if "camera_height" not in kwargs:
        raise ValueError("scene file must set camera_height")
    spec = SceneSpec(**kwargs)
    # the floor check waits for floor_extent, which may come on a later line
    on_floor = partial(_on_floor, floor_extent=spec.floor_extent)
    for where, key, rect in rects:
        getattr(spec, _RECTS[key][0]).append(parse_value(on_floor, rect, where))
    return spec


def format_scene_spec(spec: SceneSpec) -> str:
    """The scene file text of spec, as ``parse_scene_spec`` reads it back."""
    lines = [f"{name}={getattr(spec, name)}" for name in _SCENE_RANGES]
    lines += [f"{key}=" + " ".join(str(getattr(rect, f.name))
                                   for f in dataclass_fields(rect))
              for key, (attr, _) in _RECTS.items()
              for rect in getattr(spec, attr)]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Parametric class clouds for the desk-scale classifier dataset
# ---------------------------------------------------------------------------

def _panel(origin, edge_a, edge_b):
    """Rectangle patch: origin corner plus two edge vectors."""
    o = np.asarray(origin, dtype=np.float64)
    a = np.asarray(edge_a, dtype=np.float64)
    b = np.asarray(edge_b, dtype=np.float64)
    # np.cross's products and differences, in its order; its n-d path
    # costs tens of microseconds on two 3-vectors
    (a0, a1, a2), (b0, b1, b2) = a.tolist(), b.tolist()
    normal = np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])
    return o, a, b, float(np.linalg.norm(normal))


def _box_panels(center, size):
    """Six face panels of an axis-aligned box (center, size in mm)."""
    c = np.asarray(center, dtype=np.float64)
    s = np.asarray(size, dtype=np.float64) / 2
    panels = []
    for axis in range(3):
        for sign in (-1, 1):
            normal = np.zeros(3)
            normal[axis] = sign * s[axis]
            u_axis, v_axis = [a for a in range(3) if a != axis]
            eu = np.zeros(3)
            eu[u_axis] = 2 * s[u_axis]
            ev = np.zeros(3)
            ev[v_axis] = 2 * s[v_axis]
            origin = c + normal - eu / 2 - ev / 2
            panels.append(_panel(origin, eu, ev))
    return panels


def _sample_panels(panels, n, rng):
    areas = np.array([p[3] for p in panels])
    if areas.sum() <= 0:
        raise ValueError("degenerate primitive composition")
    counts = rng.multinomial(n, areas / areas.sum())
    pts = []
    for (o, a, b, _), cnt in zip(panels, counts):
        if cnt == 0:
            continue
        r1 = rng.random(cnt)[:, None]
        r2 = rng.random(cnt)[:, None]
        pts.append(o + r1 * a + r2 * b)
    return np.vstack(pts) if pts else np.zeros((0, 3))


def _legs(top_y, x_half, z_half, thickness=45.0):
    panels = []
    for sx in (-1, 1):
        for sz in (-1, 1):
            cx = sx * (x_half - thickness / 2)
            cz = sz * (z_half - thickness / 2)
            panels += _box_panels((cx, top_y / 2, cz),
                                  (thickness, top_y, thickness))
    return panels


def _u(rng, lo, hi):
    return float(rng.uniform(lo, hi))


def _chair(rng):
    seat_h = _u(rng, 400, 470)
    seat_w = _u(rng, 420, 520)
    seat_d = _u(rng, 420, 520)
    back_h = _u(rng, 380, 500)
    panels = _box_panels((0, seat_h, 0), (seat_w, 60, seat_d))
    panels += _box_panels((0, seat_h + back_h / 2, -seat_d / 2 + 25),
                          (seat_w, back_h, 50))
    panels += _legs(seat_h - 30, seat_w / 2, seat_d / 2)
    return panels


def _stool(rng):
    seat_h = _u(rng, 400, 470)
    seat_w = _u(rng, 330, 420)
    panels = _box_panels((0, seat_h, 0), (seat_w, 50, seat_w))
    panels += _legs(seat_h - 25, seat_w / 2, seat_w / 2, thickness=40)
    return panels


def _bed(rng):
    w = _u(rng, 1400, 1800)
    d = _u(rng, 1900, 2200)
    h = _u(rng, 350, 450)
    panels = _box_panels((0, h / 2, 0), (w, h, d))
    panels += _box_panels((0, h + 125, -d / 2 + 30), (w, 250, 60))  # headboard
    return panels


def _sofa(rng):
    w = _u(rng, 1700, 2100)
    d = _u(rng, 800, 950)
    seat_h = _u(rng, 380, 450)
    back_h = _u(rng, 350, 450)
    panels = _box_panels((0, seat_h / 2, 0), (w, seat_h, d))
    panels += _box_panels((0, seat_h + back_h / 2, -d / 2 + 60), (w, back_h, 120))
    for sx in (-1, 1):
        panels += _box_panels((sx * (w / 2 - 110), seat_h / 2 + 100, 0),
                              (220, seat_h + 200, d))
    return panels


def _bench(rng):
    w = _u(rng, 1300, 1700)
    d = _u(rng, 320, 420)
    seat_h = _u(rng, 420, 480)
    panels = _box_panels((0, seat_h, 0), (w, 70, d))
    panels += _legs(seat_h - 35, w / 2, d / 2)
    return panels


def _table(rng):
    w = _u(rng, 1200, 1600)
    d = _u(rng, 700, 900)
    top_h = _u(rng, 720, 780)
    panels = _box_panels((0, top_h, 0), (w, 45, d))
    panels += _legs(top_h - 22, w / 2, d / 2, thickness=55)
    return panels


def _desk(rng):
    w = _u(rng, 1100, 1400)
    d = _u(rng, 550, 700)
    top_h = _u(rng, 710, 770)
    panels = _box_panels((0, top_h, 0), (w, 40, d))
    for sx in (-1, 1):  # side panels instead of legs
        panels += _box_panels((sx * (w / 2 - 20), top_h / 2, 0),
                              (40, top_h, d * 0.9))
    return panels


def _night_stand(rng):
    w = _u(rng, 400, 500)
    h = _u(rng, 550, 680)
    d = _u(rng, 350, 450)
    return _box_panels((0, h / 2, 0), (w, h, d))


def _dresser(rng):
    w = _u(rng, 900, 1150)
    h = _u(rng, 1100, 1350)
    d = _u(rng, 450, 550)
    return _box_panels((0, h / 2, 0), (w, h, d))


def _wardrobe(rng):
    w = _u(rng, 900, 1200)
    h = _u(rng, 1850, 2150)
    d = _u(rng, 550, 650)
    return _box_panels((0, h / 2, 0), (w, h, d))


def _bookshelf(rng):
    w = _u(rng, 800, 1000)
    h = _u(rng, 1700, 2000)
    d = _u(rng, 280, 350)
    panels = []
    for sx in (-1, 1):  # open-front shell: sides, back, shelf slabs
        panels += _box_panels((sx * (w / 2 - 15), h / 2, 0), (30, h, d))
    panels += _box_panels((0, h / 2, d / 2 - 10), (w, h, 20))
    n_shelves = int(rng.integers(4, 7))
    for i in range(n_shelves):
        y = h * (i + 0.5) / n_shelves
        panels += _box_panels((0, y, 0), (w - 60, 25, d - 30))
    return panels


def _bathtub(rng):
    w = _u(rng, 700, 800)
    length = _u(rng, 1500, 1800)
    h = _u(rng, 550, 650)
    t = 70.0  # wall thickness
    panels = _box_panels((0, t / 2, 0), (w, t, length))  # basin bottom
    for sx in (-1, 1):
        panels += _box_panels((sx * (w - t) / 2, h / 2, 0), (t, h, length))
    for sz in (-1, 1):
        panels += _box_panels((0, h / 2, sz * (length - t) / 2), (w - 2 * t, h, t))
    return panels


def _toilet(rng):
    bowl_h = _u(rng, 380, 430)
    bowl_w = _u(rng, 360, 420)
    bowl_d = _u(rng, 480, 560)
    tank_h = _u(rng, 280, 350)
    panels = _box_panels((0, bowl_h / 2, 0), (bowl_w, bowl_h, bowl_d))
    panels += _box_panels((0, bowl_h + tank_h / 2, -bowl_d / 2 + 70),
                          (bowl_w + 60, tank_h, 140))
    return panels


def _stairs(rng):
    # Treads only: every point lies exactly on a step level, so the sorted
    # distinct y values form an arithmetic ladder.
    n_steps = int(rng.integers(3, 7))
    rise = _u(rng, 150, 190)
    run = _u(rng, 250, 310)
    width = _u(rng, 900, 1200)
    panels = []
    for i in range(n_steps):
        origin = (-width / 2, (i + 1) * rise, i * run)
        panels.append(_panel(origin, (width, 0, 0), (0, 0, run)))
    return panels


def _door(rng):
    w = _u(rng, 800, 1000)
    h = _u(rng, 1950, 2100)
    return _box_panels((0, h / 2, 0), (w, h, 45))


def _window(rng):
    w = _u(rng, 900, 1200)
    h = _u(rng, 1100, 1400)
    sill = _u(rng, 800, 1000)
    return _box_panels((0, sill + h / 2, 0), (w, h, 45))


_CLASS_RECIPES = {
    "chair": _chair,
    "stool": _stool,
    "bed": _bed,
    "sofa": _sofa,
    "bench": _bench,
    "table": _table,
    "desk": _desk,
    "night_stand": _night_stand,
    "dresser": _dresser,
    "wardrobe": _wardrobe,
    "bookshelf": _bookshelf,
    "bathtub": _bathtub,
    "toilet": _toilet,
    "stairs": _stairs,
    "door": _door,
    "window": _window,
}

SYNTHETIC_CLASSES = tuple(_CLASS_RECIPES)


def sample_box_cloud(fine_class: str, rng: np.random.Generator,
                     n_points: int = 1024) -> np.ndarray:
    """Sample a class-characteristic primitive composition as an (n, 3) cloud.

    Shapes rest on y=0 (mm scale); proportions are drawn from the given
    generator, so equal seeds reproduce equal clouds.
    """
    if fine_class not in _CLASS_RECIPES:
        raise ValueError(f"unknown class tag {fine_class!r}")
    if n_points < 256 or n_points > 2048:
        raise ValueError("n_points must lie in [256, 2048]")
    panels = _CLASS_RECIPES[fine_class](rng)
    return _sample_panels(panels, n_points, rng)


def build_synthetic_dataset(class_names, members: dict[str, tuple[str, ...]],
                            per_class: int, rng: np.random.Generator,
                            n_points: int = 1024):
    """Labeled cloud set: per_class samples per coarse class, cycling members.

    Returns (clouds, labels) with labels indexing into class_names.
    """
    clouds: list[np.ndarray] = []
    labels: list[int] = []
    for ci, cname in enumerate(class_names):
        fines = members[cname]
        for j in range(per_class):
            clouds.append(sample_box_cloud(fines[j % len(fines)], rng, n_points))
            labels.append(ci)
    return clouds, np.array(labels, dtype=np.int64)
