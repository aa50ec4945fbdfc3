"""Seeded scene sets for the frame workloads, and scoring against ground truth.

Every scene is a floor seen by a level camera 1200 mm above it, with
10 mm depth noise.  Boxes and holes are drawn by rejection sampling: a
candidate is kept only when it lies on the floor, fully inside the
horizontal view field and the 800-4000 mm pass-through band, clear of
every other footprint by ``GAP`` mm, and tall enough for its front top
edge to be in view.  A box layout is kept only when its visible box
surface, after occlusion, lies in ``VISIBLE_M2``: segmentation cost
follows that surface, so every clutter scene costs about the same while
its box count varies.  Each scene's ``format_scene_spec`` text rebuilds the
exact frame with ``hapmap scenegen --scene <spec> --out <pgm>``.
"""

from __future__ import annotations

import numpy as np

from hapmap import depthio, scenegen

K = depthio.DEFAULT_INTRINSICS
WIDTH, HEIGHT = 640, 480
CAMERA_HEIGHT = 1200.0
NOISE_SIGMA = 10.0
FLOOR_EXTENT = 8000.0
ZMIN, ZMAX = 800.0, 4000.0          # PipelineConfig pass-through defaults
BAND_MARGIN = 100.0                 # keep footprints this far inside the band
GAP = 250.0                         # min clearance between footprints (> dbscan eps)
HALF_TAN = K.cx / K.fx              # horizontal half field of view, x/z
DOWN_TAN = (HEIGHT - 1 - K.cy) / K.fy   # lowest ray's drop per mm of depth

#: one scene per entry; fixed counts keep the scene mix equal across seeds
CLUTTER_BOX_COUNTS = (6, 7, 8, 9, 10) * 2
OPEN_FLOOR_HOLE_COUNTS = (1, 2, 1, 2)

#: visible box surface window (m^2), measured on a 160x120 render
VISIBLE_M2 = (1.10, 1.20)
K_LOW = depthio.Intrinsics(fx=K.fx / 4, fy=K.fy / 4, cx=(K.cx + 0.5) / 4 - 0.5,
                           cy=(K.cy + 0.5) / 4 - 0.5)

MATCH_MARGIN = 150.0    # mm around a box footprint that still matches it
EXPECTED_MIN_PX = 300   # in-band pixels a box needs to be expected


def _in_view(cx, cz, w, d, height=None) -> bool:
    near, far = cz - d / 2, cz + d / 2
    if near < ZMIN + BAND_MARGIN or far > ZMAX - BAND_MARGIN:
        return False
    if abs(cx) + w / 2 > near * HALF_TAN:
        return False
    # floor features need floor in view; boxes need their top front edge
    top = 0.0 if height is None else height
    return top - CAMERA_HEIGHT >= -DOWN_TAN * near


def _clear(cx, cz, w, d, placed) -> bool:
    return all(abs(cx - o[0]) >= (w + o[2]) / 2 + GAP
               or abs(cz - o[1]) >= (d + o[3]) / 2 + GAP for o in placed)


def _place(rng, placed, size_lo, size_hi, height_range=None):
    """Draw one footprint (and height) satisfying the view and gap rules.

    Centers are uniform over the view trapezoid (depth density grows with
    z).  Returns None when no candidate fits, so the caller redraws the
    whole scene instead of wedging the last box into a gap.
    """
    for _ in range(300):
        w = float(round(rng.uniform(size_lo[0], size_hi[0])))
        d = float(round(rng.uniform(size_lo[1], size_hi[1])))
        cz = float(round(np.sqrt(rng.uniform(ZMIN**2, ZMAX**2))))
        cx = float(round(rng.uniform(-1.0, 1.0) * cz * HALF_TAN))
        h = None
        if height_range is not None:
            h = float(round(rng.uniform(*height_range)))
        if _in_view(cx, cz, w, d, h) and _clear(cx, cz, w, d, placed):
            placed.append((cx, cz, w, d))
            return cx, cz, w, d, h
    return None


def _layout(rng, n_boxes, n_holes):
    placed: list[tuple] = []
    holes = []      # first: only the far part of the band shows floor
    for _ in range(n_holes):
        drawn = _place(rng, placed, (300, 200), (600, 400))
        if drawn is None:
            return None
        holes.append(scenegen.HoleSpec(*drawn[:4]))
    boxes = []
    for _ in range(n_boxes):
        drawn = _place(rng, placed, (300, 300), (450, 450),
                       height_range=(500, 900))
        if drawn is None:
            return None
        boxes.append(scenegen.BoxSpec(*drawn, fine_class="box"))
    return boxes, holes


def visible_m2(spec: scenegen.SceneSpec) -> float:
    """Box surface seen in the band: each pixel covers (z/f)^2 mm^2."""
    frame, truth = scenegen.render_depth(spec, K_LOW, WIDTH // 4, HEIGHT // 4)
    z = frame.data.astype(np.float64) * K_LOW.depth_scale
    seen = np.logical_or.reduce(truth.object_masks) & (z >= ZMIN) & (z <= ZMAX)
    return float((z[seen] ** 2).sum() / (K_LOW.fx * K_LOW.fy)) / 1e6


def make_scene(rng: np.random.Generator, n_boxes: int,
               n_holes: int) -> scenegen.SceneSpec:
    for _ in range(1000):
        layout = _layout(rng, n_boxes, n_holes)
        if layout is None:
            continue
        spec = scenegen.SceneSpec(camera_height=CAMERA_HEIGHT,
                                  floor_extent=FLOOR_EXTENT,
                                  noise_sigma=NOISE_SIGMA, boxes=layout[0],
                                  holes=layout[1], seed=int(rng.integers(2**31)))
        if not n_boxes or VISIBLE_M2[0] <= visible_m2(spec) <= VISIBLE_M2[1]:
            return spec
    raise RuntimeError(f"cannot lay out {n_boxes} boxes, {n_holes} holes")


def scene_set(workload: str, seed: int) -> list[scenegen.SceneSpec]:
    """The scenes of one frame workload, drawn from the workload seed."""
    if workload == "open_floor":
        counts = [(0, h) for h in OPEN_FLOOR_HOLE_COUNTS]
    elif workload == "clutter":
        counts = [(b, 1) for b in CLUTTER_BOX_COUNTS]
    else:
        raise ValueError(f"no scene set for workload {workload!r}")
    rng = np.random.default_rng([seed, len(workload)])
    return [make_scene(rng, b, h) for b, h in counts]


def expected_boxes(frame: depthio.DepthFrame,
                   truth: scenegen.GroundTruth) -> list[int]:
    """Indices of boxes with at least EXPECTED_MIN_PX pixels in the band."""
    z = frame.data.astype(np.float64) * K.depth_scale
    in_band = (z >= ZMIN) & (z <= ZMAX)
    return [i for i, m in enumerate(truth.object_masks)
            if int((m & in_band).sum()) >= EXPECTED_MIN_PX]


def score(descriptors, spec: scenegen.SceneSpec,
          expected: list[int]) -> tuple[int, int]:
    """(expected boxes matched, ghost objects) for one frame's descriptors.

    An object matches a box when its barycenter lies within the box
    footprint grown by MATCH_MARGIN; an object matching no box is a ghost.
    """
    matched = set()
    ghosts = 0
    for desc in descriptors:
        bx, _, bz = desc.footprint.barycenter
        hits = [i for i, b in enumerate(spec.boxes)
                if abs(bx - b.center_x) <= b.width / 2 + MATCH_MARGIN
                and abs(bz - b.center_z) <= b.depth / 2 + MATCH_MARGIN]
        matched.update(hits)
        ghosts += not hits
    return len(matched & set(expected)), ghosts
