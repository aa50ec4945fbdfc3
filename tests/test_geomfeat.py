"""Hull, area, and percentile-height features.  The hull is checked
against an all-pairs half-plane oracle and, vertex for vertex, against
an independent monotone chain over every point.  The footprint hull,
taken from each image column's nearest and farthest point, is checked
against that chain as a polygon on the pixel segments of rendered
frames."""

import functools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hapmap import depthio, pipeline, scenegen
from hapmap.config import PipelineConfig
from hapmap.geomfeat import (GeometricClass, GeometryThresholds,
                             classify_geometry, convex_hull_2d, footprint,
                             height_p90, polygon_area)

from oracles import monotone_chain_hull


def assert_same_as_chain(pts):
    got = convex_hull_2d(pts)
    ref = monotone_chain_hull(pts)
    assert got.shape == ref.shape
    assert got.tobytes() == ref.tobytes()


def assert_same_polygon(hull, ref):
    """hull and the oracle hull ref are one polygon: every vertex of hull
    is a vertex of ref, no vertex of ref lies outside hull by more than
    1e-9 of the largest coordinate, and the areas agree to 1e-12."""
    assert {tuple(p) for p in hull} <= {tuple(p) for p in ref}
    edge = np.roll(hull, -1, axis=0) - hull
    rel = ref[:, None, :] - hull[None, :, :]
    inward = ((edge[:, 0] * rel[..., 1] - edge[:, 1] * rel[..., 0])
              / np.hypot(edge[:, 0], edge[:, 1]))
    assert -inward.min(axis=1).max() <= 1e-9 * np.abs(ref).max()
    assert polygon_area(hull) == pytest.approx(polygon_area(ref), rel=1e-12)


@functools.lru_cache(maxsize=None)
def frame_segments(seed):
    """(points, image columns) of the pixel segments of a 640x480 frame of
    five boxes, each segment the occupied pixels analyze_scene groups."""
    rng = np.random.default_rng(seed)
    boxes = [scenegen.BoxSpec(float(x + rng.uniform(-80, 80)),
                              float(z + rng.uniform(-80, 80)),
                              float(rng.uniform(250, 600)),
                              float(rng.uniform(250, 600)),
                              float(rng.uniform(300, 1100)))
             for x, z in ((-700, 2000), (0, 1600), (700, 2100), (-450, 3200),
                          (500, 3300))]
    spec = scenegen.SceneSpec(camera_height=1200, floor_extent=4500,
                              noise_sigma=10, boxes=boxes, seed=seed)
    k = depthio.DEFAULT_INTRINSICS
    frame, _ = scenegen.render_depth(spec, k, 640, 480)
    scene = pipeline.analyze_scene(PipelineConfig(), frame, k)
    return [(s.points, s.pixels % frame.width) for s in scene.segments]


def brute_hull_vertices(pts):
    """O(n^3): (i, j) is a hull edge iff every point sits left of i->j."""
    n = len(pts)
    verts = set()
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            d = pts - pts[i]
            cross = (pts[j, 0] - pts[i, 0]) * d[:, 1] - (pts[j, 1] - pts[i, 1]) * d[:, 0]
            if np.all(cross >= 0):
                verts.add(i)
                verts.add(j)
    return {tuple(pts[i]) for i in verts}


def point_in_hull(hull, p, tol=1e-9):
    """Left-of-every-edge test for a counter-clockwise hull."""
    n = len(hull)
    for i in range(n):
        a, b = hull[i], hull[(i + 1) % n]
        cross = (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])
        if cross < -tol:
            return False
    return True


class TestConvexHull:
    def test_square_with_interior(self):
        rng = np.random.default_rng(0)
        corners = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
        pts = np.vstack([corners, rng.uniform(0.1, 0.9, size=(30, 2))])
        hull = convex_hull_2d(pts)
        assert {tuple(p) for p in hull} == {tuple(c) for c in corners}

    def test_counter_clockwise_and_convex(self):
        rng = np.random.default_rng(1)
        hull = convex_hull_2d(rng.normal(0, 100, size=(50, 2)))
        n = len(hull)
        for i in range(n):
            a, b, c = hull[i], hull[(i + 1) % n], hull[(i + 2) % n]
            cross = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
            assert cross > 0   # strictly: no collinear vertices survive

    def test_matches_brute_force(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            pts = rng.uniform(-500, 500, size=(100, 2))
            hull = convex_hull_2d(pts)
            assert {tuple(p) for p in hull} == brute_hull_vertices(pts)

    def test_two_points_degenerate(self):
        hull = convex_hull_2d(np.array([[0.0, 0.0], [1.0, 1.0]]))
        assert hull.shape[0] < 3

    def test_collinear_degenerate(self):
        hull = convex_hull_2d(np.array([[0, 0], [1, 1], [2, 2], [3, 3]], dtype=float))
        assert hull.shape[0] < 3

    @settings(max_examples=40)
    @given(st.lists(st.tuples(st.floats(-1e4, 1e4), st.floats(-1e4, 1e4)),
                    min_size=3, max_size=60))
    def test_idempotent_and_contains_all(self, coords):
        pts = np.array(coords)
        hull = convex_hull_2d(pts)
        if hull.shape[0] < 3:
            return
        np.testing.assert_allclose(convex_hull_2d(hull), hull)
        assert all(point_in_hull(hull, p, tol=1e-6) for p in pts)


class TestHullMatchesChain:
    """convex_hull_2d equals the oracle's monotone chain, in vertex order."""

    @pytest.mark.parametrize("n", [3, 5, 16, 17, 40, 500, 3000])
    def test_random(self, n):
        rng = np.random.default_rng(n)
        for scale in (1.0, 1e3, 1e7):
            assert_same_as_chain(rng.normal(0.0, scale, size=(n, 2)))
            assert_same_as_chain(rng.uniform(-scale, scale, size=(n, 2)) + 1e15)

    def test_duplicate_heavy(self):
        rng = np.random.default_rng(11)
        base = rng.uniform(-500, 500, size=(12, 2))
        assert_same_as_chain(base[rng.integers(0, 12, size=400)])
        snapped = np.round(rng.normal(0, 3, size=(500, 2)))   # many exact repeats
        assert_same_as_chain(snapped)

    def test_exact_duplicates_and_signed_zeros(self):
        # Points from a 7 x 7 lattice, so most rows repeat, and half the
        # zero coordinates negative.  Hull and chain both keep, of rows
        # equal up to the sign of a zero, the first in input order.
        rng = np.random.default_rng(13)
        for _ in range(300):
            pts = rng.integers(-3, 4, size=(int(rng.integers(1, 300)), 2)) * 100.0
            assert_same_as_chain(pts)
            pts[(pts == 0) & (rng.random(pts.shape) < 0.5)] = -0.0
            assert_same_as_chain(pts)

    def test_collinear(self):
        t = np.linspace(-1000.0, 1000.0, 60)
        assert_same_as_chain(np.column_stack([t, 0.5 * t + 3.0]))
        assert_same_as_chain(np.column_stack([np.zeros(60), t]))
        # A square whose edges carry many collinear points.
        edge = np.linspace(0.0, 100.0, 30)
        square = np.vstack([np.column_stack([edge, np.zeros(30)]),
                            np.column_stack([edge, np.full(30, 100.0)]),
                            np.column_stack([np.zeros(30), edge]),
                            np.column_stack([np.full(30, 100.0), edge])])
        assert_same_as_chain(square)

    def test_all_identical(self):
        for n in (1, 3, 17, 100):
            assert_same_as_chain(np.full((n, 2), 42.5))

    def test_circle_every_point_a_vertex(self):
        a = np.linspace(0.0, 2 * np.pi, 400, endpoint=False)
        assert_same_as_chain(np.column_stack([np.cos(a), np.sin(a)]) * 700.0)

    def test_voxel_grid_footprint(self):
        # Segment-like input: points on a 20 mm grid with jitter and a
        # dense interior, as the voxel filter produces.
        rng = np.random.default_rng(12)
        grid = np.stack(np.meshgrid(np.arange(40), np.arange(25)), -1).reshape(-1, 2)
        pts = grid * 20.0 + rng.uniform(0, 20, size=grid.shape) - 300.0
        assert_same_as_chain(pts)
        assert_same_as_chain(grid * 20.0)          # exact lattice: collinear edges

    @pytest.mark.parametrize("seed", [0, 1])
    def test_pixel_segments(self, seed):
        # thousands of noisy points per segment, as analyze_scene passes
        segments = frame_segments(seed)
        assert len(segments) >= 4
        for points, _ in segments:
            assert points.shape[0] > 1000
            assert_same_as_chain(points[:, [0, 2]])

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
                    min_size=1, max_size=80))
    def test_small_integer_points(self, coords):
        assert_same_as_chain(np.array(coords, dtype=np.float64) * 10.0)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.floats(-1e4, 1e4), st.floats(-1e4, 1e4)),
                    min_size=1, max_size=120))
    @example([(0.0, 1.0), (-0.0, 1.0)])
    @example([(-0.0, 1.0), (5.0, 2.0), (0.0, 1.0), (3.0, -4.0)])
    def test_random_floats(self, coords):
        assert_same_as_chain(np.array(coords))


class TestColumnFilter:
    """footprint keeps each image column's nearest and farthest point and
    runs the chain on them; checked against the chain over every point."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_pixel_segments_match_chain_as_polygons(self, seed):
        for points, columns in frame_segments(seed):
            fp = footprint(points, columns)
            ref = monotone_chain_hull(points[:, [0, 2]])
            assert fp.hull.shape[0] >= 4
            assert_same_polygon(fp.hull, ref)

    def test_own_column_per_point_is_the_chain(self):
        rng = np.random.default_rng(15)
        lattice = rng.integers(-3, 4, size=(200, 3)) * 100.0
        lattice[(lattice == 0) & (rng.random(lattice.shape) < 0.5)] = -0.0
        for pts in (rng.normal((0, -600, 2500), 300, size=(500, 3)),
                    lattice, np.full((5, 3), 7.0), rng.normal(0, 1, (2, 3))):
            hull = footprint(pts, np.arange(len(pts))).hull
            assert hull.tobytes() == monotone_chain_hull(pts[:, [0, 2]]).tobytes()

    def test_rays_keep_their_end_points(self):
        # 40 image columns u, 50 points each on the ray x = (u - cx) z / fx,
        # as backproject computes it: the hull is the hull of each ray's
        # nearest and farthest point, while rounding leaves some inner
        # points a few ulps off their ray, where the full chain keeps them
        rng = np.random.default_rng(16)
        u = np.arange(200, 240)
        z = rng.uniform(1000.0, 3000.0, size=(40, 50))
        pts = np.stack([(u[:, None] - 319.5) * z / 525.0,
                        rng.uniform(-900, -300, z.shape), z],
                       axis=-1).reshape(-1, 3)
        columns = np.repeat(u, 50)
        rays = np.arange(40)
        ends = np.concatenate([pts.reshape(40, 50, 3)[rays, z.argmin(axis=1)],
                               pts.reshape(40, 50, 3)[rays, z.argmax(axis=1)]])
        hull = footprint(pts, columns).hull
        assert hull.tobytes() == monotone_chain_hull(ends[:, [0, 2]]).tobytes()
        full = monotone_chain_hull(pts[:, [0, 2]])
        assert len(full) > len(hull)
        assert_same_polygon(hull, full)

    def test_one_column_is_degenerate(self):
        rng = np.random.default_rng(17)
        pts = rng.normal((0, -600, 2500), 300, size=(100, 3))
        fp = footprint(pts, np.zeros(100, dtype=np.int64))
        near, far = pts[pts[:, 2].argmin()], pts[pts[:, 2].argmax()]
        assert {tuple(p) for p in fp.hull} == {(near[0], near[2]), (far[0], far[2])}
        assert fp.degenerate and fp.area_m2 == 0.0

    def test_ties_at_the_nearest_and_farthest_depth_are_kept(self):
        pts = np.array([[0.0, 0, 1000], [50, 0, 1000], [20, 0, 1500],
                        [-40, 0, 1200], [-10, 0, 1500], [80, 0, 1300]])
        columns = np.array([3, 3, 3, 3, 3, 5])
        hull = footprint(pts, columns).hull
        # column 3 drops only (-40, 1200), which the full chain would keep
        kept = pts[[0, 1, 2, 4, 5]][:, [0, 2]]
        assert hull.tobytes() == monotone_chain_hull(kept).tobytes()
        assert len(hull) == 5 and len(monotone_chain_hull(pts[:, [0, 2]])) == 6
        # one depth throughout a column: every point is nearest and farthest
        flat = np.column_stack([pts[:, 0], np.zeros(6), np.full(6, 2000.0)])
        hull = footprint(flat, np.zeros(6, dtype=np.int64)).hull
        assert hull.tolist() == [[-40.0, 2000.0], [80.0, 2000.0]]

    def test_sparse_column_ids(self):
        rng = np.random.default_rng(18)
        pts = rng.normal((0, -600, 2500), 300, size=(60, 3))
        columns = np.where(np.arange(60) % 2, 639, 0)
        ends = [np.flatnonzero(columns == c)[[pts[columns == c, 2].argmin(),
                                              pts[columns == c, 2].argmax()]]
                for c in (0, 639)]
        hull = footprint(pts, columns).hull
        ref = monotone_chain_hull(pts[np.sort(np.concatenate(ends))][:, [0, 2]])
        assert hull.tobytes() == ref.tobytes()

    def test_bad_columns_rejected(self):
        pts = np.zeros((4, 3))
        for columns in (np.arange(3), np.arange(5), np.zeros((4, 1), dtype=int)):
            with pytest.raises(ValueError, match="one entry per point"):
                footprint(pts, columns)
        with pytest.raises(ValueError, match="non-negative"):
            footprint(pts, np.array([0, 1, -1, 2]))


class TestPolygonArea:
    def test_one_square_meter(self):
        square = np.array([[0, 0], [1000, 0], [1000, 1000], [0, 1000]], dtype=float)
        assert polygon_area(square) == pytest.approx(1.0)

    def test_half_square_triangle(self):
        tri = np.array([[0, 0], [1000, 0], [0, 1000]], dtype=float)
        assert polygon_area(tri) == pytest.approx(0.5)

    def test_degenerate_zero(self):
        assert polygon_area(np.array([[0.0, 0.0], [5.0, 5.0]])) == 0.0

    def test_ring_rotation_invariant(self):
        poly = np.array([[0, 0], [800, 0], [900, 600], [100, 700]], dtype=float)
        base = polygon_area(poly)
        for shift in range(1, 4):
            assert polygon_area(np.roll(poly, shift, axis=0)) == pytest.approx(base)

    @settings(max_examples=30)
    @given(st.floats(0, 2 * np.pi), st.floats(-5e3, 5e3), st.floats(-5e3, 5e3))
    def test_rigid_motion_invariant(self, angle, tx, tz):
        poly = np.array([[0, 0], [800, 0], [900, 600], [100, 700]], dtype=float)
        c, s = np.cos(angle), np.sin(angle)
        moved = poly @ np.array([[c, s], [-s, c]]) + [tx, tz]
        assert polygon_area(moved) == pytest.approx(polygon_area(poly), rel=1e-9)


class TestHeightP90:
    def test_hundred_heights(self):
        # heights 0, 10, ..., 990: ceil(0.9 * 100) = 90 -> sorted[89] = 890
        pts = np.zeros((100, 3))
        pts[:, 1] = np.arange(100) * 10.0
        assert height_p90(pts, ground_y=0.0) == 890.0

    def test_single_point(self):
        assert height_p90(np.array([[0, 500.0, 0]]), 0.0) == 500.0

    def test_all_equal(self):
        pts = np.zeros((7, 3))
        pts[:, 1] = 321.0
        assert height_p90(pts, 0.0) == 321.0

    def test_ground_offset(self):
        pts = np.array([[0, -700.0, 0], [0, -650.0, 0]])
        assert height_p90(pts, ground_y=-1200.0) == 550.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            height_p90(np.zeros((0, 3)), 0.0)


class TestClassifyGeometry:
    def test_chair_like(self):
        g = classify_geometry(850.0, 0.16)
        assert (g.height_class, g.area_class) == (2, 1)

    def test_bed_like(self):
        g = classify_geometry(500.0, 3.0)
        assert (g.height_class, g.area_class) == (2, 3)

    def test_boundary_inclusive(self):
        assert classify_geometry(400.0, 0.25).height_class == 2
        assert classify_geometry(400.0, 0.25).area_class == 2
        assert classify_geometry(1000.0, 1.0) == GeometricClass(3, 3, 1000.0)

    def test_monotone_in_height(self):
        heights = np.linspace(0, 2000, 60)
        classes = [classify_geometry(h, 0.5).height_class for h in heights]
        assert classes == sorted(classes)

    def test_custom_thresholds(self):
        thr = GeometryThresholds(height_low=300, height_high=800,
                                 area_low=0.1, area_high=0.5)
        assert classify_geometry(350, 0.05, thr).height_class == 2
        with pytest.raises(ValueError):
            GeometryThresholds(height_low=800, height_high=300)


class TestFootprint:
    def test_barycenter_is_centroid(self):
        rng = np.random.default_rng(3)
        pts = rng.normal((100, -600, 2500), 80, size=(200, 3))
        fp = footprint(pts, np.arange(200))
        np.testing.assert_allclose(fp.barycenter, pts.mean(axis=0))
        assert not fp.degenerate
        assert fp.area_m2 > 0

    def test_degenerate_line(self):
        pts = np.array([[0, 0, 0], [0, 5, 0], [0, 9, 0]], dtype=float)
        fp = footprint(pts, np.arange(3))
        assert fp.degenerate and fp.area_m2 == 0.0
