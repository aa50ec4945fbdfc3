"""Trapezoid mapping and pin rasterization.

The mapping scale is s = small_basis / (2 * near * tan(hfov/2)); with the
default camera tan(hfov/2) = 640 / (2 * 575.8) = 0.555748, so the near
width is 889.198mm, s = 0.0269906 pins/mm, and (0, 4000) lands on
v = round(s * 3200) = round(86.37) = 86.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hapmap import depthio, pipeline, synthgrid
from hapmap.config import PipelineConfig
from hapmap.depthio import Intrinsics
from hapmap.labeling import REQUIRED_TAGS, builtin_sheet
from hapmap.synthgrid import (AreaGeometry, PinGrid, _fill_polygon,
                              clip_polygon_to_frustum, emit, label_level,
                              map_continuous, map_to_area, map_to_pins,
                              rasterize_raw, rasterize_scene, trapezoid_mask)

from conftest import parse_grid_json
from oracles import (loop_emit_ascii, loop_fill_polygon, loop_glyph_stamp,
                     loop_rasterize_scene, loop_trapezoid_mask, rect_descriptor)

G = AreaGeometry()


class TestAreaGeometry:
    def test_defaults(self):
        assert G.far / G.near == 5.0
        assert G.near_width == pytest.approx(889.1976, abs=1e-3)
        assert G.v_max == 86

    def test_from_intrinsics(self):
        g = AreaGeometry.from_intrinsics(Intrinsics(575.8, 575.8, 319.5, 239.5), 640)
        assert g.half_tan == pytest.approx(0.555748, abs=1e-6)

    def test_defaults_are_the_default_configs_area(self, tmp_path):
        # G's defaults copy the band, camera and grid defaults by hand; the
        # tests that read G hold for the area the pipeline builds for a
        # 640x480 frame under the default config
        frame = depthio.DepthFrame(np.full((480, 640), 2000, dtype=np.uint16))
        path = tmp_path / "depth.pgm"
        path.write_bytes(depthio.depth_to_pgm(frame))
        _, area = pipeline.analyze_depth_file(PipelineConfig(), path)
        assert area == G

    def test_invalid(self):
        with pytest.raises(ValueError):
            AreaGeometry(near=4000, far=800)
        with pytest.raises(ValueError):
            AreaGeometry(small_basis=30)   # 30 * 5 = 150 > 120 cols
        with pytest.raises(ValueError, match="depth extent"):
            AreaGeometry(half_tan=1e-298)  # far row past any int64 pin


class TestMapToArea:
    def test_near_center(self):
        assert map_to_area(0.0, 800.0, G) == (60, 0)

    def test_far_center_frozen(self):
        assert map_to_area(0.0, 4000.0, G) == (60, 86)

    def test_row_width_ratio_is_five(self):
        # continuous (pre-rounding) width of the mapped row at z
        def width(z):
            left, _ = map_continuous(-z * G.half_tan, z, G)
            right, _ = map_continuous(z * G.half_tan, z, G)
            return right - left
        assert width(G.far) / width(G.near) == pytest.approx(5.0, abs=1e-9)

    def test_half_pin_offset(self):
        # x = 0 lands on pin cols // 2 of an even cols, so pin u mirrors to
        # cols - u; pin 0 has no partner, its mirror clamps into pin cols - 1
        assert G.cols % 2 == 0
        assert map_to_area(0.0, 2000.0, G)[0] == G.cols // 2
        for u in range(G.cols):
            x = (u - G.cols / 2.0) / G.scale
            assert map_to_area(x, 4000.0, G)[0] == u
            assert map_to_area(-x, 4000.0, G)[0] == min(G.cols - u, G.cols - 1)

    def test_result_inside_trapezoid(self):
        mask = trapezoid_mask(G)
        rng = np.random.default_rng(0)
        for _ in range(300):
            z = rng.uniform(G.near, G.far)
            x = rng.uniform(-1, 1) * z * G.half_tan
            u, v = map_to_area(x, z, G)
            assert mask[v, u]

    def test_injective_beyond_two_pitches(self):
        pitch = 1.0 / G.scale
        a = map_to_area(0.0, 2000.0, G)
        b = map_to_area(2 * pitch, 2000.0, G)
        c = map_to_area(0.0, 2000.0 + 2 * pitch, G)
        assert a != b and a != c

    def test_similarity_of_distances(self):
        # mapped distances scale uniformly: 400mm along x vs 800mm along z
        ax, az = 100.0, 2000.0
        u0, v0 = map_continuous(ax, az, G)
        u1, _ = map_continuous(ax + 400.0, az, G)
        _, v2 = map_continuous(ax, az + 800.0, G)
        assert (v2 - v0) / (u1 - u0) == pytest.approx(2.0, rel=1e-12)


class TestTrapezoid:
    def test_row_widths(self):
        mask = trapezoid_mask(G)
        assert mask[0].sum() == 25            # near row: 2*12 + center + rounding
        assert mask[86].sum() == 120          # far row spans the full grid
        assert mask[87:].sum() == 0

    def test_empty_grid_levels(self):
        grid = PinGrid.empty(G)
        mask = trapezoid_mask(G)
        assert (grid.cells[mask] == 1).all()
        assert (grid.cells[~mask] == -1).all()


@st.composite
def area_geometries(draw):
    """Valid synthesis areas of every shape.

    Half are dyadic: powers of two for near, the field of view and the
    small basis make the scale exact, so view-field edges and half-pin
    positions land exactly on rounding ties.
    """
    if draw(st.booleans()):
        near = float(2 ** draw(st.integers(7, 11)))
        far = near * draw(st.integers(3, 12)) / 2.0
        half_tan = 2.0 ** draw(st.integers(-3, 1))
        small_basis = 2 ** draw(st.integers(0, 5))
    else:
        near = draw(st.floats(100.0, 3000.0))
        far = near * draw(st.floats(1.01, 6.0))
        half_tan = draw(st.floats(0.05, 2.0))
        small_basis = draw(st.integers(1, 40))
    cols = math.ceil(small_basis * far / near) + draw(st.integers(0, 5))
    probe = AreaGeometry(near, far, half_tan, small_basis, rows=10**6, cols=cols)
    rows = probe.v_max + 1 + draw(st.integers(0, 5))
    return AreaGeometry(near, far, half_tan, small_basis, rows, cols)


@st.composite
def labelled_objects(draw, g):
    """A labelled box whose barycenter lies on a pin, a rounding tie or
    anywhere, from a few pins outside the grid (clamped, its glyph
    clipped) to the far corners."""
    def pin(hi):
        return draw(st.one_of(st.integers(-8, 2 * hi + 8).map(lambda h: h / 2.0),
                              st.floats(-4.0, hi + 4.0)))
    u, v = pin(g.cols), pin(g.rows)
    w, d = (draw(st.floats(0.5, 8.0)) / g.scale for _ in range(2))
    return rect_descriptor((u - g.cols / 2.0) / g.scale, g.near + v / g.scale,
                           w, d, draw(st.sampled_from([200.0, 700.0, 1500.0])),
                           label=draw(st.sampled_from(REQUIRED_TAGS)))


# view-field edges on a rounding tie, where the float product decides the
# pin: here the far row's left edge point maps to u = 0.5 (pin 1), but
# cols/2 - scale * z * half_tan gives 0.49999999999999956 (pin 0) ...
TIE_AREA = AreaGeometry(near=100, far=200, half_tan=0.140625, small_basis=3,
                        rows=12, cols=7)
# ... and here the point maps to u = 0.4999999999999998 (pin 0), but that
# expression gives 0.5 (pin 1), so a mask built on it misses the point
DROPPED_EDGE_AREA = AreaGeometry(near=100.0, far=300.0, half_tan=1.05,
                                 small_basis=1, rows=2, cols=4)


class TestMaskCoversMapping:
    """Every point in the view field maps to an active pin."""

    @settings(max_examples=300)
    @given(g=area_geometries(), shares=st.lists(st.floats(0.0, 1.0), max_size=20))
    @example(g=TIE_AREA, shares=[])
    @example(g=DROPPED_EDGE_AREA, shares=[])
    def test_in_view_points_land_on_active_pins(self, g, shares):
        # depths: the row boundaries and their float neighbours, the band
        # ends and random depths; at each, both view-field edges and the axis
        bounds = g.near + (np.arange(g.v_max + 1) + 0.5) / g.scale
        z = np.concatenate([bounds, np.nextafter(bounds, np.inf),
                            np.nextafter(bounds, -np.inf), [g.near, g.far],
                            g.near + np.array(shares) * (g.far - g.near)])
        z = z[(z >= g.near) & (z <= g.far)]
        edge = z * g.half_tan
        x = np.concatenate([-edge, edge, np.zeros_like(z)])
        u, v = map_to_pins(x, np.tile(z, 3), g)
        assert trapezoid_mask(g)[v, u].all()


class TestAreaMatchesLoops:
    """The array trapezoid and glyph stamp against the deleted loops."""

    @settings(max_examples=300)
    @given(g=area_geometries())
    @example(g=TIE_AREA)
    @example(g=DROPPED_EDGE_AREA)
    def test_trapezoid_mask(self, g):
        assert trapezoid_mask(g).tobytes() == loop_trapezoid_mask(g).tobytes()

    @settings(max_examples=300)
    @given(data=st.data(), g=area_geometries())
    def test_glyph_stamp(self, data, g):
        objs = data.draw(st.lists(labelled_objects(g), max_size=5))
        sheet = builtin_sheet()
        ref = rasterize_scene([], [replace(o, label=None) for o in objs],
                              g, sheet)
        for obj in objs:
            loop_glyph_stamp(ref.cells, ref.active, obj, g, sheet)
        assert rasterize_scene([], objs, g, sheet) == ref


@st.composite
def scene_objects(draw, g):
    """A box of one of the three height classes, labelled or not, whose
    hull may be cut to one or two vertices (degenerate).  Its barycenter
    lies from a few pins outside the grid to the far corners, or on a
    view-field edge, so its footprint crosses that edge."""
    u, v = (draw(st.floats(-4.0, n + 4.0)) for n in (g.cols, g.rows))
    x, z = (u - g.cols / 2.0) / g.scale, g.near + v / g.scale
    if draw(st.booleans()):
        x = draw(st.sampled_from([-1.0, 1.0])) * z * g.half_tan
    w, d = (draw(st.floats(0.5, 12.0)) / g.scale for _ in range(2))
    obj = rect_descriptor(x, z, w, d,
                          draw(st.sampled_from([200.0, 700.0, 1500.0])),
                          label=draw(st.none() | st.sampled_from(REQUIRED_TAGS)))
    keep = draw(st.sampled_from([4, 4, 2, 1]))
    return replace(obj, footprint=replace(obj.footprint,
                                          hull=obj.footprint.hull[:keep]))


@st.composite
def hole_polygons(draw, g):
    """An (x, z) polygon of 3-6 vertices, mm, anywhere from a few pins
    outside the grid to the far corners."""
    uv = np.array(draw(st.lists(
        st.tuples(st.floats(-4.0, g.cols + 4.0), st.floats(-4.0, g.rows + 4.0)),
        min_size=3, max_size=6)))
    return np.column_stack([(uv[:, 0] - g.cols / 2.0) / g.scale,
                            g.near + uv[:, 1] / g.scale])


class TestComposeMatchesLoop:
    """The level-order composition against the object-by-object loop it
    replaced, byte for byte."""

    @settings(max_examples=300)
    @given(data=st.data(), g=area_geometries())
    def test_random_scenes(self, data, g):
        holes = data.draw(st.lists(hole_polygons(g), max_size=2))
        objs = data.draw(st.lists(scene_objects(g), max_size=8))
        got = rasterize_scene(holes, objs, g)
        assert got.cells.tobytes() == loop_rasterize_scene(holes, objs, g).cells.tobytes()


class TestLabelLevel:
    def test_mapping(self):
        assert label_level(1) == 2
        assert label_level(2) == 3
        assert label_level(3) == 4

    def test_monotone(self):
        assert label_level(1) < label_level(2) < label_level(3)

    def test_invalid(self):
        with pytest.raises(ValueError):
            label_level(0)


class TestRasterizeScene:
    def test_empty_scene_all_ground(self):
        grid = rasterize_scene([], [], G)
        assert set(np.unique(grid.cells[grid.active])) == {1}

    def test_table_footprint_and_glyph(self):
        # height class 2 -> glyph level 3 over a level-2 footprint
        table = rect_descriptor(0, 2500, 600, 600, 750.0, label="put_on")
        grid = rasterize_scene([], [table], G)
        levels = set(np.unique(grid.cells[grid.active]))
        assert levels == {1, 2, 3}
        glyph = builtin_sheet()["put_on"]
        assert (grid.cells == 3).sum() == glyph.dots
        # glyph dots sit inside the footprint area
        vs, us = np.nonzero(grid.cells == 3)
        assert vs.min() >= 44 and vs.max() <= 48   # center row v=46 +- 2

    def test_rejected_class_footprint_only(self):
        obj = rect_descriptor(0, 2500, 600, 600, 750.0, label=None, confidence=0.53)
        grid = rasterize_scene([], [obj], G)
        assert set(np.unique(grid.cells[grid.active])) == {1, 2}

    def test_hole_is_level_zero(self):
        hole = np.array([[-300, 2200], [300, 2200], [300, 2700], [-300, 2700]])
        grid = rasterize_scene([hole], [], G)
        u, v = map_to_area(0.0, 2450.0, G)
        assert grid.cells[v, u] == 0

    def test_object_over_hole_wins(self):
        hole = np.array([[-300, 2200], [300, 2200], [300, 2700], [-300, 2700]])
        obj = rect_descriptor(0, 2450, 400, 300, 500.0)
        grid = rasterize_scene([hole], [obj], G)
        u, v = map_to_area(0.0, 2450.0, G)
        assert grid.cells[v, u] == 2

    def test_order_independent(self):
        a = rect_descriptor(-200, 2300, 500, 500, 450.0, label="sit_on")
        b = rect_descriptor(150, 2500, 500, 500, 1200.0, label="store_in")
        assert rasterize_scene([], [a, b], G) == rasterize_scene([], [b, a], G)

    def test_glyph_clipped_at_border(self):
        # barycenter on the near-left trapezoid corner: part of the glyph
        # falls outside and is dropped, never shifted
        x_edge = -800.0 * G.half_tan + 30
        obj = rect_descriptor(x_edge, 830, 200, 200, 1200.0, label="store_in")
        grid = rasterize_scene([], [obj], G)
        glyph = builtin_sheet()["store_in"]
        assert 0 < (grid.cells == 4).sum() < glyph.dots

    def test_stairs_glyphs_differ(self):
        up = rect_descriptor(0, 2500, 600, 900, 700.0, label="stairs_up")
        down = rect_descriptor(0, 2500, 600, 900, 700.0, label="stairs_down")
        assert rasterize_scene([], [up], G) != rasterize_scene([], [down], G)

    def test_clip_object_straddling_near_plane(self):
        obj = rect_descriptor(0, 850, 400, 600, 500.0)
        grid = rasterize_scene([], [obj], G)     # must not raise
        assert (grid.cells == 2).sum() > 0

    def test_levels_stay_in_contract(self):
        rng = np.random.default_rng(4)
        objs = [rect_descriptor(float(rng.uniform(-400, 400)),
                                float(rng.uniform(1200, 3600)),
                                float(rng.uniform(200, 800)),
                                float(rng.uniform(200, 800)),
                                float(rng.uniform(100, 2000)),
                                label=lab)
                for lab in (None, "sit_on", "store_in", "sanitary")]
        grid = rasterize_scene([], objs, G)
        assert grid.cells.min() >= -1 and grid.cells.max() <= 4


# Pin coordinates: whole numbers put vertices and flat edges exactly on pin
# rows and columns, halves put them on rounding ties, and the range runs
# past both sides of grids up to 12 x 15.
PIN_COORD = st.one_of(st.integers(-8, 20).map(float),
                      st.integers(-16, 40).map(lambda h: h / 2.0),
                      st.floats(-8.0, 20.0))


def assert_fill_matches_loop(cells, active, poly, level):
    got, ref = cells.copy(), cells.copy()
    _fill_polygon(got, active, poly, level)
    loop_fill_polygon(ref, active, poly, level)
    assert got.tobytes() == ref.tobytes()


class TestFillMatchesLoop:
    """The (rows x edges) scanline fill against the row-by-row loop."""

    @settings(max_examples=400)
    @given(rows=st.integers(1, 12), cols=st.integers(1, 15),
           poly=st.lists(st.tuples(PIN_COORD, PIN_COORD), max_size=8),
           level=st.integers(0, 4), seed=st.integers(0, 2**32 - 1))
    def test_random_polygons(self, rows, cols, poly, level, seed):
        rng = np.random.default_rng(seed)
        cells = rng.integers(-1, 5, size=(rows, cols)).astype(np.int8)
        active = rng.random((rows, cols)) < 0.8
        poly_uv = np.array(poly, dtype=np.float64).reshape(-1, 2)
        assert_fill_matches_loop(cells, active, poly_uv, level)

    @pytest.mark.parametrize("poly", [
        [[2, 3], [9, 3], [9, 7], [2, 7]],            # flat edges on pin rows
        [[5, 1], [9, 4], [5, 8], [1, 4]],            # vertices on pin rows
        [[4.5, 2.5], [8.5, 2.5], [6.5, 6.5]],        # vertices on rounding ties
        [[-5, -4], [6, -4], [6, 3], [-5, 3]],        # partly off the grid
        [[-9, 2], [-3, 2], [-3, 6]],                 # wholly left of the grid
        [[2, 13], [9, 13], [5, 19]],                 # wholly below the last row
        [[2, -6], [9, -6], [5, -2]],                 # wholly above the first row
        [[3, 4], [7, 4], [11, 4]],                   # collinear, flat
    ])
    def test_edge_cases(self, poly):
        rng = np.random.default_rng(3)
        cells = rng.integers(0, 5, size=(12, 15)).astype(np.int8)
        active = rng.random((12, 15)) < 0.9
        for level in (0, 2, 4):
            assert_fill_matches_loop(cells, active, np.array(poly, dtype=np.float64),
                                     level)

    def test_scenes_match_loop(self, monkeypatch):
        rng = np.random.default_rng(9)
        holes = [np.array([[-300, 2200], [300, 2150], [350, 2700], [-250, 2650]])]
        objs = [rect_descriptor(float(rng.uniform(-900, 900)),
                                float(rng.uniform(700, 4100)),
                                float(rng.uniform(100, 900)),
                                float(rng.uniform(100, 900)), 700.0)
                for _ in range(12)]
        fast = rasterize_scene(holes, objs, G)
        assert {0, 2} <= set(np.unique(fast.cells))
        monkeypatch.setattr(synthgrid, "_fill_polygon", loop_fill_polygon)
        assert rasterize_scene(holes, objs, G) == fast


class TestClipPolygon:
    def test_inside_unchanged(self):
        poly = np.array([[-100, 2000], [100, 2000], [0, 2200]], dtype=float)
        out = clip_polygon_to_frustum(poly, G)
        assert {tuple(p) for p in out} == {tuple(p) for p in poly}

    def test_fully_outside_empty(self):
        poly = np.array([[-100, 100], [100, 100], [0, 300]], dtype=float)
        assert clip_polygon_to_frustum(poly, G).shape[0] == 0

    def test_straddles_near_plane(self):
        poly = np.array([[-200, 600], [200, 600], [200, 1000], [-200, 1000]], dtype=float)
        out = clip_polygon_to_frustum(poly, G)
        assert out[:, 1].min() == pytest.approx(800.0)


class TestRasterizeRaw:
    def test_empty_cloud_all_ground(self):
        grid = rasterize_raw(np.zeros((0, 3)), G, ground_y=0.0)
        assert set(np.unique(grid.cells[grid.active])) == {1}

    def test_ground_point_level_one(self):
        cloud = np.array([[0.0, -1200.0, 2000.0]])
        grid = rasterize_raw(cloud, G, ground_y=-1200.0)
        u, v = map_to_area(0.0, 2000.0, G)
        assert grid.cells[v, u] == 1

    def test_height_bands(self):
        # bands of 500mm over [0, 2000]: 1250mm -> level 3, 1900mm -> level 4
        cloud = np.array([[0.0, -1200 + 1250.0, 2000.0],
                          [200.0, -1200 + 1900.0, 2500.0]])
        grid = rasterize_raw(cloud, G, ground_y=-1200.0)
        assert grid.cells[map_to_area(0, 2000, G)[::-1]] == 3
        assert grid.cells[map_to_area(200, 2500, G)[::-1]] == 4

    def test_out_of_frustum_dropped(self):
        cloud = np.array([[0.0, 0.0, 500.0], [5000.0, 0.0, 2000.0]])
        grid = rasterize_raw(cloud, G, ground_y=0.0)
        assert set(np.unique(grid.cells[grid.active])) == {1}

    def test_box_scene_covers_footprint(self, kinect):
        from hapmap import scenegen
        from hapmap.depthio import backproject
        spec = scenegen.SceneSpec(camera_height=1200, floor_extent=4000,
                                  boxes=[scenegen.BoxSpec(0, 2600, 600, 500, 700)])
        frame, _ = scenegen.render_depth(spec, kinect)
        cloud = backproject(frame, kinect)
        grid = rasterize_raw(cloud, G, ground_y=-1200.0)
        # every strictly interior footprint pin receives a level-2 point
        # (box top is 700mm -> band 1 -> level 2)
        for z in np.arange(2400, 2800, 25.0):
            for x in np.arange(-250, 260, 25.0):
                u, v = map_to_area(x, z, G)
                assert grid.cells[v, u] == 2


class TestEmit:
    def test_json_roundtrip(self):
        obj = rect_descriptor(0, 2500, 600, 600, 750.0, label="put_on")
        grid = rasterize_scene([], [obj], G)
        assert parse_grid_json(emit(grid, "json")) == grid

    def test_ascii_shape(self):
        blob = emit(PinGrid.empty(G), "ascii").decode("utf-8")
        lines = blob.strip("\n").split("\n")
        assert len(lines) == G.rows
        assert all(len(line) == G.cols for line in lines)

    @settings(max_examples=200)
    @given(rows=st.integers(0, 12), cols=st.integers(0, 15), data=st.data())
    def test_ascii_matches_cell_loop(self, rows, cols, data):
        levels = data.draw(st.lists(st.integers(-1, 4), min_size=rows * cols,
                                    max_size=rows * cols))
        grid = PinGrid(np.array(levels, dtype=np.int8).reshape(rows, cols))
        assert emit(grid, "ascii") == loop_emit_ascii(grid.cells)

    def test_ascii_matches_cell_loop_on_scene(self):
        obj = rect_descriptor(0, 2500, 600, 600, 750.0, label="put_on")
        grid = rasterize_scene([], [obj], G)
        assert set(np.unique(grid.cells)) >= {-1, 1, 2}
        assert emit(grid, "ascii") == loop_emit_ascii(grid.cells)

    def test_empty_scene_pgm_bytes(self):
        blob = emit(PinGrid.empty(G), "pgm")
        header, payload = blob.split(b"255\n", 1)
        cells = np.frombuffer(payload, dtype=np.uint8).reshape(G.rows, G.cols)
        mask = trapezoid_mask(G)
        assert (cells[mask] == 90).all()        # 40 + 50 * level 1
        assert (cells[~mask] == 0).all()

    def test_unknown_format(self):
        with pytest.raises(ValueError, match="unknown format"):
            emit(PinGrid.empty(G), "svg")


class TestPinLevels:
    """A level outside -1..4 or not whole is rejected before the int8
    cast, which would wrap 257 to 1 and cut 1.7 to 1."""

    @pytest.mark.parametrize("bad", [257, -129, 1.7, 5, -2, np.nan])
    def test_rejected(self, bad):
        with pytest.raises(ValueError, match="whole numbers in -1..4"):
            PinGrid(np.array([[1, bad]]))

    @pytest.mark.parametrize("bad", ["257", "-129", "1.7", "1e30", "null", '"1"'])
    def test_json_cell_rejected(self, bad):
        blob = b'{"rows":1,"cols":2,"cells":[1,%s]}' % bad.encode()
        with pytest.raises(ValueError, match="whole numbers in -1..4"):
            parse_grid_json(blob)

    def test_whole_levels_of_any_type_accepted(self):
        for cells in ([[-1.0, 4.0]], [[-1, 4]], [[False, True]]):
            assert PinGrid(np.array(cells)).cells.dtype == np.int8
        assert PinGrid(np.array([[-1.0, 4.0]])) == PinGrid(np.array([[-1, 4]], dtype=np.int8))
