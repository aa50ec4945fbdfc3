"""The synthetic depth-camera oracle itself gets checked against analytic
ray solutions and simple counting arguments, since everything else in the
suite leans on it."""

from dataclasses import replace

import numpy as np
import pytest

from hapmap import scenegen
from hapmap.depthio import DEFAULT_INTRINSICS, Intrinsics, backproject
from hapmap.scenegen import (BoxSpec, HoleSpec, SceneSpec, parse_scene_spec,
                             format_scene_spec, render_depth, sample_box_cloud)
from oracles import floor_depth_at, full_frame_render_depth

K = Intrinsics(fx=143.95, fy=143.95, cx=79.5, cy=59.5)
W, H = 160, 120


def render(spec):
    return render_depth(spec, K, W, H)


class TestRender:
    def test_floor_only_all_ground(self):
        frame, truth = render(SceneSpec(camera_height=1200, floor_extent=4000))
        assert frame.pixels.size > 0
        np.testing.assert_array_equal(truth.ground_mask, frame.data > 0)

    def test_floor_matches_analytic_ray(self):
        spec = SceneSpec(camera_height=1200, floor_extent=4000)
        frame, _ = render(spec)
        for v in (80, 100, 119):
            expected = floor_depth_at(v, K, 1200)
            if expected <= 4000:
                # rendered depth is rounded to integer mm
                assert abs(float(frame.data[v, 80]) - expected) < 0.5

    def test_box_mask_and_height(self):
        spec = SceneSpec(camera_height=1200, floor_extent=4200,
                         boxes=[BoxSpec(0, 2000, 500, 500, 450)])
        frame, truth = render(spec)
        on_box = truth.object_masks[0].ravel()[frame.pixels]
        assert on_box.sum() > 0
        # the camera looks down on the box top: its highest pixels lie at
        # the box height above the floor, up to the integer-mm depth
        top = backproject(frame, K)[on_box, 1].max()
        assert top == pytest.approx(-1200 + 450, abs=2)
        np.testing.assert_allclose(
            spec.boxes[0].footprint,
            [[-250, 1750], [250, 1750], [250, 2250], [-250, 2250]])

    def test_box_front_face_depth(self):
        # a box tall enough to stand in front of the camera: front face at
        # z = center_z - depth/2 = 1750
        spec = SceneSpec(camera_height=1200, floor_extent=4200,
                         boxes=[BoxSpec(0, 2000, 600, 500, 1500)])
        frame, truth = render(spec)
        vs, us = np.nonzero(truth.object_masks[0])
        center = (vs < 60) & (us == 80)  # rays above the horizon hit the front
        assert center.any()
        assert np.all(frame.data[vs[center], us[center]] == 1750)

    def test_noiseless_deterministic(self):
        spec = SceneSpec(camera_height=1100, floor_extent=4000,
                         boxes=[BoxSpec(100, 2500, 400, 400, 300)])
        f1, _ = render(replace(spec, seed=1))
        f2, _ = render(replace(spec, seed=2))
        assert f1 == f2

    def test_noise_changes_depth_but_not_masks(self):
        spec = SceneSpec(camera_height=1100, floor_extent=4000, noise_sigma=10,
                         boxes=[BoxSpec(100, 2500, 400, 400, 300)])
        f1, t1 = render(replace(spec, seed=1))
        f2, t2 = render(replace(spec, seed=2))
        assert f1 != f2
        np.testing.assert_array_equal(t1.ground_mask, t2.ground_mask)

    def test_masks_partition_valid_pixels(self):
        spec = SceneSpec(camera_height=1200, floor_extent=4000, noise_sigma=0,
                         boxes=[BoxSpec(-400, 2600, 500, 500, 600),
                                BoxSpec(500, 3200, 400, 400, 900)])
        frame, truth = render(spec)
        union = truth.ground_mask.copy()
        for m in truth.object_masks:
            assert not (union & m).any()
            union |= m
        np.testing.assert_array_equal(union, frame.data > 0)

    def test_hole_returns_zero(self):
        spec = SceneSpec(camera_height=1200, floor_extent=4000,
                         holes=[HoleSpec(0, 3000, 800, 500)])
        frame, truth = render(spec)
        base, _ = render(SceneSpec(camera_height=1200, floor_extent=4000))
        knocked = (base.data > 0) & (frame.data == 0)
        assert knocked.sum() > 0
        assert not truth.ground_mask[knocked].any()

    def test_degenerate_specs(self):
        with pytest.raises(ValueError):
            SceneSpec(camera_height=0)
        with pytest.raises(ValueError):
            SceneSpec(camera_height=1000, floor_extent=-5)
        with pytest.raises(ValueError):
            SceneSpec(camera_height=1000, floor_extent=2000,
                      boxes=[BoxSpec(0, 2500, 400, 400, 300)])
        # a hole off the floor would knock out nothing: the box rule holds
        for hole in [(0, 2500, 400, 400), (0, 100, 400, 400),
                     (900, 1000, 400, 400)]:
            with pytest.raises(ValueError, match="hole at .* outside the floor"):
                SceneSpec(camera_height=1000, floor_extent=2000,
                          holes=[HoleSpec(*hole)])


def random_scene(rng):
    """Floor of 3-8 m with up to 8 boxes and 2 holes anywhere on it: some
    touch z = 0, some are taller than the camera, many leave the image."""
    extent = float(rng.uniform(3000, 8000))
    cam_h = float(rng.uniform(300, 2000))

    def rect():
        w, d = rng.uniform(50, 1500, 2)
        cz = d / 2 if rng.random() < 0.2 else rng.uniform(d / 2, extent - d / 2)
        cx = rng.uniform(-(extent - w) / 2, (extent - w) / 2)
        return float(cx), float(cz), float(w), float(d)

    boxes = [BoxSpec(*rect(), float(rng.uniform(20, 2.5 * cam_h)))
             for _ in range(rng.integers(0, 9))]
    holes = [HoleSpec(*rect()) for _ in range(rng.integers(0, 3))]
    return SceneSpec(camera_height=cam_h, floor_extent=extent,
                     noise_sigma=float(rng.choice([0.0, 10.0])), boxes=boxes,
                     holes=holes, seed=int(rng.integers(100)))


#: (intrinsics, width, height): the default camera, the 160x120 one with the
#: same field of view, and a small one whose principal point is a whole pixel
CAMERAS = [(DEFAULT_INTRINSICS, 640, 480), (K, W, H),
           (Intrinsics(fx=57.0, fy=57.0, cx=32.0, cy=24.0), 64, 48)]

#: scenes for the windowed caster, each with the case it covers
WINDOW_CASES = {
    "near_face_at_z0": SceneSpec(camera_height=1200, floor_extent=4000,
                                 boxes=[BoxSpec(-300, 250, 400, 500, 1500)]),
    "cut_by_each_border": SceneSpec(
        camera_height=1200, floor_extent=6000, noise_sigma=10, boxes=[
            BoxSpec(-1300, 2000, 600, 500, 400),       # left
            BoxSpec(1300, 2500, 600, 500, 400),        # right
            BoxSpec(0, 3000, 800, 400, 2600),          # top, above the camera
            BoxSpec(500, 1700, 400, 400, 1000)]),      # bottom
    "hole_behind_box": SceneSpec(
        camera_height=1200, floor_extent=5000,
        boxes=[BoxSpec(100, 2400, 500, 400, 600)],
        holes=[HoleSpec(0, 3100, 1200, 700)]),
    "floor_ends_in_view": SceneSpec(
        camera_height=1200, floor_extent=3000, noise_sigma=10,
        boxes=[BoxSpec(0, 2750, 600, 500, 500)],
        holes=[HoleSpec(-500, 2850, 600, 300)]),
}


class TestWindowedCaster:
    """render_depth against the whole-frame caster, byte for byte.

    A box is ray-cast only in the window spanned by the columns whose x
    slab interval meets its z slab (and t > 0) and the rows whose y slab
    interval does.  A ray that hits the box has its entry t at most its
    exit t on all three slabs together, so it passes both 1-D tests, which
    take the same floats as the per-pixel test: the window holds every
    pixel the box can win with no pad for rounding, even for a near face at
    z = 0, which no projection of the corners could bound.  A hole is
    tested on the rows whose floor depth lies within its z range, and a
    floor pixel's depth is its row's floor depth.
    """

    @staticmethod
    def assert_same_render(spec, k, width, height):
        frame, truth = render_depth(spec, k, width, height)
        want, want_truth = full_frame_render_depth(spec, k, width, height)
        assert frame.data.tobytes() == want.data.tobytes()
        assert truth.ground_mask.tobytes() == want_truth.ground_mask.tobytes()
        assert len(truth.object_masks) == len(spec.boxes)
        for got, ref in zip(truth.object_masks, want_truth.object_masks):
            assert got.tobytes() == ref.tobytes()
        return truth

    @pytest.mark.parametrize("camera", CAMERAS, ids=["640x480", "160x120",
                                                     "64x48_whole_pixel"])
    @pytest.mark.parametrize("case", WINDOW_CASES)
    def test_cases(self, case, camera):
        truth = self.assert_same_render(WINDOW_CASES[case], *camera)
        if camera[1] == 640:      # each box in view is hit somewhere
            assert all(m.any() for m in truth.object_masks)

    def test_random_scenes(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            spec = random_scene(rng)
            for camera in CAMERAS[1:]:
                self.assert_same_render(spec, *camera)

    def test_whole_pixel_principal_point(self):
        # the centre column's rays have dx == 0: on sky rows a hole test on
        # x = dx * t met 0 * inf there (a RuntimeWarning fails the suite)
        k = Intrinsics(fx=525.0, fy=525.0, cx=320.0, cy=240.0)
        spec = SceneSpec(camera_height=1200, floor_extent=5000,
                         boxes=[BoxSpec(600, 2500, 400, 400, 500)],
                         holes=[HoleSpec(0, 3000, 800, 500)])
        frame, _ = render_depth(spec, k, 640, 480)
        base, _ = render_depth(SceneSpec(camera_height=1200, floor_extent=5000,
                                         boxes=spec.boxes), k, 640, 480)
        column = frame.data[:, 320]
        assert (column[:241] == 0).all()           # horizon row and above
        knocked = np.flatnonzero((base.data[:, 320] > 0) & (column == 0))
        assert knocked.size > 0
        assert all(abs(floor_depth_at(v, k, 1200) - 3000) <= 250
                   for v in knocked)
        self.assert_same_render(spec, k, 640, 480)


#: one value per key of a valid scene file
SCENE_LINES = {"camera_height": "1200", "floor_extent": "4000",
               "noise_sigma": "5", "box": "0 2000 300 400 500 box",
               "hole": "0 1500 200 200"}
#: (key, position in the value, field named in the error) of every number
SCENE_NUMBERS = (
    [(key, 0, f"SceneSpec.{key}")
     for key in ("camera_height", "floor_extent", "noise_sigma")]
    + [("box", i, f"BoxSpec.{name}") for i, name in enumerate(
        ("center_x", "center_z", "width", "depth", "height"))]
    + [("hole", i, f"HoleSpec.{name}") for i, name in enumerate(
        ("center_x", "center_z", "width", "depth"))])


class TestSceneSpecFile:
    def test_roundtrip(self):
        spec = SceneSpec(camera_height=1150, floor_extent=4000, noise_sigma=5,
                         seed=9, boxes=[BoxSpec(10, 2000, 300, 400, 500, "chair")],
                         holes=[HoleSpec(0, 1500, 200, 200)])
        assert parse_scene_spec(format_scene_spec(spec)) == spec

    def test_parse_commas_and_comments(self):
        text = "camera_height=1200 # head height\nbox=0,2000,500,500,450,box\n"
        spec = parse_scene_spec(text)
        assert spec.boxes[0].height == 450

    def test_missing_camera_height(self):
        with pytest.raises(ValueError, match="camera_height"):
            parse_scene_spec("floor_extent=4000\n")

    def test_unknown_key(self):
        with pytest.raises(ValueError, match="unknown key"):
            parse_scene_spec("camera_height=1200\nwall=3\n")

    def test_box_and_hole_lines_repeat(self):
        spec = parse_scene_spec("camera_height=1200\nbox=0 2000 300 300 400 box"
                                "\nhole=0 1500 200 200\nbox=0 3000 300 300 "
                                "400 chair\nhole=500 1500 200 200\n")
        assert [b.fine_class for b in spec.boxes] == ["box", "chair"]
        assert [h.center_x for h in spec.holes] == [0, 500]

    def test_valid_scene_lines(self):
        text = "".join(f"{k}={v}\n" for k, v in SCENE_LINES.items())
        spec = parse_scene_spec(text)
        assert spec.boxes[0].height == 500 and spec.holes[0].depth == 200

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    @pytest.mark.parametrize("key, pos, name", SCENE_NUMBERS,
                             ids=[name for *_, name in SCENE_NUMBERS])
    def test_non_finite_field(self, key, pos, name, bad):
        lines = dict(SCENE_LINES)
        tokens = lines[key].split()
        tokens[pos] = bad
        lines[key] = " ".join(tokens)
        text = "".join(f"{k}={v}\n" for k, v in lines.items())
        lineno = list(lines).index(key) + 1
        with pytest.raises(ValueError, match=f"^scene line {lineno}: {key}: "
                           f"{name} must be finite$"):
            parse_scene_spec(text)


class TestSampleBoxCloud:
    def test_deterministic(self):
        a = sample_box_cloud("chair", np.random.default_rng(5))
        b = sample_box_cloud("chair", np.random.default_rng(5))
        np.testing.assert_array_equal(a, b)

    def test_stairs_arithmetic_ladder(self):
        pts = sample_box_cloud("stairs", np.random.default_rng(3))
        levels = np.unique(pts[:, 1])
        assert len(levels) >= 3
        steps = np.diff(levels)
        np.testing.assert_allclose(steps, steps[0], rtol=1e-9)

    def test_point_count_and_finite(self):
        for cls in scenegen.SYNTHETIC_CLASSES:
            pts = sample_box_cloud(cls, np.random.default_rng(1), n_points=256)
            assert pts.shape == (256, 3)
            assert np.isfinite(pts).all()

    def test_unknown_class(self):
        with pytest.raises(ValueError, match="unknown class"):
            sample_box_cloud("piano", np.random.default_rng(0))

    def test_taxonomy_matches_classifier(self):
        from hapmap.classifier import FINE_CLASSES
        assert set(scenegen.SYNTHETIC_CLASSES) == set(FINE_CLASSES)

    def test_nearest_centroid_separability(self):
        # sanity floor: (height, bbox aspect) nearest-centroid on the fine
        # classes, merged to the 6 training groups, beats 60%
        from hapmap.classifier import (TRAINED_FINE_CLASSES, merge_labels)
        rng = np.random.default_rng(11)

        def feats(p):
            h = p[:, 1].max() - p[:, 1].min()
            footprint = max(np.ptp(p[:, 0]), np.ptp(p[:, 2]))
            return np.array([h, h / footprint])

        train = {c: np.mean([feats(sample_box_cloud(c, rng)) for _ in range(12)],
                            axis=0) for c in TRAINED_FINE_CLASSES}
        scale = np.std(np.array(list(train.values())), axis=0)
        hits = total = 0
        for c in TRAINED_FINE_CLASSES:
            for _ in range(12):
                f = feats(sample_box_cloud(c, rng))
                best = min(train, key=lambda t: np.sum(((f - train[t]) / scale) ** 2))
                hits += merge_labels(best) == merge_labels(c)
                total += 1
        assert hits / total > 0.6
