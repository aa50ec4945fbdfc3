"""The synthetic depth-camera oracle itself gets checked against analytic
ray solutions and simple counting arguments, since everything else in the
suite leans on it."""

import numpy as np
import pytest

from hapmap import scenegen
from hapmap.depthio import Intrinsics, backproject
from hapmap.scenegen import (BoxSpec, HoleSpec, SceneSpec, floor_depth_at,
                             parse_scene_spec, format_scene_spec,
                             render_depth, sample_box_cloud)

K = Intrinsics(fx=143.95, fy=143.95, cx=79.5, cy=59.5)
W, H = 160, 120


def render(spec, seed=0):
    return render_depth(spec, K, W, H, rng=np.random.default_rng(seed))


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
        f1, _ = render(spec, seed=1)
        f2, _ = render(spec, seed=2)
        assert f1 == f2

    def test_noise_changes_depth_but_not_masks(self):
        spec = SceneSpec(camera_height=1100, floor_extent=4000, noise_sigma=10,
                         boxes=[BoxSpec(100, 2500, 400, 400, 300)])
        f1, t1 = render(spec, seed=1)
        f2, t2 = render(spec, seed=2)
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
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
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
