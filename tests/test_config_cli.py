"""Config parsing, pipeline orchestration, and the command-line surface."""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hapmap import classifier as clf
from hapmap import cli, dcgd, depthio, pipeline, scenegen
from hapmap.config import (OUTPUT_FORMATS, PipelineConfig, format_config,
                           parse_config)
from hapmap.geomfeat import GeometryThresholds
from hapmap.pipeline import (StageError, analyze_depth_file, analyze_scene,
                             run_pipeline)
from hapmap.synthgrid import AreaGeometry, map_to_area

from conftest import parse_grid_json, positive_floats

K_SMALL = depthio.Intrinsics(143.95, 143.95, 79.5, 59.5)


@pytest.fixture
def box_scene(tmp_path):
    """160x120 rendered scene with one 600x500x600 box at (0, 2400)."""
    spec = scenegen.SceneSpec(camera_height=1200, floor_extent=4000,
                              noise_sigma=10, seed=3,
                              boxes=[scenegen.BoxSpec(0, 2400, 600, 500, 600)])
    frame, truth = scenegen.render_depth(spec, K_SMALL, 160, 120)
    depth = tmp_path / "depth.pgm"
    depth.write_bytes(depthio.depth_to_pgm(frame))
    intr = tmp_path / "intr.txt"
    intr.write_text(depthio.format_intrinsics(K_SMALL))
    cfg_file = tmp_path / "cfg.txt"
    cfg_file.write_text(f"intrinsics.path={intr}\noutput.format=json\n")
    return depth, cfg_file, truth


def increasing_pair():
    """Two distinct positive finite floats, the smaller first."""
    return st.lists(positive_floats, min_size=2, max_size=2,
                    unique=True).map(sorted)


@st.composite
def configs(draw):
    """A valid PipelineConfig with every key drawn, nested groups included."""
    path = st.text(" /._-=abz09", max_size=12).map(str.strip)
    count = st.integers(1, 10**6)
    z0, zf = draw(increasing_pair())
    (h1, h2), (a1, a2) = draw(increasing_pair()), draw(increasing_pair())
    return PipelineConfig(
        intrinsics_path=draw(path),
        dcgd=dcgd.DcgdParams(z0, zf, *(draw(positive_floats) for _ in range(3))),
        segment_link_mm=draw(positive_floats),
        segment_min_px=draw(count),
        model_path=draw(path),
        confidence_threshold=draw(st.floats(0, 1, exclude_min=True,
                                            exclude_max=True)),
        thresholds=GeometryThresholds(h1, h2, a1, a2),
        grid_small_basis=draw(count), grid_rows=draw(count),
        grid_cols=draw(count),
        glyphs_path=draw(path),
        output_format=draw(st.sampled_from(OUTPUT_FORMATS)),
        seed=draw(st.integers(0, 2**64)))


class TestConfig:
    def test_reference_roundtrip(self):
        cfg = PipelineConfig()
        assert parse_config(format_config(cfg)) == cfg

    @given(configs())
    def test_every_key_roundtrips(self, cfg):
        assert parse_config(format_config(cfg)) == cfg

    def test_section_overrides(self):
        cfg = parse_config("segment.link_mm=120\ndcgd.dz=25\ngeometry.area_low=0.3\n"
                           "classifier.threshold=0.7\nseed=9\nsegment.min_px=50\n")
        assert cfg.segment_link_mm == 120
        assert cfg.segment_min_px == 50
        assert cfg.dcgd.dz == 25
        assert (cfg.thresholds.area_low, cfg.thresholds.area_high) == (0.3, 1.0)
        assert cfg.confidence_threshold == 0.7
        assert cfg.seed == 9

    def test_unknown_key(self):
        with pytest.raises(ValueError, match="unknown key"):
            parse_config("dbscan.epsilon=5\n")

    @pytest.mark.parametrize("key", ["passthrough.zmin", "passthrough.zmax",
                                     "grid.near", "grid.far"])
    def test_band_has_one_pair_of_keys(self, key):
        # dcgd.z0/zf is the only depth band; the old per-stage copies are gone
        with pytest.raises(ValueError, match="unknown key"):
            parse_config(f"{key}=800\n")

    @pytest.mark.parametrize("key", ["voxel.leaf", "dbscan.eps",
                                     "dbscan.min_pts"])
    def test_voxel_and_dbscan_keys_are_gone(self, key):
        # segment.link_mm and segment.min_px set the image segmentation
        with pytest.raises(ValueError, match="unknown key"):
            parse_config(f"{key}=80\n")

    def test_readme_lists_every_key(self):
        readme = (Path(__file__).parent.parent / "README.md").read_text()
        section = readme.split("## Configuration", 1)[1]
        block = section.split("```", 2)[1]
        documented = [token.split("=", 1)[0]
                      for line in block.splitlines()
                      for token in line.split("#", 1)[0].split()
                      if "=" in token]
        keys = [line.split("=", 1)[0]
                for line in format_config(PipelineConfig()).splitlines()]
        assert sorted(documented) == sorted(keys)

    def test_invalid_values(self):
        with pytest.raises(ValueError):
            parse_config("classifier.threshold=1.5\n")
        with pytest.raises(ValueError):
            parse_config("dcgd.z0=5000\ndcgd.zf=800\n")
        with pytest.raises(ValueError):
            parse_config("dcgd.z0=0\n")
        with pytest.raises(ValueError):
            parse_config("segment.min_px=0\n")
        with pytest.raises(ValueError):
            parse_config("segment.link_mm=-1\n")
        with pytest.raises(ValueError):
            parse_config("output.format=bmp\n")

    def test_negative_seed(self):
        # numpy's generators take only non-negative seeds; fail when read
        with pytest.raises(ValueError, match="seed must be non-negative"):
            parse_config("seed=-1\n")
        with pytest.raises(ValueError, match="seed must be non-negative"):
            PipelineConfig(seed=-1)

    @pytest.mark.parametrize("parse, text", [
        (parse_config, "segment.link_mm=nan"),
        (parse_config, "segment.link_mm=inf"),
        (parse_config, "dcgd.zf=nan"),
        (parse_config, "dcgd.dz=nan"),
        (parse_config, "dcgd.z0=inf"),
        (parse_config, "geometry.height_high=inf"),
        (depthio.load_intrinsics, "fx=nan\nfy=575.8\ncx=319.5\ncy=239.5"),
        (depthio.load_intrinsics, "fx=1\nfy=1\ncx=nan\ncy=1"),
        (depthio.load_intrinsics, "fx=1\nfy=1\ncx=1\ncy=inf"),
    ], ids=["link_mm", "link_mm_inf", "far", "dz", "near", "height_high", "fx",
            "cx", "cy"])
    def test_non_finite_values(self, parse, text):
        # NaN fails every comparison, so a `value <= 0` check lets it through
        with pytest.raises(ValueError, match="finite"):
            parse(text)

    @pytest.mark.parametrize("parse, error, message", [
        (parse_config, ValueError, "config line {n}: "),
        (depthio.load_intrinsics, depthio.DepthFormatError, "intrinsics line {n}: "),
        (scenegen.parse_scene_spec, ValueError, "scene line {n}: "),
    ], ids=["config", "intrinsics", "scene"])
    def test_key_value_line_errors(self, parse, error, message):
        # Comments and blank lines count toward the reported line number.
        head = "# header\n\n   # indented comment\n"
        with pytest.raises(error) as exc:
            parse(head + "no equals sign here\n")
        assert str(exc.value) == message.format(n=4) + "expected key=value"
        with pytest.raises(error) as exc:
            parse(head + " bogus.key = 1  # trailing comment\n")
        assert str(exc.value) == message.format(n=4) + "unknown key 'bogus.key'"

    @pytest.mark.parametrize("parse, error, line, message", [
        (parse_config, ValueError, "seed=1.5", "config line 4: seed: "
         "invalid literal for int() with base 10: '1.5'"),
        (parse_config, ValueError, "dcgd.dz=", "config line 4: dcgd.dz: "
         "could not convert string to float: ''"),
        (parse_config, ValueError, "geometry.area_low=x", "config line 4: "
         "geometry.area_low: could not convert string to float: 'x'"),
        (depthio.load_intrinsics, depthio.DepthFormatError, "fx=",
         "intrinsics line 4: fx: could not convert string to float: ''"),
        (scenegen.parse_scene_spec, ValueError, "box=1 2 3 4 x box",
         "scene line 4: box: could not convert string to float: 'x'"),
        (scenegen.parse_scene_spec, ValueError, "hole=1 2 3 y",
         "scene line 4: hole: could not convert string to float: 'y'"),
        (scenegen.parse_scene_spec, ValueError, "seed=2.5",
         "scene line 4: seed: invalid literal for int() with base 10: '2.5'"),
        (scenegen.parse_scene_spec, ValueError, "camera_height=",
         "scene line 4: camera_height needs 1 value"),
        (scenegen.parse_scene_spec, ValueError, "seed=",
         "scene line 4: seed needs 1 value"),
        (scenegen.parse_scene_spec, ValueError, "camera_height=1200 1300",
         "scene line 4: camera_height needs 1 value"),
        (scenegen.parse_scene_spec, ValueError, "hole=1 2 3",
         "scene line 4: hole needs 4 fields"),
        (scenegen.parse_scene_spec, ValueError, "box=0 2000 -5 500 450 box",
         "scene line 4: box: box dimensions must be positive"),
        (scenegen.parse_scene_spec, ValueError, "camera_height=nan",
         "scene line 4: camera_height: SceneSpec.camera_height must be finite"),
        (scenegen.parse_scene_spec, ValueError, "camera_height=0",
         "scene line 4: camera_height: camera must sit above the floor"),
        (scenegen.parse_scene_spec, ValueError, "seed=-1",
         "scene line 4: seed: seed must be non-negative"),
        # the floor check waits for floor_extent on a later line
        (scenegen.parse_scene_spec, ValueError,
         "camera_height=1200\nhole=0 3000 400 400\nfloor_extent=2000",
         "scene line 5: hole: hole at (0.0, 3000.0) lies outside the floor "
         "extent"),
        (parse_config, ValueError, "seed=1\nseed=2",
         "config line 5: seed already set on line 4"),
        (depthio.load_intrinsics, depthio.DepthFormatError, "fx=1\nfx=2",
         "intrinsics line 5: fx already set on line 4"),
        (scenegen.parse_scene_spec, ValueError,
         "camera_height=1200\ncamera_height=900",
         "scene line 5: camera_height already set on line 4"),
    ], ids=["config_int", "config_float", "config_threshold", "intrinsics",
            "box_field", "hole_field", "scene_int", "empty_scalar",
            "empty_seed", "extra_value", "short_hole", "box_range",
            "scalar_not_finite", "scalar_range", "seed_range", "hole_off_floor",
            "config_repeat", "intrinsics_repeat", "scene_repeat"])
    def test_bad_value_names_line_and_key(self, parse, error, line, message):
        head = "# header\n\n   # indented comment\n"
        with pytest.raises(error) as exc:
            parse(head + line + "\n")
        assert str(exc.value) == message


class TestRunPipeline:
    def test_geometry_only_single_footprint(self, box_scene):
        depth, cfg_file, _ = box_scene
        cfg = parse_config(cfg_file.read_text())
        result = run_pipeline(cfg, depth)
        assert len(result.descriptors) == 1
        desc = result.descriptors[0]
        assert desc.label is None and desc.confidence is None
        assert desc.geometry.height_class == 2
        # grid holds the §ground plus exactly one level-2 region inside the
        # mapped true footprint
        assert set(np.unique(result.grid.cells[result.grid.active])) == {1, 2}
        g = AreaGeometry.from_intrinsics(K_SMALL, 160)
        u0, v0 = map_to_area(-300, 2150, g)
        u1, v1 = map_to_area(300, 2650, g)
        vs, us = np.nonzero(result.grid.cells == 2)
        assert vs.min() >= v0 - 1 and vs.max() <= v1 + 1
        assert us.min() >= u0 - 1 and us.max() <= u1 + 1

    def test_report_format(self, box_scene):
        depth, cfg_file, _ = box_scene
        result = run_pipeline(parse_config(cfg_file.read_text()), depth)
        lines = result.report.strip().split("\n")
        assert lines[0].startswith("# segment")
        cells = lines[1].split("\t")
        assert cells[0] == "0" and cells[1] == "none"
        assert 500 < float(cells[2]) < 700        # p90 of a 600mm box
        u, v = map(int, cells[6].split(","))
        assert result.pins[0] == (u, v)

    @settings(max_examples=60, deadline=None)
    @given(depths=st.lists(st.integers(0, 6000), min_size=12 * 16,
                           max_size=12 * 16),
           z0=st.integers(100, 3000), width=st.integers(50, 3000),
           dz=st.integers(10, 400))
    def test_points_in_band_imply_ground(self, depths, z0, width, dz):
        # the cuts cover the whole band, and DCGD never claims the lowest
        # in-band entry as object, so an in-band point means ground exists
        frame = depthio.DepthFrame(np.array(depths).reshape(12, 16))
        k = depthio.Intrinsics(20.0, 20.0, 7.5, 5.5)
        cfg = parse_config(f"dcgd.z0={z0}\ndcgd.zf={z0 + width}\ndcgd.dz={dz}\n")
        scene = analyze_scene(cfg, frame, k)
        assert scene.cloud.shape == (scene.on_ground.size, 3)
        z = scene.cloud[:, 2]
        assert scene.on_ground.any() or not ((z >= z0) & (z <= z0 + width)).any()

    @pytest.mark.parametrize("dz", [50, 70, 130])
    def test_empty_floor_has_no_objects_at_any_cut_step(self, dz):
        # floor with one hole: a step that does not divide the band still
        # needs a cut at or past dcgd.zf, or the floor just short of zf
        # comes out as objects
        spec = scenegen.parse_scene_spec(
            "camera_height=1200\nfloor_extent=8000\nnoise_sigma=10\n"
            "seed=851441250\nhole=-749.0 3710.0 451.0 259.0\n")
        frame, _ = scenegen.render_depth(spec, depthio.DEFAULT_INTRINSICS)
        scene = analyze_scene(parse_config(f"dcgd.dz={dz}\n"), frame,
                              depthio.DEFAULT_INTRINSICS)
        assert scene.segments == []

    def test_missing_depth_names_stage(self, box_scene, tmp_path):
        _, cfg_file, _ = box_scene
        with pytest.raises(StageError) as err:
            run_pipeline(parse_config(cfg_file.read_text()), tmp_path / "nope.pgm")
        assert err.value.stage == "depthio"

    @pytest.mark.parametrize("field, value", [("cx", 160.0), ("cy", -0.5)])
    def test_principal_point_outside_image_names_stage(self, box_scene,
                                                      tmp_path, field, value):
        depth, cfg_file, _ = box_scene
        intr = tmp_path / "outside.txt"
        intr.write_text(depthio.format_intrinsics(
            replace(K_SMALL, **{field: value})))
        cfg = parse_config(f"intrinsics.path={intr}\n")
        with pytest.raises(StageError, match="principal point") as err:
            run_pipeline(cfg, depth)
        assert err.value.stage == "dcgd"

    def test_one_backprojection_per_frame(self, box_scene, tmp_path,
                                          monkeypatch):
        calls, scenes = [], []
        backproject = depthio.backproject

        def counted(frame, k):
            calls.append(frame.data.shape)
            return backproject(frame, k)

        def analyze(*args):
            scenes.append(args)
            return analyze_scene(*args)

        monkeypatch.setattr(depthio, "backproject", counted)
        depth, cfg_file, _ = box_scene
        cfg = parse_config(cfg_file.read_text())
        analyze_depth_file(cfg, depth)
        assert calls == [(120, 160)]
        # every depth subcommand runs the one front end once
        monkeypatch.setattr(pipeline, "analyze_scene", analyze)
        for argv in (["run"], ["ground", "--cuts", str(tmp_path / "cuts.txt")],
                     ["segment"], ["features"], ["synth", "--raw"]):
            calls.clear()
            scenes.clear()
            out = [] if argv == ["features"] else ["--out", str(tmp_path / "o")]
            rc = cli.main([*argv, "--depth", str(depth), "--config",
                           str(cfg_file), *out])
            assert rc == 0, argv
            assert calls == [(120, 160)] and len(scenes) == 1, argv

    @pytest.mark.parametrize("extra, message", [
        ("", "far basis exceeds the grid width"),
        ("grid.cols=150\n", "depth extent exceeds the grid height")])
    def test_grid_misfit_fails_before_analysis(self, box_scene, monkeypatch,
                                               extra, message):
        def not_reached(*args, **kwargs):
            raise AssertionError("ground detection ran")

        monkeypatch.setattr(dcgd, "detect_ground", not_reached)
        depth, cfg_file, _ = box_scene
        cfg = parse_config(cfg_file.read_text() + "dcgd.zf=5000\n" + extra)
        with pytest.raises(StageError, match=message) as err:
            run_pipeline(cfg, depth)
        assert err.value.stage == "synthgrid"

    def test_deterministic(self, box_scene):
        depth, cfg_file, _ = box_scene
        cfg = parse_config(cfg_file.read_text())
        a = run_pipeline(cfg, depth)
        b = run_pipeline(cfg, depth)
        assert a.emitted == b.emitted
        assert a.report == b.report

    def test_custom_glyph_sheet(self, box_scene, tmp_path):
        from hapmap.labeling import builtin_sheet, parse_glyph_sheet
        # swap the stairs glyphs: still a valid sheet, different data
        text = builtin_sheet().to_text()
        swapped = (text.replace("stairs_up\n", "stairs_tmp\n")
                      .replace("stairs_down\n", "stairs_up\n")
                      .replace("stairs_tmp\n", "stairs_down\n"))
        sheet_path = tmp_path / "sheet.txt"
        sheet_path.write_text(swapped)
        depth, cfg_file, _ = box_scene
        cfg_text = cfg_file.read_text() + f"glyphs.path={sheet_path}\n"
        cfg = parse_config(cfg_text)
        result = run_pipeline(cfg, depth)   # loads and validates the sheet
        assert result.grid.cells.max() == 2
        assert parse_glyph_sheet(swapped)["stairs_up"].bitmap == \
            builtin_sheet()["stairs_down"].bitmap

    @pytest.mark.parametrize("text", [None, "sit_on\n#....\n"],
                             ids=["missing", "bad"])
    def test_bad_glyph_sheet_fails_before_frame_work(self, tmp_path, text):
        # the depth file is missing too, so its error would hide the sheet's
        sheet_path = tmp_path / "sheet.txt"
        if text is not None:
            sheet_path.write_text(text)
        cfg = parse_config(f"glyphs.path={sheet_path}\n")
        with pytest.raises(StageError) as err:
            run_pipeline(cfg, tmp_path / "nope.pgm")
        assert err.value.stage == "synthgrid"


def main_segment_of(frame):
    segs = analyze_scene(PipelineConfig(), frame, K_SMALL).segments
    return max(segs, key=lambda s: len(s.points)).points


def rendered_box_segment(rng, seed):
    """Largest occupied-space segment of a random rendered box scene."""
    box = scenegen.BoxSpec(float(rng.uniform(-250, 250)),
                           float(rng.uniform(2100, 2800)),
                           float(rng.uniform(450, 700)),
                           float(rng.uniform(400, 600)),
                           float(rng.uniform(450, 750)))
    spec = scenegen.SceneSpec(camera_height=1200, floor_extent=4000,
                              noise_sigma=10, seed=seed, boxes=[box])
    frame, _ = scenegen.render_depth(spec, K_SMALL, 160, 120)
    return main_segment_of(frame)


def rendered_stair_frame(rng, seed, n_steps=3):
    """Ascending staircase built from adjacent step boxes."""
    rise = float(rng.uniform(150, 190))
    run = float(rng.uniform(260, 320))
    width = float(rng.uniform(800, 1100))
    z0 = float(rng.uniform(1900, 2400))
    x = float(rng.uniform(-150, 150))
    boxes = [scenegen.BoxSpec(x, z0 + (i + 0.5) * run, width, run, (i + 1) * rise)
             for i in range(n_steps)]
    spec = scenegen.SceneSpec(camera_height=1200, floor_extent=4500,
                              noise_sigma=10, seed=seed, boxes=boxes)
    frame, _ = scenegen.render_depth(spec, K_SMALL, 160, 120)
    return frame


def sphere_cloud(rng):
    v = rng.normal(size=(400, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True) * rng.uniform(200, 360)


def toy_model(clouds_a, label_a, clouds_b, label_b, seed):
    clouds = clouds_a + clouds_b
    labels = np.array([0] * len(clouds_a) + [1] * len(clouds_b))
    model, _ = clf.train(clouds, labels, clouds[::5], labels[::5],
                         (label_a, label_b),
                         clf.TrainConfig(epochs=12, seed=seed, n_points=128,
                                         point_widths=(3, 32, 64),
                                         head_hidden=(32,)))
    return model


class TestPipelineWithModel:
    def test_accepted_class_stamps_glyph(self, box_scene, tmp_path):
        # toy model: rendered box segments (night_stand) vs spheres (toilet);
        # the held-out scene's segment must clear the 0.85 gate and stamp
        # its glyph at label_level(height_class)
        rng = np.random.default_rng(1)
        box_views = [rendered_box_segment(rng, 100 + i) for i in range(30)]
        spheres = [sphere_cloud(rng) for _ in range(30)]
        model = toy_model(box_views, "night_stand", spheres, "toilet", seed=1)
        model_path = tmp_path / "toy.bin"
        model_path.write_bytes(clf.save_model(model))
        depth, cfg_file, _ = box_scene
        cfg = parse_config(cfg_file.read_text() + f"model.path={model_path}\n")
        result = run_pipeline(cfg, depth)
        desc = result.descriptors[0]
        assert desc.label == "put_on"            # night_stand merged for labeling
        assert desc.confidence > 0.85
        assert "put_on" in result.report
        glyph_level = 1 + desc.geometry.height_class
        assert (result.grid.cells == glyph_level).sum() > 0

    def test_stairs_direction_end_to_end(self, tmp_path):
        # a staircase of adjacent step boxes must come out as stairs_up with
        # the stairs_up glyph (the down path needs below-ground geometry the
        # renderer cannot produce; it is covered at the labeling level)
        rng = np.random.default_rng(2)
        stairs = [main_segment_of(rendered_stair_frame(rng, 900 + i))
                  for i in range(25)]
        spheres = [sphere_cloud(rng) for _ in range(25)]
        model = toy_model(stairs, "stairs", spheres, "toilet", seed=2)
        frame = rendered_stair_frame(np.random.default_rng(77), 555)
        depth = tmp_path / "stairs.pgm"
        depth.write_bytes(depthio.depth_to_pgm(frame))
        intr = tmp_path / "intr.txt"
        intr.write_text(depthio.format_intrinsics(K_SMALL))
        model_path = tmp_path / "toy.bin"
        model_path.write_bytes(clf.save_model(model))
        cfg = parse_config(f"intrinsics.path={intr}\nmodel.path={model_path}\n")
        result = run_pipeline(cfg, depth)
        desc = result.descriptors[0]
        assert desc.label == "stairs_up"
        assert "stairs_up" in result.report
        from hapmap.labeling import builtin_sheet
        level = 1 + desc.geometry.height_class
        assert (result.grid.cells == level).sum() == builtin_sheet()["stairs_up"].dots


    def test_unknown_class_fails_when_the_model_loads(self, box_scene,
                                                     tmp_path, monkeypatch):
        def not_reached(*args):
            raise AssertionError("a segment was classified")

        monkeypatch.setattr(clf, "predict_gated", not_reached)
        model = clf.init_model(("foo", "bar"), point_widths=(3, 8),
                               head_hidden=(4,))
        model_path = tmp_path / "foo.bin"
        model_path.write_bytes(clf.save_model(model))
        depth, cfg_file, _ = box_scene
        cfg = parse_config(cfg_file.read_text() + f"model.path={model_path}\n"
                           "classifier.threshold=0.99\n")
        with pytest.raises(StageError, match="unknown class 'foo'") as err:
            run_pipeline(cfg, depth)
        assert err.value.stage == "classifier"

    @pytest.mark.parametrize("blob, message", [
        (None, "No such file"), (b"junk", "not a model file"),
        ("foo", "unknown class 'foo'")], ids=["missing", "corrupt", "unknown_class"])
    def test_bad_model_fails_before_frame_analysis(self, box_scene, tmp_path,
                                                   monkeypatch, blob, message):
        def not_reached(*args):
            raise AssertionError("the frame was analysed")

        monkeypatch.setattr(pipeline, "analyze_scene", not_reached)
        model_path = tmp_path / "model.bin"
        if blob == "foo":
            blob = clf.save_model(clf.init_model(
                ("foo", "bar"), point_widths=(3, 8), head_hidden=(4,)))
        if blob is not None:
            model_path.write_bytes(blob)
        depth, cfg_file, _ = box_scene
        cfg = parse_config(cfg_file.read_text() + f"model.path={model_path}\n")
        with pytest.raises(StageError, match=message) as err:
            run_pipeline(cfg, depth)
        assert err.value.stage == "classifier"


class TestCli:
    def test_run_writes_grid_and_report(self, box_scene, tmp_path, capsys):
        depth, cfg_file, _ = box_scene
        out = tmp_path / "grid.json"
        rc = cli.main(["run", "--depth", str(depth), "--out", str(out),
                       "--config", str(cfg_file)])
        assert rc == 0
        grid = parse_grid_json(out.read_bytes())
        assert grid.cells.max() == 2
        report = (tmp_path / "grid.json.report.tsv").read_text()
        assert "none" in report
        assert capsys.readouterr().out == report

    def test_run_missing_depth_fails(self, box_scene, tmp_path, capsys):
        _, cfg_file, _ = box_scene
        rc = cli.main(["run", "--depth", str(tmp_path / "nope.pgm"),
                       "--out", str(tmp_path / "g.json"), "--config", str(cfg_file)])
        assert rc != 0
        assert "stage depthio" in capsys.readouterr().err

    def test_run_negative_seed_fails_when_read(self, box_scene, tmp_path,
                                               capsys, monkeypatch):
        depth, cfg_file, _ = box_scene

        def no_analysis(*args):
            raise AssertionError("the frame was analysed")

        monkeypatch.setattr(dcgd, "detect_ground", no_analysis)
        out = tmp_path / "g.json"
        rc = cli.main(["run", "--depth", str(depth), "--out", str(out),
                       "--config", str(cfg_file), "--seed", "-1"])
        assert rc == 1
        assert capsys.readouterr().err == "error: seed must be non-negative\n"
        assert not out.exists()

    def test_config_env_fallback(self, box_scene, tmp_path, monkeypatch):
        depth, cfg_file, _ = box_scene
        monkeypatch.setenv(cli.CONFIG_ENV, str(cfg_file))
        out = tmp_path / "grid.json"
        assert cli.main(["run", "--depth", str(depth), "--out", str(out)]) == 0
        assert out.exists()

    def test_format_flag_overrides(self, box_scene, tmp_path):
        depth, cfg_file, _ = box_scene
        out = tmp_path / "grid.pgm"
        rc = cli.main(["run", "--depth", str(depth), "--out", str(out),
                       "--config", str(cfg_file), "--format", "pgm"])
        assert rc == 0
        assert out.read_bytes().startswith(b"P5")

    def test_ground_subcommand(self, box_scene, tmp_path):
        depth, cfg_file, truth = box_scene
        out = tmp_path / "mask.pgm"
        cuts = tmp_path / "cuts.txt"
        rc = cli.main(["ground", "--depth", str(depth), "--out", str(out),
                       "--config", str(cfg_file), "--cuts", str(cuts)])
        assert rc == 0
        mask = depthio.load_depth_pgm(out.read_bytes()).data > 0
        gt = truth.ground_mask
        assert (mask & gt).sum() / gt.sum() >= 0.99
        assert cuts.read_text().startswith("cut ")

    def test_ground_principal_point_outside_image(self, box_scene, tmp_path,
                                                  capsys):
        depth, cfg_file, _ = box_scene
        intr = tmp_path / "outside.txt"
        intr.write_text(depthio.format_intrinsics(replace(K_SMALL, cx=160.0)))
        cfg_file.write_text(f"intrinsics.path={intr}\n")
        out = tmp_path / "mask.pgm"
        rc = cli.main(["ground", "--depth", str(depth), "--out", str(out),
                       "--config", str(cfg_file)])
        assert rc == 1
        assert capsys.readouterr().err == ("error in stage dcgd: principal "
                                           "point lies outside the image\n")
        assert not out.exists()

    def test_run_non_finite_principal_point(self, box_scene, tmp_path, capsys):
        # rejected when the file is read, not as a point outside the image
        depth, cfg_file, _ = box_scene
        intr = tmp_path / "nan.txt"
        intr.write_text("fx=143.95\nfy=143.95\ncx=nan\ncy=59.5\n")
        cfg_file.write_text(f"intrinsics.path={intr}\n")
        rc = cli.main(["run", "--depth", str(depth), "--out",
                       str(tmp_path / "grid.txt"), "--config", str(cfg_file)])
        assert rc == 1
        assert capsys.readouterr().err == ("error in stage depthio: intrinsics "
                                           "file: principal point must be finite\n")

    def test_segment_subcommand(self, box_scene, tmp_path):
        depth, cfg_file, _ = box_scene
        out = tmp_path / "labeled.xyz"
        rc = cli.main(["segment", "--depth", str(depth), "--out", str(out),
                       "--config", str(cfg_file)])
        assert rc == 0
        rows = [line.split() for line in out.read_text().splitlines()]
        assert all(len(r) == 4 for r in rows)
        assert {r[3] for r in rows} >= {"0"}

    def test_features_subcommand(self, box_scene, capsys):
        # features and run read one analysis: per segment they agree on id,
        # height, area and both classes
        depth, cfg_file, _ = box_scene
        rc = cli.main(["features", "--depth", str(depth), "--config", str(cfg_file)])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("# segment")
        report = run_pipeline(parse_config(cfg_file.read_text()), depth).report
        (feat,), (row,) = out.splitlines()[1:], report.splitlines()[1:]
        f, r = feat.split("\t"), row.split("\t")
        assert f[:5] == [r[0]] + r[2:6]

    def test_synth_raw(self, box_scene, tmp_path):
        depth, cfg_file, _ = box_scene
        out = tmp_path / "raw.json"
        rc = cli.main(["synth", "--depth", str(depth), "--out", str(out),
                       "--config", str(cfg_file), "--raw", "--format", "json"])
        assert rc == 0
        grid = parse_grid_json(out.read_bytes())
        assert grid.cells.max() >= 2   # the 600mm box tops the first band

    @pytest.mark.parametrize("raw", [[], ["--raw"]])
    def test_synth_grid_misfit_names_stage(self, box_scene, tmp_path,
                                           monkeypatch, capsys, raw):
        def not_reached(*args, **kwargs):
            raise AssertionError("ground detection ran")

        monkeypatch.setattr(dcgd, "detect_ground", not_reached)
        depth, cfg_file, _ = box_scene
        cfg_file.write_text(cfg_file.read_text() + "dcgd.zf=5000\n")
        rc = cli.main(["synth", "--depth", str(depth), "--out",
                       str(tmp_path / "grid.json"), "--config", str(cfg_file),
                       *raw])
        assert rc == 1
        assert capsys.readouterr().err == ("error in stage synthgrid: far "
                                           "basis exceeds the grid width\n")

    @pytest.mark.parametrize("command, outputs", [
        ("ground", {"--out": "mask.pgm", "--cuts": "cuts.txt"}),
        ("segment", {"--out": "segment.xyz"}),
        ("features", {})], ids=["ground", "segment", "features"])
    def test_analysis_views_reject_grid_misfit(self, box_scene, tmp_path,
                                               monkeypatch, capsys, command,
                                               outputs):
        def not_reached(*args, **kwargs):
            raise AssertionError("ground detection ran")

        monkeypatch.setattr(dcgd, "detect_ground", not_reached)
        depth, cfg_file, _ = box_scene
        cfg_file.write_text(cfg_file.read_text() + "dcgd.zf=5000\n")
        args = [command, "--depth", str(depth), "--config", str(cfg_file)]
        for flag, name in outputs.items():
            args += [flag, str(tmp_path / name)]
        assert cli.main(args) == 1
        captured = capsys.readouterr()
        assert captured.err == ("error in stage synthgrid: far basis exceeds "
                                "the grid width\n")
        assert captured.out == ""
        assert not any((tmp_path / name).exists() for name in outputs.values())

    def test_scenegen_subcommand(self, tmp_path):
        scene = tmp_path / "scene.txt"
        scene.write_text("camera_height=1200\nfloor_extent=4000\n"
                         "box=0 2400 500 500 450 box\n")
        intr = tmp_path / "intr.txt"
        intr.write_text(depthio.format_intrinsics(K_SMALL))
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"intrinsics.path={intr}\n")
        out = tmp_path / "depth.pgm"
        mask = tmp_path / "truth.pgm"
        rc = cli.main(["scenegen", "--scene", str(scene), "--out", str(out),
                       "--config", str(cfg), "--width", "160", "--height", "120",
                       "--ground-mask", str(mask)])
        assert rc == 0
        frame = depthio.load_depth_pgm(out.read_bytes())
        assert frame.width == 160 and frame.pixels.size > 0
        assert depthio.load_depth_pgm(mask.read_bytes()).pixels.size > 0

    def test_scenegen_rejects_non_finite_spec(self, tmp_path, capsys):
        scene = tmp_path / "scene.txt"
        scene.write_text("camera_height=nan\nfloor_extent=4000\n")
        out = tmp_path / "depth.pgm"
        rc = cli.main(["scenegen", "--scene", str(scene), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == ("error: scene line 1: camera_height: "
                                           "SceneSpec.camera_height must be "
                                           "finite\n")
        assert not out.exists()

    @pytest.mark.parametrize("line, message", [
        ("camera_height=", "scene line 1: camera_height needs 1 value"),
        ("camera_height=1200 1300", "scene line 1: camera_height needs 1 value"),
    ], ids=["empty", "extra"])
    def test_scenegen_scalar_takes_one_value(self, tmp_path, capsys, line,
                                             message):
        scene = tmp_path / "scene.txt"
        scene.write_text(f"{line}\nfloor_extent=4000\n")
        out = tmp_path / "depth.pgm"
        rc = cli.main(["scenegen", "--scene", str(scene), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_run_bad_intrinsics_value_names_line(self, box_scene, tmp_path,
                                                 capsys):
        depth, _, _ = box_scene
        intr = tmp_path / "bad_intr.txt"
        intr.write_text("fx=\nfy=143.95\ncx=79.5\ncy=59.5\n")
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"intrinsics.path={intr}\n")
        rc = cli.main(["run", "--depth", str(depth), "--config", str(cfg),
                       "--out", str(tmp_path / "g.txt")])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error in stage depthio: intrinsics line 1: fx: could not convert "
            "string to float: ''\n")

    def test_train_deterministic_model_files(self, tmp_path):
        args = ["train", "--out", "", "--per-class", "8", "--test-per-class", "2",
                "--epochs", "2", "--n-points", "64", "--seed", "11"]
        m1 = tmp_path / "m1.bin"
        m2 = tmp_path / "m2.bin"
        args[2] = str(m1)
        assert cli.main(args) == 0
        args[2] = str(m2)
        assert cli.main(args) == 0
        assert m1.read_bytes() == m2.read_bytes()

    @pytest.mark.parametrize("flags, message", [
        (["--epochs", "0"], "epochs must be at least 1, got 0"),
        (["--batch", "0"], "batch must be at least 1, got 0"),
        (["--n-points", "0"], "n_points must be at least 1, got 0"),
        (["--lr", "nan"], "lr must be finite and above 0, got nan"),
        (["--lr", "0"], "lr must be finite and above 0, got 0.0"),
        (["--per-class", "0"], "classes without training samples"),
        (["--test-per-class", "0"], "empty test set"),
        (["--seed", "-1"], "seed must be non-negative"),
    ], ids=["epochs", "batch", "n_points", "lr_nan", "lr_zero", "per_class",
            "test_per_class", "seed"])
    def test_train_bad_input_fails_before_the_first_epoch(
            self, tmp_path, capsys, monkeypatch, flags, message):
        def no_step(*args):
            raise AssertionError("a training step ran")

        monkeypatch.setattr(clf, "loss_and_grads", no_step)
        out = tmp_path / "m.bin"
        rc = cli.main(["train", "--out", str(out), "--per-class", "2",
                       "--test-per-class", "1", *flags])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_train_flag_defaults_are_train_config(self):
        args = cli.build_parser().parse_args(["train", "--out", "m.bin"])
        fields = ("epochs", "batch", "lr", "seed", "n_points")
        assert clf.TrainConfig(**{f: getattr(args, f) for f in fields}) \
            == clf.TrainConfig()

    def test_train_manifest_rejects_non_finite_cloud(self, tmp_path, capsys):
        lines = []
        for fine in ("chair", "table"):
            path = tmp_path / f"{fine}.xyz"
            path.write_text("0 0 0\n1 1 1\n2 0 inf\n")
            lines.append(f"{path} {fine}")
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("\n".join(lines))
        out = tmp_path / "m.bin"
        rc = cli.main(["train", "--manifest", str(manifest), "--out", str(out),
                       "--epochs", "1"])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: manifest line 1: {tmp_path / 'chair.xyz'}: cloud line 3: "
            "coordinates must be finite\n")
        assert not out.exists()

    def test_train_manifest_names_missing_cloud(self, tmp_path, capsys):
        cloud = tmp_path / "chair.xyz"
        cloud.write_text("0 0 0\n1 1 1\n")
        missing = tmp_path / "table.xyz"
        manifest = tmp_path / "manifest.txt"
        manifest.write_text(f"{cloud} chair\n# tables\n{missing} table\n")
        out = tmp_path / "m.bin"
        rc = cli.main(["train", "--manifest", str(manifest), "--out", str(out),
                       "--epochs", "1"])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: manifest line 3: {missing}: No such file or directory\n")
        assert not out.exists()

    def test_train_manifest_line_without_class(self, tmp_path, capsys):
        cloud = tmp_path / "chair.xyz"
        cloud.write_text("0 0 0\n1 1 1\n")
        manifest = tmp_path / "manifest.txt"
        manifest.write_text(f"# clouds\n{cloud} chair\n\n{cloud}\n")
        out = tmp_path / "m.bin"
        rc = cli.main(["train", "--manifest", str(manifest), "--out", str(out),
                       "--epochs", "1"])
        assert rc == 1
        assert capsys.readouterr().err == ("error: manifest line 4: expected "
                                           "<path> <fine_class>\n")
        assert not out.exists()

    @pytest.mark.parametrize("fine, message", [
        ("lamp", "manifest line 2: unknown fine class 'lamp'"),
        ("door", "manifest line 2: 'door' has no training class"),
    ], ids=["unknown", "untrained"])
    def test_train_manifest_class_names_line(self, tmp_path, capsys, fine,
                                             message):
        cloud = tmp_path / "cloud.xyz"
        cloud.write_text("0 0 0\n1 1 1\n")
        manifest = tmp_path / "manifest.txt"
        manifest.write_text(f"{cloud} chair\n{cloud} {fine}\n")
        out = tmp_path / "m.bin"
        rc = cli.main(["train", "--manifest", str(manifest), "--out", str(out),
                       "--epochs", "1"])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_train_manifest(self, tmp_path, capsys):
        rng = np.random.default_rng(2)
        lines = []
        for i, fine in enumerate(("chair", "table", "wardrobe", "bathtub",
                                  "toilet", "stairs")):
            for j in range(3):
                pts = scenegen.sample_box_cloud(fine, rng, 256)
                path = tmp_path / f"{fine}_{j}.xyz"
                path.write_text("\n".join(f"{p[0]} {p[1]} {p[2]}" for p in pts))
                lines.append(f"{path} {fine}")
        # one OFF entry exercises the mesh route
        off = tmp_path / "tri_table.off"
        off.write_bytes(b"OFF\n3 1 0\n0 0 0\n900 0 0\n0 0 900\n3 0 1 2\n")
        lines.append(f"{off} table")
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("\n".join(lines))
        out = tmp_path / "m.bin"
        rc = cli.main(["train", "--manifest", str(manifest), "--out", str(out),
                       "--epochs", "2", "--n-points", "64", "--seed", "4"])
        assert rc == 0
        model = clf.load_model(out.read_bytes())
        assert model.classes == clf.TRAINING_COARSE_CLASSES

    def test_classify_subcommand(self, tmp_path, capsys):
        model_path = tmp_path / "m.bin"
        assert cli.main(["train", "--out", str(model_path), "--per-class", "8",
                         "--test-per-class", "2", "--epochs", "2",
                         "--n-points", "64", "--seed", "11"]) == 0
        capsys.readouterr()
        cloud_path = tmp_path / "cloud.xyz"
        pts = scenegen.sample_box_cloud("table", np.random.default_rng(0))
        cloud_path.write_text("\n".join(f"{p[0]} {p[1]} {p[2]}" for p in pts))
        rc = cli.main(["classify", "--model", str(model_path),
                       "--cloud", str(cloud_path)])
        out = capsys.readouterr().out
        assert rc in (0, 3)
        assert out.splitlines()[0].split("\t")[0] in ("rejected",) + tuple(
            __import__("hapmap.classifier", fromlist=["x"]).TRAINING_COARSE_CLASSES)

    def test_classify_without_model_names_it(self, tmp_path, capsys,
                                             monkeypatch):
        monkeypatch.delenv(cli.CONFIG_ENV, raising=False)
        cloud_path = tmp_path / "cloud.xyz"
        cloud_path.write_text("0 0 0\n1 1 1\n")
        rc = cli.main(["classify", "--cloud", str(cloud_path)])
        assert rc == 1
        assert capsys.readouterr().err == ("error: classify needs a model: "
                                           "pass --model or set model.path\n")

    def test_classify_unknown_class_fails(self, tmp_path, capsys,
                                          monkeypatch):
        # the class table check that run makes when the model loads
        monkeypatch.delenv(cli.CONFIG_ENV, raising=False)
        model = clf.init_model(("foo", "bar"), point_widths=(3, 8),
                               head_hidden=(4,))
        model_path = tmp_path / "foo.bin"
        model_path.write_bytes(clf.save_model(model))
        cloud_path = tmp_path / "cloud.xyz"
        cloud_path.write_text("0 0 0\n10 20 30\n-5 7 2\n")
        rc = cli.main(["classify", "--model", str(model_path),
                       "--cloud", str(cloud_path)])
        captured = capsys.readouterr()
        assert rc == 1
        assert "unknown class 'foo'" in captured.err
        assert "p=" not in captured.out

    @pytest.mark.parametrize("text, lineno", [
        ("0 0 0\n1 1\n", 2),
        ("# x y z\n\n5\n", 3),
        ("0 0 0\n1 1 one\n", 2),
    ], ids=["two_numbers", "after_comments", "not_a_number"])
    def test_classify_bad_cloud_line(self, tmp_path, capsys, text, lineno):
        model = clf.init_model(("a", "b"), point_widths=(3, 8),
                               head_hidden=(4,))
        model_path = tmp_path / "m.bin"
        model_path.write_bytes(clf.save_model(model))
        cloud_path = tmp_path / "cloud.xyz"
        cloud_path.write_text(text)
        rc = cli.main(["classify", "--model", str(model_path),
                       "--cloud", str(cloud_path)])
        assert rc == 1
        assert capsys.readouterr().err == (f"error: cloud line {lineno}: "
                                           "expected x y z\n")

    @pytest.mark.parametrize("name, text, message", [
        ("cloud.xyz", "1 2 3\ninf 0 0\n", "cloud line 2: coordinates must be finite"),
        ("cloud.xyz", "# x y z\n1 nan 3\n", "cloud line 2: coordinates must be finite"),
        ("mesh.off", "OFF\n3 1 0\n0 0 0\n900 nan 0\n0 0 900\n3 0 1 2\n",
         "vertex 1 is not finite"),
    ], ids=["inf", "nan", "off_nan"])
    def test_classify_non_finite_cloud(self, tmp_path, capsys, name, text,
                                       message):
        model = clf.init_model(("a", "b"), point_widths=(3, 8),
                               head_hidden=(4,))
        model_path = tmp_path / "m.bin"
        model_path.write_bytes(clf.save_model(model))
        cloud_path = tmp_path / name
        cloud_path.write_text(text)
        rc = cli.main(["classify", "--model", str(model_path),
                       "--cloud", str(cloud_path)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err == f"error: {message}\n"
        assert "p=" not in captured.out
