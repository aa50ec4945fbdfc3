"""Ground detection against hand-built cuts and the synthetic-scene oracle."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from hapmap import scenegen
from hapmap.config import PipelineConfig
from hapmap.dcgd import (DcgdParams, _claims, band_frame, compute_depth_cuts,
                         detect_ground, ground_elevation)
from hapmap.depthio import DepthFrame, Intrinsics, backproject
from hapmap.pipeline import analyze_scene
from hapmap.scenegen import BoxSpec, HoleSpec, SceneSpec

from conftest import SMALL_H, SMALL_W, ground_mask
from oracles import (full_frame_analysis, loop_claims, loop_depth_cuts,
                     loop_detect_ground)


def render(spec, cam):
    return scenegen.render_depth(spec, cam, SMALL_W, SMALL_H)


class TestComputeDepthCuts:
    def test_default_band_yields_65_cuts(self, small_cam):
        frame = DepthFrame(np.zeros((SMALL_H, SMALL_W), dtype=np.uint16))
        cuts = compute_depth_cuts(frame, backproject(frame, small_cam),
                                  DcgdParams())
        # ceil((4000 - 800) / 50) = 64 intervals -> cuts i = 0..64
        assert len(cuts) == 65
        assert cuts[0].z == 800 and cuts[-1].z == 4000

    @pytest.mark.parametrize("dz", [70, 130, 3000])
    def test_last_cut_reaches_zf(self, small_cam, dz):
        # a step that does not divide the band adds one cut past zf, so a
        # pixel at zf still falls in a cut
        data = np.zeros((SMALL_H, SMALL_W), dtype=np.uint16)
        data[-1, 0] = 4000
        frame = DepthFrame(data)
        cuts = compute_depth_cuts(frame, backproject(frame, small_cam),
                                  DcgdParams(dz=dz))
        assert cuts[-2].z < 4000 <= cuts[-1].z
        assert sum(not c.is_empty for c in cuts) == 1

    def test_constant_depth_single_cut(self, small_cam):
        frame = DepthFrame(np.full((SMALL_H, SMALL_W), 1000, dtype=np.uint16))
        cuts = compute_depth_cuts(frame, backproject(frame, small_cam),
                                  DcgdParams())
        nonempty = [c.index for c in cuts if not c.is_empty]
        assert nonempty == [4]   # (1000 - 800) / 50 = 4

    def test_entry_keeps_minimal_y(self):
        # two pixels in one column, same z bin: y = (cy - v) z / fy gives
        # 300mm at v=0 and 100mm at v=2 for cy=3, fy=10, z=1000
        k = Intrinsics(fx=10, fy=10, cx=1.0, cy=3.0)
        data = np.zeros((4, 3), dtype=np.uint16)
        data[0, 1] = 1000
        data[2, 1] = 1000
        frame = DepthFrame(data)
        cuts = compute_depth_cuts(frame, backproject(frame, k),
                                  DcgdParams(zf=1200))
        cut = cuts[4]
        assert cut.rows[1] == 2
        assert cut.y[1] == pytest.approx(100.0)

    def test_bin_boundaries(self, small_cam):
        data = np.zeros((SMALL_H, SMALL_W), dtype=np.uint16)
        data[60, 0] = 824   # |824 - 800| <= 25 -> bin 0
        data[60, 1] = 826   # |826 - 850| <= 25 -> bin 1
        frame = DepthFrame(data)
        cuts = compute_depth_cuts(frame, backproject(frame, small_cam),
                                  DcgdParams())
        assert cuts[0].rows[0] >= 0 and cuts[0].rows[1] == -1
        assert cuts[1].rows[1] >= 0 and cuts[1].rows[0] == -1


class TestDetectGround:
    def test_floor_only_recall_precision(self, small_cam):
        frame, truth = render(SceneSpec(camera_height=1200, floor_extent=4000),
                              small_cam)
        mask = ground_mask(frame, small_cam)
        gt = truth.ground_mask
        tp = (mask & gt).sum()
        assert tp / gt.sum() >= 0.99
        assert tp / mask.sum() >= 0.98

    def test_box_pixels_excluded(self, small_cam):
        spec = SceneSpec(camera_height=1200, floor_extent=4000,
                         boxes=[BoxSpec(0, 3000, 500, 500, 450)])
        frame, truth = render(spec, small_cam)
        mask = ground_mask(frame, small_cam)
        box = truth.object_masks[0]
        assert (box & ~mask).sum() / box.sum() >= 0.95

    def test_all_invalid_frame(self, small_cam):
        frame = DepthFrame(np.zeros((SMALL_H, SMALL_W), dtype=np.uint16))
        assert detect_ground(frame, backproject(frame, small_cam)).sum() == 0

    def test_mask_subset_of_band(self, small_cam):
        spec = SceneSpec(camera_height=1100, floor_extent=5000, noise_sigma=10,
                         seed=5, boxes=[BoxSpec(-300, 2600, 400, 400, 500)])
        frame, _ = render(spec, small_cam)
        params = DcgdParams()
        mask = ground_mask(frame, small_cam, params)
        z = frame.data.astype(float)
        ok = (z > 0) & (z >= params.z0 - params.dz / 2) & (z <= params.zf + params.dz / 2)
        assert not (mask & ~ok).any()

    def test_adding_box_never_adds_ground(self, small_cam):
        base = SceneSpec(camera_height=1200, floor_extent=4000)
        more = SceneSpec(camera_height=1200, floor_extent=4000,
                         boxes=[BoxSpec(200, 2800, 600, 500, 400)])
        m0 = ground_mask(render(base, small_cam)[0], small_cam)
        m1 = ground_mask(render(more, small_cam)[0], small_cam)
        assert not (m1 & ~m0).any()

    def test_ground_elevation(self, small_cam):
        frame, _ = render(SceneSpec(camera_height=1200, floor_extent=4000),
                          small_cam)
        cloud = backproject(frame, small_cam)
        elevation = ground_elevation(cloud, detect_ground(frame, cloud))
        assert elevation == pytest.approx(-1200, abs=5)

    def test_bad_params(self):
        # also the one check of compute_depth_cuts' band
        for bad in ({"z0": 4000, "zf": 800}, {"z0": 0}, {"z0": -100},
                    {"zf": np.inf}, {"dz": -1}, {"dz": np.nan}):
            with pytest.raises(ValueError, match="must be"):
                DcgdParams(**bad)


#: depths for the table-versus-loop checks; 0 is an invalid pixel, and the
#: smallest and largest values lie outside every band drawn below
TIE_DEPTHS = (0, 20, 60, 80, 90, 120, 160, 180, 240, 360, 400, 480, 1000)
#: pixel pairs (rows below cy, depth) with equal y = (cy - v) z / fy; the
#: depths share a cut at several of the drawn bands and steps
TIE_PAIRS = (((3, 80), (2, 120)), ((4, 90), (3, 120)), ((9, 80), (8, 90)),
             ((4, 120), (3, 160)), ((4, 180), (3, 240)))


@st.composite
def tie_frames(draw):
    """(frame, intrinsics, params) with equal-y entries planted per column."""
    h, w = draw(st.integers(1, 14)), draw(st.integers(1, 10))
    data = np.array(draw(st.lists(st.sampled_from(TIE_DEPTHS), min_size=h * w,
                                  max_size=h * w)), dtype=np.uint16)
    data = data.reshape(h, w)
    # backproject needs the principal point inside the image
    cy = draw(st.integers(0, min(6, h - 1)))
    for (a, za), (b, zb) in draw(st.lists(st.sampled_from(TIE_PAIRS),
                                          max_size=2 * w)):
        col = draw(st.integers(0, w - 1))
        if 0 <= cy + b and cy + a < h:
            data[cy + a, col], data[cy + b, col] = za, zb
    k = Intrinsics(fx=10.0, fy=draw(st.sampled_from([0.5, 1.0, 4.0])),
                   cx=(w - 1) / 2, cy=float(cy))
    params = DcgdParams(z0=draw(st.sampled_from([60.0, 100.0])),
                        zf=draw(st.sampled_from([250.0, 400.0])),
                        dz=draw(st.sampled_from([50.0, 70.0, 130.0])),
                        baseline_tol=draw(st.sampled_from([5.0, 50.0, 120.0])),
                        include_tol=draw(st.sampled_from([5.0, 20.0, 90.0])))
    return DepthFrame(data), k, params


def assert_cuts_equal(frame, k, p):
    got = compute_depth_cuts(frame, backproject(frame, k), p)
    want = loop_depth_cuts(frame, k, p.z0, p.zf, p.dz)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.index, a.z) == (b.index, b.z)
        assert a.rows.dtype == b.rows.dtype and a.y.dtype == b.y.dtype
        assert a.rows.tobytes() == b.rows.tobytes()
        assert a.y.tobytes() == b.y.tobytes()


class TestEntryTableMatchesLoops:
    """The one-pass table against the per-cut argmin and per-span loops."""

    @settings(max_examples=300)
    @given(case=tie_frames())
    def test_random_frames_with_ties(self, case):
        frame, k, params = case
        assert_cuts_equal(frame, k, params)
        assert (ground_mask(frame, k, params).tobytes()
                == loop_detect_ground(frame, k, params).tobytes())

    @pytest.mark.parametrize("dz", [50.0, 70.0, 130.0])
    def test_tied_entry_takes_topmost_row(self, dz):
        # y = (cy - v) z / fy: rows 1 and 2 give 61 * 1200 = 60 * 1220, both
        # in one cut for every dz here; a pixel below them is out of band
        k = Intrinsics(fx=10.0, fy=10.0, cx=0.0, cy=62.0)
        data = np.zeros((64, 2), dtype=np.uint16)
        data[1, 1], data[2, 1], data[5, 1] = 1200, 1220, 9000
        frame = DepthFrame(data)
        params = DcgdParams(dz=dz)
        cuts = compute_depth_cuts(frame, backproject(frame, k), params)
        (cut,) = [c for c in cuts if not c.is_empty]
        assert cut.rows[1] == 1 and cut.y[1] == 61 * 1200 / 10.0
        assert_cuts_equal(frame, k, params)

    @settings(max_examples=12)
    @given(seed=st.integers(0, 2**16), n_boxes=st.integers(0, 3),
           hole=st.booleans(), dz=st.sampled_from([50.0, 70.0, 130.0]),
           baseline_tol=st.sampled_from([30.0, 50.0, 80.0]),
           include_tol=st.sampled_from([10.0, 20.0, 40.0]))
    def test_scenegen_scenes(self, seed, n_boxes, hole, dz, baseline_tol,
                             include_tol):
        # the small_cam fixture's camera; hypothesis takes no fixtures
        small_cam = Intrinsics(fx=143.95, fy=143.95, cx=79.5, cy=59.5)
        rng = np.random.default_rng(seed)
        boxes = [BoxSpec(float(rng.uniform(-900, 900)),
                         float(rng.uniform(1500, 3600)),
                         float(rng.uniform(200, 700)),
                         float(rng.uniform(200, 700)),
                         float(rng.uniform(100, 900)))
                 for _ in range(n_boxes)]
        holes = [HoleSpec(float(rng.uniform(-500, 500)),
                          float(rng.uniform(1200, 3000)), 400.0, 300.0)
                 ] if hole else []
        spec = SceneSpec(camera_height=float(rng.uniform(900, 1500)),
                         floor_extent=float(rng.uniform(4000, 8000)),
                         noise_sigma=10.0, seed=seed, boxes=boxes, holes=holes)
        frame, _ = render(spec, small_cam)
        params = DcgdParams(dz=dz, baseline_tol=baseline_tol,
                            include_tol=include_tol)
        assert_cuts_equal(frame, small_cam, params)
        assert (ground_mask(frame, small_cam, params).tobytes()
                == loop_detect_ground(frame, small_cam, params).tobytes())


#: entry elevations for the claim-rule tables: ties, and steps near the
#: drawn tolerances; inf is an empty cell
CLAIM_YS = (-1250.0, -1200.0, -1195.0, -1190.0, -1150.0, -1100.0, -900.0,
            -300.0, 0.0, np.inf)


class TestClaimsMatchLoop:
    """The whole-table claim rule against one np.median loop per cut."""

    @settings(max_examples=400)
    @given(table=arrays(np.float64, st.tuples(st.integers(1, 6),
                                              st.integers(1, 12)),
                        elements=st.one_of(st.sampled_from(CLAIM_YS),
                                           st.floats(-2000.0, 500.0))),
           tol=st.sampled_from([5.0, 50.0, 150.0]),
           prior=st.sampled_from([None, -1250.0, -1200.0, -800.0]))
    def test_tables(self, table, tol, prior):
        got = _claims(table, tol, prior)
        assert got.shape == table.shape and got.dtype == bool
        for row, claimed in zip(table, got):
            occupied = row < np.inf
            assert claimed[~occupied].all()   # empty cells are never concave
            want = loop_claims(row[occupied], tol, prior)
            assert claimed[occupied].tobytes() == want.tobytes()

    @pytest.mark.parametrize("row, prior, want", [
        ([-1200.0], None, [False]),                    # single entry
        ([-1200.0, np.inf, np.inf], -1200.0, [False, True, True]),
        ([-700.0, -750.0], -1200.0, [True, True]),     # wholly above prior
        # medians 60, then 20, then 0: two rounds of claims
        ([0.0, 130.0, 40.0, 80.0, 0.0, 130.0], None,
         [False, True, False, True, False, True]),
        ([np.inf, np.inf], None, [True, True]),        # empty cut
        # an empty column between entries: both sides share one median
        ([-1200.0, np.inf, -1190.0, -900.0], None, [False, True, False, True]),
    ])
    def test_hand_rows(self, row, prior, want):
        assert _claims(np.array([row]), 50.0, prior)[0].tolist() == want


#: depths (mm) at the band edges for the default z0 = 800, zf = 4000 and
#: dz = 50: 774 and 4025 lie outside every cut, 775 and 4024 inside the
#: first and last cut but outside [z0, zf]
EDGE_MM = (774, 775, 800, 4000, 4024, 4025)


def edge_raster(seed, depth_scale):
    """(frame, intrinsics): a 24x16 raster of band-edge depths, mid-band
    depths and invalid pixels, with raw = mm / depth_scale."""
    rng = np.random.default_rng(seed)
    mm = np.array([0, *EDGE_MM, 1500, 2500])[rng.integers(0, 9, (24, 16))]
    raw = np.rint(mm / depth_scale).astype(np.uint16)
    k = Intrinsics(fx=10.0, fy=10.0, cx=7.5, cy=6.0, depth_scale=depth_scale)
    return DepthFrame(raw), k


class TestBandFirst:
    """The band frame against the whole frame: cutting out the pixels no
    depth cut reaches before back-projection changes no output byte."""

    @pytest.mark.parametrize("depth_scale", [1.0, 0.1])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_analysis_matches_full_frame(self, seed, depth_scale):
        frame, k = edge_raster(seed, depth_scale)
        cfg = replace(PipelineConfig(), segment_min_px=2)
        scene = analyze_scene(cfg, frame, k)
        mask, ground_y, points, labels, footprints = full_frame_analysis(
            cfg, frame, k)
        assert mask.any() and len(footprints) >= 1
        got = np.zeros(frame.data.size, dtype=bool)
        got[scene.frame.pixels] = scene.on_ground
        assert got.tobytes() == mask.ravel().tobytes()
        assert np.float64(scene.ground_y).tobytes() == \
            np.float64(ground_y).tobytes()
        assert scene.cloud[scene.occupied].tobytes() == points.tobytes()
        assert scene.labels.tobytes() == labels.tobytes()
        assert len(scene.segments) == np.max(labels, initial=-1) + 1
        assert len(scene.objects) == len(footprints)
        for a, b in zip((obj.footprint for obj in scene.objects), footprints):
            assert a.hull.tobytes() == b.hull.tobytes()
            assert a.barycenter.tobytes() == b.barycenter.tobytes()
            assert (a.area_m2, a.degenerate) == (b.area_m2, b.degenerate)

    @settings(max_examples=300)
    @given(scale=st.sampled_from([0.1, 0.125, 0.3, 1.0, 1.7, 7.0]),
           z0=st.sampled_from([20.0, 775.0, 800.0, 1000.3]),
           width=st.sampled_from([50.0, 3200.0, 40000.0]),
           dz=st.sampled_from([0.7, 50.0, 70.0, 130.0]),
           data=st.data())
    def test_pixels_some_cut_reaches(self, scale, z0, width, dz, data):
        # raw values at and around both ends of the band, and out of range
        params = DcgdParams(z0=z0, zf=z0 + width, dz=dz)
        n = int(np.ceil(width / dz))
        ends = [(z0 - dz / 2) / scale, (z0 + (n + 0.5) * dz) / scale]
        near = [int(e) + d for e in ends for d in range(-2, 3)]
        values = [v for v in near + [0, 1, 2**16 - 1] if 0 <= v < 2**16]
        raw = data.draw(arrays(np.uint16, (3, 7),
                               elements=st.sampled_from(values)))
        frame = DepthFrame(raw)
        band = band_frame(frame, scale, params)
        z = backproject(frame, Intrinsics(1.0, 1.0, 0.0, 0.0, scale))[:, 2]
        bins = np.floor((z - z0) / dz + 0.5)
        keep = (bins >= 0) & (bins <= n)
        assert band.pixels.tobytes() == frame.pixels[keep].tobytes()
        assert band.data.tobytes() == np.where(
            band.data > 0, frame.data, 0).tobytes()
        np.testing.assert_array_equal(band.pixels, np.flatnonzero(band.data))

    @pytest.mark.parametrize("depth_scale", [1.0, 0.1])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_band_rows_of_the_full_cloud(self, seed, depth_scale):
        frame, k = edge_raster(seed, depth_scale)
        band = band_frame(frame, depth_scale, DcgdParams())
        mm = np.rint(frame.data.ravel()[frame.pixels] * depth_scale)
        keep = (mm >= 775) & (mm <= 4024)
        assert band.pixels.tobytes() == frame.pixels[keep].tobytes()
        np.testing.assert_array_equal(band.pixels, np.flatnonzero(band.data))
        cloud = backproject(frame, k)
        assert backproject(band, k).tobytes() == cloud[keep].tobytes()
