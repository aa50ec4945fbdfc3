"""Ground detection against hand-built cuts and the synthetic-scene oracle."""

import numpy as np
import pytest

from hapmap import scenegen
from hapmap.dcgd import (DcgdParams, DepthCut, compute_depth_cuts, detect_ground,
                         ground_elevation, split_subcuts)
from hapmap.depthio import DepthFrame, Intrinsics, backproject
from hapmap.scenegen import BoxSpec, SceneSpec

from conftest import SMALL_H, SMALL_W


def render(spec, cam, seed=0):
    return scenegen.render_depth(spec, cam, SMALL_W, SMALL_H,
                                 rng=np.random.default_rng(seed))


def make_cut(cols_y, index=0, z=1000.0, width=None):
    """DepthCut from {column: y} pairs."""
    width = width or (max(cols_y) + 1)
    rows = np.full(width, -1, dtype=np.int32)
    y = np.full(width, np.nan)
    for c, yv in cols_y.items():
        rows[c] = 0
        y[c] = yv
    return DepthCut(index=index, z=z, rows=rows, y=y)


class TestComputeDepthCuts:
    def test_default_band_yields_65_cuts(self, small_cam):
        frame = DepthFrame(np.zeros((SMALL_H, SMALL_W), dtype=np.uint16))
        cuts = compute_depth_cuts(frame, small_cam, 800, 4000, 50)
        # ceil((4000 - 800) / 50) = 64 intervals -> cuts i = 0..64
        assert len(cuts) == 65
        assert cuts[0].z == 800 and cuts[-1].z == 4000

    @pytest.mark.parametrize("dz", [70, 130, 3000])
    def test_last_cut_reaches_zf(self, small_cam, dz):
        # a step that does not divide the band adds one cut past zf, so a
        # pixel at zf still falls in a cut
        data = np.zeros((SMALL_H, SMALL_W), dtype=np.uint16)
        data[-1, 0] = 4000
        cuts = compute_depth_cuts(DepthFrame(data), small_cam, 800, 4000, dz)
        assert cuts[-2].z < 4000 <= cuts[-1].z
        assert sum(not c.is_empty for c in cuts) == 1

    def test_constant_depth_single_cut(self, small_cam):
        frame = DepthFrame(np.full((SMALL_H, SMALL_W), 1000, dtype=np.uint16))
        cuts = compute_depth_cuts(frame, small_cam, 800, 4000, 50)
        nonempty = [c.index for c in cuts if not c.is_empty]
        assert nonempty == [4]   # (1000 - 800) / 50 = 4

    def test_entry_keeps_minimal_y(self):
        # two pixels in one column, same z bin: y = (cy - v) z / fy gives
        # 300mm at v=0 and 100mm at v=2 for cy=3, fy=10, z=1000
        k = Intrinsics(fx=10, fy=10, cx=1.0, cy=3.0)
        data = np.zeros((4, 3), dtype=np.uint16)
        data[0, 1] = 1000
        data[2, 1] = 1000
        cuts = compute_depth_cuts(DepthFrame(data), k, 800, 1200, 50)
        cut = cuts[4]
        assert cut.rows[1] == 2
        assert cut.y[1] == pytest.approx(100.0)

    def test_bin_boundaries(self, small_cam):
        data = np.zeros((SMALL_H, SMALL_W), dtype=np.uint16)
        data[60, 0] = 824   # |824 - 800| <= 25 -> bin 0
        data[60, 1] = 826   # |826 - 850| <= 25 -> bin 1
        cuts = compute_depth_cuts(DepthFrame(data), small_cam, 800, 4000, 50)
        assert cuts[0].rows[0] >= 0 and cuts[0].rows[1] == -1
        assert cuts[1].rows[1] >= 0 and cuts[1].rows[0] == -1


class TestSplitSubcuts:
    def test_flat_floor_single_concave(self):
        cut = make_cut({c: -1200.0 for c in range(40)})
        subs = split_subcuts(cut, 50.0)
        assert len(subs) == 1
        assert subs[0].kind == "concave"
        assert (subs[0].start, subs[0].end) == (0, 39)

    def test_centered_bump_three_runs(self):
        ys = {c: 0.0 for c in range(100)}
        for c in range(40, 60):
            ys[c] = 400.0
        subs = split_subcuts(make_cut(ys), 50.0)
        assert [s.kind for s in subs] == ["concave", "convex", "concave"]
        assert (subs[1].start, subs[1].end) == (40, 59)

    def test_single_column_concave(self):
        subs = split_subcuts(make_cut({5: -900.0}, width=10), 50.0)
        assert len(subs) == 1 and subs[0].kind == "concave"

    def test_gap_breaks_runs(self):
        subs = split_subcuts(make_cut({0: 0.0, 1: 0.0, 5: 0.0}, width=8), 50.0)
        assert [(s.start, s.end) for s in subs] == [(0, 1), (5, 5)]

    def test_partition_of_occupied_columns(self):
        rng = np.random.default_rng(3)
        ys = {int(c): float(rng.normal(0, 200)) for c in rng.choice(80, 50, replace=False)}
        cut = make_cut(ys, width=80)
        subs = split_subcuts(cut, 50.0)
        covered = sorted(c for s in subs for c in range(s.start, s.end + 1))
        assert covered == sorted(ys)
        assert all(s.kind in ("concave", "convex") for s in subs)

    def test_ground_prior_claims_high_cut(self):
        # every entry is 450mm above the known ground: whole cut is object
        cut = make_cut({c: -750.0 for c in range(30)})
        subs = split_subcuts(cut, 50.0, ground_prior=-1200.0)
        assert [s.kind for s in subs] == ["convex"]

    def test_empty_cut_rejected(self):
        with pytest.raises(ValueError):
            split_subcuts(make_cut({}, width=4), 50.0)


class TestDetectGround:
    def test_floor_only_recall_precision(self, small_cam):
        frame, truth = render(SceneSpec(camera_height=1200, floor_extent=4000),
                              small_cam)
        mask = detect_ground(frame, small_cam)
        gt = truth.ground_mask
        tp = (mask & gt).sum()
        assert tp / gt.sum() >= 0.99
        assert tp / mask.sum() >= 0.98

    def test_box_pixels_excluded(self, small_cam):
        spec = SceneSpec(camera_height=1200, floor_extent=4000,
                         boxes=[BoxSpec(0, 3000, 500, 500, 450)])
        frame, truth = render(spec, small_cam)
        mask = detect_ground(frame, small_cam)
        box = truth.object_masks[0]
        assert (box & ~mask).sum() / box.sum() >= 0.95

    def test_all_invalid_frame(self, small_cam):
        frame = DepthFrame(np.zeros((SMALL_H, SMALL_W), dtype=np.uint16))
        assert detect_ground(frame, small_cam).sum() == 0

    def test_mask_subset_of_band(self, small_cam):
        spec = SceneSpec(camera_height=1100, floor_extent=5000, noise_sigma=10,
                         boxes=[BoxSpec(-300, 2600, 400, 400, 500)])
        frame, _ = render(spec, small_cam, seed=5)
        params = DcgdParams()
        mask = detect_ground(frame, small_cam, params)
        z = frame.data.astype(float)
        ok = (z > 0) & (z >= params.z0 - params.dz / 2) & (z <= params.zf + params.dz / 2)
        assert not (mask & ~ok).any()

    def test_adding_box_never_adds_ground(self, small_cam):
        base = SceneSpec(camera_height=1200, floor_extent=4000)
        more = SceneSpec(camera_height=1200, floor_extent=4000,
                         boxes=[BoxSpec(200, 2800, 600, 500, 400)])
        m0 = detect_ground(render(base, small_cam)[0], small_cam)
        m1 = detect_ground(render(more, small_cam)[0], small_cam)
        assert not (m1 & ~m0).any()

    def test_ground_elevation(self, small_cam):
        frame, _ = render(SceneSpec(camera_height=1200, floor_extent=4000),
                          small_cam)
        mask = detect_ground(frame, small_cam)
        cloud = backproject(frame, small_cam)
        elevation = ground_elevation(cloud, mask[frame.valid_mask])
        assert elevation == pytest.approx(-1200, abs=5)

    def test_bad_params(self):
        with pytest.raises(ValueError):
            DcgdParams(z0=4000, zf=800)
        with pytest.raises(ValueError):
            DcgdParams(z0=0)
        with pytest.raises(ValueError):
            DcgdParams(dz=-1)
