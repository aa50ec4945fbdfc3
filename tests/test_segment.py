"""Image segmentation, segment split, voxel filter and DBSCAN checked
byte for byte against independent references: a breadth-first flood
fill over the depth image, one boolean mask per segment, row-unique keys
with an unbuffered add, a dense O(n^2) DBSCAN, and on scene-sized clouds
a DBSCAN built on scipy's connected_components."""

import functools
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hapmap import depthio, pipeline, scenegen, segment
from hapmap.config import PipelineConfig
from hapmap.segment import (Segmentation, _roots, dbscan, extract_segments,
                            image_segments, voxel_downsample)

from oracles import (as_partition, blob_cloud, brute_dbscan, brute_voxel_downsample,
                     csgraph_dbscan, csgraph_roots, flood_fill_segments,
                     mask_split_segments)

NON_FINITE = [np.nan, np.inf, -np.inf]


def lattice_cloud(rng, eps, spacing_div, fill):
    """A random subset of a cubic lattice with spacing eps / spacing_div,
    in shuffled order; integer coordinates put many pairs exactly at eps."""
    step = eps // spacing_div
    grid = np.stack(np.meshgrid(np.arange(7), np.arange(6), np.arange(3),
                                indexing="ij"), axis=-1).reshape(-1, 3)
    pts = grid[rng.random(len(grid)) < fill] * step - 40.0
    return rng.permutation(pts.astype(np.float64))


def bridge_cloud():
    """Two 5-point line clusters with a border point between them."""
    left = np.array([[x, 0.0, 0.0] for x in (0, -10, -20, -30, -40)])
    right = np.array([[x, 0.0, 0.0] for x in (180, 190, 200, 210, 220)])
    bridge = np.array([[95.0, 0.0, 0.0]])
    return np.vstack([right, left, bridge])   # right scans first -> id 0


@functools.lru_cache(maxsize=None)
def clutter_scene(seed):
    """(frame, scene analysis) of a 640x480 frame of 6-9 boxes and a hole."""
    rng = np.random.default_rng(seed)
    slots = [(f * z, z) for z in (1500.0, 2300.0, 3100.0) for f in (-0.33, 0.0, 0.33)]
    chosen = rng.permutation(len(slots))[:int(rng.integers(6, 10))]
    boxes = [scenegen.BoxSpec(slots[s][0] + rng.uniform(-50, 50),
                              slots[s][1] + rng.uniform(-50, 50),
                              rng.uniform(250, 450), rng.uniform(250, 450),
                              rng.uniform(300, 1100)) for s in chosen]
    spec = scenegen.SceneSpec(camera_height=1200, floor_extent=4500, noise_sigma=10,
                              boxes=boxes, holes=[scenegen.HoleSpec(0, 1900, 300, 200)],
                              seed=seed)
    k = depthio.DEFAULT_INTRINSICS
    frame, _ = scenegen.render_depth(spec, k, 640, 480)
    return frame, pipeline.analyze_scene(PipelineConfig(), frame, k)


def clutter_occupied(seed):
    """(band frame, cloud, occupied flag per cloud row) of clutter_scene(seed):
    the cloud's rows are the band frame's pixels, as analyze_scene segments
    them."""
    scene = clutter_scene(seed)[1]
    band = PipelineConfig().dcgd
    z = scene.cloud[:, 2]
    occupied = (z >= band.z0) & (z <= band.zf) & ~scene.on_ground
    return scene.frame, scene.cloud, occupied


@functools.lru_cache(maxsize=None)
def clutter_voxels(seed):
    """The occupied points of clutter_scene(seed) voxelised at 20 mm:
    about 7k-10k points."""
    return voxel_downsample(clutter_scene(seed)[1].points, 20.0)


def random_label_path(rng, n):
    order = rng.permutation(n)
    return order[:-1], order[1:]


def zigzag_path(rng, n):
    """0 - n-1 - 1 - n-2 - 2 ...: the second round hooks the n/2 roots left
    into one chain, so pointer jumping must flatten a tree n/2 deep."""
    order = np.empty(n, dtype=np.int64)
    order[0::2] = np.arange((n + 1) // 2)
    order[1::2] = np.arange(n - 1, (n + 1) // 2 - 1, -1)
    return order[:-1], order[1:]


def lattice_grid(rng, n):
    side = int(np.sqrt(n))
    ids = rng.permutation(n)[:side * side].reshape(side, side)
    return (np.concatenate([ids[:, :-1].ravel(), ids[:-1, :].ravel()]),
            np.concatenate([ids[:, 1:].ravel(), ids[1:, :].ravel()]))


def random_tree(rng, n):
    order = rng.permutation(n)
    attach = (rng.random(n - 1) * np.arange(1, n)).astype(np.int64)
    return order[1:], order[attach]


def shuffled_edges(rng, i, j):
    """The same graph with edges in random order and orientation, some twice."""
    twice = rng.random(i.size) < 0.1
    i, j = np.concatenate([i, i[twice]]), np.concatenate([j, j[twice]])
    flip = rng.random(i.size) < 0.5
    i, j = np.where(flip, j, i), np.where(flip, i, j)
    order = rng.permutation(i.size)
    return i[order], j[order]


def assert_same_as_brute(cloud, eps, min_pts):
    got = dbscan(cloud, eps, min_pts)
    ref_labels, ref_k = brute_dbscan(cloud, eps, min_pts)
    assert got.k == ref_k
    np.testing.assert_array_equal(got.labels, ref_labels)


def assert_same_as_flood_fill(frame, cloud, occupied, link_mm, min_px):
    got = image_segments(frame, cloud, occupied, link_mm, min_px)
    ref_labels, ref_k = flood_fill_segments(frame, cloud, occupied, link_mm,
                                            min_px)
    assert got.k == ref_k
    assert got.labels.tobytes() == ref_labels.tobytes()
    return got


def image_and_cloud(depths):
    frame = depthio.DepthFrame(np.asarray(depths, dtype=np.uint16))
    return frame, depthio.backproject(frame, depthio.Intrinsics(1.0, 1.0, 0.0, 0.0))


class TestImageSegments:
    @settings(max_examples=300, deadline=None)
    @given(h=st.integers(1, 7), w=st.integers(1, 7),
           link_mm=st.sampled_from([0.0, 1.0, 2.0, 5.0]),
           min_px=st.integers(1, 6), data=st.data())
    def test_matches_flood_fill(self, h, w, link_mm, min_px, data):
        # depths 0-6 against links 0-5 put many neighbour pairs exactly at
        # link_mm; h or w of 1 gives 1-pixel columns or rows, and every
        # width > 1 has pixels w-1 and w adjacent in the pixel index
        depths = data.draw(st.lists(st.integers(0, 6), min_size=h * w,
                                    max_size=h * w))
        frame, cloud = image_and_cloud(np.reshape(depths, (h, w)))
        n = cloud.shape[0]
        occupied = np.array(data.draw(st.lists(st.booleans(), min_size=n,
                                               max_size=n)), dtype=bool)
        assert_same_as_flood_fill(frame, cloud, occupied, link_mm, min_px)

    def test_no_link_across_a_row_wrap(self):
        # pixels 2 and 3 follow each other in the index but sit in
        # different rows, at opposite edges of the image
        frame, cloud = image_and_cloud([[0, 0, 500], [500, 0, 0]])
        seg = image_segments(frame, cloud, np.ones(2, dtype=bool), 80.0, 1)
        assert seg.k == 2 and seg.labels.tolist() == [0, 1]

    def test_link_inclusive(self):
        frame, cloud = image_and_cloud([[1000], [1080], [1161]])
        seg = image_segments(frame, cloud, np.ones(3, dtype=bool), 80.0, 1)
        assert seg.labels.tolist() == [0, 0, 1]

    def test_small_components_are_noise_and_ids_follow_scan_order(self):
        frame, cloud = image_and_cloud([[900, 900, 0, 2000],
                                        [0, 0, 0, 2000],
                                        [3000, 3000, 3000, 0]])
        seg = image_segments(frame, cloud, np.ones(7, dtype=bool), 80.0, 3)
        assert seg.k == 1
        assert seg.labels.tolist() == [-1, -1, -1, -1, 0, 0, 0]
        seg = image_segments(frame, cloud, np.ones(7, dtype=bool), 80.0, 2)
        assert seg.labels.tolist() == [0, 0, 1, 1, 2, 2, 2]

    def test_unoccupied_rows_break_links(self):
        frame, cloud = image_and_cloud([[700, 700, 700, 700]])
        occupied = np.array([True, True, False, True])
        seg = image_segments(frame, cloud, occupied, 80.0, 1)
        assert seg.labels.tolist() == [0, 0, 1]

    def test_u_joined_only_through_its_bottom_row(self):
        # the right arm scans first, the left arm's runs join it only in
        # the last row, and a separate pixel scans between the arms
        frame, cloud = image_and_cloud([[0, 0, 0, 0, 1000],
                                        [1000, 0, 3000, 0, 1000],
                                        [1000, 0, 0, 0, 1000],
                                        [1000, 1000, 1000, 1000, 1000]])
        occupied = np.ones(cloud.shape[0], dtype=bool)
        seg = assert_same_as_flood_fill(frame, cloud, occupied, 80.0, 1)
        assert seg.k == 2
        assert seg.labels.tolist() == [0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0]

    @pytest.mark.parametrize("min_px, k", [(5, 1), (6, 0)])
    def test_size_sums_runs_shorter_than_min_px(self, min_px, k):
        # a one-pixel-wide column: five runs of one pixel each
        frame, cloud = image_and_cloud([[0, 900, 0]] * 5)
        seg = assert_same_as_flood_fill(frame, cloud, np.ones(5, dtype=bool),
                                        80.0, min_px)
        assert seg.k == k
        assert seg.labels.tolist() == [k - 1] * 5

    def test_depth_step_splits_a_run_and_a_lower_row_rejoins_it(self):
        # 1000 -> 1200 steps by more than link_mm inside the first row;
        # the second row ramps in steps of at most link_mm and links down
        # to both halves
        frame, cloud = image_and_cloud([[1000, 1000, 1200, 1200],
                                        [1000, 1040, 1120, 1160]])
        first_row = np.array([True] * 4 + [False] * 4)
        seg = assert_same_as_flood_fill(frame, cloud, first_row, 80.0, 1)
        assert seg.labels.tolist() == [0, 0, 1, 1]
        seg = assert_same_as_flood_fill(frame, cloud, np.ones(8, dtype=bool),
                                        80.0, 1)
        assert seg.k == 1 and seg.labels.tolist() == [0] * 8
        # the same with the step in the lower row: one upper run links
        # down to both halves
        frame, cloud = image_and_cloud([[1000, 1040, 1120, 1160],
                                        [1000, 1000, 1200, 1200]])
        seg = assert_same_as_flood_fill(frame, cloud, ~first_row, 80.0, 1)
        assert seg.labels.tolist() == [0, 0, 1, 1]
        seg = assert_same_as_flood_fill(frame, cloud, np.ones(8, dtype=bool),
                                        80.0, 1)
        assert seg.k == 1 and seg.labels.tolist() == [0] * 8

    def test_every_pixel_its_own_run(self):
        # a checkerboard of occupied pixels has no links at all
        frame, cloud = image_and_cloud(np.full((6, 7), 1000))
        r, c = np.divmod(frame.pixels, frame.width)
        board = (r + c) % 2 == 0
        seg = assert_same_as_flood_fill(frame, cloud, board, 80.0, 1)
        assert seg.labels.tolist() == list(range(int(board.sum())))
        seg = assert_same_as_flood_fill(frame, cloud, board, 80.0, 2)
        assert seg.k == 0 and (seg.labels == -1).all()
        # columns alternating in depth: one-pixel runs, joined down the
        # columns only, so each column is one segment
        depths = np.where(np.arange(7) % 2 == 0, 1000, 2000)
        frame, cloud = image_and_cloud(np.tile(depths, (6, 1)))
        seg = assert_same_as_flood_fill(frame, cloud, np.ones(42, dtype=bool),
                                        80.0, 6)
        assert seg.labels.tolist() == list(range(7)) * 6

    def test_nothing_occupied(self):
        frame, cloud = image_and_cloud([[0, 800], [800, 800]])
        seg = image_segments(frame, cloud, np.zeros(3, dtype=bool), 80.0, 1)
        assert seg.k == 0 and seg.labels.size == 0

    def test_bad_params(self):
        frame, cloud = image_and_cloud([[800]])
        occupied = np.ones(1, dtype=bool)
        for link_mm, min_px in ((-1.0, 1), (np.nan, 1), (80.0, 0)):
            with pytest.raises(ValueError):
                image_segments(frame, cloud, occupied, link_mm, min_px)
        with pytest.raises(ValueError, match="one row per valid pixel"):
            image_segments(frame, cloud, np.ones(2, dtype=bool), 80.0, 1)
        with pytest.raises(ValueError, match="one row per valid pixel"):
            image_segments(frame, np.vstack([cloud, cloud]),
                           np.ones(2, dtype=bool), 80.0, 1)

    def test_memory_follows_the_occupied_pixels(self):
        # a 2000x2000 frame with 12 valid pixels: one (height, width)
        # temporary would take at least 4 MB
        data = np.zeros((2000, 2000), dtype=np.uint16)
        data[1000, 500:506] = 1500
        data[1001, 500:506] = 1520
        frame, cloud = image_and_cloud(data)
        occupied = np.ones(12, dtype=bool)
        tracemalloc.start()
        try:
            seg = image_segments(frame, cloud, occupied, 80.0, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert seg.k == 1
        assert peak < 100_000


class TestImageSegmentsMatchFloodFill:
    """Scene-sized frames: about 60k occupied pixels each."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("link_mm, min_px", [(80.0, 200), (20.0, 1),
                                                 (10.0, 50)])
    def test_clutter_frames(self, seed, link_mm, min_px):
        frame, cloud, occupied = clutter_occupied(seed)
        assert occupied.sum() > 40_000
        seg = assert_same_as_flood_fill(frame, cloud, occupied, link_mm, min_px)
        assert seg.k >= 5

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_pipeline_segments(self, seed):
        # analyze_scene's partition, with the default config, is the oracle's
        frame, cloud, occupied = clutter_occupied(seed)
        scene = clutter_scene(seed)[1]
        cfg = PipelineConfig()
        ref_labels, ref_k = flood_fill_segments(
            frame, cloud, occupied, cfg.segment_link_mm, cfg.segment_min_px)
        assert scene.segmentation.k == ref_k == len(scene.segments)
        assert scene.segmentation.labels.tobytes() == ref_labels.tobytes()
        assert scene.points.tobytes() == cloud[occupied].tobytes()


class TestVoxelDownsample:
    def test_two_points_one_voxel(self):
        cloud = np.array([[1.0, 1.0, 1.0], [9.0, 3.0, 5.0]])
        out = voxel_downsample(cloud, leaf=20.0)
        np.testing.assert_allclose(out, [[5.0, 2.0, 3.0]])

    def test_separated_points_unchanged(self):
        cloud = np.array([[0.0, 0.0, 0.0], [25.0, 0.0, 0.0], [0.0, 25.0, 0.0]])
        assert voxel_downsample(cloud, leaf=20.0).shape == (3, 3)

    def test_plane_count_bound(self):
        rng = np.random.default_rng(0)
        cloud = np.column_stack([rng.uniform(0, 1000, 10000),
                                 np.zeros(10000),
                                 rng.uniform(0, 500, 10000)])
        out = voxel_downsample(cloud, leaf=20.0)
        assert len(out) <= np.ceil(1000 / 20) * np.ceil(500 / 20)

    def test_order_independent(self):
        rng = np.random.default_rng(1)
        cloud = rng.uniform(-100, 100, size=(200, 3))
        a = voxel_downsample(cloud, 20.0)
        b = voxel_downsample(cloud[rng.permutation(200)], 20.0)
        np.testing.assert_allclose(a, b)

    def test_bad_leaf(self):
        with pytest.raises(ValueError):
            voxel_downsample(np.zeros((1, 3)), 0.0)
        with pytest.raises(ValueError):
            voxel_downsample(np.zeros((1, 3)), np.nan)

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_non_finite_rejected(self, bad):
        cloud = np.zeros((4, 3))
        cloud[2, 1] = bad
        with pytest.raises(ValueError):
            voxel_downsample(cloud, 20.0)

    @pytest.mark.parametrize("center, spread", [
        (0.0, 100.0), (-5000.0, 3000.0), (1e15, 5e3), (-1e15, 5e3),
    ])
    def test_bytes_match_reference(self, center, spread):
        rng = np.random.default_rng(7)
        for _ in range(5):
            cloud = center + rng.uniform(-spread, spread, size=(400, 3))
            cloud = np.vstack([cloud, cloud[:50]])     # repeated points
            got = voxel_downsample(cloud, 20.0)
            assert got.tobytes() == brute_voxel_downsample(cloud, 20.0).tobytes()

    def test_mixed_magnitudes_match_reference(self):
        # Keys near +-5e13 per column: a combined flat key would overflow.
        rng = np.random.default_rng(8)
        cloud = rng.choice([-1e15, 0.0, 1e15], size=(300, 3))
        cloud += rng.uniform(-100, 100, size=(300, 3))
        got = voxel_downsample(cloud, 20.0)
        assert got.tobytes() == brute_voxel_downsample(cloud, 20.0).tobytes()

    def test_keys_beyond_int64_stay_apart(self):
        # floor(x / leaf) exceeds the int64 range here; distinct voxels
        # must not collapse into one wrapped key.
        cloud = np.array([[1e300, 0.0, 0.0], [2e300, 0.0, 0.0], [-1e300, 0.0, 0.0]])
        np.testing.assert_array_equal(voxel_downsample(cloud, 20.0),
                                      cloud[[2, 0, 1]])

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 300),
           leaf=st.sampled_from([0.5, 7.0, 20.0, 333.0]))
    def test_bytes_match_reference_random(self, seed, n, leaf):
        rng = np.random.default_rng(seed)
        cloud = rng.normal(0.0, 10 ** rng.uniform(0, 4), size=(n, 3))
        got = voxel_downsample(cloud, leaf)
        assert got.tobytes() == brute_voxel_downsample(cloud, leaf).tobytes()


class TestDbscan:
    def test_two_blobs(self):
        rng = np.random.default_rng(2)
        a = rng.normal((0, 0, 0), 20, size=(40, 3))
        b = rng.normal((1000, 0, 0), 20, size=(40, 3))
        seg = dbscan(np.vstack([a, b]), eps=100.0, min_pts=4)
        assert seg.k == 2
        assert (seg.labels == -1).sum() == 0

    def test_isolated_point_is_noise(self):
        cloud = np.array([[0.0, 0.0, 0.0]])
        seg = dbscan(cloud, eps=100.0, min_pts=4)
        assert seg.k == 0 and seg.labels[0] == -1

    def test_empty_cloud(self):
        seg = dbscan(np.zeros((0, 3)), eps=10, min_pts=2)
        assert seg.k == 0 and seg.labels.size == 0

    def test_min_pts_one_all_core(self):
        cloud = np.array([[0.0, 0, 0], [1000.0, 0, 0]])
        seg = dbscan(cloud, eps=10, min_pts=1)
        assert seg.k == 2

    def test_eps_inclusive(self):
        cloud = np.array([[0.0, 0, 0], [10.0, 0, 0]])
        seg = dbscan(cloud, eps=10.0, min_pts=2)
        assert seg.k == 1 and (seg.labels == 0).all()

    def test_matches_reference_on_random_clouds(self):
        rng = np.random.default_rng(4)
        for trial in range(12):
            cloud = blob_cloud(rng, n_blobs=int(rng.integers(1, 5)),
                               per_blob=int(rng.integers(20, 70)),
                               stray=int(rng.integers(0, 20)))
            assert_same_as_brute(cloud, 120.0, 5)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_blobs=st.integers(0, 4),
           per_blob=st.integers(1, 60), stray=st.integers(0, 20),
           eps=st.sampled_from([60.0, 120.0, 250.0]), min_pts=st.integers(1, 12))
    def test_exact_on_blob_clouds(self, seed, n_blobs, per_blob, stray, eps, min_pts):
        rng = np.random.default_rng(seed)
        cloud = blob_cloud(rng, n_blobs=n_blobs, per_blob=per_blob, stray=stray)
        assert_same_as_brute(cloud, eps, min_pts)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), eps=st.sampled_from([10, 40, 80]),
           spacing_div=st.sampled_from([1, 2]), fill=st.floats(0.2, 1.0),
           min_pts=st.integers(1, 34))
    def test_exact_on_lattice_ties(self, seed, eps, spacing_div, fill, min_pts):
        rng = np.random.default_rng(seed)
        cloud = lattice_cloud(rng, eps, spacing_div, fill)
        assert_same_as_brute(cloud, float(eps), min_pts)

    @pytest.mark.parametrize("min_pts", [1, 4, 5, 6])
    def test_exact_on_bridge(self, min_pts):
        assert_same_as_brute(bridge_cloud(), 100.0, min_pts)

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_non_finite_rejected(self, bad):
        cloud = np.zeros((4, 3))
        cloud[1, 0] = bad
        with pytest.raises(ValueError):
            dbscan(cloud, eps=10.0, min_pts=2)

    def test_permutation_invariant_partition(self):
        rng = np.random.default_rng(5)
        cloud = blob_cloud(rng)
        base = as_partition(cloud, dbscan(cloud, 120.0, 5).labels)
        for _ in range(5):
            perm = rng.permutation(len(cloud))
            shuffled = cloud[perm]
            assert as_partition(shuffled, dbscan(shuffled, 120.0, 5).labels) == base

    def test_ids_in_scan_order(self):
        a = np.zeros((5, 3))
        b = np.full((5, 3), 1000.0)
        seg = dbscan(np.vstack([b, a]), eps=10, min_pts=3)
        assert seg.labels[0] == 0 and seg.labels[-1] == 1

    def test_border_tie_lowest_id(self):
        # The bridge at x=95 sees 4 neighbors (itself, x=0, x=180, x=190)
        # so with min_pts=5 it is a border point of both clusters and must
        # join the lower id.
        seg = dbscan(bridge_cloud(), eps=100.0, min_pts=5)
        assert seg.k == 2
        assert seg.labels[-1] == 0   # border claimed by the lower id

    def test_bad_params(self):
        with pytest.raises(ValueError):
            dbscan(np.zeros((1, 3)), eps=0, min_pts=1)
        with pytest.raises(ValueError):
            dbscan(np.zeros((1, 3)), eps=1, min_pts=0)
        with pytest.raises(ValueError):
            dbscan(np.zeros((1, 3)), eps=np.nan, min_pts=1)


class TestDbscanMatchesCsgraph:
    """Scene-sized clouds, far past brute_dbscan's reach, against the
    connected_components DBSCAN, labels and k byte for byte."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("eps, min_pts", [(80.0, 10), (40.0, 4), (120.0, 25),
                                              (25.0, 6)])
    def test_clutter_voxels(self, seed, eps, min_pts):
        cloud = clutter_voxels(seed)
        assert cloud.shape[0] > 5000
        got = dbscan(cloud, eps, min_pts)
        ref_labels, ref_k = csgraph_dbscan(cloud, eps, min_pts)
        assert got.k == ref_k
        assert got.labels.tobytes() == ref_labels.tobytes()


class TestImportPath:
    """dbscan imports scipy's cKDTree only when it runs, so importing the
    package never loads scipy.spatial (about 30 MB of resident memory).
    oracles.py imports scipy.spatial itself, so the check needs a fresh
    interpreter."""

    def test_package_and_cli_leave_scipy_spatial_out(self):
        src = str(Path(segment.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        code = ("import sys, hapmap, hapmap.cli\n"
                "loaded = sorted(m for m in sys.modules if m.startswith('scipy.spatial'))\n"
                "assert not loaded, loaded\n")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": path})
        assert done.returncode == 0, done.stderr


class TestRoots:
    """Min-index hooking against connected_components' lowest index."""

    @pytest.mark.parametrize("graph", [random_label_path, zigzag_path,
                                       lattice_grid, random_tree])
    def test_adversarial_graphs(self, graph):
        rng = np.random.default_rng(7)
        n = 200_000
        i, j = shuffled_edges(rng, *graph(rng, n))
        np.testing.assert_array_equal(_roots(n, i, j), csgraph_roots(n, i, j))

    def test_many_components_and_isolated_nodes(self):
        rng = np.random.default_rng(8)
        n = 30_000
        parts = [graph(rng, 5_000) for graph in (random_label_path, zigzag_path,
                                                  lattice_grid, random_tree)]
        # scatter each part over its own random node ids; 10k stay isolated
        ids = rng.permutation(n)
        i = np.concatenate([ids[5_000 * p + a] for p, (a, _) in enumerate(parts)])
        j = np.concatenate([ids[5_000 * p + b] for p, (_, b) in enumerate(parts)])
        i, j = shuffled_edges(rng, i, j)
        np.testing.assert_array_equal(_roots(n, i, j), csgraph_roots(n, i, j))

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 30), data=st.data())
    def test_small_random_graphs(self, n, data):
        edges = data.draw(st.lists(st.tuples(st.integers(0, n - 1),
                                             st.integers(0, n - 1)), max_size=60))
        i = np.array([a for a, _ in edges], dtype=np.int64)
        j = np.array([b for _, b in edges], dtype=np.int64)
        np.testing.assert_array_equal(_roots(n, i, j), csgraph_roots(n, i, j))

    def test_no_edges(self):
        empty = np.zeros(0, dtype=np.int64)
        np.testing.assert_array_equal(_roots(4, empty, empty), np.arange(4))


class TestExtractSegments:
    def test_counts_and_order(self):
        cloud = np.arange(30, dtype=float).reshape(10, 3)
        labels = np.array([0, 0, 1, -1, 1, 1, 0, -1, 1, 0])
        segs = extract_segments(cloud, np.arange(10),
                                Segmentation(labels=labels, k=2))
        assert [s.id for s in segs] == [0, 1]
        assert [len(s.points) for s in segs] == [4, 4]
        assert [s.pixels.tolist() for s in segs] == [[0, 1, 6, 9], [2, 4, 5, 8]]

    def test_all_noise(self):
        cloud = np.zeros((3, 3))
        segs = extract_segments(cloud, np.arange(3),
                                Segmentation(labels=np.full(3, -1), k=0))
        assert segs == []

    def test_partition_sizes(self):
        rng = np.random.default_rng(6)
        cloud = blob_cloud(rng)
        seg = dbscan(cloud, 120.0, 5)
        segs = extract_segments(cloud, np.arange(len(cloud)), seg)
        assert sum(len(s.points) for s in segs) + (seg.labels == -1).sum() == len(cloud)

    def test_misaligned_labels(self):
        with pytest.raises(ValueError):
            extract_segments(np.zeros((3, 3)), np.arange(3),
                             Segmentation(labels=np.zeros(2), k=1))
        with pytest.raises(ValueError):
            extract_segments(np.zeros((3, 3)), np.arange(2),
                             Segmentation(labels=np.zeros(3), k=1))


def assert_same_as_mask_split(cloud, pixels, seg):
    segs = extract_segments(cloud, pixels, seg)
    ref = mask_split_segments(cloud, pixels, seg)
    assert [s.id for s in segs] == list(range(seg.k))
    # bytes fix the point order inside each segment, too
    assert [s.points.tobytes() for s in segs] == [p.tobytes() for p, _ in ref]
    assert [s.pixels.tobytes() for s in segs] == [x.tobytes() for _, x in ref]


class TestExtractMatchesMaskSplit:
    """The one-sort split against one boolean mask per segment."""

    def test_interleaved_labels_with_noise(self):
        rng = np.random.default_rng(9)
        cloud = rng.normal(0.0, 100.0, size=(500, 3))
        labels = rng.integers(-1, 7, size=500)
        pixels = np.sort(rng.choice(640 * 480, size=500, replace=False))
        assert_same_as_mask_split(cloud, pixels, Segmentation(labels=labels, k=7))

    def test_all_noise(self):
        # ids without a point still get an empty segment each
        cloud = np.arange(12, dtype=float).reshape(4, 3)
        assert_same_as_mask_split(cloud, np.arange(4),
                                  Segmentation(labels=np.full(4, -1), k=3))

    def test_k_zero(self):
        cloud = np.arange(12, dtype=float).reshape(4, 3)
        assert_same_as_mask_split(cloud, np.arange(4),
                                  Segmentation(labels=np.full(4, -1), k=0))
        empty = np.zeros(0, dtype=np.int64)
        assert_same_as_mask_split(np.zeros((0, 3)), empty,
                                  Segmentation(labels=empty, k=0))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_clutter_frames(self, seed):
        frame, cloud, occupied = clutter_occupied(seed)
        cfg = PipelineConfig()
        seg = image_segments(frame, cloud, occupied, cfg.segment_link_mm,
                             cfg.segment_min_px)
        assert seg.k >= 5
        assert_same_as_mask_split(cloud[occupied], frame.pixels[occupied], seg)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_pixels_back_project_to_the_points(self, seed):
        # a segment's pixels, looked up in the frame's pixel index, are the
        # cloud rows that back-project to its points
        frame, scene = clutter_scene(seed)
        cloud = depthio.backproject(frame, depthio.DEFAULT_INTRINSICS)
        assert len(scene.segments) >= 5
        for s in scene.segments:
            rows = np.searchsorted(frame.pixels, s.pixels)
            assert (frame.pixels[rows] == s.pixels).all()
            assert cloud[rows].tobytes() == s.points.tobytes()
