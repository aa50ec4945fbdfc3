"""Image segmentation and the segment split checked byte for byte against
independent references: a breadth-first flood fill over the depth image
and one boolean mask per segment; the run roots against scipy's
connected_components."""

import functools
import importlib
import os
import subprocess
import sys
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hapmap import depthio, pipeline, scenegen, segment
from hapmap.config import PipelineConfig
from hapmap.segment import _roots, extract_segments, image_segments

from oracles import (clutter_spec, csgraph_roots, flood_fill_segments,
                     mask_split_segments)


@functools.lru_cache(maxsize=None)
def clutter_scene(seed):
    """(frame, scene analysis) of a 640x480 frame of 6-9 boxes and a hole."""
    k = depthio.DEFAULT_INTRINSICS
    frame, _ = scenegen.render_depth(clutter_spec(seed), k, 640, 480)
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


def segment_count(labels):
    """k of labels that number the kept segments 0 to k-1."""
    return int(np.max(labels, initial=-1)) + 1


def assert_same_as_flood_fill(frame, cloud, occupied, link_mm, min_px):
    """image_segments on the rows that occupied flags against the flood
    fill on the flags."""
    got = image_segments(frame, cloud, np.flatnonzero(occupied), link_mm,
                         min_px)
    ref_labels, ref_k = flood_fill_segments(frame, cloud, occupied, link_mm,
                                            min_px)
    assert segment_count(got) == ref_k
    assert got.tobytes() == ref_labels.tobytes()
    return got


def image_and_cloud(depths):
    frame = depthio.DepthFrame(np.asarray(depths, dtype=np.uint16))
    return frame, depthio.backproject(frame, depthio.Intrinsics(1.0, 1.0, 0.0, 0.0))


class TestImageSegments:
    @settings(max_examples=300)
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
        labels = image_segments(frame, cloud, np.arange(2), 80.0, 1)
        assert labels.tolist() == [0, 1]

    def test_link_inclusive(self):
        frame, cloud = image_and_cloud([[1000], [1080], [1161]])
        labels = image_segments(frame, cloud, np.arange(3), 80.0, 1)
        assert labels.tolist() == [0, 0, 1]

    def test_small_components_are_noise_and_ids_follow_scan_order(self):
        frame, cloud = image_and_cloud([[900, 900, 0, 2000],
                                        [0, 0, 0, 2000],
                                        [3000, 3000, 3000, 0]])
        labels = image_segments(frame, cloud, np.arange(7), 80.0, 3)
        assert labels.tolist() == [-1, -1, -1, -1, 0, 0, 0]
        labels = image_segments(frame, cloud, np.arange(7), 80.0, 2)
        assert labels.tolist() == [0, 0, 1, 1, 2, 2, 2]

    def test_unoccupied_rows_break_links(self):
        frame, cloud = image_and_cloud([[700, 700, 700, 700]])
        labels = image_segments(frame, cloud, np.array([0, 1, 3]), 80.0, 1)
        assert labels.tolist() == [0, 0, 1]

    def test_u_joined_only_through_its_bottom_row(self):
        # the right arm scans first, the left arm's runs join it only in
        # the last row, and a separate pixel scans between the arms
        frame, cloud = image_and_cloud([[0, 0, 0, 0, 1000],
                                        [1000, 0, 3000, 0, 1000],
                                        [1000, 0, 0, 0, 1000],
                                        [1000, 1000, 1000, 1000, 1000]])
        occupied = np.ones(cloud.shape[0], dtype=bool)
        labels = assert_same_as_flood_fill(frame, cloud, occupied, 80.0, 1)
        assert labels.tolist() == [0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0]

    @pytest.mark.parametrize("min_px, k", [(5, 1), (6, 0)])
    def test_size_sums_runs_shorter_than_min_px(self, min_px, k):
        # a one-pixel-wide column: five runs of one pixel each
        frame, cloud = image_and_cloud([[0, 900, 0]] * 5)
        labels = assert_same_as_flood_fill(frame, cloud, np.ones(5, dtype=bool),
                                           80.0, min_px)
        assert segment_count(labels) == k
        assert labels.tolist() == [k - 1] * 5

    def test_depth_step_splits_a_run_and_a_lower_row_rejoins_it(self):
        # 1000 -> 1200 steps by more than link_mm inside the first row;
        # the second row ramps in steps of at most link_mm and links down
        # to both halves
        frame, cloud = image_and_cloud([[1000, 1000, 1200, 1200],
                                        [1000, 1040, 1120, 1160]])
        first_row = np.array([True] * 4 + [False] * 4)
        labels = assert_same_as_flood_fill(frame, cloud, first_row, 80.0, 1)
        assert labels.tolist() == [0, 0, 1, 1]
        labels = assert_same_as_flood_fill(frame, cloud, np.ones(8, dtype=bool),
                                           80.0, 1)
        assert labels.tolist() == [0] * 8
        # the same with the step in the lower row: one upper run links
        # down to both halves
        frame, cloud = image_and_cloud([[1000, 1040, 1120, 1160],
                                        [1000, 1000, 1200, 1200]])
        labels = assert_same_as_flood_fill(frame, cloud, ~first_row, 80.0, 1)
        assert labels.tolist() == [0, 0, 1, 1]
        labels = assert_same_as_flood_fill(frame, cloud, np.ones(8, dtype=bool),
                                           80.0, 1)
        assert labels.tolist() == [0] * 8

    def test_every_pixel_its_own_run(self):
        # a checkerboard of occupied pixels has no links at all
        frame, cloud = image_and_cloud(np.full((6, 7), 1000))
        r, c = np.divmod(frame.pixels, frame.width)
        board = (r + c) % 2 == 0
        labels = assert_same_as_flood_fill(frame, cloud, board, 80.0, 1)
        assert labels.tolist() == list(range(int(board.sum())))
        labels = assert_same_as_flood_fill(frame, cloud, board, 80.0, 2)
        assert (labels == -1).all()
        # columns alternating in depth: one-pixel runs, joined down the
        # columns only, so each column is one segment
        depths = np.where(np.arange(7) % 2 == 0, 1000, 2000)
        frame, cloud = image_and_cloud(np.tile(depths, (6, 1)))
        labels = assert_same_as_flood_fill(frame, cloud,
                                           np.ones(42, dtype=bool), 80.0, 6)
        assert labels.tolist() == list(range(7)) * 6

    def test_nothing_occupied(self):
        frame, cloud = image_and_cloud([[0, 800], [800, 800]])
        labels = image_segments(frame, cloud, np.zeros(0, dtype=np.intp),
                                80.0, 1)
        assert labels.size == 0

    def test_bad_params(self):
        frame, cloud = image_and_cloud([[800]])
        for link_mm, min_px in ((-1.0, 1), (np.nan, 1), (80.0, 0)):
            with pytest.raises(ValueError):
                image_segments(frame, cloud, np.arange(1), link_mm, min_px)
        with pytest.raises(ValueError, match="one row per valid pixel"):
            image_segments(frame, np.vstack([cloud, cloud]), np.arange(1),
                           80.0, 1)

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
            labels = image_segments(frame, cloud, occupied, 80.0, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert labels.tolist() == [0] * 12
        assert peak < 100_000


class TestImageSegmentsMatchFloodFill:
    """Scene-sized frames: about 60k occupied pixels each."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("link_mm, min_px", [(80.0, 200), (20.0, 1),
                                                 (10.0, 50)])
    def test_clutter_frames(self, seed, link_mm, min_px):
        frame, cloud, occupied = clutter_occupied(seed)
        assert occupied.sum() > 40_000
        labels = assert_same_as_flood_fill(frame, cloud, occupied, link_mm,
                                           min_px)
        assert segment_count(labels) >= 5

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_pipeline_segments(self, seed):
        # analyze_scene's partition, with the default config, is the oracle's
        frame, cloud, occupied = clutter_occupied(seed)
        scene = clutter_scene(seed)[1]
        cfg = PipelineConfig()
        ref_labels, ref_k = flood_fill_segments(
            frame, cloud, occupied, cfg.segment_link_mm, cfg.segment_min_px)
        assert len(scene.segments) == ref_k
        assert scene.labels.tobytes() == ref_labels.tobytes()
        assert scene.occupied.tobytes() == np.flatnonzero(occupied).tobytes()


#: one frame through the whole pipeline in a fresh interpreter, then the
#: loaded scipy modules; argv[1] is a scratch path for the depth frame
RUN_AND_LIST_SCIPY = """
import sys
import hapmap, hapmap.cli
from hapmap import depthio, scenegen
from hapmap.config import PipelineConfig
from hapmap.pipeline import run_pipeline
spec = scenegen.SceneSpec(camera_height=1200, floor_extent=4000,
                          boxes=[scenegen.BoxSpec(250, 1730, 600, 500, 600)])
frame, _ = scenegen.render_depth(spec, depthio.DEFAULT_INTRINSICS)
with open(sys.argv[1], "wb") as fh:
    fh.write(depthio.depth_to_pgm(frame))
assert len(run_pipeline(PipelineConfig(), sys.argv[1]).descriptors) == 1
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, loaded
"""


class TestImportPath:
    """The package needs numpy only: importing ``hapmap`` and ``hapmap.cli``
    and running a frame through ``run_pipeline`` load no scipy module.
    oracles.py imports scipy itself, so the check needs a fresh
    interpreter."""

    def test_package_and_cli_leave_scipy_spatial_out(self, tmp_path):
        src = str(Path(segment.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", RUN_AND_LIST_SCIPY, str(tmp_path / "d.pgm")],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
        assert done.returncode == 0, done.stderr


class TestBenchmarkTracer:
    """perfbench/tracer.py swaps a timing wrapper in for every function its
    TRACED table names, so each of those names must still exist (the
    ``voxel_downsample``, ``dbscan`` and ``split_subcuts`` stubs among
    them), and every original must come back when the block ends.  The
    tracer is read from its file, not imported, so nothing is written
    next to it."""

    def test_every_traced_attribute_is_restored(self):
        path = Path(__file__).parents[1] / "perfbench" / "tracer.py"
        tracer = types.ModuleType("tracer")
        exec(compile(path.read_text(), str(path), "exec"), vars(tracer))
        for name in tracer.TRACED:
            importlib.import_module(f"hapmap.{name}")
        before = {name: dict(vars(module)) for name, module in sys.modules.items()
                  if name == "hapmap" or name.startswith("hapmap.")}
        with tracer.Tracer().installed():
            for name, fns in tracer.TRACED.items():
                module = sys.modules[f"hapmap.{name}"]
                for fn in fns:
                    assert getattr(module, fn).__wrapped__ is before[module.__name__][fn]
        for name, attrs in before.items():
            now = vars(sys.modules[name])
            assert [a for a, v in attrs.items() if now.get(a) is not v] == []


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

    @settings(max_examples=200)
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
        # ten labelled rows out of a 20-row cloud
        cloud = np.arange(60, dtype=float).reshape(20, 3)
        rows = np.arange(10) * 2 + 1
        labels = np.array([0, 0, 1, -1, 1, 1, 0, -1, 1, 0])
        segs = extract_segments(cloud, rows, labels)
        assert [s.id for s in segs] == [0, 1]
        assert [s.rows.tolist() for s in segs] == [[1, 3, 13, 19],
                                                   [5, 9, 11, 17]]
        assert [s.points.tobytes() for s in segs] == [cloud[s.rows].tobytes()
                                                      for s in segs]

    def test_all_noise(self):
        cloud = np.zeros((3, 3))
        assert extract_segments(cloud, np.arange(3), np.full(3, -1)) == []

    def test_partition_sizes(self):
        # every occupied row lands in one segment or in the noise
        frame, cloud, occupied = clutter_occupied(0)
        rows = np.flatnonzero(occupied)
        labels = image_segments(frame, cloud, rows, 20.0, 50)
        segs = extract_segments(cloud, rows, labels)
        noise = int((labels == -1).sum())
        assert len(segs) >= 5 and noise > 0
        assert sum(len(s.rows) for s in segs) + noise == occupied.sum()

    def test_misaligned_labels(self):
        with pytest.raises(ValueError):
            extract_segments(np.zeros((3, 3)), np.arange(3), np.zeros(2))
        with pytest.raises(ValueError):
            extract_segments(np.zeros((3, 3)), np.arange(2), np.zeros(3))


def assert_same_as_mask_split(cloud, rows, labels):
    segs = extract_segments(cloud, rows, labels)
    ref = mask_split_segments(cloud, rows, labels)
    assert [s.id for s in segs] == list(range(len(ref)))
    # bytes fix the row order inside each segment, too
    assert [s.rows.tobytes() for s in segs] == [r.tobytes() for r, _ in ref]
    assert [s.points.tobytes() for s in segs] == [p.tobytes() for _, p in ref]


class TestExtractMatchesMaskSplit:
    """The one-sort split against one boolean mask per segment."""

    def test_interleaved_labels_with_noise(self):
        rng = np.random.default_rng(9)
        cloud = rng.normal(0.0, 100.0, size=(2000, 3))
        rows = np.sort(rng.choice(2000, size=500, replace=False))
        labels = rng.integers(-1, 7, size=500)
        assert_same_as_mask_split(cloud, rows, labels)

    def test_all_noise(self):
        cloud = np.arange(15, dtype=float).reshape(5, 3)
        assert_same_as_mask_split(cloud, np.arange(1, 5), np.full(4, -1))

    def test_ids_without_rows(self):
        # ids below the largest without a row still get an empty segment
        cloud = np.arange(15, dtype=float).reshape(5, 3)
        rows, labels = np.arange(1, 5), np.array([-1, 2, -1, 2])
        assert_same_as_mask_split(cloud, rows, labels)
        assert [s.rows.tolist() for s in extract_segments(cloud, rows, labels)
                ] == [[], [], [2, 4]]

    def test_k_zero(self):
        empty = np.zeros(0, dtype=np.int64)
        assert_same_as_mask_split(np.zeros((0, 3)), empty, empty)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_clutter_frames(self, seed):
        frame, cloud, occupied = clutter_occupied(seed)
        cfg = PipelineConfig()
        rows = np.flatnonzero(occupied)
        labels = image_segments(frame, cloud, rows, cfg.segment_link_mm,
                                cfg.segment_min_px)
        assert segment_count(labels) >= 5
        assert_same_as_mask_split(cloud, rows, labels)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_pixels_back_project_to_the_points(self, seed):
        # a segment's points are the band cloud at its rows, and its
        # pixels, looked up in the full frame's pixel index, are the rows
        # of the full cloud that back-project to those points
        frame, scene = clutter_scene(seed)
        cloud = depthio.backproject(frame, depthio.DEFAULT_INTRINSICS)
        assert len(scene.segments) >= 5
        for s in scene.segments:
            assert np.take(scene.cloud, s.rows, axis=0).tobytes() == \
                s.points.tobytes()
            pixels = scene.frame.pixels[s.rows]
            rows = np.searchsorted(frame.pixels, pixels)
            assert (frame.pixels[rows] == pixels).all()
            assert cloud[rows].tobytes() == s.points.tobytes()
