"""Metamorphic relations for ``run_pipeline``: two runs whose grids must
relate in a known way, so no ground truth is needed (Chen, Cheung & Yiu,
"Metamorphic testing", HKUST-CS98-01, 1998)."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hapmap import depthio, scenegen
from hapmap.config import PipelineConfig
from hapmap.pipeline import run_pipeline

K = depthio.DEFAULT_INTRINSICS
HALF_TAN = K.cx / K.fx   # horizontal half field of view, x/z


def random_scene(rng):
    """A noiseless scene of 1-8 boxes and 0-2 holes, each wholly inside
    the horizontal view field and the default 800-4000 mm band; boxes and
    holes may touch or overlap."""

    def footprint(size_lo, size_hi):
        # the near edge lies at least 900 mm out, where the view field is
        # wider than any footprint drawn here
        w, d = rng.uniform(size_lo, size_hi, size=2)
        cz = rng.uniform(900 + d / 2, 3900 - d / 2)
        cx = rng.uniform(-1.0, 1.0) * ((cz - d / 2) * HALF_TAN - w / 2)
        return float(cx), float(cz), float(w), float(d)

    boxes = [scenegen.BoxSpec(*footprint(200, 700), float(rng.uniform(150, 900)))
             for _ in range(int(rng.integers(1, 9)))]
    holes = [scenegen.HoleSpec(*footprint(200, 800))
             for _ in range(int(rng.integers(0, 3)))]
    return scenegen.SceneSpec(camera_height=float(rng.uniform(1000, 1400)),
                              floor_extent=float(rng.uniform(4500, 8000)),
                              boxes=boxes, holes=holes)


def mirror_scene(spec):
    """spec with every box and hole centre negated in x."""
    return replace(spec,
                   boxes=[replace(b, center_x=-b.center_x) for b in spec.boxes],
                   holes=[replace(h, center_x=-h.center_x) for h in spec.holes])


def with_far_box(spec, rng, near_lo, near_hi):
    """spec plus one box whose near face lies at near_lo-near_hi mm, in
    the horizontal view field at that depth and on spec's floor."""
    near = float(rng.uniform(near_lo, near_hi))
    d = float(rng.uniform(100, min(700, spec.floor_extent - near)))
    w = float(rng.uniform(200, 700))
    half = min(near * HALF_TAN, spec.floor_extent / 2) - w / 2
    cx = float(rng.uniform(-half, half))
    box = scenegen.BoxSpec(cx, near + d / 2, w, d, float(rng.uniform(150, 1500)))
    return replace(spec, boxes=[*spec.boxes, box])


def grid_of(spec, path):
    """The geometry-only grid of spec's rendered frame, through a file."""
    frame, _ = scenegen.render_depth(spec, K)
    path.write_bytes(depthio.depth_to_pgm(frame))
    return run_pipeline(PipelineConfig(), path).grid.cells


class TestMirror:
    """The default intrinsics put the principal point on the image's
    centre line (cx = (width - 1) / 2), so a scene mirrored in x renders
    the mirrored frame, and the grid mirrors as pin u -> 120 - u.  Pin 0
    has no partner: x = 0 falls on pin 60 of 120.  Without a model no
    glyph is stamped, whose bitmap would not mirror."""

    @pytest.mark.parametrize("seed", range(20))
    def test_grid_mirrors(self, seed, tmp_path):
        assert (self.assert_mirrors(seed, tmp_path) >= 2).any()

    @settings(max_examples=25)
    @given(seed=st.integers(0, 2**32 - 1))
    @example(seed=36913)
    def test_grid_mirrors_any_seed(self, seed, tmp_path_factory):
        # the relation alone: a scene may raise no pin, as seed 36913's one
        # box does, which lies wholly below the lowest image row
        self.assert_mirrors(seed, tmp_path_factory.mktemp("mirror"))

    @staticmethod
    def assert_mirrors(seed, tmp_path):
        """Check the relation on random_scene(seed); return the grid."""
        spec = random_scene(np.random.default_rng([seed, 12]))
        cells = grid_of(spec, tmp_path / "scene.pgm")
        mirrored = grid_of(mirror_scene(spec), tmp_path / "mirrored.pgm")
        assert cells.shape[1] == 120
        assert cells[:, 1:].tobytes() == mirrored[:, :0:-1].tobytes()
        return cells


class TestOutOfBand:
    """A box wholly beyond the band's far end zf = 4000 mm leaves the grid
    as it was: nothing outside the band leaks in.  The depth cuts reach
    dz/2 = 25 mm past zf, so a near face at 4001-4025 mm is back-projected
    and ground-detected, and one past 4025 mm is never back-projected."""

    @settings(max_examples=25)
    @given(seed=st.integers(0, 2**32 - 1))
    @pytest.mark.parametrize("near_lo, near_hi", [(4001, 4025), (4026, 4400)],
                             ids=["last_cut", "beyond_cuts"])
    def test_far_box_keeps_grid(self, near_lo, near_hi, seed, tmp_path_factory):
        rng = np.random.default_rng([seed, 13])
        spec = random_scene(rng)
        tmp_path = tmp_path_factory.mktemp("far_box")
        cells = grid_of(spec, tmp_path / "scene.pgm")
        with_box = grid_of(with_far_box(spec, rng, near_lo, near_hi),
                           tmp_path / "with_box.pgm")
        assert cells.tobytes() == with_box.tobytes()
