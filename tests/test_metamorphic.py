"""Metamorphic relations for ``run_pipeline``: two runs whose grids must
relate in a known way, so no ground truth is needed (Chen, Cheung & Yiu,
"Metamorphic testing", HKUST-CS98-01, 1998)."""

from dataclasses import replace

import numpy as np
import pytest

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
        spec = random_scene(np.random.default_rng([seed, 12]))
        cells = grid_of(spec, tmp_path / "scene.pgm")
        mirrored = grid_of(mirror_scene(spec), tmp_path / "mirrored.pgm")
        assert cells.shape[1] == 120
        assert (cells >= 2).any()
        assert cells[:, 1:].tobytes() == mirrored[:, :0:-1].tobytes()
