"""Glyph sheet integrity, stairs direction and object descriptors."""

import numpy as np
import pytest

from hapmap.geomfeat import classify_geometry, footprint
from hapmap.labeling import (GlyphSheetError, ObjectDescriptor, REQUIRED_TAGS,
                             builtin_sheet, parse_glyph_sheet, stairs_direction)
from hapmap.scenegen import sample_box_cloud

# frozen so accidental edits to the built-in sheet fail loudly
BUILTIN_SHEET_SHA256 = "954fe2f953ea0d97f44b790254d65f64b8af42c0552cf62d01890e44fcb6e4f3"


class TestSheet:
    def test_builtin_hash_frozen(self):
        assert builtin_sheet().sha256() == BUILTIN_SHEET_SHA256

    def test_dot_budget(self):
        sheet = builtin_sheet()
        for tag in REQUIRED_TAGS:
            assert 4 <= sheet[tag].dots <= 25

    def test_pairwise_distance(self):
        sheet = builtin_sheet()
        for i, a in enumerate(REQUIRED_TAGS):
            for b in REQUIRED_TAGS[i + 1:]:
                assert sheet[a].distance(sheet[b]) >= 4

    def test_roundtrip(self):
        sheet = builtin_sheet()
        again = parse_glyph_sheet(sheet.to_text())
        assert again.sha256() == sheet.sha256()

    def test_missing_tag_rejected(self):
        text = builtin_sheet().to_text().split("\n\n", 1)[1]
        with pytest.raises(GlyphSheetError, match="missing"):
            parse_glyph_sheet(text)

    def test_bad_row_rejected(self):
        with pytest.raises(GlyphSheetError, match="row"):
            parse_glyph_sheet("sit_on\n#####\n###\n#####\n#####\n#####\n")

    def test_close_pair_rejected(self):
        # make window a near-copy of store_in: only two cells differ
        text = builtin_sheet().to_text().replace(
            "window\n#####\n#.#.#\n#####\n#.#.#\n#####",
            "window\n#####\n#####\n#.#.#\n#####\n#####")
        with pytest.raises(GlyphSheetError, match="differ"):
            parse_glyph_sheet(text)


class TestGlyphFor:
    """The glyph for an object is the sheet's glyph under its tag."""

    def test_stairs_need_direction(self):
        sheet = builtin_sheet()
        assert sheet["stairs_up"].distance(sheet["stairs_down"]) >= 4
        with pytest.raises(ValueError, match="'stairs'"):
            sheet["stairs"]

    def test_all_classes_distinct(self):
        sheet = builtin_sheet()
        assert len({sheet[tag].tag for tag in REQUIRED_TAGS}) == 8

    def test_sanitary_is_bathtub_glyph(self):
        assert builtin_sheet()["sanitary"].tag == "sanitary"

    def test_unknown_class(self):
        with pytest.raises(ValueError, match="'spaceship'"):
            builtin_sheet()["spaceship"]


class TestStairsDirection:
    def test_rising_staircase_up(self):
        steps = sample_box_cloud("stairs", np.random.default_rng(0))
        assert stairs_direction(steps, ground_y=0.0) == "up"

    def test_descending_staircase_down(self):
        steps = sample_box_cloud("stairs", np.random.default_rng(1)).copy()
        steps[:, 1] *= -1.0   # steps drop below the detected ground
        assert stairs_direction(steps, ground_y=0.0) == "down"

    def test_flat_segment_defaults_up(self):
        flat = np.zeros((50, 3))
        assert stairs_direction(flat, ground_y=0.0) == "up"


class TestObjectDescriptor:
    def test_stairs_direction_invariant(self):
        # the label is a glyph tag, so a stairs label carries its direction
        fp = footprint(np.random.default_rng(0).normal((0, 0, 2000), 100, (30, 3)),
                       np.arange(30))
        geom = classify_geometry(500, 0.3)
        for label in (None, *REQUIRED_TAGS):
            ObjectDescriptor(0, fp, geom, label=label)
        for label in ("stairs", "stairs_sideways", "toilet"):
            with pytest.raises(ValueError, match=repr(label)):
                ObjectDescriptor(0, fp, geom, label=label)
