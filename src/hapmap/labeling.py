"""Tactile glyph codec: 5x5 raised-dot labels for the coarse object classes.

Each labeling class gets one glyph derived from the silhouette of its
representative object (a chair for sit_on, a table for put_on, and so
on); stairs carry two glyphs so that climbing up and going down read
differently under a finger.  Glyphs are static data with hard
distinguishability rules: between 4 and 25 raised dots, and any two
glyphs differ in at least 4 cells.  ``synthgrid`` decides their pin level.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .geomfeat import Footprint, GeometricClass

GLYPH_SIZE = 5
MIN_DOTS = 4
MAX_DOTS = 25
MIN_PAIR_DISTANCE = 4

#: every sheet must define exactly these tags
REQUIRED_TAGS = ("sit_on", "put_on", "store_in", "sanitary",
                 "window", "door", "stairs_up", "stairs_down")

BUILTIN_SHEET_TEXT = """\
sit_on
#....
#....
####.
#..#.
#..#.

put_on
#####
#...#
#...#
#...#
#...#

store_in
#####
#####
#...#
#####
#####

sanitary
.....
#...#
#...#
#####
.#.#.

window
#####
#.#.#
#####
#.#.#
#####

door
#####
#...#
#..##
#...#
#####

stairs_up
....#
...##
..###
.####
#####

stairs_down
#....
##...
###..
####.
#####
"""


@dataclass(frozen=True)
class Glyph:
    tag: str
    bitmap: tuple[tuple[bool, ...], ...]   # 5 rows of 5 cells

    @property
    def dots(self) -> int:
        return sum(sum(row) for row in self.bitmap)

    def as_array(self) -> np.ndarray:
        return np.array(self.bitmap, dtype=bool)

    def distance(self, other: "Glyph") -> int:
        return int((self.as_array() != other.as_array()).sum())


class GlyphSheetError(ValueError):
    pass


class GlyphSheet:
    """The full set of glyphs; validates the tactile invariants on load."""

    def __init__(self, glyphs: dict[str, Glyph]):
        missing = set(REQUIRED_TAGS) - glyphs.keys()
        extra = glyphs.keys() - set(REQUIRED_TAGS)
        if missing or extra:
            raise GlyphSheetError(
                f"sheet tags mismatch (missing {sorted(missing)}, "
                f"extra {sorted(extra)})")
        for g in glyphs.values():
            if not MIN_DOTS <= g.dots <= MAX_DOTS:
                raise GlyphSheetError(
                    f"glyph {g.tag!r} has {g.dots} dots, "
                    f"want {MIN_DOTS}..{MAX_DOTS}")
        tags = list(REQUIRED_TAGS)
        for i, a in enumerate(tags):
            for b in tags[i + 1:]:
                d = glyphs[a].distance(glyphs[b])
                if d < MIN_PAIR_DISTANCE:
                    raise GlyphSheetError(
                        f"glyphs {a!r} and {b!r} differ in only {d} cells")
        self._glyphs = {tag: glyphs[tag] for tag in REQUIRED_TAGS}

    def __getitem__(self, tag: str) -> Glyph:
        if tag not in self._glyphs:
            raise ValueError(f"no glyph for tag {tag!r}")
        return self._glyphs[tag]

    def to_text(self) -> str:
        blocks = []
        for tag in REQUIRED_TAGS:
            rows = ["".join("#" if c else "." for c in row)
                    for row in self._glyphs[tag].bitmap]
            blocks.append("\n".join([tag, *rows]))
        return "\n\n".join(blocks) + "\n"

    def sha256(self) -> str:
        return hashlib.sha256(self.to_text().encode("ascii")).hexdigest()


def parse_glyph_sheet(text: str) -> GlyphSheet:
    """Parse the sheet file: blank-line separated blocks of tag + 5 dot rows."""
    glyphs: dict[str, Glyph] = {}
    block: list[str] = []

    def flush():
        if not block:
            return
        if len(block) != 1 + GLYPH_SIZE:
            raise GlyphSheetError(
                f"glyph block {block[0]!r} needs {GLYPH_SIZE} rows")
        tag = block[0]
        rows = []
        for line in block[1:]:
            if len(line) != GLYPH_SIZE or set(line) - {".", "#"}:
                raise GlyphSheetError(f"bad glyph row {line!r} in {tag!r}")
            rows.append(tuple(c == "#" for c in line))
        if tag in glyphs:
            raise GlyphSheetError(f"duplicate glyph tag {tag!r}")
        glyphs[tag] = Glyph(tag=tag, bitmap=tuple(rows))
        block.clear()

    for raw in text.splitlines():
        line = raw.strip()
        if line:
            block.append(line)
        else:
            flush()
    flush()
    return GlyphSheet(glyphs)


_builtin: GlyphSheet | None = None


def builtin_sheet() -> GlyphSheet:
    global _builtin
    if _builtin is None:
        _builtin = parse_glyph_sheet(BUILTIN_SHEET_TEXT)
    return _builtin


def stairs_direction(points: np.ndarray, ground_y: float) -> str:
    """Decide whether a stairs segment climbs or descends.

    Descending stairs live below the detected ground level, so a segment
    whose below-ground points reach a median depth over 100 mm reads
    "down"; a segment whose median height is positive reads "up"; anything
    ambiguous defaults to "up".
    """
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    if pts.shape[0] == 0:
        return "up"
    h = pts[:, 1] - ground_y
    below = h < 0
    if below.any() and np.median(-h[below]) > 100.0:
        return "down"
    return "up"


@dataclass
class ObjectDescriptor:
    """Fused per-segment result handed to scene synthesis."""

    segment_id: int
    footprint: Footprint
    geometry: GeometricClass
    label: str | None = None          # glyph tag, None when gated off
    confidence: float | None = None

    def __post_init__(self):
        if self.label is not None and self.label not in REQUIRED_TAGS:
            raise ValueError(f"label {self.label!r} is not a glyph tag")
