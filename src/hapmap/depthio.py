"""Depth frame I/O, pinhole camera model, and metric back-projection.

Conventions used throughout the package:

* Depth rasters are row-major, top row first; a raw value of 0 means the
  sensor returned nothing for that pixel.
* The camera frame is x right, y up, z forward, in millimeters.  Image
  row v maps into 3D through (cy - v), so the ground sits at the low end
  of the y range.
"""

from __future__ import annotations

import re
import struct
from dataclasses import MISSING, dataclass, fields
from functools import cached_property

import numpy as np

FLAT_MAGIC = b"DBF1"

DEFAULT_WIDTH = 640
DEFAULT_HEIGHT = 480


class DepthFormatError(ValueError):
    """Malformed or truncated depth / intrinsics file."""


@dataclass(frozen=True)
class Intrinsics:
    """Pinhole camera parameters; focal lengths and principal point in pixels.

    depth_scale converts raw raster units to millimeters (1 raw unit ==
    depth_scale mm).
    """

    fx: float
    fy: float
    cx: float
    cy: float
    depth_scale: float = 1.0

    def __post_init__(self):
        if not (0 < self.fx < np.inf and 0 < self.fy < np.inf):
            raise ValueError("focal lengths must be positive and finite")
        if not 0 < self.depth_scale < np.inf:
            raise ValueError("depth_scale must be positive and finite")
        if not (np.isfinite(self.cx) and np.isfinite(self.cy)):
            raise ValueError("principal point must be finite")


#: Typical 640x480 structured-light sensor; used when no intrinsics file is given.
DEFAULT_INTRINSICS = Intrinsics(fx=575.8, fy=575.8, cx=319.5, cy=239.5)


class DepthFrame:
    """A 16-bit depth raster. data is a (height, width) uint16 array.

    data is read-only through the frame, so the pixel index computed from
    it stays valid for the frame's lifetime.  Other input must hold whole
    numbers in uint16 range: nan, inf or 1.7 raise instead of casting to
    a quiet 0 or a truncated depth.
    """

    def __init__(self, data: np.ndarray):
        data = np.asarray(data)
        if data.ndim != 2:
            raise ValueError("depth data must be a 2-D raster")
        if data.dtype != np.uint16:
            if data.dtype.kind not in "biu" and not np.all(
                    np.isfinite(data) & (data == np.floor(data))):
                raise ValueError("depth values must be finite whole numbers")
            if data.size and (np.any(data < 0) or np.any(data >= 2**16)):
                raise ValueError("depth values must fit in uint16")
            data = data.astype(np.uint16)
        self.data = data.view()
        self.data.flags.writeable = False

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @cached_property
    def pixels(self) -> np.ndarray:
        """Flat row-major indices of the valid (nonzero) pixels, int64.

        Row i of ``backproject(frame, k)`` is pixel ``pixels[i]``; every
        step from the image to the cloud and back reads this one index.
        """
        return np.flatnonzero(self.data)

    @property
    def rows_columns(self) -> tuple[np.ndarray, np.ndarray]:
        """(image row, image column) of each pixel of ``pixels``, per read."""
        rows = self.pixels // self.width   # a third of np.divmod's time
        return rows, self.pixels - rows * self.width

    def within(self, lo: int, hi: int) -> DepthFrame:
        """The frame with only the pixels of raw value lo..hi left valid
        (1 <= lo); the others read 0.

        The new frame's pixel index comes from the same mask, so its data
        is never searched again.
        """
        if lo < 1:
            raise ValueError("the lowest kept raw value must be at least 1")
        keep = (self.data >= lo) & (self.data <= hi)
        frame = DepthFrame(self.data * keep)
        frame.pixels = np.flatnonzero(keep)   # fills the cached_property
        return frame

    def __eq__(self, other):
        return isinstance(other, DepthFrame) and np.array_equal(self.data, other.data)


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

#: a P5 header: three decimal fields, each after whitespace or comments
#: ('#' up to a line break) and at least one of them between fields, then
#: exactly one whitespace byte before the payload
_SEPARATOR = rb"(?:\s|#[^\r\n]*(?=[\r\n]))"
_PGM_HEADER = re.compile(rb"P5%s*(\d+)%s+(\d+)%s+(\d+)\s"
                         % (_SEPARATOR, _SEPARATOR, _SEPARATOR))


def load_depth_pgm(blob: bytes) -> DepthFrame:
    """Decode a binary PGM (P5) or the package's flat binary depth format.

    PGM payloads with maxval > 255 are 2 bytes per pixel, big-endian, per
    the PGM specification.  The flat format is FLAT_MAGIC, two little-endian
    uint32 (width, height), then width*height little-endian uint16.
    """
    if blob[:4] == FLAT_MAGIC:
        if len(blob) < 12:
            raise DepthFormatError("truncated flat depth header")
        width, height = struct.unpack_from("<II", blob, 4)
        if width == 0 or height == 0:
            raise DepthFormatError("flat depth header has zero width or height")
        kind, dtype, offset = "flat depth", np.dtype("<u2"), 12
    elif blob[:2] == b"P5":
        header = _PGM_HEADER.match(blob)
        if header is None:
            raise DepthFormatError("malformed PGM header")
        try:
            width, height, maxval = map(int, header.groups())
        except ValueError:   # a field longer than int()'s digit limit
            raise DepthFormatError("malformed PGM header") from None
        if maxval > 65535:
            raise DepthFormatError("PGM maxval exceeds 65535")
        if maxval <= 0 or width <= 0 or height <= 0:
            raise DepthFormatError("malformed PGM header")
        kind, offset = "PGM", header.end()
        dtype = np.dtype("u1" if maxval < 256 else ">u2")
    else:
        raise DepthFormatError("unrecognized depth format (want P5 or flat binary)")
    if len(blob) < offset + dtype.itemsize * width * height:
        raise DepthFormatError(f"truncated {kind} payload")
    data = np.frombuffer(blob, dtype=dtype, count=width * height, offset=offset)
    return DepthFrame(data.reshape(height, width).astype(np.uint16))


def pgm_bytes(raster: np.ndarray) -> bytes:
    """Binary PGM (P5) of a 2-D uint8 or uint16 raster: maxval 255, or
    65535 with big-endian samples."""
    raster = np.asarray(raster)
    if raster.dtype not in (np.uint8, np.uint16):
        raise ValueError("a PGM raster must be uint8 or uint16")
    height, width = raster.shape
    header = f"P5\n{width} {height}\n{np.iinfo(raster.dtype).max}\n".encode("ascii")
    return header + raster.astype(raster.dtype.newbyteorder(">")).tobytes()


def depth_to_pgm(frame: DepthFrame) -> bytes:
    return pgm_bytes(frame.data)


def depth_to_flat(frame: DepthFrame) -> bytes:
    header = FLAT_MAGIC + struct.pack("<II", frame.width, frame.height)
    return header + frame.data.astype("<u2").tobytes()


def mask_to_pgm(mask: np.ndarray) -> bytes:
    """8-bit PGM with 255 where the mask is set, 0 elsewhere."""
    return pgm_bytes(np.asarray(mask, dtype=bool).astype(np.uint8) * 255)


def content_lines(text: str):
    """Yield (lineno, line) for each line of text that holds content.

    The one comment rule of every line-oriented input: '#' starts a
    comment, each line is stripped of surrounding blanks, and lines left
    empty are skipped.  lineno counts every line from 1.
    """
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def key_value_lines(text: str, what: str, error: type[Exception] = ValueError,
                    repeatable: tuple[str, ...] = ()):
    """Yield (lineno, key, value) from flat `key=value` text, both stripped.

    Lines are read through ``content_lines``.  A line without '='
    raises ``error("<what> line <n>: expected key=value")``, and a second
    line for a key not in ``repeatable`` raises an error naming both lines.
    """
    first_line: dict[str, int] = {}
    for lineno, line in content_lines(text):
        if "=" not in line:
            raise error(f"{what} line {lineno}: expected key=value")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in first_line and key not in repeatable:
            raise error(f"{what} line {lineno}: {key} already set on line "
                        f"{first_line[key]}")
        first_line.setdefault(key, lineno)
        yield lineno, key, value.strip()


def parse_value(conv, value, where: str, error: type[Exception] = ValueError):
    """conv(value); a ValueError it raises becomes ``error("<where>: ...")``,
    where names the line and key, as in "config line 3: seed"."""
    try:
        return conv(value)
    except ValueError as exc:
        raise error(f"{where}: {exc}") from None


def load_intrinsics(text: str) -> Intrinsics:
    """Parse the flat key-value intrinsics file: one ``name=value`` line per
    Intrinsics field (fx, fy, cx, cy, depth_scale); the fields without a
    default are required."""
    values = {}
    keys = [f.name for f in fields(Intrinsics)]
    for lineno, key, val in key_value_lines(text, "intrinsics", DepthFormatError):
        if key not in keys:
            raise DepthFormatError(f"intrinsics line {lineno}: unknown key {key!r}")
        values[key] = parse_value(float, val, f"intrinsics line {lineno}: {key}",
                                  DepthFormatError)
    missing = {f.name for f in fields(Intrinsics)
               if f.default is MISSING} - values.keys()
    if missing:
        raise DepthFormatError(f"intrinsics file missing keys: {sorted(missing)}")
    return parse_value(lambda kw: Intrinsics(**kw), values, "intrinsics file",
                       DepthFormatError)


def format_intrinsics(k: Intrinsics) -> str:
    """The intrinsics file text of k, one ``key=value`` line per field, as
    ``load_intrinsics`` reads it back."""
    return "".join(f"{f.name}={getattr(k, f.name)}\n" for f in fields(k))


# ---------------------------------------------------------------------------
# Geometry
# ---------------------------------------------------------------------------

def backproject(frame: DepthFrame, k: Intrinsics) -> np.ndarray:
    """Back-project valid pixels to an (N, 3) point cloud in millimeters.

    For pixel (u, v) with depth z: x = (u - cx) * z / fx and
    y = (cy - v) * z / fy (y up).  Zero-depth pixels are skipped: row i is
    pixel ``frame.pixels[i]``, so rows follow row-major pixel scan order.
    """
    if not (0 <= k.cx < frame.width and 0 <= k.cy < frame.height):
        raise ValueError("principal point lies outside the image")
    vs, us = frame.rows_columns
    z = frame.data.ravel()[frame.pixels].astype(np.float64) * k.depth_scale
    # coordinate-major storage: each coordinate column is contiguous, so
    # the cut bins and elevations read them without a stride
    cloud = np.empty((3, z.size)).T
    cloud[:, 0] = (us - k.cx) * z / k.fx
    cloud[:, 1] = (k.cy - vs) * z / k.fy
    cloud[:, 2] = z
    return cloud
