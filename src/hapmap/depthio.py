"""Depth frame I/O, pinhole camera model, and metric back-projection.

Conventions used throughout the package:

* Depth rasters are row-major, top row first; a raw value of 0 means the
  sensor returned nothing for that pixel.
* The camera frame is x right, y up, z forward, in millimeters.  Image
  row v maps into 3D through (cy - v), so the ground sits at the low end
  of the y range.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
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

def _parse_pgm_header(blob: bytes):
    """Return (width, height, maxval, payload_offset) for a P5 header."""
    pos = 2  # past "P5"
    fields = []
    while len(fields) < 3:
        if pos >= len(blob):
            raise DepthFormatError("malformed PGM header")
        c = blob[pos:pos + 1]
        if c.isspace():
            pos += 1
        elif c == b"#":
            while pos < len(blob) and blob[pos:pos + 1] not in (b"\n", b"\r"):
                pos += 1
        elif c.isdigit():
            start = pos
            while pos < len(blob) and blob[pos:pos + 1].isdigit():
                pos += 1
            fields.append(int(blob[start:pos]))
        else:
            raise DepthFormatError("malformed PGM header")
    if pos >= len(blob) or not blob[pos:pos + 1].isspace():
        raise DepthFormatError("malformed PGM header")
    pos += 1  # exactly one whitespace byte before the payload
    return fields[0], fields[1], fields[2], pos


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
        expected = 12 + 2 * width * height
        if len(blob) < expected:
            raise DepthFormatError("truncated flat depth payload")
        data = np.frombuffer(blob, dtype="<u2", count=width * height, offset=12)
        return DepthFrame(data.reshape(height, width).astype(np.uint16))
    if blob[:2] == b"P5":
        width, height, maxval, offset = _parse_pgm_header(blob)
        if maxval > 65535:
            raise DepthFormatError("PGM maxval exceeds 65535")
        if maxval <= 0 or width <= 0 or height <= 0:
            raise DepthFormatError("malformed PGM header")
        n = width * height
        if maxval < 256:
            if len(blob) < offset + n:
                raise DepthFormatError("truncated PGM payload")
            data = np.frombuffer(blob, dtype=np.uint8, count=n, offset=offset)
        else:
            if len(blob) < offset + 2 * n:
                raise DepthFormatError("truncated PGM payload")
            data = np.frombuffer(blob, dtype=">u2", count=n, offset=offset)
        return DepthFrame(data.reshape(height, width).astype(np.uint16))
    raise DepthFormatError("unrecognized depth format (want P5 or flat binary)")


def depth_to_pgm(frame: DepthFrame) -> bytes:
    header = f"P5\n{frame.width} {frame.height}\n65535\n".encode("ascii")
    return header + frame.data.astype(">u2").tobytes()


def depth_to_flat(frame: DepthFrame) -> bytes:
    header = FLAT_MAGIC + struct.pack("<II", frame.width, frame.height)
    return header + frame.data.astype("<u2").tobytes()


def mask_to_pgm(mask: np.ndarray) -> bytes:
    """8-bit PGM with 255 where the mask is set, 0 elsewhere."""
    mask = np.asarray(mask, dtype=bool)
    header = f"P5\n{mask.shape[1]} {mask.shape[0]}\n255\n".encode("ascii")
    return header + (mask.astype(np.uint8) * 255).tobytes()


def key_value_lines(text: str, what: str, error: type[Exception] = ValueError):
    """Yield (lineno, key, value) from flat `key=value` text, both stripped.

    '#' starts a comment and blank lines are skipped.  A line without '='
    raises ``error("<what> line <n>: expected key=value")``.
    """
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise error(f"{what} line {lineno}: expected key=value")
        key, _, value = line.partition("=")
        yield lineno, key.strip(), value.strip()


def parse_value(conv, text: str, where: str, error: type[Exception] = ValueError):
    """conv(text); a ValueError it raises becomes ``error("<where>: ...")``,
    where names the line and key, as in "config line 3: seed"."""
    try:
        return conv(text)
    except ValueError as exc:
        raise error(f"{where}: {exc}") from None


def load_intrinsics(text: str) -> Intrinsics:
    """Parse the flat key-value intrinsics file (fx=, fy=, cx=, cy=, depth_scale=)."""
    values = {}
    for lineno, key, val in key_value_lines(text, "intrinsics", DepthFormatError):
        if key not in ("fx", "fy", "cx", "cy", "depth_scale"):
            raise DepthFormatError(f"intrinsics line {lineno}: unknown key {key!r}")
        values[key] = parse_value(float, val, f"intrinsics line {lineno}: {key}",
                                  DepthFormatError)
    missing = {"fx", "fy", "cx", "cy"} - values.keys()
    if missing:
        raise DepthFormatError(f"intrinsics file missing keys: {sorted(missing)}")
    return Intrinsics(**values)


def format_intrinsics(k: Intrinsics) -> str:
    return (
        f"fx={k.fx}\nfy={k.fy}\ncx={k.cx}\ncy={k.cy}\n"
        f"depth_scale={k.depth_scale}\n"
    )


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
