import json
import warnings

import numpy as np
import pytest
from hypothesis import settings, strategies as st

from hapmap import dcgd, depthio
from hapmap.synthgrid import PinGrid


@pytest.fixture
def kinect():
    """Full-resolution default camera (640x480)."""
    return depthio.DEFAULT_INTRINSICS


@pytest.fixture
def small_cam():
    """160x120 camera with the same field of view; keeps tests fast."""
    return depthio.Intrinsics(fx=143.95, fy=143.95, cx=79.5, cy=59.5)


SMALL_W, SMALL_H = 160, 120

# Hypothesis' per-example deadline is a timing check, not a check of any
# output: a test whose examples run long on a loaded host would fail with
# right results.  The whole suite runs without it.
settings.register_profile("hapmap", deadline=None)
settings.load_profile("hapmap")

#: floats in (0, inf): every length, tolerance and focal length
positive_floats = st.floats(min_value=0, exclude_min=True, allow_infinity=False)


def pytest_sessionstart(session):
    """Build Hypothesis' table of the utf-8 characters before any test.

    Without a .hypothesis directory, the first draw of an unrestricted
    st.text() builds that table, about 1.3 s on a 2-core host, and the
    too_slow health check counts it against the test that draws first
    (TestTextReaders::test_config).  Once built it is read from disk.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")   # example() is meant for the shell
        st.text(min_size=1).example()


def make_pgm(width, height, values, maxval=65535):
    """Binary P5 bytes from a flat list of values (row-major)."""
    header = f"P5\n{width} {height}\n{maxval}\n".encode()
    arr = np.asarray(values, dtype=np.uint16).reshape(height, width)
    payload = arr.astype(">u2" if maxval > 255 else np.uint8).tobytes()
    return header + payload


def frame_of(array) -> depthio.DepthFrame:
    return depthio.DepthFrame(np.asarray(array, dtype=np.uint16))


def ground_mask(frame, k, params=dcgd.DcgdParams()):
    """The frame's ground mask: detect_ground's per-point flags on the
    back-projected cloud, scattered back at the frame's pixel index."""
    mask = np.zeros(frame.data.size, dtype=bool)
    mask[frame.pixels] = dcgd.detect_ground(
        frame, depthio.backproject(frame, k), params)
    return mask.reshape(frame.data.shape)


def parse_grid_json(blob: bytes) -> PinGrid:
    """The grid that ``synthgrid.emit(grid, "json")`` wrote."""
    doc = json.loads(blob.decode("utf-8"))
    return PinGrid(np.array(doc["cells"]).reshape(doc["rows"], doc["cols"]))
