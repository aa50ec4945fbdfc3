import numpy as np
import pytest

from hapmap import dcgd, depthio


@pytest.fixture
def kinect():
    """Full-resolution default camera (640x480)."""
    return depthio.DEFAULT_INTRINSICS


@pytest.fixture
def small_cam():
    """160x120 camera with the same field of view; keeps tests fast."""
    return depthio.Intrinsics(fx=143.95, fy=143.95, cx=79.5, cy=59.5)


SMALL_W, SMALL_H = 160, 120


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
    back-projected cloud, scattered back at the valid pixels."""
    mask = np.zeros(frame.data.shape, dtype=bool)
    mask[frame.valid_mask] = dcgd.detect_ground(
        frame, depthio.backproject(frame, k), params)
    return mask
