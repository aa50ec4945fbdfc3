"""Depth I/O and back-projection; expected values hand-computed from the
pinhole relations x = (u-cx)z/fx, y = (cy-v)z/fy."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from hapmap.depthio import (FLAT_MAGIC, DepthFormatError, DepthFrame,
                            Intrinsics, backproject, depth_to_flat,
                            depth_to_pgm, load_depth_pgm, load_intrinsics,
                            format_intrinsics, mask_to_pgm)

from conftest import make_pgm, frame_of, positive_floats
from oracles import pinhole_frame


class TestLoadDepth:
    def test_pgm_16bit_values(self):
        frame = load_depth_pgm(make_pgm(2, 2, [800, 0, 4000, 1200]))
        assert frame.width == 2 and frame.height == 2
        np.testing.assert_array_equal(frame.data, [[800, 0], [4000, 1200]])

    def test_truncated_payload(self):
        blob = make_pgm(2, 2, [800, 0, 4000, 1200])[:-3]
        with pytest.raises(DepthFormatError, match="truncated"):
            load_depth_pgm(blob)

    def test_single_invalid_pixel(self):
        frame = load_depth_pgm(make_pgm(1, 1, [0]))
        assert frame.pixels.size == 0

    def test_8bit_maxval(self):
        frame = load_depth_pgm(make_pgm(2, 1, [7, 255], maxval=255))
        np.testing.assert_array_equal(frame.data, [[7, 255]])

    def test_maxval_too_large(self):
        blob = b"P5\n1 1\n70000\n" + b"\x00\x00\x00"
        with pytest.raises(DepthFormatError, match="maxval"):
            load_depth_pgm(blob)

    def test_header_comment(self):
        blob = b"P5\n# device dump\n2 1\n255\n" + bytes([3, 4])
        frame = load_depth_pgm(blob)
        np.testing.assert_array_equal(frame.data, [[3, 4]])

    def test_unknown_format(self):
        with pytest.raises(DepthFormatError):
            load_depth_pgm(b"BM123456")

    def test_flat_roundtrip(self):
        frame = frame_of([[1, 2], [65535, 0]])
        again = load_depth_pgm(depth_to_flat(frame))
        assert again == frame

    @pytest.mark.parametrize("width, height", [(0, 3), (3, 0), (0, 0)])
    def test_flat_zero_size(self, width, height):
        # an empty frame would read as a scene with nothing in view
        blob = FLAT_MAGIC + struct.pack("<II", width, height)
        with pytest.raises(DepthFormatError, match="zero width or height"):
            load_depth_pgm(blob)

    def test_flat_truncated(self):
        blob = depth_to_flat(frame_of([[1, 2], [3, 4]]))[:-1]
        with pytest.raises(DepthFormatError, match="truncated"):
            load_depth_pgm(blob)

    def test_pgm_roundtrip(self):
        frame = frame_of(np.arange(12).reshape(3, 4) * 999)
        assert load_depth_pgm(depth_to_pgm(frame)) == frame

    def test_mask_pgm(self):
        blob = mask_to_pgm(np.array([[True, False]]))
        assert blob.endswith(bytes([255, 0]))


class TestIntrinsicsFile:
    def test_parse(self):
        k = load_intrinsics("fx=500\nfy=510\ncx=320\ncy=240\ndepth_scale=2\n")
        assert (k.fx, k.fy, k.cx, k.cy, k.depth_scale) == (500, 510, 320, 240, 2)

    def test_depth_scale_optional(self):
        k = load_intrinsics("fx=500\nfy=510\ncx=320\ncy=240")
        assert k.depth_scale == 1.0

    def test_missing_key(self):
        with pytest.raises(DepthFormatError, match="missing"):
            load_intrinsics("fx=500\nfy=510\ncx=320\n")

    def test_unknown_key(self):
        with pytest.raises(DepthFormatError, match="unknown"):
            load_intrinsics("fx=1\nfy=1\ncx=0\ncy=0\nskew=3\n")

    def test_roundtrip(self):
        k = Intrinsics(575.8, 575.8, 319.5, 239.5)
        assert load_intrinsics(format_intrinsics(k)) == k

    @given(st.builds(Intrinsics, positive_floats, positive_floats,
                     st.floats(allow_nan=False, allow_infinity=False),
                     st.floats(allow_nan=False, allow_infinity=False),
                     positive_floats))
    def test_roundtrip_any_values(self, k):
        assert load_intrinsics(format_intrinsics(k)) == k

    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            Intrinsics(fx=-1, fy=1, cx=0, cy=0)
        with pytest.raises(ValueError):
            Intrinsics(fx=1, fy=1, cx=0, cy=0, depth_scale=0)


class TestPixelIndex:
    def test_once_per_frame_over_read_only_data(self):
        frame = frame_of([[0, 5, 0], [7, 0, 9]])
        np.testing.assert_array_equal(frame.pixels, [1, 3, 5])
        assert frame.pixels is frame.pixels
        with pytest.raises(ValueError, match="read-only"):
            frame.data[0, 0] = 1

    def test_rows_columns_follow_the_index(self):
        frame = frame_of([[0, 5, 0], [7, 0, 9]])
        rows, cols = frame.rows_columns
        assert rows.tolist() == [0, 1, 1] and cols.tolist() == [1, 0, 2]

    def test_within_keeps_a_raw_range(self):
        frame = frame_of([[0, 5, 0], [7, 0, 9]])
        part = frame.within(5, 8)
        assert part.data.tolist() == [[0, 5, 0], [7, 0, 0]]
        assert part.pixels.tolist() == [1, 3]
        np.testing.assert_array_equal(part.pixels, np.flatnonzero(part.data))
        assert frame.data.tolist() == [[0, 5, 0], [7, 0, 9]]
        assert not part.data.flags.writeable
        assert frame.within(10, 2**16).pixels.size == 0
        with pytest.raises(ValueError, match="at least 1"):
            frame.within(0, 8)


class TestFrameValues:
    """Non-uint16 input must hold whole uint16 values; nothing is cast
    into a quiet 0 (no return) or a truncated depth."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1.7, 999.5])
    def test_non_finite_or_fractional_rejected(self, bad):
        with pytest.raises(ValueError, match="finite whole numbers"):
            DepthFrame(np.array([[bad, 1000.0]]))

    @pytest.mark.parametrize("bad", [-1, 2**16, -1.0, 65536.0])
    def test_out_of_range_rejected(self, bad):
        with pytest.raises(ValueError, match="fit in uint16"):
            DepthFrame(np.array([[bad, 1000]]))

    @pytest.mark.parametrize("data", [np.array([[0.0, 1000.0, 65535.0]]),
                                      np.array([[0, 1000, 65535]]),
                                      np.array([[False, True, True]])])
    def test_whole_values_accepted(self, data):
        frame = DepthFrame(data)
        assert frame.data.dtype == np.uint16
        assert frame.data.tolist() == data.astype(np.int64).tolist()


@st.composite
def frames_and_cameras(draw):
    """Random uint16 frames (all-zero, 1xW and Hx1 among them) with a
    camera whose principal point lies anywhere in the image."""
    side = st.integers(1, 12)
    shape = draw(st.one_of(st.tuples(st.just(1), side),
                           st.tuples(side, st.just(1)), st.tuples(side, side)))
    values = draw(st.sampled_from([st.just(0), st.integers(0, 2**16 - 1)]))
    frame = DepthFrame(draw(arrays(np.uint16, shape, elements=values)))
    h, w = shape
    k = Intrinsics(
        fx=draw(st.floats(0.5, 2000.0)), fy=draw(st.floats(0.5, 2000.0)),
        cx=draw(st.floats(0.0, w, exclude_max=True)),
        cy=draw(st.floats(0.0, h, exclude_max=True)),
        depth_scale=draw(st.floats(0.01, 10.0)))
    return frame, k


class TestBackproject:
    k = Intrinsics(fx=100.0, fy=100.0, cx=2.0, cy=1.0)

    def test_principal_ray(self):
        data = np.zeros((3, 5), dtype=np.uint16)
        data[1, 2] = 1000  # pixel at (cx, cy)
        pts = backproject(DepthFrame(data), self.k)
        np.testing.assert_allclose(pts, [[0.0, 0.0, 1000.0]])

    def test_one_focal_length_right(self):
        # (u, v) = (cx + fx, cy) -> x = fx * z / fx = z
        k = Intrinsics(fx=2.0, fy=2.0, cx=1.0, cy=1.0)
        data = np.zeros((3, 5), dtype=np.uint16)
        data[1, 3] = 1000
        pts = backproject(DepthFrame(data), k)
        np.testing.assert_allclose(pts, [[1000.0, 0.0, 1000.0]])

    def test_all_zero_frame(self):
        pts = backproject(DepthFrame(np.zeros((4, 4), dtype=np.uint16)), self.k)
        assert pts.shape == (0, 3)

    def test_count_matches_nonzero(self):
        rng = np.random.default_rng(0)
        data = rng.integers(0, 3, size=(20, 30)).astype(np.uint16) * 700
        pts = backproject(DepthFrame(data), Intrinsics(100, 100, 14.5, 9.5))
        assert len(pts) == np.count_nonzero(data)

    def test_row_major_order(self):
        data = np.zeros((2, 2), dtype=np.uint16)
        data[0, 1] = 100
        data[1, 0] = 200
        pts = backproject(DepthFrame(data), Intrinsics(10, 10, 0.5, 0.5))
        assert pts[0, 2] == 100 and pts[1, 2] == 200

    def test_y_axis_points_up(self):
        # row below the principal point must map to negative y
        data = np.zeros((3, 3), dtype=np.uint16)
        data[2, 1] = 500
        pts = backproject(DepthFrame(data), Intrinsics(10, 10, 1.0, 1.0))
        assert pts[0, 1] < 0

    def test_depth_scale(self):
        data = np.full((1, 1), 500, dtype=np.uint16)
        k = Intrinsics(fx=10, fy=10, cx=0.0, cy=0.0, depth_scale=2.0)
        pts = backproject(DepthFrame(data), k)
        assert pts[0, 2] == 1000.0

    def test_principal_point_outside_image(self):
        with pytest.raises(ValueError, match="principal point"):
            backproject(DepthFrame(np.ones((2, 2), dtype=np.uint16)),
                        Intrinsics(10, 10, 5.0, 1.0))

    def test_reprojection_recovers_pixels(self):
        rng = np.random.default_rng(7)
        data = rng.integers(500, 5000, size=(24, 32)).astype(np.uint16)
        k = Intrinsics(fx=40.0, fy=36.0, cx=15.5, cy=11.5)
        pts = backproject(DepthFrame(data), k)
        vs, us = np.nonzero(data)
        u_back = pts[:, 0] * k.fx / pts[:, 2] + k.cx
        v_back = k.cy - pts[:, 1] * k.fy / pts[:, 2]
        np.testing.assert_allclose(u_back, us, rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(v_back, vs, rtol=1e-9, atol=1e-9)

    @settings(max_examples=300)
    @given(case=frames_and_cameras())
    def test_matches_full_frame_inverse(self, case):
        frame, k = case
        np.testing.assert_array_equal(frame.pixels,
                                      np.flatnonzero(frame.data))
        assert frame.pixels.dtype == np.int64
        got = backproject(frame, k)
        want = pinhole_frame(frame, k)[frame.data > 0]
        assert got.dtype == np.float64 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
