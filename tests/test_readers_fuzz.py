"""Hypothesis fuzzing of every reader of outside input: the depth decoder
on arbitrary and mutated blobs, its header pattern against the byte loop
it replaced, and the text readers on arbitrary lines.  Each reader either
returns a value or raises its own error type."""

import struct

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hapmap.classifier import MeshFormatError, sample_mesh_off
from hapmap.cli import _parse_cloud
from hapmap.config import parse_config
from hapmap.depthio import (_PGM_HEADER, FLAT_MAGIC, DepthFormatError,
                            content_lines, depth_to_flat, depth_to_pgm,
                            load_depth_pgm, load_intrinsics, pgm_bytes)
from hapmap.scenegen import parse_scene_spec

from conftest import frame_of, make_pgm
from oracles import loop_pgm_header


def header_shape(blob):
    """(height, width) that the blob's header gives."""
    if blob[:4] == FLAT_MAGIC:
        width, height = struct.unpack_from("<II", blob, 4)
    else:
        width, height, _, _ = loop_pgm_header(blob)
    return height, width


def assert_decodes_or_rejects(blob):
    try:
        frame = load_depth_pgm(blob)
    except DepthFormatError:
        return
    assert frame.data.shape == header_shape(blob)
    assert frame.data.dtype == np.uint16


# ---------------------------------------------------------------------------
# Depth decoder
# ---------------------------------------------------------------------------

#: pieces of P5 headers, near misses included
HEADER_PIECES = [b"P5", b"0", b"1", b"2", b"12", b"255", b"256", b"65535",
                 b"70000", b" ", b"\t", b"\n", b"\r", b"\r\n", b"\x0b",
                 b"\x0c", b"#", b"# c 3\n", b"x", b"-", b"\xff", b"\x00"]
header_like = st.lists(st.sampled_from(HEADER_PIECES), max_size=16).map(
    lambda pieces: b"P5" + b"".join(pieces))


@st.composite
def valid_blobs(draw):
    """A P5 (8- or 16-bit, comments optional) or flat depth blob."""
    width = draw(st.integers(1, 5))
    height = draw(st.integers(1, 5))
    values = draw(st.lists(st.integers(0, 255), min_size=width * height,
                           max_size=width * height))
    kind = draw(st.sampled_from(["pgm8", "pgm16", "comment", "flat"]))
    if kind == "flat":
        return depth_to_flat(frame_of(np.reshape(values, (height, width))))
    if kind == "comment":
        return (b"P5 # w h\n%d\t%d #max\r%d\n" % (width, height, 65535)
                + np.array(values, dtype=">u2").tobytes())
    return make_pgm(width, height, values, 255 if kind == "pgm8" else 65535)


@st.composite
def mutated(draw, blobs):
    """A blob with a few bytes flipped, cut out, put in, or its tail cut."""
    blob = bytearray(draw(blobs))
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["flip", "delete", "insert", "truncate"]))
        at = draw(st.integers(0, len(blob)))
        if op == "flip" and at < len(blob):
            blob[at] = draw(st.integers(0, 255))
        elif op == "delete":
            del blob[at:at + draw(st.integers(1, 4))]
        elif op == "insert":
            blob[at:at] = draw(st.binary(min_size=1, max_size=4))
        else:
            del blob[at:]
    return bytes(blob)


class TestDepthDecoder:
    @settings(max_examples=300)
    @given(st.one_of(st.binary(max_size=64),
                     st.binary(max_size=64).map(lambda b: b"P5" + b),
                     st.binary(max_size=64).map(lambda b: FLAT_MAGIC + b),
                     header_like.map(lambda b: b + bytes(64))))
    def test_arbitrary_bytes(self, blob):
        assert_decodes_or_rejects(blob)

    @settings(max_examples=300)
    @given(mutated(valid_blobs()))
    def test_mutated_valid_blobs(self, blob):
        assert_decodes_or_rejects(blob)

    @given(valid_blobs())
    def test_valid_blobs_decode(self, blob):
        frame = load_depth_pgm(blob)
        assert frame.data.shape == header_shape(blob)
        if blob[:2] == b"P5":
            assert load_depth_pgm(depth_to_pgm(frame)) == frame

    @settings(max_examples=500)
    @given(header_like)
    @example(b"P5 123\n")                    # no empty separator: not 1x2x3
    @example(b"P5 #1 2 3\n4 5 6\n")          # digits in a comment are no field
    @example(b"P5 1 2 3#\n")                 # no comment after maxval
    @example(b"P51 2 3\n")                   # the first field may touch P5
    @example(b"P5 1 2 3 # to the end")       # a comment must end at a break
    def test_header_pattern_agrees_with_the_byte_loop(self, blob):
        try:
            want = loop_pgm_header(blob)
        except DepthFormatError:
            want = None
        match = _PGM_HEADER.match(blob)
        got = match and (*map(int, match.groups()), match.end())
        assert got == want

    def test_a_run_of_hashes_is_linear(self):
        # a comment ends only at a line break, so no run of '#' backtracks
        assert _PGM_HEADER.match(b"P5 " + b"#" * 200_000) is None
        assert _PGM_HEADER.match(b"P5 " + b"#" * 200_000 + b"\n") is None

    def test_field_past_the_int_digit_limit(self):
        with pytest.raises(DepthFormatError, match="malformed PGM header"):
            load_depth_pgm(b"P5 " + b"1" * 5000 + b" 1 255\n\x00")


class TestPgmWriter:
    def test_maxval_follows_the_dtype(self):
        assert pgm_bytes(np.array([[1, 2]], dtype=np.uint8)) == b"P5\n2 1\n255\n\x01\x02"
        assert (pgm_bytes(np.array([[1], [258]], dtype=np.uint16))
                == b"P5\n1 2\n65535\n\x00\x01\x01\x02")

    @pytest.mark.parametrize("dtype", [np.int8, np.int16, np.uint32, np.float64, bool])
    def test_other_dtypes_rejected(self, dtype):
        with pytest.raises(ValueError, match="uint8 or uint16"):
            pgm_bytes(np.zeros((1, 1), dtype=dtype))


# ---------------------------------------------------------------------------
# Text readers
# ---------------------------------------------------------------------------

BREAKS = ["\n", "\r\n", "\r"]
#: characters of one line: no line break of str.splitlines among them
line_chars = st.text(alphabet=" \t#=.,-+e0123456789abxyz_", max_size=12)
stray_line = st.one_of(st.just("# c"), st.just(""), line_chars, st.text(max_size=8))
number = st.sampled_from(["0", "1", "-2.5", "320", "575.8", "1e200", "1e308",
                          "-1e308", "1e400", "nan", "inf", "x", ""])


@st.composite
def text_of(draw, lines, stray=stray_line):
    """The drawn lines with a few stray ones put in, each line ended by a
    random line break."""
    lines = list(draw(lines))
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(stray))
    return "".join(line + draw(st.sampled_from(BREAKS)) for line in lines)


@st.composite
def intrinsics_lines(draw):
    keys = draw(st.permutations(["fx", "fy", "cx", "cy", "depth_scale"]))
    return [f"{key}={draw(number)}" for key in keys[:draw(st.integers(3, 5))]]


@st.composite
def off_lines(draw):
    """An OFF mesh with at most one flaw: a count, a coordinate, a face
    size or a face index gone wrong."""
    flaw = draw(st.sampled_from([None, None, None, "count", "coord", "size",
                                 "index"]))
    nv, nf = draw(st.integers(3, 5)), draw(st.integers(1, 3))
    coord = st.sampled_from([*map(str, range(-5, 6)), "2.5", "1e200", "1e308"])
    lines = ["OFF", f"{nv} {nf} 0"]
    lines += [" ".join(draw(coord) for _ in range(3)) for _ in range(nv)]
    lines += [" ".join(map(str, [3] + draw(st.permutations(range(nv)))[:3]))
              for _ in range(nf)]
    if flaw == "count":
        lines[1] = "%d %d 0" % (draw(st.integers(-1, 6)), draw(st.integers(-1, 4)))
    elif flaw is not None:
        row = draw(st.integers(2, len(lines) - 1))
        fields = lines[row].split()
        at = draw(st.integers(0, len(fields) - 1))
        fields[at] = (draw(number) if flaw == "coord" else
                      str(draw(st.integers(-1, 2 if flaw == "size" else nv))))
        lines[row] = " ".join(fields)
    return lines


def any_of(valid_lines):
    return st.lists(st.sampled_from(valid_lines), max_size=8)


class TestContentLines:
    @given(st.lists(line_chars, max_size=10), st.sampled_from(BREAKS))
    def test_one_comment_rule(self, lines, brk):
        want = [(i, line.split("#", 1)[0].strip())
                for i, line in enumerate(lines, 1)]
        want = [(i, line) for i, line in want if line]
        assert list(content_lines(brk.join(lines))) == want

    def test_crlf_and_comment_only_lines(self):
        text = "# header\r\n\r\n  a=1  # note\r\n#\r\n\tb = 2\r\n"
        assert list(content_lines(text)) == [(3, "a=1"), (5, "b = 2")]


def assert_returns_or_raises(reader, error, text):
    try:
        reader(text)
    except error:
        pass


class TestTextReaders:
    @given(text_of(any_of(["seed=3", "segment.link_mm=60", "dcgd.z0=800",
                           "dcgd.zf=500", "geometry.height_low=300",
                           "output.format=ascii", "classifier.threshold=1",
                           "grid.rows=0", "seed=-1", "segment.min_px=2.5"])))
    def test_config(self, text):
        assert_returns_or_raises(parse_config, ValueError, text)

    @given(text_of(intrinsics_lines()))
    def test_intrinsics(self, text):
        assert_returns_or_raises(load_intrinsics, DepthFormatError, text)

    @given(text_of(any_of(["camera_height=1200", "floor_extent=4000",
                           "noise_sigma=10", "seed=2", "camera_height=-1",
                           "box=0 2000 500 500 400 chair", "box=0 1e308 1 1 1 x",
                           "hole=0, 2500, 400, 300", "hole=0 2500 0 300"])))
    def test_scene(self, text):
        assert_returns_or_raises(parse_scene_spec, ValueError, text)

    @settings(max_examples=300)
    @given(text_of(off_lines(), st.sampled_from(["# c", "", " # 1 2"])))
    def test_off_mesh(self, text):
        assert_returns_or_raises(
            lambda t: sample_mesh_off(t.encode(), 8, np.random.default_rng(0)),
            MeshFormatError, text)

    @given(text_of(any_of(["1 2 3", "1.5 -2 3e2 7", "nan 0 0", "1e400 0 0",
                           "1 2", "1,2,3"])))
    def test_xyz_cloud(self, text):
        assert_returns_or_raises(_parse_cloud, ValueError, text)
