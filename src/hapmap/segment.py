"""Occupied-space segmentation in the depth image.

``image_segments`` is the pipeline's segmentation: neighbouring occupied
pixels of similar depth are linked and the components taken.  It reads
the ascending occupied rows that ``pipeline.analyze_scene`` finds once.
A segment is a set of those cloud rows: ``extract_segments`` groups the
rows by label and gathers each segment's points once, straight from the
cloud; cloud row i is pixel ``frame.pixels[i]``, so the rows also name
the segment's pixels.  The module, like the whole package, needs numpy
only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .depthio import DepthFrame


@dataclass
class Segment:
    id: int
    rows: np.ndarray     # (m,) ascending cloud rows of the segment
    points: np.ndarray   # (m, 3) the cloud's points at those rows


def image_segments(frame: DepthFrame, cloud: np.ndarray, rows: np.ndarray,
                   link_mm: float, min_px: int) -> np.ndarray:
    """Connected components of the occupied pixels in the depth image.

    Range-image segmentation (Bogoslavskyi & Stachniss, IROS 2016): two
    occupied pixels that are 4-neighbours in the image are linked when
    their depths (``cloud[:, 2]``) differ by at most link_mm (inclusive).
    Cloud row i is pixel ``frame.pixels[i]`` and ``rows`` holds the
    ascending occupied rows to segment; the result has one label per
    entry of rows.  Components of fewer than min_px pixels are noise
    (-1).  Ids follow the scan order of each component's first pixel, so
    the kept components take ids 0 to k-1.

    The components are joined on runs (He, Chao & Suzuki, "A Run-Based
    Two-Scan Labeling Algorithm", IEEE TIP 2008): a run is a maximal
    stretch of right-linked pixels in one image row.  Runs are numbered
    in scan order and are the nodes of ``_roots``, so a component's root
    run holds its first pixel; sizes sum the run lengths, and each pixel
    takes its run's label.  A down link joins two runs, and one that
    only repeats the link left of it is dropped, so there are about as
    many edges as runs.  The occupied pixels' sorted indices give the
    right neighbour as the next entry, and ``_below`` the lower one from
    a bitmap of the occupied span (one byte per pixel of the span).
    """
    if not link_mm >= 0:
        raise ValueError("link_mm must be non-negative")
    if min_px < 1:
        raise ValueError("min_px must be at least 1")
    if len(cloud) != frame.pixels.size:
        raise ValueError("the cloud needs one row per valid pixel")
    pix = frame.pixels[rows]
    n = pix.size
    if n == 0:
        return np.zeros(0, dtype=np.intp)
    z = cloud[:, 2][rows]
    # a run starts where the right link from the entry before fails: the
    # pixel is not the next one, the depth steps, or an image row begins
    # (one binary search per image row, not a modulo per pixel)
    starts = np.ones(n, dtype=bool)
    starts[1:] = (pix[1:] != pix[:-1] + 1) | ~(np.abs(np.diff(z)) <= link_mm)
    row_first = np.searchsorted(pix, np.arange(1, frame.height) * frame.width)
    starts[row_first[row_first < n]] = True
    # down link: the occupied pixel one row down, if any, of similar depth
    has_below, below = _below(pix, frame.width)
    down = has_below & (np.abs(z - z[below]) <= link_mm)
    # a link repeats the one left of it when neither end starts a run
    down[1:] &= ~(down[:-1] & ~starts[1:] & ~starts[below[1:]])
    link = np.flatnonzero(down)
    run = np.cumsum(starts) - 1
    run_start = np.flatnonzero(starts)
    n_runs = run_start.size
    root = _roots(n_runs, run[link], run[below[link]])
    size = np.bincount(root, weights=np.diff(run_start, append=n),
                       minlength=n_runs)
    big = size[root] >= min_px
    # a kept component's id: how many kept roots scan before its own
    first = big & (root == np.arange(n_runs))
    run_label = np.where(big, np.cumsum(first)[root] - 1, -1)
    return run_label[run]


def _below(pix: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """(has_below, below) of the ascending occupied pixel indices pix:
    whether pixel p + width is occupied, and its place in pix (0 where it
    is not).

    p -> p + width maps the pixels with a lower neighbour, in order, onto
    the pixels with an upper one, so the k-th of the first has the k-th of
    the second below it.  Both flags are read from a bitmap of the
    occupied span, first pixel - width to last + width: one byte per
    pixel of the span, never a (height, width) array.
    """
    at = pix - (pix[0] - width)        # each pixel's place in the bitmap
    occupied = np.zeros(at[-1] + width + 1, dtype=bool)
    occupied[at] = True
    at += width
    has_below = occupied[at]
    at -= 2 * width
    below = np.zeros(pix.size, dtype=np.intp)
    below[has_below] = np.flatnonzero(occupied[at])
    return has_below, below


def _roots(n: int, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Each node's root: the lowest index in its component of edges (i, j).

    Rounds of min-index hooking and pointer jumping (Shiloach & Vishkin,
    J. Algorithms 1982): every edge hooks its higher root under its lower
    one, the forest is flattened back to stars, and the edges are mapped
    to their roots, dropping those inside one star.  A parent never
    exceeds its node, so a component's lowest index is its root.
    """
    parent = np.arange(n)
    while i.size:
        np.minimum.at(parent, np.maximum(i, j), np.minimum(i, j))
        while True:
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            parent = jumped
        i, j = parent[i], parent[j]
        split = i != j
        i, j = i[split], j[split]
    return parent


# The benchmark's tracer (perfbench/tracer.py) still names these two
# functions in TRACED; they are kept only for that table and go away with
# the benchmark change that drops them.  Nothing calls them.
def voxel_downsample(*args, **kwargs):
    raise NotImplementedError("voxel_downsample was removed; see image_segments")


def dbscan(*args, **kwargs):
    raise NotImplementedError("dbscan was removed; see image_segments")


def extract_segments(cloud: np.ndarray, rows: np.ndarray,
                     labels: np.ndarray) -> list[Segment]:
    """One Segment per label id, ordered by id; noise rows (-1) are dropped.

    rows holds the ascending cloud rows that labels label, one label per
    row; each segment keeps its rows in ascending order.
    """
    if len(rows) != len(labels):
        raise ValueError("labels do not align with the rows")
    # one stable sort groups each id's rows and keeps them ascending; on
    # the coordinate-major cloud that backproject returns, cloud[rows]
    # gathers several times faster than np.take(cloud, rows, axis=0)
    order = np.argsort(labels, kind="stable")
    bounds = np.searchsorted(labels[order],
                             np.arange(np.max(labels, initial=-1) + 2))
    segments = []
    for i, (a, b) in enumerate(zip(bounds[:-1], bounds[1:])):
        seg_rows = np.take(rows, order[a:b])
        segments.append(Segment(i, seg_rows, cloud[seg_rows]))
    return segments
