"""Occupied-space segmentation in the depth image.

``image_segments`` is the pipeline's segmentation: neighbouring occupied
pixels of similar depth are linked and the components taken, and
``extract_segments`` splits the points and their pixel indices by
segment.  ``voxel_downsample`` and ``dbscan`` are the earlier
point-cloud front end; nothing in the package calls them, and they stay
only because ``perfbench/tracer.py`` names them in ``TRACED``.
``dbscan`` imports scipy's ``cKDTree`` when it runs, so importing this
module (and so ``hapmap`` and ``hapmap.cli``) never loads
``scipy.spatial``, about 30 MB of resident memory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .depthio import DepthFrame


@dataclass
class Segmentation:
    labels: np.ndarray   # one segment id per occupied cloud row, -1 for noise
    k: int


@dataclass
class Segment:
    id: int
    points: np.ndarray   # (m, 3) subset of the segmented cloud
    pixels: np.ndarray   # (m,) flat pixel index of each point, in point order


def image_segments(frame: DepthFrame, cloud: np.ndarray, occupied: np.ndarray,
                   link_mm: float, min_px: int) -> Segmentation:
    """Connected components of the occupied pixels in the depth image.

    Range-image segmentation (Bogoslavskyi & Stachniss, IROS 2016): two
    occupied pixels that are 4-neighbours in the image are linked when
    their depths (``cloud[:, 2]``) differ by at most link_mm (inclusive).
    Cloud row i is pixel ``frame.pixels[i]`` and ``occupied`` flags the
    rows to segment; the result has one label per occupied row, in row
    order.  Components of fewer than min_px pixels are noise (-1).  Ids
    follow the scan order of each component's first pixel.

    The components are joined on runs (He, Chao & Suzuki, "A Run-Based
    Two-Scan Labeling Algorithm", IEEE TIP 2008): a run is a maximal
    stretch of right-linked pixels in one image row.  Runs are numbered
    in scan order and are the nodes of ``_roots``, so a component's root
    run holds its first pixel; sizes sum the run lengths, and each pixel
    takes its run's label.  A down link joins two runs, and one that
    only repeats the link left of it is dropped, so there are about as
    many edges as runs.  The work scales with the occupied pixels, not
    the frame: their sorted pixel indices give the right neighbour as the
    next entry and the lower neighbour by a binary search for
    ``pixel + width``; no (height, width) array is made.
    """
    if not link_mm >= 0:
        raise ValueError("link_mm must be non-negative")
    if min_px < 1:
        raise ValueError("min_px must be at least 1")
    if not len(occupied) == len(cloud) == frame.pixels.size:
        raise ValueError("cloud and occupied flags need one row per valid pixel")
    rows = np.flatnonzero(occupied)
    pix = frame.pixels[rows]
    z = cloud[:, 2][rows]
    n = pix.size
    # a run starts where the right link from the entry before fails: the
    # pixel is not the next one, the depth steps, or an image row begins
    # (one binary search per image row, not a modulo per pixel)
    starts = np.ones(n, dtype=bool)
    starts[1:] = (pix[1:] != pix[:-1] + 1) | ~(np.abs(np.diff(z)) <= link_mm)
    row_first = np.searchsorted(pix, np.arange(1, frame.height) * frame.width)
    starts[row_first[row_first < n]] = True
    run = np.cumsum(starts) - 1
    run_start = np.flatnonzero(starts)
    n_runs = run_start.size
    # down link: the occupied pixel one row down, if any, of similar depth
    below = np.minimum(np.searchsorted(pix, pix + frame.width), n - 1)
    down = (pix[below] == pix + frame.width) & (np.abs(z - z[below]) <= link_mm)
    # a link repeats the one left of it when neither end starts a run
    down[1:] &= ~(down[:-1] & ~starts[1:] & ~starts[below[1:]])
    link = np.flatnonzero(down)
    root = _roots(n_runs, run[link], run[below[link]])
    size = np.bincount(root, weights=np.diff(run_start, append=n),
                       minlength=n_runs)
    big = size[root] >= min_px
    # a kept component's id: how many kept roots scan before its own
    first = big & (root == np.arange(n_runs))
    run_label = np.where(big, np.cumsum(first)[root] - 1, -1)
    return Segmentation(labels=run_label[run], k=int(first.sum()))


def voxel_downsample(cloud: np.ndarray, leaf: float = 20.0) -> np.ndarray:
    """One centroid per occupied voxel; the grid is anchored at the origin.

    Output voxels are ordered by their grid key, so the result does not
    depend on the input point order.  The keys are whole numbers kept as
    floats and grouped by a lexsort over their three columns, so no
    integer cast or combined key can overflow.
    """
    if not leaf > 0:
        raise ValueError("leaf size must be positive")
    cloud = np.asarray(cloud, dtype=np.float64).reshape(-1, 3)
    if not np.isfinite(cloud).all():
        raise ValueError("cloud must be finite, found nan or inf")
    if cloud.shape[0] == 0:
        return cloud
    keys = np.floor(cloud / leaf)
    order = np.lexsort(keys.T[::-1])
    ordered = keys[order]
    starts = np.r_[True, (ordered[1:] != ordered[:-1]).any(axis=1)]
    inverse = np.empty_like(order)
    inverse[order] = np.cumsum(starts) - 1
    # bincount sums each voxel's points in input order.
    sums = np.column_stack([np.bincount(inverse, weights=cloud[:, j])
                            for j in range(3)])
    counts = np.bincount(inverse).astype(np.float64)
    return sums / counts[:, None]


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


def dbscan(cloud: np.ndarray, eps: float = 80.0, min_pts: int = 10) -> Segmentation:
    """Classic density clustering with Euclidean metric.

    A core point has at least min_pts neighbors within eps (inclusive,
    counting itself).  Clusters are the connected components of core
    points plus their border points; everything else is noise (-1).
    Cluster ids follow first-core-point scan order; a border point seen by
    several clusters goes to the lowest cluster id.

    All neighbor pairs come from one ``cKDTree.query_pairs`` call
    (inclusive at eps).  Degrees are counted from the pairs, and the
    core-core pairs are joined by ``_roots``, which roots each component
    at its lowest core index, so ranking the roots numbers the clusters
    in scan order.  Each border point then takes the minimum id over its
    core neighbors.
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    if min_pts < 1:
        raise ValueError("min_pts must be at least 1")
    cloud = np.asarray(cloud, dtype=np.float64).reshape(-1, 3)
    n = cloud.shape[0]
    labels = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return Segmentation(labels=labels, k=0)

    from scipy.spatial import cKDTree   # kept off the package's import path

    pairs = cKDTree(cloud).query_pairs(eps, output_type="ndarray")
    i, j = pairs[:, 0], pairs[:, 1]
    core = np.bincount(pairs.ravel(), minlength=n) + 1 >= min_pts

    both = core[i] & core[j]
    root = _roots(n, i[both], j[both])
    firsts, labels[core] = np.unique(root[core], return_inverse=True)
    k = firsts.size

    # Border points: non-core with a core neighbor; ties to the lowest id.
    i_owns = core[i] & ~core[j]
    j_owns = core[j] & ~core[i]
    border = np.concatenate([j[i_owns], i[j_owns]])
    owner = labels[np.concatenate([i[i_owns], j[j_owns]])]
    claim = np.full(n, k, dtype=np.int64)
    np.minimum.at(claim, border, owner)
    claimed = claim < k
    labels[claimed] = claim[claimed]
    return Segmentation(labels=labels, k=int(k))


def extract_segments(cloud: np.ndarray, pixels: np.ndarray,
                     seg: Segmentation) -> list[Segment]:
    """One Segment per cluster id, ordered by id; noise points are dropped.

    pixels holds the flat pixel index of each cloud row; each segment
    takes its points' indices in the same order as its points.
    """
    cloud = np.asarray(cloud, dtype=np.float64).reshape(-1, 3)
    if not seg.labels.shape[0] == cloud.shape[0] == len(pixels):
        raise ValueError("labels and pixels do not align with the cloud")
    # one stable sort groups each id's points and keeps them in cloud order;
    # np.take gathers rows several times faster than cloud[rows]
    order = np.argsort(seg.labels, kind="stable")
    bounds = np.searchsorted(seg.labels[order], np.arange(seg.k + 1))
    return [Segment(id=i, points=np.take(cloud, order[a:b], axis=0),
                    pixels=np.take(pixels, order[a:b]))
            for i, (a, b) in enumerate(zip(bounds[:-1], bounds[1:]))]
