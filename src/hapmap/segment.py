"""Occupied-space segmentation in the depth image.

``image_segments`` is the pipeline's segmentation: neighbouring occupied
pixels of similar depth are linked and the components taken.
``voxel_downsample`` and ``dbscan`` are the earlier point-cloud front
end, kept as library functions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .depthio import DepthFrame


@dataclass
class Segmentation:
    labels: np.ndarray   # per-point int: -1 noise, 0..k-1 cluster ids
    k: int


@dataclass
class Segment:
    id: int
    points: np.ndarray   # (m, 3) subset of the segmented cloud


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

    The work scales with the occupied pixels, not the frame: their sorted
    pixel indices give the right neighbour as the next entry and the
    lower neighbour by a binary search for ``pixel + width``.
    """
    if not link_mm >= 0:
        raise ValueError("link_mm must be non-negative")
    if min_px < 1:
        raise ValueError("min_px must be at least 1")
    if not len(occupied) == len(cloud) == frame.pixels.size:
        raise ValueError("cloud and occupied flags need one row per valid pixel")
    rows = np.flatnonzero(occupied)
    pix = frame.pixels[rows]
    z = cloud[rows, 2]
    n = pix.size
    # right neighbour: the next occupied pixel, unless the row wraps
    right = np.flatnonzero((pix[1:] == pix[:-1] + 1)
                           & (pix[1:] % frame.width != 0))
    # lower neighbour: the occupied pixel one row down, if any
    below = np.minimum(np.searchsorted(pix, pix + frame.width), n - 1)
    down = np.flatnonzero(pix[below] == pix + frame.width)
    i = np.concatenate([right, down])
    j = np.concatenate([right + 1, below[down]])
    near = np.abs(z[i] - z[j]) <= link_mm
    root = _roots(n, i[near], j[near])
    big = np.bincount(root, minlength=n)[root] >= min_px
    # a kept component's id: how many kept roots scan before its own
    first = big & (root == np.arange(n))
    labels = np.where(big, np.cumsum(first)[root] - 1, -1)
    return Segmentation(labels=labels, k=int(first.sum()))


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


def extract_segments(cloud: np.ndarray, seg: Segmentation) -> list[Segment]:
    """One Segment per cluster id, ordered by id; noise points are dropped."""
    cloud = np.asarray(cloud, dtype=np.float64).reshape(-1, 3)
    if seg.labels.shape[0] != cloud.shape[0]:
        raise ValueError("labels do not align with the cloud")
    return [Segment(id=i, points=cloud[seg.labels == i]) for i in range(seg.k)]
