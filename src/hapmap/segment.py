"""Coarse occupied-space segmentation: voxel downsampling plus DBSCAN."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree


@dataclass
class Segmentation:
    labels: np.ndarray   # per-point int: -1 noise, 0..k-1 cluster ids
    k: int


@dataclass
class Segment:
    id: int
    points: np.ndarray   # (m, 3) subset of the segmented cloud


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
