"""Coarse occupied-space segmentation: voxel downsampling plus DBSCAN."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
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


def dbscan(cloud: np.ndarray, eps: float = 80.0, min_pts: int = 10) -> Segmentation:
    """Classic density clustering with Euclidean metric.

    A core point has at least min_pts neighbors within eps (inclusive,
    counting itself).  Clusters are the connected components of core
    points plus their border points; everything else is noise (-1).
    Cluster ids follow first-core-point scan order; a border point seen by
    several clusters goes to the lowest cluster id.

    All neighbor pairs come from one ``cKDTree.query_pairs`` call
    (inclusive at eps).  Degrees are counted from the pairs, the core-core
    pairs are labeled by ``connected_components``, and the components are
    renumbered by their lowest core index.  Each border point then takes
    the minimum id over its core neighbors.
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
    core_idx = np.flatnonzero(core)

    # Components of the core-core graph, on core points renumbered 0..c-1.
    both = core[i] & core[j]
    slot = np.cumsum(core) - 1
    graph = coo_matrix((np.ones(int(both.sum()), dtype=np.int8),
                        (slot[i[both]], slot[j[both]])),
                       shape=(core_idx.size, core_idx.size))
    k, comp = connected_components(graph, directed=False)
    # Renumber by each component's first core point in scan order.
    _, first = np.unique(comp, return_index=True)
    rank = np.empty(k, dtype=np.int64)
    rank[np.argsort(first)] = np.arange(k)
    labels[core_idx] = rank[comp]

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
