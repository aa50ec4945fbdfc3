"""Depth-cut based ground detection (DCGD).

The depth image is sliced into bins of width dz along the optical axis.
Within each bin, the lowest 3D point of every column forms a cut curve.
Cut entries near the ground elevation are concave (ground candidates);
entries rising above it are convex (objects) and are stripped together
with everything above them in their column/bin cell.

One pass over the frame's back-projected cloud builds the (n+1, width)
table of cut entries: one ``np.minimum.at`` keyed on ``bin * width + column``
gives every cell's lowest elevation.  The claim rule then runs once per
non-empty cut on its table row, and one gather of the concave flags and
entries at each point's cell yields the ground flag of every point.

The concave/convex criterion used here: a per-cut baseline found as the
median of unclaimed entry elevations, with entries claimed as object when
they exceed the baseline by more than ``baseline_tol``.  A global
low-percentile elevation prior seeds the claims so that cuts seeing only
object surfaces (no ground in the bin) are rejected whole.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .depthio import DepthFrame


@dataclass(frozen=True)
class DcgdParams:
    #: the depth band, mm: the pipeline's pass-through filter and synthesis
    #: area read the same near (z0) and far (zf) planes as the depth cuts
    z0: float = 800.0
    zf: float = 4000.0
    dz: float = 50.0
    baseline_tol: float = 50.0
    #: pixels within a concave cell count as ground when their elevation is
    #: within include_tol of the cell entry (the cell's lowest point);
    #: 20mm clears Kinect-scale elevation noise (~4mm sigma) while keeping
    #: the floor-level strip at the bottom of object fronts out of the mask
    include_tol: float = 20.0

    def __post_init__(self):
        if not 0 < self.z0 < self.zf < np.inf:
            raise ValueError("z0 and zf must be finite with 0 < z0 < zf")
        for value in (self.dz, self.baseline_tol, self.include_tol):
            if not 0 < value < np.inf:
                raise ValueError("dz and tolerances must be positive and finite")


@dataclass
class DepthCut:
    """Per-column lowest points at slice depth z: rows[c] = -1, y[c] = nan
    where the column has no pixel in the bin."""

    index: int
    z: float
    rows: np.ndarray    # (width,) int32
    y: np.ndarray       # (width,) float64, elevation in mm (y up)

    @property
    def columns(self) -> np.ndarray:
        return np.flatnonzero(self.rows >= 0)

    @property
    def is_empty(self) -> bool:
        return not np.any(self.rows >= 0)


@dataclass(frozen=True)
class SubCut:
    start: int          # first column, inclusive
    end: int            # last column, inclusive
    kind: str           # "concave" | "convex"
    y: np.ndarray       # entry elevations over the span's columns

    def __post_init__(self):
        if self.kind not in ("concave", "convex"):
            raise ValueError("kind must be concave or convex")


def _entry_table(frame: DepthFrame, cloud: np.ndarray, z0: float, zf: float,
                 dz: float):
    """Cut entries of every (cut, column) cell in one pass over the cloud.

    Returns (entry, key, in_band, pixel), n = ceil((zf - z0) / dz): entry is
    the (n+1, width) table of each cell's lowest y, inf where the cell is
    empty; in_band flags the cloud rows a cut reaches; key and pixel are the
    flat cell index bin * width + column and the flat pixel index of each
    in-band point, in cloud order.
    """
    n = int(np.ceil((zf - z0) / dz))
    # nearest-bin assignment; the half-up tie break keeps |z - z_i| <= dz/2
    bins = np.floor((cloud[:, 2] - z0) / dz + 0.5).astype(np.int64)
    in_band = (bins >= 0) & (bins <= n)
    pixel = frame.pixels[in_band]
    key = bins[in_band] * frame.width + pixel % frame.width
    entry = np.full((n + 1) * frame.width, np.inf)
    np.minimum.at(entry, key, cloud[in_band, 1])
    return entry.reshape(n + 1, frame.width), key, in_band, pixel


def compute_depth_cuts(frame: DepthFrame, cloud: np.ndarray, z0: float = 800.0,
                       zf: float = 4000.0, dz: float = 50.0) -> list[DepthCut]:
    """All n+1 cuts for z_i = z0 + i*dz, n = ceil((zf - z0) / dz) (cuts may
    be empty); the last cut reaches zf or beyond.

    cloud = ``depthio.backproject(frame, k)``: row i is pixel
    ``frame.pixels[i]``.  A point joins cut i when |z - z_i| <= dz/2; per column
    the entry is the point with the minimal y, the topmost row among ties.
    """
    if z0 >= zf or dz <= 0:
        raise ValueError("need z0 < zf and dz > 0")
    entry, key, in_band, pixel = _entry_table(frame, cloud, z0, zf, dz)
    ties = cloud[in_band, 1] == entry.ravel()[key]
    rows = np.full(entry.size, frame.height, dtype=np.int32)
    np.minimum.at(rows, key[ties], pixel[ties] // frame.width)
    occupied = entry < np.inf
    rows = np.where(occupied.ravel(), rows, -1).reshape(entry.shape)
    yentry = np.where(occupied, entry, np.nan)
    return [DepthCut(index=i, z=z0 + i * dz, rows=rows[i], y=yentry[i])
            for i in range(len(entry))]


def _claims(yv: np.ndarray, baseline_tol: float,
            ground_prior: float | None) -> np.ndarray:
    """Convex flags of one cut's entries: the iterative-median claim rule.

    The baseline is the median elevation of entries not claimed as object;
    claims start from the optional ground_prior (entries above
    prior + tol) and grow by re-running the median until stable.
    """
    claimed = np.zeros(yv.size, dtype=bool)
    if ground_prior is not None:
        claimed = yv > ground_prior + baseline_tol
    while not claimed.all():
        baseline = np.median(yv[~claimed])
        newly = yv > baseline + baseline_tol
        if not np.any(newly & ~claimed):
            break
        claimed |= newly
    return claimed


def split_subcuts(cut: DepthCut, baseline_tol: float = 50.0,
                  ground_prior: float | None = None) -> list[SubCut]:
    """Split a cut into maximal concave/convex column runs.

    Entries are claimed as convex by ``_claims``.  Runs break at unoccupied
    columns and at kind changes.
    """
    cols = cut.columns
    if cols.size == 0:
        raise ValueError("cut has no entries")
    yv = cut.y[cols]
    claimed = _claims(yv, baseline_tol, ground_prior)
    breaks = np.flatnonzero((np.diff(cols) != 1)
                            | (claimed[1:] != claimed[:-1])) + 1
    starts = np.concatenate(([0], breaks))
    ends = np.concatenate((breaks, [cols.size]))
    return [SubCut(start=int(cols[a]), end=int(cols[b - 1]),
                   kind="convex" if claimed[a] else "concave",
                   y=yv[a:b].copy())
            for a, b in zip(starts, ends)]


def detect_ground(frame: DepthFrame, cloud: np.ndarray,
                  params: DcgdParams = DcgdParams()) -> np.ndarray:
    """Ground flag of each row of cloud = ``depthio.backproject(frame, k)``,
    one per pixel of ``frame.pixels`` (bool, (N,)).

    Points belong to the ground when their column/bin cell has a concave
    entry and their own elevation is within include_tol of that entry.
    Convex cells contribute nothing: the entry and everything above it in
    the cell stays excluded.
    """
    on_ground = np.zeros(len(cloud), dtype=bool)
    entry, key, in_band, _ = _entry_table(frame, cloud, params.z0, params.zf,
                                          params.dz)
    if not key.size:
        return on_ground

    # Elevation prior: the ground is the lowest surface in view.
    y_band = cloud[in_band, 1]
    prior = float(np.percentile(y_band, 2.0))

    occupied = entry < np.inf
    concave = np.zeros(entry.shape, dtype=bool)
    for i in np.flatnonzero(occupied.any(axis=1)):
        cols = np.flatnonzero(occupied[i])
        concave[i, cols] = ~_claims(entry[i, cols], params.baseline_tol, prior)
    on_ground[in_band] = (concave.ravel()[key]
                          & (y_band <= entry.ravel()[key] + params.include_tol))
    return on_ground


def ground_elevation(cloud: np.ndarray, on_ground: np.ndarray) -> float:
    """Detected ground elevation: median y of the ground points (mm).

    on_ground flags the rows of the back-projected cloud, as detect_ground
    returns them.
    """
    if not on_ground.any():
        raise ValueError("empty ground mask")
    return float(np.median(cloud[on_ground, 1]))
