"""Depth-cut based ground detection (DCGD).

The depth image is sliced into bins of width dz along the optical axis.
Within each bin, the lowest 3D point of every column forms a cut curve.
Cut entries near the ground elevation are concave (ground candidates);
entries rising above it are convex (objects) and are stripped together
with everything above them in their column/bin cell.

The pipeline applies the band as a pass-through first: ``band_frame``
keeps the pixels that some cut reaches, and only those are back-projected,
ground-detected and segmented.  One pass over the back-projected cloud
builds the (n+1, width) table of cut entries: one ``np.minimum.at`` keyed
on ``bin * width + column`` gives every cell's lowest elevation.  The
claim rule then runs on the whole table at once, and one gather of the
concave flags and entries at each point's cell yields the ground flag of
every point.

The concave/convex criterion used here: a per-cut baseline found as the
median of unclaimed entry elevations, with entries claimed as object when
they exceed the baseline by more than ``baseline_tol``.  A global
low-percentile elevation prior seeds the claims so that cuts seeing only
object surfaces (no ground in the bin) are rejected whole.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
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


def _cut_index(z, z0: float, dz: float):
    """Nearest cut index of depth z, as a float: floor((z - z0) / dz + 0.5).

    The half-up tie break keeps |z - z_i| <= dz/2.  Every step is a
    correctly rounded or monotone operation, so the index never falls as z
    rises; the same holds for z = raw * depth_scale as raw rises.
    """
    return np.floor((z - z0) / dz + 0.5)


def _last_cut(z0: float, zf: float, dz: float) -> int:
    """n = ceil((zf - z0) / dz): cuts 0..n cover the whole band [z0, zf]."""
    return int(np.ceil((zf - z0) / dz))


def band_frame(frame: DepthFrame, depth_scale: float,
               params: DcgdParams) -> DepthFrame:
    """The pass-through: frame with only the pixels some depth cut reaches
    left valid, for depth z = raw * depth_scale as ``backproject`` has it.

    DCGD flags no pixel outside the cuts, so back-projecting and
    ground-detecting this frame gives every pixel it keeps the flag the
    whole frame would.  The cut index never falls as the raw value rises,
    so the raw values some cut reaches form one range; bisection on the
    same cut-index expression finds its ends, and one mask over the raster
    picks the pixels.
    """
    n = _last_cut(params.z0, params.zf, params.dz)

    def index(raw):
        return _cut_index(raw * depth_scale, params.z0, params.dz)

    raws = range(1, 2**16)   # raw 0 is no return
    lo = 1 + bisect_left(raws, 0, key=index)
    hi = bisect_right(raws, n, key=index)
    return frame.within(lo, hi)


def _entry_table(frame: DepthFrame, cloud: np.ndarray, z0: float, zf: float,
                 dz: float):
    """Cut entries of every (cut, column) cell in one pass over the cloud.

    Returns (entry, key, in_band, y): entry is the (n+1, width) table of
    each cell's lowest y, inf where the cell is empty, n = ceil((zf - z0)
    / dz); in_band flags the cloud rows a cut reaches; key and y are the
    flat cell index bin * width + column and the elevation of each in-band
    point, in cloud order.
    """
    n = _last_cut(z0, zf, dz)
    bins = _cut_index(cloud[:, 2], z0, dz)
    in_band = (bins >= 0) & (bins <= n)
    key = (bins.astype(np.int64) * frame.width
           + frame.rows_columns[1])[in_band]
    y = cloud[:, 1][in_band]   # column first: far faster than cloud[in_band, 1]
    entry = np.full((n + 1) * frame.width, np.inf)
    np.minimum.at(entry, key, y)
    return entry.reshape(-1, frame.width), key, in_band, y


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
    entry, key, in_band, y = _entry_table(frame, cloud, z0, zf, dz)
    ties = y == entry.ravel()[key]
    rows = np.full(entry.size, frame.height, dtype=np.int32)
    np.minimum.at(rows, key[ties], frame.rows_columns[0][in_band][ties])
    occupied = entry < np.inf
    rows = np.where(occupied.ravel(), rows, -1).reshape(entry.shape)
    yentry = np.where(occupied, entry, np.nan)
    return [DepthCut(index=i, z=z0 + i * dz, rows=rows[i], y=yentry[i])
            for i in range(len(entry))]


def _claims(entry: np.ndarray, baseline_tol: float,
            ground_prior: float | None) -> np.ndarray:
    """Convex flags of a (cuts, width) table of cut entries, inf where a
    cell is empty (empty cells come out convex): the iterative-median
    claim rule, run on every cut at once.

    Per cut, the baseline is the median elevation of entries not claimed
    as object; claims start from the optional ground_prior (entries above
    prior + tol) and grow by re-running the median until stable.  Claims
    only ever add entries above a threshold, so a cut's unclaimed entries
    are a prefix of its sorted row: each round's median is
    (S[lo] + S[hi]) / 2 over that prefix, as ``np.median`` computes it.
    """
    s = np.sort(entry, axis=1)
    limit = np.inf if ground_prior is None else ground_prior + baseline_tol
    unclaimed = ((s < np.inf) & (s <= limit)).sum(axis=1)   # prefix lengths
    active = np.flatnonzero(unclaimed)
    while active.size:
        m = unclaimed[active]
        baseline = (s[active, (m - 1) // 2] + s[active, m // 2]) / 2
        kept = np.minimum(
            (s[active] <= (baseline + baseline_tol)[:, None]).sum(axis=1), m)
        unclaimed[active] = kept
        active = active[(kept < m) & (kept > 0)]
    top = s[np.arange(len(s)), np.maximum(unclaimed - 1, 0)]
    return entry > np.where(unclaimed > 0, top, -np.inf)[:, None]


def split_subcuts(cut: DepthCut, baseline_tol: float = 50.0,
                  ground_prior: float | None = None) -> list[SubCut]:
    """Split a cut into maximal concave/convex column runs.

    Entries are claimed as convex by ``_claims`` on a one-row table.  Runs
    break at unoccupied columns and at kind changes.
    """
    cols = cut.columns
    if cols.size == 0:
        raise ValueError("cut has no entries")
    yv = cut.y[cols]
    claimed = _claims(yv[None, :], baseline_tol, ground_prior)[0]
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
    entry, key, in_band, y = _entry_table(frame, cloud, params.z0, params.zf,
                                          params.dz)
    if not key.size:
        return on_ground
    # Elevation prior: the ground is the lowest surface in view.
    prior = float(np.percentile(y, 2.0))
    concave = ~_claims(entry, params.baseline_tol, prior)
    on_ground[in_band] = (concave.ravel()[key]
                          & (y <= entry.ravel()[key] + params.include_tol))
    return on_ground


def ground_elevation(cloud: np.ndarray, on_ground: np.ndarray) -> float:
    """Detected ground elevation: median y of the ground points (mm).

    on_ground flags the rows of the back-projected cloud, as detect_ground
    returns them.
    """
    if not on_ground.any():
        raise ValueError("empty ground mask")
    return float(np.median(cloud[on_ground, 1]))
