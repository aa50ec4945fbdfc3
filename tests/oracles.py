"""Independent reference implementations and builders shared across tests."""

import math
from collections import deque

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from hapmap.classifier import _forward_batch
from hapmap.classifier import _softmax64 as softmax64
from hapmap.dcgd import DcgdParams, DepthCut, detect_ground, ground_elevation
from hapmap.depthio import DepthFormatError, DepthFrame, backproject
from hapmap.geomfeat import (Footprint, classify_geometry, footprint,
                             polygon_area)
from hapmap.labeling import ObjectDescriptor, builtin_sheet
from hapmap.scenegen import GroundTruth
from hapmap.segment import extract_segments, image_segments
from hapmap.synthgrid import (ASCII_INACTIVE, INACTIVE, PinGrid,
                              barycenter_pin, clip_polygon_to_frustum,
                              label_level, map_continuous)


def csgraph_roots(n, i, j):
    """Lowest node index of each node's component, by connected_components."""
    k, comp = connected_components(
        coo_matrix((np.ones(len(i), dtype=np.int8), (i, j)), shape=(n, n)),
        directed=False)
    lowest = np.full(k, n, dtype=np.int64)
    np.minimum.at(lowest, comp, np.arange(n))
    return lowest[comp]


def flood_fill_segments(frame, cloud, occupied, link_mm, min_px):
    """Breadth-first flood fill on an (height, width) grid of cloud rows:
    4-neighbour occupied pixels whose depths differ by at most link_mm
    are linked; same contract as ``image_segments``, labels per occupied
    row.  The grid is rebuilt from ``frame.data``, not the pixel index."""
    h, w = frame.height, frame.width
    valid = frame.data > 0
    occupied = np.asarray(occupied, dtype=bool)
    row_at = np.full((h, w), -1, dtype=np.int64)
    row_at[valid] = np.arange(occupied.size)
    slot = np.full(occupied.size, -1, dtype=np.int64)
    slot[occupied] = np.arange(int(occupied.sum()))
    slot_at = np.full((h, w), -1, dtype=np.int64)
    slot_at[valid] = slot
    slot_at, row_at = slot_at.tolist(), row_at.tolist()
    z = cloud[:, 2].tolist()
    comp = [-1] * int(occupied.sum())
    sizes = []
    for v in range(h):
        for u in range(w):
            start = slot_at[v][u]
            if start < 0 or comp[start] >= 0:
                continue
            comp[start] = len(sizes)
            size = 0
            queue = deque([(v, u)])
            while queue:
                a, b = queue.popleft()
                size += 1
                za = z[row_at[a][b]]
                for c, d in ((a - 1, b), (a + 1, b), (a, b - 1), (a, b + 1)):
                    if not (0 <= c < h and 0 <= d < w):
                        continue
                    other = slot_at[c][d]
                    if (other >= 0 and comp[other] < 0
                            and abs(z[row_at[c][d]] - za) <= link_mm):
                        comp[other] = comp[start]
                        queue.append((c, d))
            sizes.append(size)
    kept = [s >= min_px for s in sizes]
    new_id = np.cumsum(kept) - 1
    labels = np.array([new_id[c] if kept[c] else -1 for c in comp],
                      dtype=np.int64)
    return labels, int(sum(kept))


def mask_split_segments(cloud, pixels, seg):
    """Each cluster id's (points, pixel indices) by one boolean mask over
    the whole cloud, in cloud row order: the split ``extract_segments``
    made before it sorted."""
    cloud = np.asarray(cloud, dtype=np.float64).reshape(-1, 3)
    return [(cloud[seg.labels == i], pixels[seg.labels == i])
            for i in range(seg.k)]


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def monotone_chain_hull(points):
    """Monotone chain over every distinct point, with no candidate pruning.

    Of rows that are equal (-0.0 and 0.0 are one key) the first in input
    order is kept.
    """
    first = {}
    for p in np.asarray(points, dtype=np.float64).reshape(-1, 2):
        first.setdefault(tuple(p), p)
    pts = np.array(list(first.values())).reshape(-1, 2)
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]
    if pts.shape[0] < 3:
        return pts
    lower, upper = [], []
    for chain, order in ((lower, pts), (upper, pts[::-1])):
        for p in order:
            while len(chain) >= 2 and _cross(chain[-2], chain[-1], p) <= 0:
                chain.pop()
            chain.append(p)
    return np.array(lower[:-1] + upper[:-1])


def dense_forward_batch(model, x, want_cache):
    """Logits for x of shape (B, n, 3); optionally the dense backprop cache."""
    bsz, npts, dim = x.shape
    w0 = model.point_layers[0][0]
    if dim != w0.shape[0]:
        raise ValueError(f"width mismatch: points have {dim} coordinates, "
                         f"model expects {w0.shape[0]}")
    h = x.reshape(bsz * npts, dim).astype(w0.dtype)
    point_inputs = []
    point_outputs = []
    for w, b in model.point_layers:
        point_inputs.append(h)
        h = np.maximum(h @ w + b, 0.0)
        point_outputs.append(h)
    feat = h.reshape(bsz, npts, -1)
    pooled = feat.max(axis=1)
    argmax = feat.argmax(axis=1)

    head_inputs = []
    h = pooled
    for i, (w, b) in enumerate(model.head_layers):
        head_inputs.append(h)
        h = h @ w + b
        if i < len(model.head_layers) - 1:
            h = np.maximum(h, 0.0)
    logits = h
    if not want_cache:
        return logits, None
    return logits, {"point_inputs": point_inputs, "point_outputs": point_outputs,
                    "argmax": argmax, "head_inputs": head_inputs,
                    "shape": (bsz, npts)}


def dense_loss_and_grads(model, x, y):
    """Mean cross-entropy over the batch plus gradients for every parameter
    in ``model.parameters()`` order, with the point-layer backward over all
    B * n rows.

    Max-pool routes each pooled feature's gradient to the first point that
    attains the maximum, which matches the forward tie-break.
    """
    logits, cache = dense_forward_batch(model, x, want_cache=True)
    bsz, npts = cache["shape"]
    probs = softmax64(logits)
    logp = np.log(probs[np.arange(bsz), y])
    loss = float(-logp.mean())
    dtype = model.point_layers[0][0].dtype

    dlogits = probs.astype(dtype)
    dlogits[np.arange(bsz), y] -= 1.0
    dlogits /= bsz

    head_grads = []
    d = dlogits
    for i in range(len(model.head_layers) - 1, -1, -1):
        inp = cache["head_inputs"][i]
        head_grads = [inp.T @ d, d.sum(axis=0)] + head_grads
        d = d @ model.head_layers[i][0].T
        if i > 0:
            d = d * (inp > 0)

    dpooled = d
    nfeat = dpooled.shape[1]
    dfeat = np.zeros((bsz, npts, nfeat), dtype=dtype)
    rows = np.arange(bsz)[:, None]
    cols = np.arange(nfeat)[None, :]
    dfeat[rows, cache["argmax"], cols] = dpooled
    d = dfeat.reshape(bsz * npts, nfeat)

    point_grads = []
    for i in range(len(model.point_layers) - 1, -1, -1):
        inp = cache["point_inputs"][i]
        d = d * (cache["point_outputs"][i] > 0)   # relu mask
        point_grads = [inp.T @ d, d.sum(axis=0)] + point_grads
        if i > 0:
            d = d @ model.point_layers[i][0].T

    acc = float((probs.argmax(axis=1) == y).mean())
    return loss, point_grads + head_grads, acc


def row_major_forward_batch(model, x, want_cache, work=None):
    """The row-major ``classifier._forward_batch``: every point layer adds
    its bias and applies its relu over all B * n rows, then the pool takes
    the argmax over the strided point axis.  Logits for x of shape
    (B, n, 3); optionally the backprop cache.  `work` is ignored: every
    layer output is a new array.

    The cache holds every point-layer activation (``acts[0]`` is the
    input, ``acts[i + 1]`` the output of point layer i), the per-sample
    argmax of the pooled features and the head-layer inputs.  Without
    the cache no argmax is taken.
    """
    bsz, npts, dim = x.shape
    w0 = model.point_layers[0][0]
    if dim != w0.shape[0]:
        raise ValueError(f"width mismatch: points have {dim} coordinates, "
                         f"model expects {w0.shape[0]}")
    h = x.reshape(bsz * npts, dim).astype(w0.dtype)
    acts = [h]
    for w, b in model.point_layers:
        h = h @ w
        h += b
        np.maximum(h, 0, out=h)
        acts.append(h)
    feat = h.reshape(bsz, npts, -1)
    if want_cache:
        argmax = feat.argmax(axis=1)
        pooled = np.take_along_axis(feat, argmax[:, None, :], axis=1)[:, 0]
    else:
        pooled = feat.max(axis=1)

    head_inputs = []
    h = pooled
    for i, (w, b) in enumerate(model.head_layers):
        head_inputs.append(h)
        h = h @ w + b
        if i < len(model.head_layers) - 1:
            h = np.maximum(h, 0.0)
    logits = h
    if not want_cache:
        return logits, None
    return logits, {"acts": acts, "argmax": argmax,
                    "head_inputs": head_inputs, "shape": (bsz, npts)}


def row_major_loss_and_grads(model, x, y, work=None):
    """``classifier.loss_and_grads`` on ``row_major_forward_batch``'s cache,
    the relu mask of every point layer read at the critical rows.  Mean
    cross-entropy over the batch, the gradient of every parameter
    in ``model.parameters()`` order, and the batch accuracy.  `work` is
    ignored.

    Max-pool routes each pooled feature's gradient to the first point that
    attains the maximum, which matches the forward tie-break.  Every other
    point gets zero gradient in every point layer, so the point-layer
    backward runs only on these critical rows, the distinct argmax rows of
    the batch: at default widths on synthetic box clouds about 83 of 256
    points per cloud.
    """
    logits, cache = row_major_forward_batch(model, x, want_cache=True)
    bsz, npts = cache["shape"]
    probs = softmax64(logits)
    logp = np.log(probs[np.arange(bsz), y])
    loss = float(-logp.mean())
    dtype = model.point_layers[0][0].dtype

    dlogits = probs.astype(dtype)
    dlogits[np.arange(bsz), y] -= 1.0
    dlogits /= bsz

    head_grads = []
    d = dlogits
    for i in range(len(model.head_layers) - 1, -1, -1):
        inp = cache["head_inputs"][i]
        head_grads = [inp.T @ d, d.sum(axis=0)] + head_grads
        d = d @ model.head_layers[i][0].T
        if i > 0:
            d = d * (inp > 0)

    # rows of the critical points: the first point attaining each pooled
    # maximum, the only one the max-pool sends gradient to
    rows, slot = np.unique(cache["argmax"] + npts * np.arange(bsz)[:, None],
                           return_inverse=True)
    dpooled = d
    d = np.zeros((rows.size, dpooled.shape[1]), dtype=dtype)
    d[slot.reshape(dpooled.shape), np.arange(dpooled.shape[1])] = dpooled

    acts = cache["acts"]
    point_grads = []
    for i in range(len(model.point_layers) - 1, -1, -1):
        d *= acts[i + 1][rows] > 0   # relu mask
        point_grads = [acts[i][rows].T @ d, d.sum(axis=0)] + point_grads
        if i > 0:
            d = d @ model.point_layers[i][0].T

    acc = float((probs.argmax(axis=1) == y).mean())
    return loss, point_grads + head_grads, acc


def block_evaluate(model, x, y, work=None):
    """``classifier.evaluate`` with one forward per block of up to 128
    clouds, so a test set of at most 128 clouds runs as one batch:
    (mean cross-entropy, accuracy) without augmentation.  `work` is
    ignored."""
    losses = []
    correct = 0
    for lo in range(0, len(x), 128):
        xb = x[lo:lo + 128]
        yb = y[lo:lo + 128]
        logits, _ = _forward_batch(model, xb, want_cache=False)
        probs = softmax64(logits)
        losses.append(-np.log(probs[np.arange(len(yb)), yb]).sum())
        correct += int((probs.argmax(axis=1) == yb).sum())
    return float(np.sum(losses) / len(x)), correct / len(x)


def floor_depth_at(v, k, camera_height):
    """Analytic z-depth of the floor ray through image row v (inf above
    the horizon)."""
    dy = (k.cy - v) / k.fy
    if dy >= 0:
        return math.inf
    return -camera_height / dy


def full_frame_render_depth(spec, k, width=640, height=480):
    """``scenegen.render_depth`` with every primitive ray-cast over the whole
    frame: the floor over a per-pixel meshgrid, each box by the Kay-Kajiya
    slab test on all pixels, each hole by back-projecting every pixel.

    Same per-pixel arithmetic, so the frames and masks must be equal byte
    for byte.  A whole-pixel principal point gives 0 * inf on the sky rows
    of its column, which errstate silences.
    """
    rng = np.random.default_rng(spec.seed)
    cam_h = spec.camera_height
    dx = (np.arange(width, dtype=np.float64) - k.cx) / k.fx
    dy = (k.cy - np.arange(height, dtype=np.float64)) / k.fy
    dxg, dyg = np.meshgrid(dx, dy)
    best_t = np.full((height, width), np.inf)
    hit_id = np.full((height, width), -1, dtype=np.int32)
    with np.errstate(divide="ignore", invalid="ignore"):
        t_floor = np.where(dyg < 0, -cam_h / dyg, np.inf)
        fx_hit = dxg * t_floor
    floor_ok = ((t_floor > 0) & (np.abs(fx_hit) <= spec.floor_extent / 2)
                & (t_floor <= spec.floor_extent))
    t_floor = np.where(floor_ok, t_floor, np.inf)
    better = t_floor < best_t
    best_t = np.where(better, t_floor, best_t)
    hit_id = np.where(better, 0, hit_id)
    for i, box in enumerate(spec.boxes):
        lo = np.array([box.center_x - box.width / 2, -cam_h,
                       box.center_z - box.depth / 2])
        hi = np.array([box.center_x + box.width / 2, -cam_h + box.height,
                       box.center_z + box.depth / 2])
        tmin = np.zeros((height, width))
        tmax = np.full((height, width), np.inf)
        for axis, d in ((0, dxg), (1, dyg)):
            with np.errstate(divide="ignore", invalid="ignore"):
                t1 = lo[axis] / d
                t2 = hi[axis] / d
            near = np.minimum(t1, t2)
            far = np.maximum(t1, t2)
            parallel = np.abs(d) < 1e-12
            inside = (lo[axis] <= 0) & (0 <= hi[axis])
            near = np.where(parallel, np.where(inside, 0.0, np.inf), near)
            far = np.where(parallel, np.where(inside, np.inf, -np.inf), far)
            tmin = np.maximum(tmin, near)
            tmax = np.minimum(tmax, far)
        tmin = np.maximum(tmin, lo[2])
        tmax = np.minimum(tmax, hi[2])
        t_box = np.where((tmax >= tmin) & (tmin > 0), tmin, np.inf)
        better = t_box < best_t
        best_t = np.where(better, t_box, best_t)
        hit_id = np.where(better, i + 1, hit_id)
    in_range = np.isfinite(best_t) & (best_t >= 1) & (best_t < 2**16)
    hit_id = np.where(in_range, hit_id, -1)
    hole_mask = np.zeros((height, width), dtype=bool)
    if spec.holes:
        with np.errstate(invalid="ignore"):
            hx = dxg * best_t
        for hole in spec.holes:
            inside = ((np.abs(hx - hole.center_x) <= hole.width / 2)
                      & (np.abs(best_t - hole.center_z) <= hole.depth / 2))
            hole_mask |= (hit_id == 0) & inside
    depth = np.where(hit_id >= 0, best_t, 0.0)
    if spec.noise_sigma > 0:
        noise = rng.normal(0.0, spec.noise_sigma, size=depth.shape)
        depth = np.where(hit_id >= 0, np.maximum(depth + noise, 0.0), 0.0)
    depth = np.where(hole_mask, 0.0, depth)
    raw = np.clip(np.rint(depth), 0, 65535).astype(np.uint16)
    truth = GroundTruth(
        ground_mask=(hit_id == 0) & ~hole_mask,
        object_masks=[hit_id == i + 1 for i in range(len(spec.boxes))])
    return DepthFrame(raw), truth


def loop_pgm_header(blob):
    """(width, height, maxval, payload_offset) of a P5 header, read one byte
    at a time: whitespace and '#' comments (up to a line break) between
    the fields, then exactly one whitespace byte before the payload."""
    pos = 2  # past "P5"
    fields = []
    while len(fields) < 3:
        if pos >= len(blob):
            raise DepthFormatError("malformed PGM header")
        c = blob[pos:pos + 1]
        if c.isspace():
            pos += 1
        elif c == b"#":
            while pos < len(blob) and blob[pos:pos + 1] not in (b"\n", b"\r"):
                pos += 1
        elif c.isdigit():
            start = pos
            while pos < len(blob) and blob[pos:pos + 1].isdigit():
                pos += 1
            fields.append(int(blob[start:pos]))
        else:
            raise DepthFormatError("malformed PGM header")
    if pos >= len(blob) or not blob[pos:pos + 1].isspace():
        raise DepthFormatError("malformed PGM header")
    return fields[0], fields[1], fields[2], pos + 1


def pinhole_frame(frame, k):
    """(height, width, 3) point of every pixel, invalid ones included: the
    pinhole inverse x = (u - cx) z / fx, y = (cy - v) z / fy written out over
    the whole frame, independently of backproject and the pixel index."""
    z = frame.data.astype(np.float64) * k.depth_scale
    us = np.arange(frame.width, dtype=np.float64)[None, :]
    vs = np.arange(frame.height, dtype=np.float64)[:, None]
    return np.stack([(us - k.cx) * z / k.fx, (k.cy - vs) * z / k.fy, z],
                    axis=-1)


def frame_geometry(frame, k, z0, zf, dz):
    """Per-pixel (y, bin) arrays over the whole frame and the last cut index
    n, from ``pinhole_frame``.

    n = ceil((zf - z0) / dz), so the cuts cover the whole band [z0, zf];
    bin = -1 for invalid pixels and pixels no cut reaches.
    """
    points = pinhole_frame(frame, k)
    y, z = points[..., 1], points[..., 2]
    n = int(np.ceil((zf - z0) / dz))
    # nearest-bin assignment; the half-up tie break keeps |z - z_i| <= dz/2
    bins = np.floor((z - z0) / dz + 0.5).astype(np.int64)
    bins[(frame.data == 0) | (bins < 0) | (bins > n)] = -1
    return y, bins, n


def loop_depth_cuts(frame, k, z0=800.0, zf=4000.0, dz=50.0):
    """One full-frame argmin per cut: the entry is the first minimal-y row."""
    y, bins, n = frame_geometry(frame, k, z0, zf, dz)
    cuts = []
    for i in range(n + 1):
        mask = bins == i
        ycol = np.where(mask, y, np.inf)
        rows = np.argmin(ycol, axis=0).astype(np.int32)
        occupied = mask.any(axis=0)
        rows[~occupied] = -1
        yentry = np.where(occupied, ycol[rows, np.arange(frame.width)], np.nan)
        cuts.append(DepthCut(index=i, z=z0 + i * dz, rows=rows, y=yentry))
    return cuts


def loop_claims(yv, baseline_tol, ground_prior):
    """Convex flags of one cut's entries: the iterative-median claim rule,
    one ``np.median`` per round over the entries not yet claimed.

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


def loop_split_subcuts(cut, baseline_tol=50.0, ground_prior=None):
    """Iterative-median claims, then (start, end, kind) column runs found
    column by column; ends are inclusive, kind is "concave" or "convex"."""
    cols = cut.columns
    claimed = loop_claims(cut.y[cols], baseline_tol, ground_prior)
    runs = []
    run_start = 0
    for idx in range(1, cols.size + 1):
        if (idx == cols.size or cols[idx] != cols[idx - 1] + 1
                or claimed[idx] != claimed[idx - 1]):
            kind = "convex" if claimed[run_start] else "concave"
            runs.append((int(cols[run_start]), int(cols[idx - 1]), kind))
            run_start = idx
    return runs


def loop_detect_ground(frame, k, params=DcgdParams()):
    """Ground mask built cut by cut and concave span by span."""
    mask = np.zeros((frame.height, frame.width), dtype=bool)
    y, bins, _ = frame_geometry(frame, k, params.z0, params.zf, params.dz)
    in_band = bins >= 0
    if not in_band.any():
        return mask
    prior = float(np.percentile(y[in_band], 2.0))
    for cut in loop_depth_cuts(frame, k, params.z0, params.zf, params.dz):
        if cut.is_empty:
            continue
        for start, end, kind in loop_split_subcuts(cut, params.baseline_tol,
                                                   prior):
            if kind != "concave":
                continue
            span = slice(start, end + 1)
            cell = bins[:, span] == cut.index
            low = y[:, span] <= cut.y[span][None, :] + params.include_tol
            mask[:, span] |= cell & low
    return mask


def full_frame_analysis(config, frame, k):
    """The front end with the band test last: every valid pixel
    back-projected and ground-detected, then the [z0, zf] test picks the
    occupied points.  Returns (ground mask over the frame, ground_y,
    occupied points, segmentation, footprints)."""
    cloud = backproject(frame, k)
    on_ground = detect_ground(frame, cloud, config.dcgd)
    z = cloud[:, 2]
    occupied = (z >= config.dcgd.z0) & (z <= config.dcgd.zf) & ~on_ground
    ground_y = ground_elevation(cloud, on_ground) if on_ground.any() else 0.0
    labels = image_segments(frame, cloud, occupied, config.segment_link_mm,
                            config.segment_min_px)
    segments = extract_segments(cloud[occupied], frame.pixels[occupied],
                                labels)
    mask = np.zeros(frame.data.size, dtype=bool)
    mask[frame.pixels] = on_ground
    return (mask.reshape(frame.data.shape), ground_y, cloud[occupied], labels,
            [footprint(s.points, s.pixels % frame.width) for s in segments])


def loop_fill_polygon(cells, active, poly_uv, level):
    """Row by row, edge by edge: the crossings of each pin row collected in
    a list, then the row's active pins between their extremes set to level."""
    if poly_uv.shape[0] < 3:
        return
    eps = 1e-9
    v_lo = max(int(math.ceil(poly_uv[:, 1].min() - eps)), 0)
    v_hi = min(int(math.floor(poly_uv[:, 1].max() + eps)), cells.shape[0] - 1)
    m = poly_uv.shape[0]
    for v in range(v_lo, v_hi + 1):
        us = []
        for i in range(m):
            pu, pv = poly_uv[i]
            qu, qv = poly_uv[(i + 1) % m]
            if (pv - v) * (qv - v) <= 0:
                if pv == qv:
                    us.extend((pu, qu))
                else:
                    us.append(pu + (v - pv) * (qu - pu) / (qv - pv))
        if not us:
            continue
        lo = max(int(math.ceil(min(us) - eps)), 0)
        hi = min(int(math.floor(max(us) + eps)), cells.shape[1] - 1)
        if lo > hi:
            continue
        span = slice(lo, hi + 1)
        cells[v, span] = np.where(active[v, span], level, cells[v, span])


def loop_rasterize_scene(ground_holes, objects, g, sheet=None):
    """The scene composed object by object: holes set to 0, then per
    object its footprint raised to at least 2 and its glyph stamped, so
    every level is a maximum over what came before.  The fill of one
    polygon goes through ``loop_fill_polygon`` on a copy, and "max" keeps
    the higher of the copy and the grid."""
    if sheet is None:
        sheet = builtin_sheet()
    grid = PinGrid.empty(g)
    cells, active = grid.cells, grid.active

    def fill(poly, level, mode):
        x, z = clip_polygon_to_frustum(poly, g).T
        filled = cells.copy()
        loop_fill_polygon(filled, active,
                          np.column_stack(map_continuous(x, z, g)), level)
        cells[...] = np.maximum(cells, filled) if mode == "max" else filled

    for hole in ground_holes:
        fill(hole, 0, "set")

    for obj in objects:
        if not obj.footprint.degenerate:
            fill(obj.footprint.hull, 2, "max")
        if obj.label is None:
            continue
        glyph = sheet[obj.label]
        level = label_level(obj.geometry.height_class)
        u0, v0 = barycenter_pin(obj, g)
        r, c = np.nonzero(glyph.as_array())
        u = u0 + c - 2
        v = v0 + 2 - r      # glyph top row points away from the user
        on = (v >= 0) & (v < g.rows) & (u >= 0) & (u < g.cols)
        u, v = u[on], v[on]
        ok = active[v, u]
        cells[v[ok], u[ok]] = np.maximum(cells[v[ok], u[ok]], level)
    return grid


def loop_trapezoid_mask(g):
    """Row by row: each row spans the rounded view-field edges at the far
    depth of its pins' pre-image, scaled as a point's x is scaled."""
    mask = np.zeros((g.rows, g.cols), dtype=bool)
    v_max = int(math.floor(g.scale * (g.far - g.near) + 0.5))
    for v in range(v_max + 1):
        z_hi = min(g.far, g.near + (v + 0.5) / g.scale)
        half = g.scale * (z_hi * g.half_tan)
        lo = max(int(math.floor(g.cols / 2.0 - half + 0.5)), 0)
        hi = min(int(math.floor(g.cols / 2.0 + half + 0.5)), g.cols - 1)
        mask[v, lo:hi + 1] = True
    return mask


def loop_glyph_stamp(cells, active, obj, g, sheet):
    """One labelled object's glyph stamped dot by dot, centred on its
    barycenter pin: the barycenter clamped into the view field, then
    rounded half up and clamped into the grid, all on scalars."""
    glyph = sheet[obj.label]
    level = label_level(obj.geometry.height_class)
    bx, _, bz = obj.footprint.barycenter
    z = min(max(bz, g.near), g.far)
    x = min(max(bx, -z * g.half_tan), z * g.half_tan)
    u0 = min(max(int(math.floor(g.scale * x + g.cols / 2.0 + 0.5)), 0), g.cols - 1)
    v0 = min(max(int(math.floor(g.scale * (z - g.near) + 0.5)), 0), g.rows - 1)
    bitmap = glyph.as_array()
    for r in range(bitmap.shape[0]):
        for c in range(bitmap.shape[1]):
            if not bitmap[r, c]:
                continue
            u = u0 + (c - 2)
            v = v0 + (2 - r)      # glyph top row points away from the user
            if 0 <= v < g.rows and 0 <= u < g.cols and active[v, u]:
                cells[v, u] = max(cells[v, u], level)


def loop_emit_ascii(cells):
    """The ascii grid written cell by cell."""
    lines = ["".join(ASCII_INACTIVE if c == INACTIVE else str(int(c))
                     for c in row) for row in cells]
    return ("\n".join(lines) + "\n").encode("utf-8")


def as_partition(points, labels):
    """Partition as frozensets of point tuples, noise kept separate; a
    point may be a cloud row or a pixel's (row, column)."""
    clusters = {}
    noise = set()
    for p, lab in zip(points, labels):
        key = tuple(np.round(p, 9))
        if lab == -1:
            noise.add(key)
        else:
            clusters.setdefault(lab, set()).add(key)
    return frozenset(frozenset(c) for c in clusters.values()), frozenset(noise)


def rect_descriptor(cx, cz, w, d, height_mm, label=None, confidence=None,
                    y=-800.0, segment_id=0):
    """ObjectDescriptor with a rectangular footprint, for synthesis tests."""
    hull = np.array([[cx - w / 2, cz - d / 2], [cx + w / 2, cz - d / 2],
                     [cx + w / 2, cz + d / 2], [cx - w / 2, cz + d / 2]])
    fp = Footprint(hull=hull, area_m2=polygon_area(hull),
                   barycenter=np.array([cx, y, cz]))
    geom = classify_geometry(height_mm, fp.area_m2)
    return ObjectDescriptor(segment_id, fp, geom, label=label,
                            confidence=confidence)
