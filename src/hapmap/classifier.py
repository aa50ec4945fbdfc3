"""Permutation-invariant point-set classifier and its trainer.

The network applies a shared MLP to every point, collapses the point axis
with a coordinatewise max (which makes the forward pass exactly invariant
to point order), and classifies the pooled feature vector with a dense
head.  Everything runs on plain numpy; gradients are hand-derived and
verified against central finite differences by ``grad_check``.  The
max-pool passes gradient only to its critical points, the first point
attaining each feature's maximum, so the point-layer backward runs on
those rows alone.

Also houses the class table (each fine object class with its training
class and its tactile labeling class), input canonicalization and
augmentation, OFF mesh surface sampling, and the flat binary model format.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

# ---------------------------------------------------------------------------
# Taxonomy
# ---------------------------------------------------------------------------

#: the class table, the one place class facts are written: each fine
#: class with its training class and its labeling class.  Doors and
#: windows have no training class: as wall openings they are easily
#: confused with holes and closed walls in depth data.
CLASS_TABLE = {
    "chair": ("sit_on", "sit_on"), "stool": ("sit_on", "sit_on"),
    "bed": ("sit_on", "sit_on"), "sofa": ("sit_on", "sit_on"),
    "bench": ("sit_on", "sit_on"),
    "table": ("put_on", "put_on"), "desk": ("put_on", "put_on"),
    "night_stand": ("put_on", "put_on"),
    "dresser": ("store_in", "store_in"), "wardrobe": ("store_in", "store_in"),
    "bookshelf": ("store_in", "store_in"),
    "bathtub": ("bathtub", "sanitary"), "toilet": ("toilet", "sanitary"),
    "stairs": ("stairs", "stairs"),
    "door": (None, "door"), "window": (None, "window"),
}

FINE_CLASSES = tuple(CLASS_TABLE)
TRAINED_FINE_CLASSES = tuple(f for f, (t, _) in CLASS_TABLE.items() if t)

#: training classes and their fine members, both in FINE_CLASSES order
TRAINING_COARSE_CLASSES = tuple(dict.fromkeys(
    CLASS_TABLE[f][0] for f in TRAINED_FINE_CLASSES))
TRAINING_MEMBERS = {
    group: tuple(f for f in TRAINED_FINE_CLASSES if CLASS_TABLE[f][0] == group)
    for group in TRAINING_COARSE_CLASSES}

#: fine, training and labeling names alike, each to its labeling class
_LABELING_CLASS = {name: labeling
                   for fine, (training, labeling) in CLASS_TABLE.items()
                   for name in (fine, training, labeling) if name}


def merge_labels(fine: str) -> str:
    """The training class of a fine class."""
    if fine not in CLASS_TABLE:
        raise ValueError(f"unknown fine class {fine!r}")
    training = CLASS_TABLE[fine][0]
    if training is None:
        raise ValueError(f"{fine!r} has no training class")
    return training


def to_labeling_class(name: str) -> str:
    """The labeling class of a fine, training or labeling class name."""
    try:
        return _LABELING_CLASS[name]
    except KeyError:
        raise ValueError(f"unknown class {name!r}") from None


# ---------------------------------------------------------------------------
# Input canonicalization
# ---------------------------------------------------------------------------

def normalize_unit_sphere(cloud: np.ndarray) -> np.ndarray:
    """Center on the centroid and scale so the farthest point has norm 1.

    A cloud that collapses to a single location maps to all-zeros.
    """
    pts = np.asarray(cloud, dtype=np.float64).reshape(-1, 3)
    if pts.shape[0] == 0:
        raise ValueError("empty cloud")
    centered = pts - pts.mean(axis=0)
    radius = np.linalg.norm(centered, axis=1).max()
    if radius == 0.0:
        return centered
    return centered / radius


def resample_points(cloud: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    """Fix the point count to n: without replacement when possible."""
    pts = np.asarray(cloud, dtype=np.float64).reshape(-1, 3)
    m = pts.shape[0]
    if m == 0:
        raise ValueError("empty cloud")
    idx = rng.choice(m, size=n, replace=m < n)
    return pts[idx]


# ---------------------------------------------------------------------------
# OFF mesh sampling
# ---------------------------------------------------------------------------

class MeshFormatError(ValueError):
    """Malformed OFF mesh."""


def _off_tokens(text: str) -> list[str]:
    tokens = []
    for line in text.splitlines():
        tokens.extend(line.split("#", 1)[0].split())
    return tokens


def sample_mesh_off(off_bytes: bytes, n_points: int,
                    rng: np.random.Generator) -> np.ndarray:
    """Surface-sample an ASCII OFF mesh into an (n_points, 3) cloud.

    Faces are picked with probability proportional to area, then a point
    is drawn uniformly inside the triangle; polygons are fan-triangulated.
    Handles the common header quirk where the counts share the OFF line.
    """
    try:
        text = off_bytes.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MeshFormatError("OFF file is not valid text") from exc
    stripped = text.lstrip()
    if not stripped.startswith("OFF"):
        raise MeshFormatError("missing OFF header")
    tokens = _off_tokens(stripped[3:])
    pos = 0

    def take(count):
        nonlocal pos
        if pos + count > len(tokens):
            raise MeshFormatError("truncated OFF data")
        out = tokens[pos:pos + count]
        pos += count
        return out

    try:
        nv, nf, _ = (int(t) for t in take(3))
        verts = np.array([float(t) for t in take(3 * nv)]).reshape(nv, 3)
        tris = []
        for _ in range(nf):
            m = int(take(1)[0])
            if m < 3:
                raise MeshFormatError("face with fewer than 3 vertices")
            idx = [int(t) for t in take(m)]
            if max(idx) >= nv or min(idx) < 0:
                raise MeshFormatError("face index out of range")
            for j in range(1, m - 1):
                tris.append((idx[0], idx[j], idx[j + 1]))
    except ValueError as exc:
        raise MeshFormatError(f"malformed OFF data: {exc}") from exc
    if pos != len(tokens):
        raise MeshFormatError("trailing OFF data (face count mismatch?)")
    if not tris:
        raise MeshFormatError("mesh has no faces")
    bad = np.flatnonzero(~np.isfinite(verts).all(axis=1))
    if bad.size:
        raise MeshFormatError(f"vertex {bad[0]} is not finite")

    tri = np.array(tris)
    a = verts[tri[:, 0]]
    b = verts[tri[:, 1]]
    c = verts[tri[:, 2]]
    areas = 0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1)
    total = areas.sum()
    if total <= 0:
        raise MeshFormatError("mesh has zero total surface area")
    picks = rng.choice(len(tri), size=n_points, p=areas / total)
    r1 = rng.random(n_points)
    r2 = rng.random(n_points)
    flip = r1 + r2 > 1.0
    r1[flip] = 1.0 - r1[flip]
    r2[flip] = 1.0 - r2[flip]
    pa, pb, pc = a[picks], b[picks], c[picks]
    return pa + r1[:, None] * (pb - pa) + r2[:, None] * (pc - pa)


# ---------------------------------------------------------------------------
# Model
# ---------------------------------------------------------------------------

MODEL_MAGIC = b"PSM1"


@dataclass
class PointSetModel:
    """The shared per-point MLP and the head as ``(weights, bias)`` layer
    pairs, weights (n_in, n_out).  ``parameters()`` is the one parameter
    order (point layers first, each weight then its bias): the gradients
    of ``loss_and_grads`` and the model file's data follow it."""

    classes: tuple[str, ...]
    n_points: int
    point_layers: list[tuple[np.ndarray, np.ndarray]]
    head_layers: list[tuple[np.ndarray, np.ndarray]]
    meta: dict = field(default_factory=dict)

    def parameters(self) -> list[np.ndarray]:
        return [a for layer in self.point_layers + self.head_layers
                for a in layer]

    def astype(self, dtype) -> "PointSetModel":
        def cast(layers):
            return [(w.astype(dtype), b.astype(dtype)) for w, b in layers]
        return PointSetModel(classes=self.classes, n_points=self.n_points,
                             point_layers=cast(self.point_layers),
                             head_layers=cast(self.head_layers),
                             meta=dict(self.meta))


def init_model(classes, n_points: int = 256,
               point_widths: tuple[int, ...] = (3, 64, 128, 256),
               head_hidden: tuple[int, ...] = (128,),
               rng: np.random.Generator | None = None,
               dtype=np.float32) -> PointSetModel:
    """He-initialized model; head widths are (pooled, *head_hidden, n_classes)."""
    classes = tuple(classes)
    if len(classes) < 2:
        raise ValueError("need at least 2 classes")
    if rng is None:
        rng = np.random.default_rng(0)
    head_widths = (point_widths[-1], *head_hidden, len(classes))

    def layers(widths):
        out = []
        for n_in, n_out in zip(widths[:-1], widths[1:]):
            w = rng.normal(0.0, np.sqrt(2.0 / n_in), (n_in, n_out))
            out.append((w.astype(dtype), np.zeros(n_out, dtype=dtype)))
        return out

    point_layers = layers(point_widths)   # drawn before the head's
    return PointSetModel(classes=classes, n_points=n_points,
                         point_layers=point_layers,
                         head_layers=layers(head_widths))


def _forward_batch(model: PointSetModel, x: np.ndarray, want_cache: bool):
    """Logits for x of shape (B, n, 3); optionally the backprop cache.

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


def _softmax64(logits: np.ndarray) -> np.ndarray:
    z = logits.astype(np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def forward(model: PointSetModel, cloud: np.ndarray) -> np.ndarray:
    """Class probabilities for one cloud; exactly point-order invariant."""
    pts = np.asarray(cloud, dtype=np.float64)
    if pts.ndim != 2:
        raise ValueError("cloud must be (n, 3)")
    logits, _ = _forward_batch(model, pts[None], want_cache=False)
    return _softmax64(logits)[0]


def loss_and_grads(model: PointSetModel, x: np.ndarray, y: np.ndarray):
    """Mean cross-entropy over the batch, the gradient of every parameter
    in ``model.parameters()`` order, and the batch accuracy.

    Max-pool routes each pooled feature's gradient to the first point that
    attains the maximum, which matches the forward tie-break.  Every other
    point gets zero gradient in every point layer, so the point-layer
    backward runs only on these critical rows, the distinct argmax rows of
    the batch: at default widths on synthetic box clouds about 83 of 256
    points per cloud.
    """
    logits, cache = _forward_batch(model, x, want_cache=True)
    bsz, npts = cache["shape"]
    probs = _softmax64(logits)
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


def grad_check(model: PointSetModel, x: np.ndarray, y: np.ndarray,
               step: float = 1e-4) -> float:
    """Max relative error between analytic gradients and central differences.

    Every parameter entry is perturbed by +-step; the relative error uses
    the bounded denominator max(1, |analytic|, |numeric|).  Meant for tiny
    models (widths <= 16, n <= 32); runs in float64.
    """
    m = model.astype(np.float64)
    x = np.asarray(x, dtype=np.float64)
    _, grads, _ = loss_and_grads(m, x, y)

    def batch_loss():
        logits, _ = _forward_batch(m, x, want_cache=False)
        probs = _softmax64(logits)
        return float(-np.log(probs[np.arange(len(y)), y]).mean())

    worst = 0.0
    for param, grad in zip(m.parameters(), grads):
        flat_p = param.reshape(-1)
        flat_g = grad.reshape(-1)
        for j in range(flat_p.size):
            orig = flat_p[j]
            flat_p[j] = orig + step
            up = batch_loss()
            flat_p[j] = orig - step
            down = batch_loss()
            flat_p[j] = orig
            numeric = (up - down) / (2 * step)
            denom = max(1.0, abs(flat_g[j]), abs(numeric))
            worst = max(worst, abs(flat_g[j] - numeric) / denom)
    return worst


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

class TrainingError(RuntimeError):
    pass


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 30
    batch: int = 16
    lr: float = 0.01
    seed: int = 0
    n_points: int = 256
    point_widths: tuple[int, ...] = (3, 64, 128, 256)
    head_hidden: tuple[int, ...] = (128,)

    def __post_init__(self):
        for name in ("epochs", "batch", "n_points"):
            if getattr(self, name) < 1:
                raise TrainingError(f"{name} must be at least 1, "
                                    f"got {getattr(self, name)}")
        if not (np.isfinite(self.lr) and self.lr > 0):
            raise TrainingError(f"lr must be finite and above 0, got {self.lr}")
        if self.seed < 0:
            raise TrainingError(f"seed must be non-negative, got {self.seed}")


#: SGD momentum; the learning rate halves every DECAY_EVERY epochs
MOMENTUM = 0.9
LR_DECAY = 0.5
DECAY_EVERY = 20
#: per-coordinate jitter of the training augmentation, unit-sphere units
AUGMENT_SIGMA = 0.01
AUGMENT_CLIP = 0.05


def _canonicalize(clouds, n_points, rng) -> np.ndarray:
    out = np.empty((len(clouds), n_points, 3), dtype=np.float32)
    for i, cloud in enumerate(clouds):
        out[i] = normalize_unit_sphere(resample_points(cloud, n_points, rng))
    return out


def _augment_batch(x: np.ndarray, rng, sigma=AUGMENT_SIGMA,
                   clip=AUGMENT_CLIP) -> np.ndarray:
    angles = rng.uniform(0.0, 2.0 * np.pi, size=x.shape[0])
    c = np.cos(angles)[:, None].astype(x.dtype)
    s = np.sin(angles)[:, None].astype(x.dtype)
    out = x.copy()
    out[:, :, 0] = x[:, :, 0] * c + x[:, :, 2] * s
    out[:, :, 2] = -x[:, :, 0] * s + x[:, :, 2] * c
    if sigma > 0:
        jitter = np.clip(rng.normal(0.0, sigma, x.shape), -clip, clip)
        out += jitter.astype(x.dtype)
    return out


def evaluate(model: PointSetModel, x: np.ndarray, y: np.ndarray,
             batch: int = 128) -> tuple[float, float]:
    """(mean cross-entropy, accuracy) without augmentation."""
    losses = []
    correct = 0
    for lo in range(0, len(x), batch):
        xb = x[lo:lo + batch]
        yb = y[lo:lo + batch]
        logits, _ = _forward_batch(model, xb, want_cache=False)
        probs = _softmax64(logits)
        losses.append(-np.log(probs[np.arange(len(yb)), yb]).sum())
        correct += int((probs.argmax(axis=1) == yb).sum())
    return float(np.sum(losses) / len(x)), correct / len(x)


def train(train_clouds, train_labels, test_clouds, test_labels, classes,
          config: TrainConfig = TrainConfig()):
    """Momentum SGD on mean cross-entropy; deterministic for a given seed.

    Clouds are resampled to config.n_points and unit-sphere normalized up
    front; yaw/jitter augmentation is drawn fresh every epoch.  Returns
    (model, history) where history holds one dict per epoch with train and
    test loss/accuracy.
    """
    classes = tuple(classes)
    y_train = np.asarray(train_labels, dtype=np.int64)
    y_test = np.asarray(test_labels, dtype=np.int64)
    counts = np.bincount(y_train, minlength=len(classes))
    if len(classes) < 2:
        raise TrainingError("need at least 2 classes")
    if np.any(counts == 0):
        empty = [classes[i] for i in np.flatnonzero(counts == 0)]
        raise TrainingError(f"classes without training samples: {empty}")
    if len(y_test) == 0:
        raise TrainingError("empty test set")

    rng = np.random.default_rng(config.seed)
    x_train = _canonicalize(train_clouds, config.n_points, rng)
    x_test = _canonicalize(test_clouds, config.n_points, rng)
    model = init_model(classes, n_points=config.n_points,
                       point_widths=config.point_widths,
                       head_hidden=config.head_hidden, rng=rng)
    velocity = [np.zeros_like(p) for p in model.parameters()]

    history = []
    for epoch in range(config.epochs):
        lr = config.lr * (LR_DECAY ** (epoch // DECAY_EVERY))
        perm = rng.permutation(len(x_train))
        epoch_loss = 0.0
        epoch_correct = 0.0
        for lo in range(0, len(perm), config.batch):
            idx = perm[lo:lo + config.batch]
            xb = _augment_batch(x_train[idx], rng)
            loss, grads, acc = loss_and_grads(model, xb, y_train[idx])
            if not np.isfinite(loss):
                raise TrainingError(
                    f"non-finite loss at epoch {epoch}, batch {lo // config.batch} "
                    f"(lr={lr}); aborting")
            for vel, param, grad in zip(velocity, model.parameters(), grads):
                vel *= MOMENTUM
                vel -= lr * grad
                param += vel
            epoch_loss += loss * len(idx)
            epoch_correct += acc * len(idx)
        test_loss, test_acc = evaluate(model, x_test, y_test)
        history.append({
            "epoch": epoch, "lr": lr,
            "train_loss": epoch_loss / len(x_train),
            "train_acc": epoch_correct / len(x_train),
            "test_loss": test_loss, "test_acc": test_acc,
        })
    model.meta = {"seed": config.seed, "epochs": config.epochs}
    return model, history


# ---------------------------------------------------------------------------
# Gated prediction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Prediction:
    classes: tuple[str, ...]
    probabilities: np.ndarray
    label: str
    confidence: float
    accepted: bool


def gate(probabilities: np.ndarray, classes, threshold: float = 0.85) -> Prediction:
    """Build a Prediction; accepted iff max probability strictly exceeds threshold."""
    probabilities = np.asarray(probabilities, dtype=np.float64)
    best = int(probabilities.argmax())
    confidence = float(probabilities[best])
    return Prediction(classes=tuple(classes), probabilities=probabilities,
                      label=tuple(classes)[best], confidence=confidence,
                      accepted=confidence > threshold)


def predict_gated(model: PointSetModel, cloud: np.ndarray,
                  threshold: float = 0.85,
                  rng: np.random.Generator | None = None) -> Prediction:
    """Canonicalize a raw segment cloud and classify it with gating.

    Resamples to the model's point count (seeded), normalizes to the unit
    sphere, and rejects predictions whose confidence does not exceed the
    threshold; rejected objects fall back to their geometric description.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    pts = normalize_unit_sphere(resample_points(cloud, model.n_points, rng))
    return gate(forward(model, pts), model.classes, threshold)


# ---------------------------------------------------------------------------
# Model serialization (flat binary, little-endian)
# ---------------------------------------------------------------------------

def save_model(model: PointSetModel) -> bytes:
    """MODEL_MAGIC | u32 n_points | u32 n_classes, each a u16 length and
    UTF-8 | per group (point, head) a u32 layer count and u32 (n_in, n_out)
    per layer | f32 data: ``parameters()`` in order, row-major."""
    out = bytearray()
    out += MODEL_MAGIC
    out += struct.pack("<I", model.n_points)
    out += struct.pack("<I", len(model.classes))
    for name in model.classes:
        raw = name.encode("utf-8")
        out += struct.pack("<H", len(raw)) + raw
    for group in (model.point_layers, model.head_layers):
        out += struct.pack("<I", len(group))
        for w, _ in group:
            out += struct.pack("<II", *w.shape)
    for a in model.parameters():
        out += np.ascontiguousarray(a, dtype="<f4").tobytes()
    return bytes(out)


def load_model(blob: bytes) -> PointSetModel:
    """Parse save_model's bytes; a corrupt file raises ValueError naming its fault."""
    if blob[:4] != MODEL_MAGIC:
        raise ValueError("not a model file")
    pos = 4

    def take(size):
        nonlocal pos
        if pos + size > len(blob):
            raise ValueError("truncated model file")
        pos += size
        return blob[pos - size:pos]

    def unpack(fmt):
        return struct.unpack(fmt, take(struct.calcsize(fmt)))

    n_points, = unpack("<I")
    if n_points == 0:
        raise ValueError("model point count is 0")
    n_classes, = unpack("<I")
    classes = tuple(take(unpack("<H")[0]).decode("utf-8")
                    for _ in range(n_classes))
    shapes = []
    width = 3   # the point layers read (x, y, z)
    for group in ("point", "head"):
        n_layers, = unpack("<I")
        if n_layers == 0:
            raise ValueError(f"model has no {group} layers")
        shapes.append([unpack("<II") for _ in range(n_layers)])
        for i, (n_in, n_out) in enumerate(shapes[-1]):
            if n_in != width:
                raise ValueError(f"{group} layer {i} takes {n_in} inputs, "
                                 f"expected {width}")
            width = n_out
    if width != len(classes):
        raise ValueError(f"{len(classes)} class names for {width} head outputs")

    def read_array(count):
        return np.frombuffer(take(4 * count), dtype="<f4").copy()

    point_layers, head_layers = (
        [(read_array(n_in * n_out).reshape(n_in, n_out), read_array(n_out))
         for n_in, n_out in group] for group in shapes)
    if pos != len(blob):
        raise ValueError(f"{len(blob) - pos} trailing bytes after the model data")
    return PointSetModel(classes=classes, n_points=n_points,
                         point_layers=point_layers, head_layers=head_layers)
