"""Point-set classifier: taxonomy, canonicalization, OFF sampling, the
network itself, training, the finite-difference gradient oracle, the
dense-backward oracle for the critical-row backward and the row-major
oracle for the feature-major pool."""

import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hapmap import classifier as clf
from hapmap.classifier import (MeshFormatError, TrainConfig, TrainingError,
                               _augment_batch, forward, gate, grad_check, init_model,
                               load_model, loss_and_grads, merge_labels,
                               normalize_unit_sphere, predict_gated,
                               resample_points, sample_mesh_off, save_model,
                               to_labeling_class, train)

from hapmap.labeling import REQUIRED_TAGS, builtin_sheet

from oracles import (block_evaluate, dense_forward_batch, dense_loss_and_grads,
                     row_major_forward_batch, row_major_loss_and_grads)

CUBE_OFF = b"""OFF
8 6 12
0 0 0
1 0 0
1 1 0
0 1 0
0 0 1
1 0 1
1 1 1
0 1 1
4 0 1 2 3
4 4 7 6 5
4 0 4 5 1
4 1 5 6 2
4 2 6 7 3
4 3 7 4 0
"""


def tiny_model(seed=3, k=3):
    return init_model([f"c{i}" for i in range(k)], n_points=16,
                      point_widths=(3, 8, 8), head_hidden=(8,),
                      rng=np.random.default_rng(seed))


def toy_dataset(rng, n_each=60, n_pts=128):
    """Spheres vs elongated boxes; linearly inseparable in raw coords."""
    def sphere():
        v = rng.normal(size=(n_pts, 3))
        return v / np.linalg.norm(v, axis=1, keepdims=True) * rng.uniform(80, 120)

    def box():
        return rng.uniform(-1, 1, size=(n_pts, 3)) * [300, 40, 40]

    clouds = [sphere() for _ in range(n_each)] + [box() for _ in range(n_each)]
    return clouds, np.array([0] * n_each + [1] * n_each)


def sheet_tags(name):
    """The glyph tags a class name can stamp: stairs in both directions."""
    labeling = to_labeling_class(name)
    if labeling == "stairs":
        return {f"stairs_{d}" for d in ("up", "down")}
    return {labeling}


class TestTaxonomy:
    def test_paper_groupings(self):
        assert merge_labels("stool") == "sit_on"
        assert merge_labels("night_stand") == "put_on"
        assert merge_labels("bookshelf") == "store_in"
        assert merge_labels("stairs") == "stairs"

    def test_total_on_labeling_taxonomy(self):
        # every fine and training class stamps a glyph of the built-in sheet
        sheet = builtin_sheet()
        for name in clf.FINE_CLASSES + clf.TRAINING_COARSE_CLASSES:
            for tag in sheet_tags(name):
                assert sheet[tag].tag == tag

    def test_surjective_onto_labeling(self):
        # every sheet tag is reachable; training reaches all but the openings
        fine = set().union(*map(sheet_tags, clf.FINE_CLASSES))
        trained = set().union(*map(sheet_tags, clf.TRAINING_COARSE_CLASSES))
        assert fine == set(REQUIRED_TAGS)
        assert trained == set(REQUIRED_TAGS) - {"door", "window"}

    def test_sanitary_merge(self):
        assert to_labeling_class("bathtub") == "sanitary"
        assert to_labeling_class("toilet") == "sanitary"
        assert merge_labels("bathtub") == "bathtub"

    def test_training_tables_in_fine_order(self):
        # build_synthetic_dataset cycles the members in this order
        assert clf.TRAINING_COARSE_CLASSES == (
            "sit_on", "put_on", "store_in", "bathtub", "toilet", "stairs")
        assert list(clf.TRAINING_MEMBERS.items()) == [
            ("sit_on", ("chair", "stool", "bed", "sofa", "bench")),
            ("put_on", ("table", "desk", "night_stand")),
            ("store_in", ("dresser", "wardrobe", "bookshelf")),
            ("bathtub", ("bathtub",)), ("toilet", ("toilet",)),
            ("stairs", ("stairs",))]
        assert clf.TRAINED_FINE_CLASSES == tuple(
            f for f in clf.FINE_CLASSES if f not in ("door", "window"))

    def test_untrained_classes(self):
        with pytest.raises(ValueError, match="no training class"):
            merge_labels("door")
        assert to_labeling_class("door") == "door"

    def test_unknown_fine(self):
        with pytest.raises(ValueError, match="unknown fine class"):
            merge_labels("piano")

    def test_to_labeling_class(self):
        assert to_labeling_class("toilet") == "sanitary"
        assert to_labeling_class("sit_on") == "sit_on"
        assert to_labeling_class("sanitary") == "sanitary"
        with pytest.raises(ValueError, match="unknown class 'nonsense'"):
            to_labeling_class("nonsense")


class TestNormalize:
    def test_scale_invariance(self):
        rng = np.random.default_rng(0)
        cloud = rng.normal(size=(50, 3)) * 40 + 7
        np.testing.assert_allclose(normalize_unit_sphere(cloud),
                                   normalize_unit_sphere(cloud * 2))

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        once = normalize_unit_sphere(rng.normal(size=(30, 3)))
        np.testing.assert_allclose(normalize_unit_sphere(once), once, atol=1e-12)

    def test_max_norm_one(self):
        rng = np.random.default_rng(2)
        out = normalize_unit_sphere(rng.normal(size=(30, 3)) * 123)
        assert np.linalg.norm(out, axis=1).max() == pytest.approx(1.0)

    def test_single_point_to_origin(self):
        np.testing.assert_array_equal(normalize_unit_sphere([[5.0, 6.0, 7.0]]),
                                      np.zeros((1, 3)))


def yaw(x, angles):
    """Turn cloud i of the batch x about the y axis by angles[i]."""
    c, s = np.cos(angles)[:, None], np.sin(angles)[:, None]
    return np.stack([x[..., 0] * c + x[..., 2] * s, x[..., 1],
                     -x[..., 0] * s + x[..., 2] * c], axis=-1)


def drawn_angles(seed, n):
    """Replays the yaw draw of _augment_batch from an identically seeded rng."""
    return np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, size=n)


class TestAugment:
    """_augment_batch on float32 batches, as training calls it."""

    def test_forced_identity(self):
        # sigma=0 adds no jitter: undoing the drawn yaw gives the input back
        x = np.random.default_rng(0).normal(size=(6, 20, 3)).astype(np.float32)
        out = _augment_batch(x, np.random.default_rng(1), sigma=0.0, clip=0.05)
        np.testing.assert_allclose(yaw(out, -drawn_angles(1, 6)), x, atol=1e-5)

    def test_half_turn(self):
        # a rotation about y by the drawn a: turning on by pi - a sends
        # (1, 0, 0) to (-1, 0, 0)
        x = np.tile(np.float32([1.0, 0.0, 0.0]), (8, 1, 1))
        out = _augment_batch(x, np.random.default_rng(2), sigma=0.0, clip=0.05)
        np.testing.assert_allclose(yaw(out, np.pi - drawn_angles(2, 8)),
                                   -x, atol=1e-6)

    def test_count_unchanged_and_clip(self):
        x = np.random.default_rng(3).normal(size=(4, 40, 3)).astype(np.float32)
        out = _augment_batch(x, np.random.default_rng(4), sigma=0.5, clip=0.05)
        assert out.shape == x.shape and out.dtype == np.float32
        jitter = np.abs(out - yaw(x, drawn_angles(4, 4)))
        assert 0.04 < jitter.max() <= 0.05 + 1e-5


class TestResample:
    def test_downsample_no_replacement(self):
        rng = np.random.default_rng(0)
        cloud = np.arange(60, dtype=float).reshape(20, 3)
        out = resample_points(cloud, 10, rng)
        assert out.shape == (10, 3)
        assert len({tuple(p) for p in out}) == 10

    def test_upsample_with_replacement(self):
        rng = np.random.default_rng(0)
        out = resample_points(np.zeros((3, 3)), 9, rng)
        assert out.shape == (9, 3)


class TestOffSampling:
    def test_unit_cube_on_surface(self):
        rng = np.random.default_rng(0)
        pts = sample_mesh_off(CUBE_OFF, 2048, rng)
        centered = pts - [0.5, 0.5, 0.5]
        on_face = np.isclose(np.abs(centered), 0.5, atol=1e-9).any(axis=1)
        assert on_face.all()
        assert np.abs(centered).max() <= 0.5 + 1e-9

    def test_single_triangle_barycentric(self):
        off = b"OFF\n3 1 0\n0 0 0\n2 0 0\n0 2 0\n3 0 1 2\n"
        pts = sample_mesh_off(off, 256, np.random.default_rng(1))
        assert (pts[:, 2] == 0).all()
        assert (pts[:, 0] >= 0).all() and (pts[:, 1] >= 0).all()
        assert (pts[:, 0] + pts[:, 1] <= 2 + 1e-12).all()

    def test_face_count_mismatch(self):
        off = b"OFF\n3 2 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n"
        with pytest.raises(MeshFormatError):
            sample_mesh_off(off, 16, np.random.default_rng(0))

    def test_zero_area(self):
        off = b"OFF\n3 1 0\n0 0 0\n1 0 0\n2 0 0\n3 0 1 2\n"
        with pytest.raises(MeshFormatError, match="area"):
            sample_mesh_off(off, 16, np.random.default_rng(0))

    def test_glued_header_counts(self):
        off = b"OFF 3 1 0\n0 0 0\n2 0 0\n0 2 0\n3 0 1 2\n"
        assert sample_mesh_off(off, 64, np.random.default_rng(0)).shape == (64, 3)

    def test_comments_before_and_after_the_header(self):
        off = (b"# exported mesh\r\n\r\nOFF # counts next\r\n3 1 0\r\n"
               b"0 0 0\r\n2 0 0 # v1\r\n0 2 0\r\n3 0 1 2\r\n")
        assert sample_mesh_off(off, 64, np.random.default_rng(0)).shape == (64, 3)

    def test_area_overflow(self):
        # each edge is finite, but their cross product is not
        off = b"OFF\n3 1 0\n0 0 0\n1e200 0 0\n0 1e200 0\n3 0 1 2\n"
        with pytest.raises(MeshFormatError, match="area overflows"):
            sample_mesh_off(off, 16, np.random.default_rng(0))

    def test_not_off(self):
        with pytest.raises(MeshFormatError):
            sample_mesh_off(b"PLY\n", 16, np.random.default_rng(0))

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_vertex(self, value):
        off = f"OFF\n3 1 0\n0 0 0\n2 {value} 0\n0 2 0\n3 0 1 2\n".encode()
        with pytest.raises(MeshFormatError, match="vertex 1 is not finite"):
            sample_mesh_off(off, 16, np.random.default_rng(0))


class TestForward:
    def test_permutation_invariance_bitwise(self):
        model = tiny_model()
        rng = np.random.default_rng(5)
        cloud = rng.normal(size=(16, 3))
        base = forward(model, cloud)
        for _ in range(25):
            probs = forward(model, cloud[rng.permutation(16)])
            assert np.array_equal(probs, base)

    def test_duplicate_point_no_change(self):
        model = tiny_model()
        rng = np.random.default_rng(6)
        cloud = rng.normal(size=(16, 3))
        doubled = np.vstack([cloud, cloud[3:4]])
        np.testing.assert_array_equal(forward(model, doubled), forward(model, cloud))

    def test_probabilities_sum_to_one(self):
        model = tiny_model(seed=8, k=5)
        rng = np.random.default_rng(7)
        for _ in range(10):
            probs = forward(model, rng.normal(size=(16, 3)) * 10)
            assert abs(probs.sum() - 1.0) <= 1e-9
            assert (probs >= 0).all()

    def test_width_mismatch(self):
        model = tiny_model()
        with pytest.raises(ValueError, match="width mismatch"):
            forward(model, np.zeros((16, 4)))


class TestGradCheck:
    def test_against_finite_differences(self):
        model = tiny_model(seed=3)
        rng = np.random.default_rng(4)
        x = rng.normal(size=(4, 16, 3))
        y = np.array([0, 1, 2, 1])
        assert grad_check(model, x, y) <= 1e-4

    def test_saturated_batch_near_zero_grads(self):
        model = tiny_model(seed=9).astype(np.float64)
        rng = np.random.default_rng(10)
        x = rng.normal(size=(4, 16, 3))
        logits, _ = clf._forward_batch(model, x, want_cache=False)
        y = logits.argmax(axis=1)
        for a in model.head_layers[-1]:
            a *= 200.0   # saturate the softmax at the argmax
        _, grads, _ = loss_and_grads(model, x, y)
        worst = max(np.abs(g).max() for g in grads)
        assert worst < 1e-6

    def test_repeatable(self):
        model = tiny_model(seed=3)
        x = np.random.default_rng(4).normal(size=(2, 16, 3))
        y = np.array([0, 1])
        assert grad_check(model, x, y) == grad_check(model, x, y)


def assert_matches_dense(model, x, y, rtol):
    """Critical-row gradients equal the dense backward's within rtol of
    each array's largest entry; loss and accuracy are equal exactly."""
    loss, grads, acc = loss_and_grads(model, x, y)
    ref_loss, ref, ref_acc = dense_loss_and_grads(model, x, y)
    assert (loss, acc) == (ref_loss, ref_acc)
    for got, want, param in zip(grads, ref, model.parameters(), strict=True):
        assert got.dtype == want.dtype and got.shape == want.shape == param.shape
        np.testing.assert_allclose(got, want, rtol=rtol,
                                   atol=rtol * np.abs(want).max())
    return grads


def lattice_model(seed):
    """float64 model with weights in {-1, 0, 1}: on integer points every
    point-layer activation is an exact integer, so pooled maxima tie
    between distinct points."""
    model = init_model(("a", "b", "c"), n_points=24, point_widths=(3, 6, 5),
                       head_hidden=(4,), rng=np.random.default_rng(seed),
                       dtype=np.float64)
    rng = np.random.default_rng(seed + 100)
    for w, _ in model.point_layers:
        w[...] = rng.integers(-1, 2, size=w.shape)
    return model


class TestCriticalRowBackward:
    """loss_and_grads against the dense backward in tests/oracles.py."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_float32_default_widths(self, seed):
        rng = np.random.default_rng(seed)
        model = init_model(clf.TRAINING_COARSE_CLASSES, rng=rng)
        x = rng.normal(size=(16, 256, 3)).astype(np.float32)
        y = rng.integers(0, 6, size=16)
        assert_matches_dense(model, x, y, rtol=1e-5)

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_float64(self, seed):
        rng = np.random.default_rng(seed)
        model = init_model(("a", "b", "c", "d"), n_points=64,
                           point_widths=(3, 24, 32, 48), head_hidden=(16,),
                           rng=rng, dtype=np.float64)
        x = rng.normal(size=(8, 64, 3))
        y = rng.integers(0, 4, size=8)
        assert_matches_dense(model, x, y, rtol=1e-12)

    @pytest.mark.parametrize("seed", [6, 7, 8, 9])
    def test_ties_between_distinct_points_go_to_the_first(self, seed):
        model = lattice_model(seed)
        rng = np.random.default_rng(seed)
        x = rng.integers(-2, 3, size=(6, 24, 3)).astype(np.float64)
        feat = dense_forward_batch(model, x, want_cache=True)[1]["point_outputs"][-1]
        feat = feat.reshape(6, 24, -1)
        at_max = (feat == feat.max(axis=1, keepdims=True)) & (feat > 0)
        assert (at_max.sum(axis=1) > 1).any()   # positive maxima do tie
        assert_matches_dense(model, x, np.arange(6) % 3, rtol=1e-12)

    def test_duplicated_points(self):
        rng = np.random.default_rng(10)
        model = tiny_model(seed=10).astype(np.float64)
        base = rng.normal(size=(4, 5, 3))
        x = base[:, rng.integers(0, 5, size=16)]   # every row repeats
        assert_matches_dense(model, x, np.array([0, 1, 2, 0]), rtol=1e-12)
        assert_matches_dense(model.astype(np.float32), x.astype(np.float32),
                             np.array([0, 1, 2, 0]), rtol=1e-5)

    def test_dead_features(self):
        rng = np.random.default_rng(11)
        model = tiny_model(seed=11).astype(np.float64)
        model.point_layers[0][1][2] = -1e3    # unit 2 of layer 0 never fires
        model.point_layers[-1][1][5] = -1e3   # pooled feature 5 is 0 everywhere
        x = rng.normal(size=(4, 16, 3))
        grads = assert_matches_dense(model, x, np.array([0, 1, 2, 0]),
                                     rtol=1e-12)
        # (weights, bias) gradients per layer, point layers first
        layers = list(zip(grads[::2], grads[1::2]))
        gw, gb = layers[0]
        assert not gw[:, 2].any() and gb[2] == 0
        gw, gb = layers[len(model.point_layers) - 1]
        assert not gw[:, 5].any() and gb[5] == 0

    @pytest.mark.parametrize("dtype, rtol", [(np.float32, 1e-5),
                                             (np.float64, 1e-12)])
    def test_batch_of_one(self, dtype, rtol):
        rng = np.random.default_rng(12)
        model = tiny_model(seed=12).astype(dtype)
        x = rng.normal(size=(1, 16, 3)).astype(dtype)
        assert_matches_dense(model, x, np.array([2]), rtol=rtol)

    @pytest.mark.parametrize("dtype, rtol", [(np.float32, 1e-5),
                                             (np.float64, 1e-12)])
    def test_one_point_per_cloud(self, dtype, rtol):
        rng = np.random.default_rng(13)
        model = tiny_model(seed=13).astype(dtype)
        x = rng.normal(size=(5, 1, 3)).astype(dtype)
        assert_matches_dense(model, x, np.array([0, 1, 2, 1, 0]), rtol=rtol)

    @pytest.mark.parametrize("want_cache", [False, True])
    def test_forward_logits_byte_identical(self, want_cache):
        rng = np.random.default_rng(14)
        model = init_model(clf.TRAINING_COARSE_CLASSES, rng=rng)
        x = rng.normal(size=(6, 256, 3))
        x[:, 128:] = x[:, :128]   # ties in every pooled feature
        for m in (model, model.astype(np.float64), lattice_model(15)):
            for xb in (x, np.round(x)):
                got, _ = clf._forward_batch(m, xb, want_cache=want_cache)
                want, _ = dense_forward_batch(m, xb, want_cache=want_cache)
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()


#: what a failure of the byte-equality tests below means
GEMM_NOTE = ("the feature-major gemm wl.T @ h.T rounds differently from the "
             "row-major h @ wl on this BLAS")


class TestFeatureMajorPool:
    """_forward_batch and loss_and_grads against the row-major oracle in
    tests/oracles.py, byte for byte: the pool reads the last point layer
    as (C, B, n) and applies its bias and relu after the max."""

    def test_transposed_gemm_equals_row_major(self):
        rng = np.random.default_rng(20)
        for dtype in (np.float32, np.float64):
            h = np.maximum(rng.normal(size=(16 * 256, 128)), 0).astype(dtype)
            w = rng.normal(size=(128, 256)).astype(dtype)
            assert (w.T @ h.T).T.tobytes() == (h @ w).tobytes(), GEMM_NOTE

    def test_train_equals_row_major(self, monkeypatch):
        from hapmap.scenegen import build_synthetic_dataset
        classes = clf.TRAINING_COARSE_CLASSES
        rng = np.random.default_rng(21)
        data = (*build_synthetic_dataset(classes, clf.TRAINING_MEMBERS, 4, rng),
                *build_synthetic_dataset(classes, clf.TRAINING_MEMBERS, 2, rng))
        config = TrainConfig(epochs=2, seed=3)
        model, history = train(*data, classes, config)
        monkeypatch.setattr(clf, "_forward_batch", row_major_forward_batch)
        monkeypatch.setattr(clf, "loss_and_grads", row_major_loss_and_grads)
        want_model, want_history = train(*data, classes, config)
        assert save_model(model) == save_model(want_model), GEMM_NOTE
        assert history == want_history

    @pytest.mark.parametrize("seed", [16, 17, 18])
    def test_lattice_ties_byte_equal(self, seed):
        model = lattice_model(seed)
        rng = np.random.default_rng(seed)
        x = rng.integers(-2, 3, size=(6, 24, 3)).astype(np.float64)
        y = np.arange(6) % 3
        loss, grads, acc = loss_and_grads(model, x, y)
        want_loss, want, want_acc = row_major_loss_and_grads(model, x, y)
        assert (loss, acc) == (want_loss, want_acc)
        for got, ref in zip(grads, want, strict=True):
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("make", [
        lambda: lattice_model(19),
        lambda: init_model(clf.TRAINING_COARSE_CLASSES,
                           rng=np.random.default_rng(19))])
    def test_cache_argmax_equals_dense(self, make):
        model = make()
        model.point_layers[-1][1][1] = -1e3   # pooled feature 1 is dead
        rng = np.random.default_rng(19)
        n = model.n_points
        x = np.round(rng.normal(size=(5, n, 3)) * 2).astype(
            model.point_layers[0][0].dtype)
        got = clf._forward_batch(model, x, want_cache=True)[1]
        want = dense_forward_batch(model, x, want_cache=True)[1]
        assert np.array_equal(got["argmax"], want["argmax"])
        assert not got["argmax"][:, 1].any()   # ties of zeros: point 0
        assert not got["head_inputs"][0][:, 1].any()
        for a, b in zip(got["head_inputs"], want["head_inputs"], strict=True):
            assert a.tobytes() == b.tobytes()


class TestChunkedEvaluate:
    """evaluate runs its forward on 16-cloud chunks; block_evaluate in
    tests/oracles.py is the one forward per 128-cloud block it replaced.
    The accuracy must be equal; the loss is summed in another order, and
    a gemm kernel may round a cloud's logits by its place in the batch,
    so it is compared to 1e-6."""

    @staticmethod
    def data(n, seed=23):
        rng = np.random.default_rng(seed)
        model = init_model(clf.TRAINING_COARSE_CLASSES, rng=rng)
        x = rng.normal(size=(n, model.n_points, 3)).astype(np.float32)
        y = rng.integers(0, len(model.classes), n)
        return model, x, y

    @pytest.mark.parametrize("n", [96, 48, 33, 129, 150, 1])
    def test_equals_block_evaluate(self, n):
        model, x, y = self.data(n)
        loss, acc = clf.evaluate(model, x, y)
        want_loss, want_acc = block_evaluate(model, x, y)
        assert acc == want_acc
        assert loss == pytest.approx(want_loss, rel=1e-6)

    @pytest.mark.parametrize("n, chunks", [(96, [16] * 6), (49, [16, 16, 16, 1]),
                                           (50, [16, 16, 16, 2]), (1, [1])])
    def test_chunk_sizes(self, monkeypatch, n, chunks):
        seen = []
        real = clf._forward_batch

        def spy(model, x, want_cache, work=None):
            seen.append(len(x))
            return real(model, x, want_cache, work)

        monkeypatch.setattr(clf, "_forward_batch", spy)
        model, x, y = self.data(n)
        clf.evaluate(model, x, y)
        assert seen == chunks

    def test_train_equals_block_evaluate(self, monkeypatch):
        from hapmap.scenegen import build_synthetic_dataset
        classes = clf.TRAINING_COARSE_CLASSES
        rng = np.random.default_rng(22)
        data = (*build_synthetic_dataset(classes, clf.TRAINING_MEMBERS, 4, rng),
                *build_synthetic_dataset(classes, clf.TRAINING_MEMBERS, 5, rng))
        assert len(data[2]) == 30   # two chunks: 16 and 14 clouds
        config = TrainConfig(epochs=2, seed=3)
        model, history = train(*data, classes, config)
        monkeypatch.setattr(clf, "evaluate", block_evaluate)
        want_model, want_history = train(*data, classes, config)
        assert save_model(model) == save_model(want_model)
        for got, want in zip(history, want_history, strict=True):
            assert got["test_loss"] == pytest.approx(want.pop("test_loss"),
                                                     rel=1e-6)
            assert {**got, "test_loss": None} == {**want, "test_loss": None}


class TestWorkBlock:
    """The point layers write into one block that a training run reuses
    for every step and evaluation chunk; what the block held before must
    not reach the outputs."""

    def test_stale_block_keeps_the_bits(self):
        model, x, y = TestChunkedEvaluate.data(20, seed=24)
        rows = 20 * model.n_points
        stale = np.full(clf._point_work(model, rows).size, np.nan,
                        dtype=np.float32)
        xb, yb = x[:16], y[:16]
        loss, grads, acc = loss_and_grads(model, xb, yb)
        got = loss_and_grads(model, xb, yb, stale)
        assert (got[0], got[2]) == (loss, acc)
        for a, b in zip(got[1], grads, strict=True):
            assert a.tobytes() == b.tobytes()
        assert clf.evaluate(model, x, y, stale) == clf.evaluate(model, x, y)

    def test_train_passes_one_block_to_every_forward(self, monkeypatch):
        seen = []
        real = clf._forward_batch

        def spy(model, x, want_cache, work=None):
            seen.append(work)
            return real(model, x, want_cache, work)

        monkeypatch.setattr(clf, "_forward_batch", spy)
        rng = np.random.default_rng(25)
        clouds = [rng.normal(size=(40, 3)) for _ in range(20)]
        labels = np.arange(20) % 2
        train(clouds, labels, clouds[:18], labels[:18], ("a", "b"),
              TrainConfig(epochs=2, batch=8, n_points=32))
        # 3 steps and 2 evaluation chunks per epoch
        assert len(seen) == 10
        assert seen[0] is not None and all(w is seen[0] for w in seen)
        assert seen[0].size == 16 * 32 * (64 + 128 + 256)


class TestTrain:
    def test_toy_separable(self):
        rng = np.random.default_rng(0)
        clouds, labels = toy_dataset(rng)
        test_clouds, test_labels = toy_dataset(rng, n_each=20)
        cfg = TrainConfig(epochs=30, seed=0, n_points=64,
                          point_widths=(3, 32, 64), head_hidden=(32,))
        model, hist = train(clouds, labels, test_clouds, test_labels,
                            ("sphere", "box"), cfg)
        assert hist[-1]["test_acc"] >= 0.95
        assert hist[10]["train_loss"] <= hist[0]["train_loss"]

    def test_same_seed_identical_weights(self):
        rng = np.random.default_rng(1)
        clouds, labels = toy_dataset(rng, n_each=20)
        cfg = TrainConfig(epochs=3, seed=5, n_points=32,
                          point_widths=(3, 16, 16), head_hidden=(8,))
        m1, _ = train(clouds, labels, clouds, labels, ("a", "b"), cfg)
        m2, _ = train(clouds, labels, clouds, labels, ("a", "b"), cfg)
        assert save_model(m1) == save_model(m2)

    @pytest.mark.parametrize("field, value, message", [
        ("epochs", 0, "epochs must be at least 1"),
        ("batch", 0, "batch must be at least 1"),
        ("batch", -3, "batch must be at least 1"),
        ("n_points", 0, "n_points must be at least 1"),
        ("lr", 0.0, "lr must be finite and above 0"),
        ("lr", -0.01, "lr must be finite and above 0"),
        ("lr", float("nan"), "lr must be finite and above 0"),
        ("lr", float("inf"), "lr must be finite and above 0"),
        ("seed", -1, "seed must be non-negative"),
    ])
    def test_config_rejects(self, field, value, message):
        with pytest.raises(TrainingError, match=message):
            TrainConfig(**{field: value})

    def test_empty_test_set_rejected_before_training(self, monkeypatch):
        def no_step(*args):
            raise AssertionError("a training step ran")

        monkeypatch.setattr(clf, "loss_and_grads", no_step)
        clouds = [np.random.default_rng(i).normal(size=(8, 3)) for i in range(4)]
        with pytest.raises(TrainingError, match="empty test set"):
            train(clouds, [0, 1, 0, 1], [], [], ("a", "b"),
                  TrainConfig(epochs=1, n_points=8))

    @pytest.mark.parametrize("train_labels, test_labels, message", [
        ([0, 1, 0, 1], [0, -1], "test label 1 is -1, not a class index in 0..1"),
        ([0, 0.5, 1, 1], [0, 1], "train label 1 is 0.5, not a class index"),
        ([0, 1, 7, 1], [0, 1], "train label 2 is 7, not a class index in 0..1"),
        ([0, 1, 1], [0, 1], "train set has 4 clouds but 3 labels"),
        ([0, 1, 0, 1], [0, 1, 1], "test set has 2 clouds but 3 labels"),
        ([0, 1, 0, float("nan")], [0, 1], "train label 3 is nan"),
        (["a", "b", "a", "b"], [0, 1], "train labels must be class indices"),
    ])
    def test_bad_labels_rejected_before_any_work(self, monkeypatch,
                                                 train_labels, test_labels,
                                                 message):
        def no_work(*args):
            raise AssertionError("clouds were canonicalized")

        monkeypatch.setattr(clf, "_canonicalize", no_work)
        clouds = [np.random.default_rng(i).normal(size=(8, 3)) for i in range(4)]
        with pytest.raises(TrainingError, match=message):
            train(clouds, train_labels, clouds[:2], test_labels, ("a", "b"),
                  TrainConfig(epochs=1, n_points=8))

    def test_empty_class_rejected(self):
        clouds = [np.zeros((8, 3))] * 4
        with pytest.raises(TrainingError, match="without training samples"):
            train(clouds, [0, 0, 0, 0], clouds, [0, 0, 0, 0], ("a", "b"),
                  TrainConfig(epochs=1, n_points=8))


class TestCoarseDominance:
    def test_merged_accuracy_never_below_fine(self):
        # structural property: a correct fine prediction stays correct after
        # merging, so the merged score can only gain
        rng = np.random.default_rng(11)
        model = init_model(clf.TRAINED_FINE_CLASSES, n_points=32,
                           point_widths=(3, 16, 32), head_hidden=(16,),
                           rng=rng)
        from hapmap.scenegen import sample_box_cloud
        fines = list(clf.TRAINED_FINE_CLASSES)
        clouds = [normalize_unit_sphere(
            resample_points(sample_box_cloud(c, rng), 32, rng))
            for c in fines for _ in range(6)]
        truth = np.array([i for i in range(len(fines)) for _ in range(6)])
        preds = np.array([forward(model, c).argmax() for c in clouds])
        fine_acc = (preds == truth).mean()
        merged = [merge_labels(fines[p]) for p in preds]
        merged_truth = [merge_labels(fines[t]) for t in truth]
        coarse_acc = np.mean([a == b for a, b in zip(merged, merged_truth)])
        assert coarse_acc >= fine_acc


class TestGating:
    def test_low_confidence_rejected(self):
        pred = gate([0.53, 0.47], ("table", "chair"), threshold=0.85)
        assert not pred.accepted and pred.confidence == 0.53

    def test_high_confidence_accepted(self):
        pred = gate([0.90, 0.10], ("table", "chair"), threshold=0.85)
        assert pred.accepted and pred.label == "table"

    def test_boundary_strict(self):
        assert not gate([0.85, 0.15], ("a", "b"), threshold=0.85).accepted

    def test_uniform_rejected(self):
        pred = gate(np.full(6, 1 / 6), [f"c{i}" for i in range(6)])
        assert not pred.accepted

    def test_predict_gated_resamples(self):
        model = tiny_model()
        rng = np.random.default_rng(0)
        cloud = rng.normal(size=(200, 3)) * 500
        pred = predict_gated(model, cloud, rng=np.random.default_rng(1))
        assert pred.label in model.classes
        assert pred.accepted == (pred.confidence > 0.85)


class TestSerialization:
    def test_roundtrip_bytes(self):
        model = tiny_model(seed=12, k=4)
        blob = save_model(model)
        again = load_model(blob)
        assert again.classes == model.classes
        assert again.n_points == model.n_points
        assert save_model(again) == blob

    def test_layout_bytes(self):
        # the PSM1 layout written out with struct: fixed weights, exact in
        # f32, so the bytes are the same on every machine
        model = init_model(("ab", "c", "d"), n_points=7, point_widths=(3, 2, 4),
                           head_hidden=(5,), rng=np.random.default_rng(0))
        for a in model.parameters():   # every shape distinct: values by shape
            a[...] = (np.arange(a.size).reshape(a.shape) - a.ndim) / 8
        shapes = [[(3, 2), (2, 4)], [(4, 5), (5, 3)]]
        want = b"PSM1" + struct.pack("<II", 7, 3)
        for name in (b"ab", b"c", b"d"):
            want += struct.pack("<H", len(name)) + name
        for group in shapes:
            want += struct.pack("<I", len(group))
            for n_in, n_out in group:
                want += struct.pack("<II", n_in, n_out)
        for n_in, n_out in shapes[0] + shapes[1]:
            for size, ndim in ((n_in * n_out, 2), (n_out, 1)):
                want += struct.pack(f"<{size}f",
                                    *((i - ndim) / 8 for i in range(size)))
        assert save_model(model) == want
        again = load_model(want)
        assert (again.classes, again.n_points) == (model.classes, 7)
        for got, param in zip(again.parameters(), model.parameters(),
                              strict=True):
            assert got.dtype == np.float32
            assert got.shape == param.shape
            assert np.array_equal(got, param)

    def test_bad_magic(self):
        with pytest.raises(ValueError, match="model"):
            load_model(b"XXXX" + b"\x00" * 32)

    def test_truncated(self):
        blob = save_model(tiny_model())
        with pytest.raises(ValueError, match="truncated"):
            load_model(blob[:-5])

    def test_trailing_bytes(self):
        with pytest.raises(ValueError, match="3 trailing bytes"):
            load_model(save_model(tiny_model()) + b"\0\0\0")

    def test_zero_points(self):
        with pytest.raises(ValueError, match="point count is 0"):
            load_model(save_model(replace(tiny_model(), n_points=0)))

    def test_more_class_names_than_outputs(self):
        model = replace(tiny_model(k=2), classes=("c0", "c1", "c2"))
        with pytest.raises(ValueError, match="3 class names for 2 head outputs"):
            load_model(save_model(model))

    @pytest.mark.parametrize("group", ["point", "head"])
    def test_group_without_layers(self, group):
        model = replace(tiny_model(), **{f"{group}_layers": []})
        with pytest.raises(ValueError, match=f"no {group} layers"):
            load_model(save_model(model))

    @pytest.mark.parametrize("group, index, n_in, message", [
        ("point", 0, 4, "point layer 0 takes 4 inputs, expected 3"),
        ("point", 1, 7, "point layer 1 takes 7 inputs, expected 8"),
        ("head", 0, 9, "head layer 0 takes 9 inputs, expected 8"),
    ], ids=["coordinates", "point_chain", "pooled"])
    def test_broken_width_chain(self, group, index, n_in, message):
        # tiny_model widths: point 3 -> 8 -> 8, head 8 -> 8 -> 3
        model = tiny_model()
        layers = getattr(model, f"{group}_layers")
        w, b = layers[index]
        layers[index] = (np.zeros((n_in, w.shape[1]), np.float32), b)
        with pytest.raises(ValueError, match=message):
            load_model(save_model(model))

    @settings(max_examples=200)
    @given(data=st.data())
    def test_corrupt_bytes_fail_or_load_consistent(self, data):
        # any prefix fails; any single-byte change either fails with
        # ValueError or loads a model whose forward pass matches its classes
        blob = save_model(tiny_model())
        cut = data.draw(st.integers(0, len(blob) - 1))
        with pytest.raises(ValueError):
            load_model(blob[:cut])
        header = len(blob) - 4 * sum(a.size for a in tiny_model().parameters())
        pos = data.draw(st.one_of(st.integers(0, header - 1),
                                  st.integers(0, len(blob) - 1)))
        flip = data.draw(st.integers(1, 255))
        corrupt = bytearray(blob)
        corrupt[pos] ^= flip
        try:
            model = load_model(bytes(corrupt))
        except ValueError:
            return
        with np.errstate(all="ignore"):
            probs = forward(model, np.ones((5, 3)))
        assert probs.shape == (len(model.classes),)
