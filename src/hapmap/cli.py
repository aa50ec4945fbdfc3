"""Command-line entry points for the pipeline and its individual stages."""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import classifier as clf
from . import dcgd, depthio, scenegen
from .config import OUTPUT_FORMATS, PipelineConfig, format_config, parse_config
from .pipeline import (StageError, analyze_depth_file, camera_intrinsics,
                       load_classifier, run_pipeline)
from .synthgrid import emit, rasterize_raw

CONFIG_ENV = "HAPMAP_CONFIG"


def _load_config(args) -> PipelineConfig:
    path = getattr(args, "config", None) or os.environ.get(CONFIG_ENV)
    cfg = parse_config(Path(path).read_text()) if path else PipelineConfig()
    if getattr(args, "format", None):
        cfg = replace(cfg, output_format=args.format)
    if getattr(args, "model", None):
        cfg = replace(cfg, model_path=args.model)
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, seed=args.seed)
    return cfg


def _parse_cloud(text: str) -> np.ndarray:
    """(n, 3) points of `x y z` text lines; columns past the third are ignored."""
    rows = []
    for lineno, line in depthio.content_lines(text):
        try:
            x, y, z = map(float, line.split()[:3])
        except ValueError:
            raise ValueError(f"cloud line {lineno}: expected x y z") from None
        if not np.isfinite((x, y, z)).all():
            raise ValueError(f"cloud line {lineno}: coordinates must be finite")
        rows.append((x, y, z))
    return np.array(rows, dtype=np.float64)


def _load_cloud(path: str, n_points: int, rng) -> np.ndarray:
    if path.endswith(".off"):
        return clf.sample_mesh_off(Path(path).read_bytes(), n_points, rng)
    return _parse_cloud(Path(path).read_text())


def _cmd_run(args) -> int:
    cfg = _load_config(args)
    result = run_pipeline(cfg, args.depth)
    out = Path(args.out)
    out.write_bytes(result.emitted)
    Path(str(out) + ".report.tsv").write_text(result.report)
    sys.stdout.write(result.report)
    return 0


def _cmd_ground(args) -> int:
    cfg = _load_config(args)
    scene, _ = analyze_depth_file(cfg, args.depth)
    mask = np.zeros(scene.frame.data.shape, dtype=bool)
    mask.flat[scene.frame.pixels] = scene.on_ground
    Path(args.out).write_bytes(depthio.mask_to_pgm(mask))
    if args.cuts:
        lines = []
        for cut in dcgd.compute_depth_cuts(scene.frame, scene.cloud, cfg.dcgd):
            if cut.is_empty:
                continue
            lines.append(f"cut {cut.index} z={cut.z:.1f}")
            for c in cut.columns:
                lines.append(f"{c} {cut.rows[c]} {cut.y[c]:.1f}")
        Path(args.cuts).write_text("\n".join(lines) + "\n")
    return 0


def _cmd_segment(args) -> int:
    cfg = _load_config(args)
    scene, _ = analyze_depth_file(cfg, args.depth)
    lines = [f"{p[0]:.1f} {p[1]:.1f} {p[2]:.1f} {lab}"
             for p, lab in zip(scene.points, scene.segmentation.labels)]
    Path(args.out).write_text("\n".join(lines) + "\n")
    return 0


def _cmd_features(args) -> int:
    cfg = _load_config(args)
    scene, _ = analyze_depth_file(cfg, args.depth)
    print("# segment\theight_mm\tarea_m2\theight_class\tarea_class\tbarycenter")
    for obj in scene.objects:
        fp, geom = obj.footprint, obj.geometry
        b = fp.barycenter
        print(f"{obj.segment_id}\t{geom.height_mm:.1f}\t{fp.area_m2:.4f}"
              f"\t{geom.height_class}\t{geom.area_class}"
              f"\t{b[0]:.1f},{b[1]:.1f},{b[2]:.1f}")
    return 0


def _cmd_classify(args) -> int:
    cfg = _load_config(args)
    if not cfg.model_path:
        raise ValueError("classify needs a model: pass --model or set model.path")
    rng = np.random.default_rng(cfg.seed)
    cloud = _load_cloud(args.cloud, 2048, rng)
    model, _ = load_classifier(cfg)   # the same class check as run
    pred = clf.predict_gated(model, cloud, cfg.confidence_threshold, rng)
    verdict = pred.label if pred.accepted else "rejected"
    print(f"{verdict}\tp={pred.confidence:.3f}")
    for name, p in zip(pred.classes, pred.probabilities):
        print(f"  {name}\t{p:.4f}")
    return 0 if pred.accepted else 3


def _cmd_train(args) -> int:
    cfg = _load_config(args)
    config = clf.TrainConfig(epochs=args.epochs, batch=args.batch, lr=args.lr,
                             seed=args.seed, n_points=args.n_points)
    rng = np.random.default_rng(args.seed)
    classes = clf.TRAINING_COARSE_CLASSES
    if args.manifest:
        clouds, labels = [], []
        for lineno, line in depthio.content_lines(Path(args.manifest).read_text()):
            try:
                path, fine = line.rsplit(maxsplit=1)
            except ValueError:
                raise ValueError(f"manifest line {lineno}: expected "
                                 "<path> <fine_class>") from None
            group = depthio.parse_value(clf.merge_labels, fine,
                                        f"manifest line {lineno}")
            try:
                clouds.append(_load_cloud(path, max(args.n_points, 1024), rng))
            except (OSError, ValueError) as exc:
                reason = getattr(exc, "strerror", None) or exc
                raise ValueError(f"manifest line {lineno}: {path}: "
                                 f"{reason}") from None
            labels.append(classes.index(group))
        labels = np.array(labels)
        perm = rng.permutation(len(clouds))
        split = max(1, int(0.8 * len(clouds)))
        tr, te = perm[:split], perm[split:]
        train_clouds = [clouds[i] for i in tr]
        test_clouds = [clouds[i] for i in te]
        y_train, y_test = labels[tr], labels[te]
    else:
        train_clouds, y_train = scenegen.build_synthetic_dataset(
            classes, clf.TRAINING_MEMBERS, args.per_class, rng)
        test_clouds, y_test = scenegen.build_synthetic_dataset(
            classes, clf.TRAINING_MEMBERS, args.test_per_class, rng)
    model, history = clf.train(train_clouds, y_train, test_clouds, y_test,
                               classes, config)
    Path(args.out).write_bytes(clf.save_model(model))
    for h in history:
        print(f"epoch {h['epoch']:3d}  lr {h['lr']:.5f}  "
              f"train {h['train_loss']:.4f}/{h['train_acc']:.3f}  "
              f"test {h['test_loss']:.4f}/{h['test_acc']:.3f}")
    return 0


def _cmd_synth(args) -> int:
    cfg = _load_config(args)
    if args.raw:
        scene, geometry = analyze_depth_file(cfg, args.depth)
        grid = rasterize_raw(scene.cloud, geometry, ground_y=scene.ground_y)
        Path(args.out).write_bytes(emit(grid, cfg.output_format))
        return 0
    cfg = replace(cfg, model_path="")   # geometry-only synthesis
    result = run_pipeline(cfg, args.depth)
    Path(args.out).write_bytes(result.emitted)
    return 0


def _cmd_scenegen(args) -> int:
    cfg = _load_config(args)
    spec = scenegen.parse_scene_spec(Path(args.scene).read_text())
    k = camera_intrinsics(cfg)
    frame, truth = scenegen.render_depth(spec, k, args.width, args.height)
    blob = depthio.depth_to_flat(frame) if args.flat else depthio.depth_to_pgm(frame)
    Path(args.out).write_bytes(blob)
    if args.ground_mask:
        Path(args.ground_mask).write_bytes(depthio.mask_to_pgm(truth.ground_mask))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hapmap",
        description="Depth image to tactile pin-grid scene synthesis")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, depth=True, out=True):
        p.add_argument("--config", help=f"config file (or ${CONFIG_ENV})")
        p.add_argument("--seed", type=int, default=None)
        if depth:
            p.add_argument("--depth", required=True, help="depth frame (PGM or flat)")
        if out:
            p.add_argument("--out", required=True, help="output path")

    p = sub.add_parser("run", help="full pipeline: depth frame to pin grid")
    common(p)
    p.add_argument("--format", choices=OUTPUT_FORMATS)
    p.add_argument("--model", help="trained classifier (omit for geometry-only)")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("ground", help="ground detection mask")
    common(p)
    p.add_argument("--cuts", help="optional per-cut polyline dump")
    p.set_defaults(func=_cmd_ground)

    p = sub.add_parser("segment", help="labeled occupied-space cloud")
    common(p)
    p.set_defaults(func=_cmd_segment)

    p = sub.add_parser("features", help="per-segment geometric features")
    common(p, out=False)
    p.set_defaults(func=_cmd_features)

    p = sub.add_parser("classify", help="classify one cloud or OFF mesh")
    common(p, depth=False, out=False)
    p.add_argument("--model")
    p.add_argument("--cloud", required=True, help=".off mesh or x y z text file")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("train", help="train the point-set classifier")
    common(p, depth=False)
    p.add_argument("--manifest", help="lines of: cloud_path fine_class")
    p.add_argument("--per-class", type=int, default=200,
                   help="synthetic training samples per class")
    p.add_argument("--test-per-class", type=int, default=50)
    train_defaults = clf.TrainConfig()
    p.add_argument("--epochs", type=int, default=train_defaults.epochs)
    p.add_argument("--batch", type=int, default=train_defaults.batch)
    p.add_argument("--lr", type=float, default=train_defaults.lr)
    p.add_argument("--n-points", type=int, default=train_defaults.n_points)
    p.set_defaults(func=_cmd_train, seed=train_defaults.seed)

    p = sub.add_parser("synth", help="scene synthesis only")
    common(p)
    p.add_argument("--format", choices=OUTPUT_FORMATS)
    p.add_argument("--raw", action="store_true",
                   help="map the raw cloud instead of footprints/labels")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("scenegen", help="render a synthetic scene spec")
    common(p, depth=False)
    p.add_argument("--scene", required=True, help="scene spec file")
    p.add_argument("--width", type=int, default=depthio.DEFAULT_WIDTH)
    p.add_argument("--height", type=int, default=depthio.DEFAULT_HEIGHT)
    p.add_argument("--flat", action="store_true", help="emit flat binary depth")
    p.add_argument("--ground-mask", help="also write the truth mask PGM")
    p.set_defaults(func=_cmd_scenegen)

    p = sub.add_parser("config", help="print the reference config")
    p.set_defaults(func=lambda a: (sys.stdout.write(format_config(PipelineConfig())), 0)[1])
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except StageError as exc:
        print(f"error in {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, clf.TrainingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
