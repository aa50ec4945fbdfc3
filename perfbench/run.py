"""hapmap benchmark: frame latency on seeded scenes and classifier training.

Run from the repository root:

    python3 perfbench/run.py --workload clutter --seed 1 --seconds 30 --trace 0

Workloads (see perfbench/README.md for why each exists):

* ``open_floor`` -- ``pipeline.run_pipeline`` on floor-and-holes frames,
  geometry only;
* ``clutter`` -- ``pipeline.run_pipeline`` on frames with 6-10 boxes and a
  hole, with a small classifier trained during set-up;
* ``train`` -- repeated ``classifier.train`` calls on one seeded dataset.

The load is a closed loop with one caller: the next operation starts when
the previous one returned, and each round runs every scene once, so the
scene mix is the same in every run.  Every operation's output is checked:
grids and reports (or model bytes) must repeat byte for byte.  With
``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` half the time runs untraced and half under span tracing
(perfbench/tracer.py), and the line carries the per-layer metrics.
Scene specs, the environment, digests and spans go to
``perfbench/out/<workload>-seed<seed>-trace<trace>/``.
"""

import time

T_START = time.perf_counter()

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np
import scipy

from hapmap import classifier, depthio, pipeline, scenegen
from hapmap.config import PipelineConfig

import scenes
import tracer

IMPORT_S = time.perf_counter() - T_START

WORKLOADS = ("open_floor", "clutter", "train")
SETUP_REPEATS = 3
P90_MIN_SAMPLES = 100       # ten samples beyond the p90

#: clutter's small classifier: default widths, a few seconds of training
CLUTTER_MODEL_PER_CLASS = 8
CLUTTER_MODEL_EPOCHS = 4
CLUTTER_THRESHOLD = 0.3   # weak model: about half the segments pass

#: train workload: TrainConfig defaults except the epoch count
TRAIN_PER_CLASS = 32
TRAIN_TEST_PER_CLASS = 16
TRAIN_EPOCHS = 10


class CheckFailed(Exception):
    """An operation's output failed a correctness check."""


def _sha(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


class FrameWorkload:
    """run_pipeline over one seeded scene set; one op per scene."""

    def __init__(self, name: str, seed: int, outdir: Path):
        self.name, self.seed, self.outdir = name, seed, outdir

    def setup(self) -> str:
        specs = scenes.scene_set(self.name, self.seed)
        self.frames = []
        blobs = []
        for i, spec in enumerate(specs):
            frame, truth = scenegen.render_depth(spec, scenes.K, scenes.WIDTH,
                                                 scenes.HEIGHT)
            blob = depthio.depth_to_pgm(frame)
            path = self.outdir / f"scene_{i:02d}.pgm"
            path.write_bytes(blob)
            (self.outdir / f"scene_{i:02d}.txt").write_text(
                scenegen.format_scene_spec(spec))
            self.frames.append((spec, path,
                                scenes.expected_boxes(frame, truth)))
            blobs.append(blob)
        self.config = PipelineConfig(seed=self.seed)
        if self.name == "clutter":
            model = self._train_model()
            model_path = self.outdir / "model.bin"
            model_path.write_bytes(model)
            blobs.append(model)
            self.config = PipelineConfig(model_path=str(model_path),
                                         confidence_threshold=CLUTTER_THRESHOLD,
                                         seed=self.seed)
        return _sha(*blobs)

    def _train_model(self) -> bytes:
        classes = classifier.TRAINING_COARSE_CLASSES
        rng = np.random.default_rng([self.seed, 1])
        clouds, labels = scenegen.build_synthetic_dataset(
            classes, classifier.TRAINING_MEMBERS, CLUTTER_MODEL_PER_CLASS, rng,
            n_points=256)
        model, _ = classifier.train(
            clouds, labels, clouds, labels, classes,
            classifier.TrainConfig(epochs=CLUTTER_MODEL_EPOCHS, seed=self.seed))
        return classifier.save_model(model)

    def ops(self):
        # module attribute lookup at call time, so tracing sees the call
        return [lambda p=path: pipeline.run_pipeline(self.config, p)
                for _, path, _ in self.frames]

    def check(self, index: int, result) -> tuple[str, tuple]:
        rows, cols = self.config.grid_rows, self.config.grid_cols
        n = len(result.descriptors)
        if result.grid.cells.shape != (rows, cols):
            raise CheckFailed(f"grid shape {result.grid.cells.shape}")
        if not result.emitted:
            raise CheckFailed("empty emitted grid")
        if len(result.pins) != n or result.report.count("\n") != n + 1:
            raise CheckFailed("report does not list every object")
        spec, _, expected = self.frames[index]
        hits, ghosts = scenes.score(result.descriptors, spec, expected)
        return (_sha(result.emitted, b"\0", result.report.encode()),
                (hits, len(expected), ghosts))

    def quality(self, per_scene: list[tuple]) -> dict:
        hits = sum(q[0] for q in per_scene)
        expected = sum(q[1] for q in per_scene)
        ghosts = sum(q[2] for q in per_scene)
        # critical success index per scene; an empty scene read as empty is 1
        csi = [h / (e + g) if e + g else 1.0 for h, e, g in per_scene]
        return {"accuracy": statistics.fmean(csi),
                "object_recall": hits / expected if expected else None,
                "ghost_objects": ghosts / len(per_scene),
                "expected_boxes": expected}

    def items(self, n_ops: int) -> int:
        return n_ops


class TrainWorkload:
    """classifier.train on one seeded dataset; every op is the same call."""

    def __init__(self, name: str, seed: int, outdir: Path):
        self.name, self.seed, self.outdir = name, seed, outdir

    def setup(self) -> str:
        classes = classifier.TRAINING_COARSE_CLASSES
        rng = np.random.default_rng([self.seed, 2])
        self.data = (
            *scenegen.build_synthetic_dataset(
                classes, classifier.TRAINING_MEMBERS, TRAIN_PER_CLASS, rng,
                n_points=256),
            *scenegen.build_synthetic_dataset(
                classes, classifier.TRAINING_MEMBERS, TRAIN_TEST_PER_CLASS,
                rng, n_points=256),
            classes)
        self.config = classifier.TrainConfig(epochs=TRAIN_EPOCHS, seed=self.seed)
        train_clouds, y_train, test_clouds, y_test, _ = self.data
        return _sha(*(c.tobytes() for c in train_clouds + test_clouds),
                    y_train.tobytes(), y_test.tobytes())

    def ops(self):
        return [lambda: classifier.train(*self.data, self.config)]

    def check(self, index: int, out) -> tuple[str, tuple]:
        model, history = out
        if len(history) != self.config.epochs:
            raise CheckFailed(f"{len(history)} epochs of history")
        if not all(np.isfinite(h["train_loss"]) and np.isfinite(h["test_loss"])
                   for h in history):
            raise CheckFailed("non-finite loss")
        blob = classifier.save_model(model)
        if classifier.load_model(blob).classes != self.data[4]:
            raise CheckFailed("model classes changed on round trip")
        return _sha(blob), (history[-1]["test_acc"],)

    def quality(self, per_scene: list[tuple]) -> dict:
        return {"accuracy": per_scene[0][0]}

    def items(self, n_ops: int) -> int:
        return n_ops * len(self.data[0]) * self.config.epochs


class Run:
    """Closed-loop measurement with output checks shared across phases."""

    def __init__(self, workload):
        self.workload = workload
        self.reference: dict[int, tuple] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def _op(self, index, op):
        """Run one op; return (seconds, output fingerprint or None)."""
        t = time.perf_counter()
        fingerprint = None
        try:
            out = op()
            elapsed = time.perf_counter() - t
            fingerprint, quality = self.workload.check(index, out)
            ref = self.reference.setdefault(index, (fingerprint, quality))
            if ref[0] != fingerprint:
                raise CheckFailed("output differs from its first run")
        except Exception as exc:  # any raise or failed check fails the op
            elapsed = time.perf_counter() - t
            self.failed += 1
            self.errors.append(f"op {index}: {type(exc).__name__}: {exc}")
        self.attempted += 1
        return elapsed, fingerprint

    def warm_up(self):
        """One untimed op; it counts as attempted and sets op 0's reference."""
        self._op(0, self.workload.ops()[0])

    def measure(self, seconds: float, trace=None):
        """Whole rounds over every op, starting rounds until `seconds` pass.

        Returns (op durations in s, round wall times in s,
        {op index: fingerprints}).
        """
        ops = self.workload.ops()
        durations, rounds, seen = [], [], {}
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            round_start = time.perf_counter()
            for index, op in enumerate(ops):
                if trace is not None:
                    trace.op = len(durations)
                elapsed, fingerprint = self._op(index, op)
                durations.append(elapsed)
                seen.setdefault(index, set()).add(fingerprint)
            rounds.append(time.perf_counter() - round_start)
        return durations, rounds, seen

    def digest(self) -> str:
        return _sha(*(self.reference[i][0].encode()
                      for i in sorted(self.reference)))

    @staticmethod
    def phase_digest(seen: dict) -> str:
        """Digest of every fingerprint one measure() call saw, per op index."""
        return _sha(*(" ".join(sorted(map(str, seen[i]))).encode()
                      for i in sorted(seen)))

    def quality(self) -> dict:
        if not self.reference:      # every op failed
            return {"accuracy": 0.0, "object_recall": None,
                    "ghost_objects": 0.0}
        return self.workload.quality([self.reference[i][1]
                                      for i in sorted(self.reference)])


def blas_threads():
    """OpenBLAS thread count, read through its C API; None if not found."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        # scipy resolves cKDTree workers=-1 to os.cpu_count()
        "ckdtree_workers": os.cpu_count(),
        "platform": platform.platform(),
    }


def set_up(workload, trace=None) -> tuple[list, list]:
    """Set up SETUP_REPEATS times; return (set-up times in s, fingerprints)."""
    times, prints = [], []
    for rep in range(SETUP_REPEATS):
        if trace is not None:
            trace.op = f"setup{rep}"
        t = time.perf_counter()
        prints.append(workload.setup())
        times.append(time.perf_counter() - t)
    return times, prints


def end_to_end(workload, run, durations, rounds, setup_s) -> tuple[dict, dict]:
    """(BENCHMARK.json metrics, report under per-workload metric names).

    Throughput is the median over rounds of a round's items over its wall
    time: the host's speed drifts by tens of percent within minutes, and a
    median keeps one slow stretch from moving the figure.
    """
    n = len(durations)
    quality = run.quality()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    p50 = statistics.median(durations)
    per_round = workload.items(n // len(rounds))
    items_per_s = statistics.median(per_round / r for r in rounds)
    metrics = {
        "op_ms_p50": (p50 * 1e3, "ms"),
        "items_per_s": (items_per_s, "1/s"),
        "accuracy": (quality["accuracy"], "ratio"),
        "peak_rss_mb": (rss_mb, "MB"),
        "setup_s": (setup_s, "s"),
    }
    # imports are reported, not bounded: on a 2-vCPU host their drift moved
    # the median set-up time 40% between two sets of ten open_floor runs
    report = {"samples": (n, "count"),
              "failed_ratio": (run.failed / max(run.attempted, 1), "ratio"),
              "peak_rss_mb": (rss_mb, "MB"), "setup_s": (setup_s, "s"),
              "import_s": (IMPORT_S, "s")}
    if isinstance(workload, TrainWorkload):
        report.update({"train_s_p50": (p50, "s"),
                       "train_samples_per_s": (items_per_s, "1/s"),
                       "train_test_acc": (quality["accuracy"], "ratio")})
    else:
        report.update({"frame_ms_p50": (p50 * 1e3, "ms"),
                       "frames_per_s": (items_per_s, "1/s"),
                       "ghost_objects": (quality["ghost_objects"], "count")})
        if n >= P90_MIN_SAMPLES:
            report["frame_ms_p90"] = (float(np.percentile(durations, 90)) * 1e3,
                                      "ms")
        if quality["object_recall"] is not None:
            report["object_recall"] = (quality["object_recall"], "ratio")
    return metrics, report


def per_layer(trace, ops, setup_spans, untraced, traced) -> dict:
    metrics = tracer.layer_metrics(trace.spans, ops)
    setups = sorted({s[4] for s in setup_spans})

    def per_setup(name):
        return statistics.median(tracer.per_op(
            setup_spans, setups, lambda i, s: s[2] - s[1] if s[0] == name else 0))

    # the clutter set-up also renders small frames to filter layouts
    metrics["scenegen.render_depth_ms"] = (
        per_setup("scenegen.render_depth") * 1e3, "ms")
    metrics["scenegen.build_synthetic_dataset_s"] = (
        per_setup("scenegen.build_synthetic_dataset"), "s")
    base = statistics.median(untraced)
    metrics["trace.overhead_share"] = (
        (statistics.median(traced) - base) / base, "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    outdir = ROOT / "perfbench" / "out" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    kind = TrainWorkload if args.workload == "train" else FrameWorkload
    workload = kind(args.workload, args.seed, outdir)
    run = Run(workload)
    results = {"workload": args.workload, "seed": args.seed,
               "seconds": args.seconds, "trace": args.trace,
               "environment": environment()}
    correct = True

    if args.trace == 0:
        setup_times, prints = set_up(workload)
        run.warm_up()
        durations, rounds, _ = run.measure(args.seconds)
        metrics, report = end_to_end(workload, run, durations, rounds,
                                     statistics.median(setup_times))
        results.update(report=report, setup_times_s=setup_times,
                       durations_s=durations)
    else:
        trace = tracer.Tracer()
        with trace.installed():
            _, prints = set_up(workload, trace)
        setup_spans = list(trace.spans)
        trace.spans.clear()
        run.warm_up()
        untraced, _, seen_plain = run.measure(args.seconds / 2)
        with trace.installed():
            traced, _, seen_traced = run.measure(args.seconds / 2, trace)
        trace.dump(outdir / "spans.json")
        results["digest_untraced"] = run.phase_digest(seen_plain)
        results["digest_traced"] = run.phase_digest(seen_traced)
        if results["digest_untraced"] != results["digest_traced"]:
            correct = False
            run.errors.append("tracing changed an output digest")
        metrics = per_layer(trace, list(range(len(traced))), setup_spans,
                            untraced, traced)
        results.update(untraced_durations_s=untraced,
                       traced_durations_s=traced)

    if len(set(prints)) != 1:
        correct = False
        run.errors.append("set-up repeats built different inputs")
    results.update({
        "digest": run.digest(),
        "quality": run.quality(),
        "attempted": run.attempted, "failed": run.failed,
        "errors": run.errors[:20],
        "scenes": sorted(p.name for p in outdir.glob("scene_*.txt")),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })
    if "report" in results:
        results["report"] = {k: {"value": v, "unit": u}
                             for k, (v, u) in results["report"].items()}
        print("report " + json.dumps(results["report"]))
    (outdir / "results.json").write_text(json.dumps(results, indent=1) + "\n")
    print("environment " + json.dumps(results["environment"]))
    print(f"digest {results['digest']}")
    for err in run.errors[:5]:
        print(f"error {err}")
    correct = correct and run.failed == 0
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed,
                      "metrics": results["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
