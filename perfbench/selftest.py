"""Smoke test of the benchmark: every workload at its shortest run.

Run from the repository root:

    python3 perfbench/selftest.py

For each workload it runs ``perfbench/run.py --seconds 1`` (one round of
operations) with tracing off and on, and checks that the last stdout line
follows BENCHMARK.json (every end-to-end or per-layer metric, with its
unit), that the report line carries the per-workload metrics with units,
that tracing left every output digest unchanged, and that the first scene
spec rebuilds its frame byte for byte.  Last, it runs the benchmark in a
directory holding only BENCHMARK.json and perfbench/, where it must fail
without printing a result.  Exits 0 when every check passes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from hapmap import depthio, scenegen  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
OUT = ROOT / "perfbench" / "out"

REPORT = {
    "open_floor": {"frame_ms_p50": "ms", "frames_per_s": "1/s",
                   "ghost_objects": "count"},
    "clutter": {"frame_ms_p50": "ms", "frames_per_s": "1/s",
                "ghost_objects": "count", "object_recall": "ratio"},
    "train": {"train_s_p50": "s", "train_samples_per_s": "1/s",
              "train_test_acc": "ratio"},
}
REPORT_COMMON = {"failed_ratio": "ratio", "peak_rss_mb": "MB", "setup_s": "s",
                 "import_s": "s", "samples": "count"}
ENVIRONMENT = ("nproc", "python", "numpy", "scipy", "blas_threads",
               "ckdtree_workers")
SEED = 3


def run(workload, trace, cwd=ROOT):
    cmd = BENCH["command"] + ["--workload", workload, "--seed", str(SEED),
                              "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=180)


def check_result(proc, expected_units):
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] is True and result["failed"] == 0, lines[-5:]
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    units = {k: v["unit"] for k, v in result["metrics"].items()}
    assert units == expected_units, (units, expected_units)
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    return lines


def results_of(workload, trace):
    path = OUT / f"{workload}-seed{SEED}-trace{trace}" / "results.json"
    return json.loads(path.read_text())


def check_rebuild(workload):
    outdir = OUT / f"{workload}-seed{SEED}-trace0"
    spec = scenegen.parse_scene_spec((outdir / "scene_00.txt").read_text())
    frame, _ = scenegen.render_depth(spec, depthio.DEFAULT_INTRINSICS)
    assert depthio.depth_to_pgm(frame) == (outdir / "scene_00.pgm").read_bytes()


def check_bare_checkout():
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run("open_floor", 0, cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0, "benchmark ran without the program"
    assert '"correct"' not in proc.stdout, proc.stdout


def main() -> int:
    end_to_end = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    for workload in (w["name"] for w in BENCH["workloads"]):
        lines = check_result(run(workload, 0), end_to_end)
        report = json.loads(next(line for line in lines
                                 if line.startswith("report "))[7:])
        expected = {**REPORT[workload], **REPORT_COMMON}
        units = {k: v["unit"] for k, v in report.items() if k in expected}
        assert units == expected, (workload, units, expected)
        check_result(run(workload, 1), layers)
        plain, traced = results_of(workload, 0), results_of(workload, 1)
        assert traced["digest_untraced"] == traced["digest_traced"], workload
        assert plain["digest"] == traced["digest"], workload
        for key in ENVIRONMENT:
            assert plain["environment"].get(key) is not None, key
        if workload != "train":
            check_rebuild(workload)
        print(f"ok {workload}: metrics, units, report and digests "
              f"({plain['digest'][:12]})")
    check_bare_checkout()
    print("ok bare checkout: fails without printing a result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
