#!/usr/bin/env python3
"""Reference figures for perfbench/README.md; none of them is gated.

    python3 perfbench/reference.py inputs --seed 101
        Make each workload's inputs for a seed, run its command once and print
        the image, instance and pair counts and the sha256 of its canonical
        output (what run.py compares between runs).

    python3 perfbench/reference.py figures --seed 101
        Unscaled wall times of ``diff --jobs 2`` against ``--jobs 1`` on the
        surface-audit input, of ``match --iou-mode mask`` on it, and of the
        bundled 50-image fixture's ``diff``; then one traced run of each
        workload's command on a 1000-image pair, as a per-layer table.

    python3 perfbench/reference.py overhead --seed 101
        Scaled wall time of each workload's command, traced and untraced,
        three of each in alternation: the tracing overhead.

Run from the root of a checkout, one command at a time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402

LAYERS = (
    "dataset.load_dataset", "matching.match_datasets", "raster.box_iou_matrix",
    "report.compute_surface_results", "surface.ring_pair_metrics", "raster.rasterize",
    "raster.contour", "surface.surface_distances", "raster.edt_squared", "stats.summarize",
    "stats.distance_histogram", "deteval.evaluate", "deteval.annotations_as_detections",
    "deteval._match_image", "raster.mask_of", "deteval._mask_iou_with_crowd", "raster.decode_rle",
    "raster.mask_iou", "report.report_bytes",
)


def command(name: str, a: Path, b: Path, out: Path) -> list[str]:
    rel = lambda p: p.relative_to(run.ROOT)  # noqa: E731
    return [part.format(a=rel(a), b=rel(b), out=rel(out)) for part in run.WORKLOADS[name].command]


def ran(rec: dict) -> dict:
    if rec["exit_code"] != 0:
        raise RuntimeError(f"annodiff exited with {rec['exit_code']}")
    return rec


def out_dir(tag: str) -> Path:
    folder = run.WORK / "reference" / tag
    folder.mkdir(parents=True, exist_ok=True)
    return folder


def inputs(seed: int) -> None:
    env = run.child_env()
    print("| workload | images | instances A / B | pairs | canonical sha256 |")
    print("| --- | --- | --- | --- | --- |")
    for name, workload in run.WORKLOADS.items():
        a, b = run.make_inputs(seed, workload.images)
        raw_a, raw_b = (json.loads(p.read_bytes()) for p in (a, b))
        folder = out_dir(name)
        ran(run.run_child("time", command(name, a, b, folder), env))
        pairs = "-"
        if name == "surface-audit":
            pairs = json.loads((folder / "report.json").read_bytes())["matching"]["pair_count"]
        digest = hashlib.sha256(run.canonical_bytes(name, folder)).hexdigest()
        print(f"| {name} | {workload.images} | {len(raw_a['annotations'])} / {len(raw_b['annotations'])} "
              f"| {pairs} | `{digest}` |")


def walls(argv: list[str], env, repeats: int) -> list[float]:
    return [ran(run.run_child("time", argv, env))["wall_s"] for _ in range(repeats)]


def show(label: str, values: list[float]) -> None:
    print(f"| {label} | {statistics.median(values):.3f} | {min(values):.3f}–{max(values):.3f} | {len(values)} |")


def figures(seed: int) -> None:
    env = run.child_env()
    a, b = run.make_inputs(seed, run.WORKLOADS["surface-audit"].images)
    folder = out_dir("figures")
    diff = command("surface-audit", a, b, folder)
    print("| command (unscaled wall of cli.main) | median s | range s | runs |")
    print("| --- | --- | --- | --- |")
    jobs = {"1": [], "2": []}
    for _ in range(3):  # alternate, so both see the same machine phases
        for n in ("1", "2"):
            jobs[n] += walls(diff[:-1] + [n], env, 1)
    show("surface-audit `diff --jobs 1`", jobs["1"])
    show("surface-audit `diff --jobs 2`", jobs["2"])
    match = ["match", str(a.relative_to(run.ROOT)), str(b.relative_to(run.ROOT)),
             "--iou-mode", "mask", "--out", str((folder / "pairs.ndjson").relative_to(run.ROOT))]
    show("`match --iou-mode mask` on the surface-audit pair", walls(match, env, 3))
    fixtures = run.ROOT / "tests" / "fixtures"
    fixture = ["diff", str((fixtures / "synthetic_a.json").relative_to(run.ROOT)),
               str((fixtures / "synthetic_b.json").relative_to(run.ROOT)),
               "--out", str((folder / "fixture.json").relative_to(run.ROOT)), "--jobs", "1"]
    show("50-image fixture `diff`", walls(fixture, env, 5))

    a, b = run.make_inputs(seed, 1000)
    traced = {}
    for name in run.WORKLOADS:
        traced[name] = ran(run.run_child("trace", command(name, a, b, out_dir(f"{name}-1000")), env))["layers"]
    names = list(run.WORKLOADS)
    print()
    print("| layer, 1000-image pair: inclusive s (share of cli.main) | " + " | ".join(names) + " |")
    print("| --- |" + " --- |" * len(names))
    for layer in ("cli.main", *LAYERS):
        cells = []
        for name in names:
            m = traced[name]
            s = m.get(f"{layer}.s", 0.0)
            cells.append(f"{s:.3f} ({100 * s / m['cli.main.s']:.0f} %), {m.get(f'{layer}.calls', 0)} calls"
                         if s else "–")
        print(f"| `{layer}` | " + " | ".join(cells) + " |")


def overhead(seed: int) -> None:
    env = run.child_env()
    print("| workload | untraced wall_s | traced wall_s | tracing overhead |")
    print("| --- | --- | --- | --- |")
    for name, workload in run.WORKLOADS.items():
        a, b = run.make_inputs(seed, workload.images)
        argv = command(name, a, b, out_dir(name))
        walls_by_mode = {"time": [], "trace": []}
        for _ in range(3):  # alternate, so both see the same machine phases
            for mode, into in walls_by_mode.items():
                rec = ran(run.run_child(mode, argv, env))
                into.append(rec["wall_s"] * run.REFERENCE_CALIBRATION_S / rec["calibration_s"])
        plain, traced = (statistics.median(v) for v in walls_by_mode.values())
        print(f"| {name} | {plain:.3f} s | {traced:.3f} s | {traced - plain:+.3f} s ({100 * (traced / plain - 1):+.1f} %) |")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("what", choices=("inputs", "figures", "overhead"))
    parser.add_argument("--seed", type=int, default=101)
    args = parser.parse_args()
    {"inputs": inputs, "figures": figures, "overhead": overhead}[args.what](args.seed)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
