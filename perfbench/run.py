#!/usr/bin/env python3
"""Benchmark of the ``annodiff`` CLI: three workloads, timed end to end.

    python3 perfbench/run.py --workload surface-audit --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The seed makes a synthetic annotation pair
with ``build_pair`` from ``tools/make_synthetic_pair.py`` (cached under
``perfbench/.work``). Then one ``annodiff`` command runs again and again, each
time in a fresh process started after the last one ended, until ``--seconds``
have passed (at least three times). The first run's outputs are checked
against independent recomputations (see ``checks.py``), and every later
run's canonical bytes must equal the first's.

With ``--trace 0`` the result holds the end-to-end metrics of
``BENCHMARK.json``, medians over the runs. With ``--trace 1`` each run is
traced per layer instead (see ``tracer.py``) and the result holds the
per-layer metrics. The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
GENERATOR = ROOT / "tools" / "make_synthetic_pair.py"
PACKAGE = ROOT / "src" / "annodiff"
REQUIRED = (PACKAGE / "cli.py", GENERATOR, ROOT / "tests" / "oracles.py", ROOT / "BENCHMARK.json")

MIN_RUNS = 3
SETUP_PROBES = 3  # import-only processes per run, on top of one per timed run
CHILD_TIMEOUT_S = 150
# Median seconds of child.calibration_s on the reference machine. Each time
# is scaled by this over the calibration timed beside it, which takes out
# the drift of a shared machine's speed; see README.md.
REFERENCE_CALIBRATION_S = 0.075


@dataclass(frozen=True)
class Workload:
    images: int
    command: tuple[str, ...]  # annodiff argv; {a}, {b} and {out} are filled in
    outputs: tuple[str, ...]  # files the command writes into {out}


WORKLOADS = {
    "surface-audit": Workload(
        100,
        ("diff", "{a}", "{b}", "--out", "{out}/report.json", "--pairs-out", "{out}/pairs.ndjson",
         "--jobs", "1"),
        ("report.json", "pairs.ndjson"),
    ),
    "box-eval": Workload(
        400, ("eval", "{a}", "{b}", "--task", "bbox", "--out", "{out}/eval.json"), ("eval.json",)
    ),
    "mask-eval": Workload(
        200, ("eval", "{a}", "{b}", "--task", "segm", "--out", "{out}/eval.json"), ("eval.json",)
    ),
}


def _source_digest() -> str:
    """Digest of everything the generated inputs depend on."""
    h = hashlib.sha256(GENERATOR.read_bytes())
    for path in sorted(PACKAGE.glob("*.py")):
        h.update(path.name.encode() + path.read_bytes())
    return h.hexdigest()[:16]


def make_inputs(seed: int, images: int) -> tuple[Path, Path]:
    """The seeded pair as two COCO files, generated once per seed and size."""
    folder = WORK / "inputs" / f"{_source_digest()}-seed{seed}-n{images}"
    a, b = folder / "a.json", folder / "b.json"
    if a.is_file() and b.is_file():
        return a, b
    sys.path.insert(0, str(GENERATOR.parent))
    from make_synthetic_pair import build_pair

    pair = build_pair(seed, images)
    tmp = folder.with_name(folder.name + f".tmp{os.getpid()}")
    tmp.mkdir(parents=True, exist_ok=True)
    for name, data in zip(("a.json", "b.json"), pair):
        (tmp / name).write_text(json.dumps(data, separators=(",", ":")) + "\n", encoding="utf-8")
    shutil.rmtree(folder, ignore_errors=True)
    tmp.rename(folder)
    return a, b


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("ANNODIFF_")}
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        ANNODIFF_JOBS="1",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def run_child(mode: str, argv: list[str], env: dict[str, str]) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), repr(time.monotonic()), mode, *argv]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"child failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def canonical_bytes(name: str, folder: Path) -> bytes:
    """The run's output minus wall-clock fields."""
    if name == "surface-audit":
        report = json.loads((folder / "report.json").read_bytes())
        report.pop("timings", None)
        return json.dumps(report, sort_keys=True).encode() + (folder / "pairs.ndjson").read_bytes()
    return (folder / "eval.json").read_bytes()


def check_outputs(name: str, seed: int, a: Path, b: Path, folder: Path) -> list[str]:
    """Failures of the first run's outputs, by the checks in ``checks.py``."""
    import checks
    from annodiff.dataset import load_dataset
    from annodiff.deteval import EvalParams, annotations_as_detections, evaluate
    from annodiff.raster import rasterize
    from annodiff.surface import ring_pair_metrics

    raw_a = json.loads(a.read_bytes())
    raw_b = json.loads(b.read_bytes())
    if name == "surface-audit":
        report = json.loads((folder / "report.json").read_bytes())
        rows = [json.loads(line) for line in (folder / "pairs.ndjson").read_text().splitlines()]
        kernel = lambda ra, rb, w, h: ring_pair_metrics(ra, rb, w, h, mode="crop")  # noqa: E731
        return checks.check_surface_audit(raw_a, raw_b, report, rows, seed, kernel, rasterize)
    out = json.loads((folder / "eval.json").read_bytes())
    if name == "box-eval":
        return checks.check_box_eval(raw_a, raw_b, out)
    ds_a = load_dataset(a)
    self_map = evaluate(annotations_as_detections(ds_a), ds_a, EvalParams(task="segm")).map
    return checks.check_mask_eval(raw_a, raw_b, out, seed, self_map, rasterize)


def bench(name: str, seed: int, seconds: float, trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = WORKLOADS[name]
    a, b = make_inputs(seed, workload.images)
    env = child_env()
    out_root = WORK / "out" / name
    shutil.rmtree(out_root, ignore_errors=True)

    # warm the file cache and bytecode; these also sample setup_s
    setups = [(p["setup_s"], p["setup_calibration_s"])
              for p in (run_child("probe", [], env) for _ in range(SETUP_PROBES))]
    runs, digests, failed = [], [], 0
    started = time.perf_counter()
    while len(runs) + failed < MIN_RUNS or time.perf_counter() - started < seconds:
        folder = out_root / str(len(runs) + failed)
        folder.mkdir(parents=True)
        argv = [part.format(a=a.relative_to(ROOT), b=b.relative_to(ROOT), out=folder.relative_to(ROOT))
                for part in workload.command]
        rec = run_child("trace" if trace else "time", argv, env)
        setups.append((rec["setup_s"], rec["setup_calibration_s"]))
        if rec["exit_code"] != 0:
            failed += 1
            continue
        rec["output_bytes"] = sum((folder / f).stat().st_size for f in workload.outputs)
        rec["folder"] = folder
        runs.append(rec)
        digests.append(hashlib.sha256(canonical_bytes(name, folder)).hexdigest())

    if not runs:
        print(f"CHECK FAILED: {name}: no run succeeded", file=sys.stderr)
        return {"correct": False, "attempted": failed, "failed": failed, "metrics": {}}
    fails = check_outputs(name, seed, a, b, runs[0]["folder"])
    if len(set(digests)) != 1:
        fails.append(f"canonical bytes differ between runs: {len(set(digests))} distinct digests")

    if trace:
        for rec in runs:
            layers = rec["layers"]
            self_sum = sum(v for k, v in layers.items() if k.endswith(".self_s"))
            if abs(self_sum - layers["cli.main.s"]) > 1e-6:
                fails.append(f"trace: self times sum to {self_sum}, cli.main.s is {layers['cli.main.s']}")
            layers["cli.output_bytes"] = rec["output_bytes"]
        values = {m["name"]: statistics.median(r["layers"].get(m["name"], 0) for r in runs)
                  for m in spec["per_layer"]}
        summary = f"{len(values)} per-layer metrics"
    else:
        scaled = lambda t, cal: t * REFERENCE_CALIBRATION_S / cal  # noqa: E731
        wall = statistics.median(scaled(r["wall_s"], r["calibration_s"]) for r in runs)
        values = {
            "wall_s": wall,
            "images_per_s": workload.images / wall,
            "setup_s": statistics.median(scaled(t, cal) for t, cal in setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        }
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        summary = ", ".join(f"{k} {v:.6g} {units[k]}" for k, v in values.items())
        summary += (f"; unscaled medians: wall_s {statistics.median(r['wall_s'] for r in runs):.4g} s,"
                    f" setup_s {statistics.median(t for t, _ in setups):.4g} s,"
                    f" calibration {statistics.median(r['calibration_s'] for r in runs):.4g} s")
    for line in fails:
        print(f"CHECK FAILED: {line}", file=sys.stderr)
    print(f"{name}: {summary} ({len(runs) + failed} runs, {failed} failed)")
    metric_specs = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metric_specs}
    return {"correct": not fails, "attempted": len(runs) + failed, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [str(p.relative_to(ROOT)) for p in REQUIRED if not p.is_file()]
    if missing:
        print(f"error: run from a checkout of the repository; missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    result = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
