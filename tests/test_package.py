"""The package's public surface: what ``from annodiff import *`` yields."""

import ast
import inspect
import json
import re
import sys
from pathlib import Path

import annodiff
from annodiff.cli import main

from conftest import FIXTURES


def test_every_export_resolves_once():
    # a stale name in __all__ makes ``from annodiff import *`` raise
    missing = [name for name in annodiff.__all__ if not hasattr(annodiff, name)]
    assert missing == []
    assert len(set(annodiff.__all__)) == len(annodiff.__all__)


# The public functions that no command reaches, each with what keeps it in
# the library. Any other public function must be on a command's path.
KEPT_WITHOUT_A_COMMAND = {
    # perfbench/run.py checks a workload's outputs with these
    "rasterize": "benchmark output check",
    "ring_pair_metrics": "benchmark output check",
    "evaluate": "benchmark output check",
    "annotations_as_detections": "benchmark output check",
    # BENCHMARK.json times each of these by name (per_layer)
    "edt_squared": "benchmark layer",
    "mask_of": "benchmark layer",
    "decode_rle": "benchmark layer",
    "mask_iou": "benchmark layer",
    "contour": "benchmark layer",
    "box_iou_matrix": "benchmark layer",
    "surface_distances": "benchmark layer",
    "bbox_of_mask": "test reference",
    "canonical_report_bytes": "test reference",
    # tools/make_synthetic_pair.py
    "encode_rle": "generator",
    "bbox_of_polygon": "generator",
    # stats.summarize names a negative area or extent through these
    "size_bucket": "error naming on bad input",
    "size_bucket_of_dims": "error naming on bad input",
}


ROOT = Path(__file__).resolve().parents[1]


def _names(path: Path, name: str) -> bool:
    return re.search(rf"\b{name}\b", path.read_text(encoding="utf-8")) is not None


def _called_outside_its_def(path: Path, name: str) -> bool:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    own = {id(node) for d in ast.walk(tree) if isinstance(d, ast.FunctionDef) and d.name == name
           for node in ast.walk(d)}
    return any(isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == name
               and id(node) not in own for node in ast.walk(tree))


def _reason_holds(name: str, reason: str) -> bool:
    """Whether ``name`` is found where ``reason`` says it is used."""
    if reason == "benchmark output check":
        return _names(ROOT / "perfbench" / "run.py", name)
    if reason == "benchmark layer":
        layers = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
        return any(layer["name"].split(".")[1] == name for layer in layers)
    if reason == "generator":
        return _names(ROOT / "tools" / "make_synthetic_pair.py", name)
    if reason == "error naming on bad input":
        return _called_outside_its_def(ROOT / "src" / "annodiff" / "stats.py", name)
    if reason == "test reference":
        return any(_names(path, name) for path in (ROOT / "tests").glob("test_*.py") if path.name != "test_package.py")
    raise AssertionError(f"{name}: unknown reason {reason!r}")


def test_each_kept_function_is_found_where_its_reason_points():
    stale = {name: reason for name, reason in KEPT_WITHOUT_A_COMMAND.items() if not _reason_holds(name, reason)}
    assert stale == {}


def test_every_public_function_off_the_commands_is_kept_for_a_named_reason(tmp_path):
    a, b = str(FIXTURES / "synthetic_a.json"), str(FIXTURES / "synthetic_b.json")

    def diff(mode):
        return ["diff", a, b, "--iou-mode", mode, "--eval", "both", "--out", str(tmp_path / f"{mode}.json"),
                "--pairs-out", str(tmp_path / f"{mode}.ndjson"), "--csv-dir", str(tmp_path / mode)]

    def stats(*rule):
        return ["stats", a, *rule, "--out", str(tmp_path / "stats.json")]

    runs = [
        diff("box"),
        diff("mask"),
        ["eval", a, b, "--task", "both", "--out", str(tmp_path / "eval.json")],
        ["match", a, b, "--iou-mode", "mask", "--out", str(tmp_path / "pairs.ndjson")],
        stats(),
        stats("--recompute-areas"),
        stats("--dims-buckets"),
    ]
    reached = set()

    def record(frame, event, arg):
        if event == "call":
            reached.add(frame.f_code)

    sys.setprofile(record)
    try:
        codes = [main(argv) for argv in runs]
    finally:
        sys.setprofile(None)
    assert codes == [0] * len(runs)
    functions = {name: getattr(annodiff, name) for name in annodiff.__all__}
    unreached = {name for name, f in functions.items() if inspect.isfunction(f) and f.__code__ not in reached}
    assert unreached == set(KEPT_WITHOUT_A_COMMAND)
