"""The program names and call forms that the benchmark in ``perfbench/``
reaches into. A refactor that renames or reshapes one of them breaks the
benchmark's checks and its tests; these tests make it fail here first."""

import importlib
import inspect
import json
from pathlib import Path

import numpy as np
import pytest

import annodiff.report
import annodiff.surface
from annodiff import cli
from annodiff.dataset import load_dataset
from annodiff.deteval import EvalParams, annotations_as_detections, evaluate
from annodiff.raster import rasterize
from annodiff.surface import ring_pair_metrics, surface_distances

from conftest import FIXTURES, rect_ring

A, B = FIXTURES / "synthetic_a.json", FIXTURES / "synthetic_b.json"


def timed_layers():
    """``<module>.<function>`` of every per-layer time or call count that
    ``BENCHMARK.json`` lists."""
    spec = json.loads((Path(__file__).parents[1] / "BENCHMARK.json").read_text())
    names = [m["name"].rsplit(".", 1) for m in spec["per_layer"]]
    return sorted({layer for layer, metric in names if metric in ("s", "self_s", "calls")})


@pytest.mark.parametrize("layer", timed_layers())
def test_every_timed_layer_is_a_function_of_the_program(layer):
    # the benchmark times each of these by name; a deleted or renamed one
    # would fail only the benchmark's own tests
    module, function = layer.split(".")
    assert inspect.isfunction(getattr(importlib.import_module(f"annodiff.{module}"), function, None))


def test_diff_calls_the_report_binding_once_per_measured_pair(tmp_path, monkeypatch):
    # the benchmark's own tests swap this binding to corrupt one pair
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return ring_pair_metrics(*args, **kwargs)

    monkeypatch.setattr(annodiff.report, "ring_pair_metrics", counted)
    report, pairs = tmp_path / "report.json", tmp_path / "pairs.ndjson"
    argv = ["diff", str(A), str(B), "--out", str(report), "--pairs-out", str(pairs), "--jobs", "1"]
    assert cli.main(argv) == 0
    surface = json.loads(report.read_text())["surface"]
    assert surface["degenerate_excluded"] == 0
    assert len(calls) == surface["measured_pairs"] > 0
    assert len(pairs.read_text().splitlines()) == surface["measured_pairs"]


def test_diff_measures_each_pair_through_the_surface_distances_binding(tmp_path, monkeypatch):
    # the benchmark's tracer counts contour pixels on this binding; were the
    # call inlined, that count would read 0 without any error
    calls = []

    def counted(cx, cy):
        calls.append(None)
        return surface_distances(cx, cy)

    monkeypatch.setattr(annodiff.surface, "surface_distances", counted)
    report = tmp_path / "report.json"
    assert cli.main(["diff", str(A), str(B), "--out", str(report), "--jobs", "1"]) == 0
    surface = json.loads(report.read_text())["surface"]
    assert len(calls) == surface["measured_pairs"] > 0


def test_ring_pair_metrics_takes_mode_crop():
    ra, rb = rect_ring(2, 2, 8, 6), [3.5, 1.2, 11.0, 4.0, 9.5, 9.8, 2.1, 8.0]
    assert ring_pair_metrics(ra, rb, 16, 12, mode="crop") == ring_pair_metrics(ra, rb, 16, 12)


def test_rasterize_fills_raw_rings_on_the_whole_grid():
    mask = rasterize([rect_ring(1, 2, 3, 4)], 8, 10)
    assert mask.shape == (10, 8) and mask.dtype == bool and int(mask.sum()) == 12


def test_self_evaluation_of_a_loaded_dataset():
    ds = load_dataset(A)
    for task in ("bbox", "segm"):
        result = evaluate(annotations_as_detections(ds), ds, EvalParams(task=task))
        assert np.isclose(result.map, 1.0)
