"""The program names and call forms that the benchmark in ``perfbench/``
reaches into. A refactor that renames or reshapes one of them breaks the
benchmark's checks and its tests; these tests make it fail here first."""

import importlib
import inspect
import json
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import annodiff.report
from annodiff import cli
from annodiff.dataset import load_dataset
from annodiff.deteval import EvalParams, annotations_as_detections, evaluate
from annodiff.raster import rasterize
from annodiff.stats import distance_histogram
from annodiff.surface import SurfaceDistanceResult, ring_pair_metrics, ring_pairs_metrics

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


def run_diff(tmp_path):
    report, pairs = tmp_path / "report.json", tmp_path / "pairs.ndjson"
    argv = ["diff", str(A), str(B), "--out", str(report), "--pairs-out", str(pairs), "--jobs", "1"]
    assert cli.main(argv) == 0
    return json.loads(report.read_text()), [json.loads(line) for line in pairs.read_text().splitlines()]


def test_diff_passes_each_measured_pair_once_through_the_report_binding(tmp_path, monkeypatch):
    # the benchmark's own tests swap this binding to corrupt one pair
    seen = []

    def counted(pairs, **kwargs):
        seen.extend(pairs)
        return ring_pairs_metrics(pairs, **kwargs)

    monkeypatch.setattr(annodiff.report, "ring_pairs_metrics", counted)
    report, rows = run_diff(tmp_path)
    surface = report["surface"]
    assert surface["degenerate_excluded"] == 0
    assert len(seen) == surface["measured_pairs"] == len(rows) > 0
    # every pair once: its two rings, as stored, are in no other pair
    assert len({(id(ring_a), id(ring_b)) for ring_a, ring_b, _, _ in seen}) == len(seen)
    sa, sb = load_dataset(A), load_dataset(B)
    rings = {(sa.instance(r["source_id"]).segmentation.rings[0], sb.instance(r["target_id"]).segmentation.rings[0]) for r in rows}
    assert rings == {(ring_a, ring_b) for ring_a, ring_b, _, _ in seen}


def test_one_pixel_dmax_error_in_the_report_binding_reaches_the_report(tmp_path, monkeypatch):
    # what the benchmark's own d_max test injects, here in the batched binding:
    # the report's d_max histogram moves, its d_avg histogram does not, and
    # both still cover every pair of the pairs NDJSON
    sa, sb = load_dataset(A), load_dataset(B)
    clean, rows = run_diff(tmp_path)
    measured = []
    for r in rows:
        ring_a = sa.instance(r["source_id"]).segmentation.rings[0]
        ring_b = sb.instance(r["target_id"]).segmentation.rings[0]
        image = sa.image(r["image_id"])
        measured.append(ring_pair_metrics(ring_a, ring_b, image.width, image.height))
    bins = clean["config"]["bins"]
    values = [SurfaceDistanceResult(None, *m) for m in measured]
    for metric in ("d_avg", "d_max"):
        assert clean["surface"][metric] == {**asdict(distance_histogram(values, metric, bins)), "empty": False}

    def one_pair_off(pairs, **kwargs):
        out = ring_pairs_metrics(pairs, **kwargs)
        d_avg, d_max, nx, ny = out[0]
        return [(d_avg, d_max + 1.0, nx, ny), *out[1:]]

    monkeypatch.setattr(annodiff.report, "ring_pairs_metrics", one_pair_off)
    broken, broken_rows = run_diff(tmp_path)
    assert broken_rows == rows
    assert broken["surface"]["d_avg"] == clean["surface"]["d_avg"]
    assert broken["surface"]["d_max"] != clean["surface"]["d_max"]
    off = [SurfaceDistanceResult(None, v.d_avg, v.d_max + (1.0 if i == 0 else 0.0), 0, 0) for i, v in enumerate(values)]
    assert broken["surface"]["d_max"] == {**asdict(distance_histogram(off, "d_max", bins)), "empty": False}


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
