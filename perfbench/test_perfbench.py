"""Tests of the benchmark itself: its output checks and its tracer.

    python3 -m pytest perfbench/test_perfbench.py

Each check must pass on the program's real output and fail on a corrupted
one; the tracer must leave every binding as it found it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE), str(ROOT / "tools")]

import annodiff  # noqa: E402
import annodiff.report  # noqa: E402
import checks  # noqa: E402
from annodiff.cli import main as cli_main  # noqa: E402
from annodiff.raster import rasterize  # noqa: E402
from annodiff.surface import ring_pair_metrics  # noqa: E402
from make_synthetic_pair import build_pair  # noqa: E402
from tracer import Tracer  # noqa: E402

SEED = 3


def crop_kernel(ra, rb, w, h):
    return ring_pair_metrics(ra, rb, w, h, mode="crop")


@pytest.fixture(scope="module")
def pair(tmp_path_factory):
    folder = tmp_path_factory.mktemp("pair")
    raw_a, raw_b = build_pair(SEED, 6)
    a, b = folder / "a.json", folder / "b.json"
    a.write_text(json.dumps(raw_a))
    b.write_text(json.dumps(raw_b))
    return raw_a, raw_b, a, b


def run_diff(pair, folder):
    _, _, a, b = pair
    report, pairs = folder / "report.json", folder / "pairs.ndjson"
    assert cli_main(["diff", str(a), str(b), "--out", str(report), "--pairs-out", str(pairs)]) == 0
    rows = [json.loads(line) for line in pairs.read_text().splitlines()]
    return json.loads(report.read_text()), rows


def run_eval(pair, folder, task):
    _, _, a, b = pair
    out = folder / f"{task}.json"
    assert cli_main(["eval", str(a), str(b), "--task", task, "--out", str(out)]) == 0
    return json.loads(out.read_text())


@pytest.fixture(scope="module")
def diff_output(pair, tmp_path_factory):
    return run_diff(pair, tmp_path_factory.mktemp("diff"))


# ---------------------------------------------------------------------------
# surface-audit


def test_surface_check_passes_on_program_output(pair, diff_output):
    report, rows = diff_output
    assert len(rows) > checks.SAMPLE
    assert checks.check_surface_audit(pair[0], pair[1], report, rows, SEED, crop_kernel, rasterize) == []


def test_dmax_off_by_one_pixel_in_the_report_fails(pair, tmp_path, monkeypatch):
    calls = []

    def one_pair_off(*args, **kwargs):
        d_avg, d_max, nx, ny = ring_pair_metrics(*args, **kwargs)
        calls.append(1)
        return d_avg, d_max + (1.0 if len(calls) == 1 else 0.0), nx, ny

    monkeypatch.setattr(annodiff.report, "ring_pair_metrics", one_pair_off)
    report, rows = run_diff(pair, tmp_path)
    fails = checks.check_surface_audit(pair[0], pair[1], report, rows, SEED, crop_kernel, rasterize)
    assert any(f.startswith("d_max:") for f in fails), fails
    assert not any(f.startswith("d_avg:") for f in fails), fails


def test_dmax_off_by_one_pixel_in_the_kernel_fails(pair, diff_output):
    report, rows = diff_output

    def off(*args):
        d_avg, d_max, nx, ny = crop_kernel(*args)
        return d_avg, d_max + 1.0, nx, ny

    fails = checks.check_surface_audit(pair[0], pair[1], report, rows, SEED, off, rasterize)
    assert sum("program" in f for f in fails) == checks.SAMPLE, fails


def test_dropped_pair_fails(pair, diff_output):
    report, rows = diff_output
    assert checks.check_surface_audit(pair[0], pair[1], report, rows[1:], SEED, crop_kernel, rasterize) != []
    # also when the report's count is lowered to agree with the NDJSON
    fewer = json.loads(json.dumps(report))
    fewer["matching"]["pair_count"] -= 1
    fewer["matching"]["unmatched_source"] += 1
    assert checks.check_surface_audit(pair[0], pair[1], fewer, rows[1:], SEED, crop_kernel, rasterize) != []


def test_pair_below_threshold_fails(pair, diff_output):
    report, rows = diff_output
    bent = [dict(r) for r in rows]
    bent[0]["iou"] = 0.9
    fails = checks.check_surface_audit(pair[0], pair[1], report, bent, SEED, crop_kernel, rasterize)
    assert any("IoU" in f for f in fails), fails


def test_inconsistent_report_fails(pair, diff_output):
    report, rows = diff_output
    broken = json.loads(json.dumps(report))
    broken["consistency"]["ok"] = False
    assert "consistency.ok is not true" in checks.check_surface_audit(pair[0], pair[1], broken, rows, SEED, crop_kernel, rasterize)


def test_vectorized_fill_equals_point_in_rings(pair):
    raw_a = pair[0]
    img = raw_a["images"][0]
    for ann in raw_a["annotations"][:6]:
        if isinstance(ann["segmentation"], list):
            window = checks.ring_window(ann["segmentation"], img["width"], img["height"], pad=1)
            inside, ambiguous = checks.rings_mask(ann["segmentation"], window)
            assert inside.any() and not ambiguous.any()
            assert (inside == checks.rings_mask_literal(ann["segmentation"], window)).all()


def test_center_on_a_vertex_is_left_to_the_program():
    # (61.5, 103.5) is a vertex and the center of pixel (103, 61): the exact
    # crossing of the edge ending there is 61.5, so the even-odd rule puts the
    # center inside; point_in_rings computes the crossing as 61.50000000000001
    ring = [117.1, 161.16, 61.5, 103.5, 130.0, 90.0]
    window = checks.ring_window([ring], 200, 200, pad=1)
    inside, ambiguous = checks.rings_mask([ring], window)
    at = (103 - window[0], 61 - window[2])
    assert ambiguous[at] and ambiguous.sum() == 1
    assert not checks.oracles.point_in_rings(61.5, 103.5, [ring])
    assert rasterize([ring], 200, 200)[103, 61]
    assert checks.oracle_mask([ring], window, 200, 200, rasterize)[at]
    assert checks.same_off_ties([ring], window)


# ---------------------------------------------------------------------------
# box-eval and mask-eval


def test_box_check_passes_on_program_output(pair, tmp_path):
    assert checks.check_box_eval(pair[0], pair[1], run_eval(pair, tmp_path, "bbox")) == []


@pytest.mark.parametrize("field", ["per_category", "mAP", "mAP@50"])
def test_ap_changed_in_fourth_decimal_fails(pair, tmp_path, field):
    out = run_eval(pair, tmp_path, "bbox")
    table = out["bbox"]["b_vs_a"]
    if field == "per_category":
        cat = next(k for k, v in table["per_category"].items() if v is not None)
        table["per_category"][cat] -= 1e-4
    else:
        table[field] -= 1e-4
    fails = checks.check_box_eval(pair[0], pair[1], out)
    assert len(fails) == 1 and "b_vs_a" in fails[0], fails


def test_ap_outside_unit_interval_fails(pair, tmp_path):
    out = run_eval(pair, tmp_path, "bbox")
    out["bbox"]["a_vs_b"]["mAP Small"] = 1.5
    assert any("outside [0, 1]" in f for f in checks.check_box_eval(pair[0], pair[1], out))


def test_mask_check_passes_on_program_output(pair, tmp_path):
    out = run_eval(pair, tmp_path, "segm")
    assert checks.check_mask_eval(pair[0], pair[1], out, SEED, 1.0, rasterize) == []


def test_mask_ap_changed_or_self_eval_below_one_fails(pair, tmp_path):
    out = run_eval(pair, tmp_path, "segm")
    assert checks.check_mask_eval(pair[0], pair[1], out, SEED, 0.9999, rasterize) != []
    out["segm"]["a_vs_b"]["mAP"] += 1e-4
    assert checks.check_mask_eval(pair[0], pair[1], out, SEED, 1.0, rasterize) != []


# ---------------------------------------------------------------------------
# tracer


def _bindings():
    return {
        (name, attr): value
        for name, mod in list(sys.modules.items())
        if name == "annodiff" or name.startswith("annodiff.")
        for attr, value in vars(mod).items()
    }


def test_tracer_restores_every_binding(pair, tmp_path):
    before = _bindings()
    with Tracer() as tracer:
        assert annodiff.surface.rasterize is not before[("annodiff.surface", "rasterize")]
        assert annodiff.rasterize is not before[("annodiff", "rasterize")]
        run_diff(pair, tmp_path)
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert tracer.calls["raster.rasterize"] > 0


def test_tracer_self_times_sum_to_the_root(pair, tmp_path):
    _, _, a, b = pair
    with Tracer() as tracer:
        assert annodiff.cli.main(["eval", str(a), str(b), "--task", "segm", "--out", str(tmp_path / "e.json")]) == 0
    m = tracer.metrics()
    self_sum = sum(v for k, v in m.items() if k.endswith(".self_s"))
    assert self_sum == pytest.approx(m["cli.main.s"], abs=1e-6)
    assert m["cli.main.calls"] == 1
    assert m["dataset.instances"] == len(pair[0]["annotations"]) + len(pair[1]["annotations"])
    assert m["raster.mask_of.calls"] > 0 and m["raster.edt_squared.calls"] == 0


def test_every_per_layer_metric_is_recorded():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    recorded = set(Tracer().metrics()) | {"cli.output_bytes"}
    assert [m["name"] for m in spec["per_layer"] if m["name"] not in recorded] == []


# ---------------------------------------------------------------------------
# the command


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "box-eval", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
