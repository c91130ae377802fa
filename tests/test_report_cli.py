import csv
import gc
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from jsonschema import Draft202012Validator

import annodiff.cli
import annodiff.report
from annodiff.cli import EXIT_EMPTY, EXIT_INPUT, EXIT_OK, cmd_stats, main
from annodiff.dataset import parse_dataset
from annodiff.errors import DegenerateShape
from annodiff.matching import MatchPair, MatchSet, match_datasets, pairs_to_ndjson
from annodiff.report import (
    AuditConfig,
    canonical_report_bytes,
    compute_surface_results,
    report_bytes,
    run_audit,
    write_report_csv,
)
from annodiff.surface import pair_metrics

from conftest import FIXTURES, make_ann, make_coco, make_images, rect_ring

TINY_A = str(FIXTURES / "tiny_pair_a.json")
TINY_B = str(FIXTURES / "tiny_pair_b.json")
SYNTHETIC_A = str(FIXTURES / "synthetic_a.json")
SYNTHETIC_B = str(FIXTURES / "synthetic_b.json")

_schema = json.loads(
    (Path(__file__).resolve().parents[1] / "schemas" / "audit-report.v1.schema.json").read_text()
)
_validator = Draft202012Validator(_schema)

# Behaviour guard for the bundled 50-image pair: any change to matching,
# surface metrics, statistics or evaluation shows up in these digests.
SYNTHETIC_CANONICAL_SHA256 = "e0c534f1d25916527f0897b2c19b4272e5bd36d001b129d171f1c687907bdd1c"
SYNTHETIC_PAIRS_SHA256 = "b268d98a76041eef4c6a5d71202df4d202b4ad081a8590bc2e341635ca785184"


def validate_report(report: dict):
    errors = sorted(_validator.iter_errors(report), key=lambda e: list(e.path))
    assert not errors, "\n".join(e.message for e in errors[:5])


class TestRunAudit:
    def test_tiny_pair_report(self, tiny_a, tiny_b):
        out = run_audit(tiny_a, tiny_b)
        r = out.report
        assert r["matching"] == {
            "pair_count": 3,
            "unmatched_source": 0,
            "unmatched_target": 0,
            "ineligible_source": 2,  # the two-ring shape and the crowd
            "ineligible_target": 0,
        }
        # every tiny-pair distance is at most one pixel, so both histograms
        # degrade to the explicit empty form rather than failing the audit
        assert r["surface"]["d_avg"]["empty"] is True
        assert r["surface"]["d_avg"]["excluded_below"] == 3
        assert r["surface"]["d_max"]["empty"] is True
        assert r["consistency"]["ok"] is True
        assert r["eval"] is None
        validate_report(r)

    def test_eval_section_present_when_requested(self, tiny_a, tiny_b):
        out = run_audit(tiny_a, tiny_b, AuditConfig(eval_tasks=("bbox", "segm")))
        r = out.report
        assert set(r["eval"]) == {"bbox", "segm"}
        assert set(r["eval"]["bbox"]) == {"a_vs_b", "b_vs_a"}
        assert r["eval"]["bbox"]["a_vs_b"]["mAP"] is not None
        validate_report(r)

    def test_degenerate_pair_is_excluded_and_counted(self):
        sliver = [0.9, 0.9, 0.95, 0.9, 0.95, 0.95]
        ann = make_ann(1, 1, sliver, bbox=[0.9, 0.9, 0.05, 0.05], area=0.001)
        ds = parse_dataset(make_coco(make_images(1), [ann]))
        out = run_audit(ds, ds)
        r = out.report
        assert r["matching"]["pair_count"] == 1  # bbox IoU is 1.0
        assert r["surface"]["measured_pairs"] == 0
        assert r["surface"]["degenerate_excluded"] == 1
        assert r["consistency"]["ok"] is True
        validate_report(r)

    def test_config_echo_omits_jobs(self, tiny_a, tiny_b):
        r = run_audit(tiny_a, tiny_b, AuditConfig(jobs=4)).report
        assert "jobs" not in r["config"]
        assert r["config"]["iou_threshold"] == 0.90

    def test_jobs_do_not_change_canonical_bytes(self, tiny_a, tiny_b):
        serial = run_audit(tiny_a, tiny_b, AuditConfig(jobs=1)).report
        parallel = run_audit(tiny_a, tiny_b, AuditConfig(jobs=3)).report
        assert canonical_report_bytes(serial) == canonical_report_bytes(parallel)

    def test_canonical_bytes_reproducible_across_runs(self, tiny_a, tiny_b):
        one = run_audit(tiny_a, tiny_b).report
        two = run_audit(tiny_a, tiny_b).report
        assert canonical_report_bytes(one) == canonical_report_bytes(two)
        assert b"timings" in report_bytes(one)
        assert b"timings" not in canonical_report_bytes(one)
        timings = one.pop("timings")
        two.pop("timings")
        assert one == two
        assert set(timings) == {"parse_s", "match_s", "surface_s", "stats_s", "eval_s", "total_s"}
        for stage in ("match_s", "surface_s", "stats_s", "eval_s"):
            assert timings["total_s"] >= timings[stage]

    def test_synthetic_report_bytes_pinned(self, synthetic_a, synthetic_b):
        out = run_audit(synthetic_a, synthetic_b, AuditConfig(eval_tasks=("bbox", "segm")))
        canonical = hashlib.sha256(canonical_report_bytes(out.report)).hexdigest()
        pairs = hashlib.sha256(pairs_to_ndjson(out.match_set).encode("utf-8")).hexdigest()
        assert canonical == SYNTHETIC_CANONICAL_SHA256
        assert pairs == SYNTHETIC_PAIRS_SHA256

    def test_synthetic_report_validates(self, synthetic_a, synthetic_b):
        r = run_audit(synthetic_a, synthetic_b).report
        assert r["matching"]["pair_count"] == 253
        assert r["consistency"]["ok"] is True
        validate_report(r)

    def test_csv_mirrors(self, tiny_a, tiny_b, tmp_path):
        r = run_audit(tiny_a, tiny_b, AuditConfig(eval_tasks=("bbox",))).report
        names = write_report_csv(r, tmp_path)
        assert set(names) >= {
            "categories.csv",
            "size_buckets.csv",
            "histogram_d_avg.csv",
            "histogram_d_max.csv",
        }
        cat_rows = (tmp_path / "categories.csv").read_text().strip().splitlines()
        assert cat_rows[0] == "category_id,source_count,target_count,delta"
        assert len(cat_rows) == 1 + 2  # categories 1 and 2
        bucket_rows = (tmp_path / "size_buckets.csv").read_text().strip().splitlines()
        assert len(bucket_rows) == 1 + 4

    def test_csv_histograms_mirror_the_report(self, synthetic_a, synthetic_b, tmp_path):
        r = run_audit(synthetic_a, synthetic_b).report
        write_report_csv(r, tmp_path)
        for metric in ("d_avg", "d_max"):
            hist = r["surface"][metric]
            assert hist["empty"] is False and sum(hist["counts"]) == hist["included"] > 0
            with (tmp_path / f"histogram_{metric}.csv").open(newline="") as fh:
                rows = list(csv.reader(fh))
            assert rows[0] == ["bin_low", "bin_high", "count"]
            edges, counts = hist["edges"], hist["counts"]
            assert [(float(lo), float(hi), int(n)) for lo, hi, n in rows[1:]] == list(
                zip(edges[:-1], edges[1:], counts)
            )


# Pairs the matcher never emits, built by hand: source instance 4 of the tiny
# pair has two rings and source instance 5 is a crowd RLE. Either makes its
# pair degenerate, in the pipeline and in the one-pair API alike.
@pytest.mark.parametrize("source_id", [4, 5], ids=["two_ring", "crowd_rle"])
class TestPairResolver:
    @staticmethod
    def match_set(source_id, tiny_a, tiny_b):
        good = match_datasets(tiny_a, tiny_b).pairs[0]
        inst = tiny_a.instance(source_id)
        odd = MatchPair(source_id, good.target_instance_id, inst.image_id, inst.category_id, 1.0)
        return MatchSet(pairs=[good, odd]), good, odd

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_surface_results_count_it_degenerate(self, source_id, jobs, tiny_a, tiny_b):
        ms, good, odd = self.match_set(source_id, tiny_a, tiny_b)
        results, degenerate = compute_surface_results(ms, tiny_a, tiny_b, jobs=jobs)
        assert [r.pair for r in results] == [good]
        assert degenerate == [odd]

    def test_pair_metrics_raises(self, source_id, tiny_a, tiny_b):
        _, _, odd = self.match_set(source_id, tiny_a, tiny_b)
        with pytest.raises(DegenerateShape):
            pair_metrics(odd, tiny_a, tiny_b)

    def test_audit_stays_consistent(self, source_id, tiny_a, tiny_b, monkeypatch):
        ms, _, _ = self.match_set(source_id, tiny_a, tiny_b)
        monkeypatch.setattr(annodiff.report, "match_datasets", lambda *args: ms)
        r = run_audit(tiny_a, tiny_b).report
        assert r["matching"]["pair_count"] == 2
        assert r["surface"]["measured_pairs"] == 1
        assert r["surface"]["degenerate_excluded"] == 1
        assert r["consistency"]["ok"] is True
        validate_report(r)


class FakePool:
    """A stand-in for ``ProcessPoolExecutor`` that records each pool's size
    and maps in this process."""

    sizes: list[int] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        return map(fn, items)


class TestSurfacePool:
    # the tiny pair has 3 measurable pairs
    @pytest.mark.parametrize(
        "jobs, cpus, pools",
        [(64, 2, [2]), (2, 8, [2]), (8, 8, [3]), (64, None, []), (1, 8, [])],
    )
    def test_pool_is_capped_by_pairs_and_cpus(self, jobs, cpus, pools, tiny_a, tiny_b, monkeypatch):
        ms = match_datasets(tiny_a, tiny_b)
        want = compute_surface_results(ms, tiny_a, tiny_b)
        monkeypatch.setattr(FakePool, "sizes", [])
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(annodiff.report.os, "cpu_count", lambda: cpus)
        assert compute_surface_results(ms, tiny_a, tiny_b, jobs=jobs) == want
        assert FakePool.sizes == pools


def test_importing_the_cli_loads_no_process_pool():
    src = Path(annodiff.cli.__file__).resolve().parents[1]
    code = "import sys, annodiff.cli; print(sorted(m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules))"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


class TestCliCollector:
    """A command runs with the cyclic collector paused, and the caller gets
    its own setting back however the command ends."""

    @pytest.mark.parametrize("collecting", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize("outcome", ["exit-0", "exit-2", "raises"])
    def test_caller_setting_comes_back(self, collecting, outcome, monkeypatch, capsys):
        seen = []

        def stats(args):
            seen.append(gc.isenabled())
            if outcome == "raises":
                raise RuntimeError("boom")
            return cmd_stats(args)

        monkeypatch.setattr(annodiff.cli, "cmd_stats", stats)
        path = TINY_A if outcome == "exit-0" else "/nonexistent/p.json"
        was = gc.isenabled()
        (gc.enable if collecting else gc.disable)()
        try:
            if outcome == "raises":
                with pytest.raises(RuntimeError, match="boom"):
                    main(["stats", path])
            else:
                assert main(["stats", path]) == (EXIT_OK if outcome == "exit-0" else EXIT_INPUT)
            assert gc.isenabled() is collecting
        finally:
            (gc.enable if was else gc.disable)()
        assert seen == [False]

    # the argparse parser is the only cyclic garbage a command leaves, so it
    # is as much on the 50-image pair as on the tiny one
    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["stats", "{a}"], id="stats"),
            pytest.param(["stats", "{a}", "--recompute-areas"], id="stats-recompute-areas"),
            pytest.param(["stats", "{a}", "--dims-buckets"], id="stats-dims-buckets"),
            pytest.param(["match", "{a}", "{b}"], id="match"),
            pytest.param(["match", "{a}", "{b}", "--iou-mode", "mask"], id="match-mask"),
            pytest.param(
                ["diff", "{a}", "{b}", "--eval", "both", "--csv-dir", "{tmp}", "--pairs-out", "{tmp}/p.ndjson"],
                id="diff-eval-both",
            ),
            pytest.param(["diff", "{a}", "{b}", "--jobs", "2"], id="diff-jobs-2"),
            pytest.param(["eval", "{a}", "{b}", "--task", "both"], id="eval-both"),
            pytest.param(["stats", "{a}.missing"], id="exit-2"),
        ],
    )
    def test_cyclic_garbage_does_not_grow_with_the_input(self, argv, tmp_path, capsys):
        def garbage(a, b):
            gc.collect()
            main([arg.format(a=a, b=b, tmp=tmp_path) for arg in argv])
            return gc.collect()

        was = gc.isenabled()
        gc.disable()
        try:
            garbage(TINY_A, TINY_B)  # first-use imports, such as the pool's
            tiny = garbage(TINY_A, TINY_B)
            synthetic = garbage(SYNTHETIC_A, SYNTHETIC_B)
        finally:
            if was:
                gc.enable()
        assert tiny == synthetic


class TestCliStats:
    def test_stats_to_stdout(self, capsys):
        assert main(["stats", TINY_A]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["instance_count"] == 5
        assert doc["size_buckets"]["very_small"] == 1

    def test_stats_out_file(self, tmp_path, capsys):
        out = tmp_path / "s.json"
        assert main(["stats", TINY_A, "--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().out == ""
        assert json.loads(out.read_text())["image_count"] == 3

    def test_missing_file_is_input_error(self, capsys):
        assert main(["stats", "/nonexistent/p.json"]) == EXIT_INPUT
        assert "error:" in capsys.readouterr().err

    def test_garbage_json_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert main(["stats", str(bad)]) == EXIT_INPUT
        assert "error:" in capsys.readouterr().err

    def test_recomputed_areas_keep_the_stored_area_of_a_degenerate_ring(self, tmp_path, capsys):
        # stored areas put both in the wrong bucket: the 20 x 20 square
        # (400 px, small) says medium, the 2-vertex ring says large
        path = tmp_path / "degenerate.json"
        path.write_text(make_coco(make_images(1), [
            make_ann(1, 1, [10, 10, 40, 40], area=20_000),
            make_ann(2, 1, rect_ring(50, 50, 20, 20), area=5_000),
        ]))
        assert main(["stats", str(path), "--recompute-areas"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["size_buckets"] == {"very_small": 0, "small": 1, "medium": 0, "large": 1}
        assert main(["stats", str(path)]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["size_buckets"]["medium"] == 1

    def test_negative_stored_area_names_the_annotation(self, tmp_path, capsys):
        path = tmp_path / "negative.json"
        path.write_text(make_coco(make_images(1), [
            make_ann(1, 1, [10, 10, 40, 40], area=-5),
            make_ann(2, 1, rect_ring(50, 50, 20, 20)),
        ]))
        for flags in ([], ["--recompute-areas"]):
            assert main(["stats", str(path), *flags]) == EXIT_INPUT
            assert capsys.readouterr().err.strip() == "error: annotation 1 has negative area -5.0"

    def test_deeply_nested_json_is_input_error(self, tmp_path, capsys):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000)
        assert main(["stats", str(deep)]) == EXIT_INPUT
        assert capsys.readouterr().err.strip() == "error: malformed JSON: nested too deeply"

    def test_image_side_beyond_2_52_px(self, tmp_path, capsys):
        # pixel centers are no longer exact in float64: recomputed areas keep
        # the stored one, and the segm evaluator names the grid
        path = tmp_path / "wide.json"
        path.write_text(make_coco(make_images(1, width=2**64, height=40), [
            make_ann(1, 1, rect_ring(0, 0, 10, 10), area=20_000),
        ]))
        assert main(["stats", str(path), "--recompute-areas"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["size_buckets"]["large"] == 1
        assert main(["eval", str(path), str(path), "--task", "segm"]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.strip() == "error: grid 18446744073709551616x40 has a side beyond 2**52 px"

    def test_bucket_flags_cannot_be_combined(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["stats", TINY_A, "--recompute-areas", "--dims-buckets"])
        assert exit_.value.code == EXIT_INPUT
        assert "not allowed with argument" in capsys.readouterr().err


class TestCliDiff:
    def test_diff_to_stdout(self, capsys):
        assert main(["diff", TINY_A, TINY_B]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["matching"]["pair_count"] == 3
        validate_report(doc)

    def test_zero_matches_exit_code(self, capsys):
        assert main(["diff", TINY_A, TINY_B, "--iou-threshold", "0.99"]) == EXIT_EMPTY
        doc = json.loads(capsys.readouterr().out)
        assert doc["matching"]["pair_count"] == 0

    def test_bad_threshold_is_input_error(self, capsys):
        assert main(["diff", TINY_A, TINY_B, "--iou-threshold", "1.5"]) == EXIT_INPUT
        assert "error:" in capsys.readouterr().err

    def test_out_pairs_and_csv(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        pairs = tmp_path / "pairs.ndjson"
        csvdir = tmp_path / "csv"
        code = main(
            [
                "diff", TINY_A, TINY_B,
                "--out", str(out),
                "--pairs-out", str(pairs),
                "--csv-dir", str(csvdir),
                "--eval", "bbox",
            ]
        )
        assert code == EXIT_OK
        assert capsys.readouterr().out == ""
        doc = json.loads(out.read_text())
        assert doc["eval"]["bbox"]["a_vs_b"]["task"] == "bbox"
        validate_report(doc)
        lines = [json.loads(l) for l in pairs.read_text().splitlines()]
        assert [l["source_id"] for l in lines] == [1, 2, 3]
        assert (csvdir / "eval_per_category.csv").exists()

    def test_reports_identical_across_jobs(self, tmp_path):
        outs = []
        for jobs in ("1", "3"):
            out = tmp_path / f"r{jobs}.json"
            assert main(["diff", TINY_A, TINY_B, "--jobs", jobs, "--out", str(out)]) == EXIT_OK
            doc = json.loads(out.read_text())
            doc.pop("timings")
            outs.append(json.dumps(doc, sort_keys=True))
        assert outs[0] == outs[1]

    def test_mask_mode_flag(self, capsys):
        assert main(["diff", TINY_A, TINY_B, "--iou-mode", "mask"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["config"]["iou_mode"] == "mask"
        assert doc["matching"]["pair_count"] == 3


class TestCliEnv:
    def test_env_threshold_applies(self, capsys, monkeypatch):
        monkeypatch.setenv("ANNODIFF_IOU_THRESHOLD", "0.95")
        assert main(["diff", TINY_A, TINY_B]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["config"]["iou_threshold"] == 0.95
        assert doc["matching"]["pair_count"] == 2  # 0.9756 and 0.9524 survive

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("ANNODIFF_IOU_THRESHOLD", "0.95")
        assert main(["diff", TINY_A, TINY_B, "--iou-threshold", "0.5"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["config"]["iou_threshold"] == 0.5
        assert doc["matching"]["pair_count"] == 3

    def test_malformed_env_is_input_error(self, capsys, monkeypatch):
        monkeypatch.setenv("ANNODIFF_IOU_THRESHOLD", "ninety")
        assert main(["diff", TINY_A, TINY_B]) == EXIT_INPUT
        assert "error:" in capsys.readouterr().err

    def test_malformed_env_jobs_is_input_error(self, capsys, monkeypatch):
        monkeypatch.setenv("ANNODIFF_JOBS", "two")
        assert main(["diff", TINY_A, TINY_B]) == EXIT_INPUT
        assert "ANNODIFF_JOBS='two' is not an integer" in capsys.readouterr().err

    def test_env_jobs(self, capsys, monkeypatch):
        monkeypatch.setenv("ANNODIFF_JOBS", "2")
        assert main(["diff", TINY_A, TINY_B]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["matching"]["pair_count"] == 3


class TestCliEvalMatch:
    def test_eval_both_tasks(self, capsys):
        assert main(["eval", TINY_A, TINY_B, "--task", "both"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"bbox", "segm"}
        for task in doc:
            assert set(doc[task]) == {"a_vs_b", "b_vs_a"}
            assert set(doc[task]["a_vs_b"]) == {
                "task", "mAP", "mAP@50", "mAP Large", "mAP Medium", "mAP Small",
                "per_category",
            }

    def test_eval_self_is_perfect(self, capsys):
        assert main(["eval", TINY_A, TINY_A]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["bbox"]["a_vs_b"]["mAP"] == 1.0
        assert doc["bbox"]["b_vs_a"]["mAP"] == 1.0

    def test_eval_integer_beyond_float_range_is_input_error(self, tmp_path, capsys):
        doc = json.loads(Path(TINY_A).read_text())
        doc["annotations"][0]["segmentation"][0][0] = 10**400
        bad = tmp_path / "a.json"
        bad.write_text(json.dumps(doc))
        assert main(["eval", str(bad), TINY_B]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "must be finite" in err and "Traceback" not in err

    def test_eval_segm_degenerate_ring_is_input_error(self, tmp_path, capsys):
        doc = json.loads(Path(TINY_A).read_text())
        doc["annotations"][0]["segmentation"] = [[1.0, 1.0, 5.0, 5.0]]
        bad = tmp_path / "a.json"
        bad.write_text(json.dumps(doc))
        assert main(["eval", str(bad), TINY_B, "--task", "segm"]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "degenerate ring with 2 vertices" in err and "Traceback" not in err

    def test_eval_segm_negative_rle_size_is_input_error(self, tmp_path, capsys):
        # (-2) * (-3) equals the counts' sum, so only the sign check names it
        doc = json.loads(Path(TINY_A).read_text())
        ann = next(a for a in doc["annotations"] if a["iscrowd"])
        ann["segmentation"] = {"counts": [6], "size": [-2, -3]}
        bad = tmp_path / "a.json"
        bad.write_text(json.dumps(doc))
        assert main(["eval", str(bad), TINY_B, "--task", "segm"]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert f"annotation {ann['id']} has negative RLE size -2x-3" in err and "Traceback" not in err

    def test_eval_segm_rle_of_another_grid_names_the_annotation(self, tmp_path, capsys):
        # the crowd, as ground truth in a cell with detections, on a 4x4 grid
        # in a 100x100 image
        doc = json.loads(Path(TINY_A).read_text())
        ann = next(a for a in doc["annotations"] if a["iscrowd"])
        ann.update(image_id=1, category_id=1, segmentation={"counts": [16], "size": [4, 4]})
        bad = tmp_path / "a.json"
        bad.write_text(json.dumps(doc))
        assert main(["eval", TINY_B, str(bad), "--task", "segm"]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert f"error: annotation {ann['id']} RLE grid 4x4 != image 100x100" in err and "Traceback" not in err

    def test_match_ndjson_stdout(self, capsys):
        assert main(["match", TINY_A, TINY_B]) == EXIT_OK
        rows = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert [(r["source_id"], r["target_id"]) for r in rows] == [
            (1, 101), (2, 102), (3, 103),
        ]

    def test_match_empty_exit(self, capsys):
        assert main(["match", TINY_A, TINY_B, "--iou-threshold", "0.99"]) == EXIT_EMPTY
        assert capsys.readouterr().out == ""

    def test_match_out_file(self, tmp_path, capsys):
        out = tmp_path / "pairs.ndjson"
        assert main(["match", TINY_A, TINY_B, "--out", str(out)]) == EXIT_OK
        assert len(out.read_text().splitlines()) == 3

    def test_no_same_category_flag(self, capsys):
        assert main(["match", TINY_A, TINY_B, "--no-same-category"]) == EXIT_OK
        rows = capsys.readouterr().out.splitlines()
        assert len(rows) == 3
