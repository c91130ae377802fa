import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

import annodiff.deteval as deteval
from annodiff.dataset import parse_dataset
from annodiff.deteval import (
    AREA_RANGES,
    IOU_THRESHOLDS,
    RECALL_POINTS,
    Detection,
    EvalParams,
    annotations_as_detections,
    cross_table,
    evaluate,
)
from annodiff.errors import EvalError, GeometryError
from annodiff.raster import count_overlaps, encode_rle, iou, mask_of
from annodiff.shapes import Polygons

from conftest import FIXTURES, make_ann, make_coco, make_images, random_simple_rings, rect_ring
from oracles import ap_oracle, match_labels_oracle


def gt_of(anns, n_images=1, size=100, categories=None):
    return parse_dataset(
        make_coco(make_images(n_images, size, size), anns, categories=categories)
    )


def det(det_id, image_id, score, bbox, category_id=1):
    return Detection(
        id=det_id, image_id=image_id, category_id=category_id,
        score=score, bbox=tuple(float(v) for v in bbox),
    )


def crowd_ann(ann_id, image_id, bbox, size=100, category_id=1):
    return make_ann(
        ann_id, image_id, {"counts": [size * size], "size": [size, size]},
        category_id=category_id, iscrowd=1, bbox=bbox, area=float(bbox[2] * bbox[3]),
    )


def box_iou_crowd(d, g, crowd):
    """Reference IoU used by the labeled-match oracle."""
    dx, dy, dw, dh = d
    gx, gy, gw, gh = g
    iw = max(0.0, min(dx + dw, gx + gw) - max(dx, gx))
    ih = max(0.0, min(dy + dh, gy + gh) - max(dy, gy))
    inter = iw * ih
    union = dw * dh if crowd else dw * dh + gw * gh - inter
    return inter / union if union > 0 else 0.0


class TestConstants:
    def test_threshold_grid(self):
        assert len(IOU_THRESHOLDS) == 10
        assert IOU_THRESHOLDS[0] == 0.5
        assert IOU_THRESHOLDS[1] == 0.55  # bit-exact linspace value
        assert IOU_THRESHOLDS[-1] == 0.95

    def test_recall_grid(self):
        assert len(RECALL_POINTS) == 101
        assert RECALL_POINTS[0] == 0.0 and RECALL_POINTS[-1] == 1.0

    def test_area_ranges(self):
        names = [r[0] for r in AREA_RANGES]
        assert names == ["all", "small", "medium", "large"]
        assert AREA_RANGES[1][1:] == (0, 32**2)
        assert AREA_RANGES[2][1:] == (32**2, 96**2)


class TestParams:
    def test_defaults(self):
        p = EvalParams()
        assert p.task == "bbox" and p.max_detections == 100

    def test_the_protocol_constants_are_not_parameters(self):
        assert [f.name for f in dataclasses.fields(EvalParams)] == ["task", "max_detections"]

    @pytest.mark.parametrize("kw", [{"task": "keypoints"}, {"max_detections": 0}])
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            EvalParams(**kw)


class TestSelfEval:
    @pytest.mark.parametrize("task", ["bbox", "segm"])
    def test_tiny_fixture_scores_one(self, tiny_a, task):
        r = evaluate(annotations_as_detections(tiny_a), tiny_a, EvalParams(task=task))
        assert r.map == 1.0  # exact, not approximate
        assert r.map_50 == 1.0
        assert all(v in (None, 1.0) for v in (r.map_small, r.map_medium, r.map_large))
        assert all(v == 1.0 for v in r.per_category.values())

    @pytest.mark.parametrize("task", ["bbox", "segm"])
    def test_synthetic_fixture_scores_one(self, synthetic_a, task):
        r = evaluate(
            annotations_as_detections(synthetic_a), synthetic_a, EvalParams(task=task)
        )
        assert r.map == 1.0

    def test_unused_category_is_excluded_not_zero(self):
        cats = [{"id": c, "name": f"c{c}", "supercategory": "x"} for c in (1, 3)]
        gt = gt_of([make_ann(1, 1, rect_ring(0, 0, 10, 10))], categories=cats)
        r = evaluate(annotations_as_detections(gt), gt)
        assert r.map == 1.0
        assert r.per_category == {1: 1.0, 3: None}


class TestKnownValues:
    def test_iou_055_matches_exactly_two_thresholds(self):
        gt = gt_of([make_ann(1, 1, rect_ring(0, 0, 10, 10))])
        dets = (det(1, 1, 0.9, [0, 0, 10, 5.5]),)
        r = evaluate(dets, gt)
        assert r.map == 0.2  # AP 1.0 at 0.50 and 0.55, 0 at the other eight
        assert r.map_50 == 1.0

    def test_iou_050_matches_only_the_first_threshold(self):
        # map_50 reads threshold 0.50 alone: 0.55 no longer matches here
        gt = gt_of([make_ann(1, 1, rect_ring(0, 0, 10, 10))])
        r = evaluate((det(1, 1, 0.9, [0, 0, 10, 5]),), gt)
        assert r.map == 0.1 and r.map_50 == 1.0

    def test_fp_ranked_above_tp_halves_ap(self):
        gt = gt_of([make_ann(1, 1, rect_ring(0, 0, 10, 10))])
        dets = (
            det(1, 1, 0.9, [50, 50, 10, 10]),  # miss, ranked first
            det(2, 1, 0.8, [0, 0, 10, 10]),  # hit
        )
        r = evaluate(dets, gt)
        assert r.map == 0.5
        want = ap_oracle([(1, 0.9, 0.0), (2, 0.8, 1.0)], 1, RECALL_POINTS)
        assert r.map == want

    def test_fp_ranked_below_tp_is_free(self):
        # precision is sampled at achieved recall points only, so a trailing
        # false positive cannot lower any sampled value
        gt = gt_of([make_ann(1, 1, rect_ring(0, 0, 10, 10))])
        dets = (
            det(1, 1, 0.9, [0, 0, 10, 10]),
            det(2, 1, 0.8, [50, 50, 10, 10]),
        )
        assert evaluate(dets, gt).map == 1.0

    def test_score_tie_broken_by_ascending_id(self):
        gt = gt_of([make_ann(1, 1, rect_ring(0, 0, 10, 10))])
        dets = (
            det(1, 1, 0.7, [0, 0, 10, 6.2]),  # IoU 0.62, considered first
            det(2, 1, 0.7, [0, 0, 10, 9.6]),  # IoU ~0.96
        )
        r = evaluate(dets, gt)
        # t <= 0.6: det 1 claims the gt, det 2 is the fp -> AP 1.0 (three
        # thresholds); t >= 0.65: det 1 misses, det 2 hits -> AP 0.5 (seven)
        assert r.map == pytest.approx((3 * 1.0 + 7 * 0.5) / 10, abs=1e-12)

    def test_max_detections_truncates_before_matching(self):
        gt = gt_of([make_ann(1, 1, rect_ring(0, 0, 10, 10))])
        dets = (
            det(1, 1, 0.9, [50, 50, 10, 10]),  # kept: highest score
            det(2, 1, 0.8, [0, 0, 10, 10]),  # dropped by max_detections=1
        )
        r = evaluate(dets, gt, EvalParams(max_detections=1))
        assert r.map == 0.0
        assert evaluate(dets, gt).map == 0.5


def full_grid_iou_with_crowd(dt_masks, gt_masks, crowd_flags):
    """The crowd IoU formula on whole-image masks."""
    out = np.zeros((len(dt_masks), len(gt_masks)))
    for i, dm in enumerate(dt_masks):
        for j, gm in enumerate(gt_masks):
            inter = int(np.count_nonzero(dm & gm))
            d_area = int(np.count_nonzero(dm))
            denom = d_area if crowd_flags[j] else d_area + int(np.count_nonzero(gm)) - inter
            out[i, j] = inter / denom if denom > 0 else 0.0
    return out


class TestMaskOverlaps:
    W, H = 64, 48

    def shapes(self, rng, n):
        out = []
        for _ in range(n):
            if rng.uniform() < 0.3:  # an RLE crowd band
                m = np.zeros((self.H, self.W), dtype=bool)
                r0, c0 = int(rng.integers(0, self.H - 4)), int(rng.integers(0, self.W - 4))
                m[r0 : r0 + int(rng.integers(1, 20)), c0 : c0 + int(rng.integers(1, 40))] = True
                out.append(encode_rle(m))
            else:
                rings = random_simple_rings(rng, n_rings=int(rng.integers(1, 3)), width=self.W, height=self.H)
                out.append(Polygons(tuple(tuple(r) for r in rings)))
        return out

    def compare(self, dts, gts, crowd):
        """IoUs of one cell from the run kernel's counts against the crowd
        formula on whole-image masks."""
        ov = count_overlaps([(s, 0) for s in dts], [(s, 0) for s in gts], [(self.W, self.H)])
        inter = np.zeros((len(dts), len(gts)), dtype=np.int64)
        inter[ov.a, ov.b] = ov.inter
        flags = np.array(crowd, dtype=bool).reshape(1, len(gts))
        got = iou(inter, ov.area_a[:, None], ov.area_b[None, :], flags)
        grids = lambda shapes: [mask_of(s, self.W, self.H) for s in shapes]  # noqa: E731
        want = full_grid_iou_with_crowd(grids(dts), grids(gts), crowd)
        assert np.array_equal(got, want)
        return got

    def test_run_overlap_iou_equals_full_grid_iou(self):
        rng = np.random.default_rng(61)
        for _ in range(30):
            dts = self.shapes(rng, int(rng.integers(0, 5)))
            gts = self.shapes(rng, int(rng.integers(0, 5)))
            self.compare(dts, gts, [bool(rng.uniform() < 0.3) for _ in gts])

    def test_disjoint_and_touching_shapes(self):
        left = Polygons((tuple(rect_ring(2, 2, 10, 10)),))
        touching = Polygons((tuple(rect_ring(12, 2, 10, 10)),))  # shares the x = 12 edge
        corner = Polygons((tuple(rect_ring(12, 12, 5, 5)),))  # shares one corner point
        far = Polygons((tuple(rect_ring(40, 30, 8, 8)),))
        band = np.zeros((self.H, self.W), dtype=bool)
        band[2:12, 12:30] = True  # touches `left` along a column boundary
        dts, gts = [left, far], [touching, corner, far, encode_rle(band)]
        for crowd in ([False] * 4, [True] * 4):
            got = self.compare(dts, gts, crowd)
            assert (got[0] == 0.0).all()
            assert got[1, 2] == 1.0

    def test_segm_eval_scores_crowd_overlap_on_runs(self):
        band = np.zeros((100, 100), dtype=bool)
        band[40:60, :] = True
        rle = {"counts": list(encode_rle(band).counts), "size": [100, 100]}
        gt = gt_of([
            make_ann(1, 1, rect_ring(0, 0, 20, 20)),
            make_ann(2, 1, rle, iscrowd=1, bbox=[0, 40, 100, 20], area=2000.0),
        ])
        seg = lambda ring: Polygons((tuple(float(v) for v in ring),))  # noqa: E731
        dets = (
            Detection(1, 1, 1, 0.9, (0.0, 0.0, 20.0, 20.0), seg(rect_ring(0, 0, 20, 20))),
            Detection(2, 1, 1, 0.95, (10.0, 45.0, 10.0, 10.0), seg(rect_ring(10, 45, 10, 10))),
        )
        # the stray detection, ranked first, lies inside the crowd: it is
        # ignored, where a false positive would halve the AP
        assert evaluate(dets, gt, EvalParams(task="segm")).map == 1.0

    def test_detections_that_share_an_id_keep_their_own_shapes(self):
        gt = gt_of([make_ann(1, 1, rect_ring(0, 0, 20, 20)), make_ann(2, 1, rect_ring(50, 50, 20, 20))])
        seg = lambda ring: Polygons((tuple(float(v) for v in ring),))  # noqa: E731
        for ids in ((1, 2), (7, 7)):
            dets = (
                Detection(ids[0], 1, 1, 0.9, (0.0, 0.0, 20.0, 20.0), seg(rect_ring(0, 0, 20, 20))),
                Detection(ids[1], 1, 1, 0.8, (50.0, 50.0, 20.0, 20.0), seg(rect_ring(50, 50, 20, 20))),
            )
            assert evaluate(dets, gt, EvalParams(task="segm")).map == 1.0, ids

    def test_degenerate_ring_raises_only_in_a_cell_with_detections(self):
        seg = lambda ring: Polygons((tuple(float(v) for v in ring),))  # noqa: E731
        gt = gt_of(
            [make_ann(1, 1, rect_ring(0, 0, 20, 20)), make_ann(2, 2, [0, 0, 4, 4], bbox=[0, 0, 4, 4], area=0.0)],
            n_images=2,
        )
        dets = [Detection(1, 1, 1, 0.9, (0.0, 0.0, 20.0, 20.0), seg(rect_ring(0, 0, 20, 20)))]
        # the degenerate ground truth is never rasterized: it only lowers recall
        assert evaluate(tuple(dets), gt, EvalParams(task="segm")).map < 1.0
        dets.append(Detection(2, 2, 1, 0.9, (0.0, 0.0, 4.0, 4.0), seg(rect_ring(0, 0, 4, 4))))
        with pytest.raises(GeometryError, match="^annotation 2 has a degenerate ring with 2 vertices$"):
            evaluate(tuple(dets), gt, EvalParams(task="segm"))


class TestCrowds:
    def test_crowd_absorbs_stray_detection(self):
        base = [make_ann(1, 1, rect_ring(30, 30, 10, 10))]
        dets = (
            det(1, 1, 0.9, [0, 0, 10, 10]),  # stray, ranked first
            det(2, 1, 0.8, [30, 30, 10, 10]),
        )
        without = evaluate(dets, gt_of(base)).map
        with_crowd = evaluate(dets, gt_of(base + [crowd_ann(2, 1, [0, 0, 10, 10])])).map
        assert without == 0.5
        assert with_crowd == 1.0  # the stray is ignored, not a false positive

    def test_crowd_never_decreases_map(self):
        rng = np.random.default_rng(99)
        for _ in range(15):
            anns, dets = [], []
            for i in range(int(rng.integers(1, 4))):
                x, y = int(rng.integers(0, 60)), int(rng.integers(0, 60))
                w, h = int(rng.integers(5, 20)), int(rng.integers(5, 20))
                anns.append(make_ann(i + 1, 1, rect_ring(x, y, w, h)))
            for j in range(int(rng.integers(1, 5))):
                x, y = int(rng.integers(0, 60)), int(rng.integers(0, 60))
                w, h = int(rng.integers(5, 20)), int(rng.integers(5, 20))
                dets.append(det(j + 1, 1, float((j + 1) * 0.11), [x, y, w, h]))
            ds = tuple(dets)
            base = evaluate(ds, gt_of(anns)).map
            cx, cy = int(rng.integers(0, 50)), int(rng.integers(0, 50))
            cw, ch = int(rng.integers(10, 40)), int(rng.integers(10, 40))
            grown = evaluate(ds, gt_of(anns + [crowd_ann(50, 1, [cx, cy, cw, ch])])).map
            assert grown >= base - 1e-12

    def test_crowd_only_category_is_undefined(self):
        gt = gt_of([crowd_ann(1, 1, [0, 0, 10, 10])])
        r = evaluate((det(1, 1, 0.9, [0, 0, 10, 10]),), gt)
        assert r.map is None
        assert r.per_category == {1: None}


class TestAreaStrata:
    def test_boundary_area_counts_in_both_strata(self):
        # stored area exactly 32*32 sits in 'small' [0, 1024] and in
        # 'medium' [1024, 9216]: inclusive protocol bounds on both sides
        gt = gt_of([make_ann(1, 1, rect_ring(0, 0, 32, 32), area=1024)])
        r = evaluate(annotations_as_detections(gt), gt)
        assert r.map_small == 1.0
        assert r.map_medium == 1.0
        assert r.map_large is None

    def test_out_of_range_gt_is_ignored_per_stratum(self):
        gt = gt_of([make_ann(1, 1, rect_ring(0, 0, 10, 10))])  # area 100: small
        r = evaluate(annotations_as_detections(gt), gt)
        assert r.map_small == 1.0
        assert r.map_medium is None and r.map_large is None

    def test_stored_area_places_the_ground_truth(self):
        ann = make_ann(1, 1, rect_ring(0, 0, 10, 10), area=5000.0)  # lies: medium
        gt = gt_of([ann])
        stored = evaluate(annotations_as_detections(gt), gt)
        assert stored.map_medium == 1.0 and stored.map_small is None

    def test_matched_det_outside_stratum_is_ignored_not_fp(self):
        # large gt + its det, plus one small gt + det: the large pair must
        # not pollute the small stratum
        anns = [
            make_ann(1, 1, rect_ring(0, 0, 10, 10)),  # small
            make_ann(2, 1, rect_ring(20, 20, 70, 70)),  # medium (4900)
        ]
        gt = gt_of(anns)
        r = evaluate(annotations_as_detections(gt), gt)
        assert r.map_small == 1.0 and r.map_medium == 1.0


class TestOracleEquivalence:
    def test_random_scenes_match_protocol_transcription(self):
        rng = np.random.default_rng(4242)
        for trial in range(40):
            n_gt = int(rng.integers(1, 5))
            n_dt = int(rng.integers(1, 7))
            gts, crowd_flags = [], []
            for i in range(n_gt):
                x, y = int(rng.integers(0, 70)), int(rng.integers(0, 70))
                w, h = int(rng.integers(4, 26)), int(rng.integers(4, 26))
                is_crowd = bool(rng.random() < 0.25 and i > 0)
                if is_crowd:
                    gts.append(crowd_ann(i + 1, 1, [x, y, w, h]))
                else:
                    gts.append(make_ann(i + 1, 1, rect_ring(x, y, w, h)))
                crowd_flags.append(is_crowd)
            if all(crowd_flags):
                continue
            scores = rng.choice(np.arange(1, 40) / 40.0, size=n_dt, replace=False)
            dets = []
            for j in range(n_dt):
                base = int(rng.integers(0, n_gt))
                bx, by, bw, bh = gts[base]["bbox"]
                dx = float(rng.integers(-4, 5))
                dy = float(rng.integers(-4, 5))
                dets.append(det(j + 1, 1, float(scores[j]), [bx + dx, by + dy, bw, bh]))
            ds = tuple(dets)
            gt = gt_of(gts)
            got = evaluate(ds, gt)

            det_rows = [(d.id, d.score, 0.0) for d in dets]
            gt_rows = [(c, c, 0.0) for c in crowd_flags]  # 'all': ignore==crowd
            bboxes = {d.id: d.bbox for d in dets}

            def iou_fn(det_id, g):
                return box_iou_crowd(bboxes[det_id], tuple(gts[g]["bbox"]), crowd_flags[g])

            n_positive = sum(1 for c in crowd_flags if not c)
            aps = [
                ap_oracle(
                    match_labels_oracle(det_rows, gt_rows, iou_fn, t),
                    n_positive,
                    RECALL_POINTS,
                )
                for t in IOU_THRESHOLDS
            ]
            want = float(np.mean(aps))
            assert got.map == pytest.approx(want, abs=1e-12), f"trial {trial}"

    def test_two_image_scene_matches_oracle(self):
        # distinct scores across images keep the global ranking unambiguous
        gts = {
            1: [make_ann(1, 1, rect_ring(0, 0, 20, 20))],
            2: [make_ann(2, 2, rect_ring(10, 10, 16, 16))],
        }
        gt = gt_of(gts[1] + gts[2], n_images=2)
        dets = [
            det(1, 1, 0.9, [0, 0, 20, 18]),  # IoU 0.9
            det(2, 1, 0.6, [40, 40, 10, 10]),  # miss in image 1
            det(3, 2, 0.8, [10, 10, 16, 15]),  # IoU 15/16
        ]
        got = evaluate(tuple(dets), gt)
        bboxes = {d.id: d.bbox for d in dets}
        all_gts = gts[1] + gts[2]
        by_image = {1: [0], 2: [1]}
        aps = []
        for t in IOU_THRESHOLDS:
            labeled = []
            for img, gt_idx in by_image.items():
                rows = [(d.id, d.score, 0.0) for d in dets if d.image_id == img]
                gt_rows = [(False, False, 0.0) for _ in gt_idx]

                def iou_fn(det_id, g, _img=img, _idx=gt_idx):
                    return box_iou_crowd(
                        bboxes[det_id], tuple(all_gts[_idx[g]]["bbox"]), False
                    )

                labeled.extend(match_labels_oracle(rows, gt_rows, iou_fn, t))
            aps.append(ap_oracle(labeled, 2, RECALL_POINTS))
        assert got.map == pytest.approx(float(np.mean(aps)), abs=1e-12)

    # The batched pass against the transcription, on scenes built to exercise
    # every matching rule, with blocks cut at several sizes.
    SIZE = 300
    # areas 36 and 400 (small), 1024 (small and medium), 2025 (medium), 12100 (large)
    SIDES = (6, 20, 32, 45, 110)

    def scene(self, rng, n_images, n_cats):
        """Clusters of same-size ground truths, each paired with a shifted twin
        so that a detection centred between them has equal IoU with both,
        crowds over some clusters, and detections on, between and near the
        ground truths plus strays. Detection ids follow image order, so the
        oracle's (score, id) ranking is the evaluator's."""
        anns, placed = [], []
        for img in range(1, n_images + 1):
            for cat in range(1, n_cats + 1):
                for _ in range(int(rng.integers(1, 3))):
                    s = int(rng.choice(self.SIDES))
                    x, y = (int(v) for v in rng.integers(2, self.SIZE - 2 * s - 2, size=2))
                    step = int(rng.integers(1, s + 1))
                    twin = rng.random() < 0.7
                    for gx in (x, x + step) if twin else (x,):
                        anns.append(make_ann(len(anns) + 1, img, rect_ring(gx, y, s, s), category_id=cat))
                    if rng.random() < 0.35:
                        crowd = [x - 2, y - 2, s + step + 4, s + 4]
                        anns.append(crowd_ann(len(anns) + 1, img, crowd, self.SIZE, category_id=cat))
                    jx, jy = (int(v) for v in rng.integers(-3, 4, size=2))
                    spots = [
                        [x + step / 2, y, s, s],  # equal IoU with both twins
                        [x, y, s, s],
                        [x + step, y, s, s],
                        [x + jx, y + jy, s, s],
                        [x + 1, y + 1, max(2, s // 3), max(2, s // 3)],  # inside a crowd
                        [float(v) for v in rng.integers(0, self.SIZE - 20, size=2)] + [12, 12],
                    ]
                    for _ in range(int(rng.integers(1, 7))):
                        placed.append((img, cat, spots[int(rng.integers(len(spots)))]))
        scores = rng.choice(np.arange(1, 9) / 8.0, size=len(placed))  # ties across images
        dets = tuple(
            det(i + 1, img, float(scores[i]), box, category_id=cat)
            for i, (img, cat, box) in enumerate(placed)
        )
        return anns, dets

    def oracle(self, anns, dets, n_images, n_cats, max_det):
        """{(category, area range name): AP or None} by the transcription."""
        out = {}
        for name, lo, hi in AREA_RANGES:
            for cat in range(1, n_cats + 1):
                positives = [a for a in anns if a["category_id"] == cat and not a["iscrowd"]
                             and lo <= a["area"] <= hi]
                labeled = [[] for _ in IOU_THRESHOLDS]
                for img in range(1, n_images + 1):
                    gts = [a for a in anns if a["image_id"] == img and a["category_id"] == cat]
                    cell = sorted((d for d in dets if d.image_id == img and d.category_id == cat),
                                  key=lambda d: (-d.score, d.id))[:max_det]
                    det_rows = [(d.id, d.score, float(not lo <= d.bbox[2] * d.bbox[3] <= hi))
                                for d in cell]
                    gt_rows = [(bool(g["iscrowd"]), bool(g["iscrowd"]) or not lo <= g["area"] <= hi, 0.0)
                               for g in gts]
                    boxes = {d.id: d.bbox for d in cell}

                    def iou_fn(det_id, g, _gts=gts, _boxes=boxes):
                        return box_iou_crowd(_boxes[det_id], tuple(_gts[g]["bbox"]), bool(_gts[g]["iscrowd"]))

                    for ti, t in enumerate(IOU_THRESHOLDS):
                        labeled[ti].extend(match_labels_oracle(det_rows, gt_rows, iou_fn, t))
                out[cat, name] = (
                    float(np.mean([ap_oracle(rows, len(positives), RECALL_POINTS) for rows in labeled]))
                    if positives else None
                )
        return out

    def test_random_scenes_match_oracle_at_every_block_size(self, monkeypatch):
        import annodiff.deteval as deteval

        rng = np.random.default_rng(2718)
        for trial in range(24):
            n_images, n_cats = int(rng.integers(1, 4)), int(rng.integers(1, 3))
            anns, dets = self.scene(rng, n_images, n_cats)
            cats = [{"id": c, "name": f"c{c}", "supercategory": "x"} for c in range(1, n_cats + 1)]
            gt = gt_of(anns, n_images=n_images, size=self.SIZE, categories=cats)
            max_det = 3 if trial % 2 else 100
            results = []
            for block in (1, 41, 997):
                monkeypatch.setattr(deteval, "_BLOCK", block)
                results.append(evaluate(dets, gt, EvalParams(max_detections=max_det)))
            assert results[0] == results[1] == results[2], f"trial {trial}"
            got = results[0]
            want = self.oracle(anns, dets, n_images, n_cats, max_det)
            for cat in range(1, n_cats + 1):
                assert got.per_category[cat] == pytest.approx(want[cat, "all"], abs=1e-12), f"trial {trial}"
            for name, value in (("small", got.map_small), ("medium", got.map_medium), ("large", got.map_large)):
                defined = [want[cat, name] for cat in range(1, n_cats + 1) if want[cat, name] is not None]
                assert value == (pytest.approx(float(np.mean(defined)), abs=1e-12) if defined else None), (
                    f"trial {trial} {name}"
                )

    def test_cell_over_the_cap_is_its_own_block(self, monkeypatch):
        import annodiff.deteval as deteval

        calls = []
        real = deteval._match_image
        monkeypatch.setattr(deteval, "_match_image", lambda *a: calls.append(a[1].shape) or real(*a))
        monkeypatch.setattr(deteval, "_BLOCK", 1)
        gt = gt_of([make_ann(i + 1, 1 + i % 3, rect_ring(10 * i, 0, 8, 8)) for i in range(6)], n_images=3)
        dets = tuple(det(i + 1, 1 + i % 3, 0.9, [10 * i, 0, 8, 8]) for i in range(6))
        assert evaluate(dets, gt).map == 1.0
        assert calls == [(1, 2, 2)] * 3  # one (C, D, G) block per cell


def dense_scene():
    """One image with 1,000 ground truths and 100 detections, and 300 images
    with one ground truth and 100 detections each."""
    rng = np.random.default_rng(5)
    anns = [
        make_ann(i + 1, 1, rect_ring(*(int(v) for v in rng.integers(0, 900, size=2)),
                                     *(int(v) for v in rng.integers(4, 90, size=2))))
        for i in range(1000)
    ]
    anns += [make_ann(1000 + img, img, rect_ring(100, 100, 40, 40)) for img in range(2, 302)]
    gt = parse_dataset(make_coco(make_images(301, 1000, 1000), anns))
    dets = []
    for img in range(1, 302):
        for _ in range(100):
            if img == 1:
                x, y = (float(v) for v in rng.integers(0, 900, size=2))
            else:
                x, y = (100.0 + float(v) for v in rng.integers(-30, 30, size=2))
            w, h = (float(v) for v in rng.integers(4, 90, size=2))
            dets.append(det(len(dets) + 1, img, float(rng.random()), [x, y, w, h]))
    return tuple(dets), gt


class TestMemoryBound:
    def test_dense_scene_peak_stays_under_32_mb(self):
        dets, gt = dense_scene()
        tracemalloc.start()
        try:
            result = evaluate(dets, gt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.map is not None
        assert peak < 32 * 2**20, f"peak {peak / 2**20:.1f} MB"

    def test_dense_scene_block_count(self, monkeypatch):
        # a block is charged for the arrays its greedy pass allocates: cells
        # with 100 detections and one ground truth pack 8 to a block
        import annodiff.deteval as deteval

        calls = []
        real = deteval._match_image
        monkeypatch.setattr(deteval, "_match_image", lambda *a: calls.append(a[1].shape) or real(*a))
        dets, gt = dense_scene()
        evaluate(dets, gt)
        assert len(calls) == 39
        assert calls[:-1] == [(8, 100, 1)] * 37 + [(4, 100, 1)]
        assert calls[-1] == (1, 100, 1000)


def blocks_cell_by_cell(n_dt, n_gt, width, cap):
    """The block cut, one cell at a time: cells sorted by detection count,
    then ground-truth count, a block cut before its count of C x max(D*G,
    width*max(G, D)) would pass ``cap``."""
    cells = sorted((int(d), int(g), c) for c, (d, g) in enumerate(zip(n_dt, n_gt)) if d)
    blocks, block, g_max = [], [], 0
    for d, g, c in cells:
        g = max(g_max, g)
        if block and (len(block) + 1) * max(d * g, width * max(g, d)) > cap:
            blocks.append(block)
            block, g = [], int(n_gt[c])
        block.append(c)
        g_max = g
    return blocks + [block] if block else blocks


def test_blocks_are_cut_as_cell_by_cell(monkeypatch):
    import annodiff.deteval as deteval

    rng = np.random.default_rng(17)
    for trial in range(300):
        # many small cells fill a block up to its cap on the cell count
        n, most = int(rng.integers(0, 1000)), int(rng.choice([2, 3, 10, 120]))
        n_dt = rng.integers(0, most, size=n) * (rng.random(n) < 0.8)
        n_gt = rng.integers(0, most, size=n)
        cap, width = int(rng.choice([1, 41, 997, 2**12, 2**15])), int(rng.choice([1, 3, 40]))
        monkeypatch.setattr(deteval, "_BLOCK", cap)
        got = [block.tolist() for block in deteval._blocks(n_dt, n_gt, width)]
        assert got == blocks_cell_by_cell(n_dt, n_gt, width, cap), f"trial {trial}"


def match_row_by_row(thresholds, ious, gt_ignore, crowd):
    """The greedy pass on one row per (cell, area range, threshold): the
    reference for the pass that runs each distinct problem once. Returns
    ``matched`` and ``matched_ignore``, both (C, A, T, D)."""
    C, D, G = ious.shape
    A, T = gt_ignore.shape[1], len(thresholds)
    values, rank = np.unique(ious[:, :, ::-1], return_inverse=True)
    rank = rank.reshape(C, D, 1, 1, G)
    ignore = gt_ignore[:, :, ::-1]
    lift = np.where(ignore, 0, values.size)[:, :, None, :]  # (C, A, 1, G)
    floor = np.searchsorted(values, np.minimum(thresholds, 1.0 - 1e-10))[:, None]  # (T, 1)
    free = np.ones((C, A, T, G), dtype=bool)
    rows = np.arange(C * A * T)
    row_crowd = np.repeat(crowd[:, ::-1], A * T, axis=0)
    taken = np.empty((D, rows.size), dtype=np.intp)
    for d in range(D):
        r = rank[:, d]
        key = np.where((r >= floor) & free, r + lift, -1).reshape(-1, G)
        m = key.argmax(axis=1)
        hit = key[rows, m] >= 0
        taken[d] = np.where(hit, m, -1)
        grab = rows[hit & ~row_crowd[rows, m]]
        free.reshape(-1, G)[grab, m[grab]] = False
    taken = taken.T.reshape(C, A, T * D)
    on_ignore = np.take_along_axis(ignore, np.maximum(taken, 0), axis=2)
    matched = taken >= 0
    return matched.reshape(C, A, T, D), (matched & on_ignore).reshape(C, A, T, D)


def random_block(rng, C, D, G):
    """A padded block as ``_score`` builds it, with IoUs drawn from a small
    pool so that ties are common: each threshold exactly, just below each,
    1 - 1e-10, 1.0, 0.0 and a few others. Each cell's ranges have all, none
    or some ground truths ignored, a crowd is ignored in every range, and
    padding is -1, ignored and not a crowd."""
    below = [float(np.nextafter(t, 0.0)) for t in IOU_THRESHOLDS]
    pool = np.array([*IOU_THRESHOLDS, *below, 1 - 1e-10, 1.0, 0.0, 0.3, 0.97])
    pool = pool[rng.choice(pool.size, size=int(rng.integers(2, 8)), replace=False)]
    n_dt = rng.integers(1, D + 1, size=C)
    n_gt = rng.integers(0, G + 1, size=C)
    dt_ok = np.arange(D) < n_dt[:, None]
    gt_ok = np.arange(G) < n_gt[:, None]
    ok = dt_ok[:, :, None] & gt_ok[:, None, :]
    ious = np.where(ok, rng.choice(pool, size=(C, D, G)), -1.0)
    crowd = gt_ok & (rng.random((C, G)) < 0.2)
    mode = rng.integers(0, 3, size=(C, len(AREA_RANGES), 1))  # all, none, some
    flags = np.where(mode == 0, True, np.where(mode == 1, False, rng.random((C, len(AREA_RANGES), G)) < 0.5))
    ignore = flags | crowd[:, None, :] | ~gt_ok[:, None, :]
    return ious, ignore, crowd, dt_ok, gt_ok


class TestDistinctProblems:
    def test_match_image_equals_row_by_row(self):
        import annodiff.deteval as deteval

        rng = np.random.default_rng(4099)
        for trial in range(400):
            C, D, G = (int(v) for v in rng.integers(1, [9, 6, 6]))
            ious, ignore, crowd, dt_ok, gt_ok = random_block(rng, C, D, G)
            want = match_row_by_row(IOU_THRESHOLDS, ious, ignore, crowd)
            got = deteval._match_image(IOU_THRESHOLDS, ious, ignore, crowd, dt_ok, gt_ok)
            for g, w in zip(got, want):
                np.testing.assert_array_equal(g, w.transpose(0, 3, 1, 2)[dt_ok], err_msg=f"trial {trial}")

    def test_every_threshold_edge_is_its_own_problem(self):
        # IoUs on each threshold, just below it, on 1 - 1e-10 and on 1.0
        import annodiff.deteval as deteval

        edges = [*IOU_THRESHOLDS, *(float(np.nextafter(t, 0.0)) for t in IOU_THRESHOLDS), 1 - 1e-10, 1.0]
        C = len(edges)
        ious = np.array(edges).reshape(C, 1, 1)
        ignore = np.zeros((C, len(AREA_RANGES), 1), dtype=bool)
        crowd = np.zeros((C, 1), dtype=bool)
        ok = np.ones((C, 1), dtype=bool)
        matched, _ = deteval._match_image(IOU_THRESHOLDS, ious, ignore, crowd, ok, ok)
        want, _ = match_row_by_row(IOU_THRESHOLDS, ious, ignore, crowd)
        np.testing.assert_array_equal(matched, want.transpose(0, 3, 1, 2)[:, 0])
        # each IoU matches at the thresholds at or below it; 1 - 1e-10 and 1.0 at all
        counts = matched[:, 0].sum(axis=1)
        assert counts.tolist() == [*range(1, 11), *range(0, 10), 10, 10]

    @staticmethod
    def count_rows(monkeypatch) -> list:
        """Per block, the rows that enter the rank loop and the (cell, area
        range, threshold) entries they serve."""
        import annodiff.deteval as deteval

        counts = []
        real = deteval._problems

        def count(*args):
            rows, problem = real(*args)
            counts.append((rows.size, problem.size))
            return rows, problem

        monkeypatch.setattr(deteval, "_problems", count)
        return counts

    def test_block_of_clear_matches_runs_one_row_per_cell(self, monkeypatch):
        # every cell has one IoU above 0.95 and no ignore region: all ten
        # thresholds and all four ranges pose one problem
        counts = self.count_rows(monkeypatch)
        n = 30
        gt = gt_of([make_ann(i + 1, i + 1, rect_ring(10, 10, 40, 40)) for i in range(n)], n_images=n)
        dets = tuple(det(i + 1, i + 1, 0.9, [10, 10, 40, 39]) for i in range(n))
        assert evaluate(dets, gt).map == 1.0
        assert [sum(c) for c in zip(*counts)] == [n, n * len(AREA_RANGES) * len(IOU_THRESHOLDS)]

    def test_fixture_poses_an_eighth_of_the_rows(self, synthetic_a, synthetic_b, monkeypatch):
        counts = self.count_rows(monkeypatch)
        cross_table(synthetic_a, synthetic_b, ("bbox", "segm"))
        rows, entries = (sum(c) for c in zip(*counts))
        assert 8 * rows <= entries


def sampled_precision_row_by_row(tp, fp, n_positive, rec_thrs):
    """``_sampled_precision`` with one ``np.searchsorted`` per threshold row."""
    tps = np.cumsum(tp, axis=1, dtype=np.float64)
    fps = np.cumsum(fp, axis=1, dtype=np.float64)
    rc = tps / n_positive
    fps += tps
    pr = np.zeros((tps.shape[0], tps.shape[1] + 1), dtype=np.float64)
    np.divide(tps, fps, out=pr[:, :-1], where=fps > 0)
    pr = np.maximum.accumulate(pr[:, ::-1], axis=1)[:, ::-1]
    hits = np.array([np.searchsorted(row, rec_thrs, side="left") for row in rc])
    return np.take_along_axis(pr, hits, axis=1)


@pytest.mark.parametrize("n_positive", [4, 10, 20, 100])
def test_sampled_precision_equals_row_by_row(n_positive):
    # with these counts some recalls land exactly on recall points; a row
    # of false positives reaches none past the first
    import annodiff.deteval as deteval

    rng = np.random.default_rng(n_positive)
    rec_thrs = np.asarray(RECALL_POINTS, dtype=np.float64)
    for trial in range(60):
        n = int(rng.integers(0, 3 * n_positive))
        tp = np.zeros((len(IOU_THRESHOLDS), n), dtype=bool)
        for row in tp[1:]:
            hits = rng.choice(n, size=min(n, int(rng.integers(0, n_positive + 1))), replace=False)
            row[hits] = True
        fp = ~tp & (rng.random(tp.shape) < 0.7)
        got = deteval._sampled_precision(tp, fp, n_positive, rec_thrs)
        want = sampled_precision_row_by_row(tp, fp, n_positive, rec_thrs)
        assert got.tobytes() == want.tobytes(), f"trial {trial}"


class TestCrossTable:
    def test_symmetric_for_shifted_twins(self, tiny_a, tiny_b):
        table = cross_table(tiny_a, tiny_b)
        assert set(table) == {"bbox"}
        fwd, rev = table["bbox"]["a_vs_b"], table["bbox"]["b_vs_a"]
        assert fwd.map is not None
        # note: not expected to be exactly equal in general (crowds and
        # instance counts differ per side); check both directions scored
        assert rev.map is not None

    def test_shifted_singletons_score_identically_both_ways(self):
        a_anns = [make_ann(i + 1, i + 1, rect_ring(10, 10, 20, 20)) for i in range(3)]
        b_anns = [make_ann(i + 1, i + 1, rect_ring(11, 10, 20, 20)) for i in range(3)]
        a = gt_of(a_anns, n_images=3)
        b = gt_of(b_anns, n_images=3)
        table = cross_table(a, b, tasks=("bbox", "segm"))
        assert set(table) == {"bbox", "segm"}
        for task in table:
            assert table[task]["a_vs_b"].map == table[task]["b_vs_a"].map

    def test_self_cross_table_is_perfect(self, synthetic_a):
        table = cross_table(synthetic_a, synthetic_a)
        assert table["bbox"]["a_vs_b"].map == 1.0
        assert table["bbox"]["b_vs_a"].map == 1.0

    def test_cells_are_built_once_per_direction_for_both_tasks(self, monkeypatch, synthetic_a, synthetic_b):
        calls = []
        cells = deteval._cells
        monkeypatch.setattr(deteval, "_cells", lambda *args: calls.append(args) or cells(*args))
        both = cross_table(synthetic_a, synthetic_b, ("bbox", "segm"))
        assert len(calls) == 2
        assert both == {task: cross_table(synthetic_a, synthetic_b, (task,))[task] for task in ("bbox", "segm")}

    @staticmethod
    def both_evaluations(a, b, params):
        return {
            "a_vs_b": evaluate(annotations_as_detections(a), b, params),
            "b_vs_a": evaluate(annotations_as_detections(b), a, params),
        }

    @pytest.mark.parametrize("max_det", [1, 2, 100])
    def test_bbox_table_equals_the_two_evaluations_on_the_fixture(self, synthetic_a, synthetic_b, max_det):
        p = EvalParams(max_detections=max_det)
        table = cross_table(synthetic_a, synthetic_b, ("bbox",), max_detections=max_det)["bbox"]
        assert table == self.both_evaluations(synthetic_a, synthetic_b, p)

    def test_bbox_table_equals_the_two_evaluations_on_random_scenes(self):
        # crowds on both sides, three categories of which each side may lack
        # one, images that only one side has, and boxes near one another so
        # that the detection cap decides matches
        rng = np.random.default_rng(311)
        for trial in range(20):
            sides, n_images = [], int(rng.integers(1, 5))
            for first_id, first_cat in ((1, 1), (900, 2)):
                images = n_images - int(n_images > 1 and rng.random() < 0.2)
                cats = [{"id": c, "name": f"c{c}", "supercategory": "x"} for c in range(first_cat, first_cat + 3)]
                anns = []
                for img in range(1, images + 1):
                    for _ in range(int(rng.integers(0, 8))):
                        x, y = (int(v) for v in rng.integers(0, 60, size=2))
                        w, h = (int(v) for v in rng.integers(2, 40, size=2))
                        # categories 2 and 3 are on both sides, 1 and 4 on one
                        cat = first_cat if rng.random() < 0.03 else int(rng.integers(2, 4))
                        ann_id = first_id + int(rng.integers(0, 10_000))
                        if any(ann["id"] == ann_id for ann in anns):
                            continue
                        if rng.random() < 0.2:
                            anns.append(crowd_ann(ann_id, img, [x, y, w, h], category_id=cat))
                        else:
                            anns.append(make_ann(ann_id, img, rect_ring(x, y, w, h), category_id=cat))
                sides.append(gt_of(anns, n_images=images, categories=cats))
            a, b = sides
            for max_det in (1, 2, 100):
                p = EvalParams(max_detections=max_det)
                try:
                    want = self.both_evaluations(a, b, p)
                except EvalError as exc:
                    with pytest.raises(EvalError, match=f"^{exc}$"):
                        cross_table(a, b, ("bbox",), max_detections=max_det)
                    continue
                assert cross_table(a, b, ("bbox",), max_detections=max_det)["bbox"] == want, f"trial {trial}"

    @pytest.mark.parametrize("max_det", [100, 2])
    def test_segm_table_equals_the_two_evaluations_on_the_fixture(self, synthetic_a, synthetic_b, max_det):
        p = EvalParams(task="segm", max_detections=max_det)
        table = cross_table(synthetic_a, synthetic_b, ("segm",), max_detections=max_det)["segm"]
        assert table == self.both_evaluations(synthetic_a, synthetic_b, p)

    def test_ids_beyond_int64_rank_as_their_order_does(self, synthetic_a, synthetic_b):
        # max_detections 1 keeps each cell's detection of lowest id; the ids
        # are drawn out of input order, and the huge ones differ by less
        # than a float64 tells apart
        p = EvalParams(max_detections=1)
        dets = annotations_as_detections(synthetic_a)
        ids = np.random.default_rng(1).permutation(len(dets)).tolist()
        want = evaluate([d._replace(id=1 + k) for d, k in zip(dets, ids)], synthetic_b, p)
        assert evaluate([d._replace(id=2**70 + k) for d, k in zip(dets, ids)], synthetic_b, p) == want
        assert evaluate(dets, synthetic_b, p) != want  # the id order decides

        def shifted(name, shift):
            coco = json.loads((FIXTURES / name).read_text())
            for img in coco["images"]:
                img["id"] += 2**70
            for ann in coco["annotations"]:
                ann["id"] += shift
                ann["image_id"] += 2**70
            return parse_dataset(json.dumps(coco))

        a, b = shifted("synthetic_a.json", 2**70), shifted("synthetic_b.json", -(2**70))
        want = cross_table(synthetic_a, synthetic_b, ("bbox", "segm"), max_detections=1)
        assert cross_table(a, b, ("bbox", "segm"), max_detections=1) == want

    def test_segm_table_equals_the_two_evaluations_on_random_scenes(self, monkeypatch):
        import annodiff.raster as raster

        def dataset(sizes, anns):
            images = [{"id": i, "width": w, "height": h, "file_name": f"{i}.jpg"} for i, (w, h) in enumerate(sizes, 1)]
            cats = [{"id": c, "name": f"c{c}", "supercategory": "x"} for c in (1, 2)]
            return parse_dataset(make_coco(images, anns, categories=cats))

        def crowd(rng, ann_id, img, w, h):
            m = np.zeros((h, w), dtype=bool)
            m[: int(rng.integers(1, h)), : int(rng.integers(1, w))] = True
            rle = {"counts": list(encode_rle(m).counts), "size": [h, w]}
            return make_ann(ann_id, img, rle, category_id=int(rng.integers(1, 3)), iscrowd=1,
                            bbox=[0, 0, w, h], area=float(m.sum()))

        rng = np.random.default_rng(97)
        for trial in range(12):
            sizes_a = [(64, 48), (40, 40), (50, 30)]
            # image 3 has another size in b: each direction rasterizes on
            # its own ground truth's grid
            sizes_b = sizes_a[:2] + [(30, 50)]
            anns_a, anns_b = [], []
            for img, (w, h) in enumerate(sizes_a, 1):
                for _ in range(int(rng.integers(0, 6))):
                    rings = random_simple_rings(rng, n_rings=int(rng.integers(1, 3)), width=w, height=h)
                    cat = int(rng.integers(1, 3))
                    anns_a.append(make_ann(len(anns_a) + 1, img, rings, category_id=cat))
                    if rng.uniform() < 0.8:  # b's twin, shifted by up to a pixel
                        dx, dy = (float(v) for v in rng.uniform(-1, 1, size=2))
                        twin = [[v + (dx if k % 2 == 0 else dy) for k, v in enumerate(r)] for r in rings]
                        anns_b.append(make_ann(1000 + len(anns_b), img, twin, category_id=cat))
                for anns, (cw, ch), first in ((anns_a, (w, h), 500), (anns_b, sizes_b[img - 1], 2000)):
                    if rng.uniform() < 0.5:
                        anns.append(crowd(rng, first + len(anns), img, cw, ch))
            a, b = dataset(sizes_a, anns_a), dataset(sizes_b, anns_b)
            p = EvalParams(task="segm", max_detections=2 if trial % 3 == 0 else 100)
            want = self.both_evaluations(a, b, p)
            assert want["a_vs_b"].map is not None
            for cap in (1, 7, raster._CHUNK):
                monkeypatch.setattr(raster, "_CHUNK", cap)
                assert cross_table(a, b, ("segm",), max_detections=p.max_detections)["segm"] == want, f"trial {trial}"


class TestEvalErrors:
    """A detection's fault is named by the first faulty detection in input
    order, whatever its cell or score; a detection's category is checked
    before its image, and its image before its segmentation."""

    @staticmethod
    def gt_two_images():
        return gt_of([make_ann(1, 1, rect_ring(0, 0, 5, 5)), make_ann(2, 2, rect_ring(0, 0, 5, 5))], n_images=2)

    def test_unknown_image_is_named_before_a_later_unknown_category(self):
        dets = [det(i, 2, 0.9, [0, 0, 5, 5]) for i in (10, 9, 8, 7, 6, 5)]
        dets[1] = det(9, 7, 0.1, [0, 0, 5, 5])  # position 2: unknown image
        dets[4] = det(6, 1, 0.99, [0, 0, 5, 5], category_id=9)  # position 5: unknown category
        with pytest.raises(EvalError, match="^detection 9 has unknown image 7$"):
            evaluate(tuple(dets), self.gt_two_images())

    def test_a_detection_with_both_faults_gets_the_category_message(self):
        dets = (det(1, 1, 0.5, [0, 0, 5, 5]), det(2, 7, 0.5, [0, 0, 5, 5], category_id=9))
        with pytest.raises(EvalError, match="^detection 2 has unknown category 9$"):
            evaluate(dets, self.gt_two_images())

    def test_a_missing_segmentation_is_named_in_position_order(self):
        seg = Polygons((tuple(float(v) for v in rect_ring(0, 0, 5, 5)),))
        dets = (
            Detection(4, 2, 1, 0.9, (0.0, 0.0, 5.0, 5.0), seg),
            Detection(8, 2, 1, 0.2, (0.0, 0.0, 5.0, 5.0)),  # the first without one
            Detection(3, 1, 1, 0.9, (0.0, 0.0, 5.0, 5.0)),  # an earlier cell, a lower id
            Detection(5, 1, 9, 0.9, (0.0, 0.0, 5.0, 5.0), seg),  # an unknown category
        )
        with pytest.raises(EvalError, match="^detection 8 has no segmentation \\(segm task\\)$"):
            evaluate(dets, self.gt_two_images(), EvalParams(task="segm"))
        # the bbox task needs none: the unknown category comes first
        with pytest.raises(EvalError, match="^detection 5 has unknown category 9$"):
            evaluate(dets, self.gt_two_images())

    def test_degenerate_rings_on_both_sides_name_the_detection_side(self):
        # one overlap count holds a's shapes on one side and b's on the
        # other; a's is named, though b's has a lower id, an earlier image
        # and an earlier place in its file
        two = [[0, 0, 4, 4]]  # a ring of 2 vertices
        a = gt_of([make_ann(1, 1, rect_ring(0, 0, 20, 20)), make_ann(50, 2, two, bbox=[0, 0, 4, 4])], n_images=2)
        b = gt_of([make_ann(3, 1, two, bbox=[0, 0, 4, 4]), make_ann(4, 2, rect_ring(0, 0, 4, 4))], n_images=2)
        with pytest.raises(GeometryError, match="^annotation 50 has a degenerate ring with 2 vertices$"):
            cross_table(a, b, ("segm",))
        with pytest.raises(GeometryError, match="^annotation 3 has a degenerate ring with 2 vertices$"):
            cross_table(b, a, ("segm",))
        with pytest.raises(GeometryError, match="^annotation 50 has a degenerate ring with 2 vertices$"):
            evaluate(annotations_as_detections(a), b, EvalParams(task="segm"))

    def test_mixed_shape_faults_name_the_first_by_position(self):
        # a's shapes are side a of the one overlap count and b's side b; the
        # first faulty shape is named, whatever its kind
        two = [[0, 0, 4, 4]]  # a ring of 2 vertices
        a = gt_of([make_ann(1, 1, rect_ring(0, 0, 20, 20)), make_ann(2, 1, two, bbox=[0, 0, 4, 4])])
        b = gt_of([make_ann(3, 1, rect_ring(0, 0, 20, 20)), crowd_ann(4, 1, [0, 0, 10, 10], size=50)])
        with pytest.raises(GeometryError, match="^annotation 2 has a degenerate ring with 2 vertices$"):
            cross_table(a, b, ("segm",))
        with pytest.raises(GeometryError, match="^annotation 2 has a degenerate ring with 2 vertices$"):
            evaluate(annotations_as_detections(a), b, EvalParams(task="segm"))
        with pytest.raises(GeometryError, match="^annotation 4 RLE grid 50x50 != image 100x100$"):
            cross_table(b, a, ("segm",))

    def test_unknown_category(self):
        gt = gt_of([make_ann(1, 1, rect_ring(0, 0, 5, 5))])
        with pytest.raises(EvalError, match="category 9"):
            evaluate((det(1, 1, 0.5, [0, 0, 5, 5], category_id=9),), gt)

    def test_unknown_image(self):
        gt = gt_of([make_ann(1, 1, rect_ring(0, 0, 5, 5))])
        with pytest.raises(EvalError, match="image 7"):
            evaluate((det(1, 7, 0.5, [0, 0, 5, 5]),), gt)

    def test_segm_task_needs_segmentation(self):
        gt = gt_of([make_ann(1, 1, rect_ring(0, 0, 5, 5))])
        with pytest.raises(EvalError, match="no segmentation"):
            evaluate(
                (det(1, 1, 0.5, [0, 0, 5, 5]),), gt, EvalParams(task="segm")
            )


class TestResultJson:
    def test_key_names_and_order(self, tiny_a):
        r = evaluate(annotations_as_detections(tiny_a), tiny_a)
        doc = r.to_json()
        assert list(doc) == [
            "task", "mAP", "mAP@50", "mAP Large", "mAP Medium", "mAP Small",
            "per_category",
        ]
        assert doc["task"] == "bbox"
        assert doc["mAP"] == 1.0
        assert doc["per_category"] == {"1": 1.0, "2": 1.0}

    def test_annotations_as_detections_drops_crowds(self, tiny_a):
        ds = annotations_as_detections(tiny_a)
        assert [d.id for d in ds] == [1, 2, 3, 4]
        assert all(d.score == 1.0 for d in ds)
