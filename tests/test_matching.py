import json
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import annodiff.matching as matching
from annodiff.dataset import parse_dataset, single_polygon_view
from annodiff.matching import MatchConfig, MatchSet, match_datasets, match_image, pairs_to_ndjson
from annodiff.raster import box_iou, mask_iou, rasterize

from conftest import make_ann, make_coco, make_images, rect_ring
from oracles import best_assignment


def inst(ds, ann_id):
    return ds.instance(ann_id)


def scene(src_anns, tgt_anns, n_images=1):
    a = parse_dataset(make_coco(make_images(n_images), src_anns))
    b = parse_dataset(make_coco(make_images(n_images), tgt_anns))
    return a, b


class TestThreshold:
    def test_iou_exactly_at_threshold_is_excluded(self):
        # identical boxes => IoU 1.0; shrink until IoU == 0.8 exactly: a 10x8
        # box inside a 10x10 box gives 80/100.
        src = [make_ann(1, 1, rect_ring(0, 0, 10, 10))]
        tgt = [make_ann(1, 1, rect_ring(0, 0, 10, 8))]
        a, b = scene(src, tgt)
        assert box_iou(a.instance(1).bbox, b.instance(1).bbox) == 0.8
        strict = match_datasets(a, b, MatchConfig(iou_threshold=0.8))
        assert strict.pairs == []
        below = match_datasets(a, b, MatchConfig(iou_threshold=0.79))
        assert len(below.pairs) == 1

    def test_default_threshold_is_090(self):
        assert MatchConfig().iou_threshold == 0.90

    def test_bad_threshold_rejected(self):
        with pytest.raises(ValueError):
            MatchConfig(iou_threshold=0.0)
        with pytest.raises(ValueError):
            MatchConfig(iou_threshold=1.2)


class TestGreedy:
    def test_one_to_one(self):
        # two sources over one target: only the better one wins
        src = [
            make_ann(1, 1, rect_ring(0, 0, 20, 20)),
            make_ann(2, 1, rect_ring(0, 0, 20, 19)),
        ]
        tgt = [make_ann(7, 1, rect_ring(0, 0, 20, 20))]
        a, b = scene(src, tgt)
        ms = match_datasets(a, b, MatchConfig(iou_threshold=0.5))
        assert [(p.source_instance_id, p.target_instance_id) for p in ms.pairs] == [(1, 7)]
        assert ms.unmatched_source == [2]

    def test_tie_broken_by_ascending_ids(self):
        # both sources have identical geometry => equal IoU against the target
        src = [
            make_ann(5, 1, rect_ring(0, 0, 10, 10)),
            make_ann(3, 1, rect_ring(0, 0, 10, 10)),
        ]
        tgt = [make_ann(9, 1, rect_ring(0, 0, 10, 10))]
        a, b = scene(src, tgt)
        ms = match_datasets(a, b, MatchConfig(iou_threshold=0.5))
        assert ms.pairs[0].source_instance_id == 3
        assert ms.unmatched_source == [5]

    def test_greedy_prefers_global_best_first(self):
        # cross pairing: s1/t1 overlap 0.95, s1/t2 0.92, s2/t2 0.93.
        # greedy takes (s1,t1) then (s2,t2).
        src = [
            make_ann(1, 1, rect_ring(0, 0, 100, 20)),
            make_ann(2, 1, rect_ring(0, 40, 100, 20)),
        ]
        tgt = [
            make_ann(1, 1, rect_ring(0, 0, 100, 19)),
            make_ann(2, 1, rect_ring(0, 40, 100, 18.6)),
        ]
        a, b = scene(src, tgt)
        ms = match_datasets(a, b, MatchConfig(iou_threshold=0.5))
        got = {(p.source_instance_id, p.target_instance_id) for p in ms.pairs}
        assert got == {(1, 1), (2, 2)}

    def test_matches_equal_optimal_on_conflict_free_scenes(self):
        # disjoint source boxes, each target a jittered twin of one source:
        # greedy must recover exactly the optimal assignment.
        rng = random.Random(11)
        for _ in range(25):
            n = rng.randint(1, 6)
            src, tgt = [], []
            for k in range(n):
                x, y = 30 * k, 10
                w, h = rng.randint(12, 20), rng.randint(12, 20)
                src.append(make_ann(k + 1, 1, rect_ring(x, y, w, h)))
                if rng.random() < 0.8:
                    tgt.append(make_ann(100 + k, 1, rect_ring(x, y, w, h - 0.2)))
            a, b = scene(src, tgt, n_images=1)
            thr = 0.9
            ms = match_datasets(a, b, MatchConfig(iou_threshold=thr))
            iou = np.array(
                [[box_iou(s.bbox, t.bbox) for t in b.instances] for s in a.instances]
            )
            count, total = best_assignment(iou, thr)
            assert len(ms.pairs) == count
            assert sum(p.iou for p in ms.pairs) == pytest.approx(total, abs=1e-12)
            # conflict-free: every target must pair with its own twin
            assert all(p.target_instance_id == p.source_instance_id + 99 for p in ms.pairs)

    def test_permutation_invariance(self):
        rng = random.Random(4)
        src = [make_ann(i + 1, 1, rect_ring(25 * i, 0, 20, 20)) for i in range(4)]
        tgt = [make_ann(50 + i, 1, rect_ring(25 * i, 0, 20, 19)) for i in range(4)]
        a, b = scene(src, tgt)
        base = match_image(list(a.instances), list(b.instances), MatchConfig(iou_threshold=0.5))
        for _ in range(5):
            s2, t2 = list(a.instances), list(b.instances)
            rng.shuffle(s2)
            rng.shuffle(t2)
            again = match_image(s2, t2, MatchConfig(iou_threshold=0.5))
            assert again.pairs == base.pairs
            assert again.unmatched_source == base.unmatched_source


class TestEligibilityAndModes:
    def test_category_gate(self):
        src = [make_ann(1, 1, rect_ring(0, 0, 10, 10), category_id=1)]
        tgt = [make_ann(2, 1, rect_ring(0, 0, 10, 10), category_id=2)]
        a, b = scene(src, tgt)
        assert match_datasets(a, b).pairs == []
        loose = match_datasets(a, b, MatchConfig(same_category_required=False))
        assert len(loose.pairs) == 1
        assert loose.pairs[0].category_id == 1  # source side is reported

    def test_crowd_and_multiring_are_ineligible(self, tiny_a, tiny_b):
        ms = match_datasets(tiny_a, tiny_b)
        assert ms.ineligible_source == [4, 5]  # two-ring, crowd
        assert ms.ineligible_target == []

    def test_tiny_pair_matches(self, tiny_a, tiny_b):
        ms = match_datasets(tiny_a, tiny_b)
        got = {(p.source_instance_id, p.target_instance_id): p.iou for p in ms.pairs}
        assert set(got) == {(1, 101), (2, 102), (3, 103)}
        assert got[(1, 101)] == pytest.approx(0.975609756097561, abs=1e-12)
        assert got[(2, 102)] == pytest.approx(0.9070294784580499, abs=1e-12)
        assert got[(3, 103)] == pytest.approx(0.9523809523809523, abs=1e-12)

    def test_mask_mode_differs_from_box_mode(self, tiny_a, tiny_b):
        box = match_datasets(tiny_a, tiny_b, MatchConfig(iou_mode="box"))
        mask = match_datasets(tiny_a, tiny_b, MatchConfig(iou_mode="mask"))
        assert {p.source_instance_id for p in box.pairs} == {1, 2, 3}
        assert {p.source_instance_id for p in mask.pairs} == {1, 2, 3}
        tri_box = next(p for p in box.pairs if p.source_instance_id == 2)
        tri_mask = next(p for p in mask.pairs if p.source_instance_id == 2)
        assert tri_mask.iou == pytest.approx(190 / 210, abs=1e-12)
        assert tri_mask.iou != tri_box.iou

    def test_mask_mode_iou_equals_full_grid_mask_iou(self, synthetic_a, synthetic_b):
        ms = match_datasets(synthetic_a, synthetic_b, MatchConfig(iou_mode="mask", iou_threshold=0.5))
        assert len(ms.pairs) > 100
        for p in ms.pairs:
            image = synthetic_a.image(p.image_id)
            a, b = (
                rasterize(ds.instance(i).segmentation, image.width, image.height)
                for ds, i in ((synthetic_a, p.source_instance_id), (synthetic_b, p.target_instance_id))
            )
            assert p.iou == mask_iou(a, b)

    @pytest.mark.parametrize("threshold", [0.5, 0.9])
    def test_mask_mode_counts_every_image_at_once_as_match_image_would(
        self, synthetic_a, synthetic_b, monkeypatch, threshold
    ):
        # one overlap count keyed by image for the whole dataset, and the same
        # result as matching each image on its own
        cfg = MatchConfig(iou_mode="mask", iou_threshold=threshold)
        calls = []
        count = matching.count_overlaps
        monkeypatch.setattr(matching, "count_overlaps", lambda *args, **kw: calls.append(args) or count(*args, **kw))
        batched = match_datasets(synthetic_a, synthetic_b, cfg)
        assert len(calls) == 1 and len(calls[0][2]) > 40
        eligible = [{i.id for i in single_polygon_view(ds)} for ds in (synthetic_a, synthetic_b)]
        want = MatchSet(config=cfg)
        for image in synthetic_a.images:
            src, tgt = (
                [i for i in ds.instances_in(image.id) if i.id in ids]
                for ds, ids in zip((synthetic_a, synthetic_b), eligible)
            )
            local = match_image(src, tgt, cfg, image_size=(image.width, image.height))
            want.pairs += local.pairs
            want.unmatched_source += local.unmatched_source
            want.unmatched_target += local.unmatched_target
        assert len(calls) > 40  # match_image counts one image per call
        assert batched.pairs == want.pairs and len(want.pairs) > 100
        assert (batched.unmatched_source, batched.unmatched_target) == (
            sorted(want.unmatched_source),
            sorted(want.unmatched_target),
        )
        assert pairs_to_ndjson(batched) == pairs_to_ndjson(want)

    def test_mask_mode_ignores_stale_stored_boxes(self):
        # the stored boxes are disjoint, the masks are the same square
        src = [make_ann(1, 1, rect_ring(10, 10, 20, 20), bbox=[60, 60, 5, 5])]
        tgt = [make_ann(2, 1, rect_ring(10, 10, 20, 20))]
        a, b = scene(src, tgt)
        ms = match_datasets(a, b, MatchConfig(iou_mode="mask"))
        assert [(p.source_instance_id, p.target_instance_id, p.iou) for p in ms.pairs] == [(1, 2, 1.0)]

    def test_mask_mode_requires_image_size_in_match_image(self, tiny_a, tiny_b):
        with pytest.raises(ValueError, match="image_size"):
            match_image(
                [tiny_a.instance(1)], [tiny_b.instance(101)], MatchConfig(iou_mode="mask")
            )

    def test_zero_match_result(self):
        src = [make_ann(1, 1, rect_ring(0, 0, 10, 10))]
        tgt = [make_ann(2, 1, rect_ring(50, 50, 10, 10))]
        a, b = scene(src, tgt)
        ms = match_datasets(a, b)
        assert ms.pairs == []
        assert ms.unmatched_source == [1]
        assert ms.unmatched_target == [2]

    def test_images_on_one_side_only(self):
        a = parse_dataset(make_coco(make_images(2), [make_ann(1, 2, rect_ring(0, 0, 5, 5))]))
        b = parse_dataset(make_coco(make_images(1), [make_ann(9, 1, rect_ring(0, 0, 5, 5))]))
        ms = match_datasets(a, b)
        assert ms.pairs == []
        assert ms.unmatched_source == [1]
        assert ms.unmatched_target == [9]


class TestProperties:
    @given(st.lists(st.tuples(st.integers(0, 80), st.integers(0, 80)), min_size=1, max_size=6),
           st.floats(0.3, 0.99))
    def test_injective_and_strict(self, offsets, thr):
        src = [
            make_ann(i + 1, 1, rect_ring(x, y, 15, 15))
            for i, (x, y) in enumerate(offsets)
        ]
        tgt = [
            make_ann(100 + i, 1, rect_ring(x + 1, y, 15, 15))
            for i, (x, y) in enumerate(offsets)
        ]
        a = parse_dataset(make_coco(make_images(1, 200, 200), src))
        b = parse_dataset(make_coco(make_images(1, 200, 200), tgt))
        ms = match_datasets(a, b, MatchConfig(iou_threshold=thr))
        srcs = [p.source_instance_id for p in ms.pairs]
        tgts = [p.target_instance_id for p in ms.pairs]
        assert len(srcs) == len(set(srcs))
        assert len(tgts) == len(set(tgts))
        assert all(p.iou > thr for p in ms.pairs)
        accounted = set(srcs) | set(ms.unmatched_source)
        assert accounted == {s.id for s in a.instances}

    @given(st.integers(0, 10_000))
    def test_swapping_sides_transposes_pairs(self, seed):
        rng = random.Random(seed)
        src = [
            make_ann(i + 1, 1, rect_ring(22 * i, rng.randint(0, 4), 18, rng.randint(14, 18)))
            for i in range(rng.randint(1, 5))
        ]
        tgt = [
            make_ann(60 + i, 1, rect_ring(22 * i + 0.5, 1, 18, 15))
            for i in range(rng.randint(1, 5))
        ]
        a = parse_dataset(make_coco(make_images(1, 200, 40), src))
        b = parse_dataset(make_coco(make_images(1, 200, 40), tgt))
        cfg = MatchConfig(iou_threshold=0.5)
        fwd = {(p.source_instance_id, p.target_instance_id) for p in match_datasets(a, b, cfg).pairs}
        rev = {(p.target_instance_id, p.source_instance_id) for p in match_datasets(b, a, cfg).pairs}
        assert fwd == rev


class TestNdjson:
    def test_pairs_to_ndjson_round_trips(self, tiny_a, tiny_b):
        ms = match_datasets(tiny_a, tiny_b)
        text = pairs_to_ndjson(ms)
        lines = text.splitlines()
        assert len(lines) == 3
        rows = [json.loads(line) for line in lines]
        assert [r["source_id"] for r in rows] == [1, 2, 3]
        assert rows[0] == {
            "image_id": 1,
            "source_id": 1,
            "target_id": 101,
            "iou": ms.pairs[0].iou,
            "category_id": 1,
        }

    def test_empty_ndjson_is_empty_string(self):
        from annodiff.matching import MatchSet

        assert pairs_to_ndjson(MatchSet()) == ""
