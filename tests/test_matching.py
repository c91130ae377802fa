import json
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import annodiff.matching as matching
from annodiff.dataset import AnnotationDataset, parse_dataset, single_polygon_view
from annodiff.errors import GeometryError
from annodiff.matching import MatchConfig, MatchPair, MatchSet, match_datasets, pairs_to_ndjson
from annodiff.raster import box_iou_matrix, mask_iou, mask_of, rasterize

from conftest import make_ann, make_coco, make_images, rect_ring
from oracles import best_assignment, box_iou_oracle


def inst(ds, ann_id):
    return ds.instance(ann_id)


def scene(src_anns, tgt_anns, n_images=1):
    a = parse_dataset(make_coco(make_images(n_images), src_anns))
    b = parse_dataset(make_coco(make_images(n_images), tgt_anns))
    return a, b


def match_per_image(source, target, cfg: MatchConfig) -> MatchSet:
    """The per-image matcher that ``match_datasets`` replaced, kept as its
    reference: for each image, the IoU matrix of its eligible instances
    (``box_iou_matrix`` of the stored boxes, or ``mask_iou`` of whole-grid
    masks), then a greedy pass over the candidates ranked by (-IoU, source
    id, target id)."""
    eligible = [{i.id for i in single_polygon_view(ds)} for ds in (source, target)]
    pairs, unmatched_source, unmatched_target = [], [], []
    for image_id in sorted({i.id for i in source.images} | {i.id for i in target.images}):
        src, tgt = (
            sorted((i for i in ds.instances if i.image_id == image_id and i.id in ids), key=lambda i: i.id)
            for ds, ids in zip((source, target), eligible)
        )
        if not (src and tgt):
            iou = np.zeros((len(src), len(tgt)))
        elif cfg.iou_mode == "box":
            iou = box_iou_matrix(np.array([s.bbox for s in src]), np.array([t.bbox for t in tgt]))
        else:
            image = source.image(image_id)
            ms, mt = ([mask_of(i.segmentation, image.width, image.height) for i in side] for side in (src, tgt))
            iou = np.array([[mask_iou(x, y) for y in mt] for x in ms])
        candidates = sorted(
            (-iou[i, j], s.id, t.id, i, j)
            for i, s in enumerate(src)
            for j, t in enumerate(tgt)
            if iou[i, j] > cfg.iou_threshold and (s.category_id == t.category_id or not cfg.same_category_required)
        )
        used_s, used_t, image_pairs = set(), set(), []
        for neg, sid, tid, i, j in candidates:
            if i not in used_s and j not in used_t:
                used_s.add(i)
                used_t.add(j)
                image_pairs.append(MatchPair(sid, tid, image_id, src[i].category_id, float(-neg)))
        pairs += sorted(image_pairs, key=lambda p: p.source_instance_id)
        unmatched_source += [s.id for i, s in enumerate(src) if i not in used_s]
        unmatched_target += [t.id for j, t in enumerate(tgt) if j not in used_t]
    unmatched_source.sort()
    unmatched_target.sort()
    ineligible = (sorted(i.id for i in ds.instances if i.id not in ids) for ds, ids in zip((source, target), eligible))
    return MatchSet(pairs, unmatched_source, unmatched_target, *ineligible)


def random_scene(rng: random.Random, big_ids: bool):
    """Two sides of rectangles from a small palette, so identical boxes and
    exact IoU ties are common, plus a two-ring instance or an empty crowd now
    and then. Each side holds a random subset of four images, so an image
    can be on one side only and a side can be empty. With ``big_ids``, image
    ids lie beyond int64 and annotation ids straddle its largest value."""
    image_base, ann_base = (2**64, 2**63 - 8) if big_ids else (1, 1)
    pool = [{"id": image_base + k, "width": 40, "height": 30, "file_name": f"{k}.png"} for k in range(4)]
    sides = []
    for _ in range(2):
        images = [img for img in pool if rng.random() < 0.7]
        anns = []
        for img in images:
            for _ in range(rng.randint(0, 6)):
                x, y = rng.choice([0, 8]), rng.choice([0, 4]) + rng.choice([0, 0, 0.5])
                ring = rect_ring(x, y, rng.choice([10, 20]), rng.choice([10, 12]))
                kind = rng.random()
                if kind < 0.08:
                    anns.append(make_ann(0, img["id"], [ring, rect_ring(30, 20, 4, 4)]))
                elif kind < 0.14:
                    empty = {"counts": [1200], "size": [30, 40]}
                    anns.append(make_ann(0, img["id"], empty, iscrowd=1, bbox=[0, 0, 4, 4]))
                else:
                    anns.append(make_ann(0, img["id"], ring, category_id=rng.choice([1, 2])))
        for ann, k in zip(anns, rng.sample(range(len(anns)), len(anns))):
            ann["id"] = ann_base + k
        cats = [{"id": c, "name": f"cat{c}", "supercategory": "x"} for c in (1, 2)]
        sides.append(parse_dataset(make_coco(images, anns, cats)))
    return sides


class TestThreshold:
    def test_iou_exactly_at_threshold_is_excluded(self):
        # identical boxes => IoU 1.0; shrink until IoU == 0.8 exactly: a 10x8
        # box inside a 10x10 box gives 80/100.
        src = [make_ann(1, 1, rect_ring(0, 0, 10, 10))]
        tgt = [make_ann(1, 1, rect_ring(0, 0, 10, 8))]
        a, b = scene(src, tgt)
        assert box_iou_oracle(a.instance(1).bbox, b.instance(1).bbox) == 0.8
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
                [[box_iou_oracle(s.bbox, t.bbox) for t in b.instances] for s in a.instances]
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
        base = match_datasets(*scene(src, tgt), MatchConfig(iou_threshold=0.5))
        for _ in range(5):
            s2, t2 = list(src), list(tgt)
            rng.shuffle(s2)
            rng.shuffle(t2)
            again = match_datasets(*scene(s2, t2), MatchConfig(iou_threshold=0.5))
            assert again.pairs == base.pairs
            assert again.unmatched_source == base.unmatched_source

    def test_instances_out_of_id_order_rank_by_id(self, synthetic_a, synthetic_b):
        # a dataset built directly need not hold its instances in id order;
        # ties still break by id, and the leftovers still come sorted
        rng = random.Random(9)
        shuffled = [
            AnnotationDataset(ds.images, ds.categories, tuple(rng.sample(ds.instances, len(ds.instances))))
            for ds in (synthetic_a, synthetic_b)
        ]
        for mode in ("box", "mask"):
            cfg = MatchConfig(iou_threshold=0.5, iou_mode=mode)
            assert match_datasets(*shuffled, cfg) == match_datasets(synthetic_a, synthetic_b, cfg)


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
    def test_mask_mode_counts_every_image_at_once_and_matches_whole_grid_masks(
        self, synthetic_a, synthetic_b, monkeypatch, threshold
    ):
        # one overlap count keyed by image for the whole dataset; the pairs
        # are those of a greedy pass over IoUs of whole-grid masks
        cfg = MatchConfig(iou_mode="mask", iou_threshold=threshold)
        calls = []
        count = matching.count_overlaps
        monkeypatch.setattr(matching, "count_overlaps", lambda *args, **kw: calls.append(args) or count(*args, **kw))
        batched = match_datasets(synthetic_a, synthetic_b, cfg)
        assert len(calls) == 1 and len(calls[0][2]) > 40
        eligible = [{i.id for i in single_polygon_view(ds)} for ds in (synthetic_a, synthetic_b)]
        want, unmatched_s, unmatched_t = [], [], []
        for image in synthetic_a.images:
            src, tgt = (
                sorted((i for i in ds.instances if i.image_id == image.id and i.id in ids), key=lambda i: i.id)
                for ds, ids in zip((synthetic_a, synthetic_b), eligible)
            )
            masks = [[mask_of(i.segmentation, image.width, image.height) for i in side] for side in (src, tgt)]
            ranked = sorted(
                (-iou, s.id, t.id, i, j)
                for i, (s, ms) in enumerate(zip(src, masks[0]))
                for j, (t, mt) in enumerate(zip(tgt, masks[1]))
                if s.category_id == t.category_id
                and (iou := np.count_nonzero(ms & mt) / np.count_nonzero(ms | mt)) > threshold
            )
            used_s, used_t, pairs = set(), set(), []
            for neg, sid, tid, i, j in ranked:
                if i not in used_s and j not in used_t:
                    used_s.add(i)
                    used_t.add(j)
                    pairs.append((image.id, sid, tid, -neg))
            want += sorted(pairs)
            unmatched_s += [s.id for i, s in enumerate(src) if i not in used_s]
            unmatched_t += [t.id for j, t in enumerate(tgt) if j not in used_t]
        got = [(p.image_id, p.source_instance_id, p.target_instance_id, p.iou) for p in batched.pairs]
        assert got == want and len(want) > 100
        assert (batched.unmatched_source, batched.unmatched_target) == (sorted(unmatched_s), sorted(unmatched_t))

    def test_mask_mode_ignores_stale_stored_boxes(self):
        # the stored boxes are disjoint, the masks are the same square
        src = [make_ann(1, 1, rect_ring(10, 10, 20, 20), bbox=[60, 60, 5, 5])]
        tgt = [make_ann(2, 1, rect_ring(10, 10, 20, 20))]
        a, b = scene(src, tgt)
        ms = match_datasets(a, b, MatchConfig(iou_mode="mask"))
        assert [(p.source_instance_id, p.target_instance_id, p.iou) for p in ms.pairs] == [(1, 2, 1.0)]

    def test_mask_mode_counts_a_degenerate_ring_as_empty_and_fails_on_a_rejected_grid(self):
        src = [make_ann(1, 1, [0, 0, 4, 4], bbox=[0, 0, 4, 4]), make_ann(2, 2, rect_ring(10, 10, 20, 20))]
        tgt = [make_ann(3, 1, rect_ring(0, 0, 4, 4)), make_ann(4, 2, rect_ring(10, 10, 20, 20))]
        a, b = scene(src, tgt, n_images=2)
        ms = match_datasets(a, b, MatchConfig(iou_mode="mask"))
        assert [(p.source_instance_id, p.target_instance_id) for p in ms.pairs] == [(2, 4)]
        assert (ms.unmatched_source, ms.unmatched_target) == ([1], [3])
        wide = parse_dataset(make_coco(make_images(2, width=2**64), src))
        with pytest.raises(GeometryError, match=r"^grid 18446744073709551616x100 has a side beyond 2\*\*52 px$"):
            match_datasets(wide, b, MatchConfig(iou_mode="mask"))

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


class TestAgainstPerImageReference:
    @pytest.mark.parametrize("same_category", [True, False], ids=["same-category", "any-category"])
    @pytest.mark.parametrize("mode", ["box", "mask"])
    def test_equals_the_per_image_matcher_on_random_scenes(self, mode, same_category):
        rng = random.Random(2026)
        seen = {"pairs": 0, "tie": 0, "one-side image": 0, "empty side": 0}
        for n in range(150):
            a, b = random_scene(rng, big_ids=n % 2 == 1)
            for threshold in (0.5, 0.9, 1.0):
                cfg = MatchConfig(iou_threshold=threshold, iou_mode=mode, same_category_required=same_category)
                got = match_datasets(a, b, cfg)
                assert got == match_per_image(a, b, cfg)
                assert threshold < 1.0 or got.pairs == []
                seen["pairs"] += len(got.pairs)
            # a box on both sides and a third time on either: an exact tie at IoU 1
            boxes = [Counter((i.image_id, i.bbox) for i in single_polygon_view(ds)) for ds in (a, b)]
            seen["tie"] += any(boxes[1][box] and k + boxes[1][box] > 2 for box, k in boxes[0].items())
            images = [{i.id for i in ds.images} for ds in (a, b)]
            seen["one-side image"] += bool(images[0] ^ images[1])
            seen["empty side"] += not (a.instances and b.instances)
        assert all(seen.values()), seen

    @pytest.mark.parametrize("mode", ["box", "mask"])
    def test_one_overlap_call_per_dataset_pair(self, synthetic_a, synthetic_b, monkeypatch, mode):
        calls = {"box_overlaps": 0, "count_overlaps": 0}
        for name in calls:
            original = getattr(matching, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(matching, name, counted)
        got = match_datasets(synthetic_a, synthetic_b, MatchConfig(iou_mode=mode, iou_threshold=0.5))
        assert len(got.pairs) > 100
        want = {"box_overlaps": 1, "count_overlaps": 0} if mode == "box" else {"box_overlaps": 0, "count_overlaps": 1}
        assert calls == want

    @pytest.mark.parametrize("run", [1, 40, 500])
    def test_box_runs_give_the_pairs_of_one_run(self, synthetic_a, synthetic_b, monkeypatch, run):
        # the shared images go in runs of at most `run` same-image pairs, an
        # image of more in a run of its own, one box overlap each
        cfg = MatchConfig(iou_threshold=0.5)
        whole = match_datasets(synthetic_a, synthetic_b, cfg)
        n_s, n_t = (Counter(inst.image_id for inst in single_polygon_view(ds)) for ds in (synthetic_a, synthetic_b))
        want, total = [], 0
        for n in (n_s[image] * n_t[image] for image in sorted(n_s.keys() & n_t.keys())):
            if total and total + n > run:
                want.append(total)
                total = 0
            total += n
        want.append(total)
        calls = []
        overlaps = matching.box_overlaps
        monkeypatch.setattr(matching, "_RUN", run)
        monkeypatch.setattr(matching, "box_overlaps", lambda a, b: calls.append(len(a)) or overlaps(a, b))
        got = match_datasets(synthetic_a, synthetic_b, cfg)
        assert calls == want and len(calls) > 1
        assert got == whole and pairs_to_ndjson(got) == pairs_to_ndjson(whole)


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

    def test_each_line_is_json_dumps_of_the_pair(self, synthetic_a, synthetic_b):
        # IoU 1.0, floats of 17 significant digits, ids beyond int64
        pairs = match_datasets(synthetic_a, synthetic_b, MatchConfig(iou_threshold=0.5)).pairs + [
            MatchPair(2**64 + 1, 2**63, 2**70, 2**65, 1.0),
            MatchPair(1, 2, 3, 4, 0.1 + 0.2),
            MatchPair(-(2**64), 0, 7, 1, 0.9070294784580499),
            MatchPair(5, 6, 7, 8, float(np.nextafter(0.9, 1.0))),
        ]
        lines = pairs_to_ndjson(MatchSet(pairs=pairs)).splitlines()
        assert lines == [
            json.dumps(
                {
                    "image_id": p.image_id,
                    "source_id": p.source_instance_id,
                    "target_id": p.target_instance_id,
                    "iou": p.iou,
                    "category_id": p.category_id,
                }
            )
            for p in pairs
        ]
        assert len(repr(0.1 + 0.2)) == 19 and lines[-3].endswith('"iou": 0.30000000000000004, "category_id": 4}')

    def test_empty_ndjson_is_empty_string(self):
        assert pairs_to_ndjson(MatchSet()) == ""

    def test_match_set_fields_are_pinned(self):
        assert list(MatchSet._fields) == [
            "pairs", "unmatched_source", "unmatched_target", "ineligible_source", "ineligible_target",
        ]
