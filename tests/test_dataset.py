import json

import pytest

from annodiff.dataset import (
    Issue,
    IssueCode,
    load_dataset,
    parse_dataset,
    serialize,
    single_polygon_view,
    to_coco,
    validate,
)
from annodiff.errors import IntegrityError, ParseError, SchemaError
from annodiff.shapes import Polygons, RleMask

from conftest import FIXTURES, make_ann, make_coco, make_images, rect_ring


def ds_of(annotations, n_images=2, **kw):
    return parse_dataset(make_coco(make_images(n_images), annotations, **kw))


class TestParse:
    def test_round_trip_is_stable(self, tiny_a):
        assert serialize(parse_dataset(serialize(tiny_a))) == serialize(tiny_a)

    def test_record_order_does_not_matter(self):
        anns = [make_ann(i, 1, rect_ring(i, i, 5, 5)) for i in (3, 1, 2)]
        forward = ds_of(anns)
        backward = ds_of(list(reversed(anns)))
        assert serialize(forward) == serialize(backward)
        assert [a.id for a in forward.instances] == [1, 2, 3]

    def test_unknown_fields_survive_round_trip(self):
        raw = json.loads(make_coco(make_images(1), [make_ann(1, 1, rect_ring(0, 0, 4, 4))]))
        raw["info"] = {"year": 2024}
        raw["licenses"] = [{"id": 1}]
        raw["annotations"][0]["confidence"] = 0.75
        out = to_coco(parse_dataset(json.dumps(raw)))
        assert out["info"] == {"year": 2024}
        assert out["licenses"] == [{"id": 1}]
        assert out["annotations"][0]["confidence"] == 0.75

    def test_malformed_json_reports_byte_offset(self):
        with pytest.raises(ParseError) as e:
            parse_dataset('{"images": [},')
        assert e.value.byte_offset == '{"images": [},'.index("}")

    def test_multibyte_text_keeps_byte_offsets(self):
        # 4 ASCII bytes + 6 bytes of CJK before the bad token
        bad = '{"你好": [}'.encode("utf-8")
        with pytest.raises(ParseError) as e:
            parse_dataset(bad)
        assert e.value.byte_offset == len('{"你好": ['.encode("utf-8"))

    def test_missing_field_names_offender(self):
        bad = {"images": [{"id": 1, "width": 4, "file_name": "x"}], "annotations": [], "categories": []}
        with pytest.raises(SchemaError, match="height"):
            parse_dataset(json.dumps(bad))

    def test_duplicate_annotation_id(self):
        anns = [make_ann(1, 1, rect_ring(0, 0, 2, 2)), make_ann(1, 1, rect_ring(4, 4, 2, 2))]
        with pytest.raises(IntegrityError, match="duplicate"):
            ds_of(anns)

    def test_dangling_image_reference(self):
        with pytest.raises(IntegrityError, match="image 99"):
            ds_of([make_ann(1, 99, rect_ring(0, 0, 2, 2))])

    def test_odd_coordinate_count_rejected(self):
        ann = make_ann(1, 1, rect_ring(0, 0, 2, 2))
        ann["segmentation"] = [[0, 0, 1]]
        with pytest.raises(SchemaError, match="odd coordinate count"):
            ds_of([ann])

    def test_compressed_rle_rejected(self):
        ann = make_ann(1, 1, {"counts": "abc", "size": [4, 4]}, iscrowd=1, bbox=[0, 0, 1, 1], area=1)
        with pytest.raises(SchemaError, match="compressed"):
            ds_of([ann])

    def test_rle_count_sum_must_cover_grid(self):
        ann = make_ann(1, 1, {"counts": [3, 4], "size": [4, 4]}, iscrowd=1, bbox=[0, 0, 1, 1], area=1)
        with pytest.raises(SchemaError, match="counts"):
            ds_of([ann])

    @pytest.mark.parametrize(
        "counts, size, msg",
        [
            ([3, "4", 9], [4, 4], "annotation 1 field 'counts' must be an integer"),
            ([3, 4.0, 9], [4, 4], "annotation 1 field 'counts' must be an integer"),
            ([3, True, 12], [4, 4], "annotation 1 field 'counts' must be an integer"),
            ([3, None, 13], [4, 4], "annotation 1 field 'counts' must be an integer"),
            ([3, -1, 14], [4, 4], "annotation 1 has negative RLE counts"),
            ([20, -4], [4, 4], "annotation 1 has negative RLE counts"),
            ([16], [4], r"annotation 1 field 'size' must be \[height, width\]"),
            ([16], "4x4", r"annotation 1 field 'size' must be \[height, width\]"),
            ([16], [4, 4.0], "annotation 1 field 'size' must be an integer"),
            ([16], [True, 4], "annotation 1 field 'size' must be an integer"),
            ([3, 4], [4, 4], r"annotation 1 RLE counts sum 7 != 4x4 grid"),
            ([], [4, 4], r"annotation 1 RLE counts sum 0 != 4x4 grid"),
        ],
    )
    def test_rle_faults_are_named(self, counts, size, msg):
        ann = make_ann(1, 1, {"counts": counts, "size": size}, iscrowd=1, bbox=[0, 0, 1, 1], area=1)
        with pytest.raises(SchemaError, match=f"^{msg}$"):
            ds_of([ann])

    def test_rle_counts_parse_to_ints(self):
        class Count(int):
            pass

        for counts in ([0, 10, 6], [Count(0), 10, Count(6)]):
            ann = make_ann(1, 1, {"counts": counts, "size": [4, 4]}, iscrowd=1, bbox=[0, 0, 1, 1], area=1)
            seg = ds_of([ann]).instances[0].segmentation
            assert seg.counts == (0, 10, 6) and (seg.height, seg.width) == (4, 4)

    def test_nonpositive_image_dims_rejected(self):
        imgs = [{"id": 1, "width": 0, "height": 4, "file_name": "x"}]
        with pytest.raises(SchemaError):
            parse_dataset(make_coco(imgs, []))

    def test_empty_dataset_parses(self):
        ds = parse_dataset('{"images": [], "annotations": [], "categories": []}')
        assert not ds.images and not ds.instances and not ds.categories


    @pytest.mark.parametrize("field", ["segmentation", "bbox", "area"])
    def test_integer_beyond_float_range_is_schema_error(self, field, tmp_path):
        ann = make_ann(1, 1, rect_ring(0, 0, 5, 5))
        huge = 10**400  # a valid JSON integer that no float can hold
        if field == "segmentation":
            ann["segmentation"][0][3] = huge
        elif field == "bbox":
            ann["bbox"][2] = huge
        else:
            ann["area"] = huge
        path = tmp_path / "a.json"
        path.write_text(make_coco(make_images(1), [ann]))
        with pytest.raises(SchemaError, match=f"annotation 1 field '{field}' must be finite"):
            load_dataset(path)

    @pytest.mark.parametrize(
        "value,msg",
        [
            (True, "must be a number"),
            ("3", "must be a number"),
            (None, "must be a number"),
            (float("nan"), "must be finite"),
            (float("-inf"), "must be finite"),
        ],
    )
    def test_coordinate_faults_named_in_any_position(self, value, msg):
        for pos in (0, 5):
            ring = [0, 0.5, 5, 0, 5, 5, 0, 5]
            ring[pos] = value
            with pytest.raises(SchemaError, match=f"field 'segmentation' {msg}"):
                ds_of([make_ann(1, 1, ring, bbox=[0, 0, 5, 5])])

    def test_ints_and_floats_parse_to_floats(self):
        ring = [0, 0.5, 5, 0, 5.25, 5, 0, 5]
        inst = ds_of([make_ann(1, 1, ring, bbox=[0, 0, 5, 5])]).instances[0]
        assert inst.segmentation.rings == (tuple(float(v) for v in ring),)
        assert all(type(v) is float for v in inst.segmentation.rings[0] + inst.bbox)


class TestAccessors:
    def test_index_maps_images_to_instances(self, tiny_a):
        assert tiny_a.index[1] == (1, 2)
        assert tiny_a.index[2] == (3, 4)
        assert tiny_a.index[3] == (5,)

    def test_segmentation_types(self, tiny_a):
        assert isinstance(tiny_a.instance(1).segmentation, Polygons)
        assert isinstance(tiny_a.instance(5).segmentation, RleMask)

    def test_single_polygon_view_filters(self, tiny_a):
        kept = single_polygon_view(tiny_a)
        assert [i.id for i in kept] == [1, 2, 3]
        assert all(not i.iscrowd and i.segmentation.ring_count == 1 for i in kept)

    def test_single_polygon_view_all_crowd(self):
        crowd = make_ann(
            1, 1, {"counts": [0, 10000], "size": [100, 100]},
            iscrowd=1, bbox=[0, 0, 100, 100], area=10000,
        )
        assert single_polygon_view(ds_of([crowd])) == []

    def test_single_polygon_view_identity_when_all_eligible(self):
        anns = [make_ann(i, 1, rect_ring(i * 10, 0, 5, 5)) for i in (1, 2)]
        ds = ds_of(anns)
        assert single_polygon_view(ds) == list(ds.instances)


class TestValidate:
    def test_clean_fixture_has_no_issues(self, tiny_a, tiny_b):
        assert validate(tiny_a) == []
        assert validate(tiny_b) == []

    def test_degenerate_polygon_flagged(self):
        ann = make_ann(1, 1, [0, 0, 5, 0], bbox=[0, 0, 5, 1], area=5)
        issues = validate(ds_of([ann]))
        assert any(i.code is IssueCode.DEGENERATE_POLYGON and i.instance_id == 1 for i in issues)

    def test_bbox_out_of_bounds_flagged(self):
        ann = make_ann(1, 1, rect_ring(90, 90, 20, 20), bbox=[90, 90, 20, 20], area=400)
        issues = validate(ds_of([ann]))
        assert any(i.code is IssueCode.BBOX_OUT_OF_BOUNDS for i in issues)

    def test_zero_extent_bbox_flagged(self):
        ann = make_ann(1, 1, rect_ring(5, 5, 4, 4), bbox=[5, 5, 0, 4], area=16)
        issues = validate(ds_of([ann]))
        assert any(i.code is IssueCode.ZERO_EXTENT_BBOX for i in issues)

    def test_area_mismatch_flagged_and_tolerance_respected(self):
        good = make_ann(1, 1, rect_ring(0, 0, 10, 10), area=103)  # within 10%
        bad = make_ann(2, 1, rect_ring(20, 20, 10, 10), area=150)
        issues = validate(ds_of([good, bad]))
        flagged = {i.instance_id for i in issues if i.code is IssueCode.AREA_MISMATCH}
        assert flagged == {2}

    def test_area_check_can_be_disabled(self):
        bad = make_ann(1, 1, rect_ring(0, 0, 10, 10), area=150)
        issues = validate(ds_of([bad]), area_tolerance=None)
        assert not any(i.code is IssueCode.AREA_MISMATCH for i in issues)

    def test_every_issue_names_its_instance(self):
        with pytest.raises(TypeError):
            Issue(IssueCode.NEGATIVE_AREA, "an issue without an instance")

    def test_negative_area_flagged(self):
        ann = make_ann(1, 1, rect_ring(0, 0, 4, 4), area=16)
        ann["area"] = -1.0
        issues = validate(ds_of([ann]))
        assert any(i.code is IssueCode.NEGATIVE_AREA for i in issues)


class TestLoad:
    def test_load_fixture_counts(self):
        ds = load_dataset(FIXTURES / "tiny_pair_a.json")
        assert len(ds.images) == 3
        assert len(ds.instances) == 5
        assert len(ds.categories) == 2

    def test_serialize_is_deterministic(self, tiny_a):
        assert serialize(tiny_a) == serialize(tiny_a)
        assert b'"annotations"' in serialize(tiny_a)
