import copy
import json
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from annodiff.dataset import (
    _annotation_by_field,
    _parse_annotation,
    _parse_image,
    _plain_annotation,
    AnnotationDataset,
    CategoryRecord,
    ImageRecord,
    InstanceRecord,
    Issue,
    IssueCode,
    load_dataset,
    parse_dataset,
    serialize,
    single_polygon_view,
    to_coco,
    validate,
)
from annodiff.deteval import Detection
from annodiff.errors import IntegrityError, ParseError, SchemaError
from annodiff.raster import encode_rle
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

    def test_deeply_nested_json_is_a_parse_error(self):
        with pytest.raises(ParseError, match="^malformed JSON: nested too deeply$") as e:
            parse_dataset("[" * 100_000)
        assert e.value.byte_offset is None

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
            ([6], [-2, -3], "annotation 1 has negative RLE size -2x-3"),
            ([], [-2, 0], "annotation 1 has negative RLE size -2x0"),
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


# ---------------------------------------------------------------------------
# the plain-annotation fast path against the field-by-field path

_REQUIRED = ("id", "image_id", "category_id", "segmentation", "area", "bbox", "iscrowd")
_numbers = st.one_of(
    st.integers(-1000, 1000),
    st.floats(-1e4, 1e4, allow_nan=False),
    st.sampled_from([0.0, -0.0, 1.5, 7]),
)


@st.composite
def _rle(draw):
    h, w = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    cuts = sorted(draw(st.lists(st.integers(0, h * w), max_size=4)))
    bounds = [0, *cuts, h * w]
    return {"counts": [b - a for a, b in zip(bounds, bounds[1:])], "size": [h, w]}


@st.composite
def _annotation(draw):
    """A valid annotation object, as ``json.loads`` gives it: polygons of int
    and float coordinates or an RLE, sometimes with extra keys, with a
    sum of values that may overflow."""
    coordinates = _numbers | st.just(1.7e308) if draw(st.booleans()) else _numbers
    rings = st.lists(st.tuples(coordinates, coordinates), max_size=5).map(lambda ps: [v for p in ps for v in p])
    obj = {
        "id": draw(st.integers(-5, 10**12)),
        "image_id": draw(st.integers(0, 9)),
        "category_id": draw(st.integers(0, 9)),
        "segmentation": draw(st.lists(rings, max_size=3) | _rle()),
        "area": draw(coordinates),
        "bbox": draw(st.lists(coordinates, min_size=4, max_size=4)),
        "iscrowd": draw(st.sampled_from([0, 1, True, False, 0.0, 1.0])),
    }
    extra = st.sampled_from(["score", "attributes", "id_"])
    obj.update(draw(st.dictionaries(extra, _numbers | st.text(max_size=3), max_size=2)))
    return obj


def _places(obj) -> list[tuple]:
    """``(container, key)`` of every value of ``obj`` that must be a number."""
    places = [(obj, "area")]
    bbox, seg = obj.get("bbox"), obj.get("segmentation")
    if isinstance(bbox, list):
        places += [(bbox, i) for i in range(len(bbox))]
    if isinstance(seg, list):
        places += [(ring, i) for ring in seg if isinstance(ring, list) for i in range(len(ring))]
    return places


@st.composite
def _faulty(draw, obj):
    """``obj`` with one fault of a drawn kind, at a drawn place."""
    fault = draw(st.sampled_from([
        "missing", "not an int", "string", "nan", "inf", "huge", "odd ring", "not a list", "short bbox", "iscrowd 2",
        "field not a list",
    ]))
    pick = lambda seq: seq[draw(st.integers(0, len(seq) - 1))]
    if fault == "missing":
        obj.pop(pick(_REQUIRED), None)
    elif fault == "not an int":
        obj[pick(["id", "image_id", "category_id"])] = pick([True, False, 3.0, 2.5])
    elif fault == "iscrowd 2":
        obj["iscrowd"] = 2
    elif fault == "short bbox":
        obj["bbox"] = [1, 2, 3]
    elif fault == "field not a list":
        obj[pick(["bbox", "segmentation"])] = pick(["1 2 3 4", 4, None, {}])
    elif fault in ("odd ring", "not a list"):
        seg = obj.get("segmentation")
        if not isinstance(seg, list) or not seg:
            obj["segmentation"] = seg = [[1, 2]]
        i = draw(st.integers(0, len(seg) - 1))
        if fault == "odd ring":
            seg[i] = [1, 2, 3]
        else:
            seg[i] = pick([(1, 2), "1 2", 3, {"x": 1}, None])
    else:
        value = {"string": "3", "nan": float("nan"), "inf": pick([float("inf"), float("-inf")]), "huge": 10**400}[fault]
        container, key = pick(_places(obj))
        container[key] = value
    return obj


def _outcome(parse, obj):
    try:
        rec = parse(obj, 3)
    except SchemaError as e:
        return "SchemaError", str(e)
    return rec, repr(rec)  # the repr tells an int from a float and True from 1


_PLAIN = {
    "id": 7, "image_id": 1, "category_id": 2, "segmentation": [[0, 0.5, 4, 0, 4.25, 4]],
    "area": 8, "bbox": [0, 0, 4.25, 4], "iscrowd": 0,
}


def _with(*path_and_value):
    """A copy of ``_PLAIN`` with the value at ``path`` set, or removed for ``...``."""
    *path, value = path_and_value
    obj = copy.deepcopy(_PLAIN)
    container = obj
    for key in path[:-1]:
        container = container[key]
    if value is ...:
        del container[path[-1]]
    else:
        container[path[-1]] = value
    return obj


_NOT_NUMBERS = {
    "string": "3", "null": None, "true": True, "nan": float("nan"),
    "inf": float("inf"), "-inf": float("-inf"), "10**400": 10**400,
}
_FAULT_TABLE = [
    *[(f"missing {name}", _with(name, ...)) for name in _REQUIRED],
    *[(f"{name} {v!r}", _with(name, v)) for name in ("id", "image_id", "category_id") for v in (True, 3.0, "3")],
    *[
        (f"{'/'.join(map(str, place))} {name}", _with(*place, v))
        for place in (("area",), ("bbox", 2), ("segmentation", 0, 0), ("segmentation", 0, 5))
        for name, v in _NOT_NUMBERS.items()
    ],
    ("odd ring", _with("segmentation", 0, [0, 0, 4, 0, 4])),
    *[(f"ring {v!r}", _with("segmentation", 0, v)) for v in ("0 0 4 0 4 4", 4, None, {"x": 1})],
    *[(f"segmentation {v!r}", _with("segmentation", v)) for v in ("0 0 4 0 4 4", 4, None, {})],
    *[(f"bbox {v!r}", _with("bbox", v)) for v in ([0, 0, 4], "0044", 4, None, {"0": 0, "1": 0, "2": 4, "3": 4})],
    ("iscrowd 2", _with("iscrowd", 2)),
]


class TestFastPath:
    @pytest.mark.parametrize("obj", [o for _, o in _FAULT_TABLE], ids=[name for name, _ in _FAULT_TABLE])
    def test_each_fault_is_named_by_the_field_by_field_path(self, obj):
        assert _plain_annotation(obj) is None
        outcome = _outcome(_parse_annotation, obj)
        assert outcome[0] == "SchemaError" and outcome == _outcome(_annotation_by_field, obj)

    @pytest.mark.parametrize("iscrowd", [0, 1, 0.0, 1.0, True, False])
    def test_every_iscrowd_flag_is_plain(self, iscrowd):
        obj = _with("iscrowd", iscrowd)
        rec = _plain_annotation(obj)
        assert rec is not None and rec.iscrowd is bool(iscrowd)
        assert _outcome(_parse_annotation, obj) == _outcome(_annotation_by_field, obj)

    @settings(max_examples=300)
    @given(st.data())
    def test_agrees_with_the_field_by_field_path(self, data):
        obj = data.draw(_annotation())
        faults = data.draw(st.integers(0, 2))
        for _ in range(faults):
            obj = data.draw(_faulty(obj))
        assert _outcome(_parse_annotation, obj) == _outcome(_annotation_by_field, obj)
        plain = not faults and isinstance(obj["segmentation"], list)
        if plain and all(abs(container[key]) < 1e300 for container, key in _places(obj)):
            assert _plain_annotation(obj) is not None

    @pytest.mark.parametrize("obj", [None, [1], "annotation", 7])
    def test_a_non_object_is_named_by_position(self, obj):
        with pytest.raises(SchemaError, match="^annotation at position 3 is not an object$"):
            _parse_annotation(obj, 3)

    def test_plain_polygons_take_the_fast_path(self):
        ann = make_ann(1, 1, [0, 0.5, 5, 0, 5.25, 5, 0, 5], bbox=[0, 0, 5, 5])
        rec = _plain_annotation(ann)
        assert rec == _annotation_by_field(ann, 0) and type(rec.extra) is dict
        rle = make_ann(2, 1, {"counts": [0, 16], "size": [4, 4]}, iscrowd=1, bbox=[0, 0, 4, 4], area=16)
        assert _plain_annotation(rle) is None and _parse_annotation(rle, 0) == _annotation_by_field(rle, 0)


# ---------------------------------------------------------------------------
# the plain-image fast path against the field-by-field path

_IMAGE_REQUIRED = ("id", "width", "height", "file_name")


@st.composite
def _image(draw):
    """A valid image object, as ``json.loads`` gives it, sometimes with extra keys."""
    obj = {
        "id": draw(st.integers(-5, 10**12)),
        "width": draw(st.integers(1, 2**64)),
        "height": draw(st.integers(1, 5000)),
        "file_name": draw(st.text(max_size=5)),
    }
    extra = st.sampled_from(["license", "coco_url", "id_"])
    obj.update(draw(st.dictionaries(extra, _numbers | st.text(max_size=3), max_size=2)))
    return obj


@st.composite
def _faulty_image(draw, obj):
    """``obj`` with one fault of a drawn kind, at a drawn field."""
    fault = draw(st.sampled_from(["missing", "not an int", "not positive", "file name"]))
    pick = lambda seq: seq[draw(st.integers(0, len(seq) - 1))]
    if fault == "missing":
        obj.pop(pick(_IMAGE_REQUIRED), None)
    elif fault == "not an int":
        obj[pick(["id", "width", "height"])] = pick([True, False, 3.0, "3", None, [3]])
    elif fault == "not positive":
        obj[pick(["width", "height"])] = pick([0, -1, -(2**70)])
    else:
        obj["file_name"] = pick([None, 3, b"a.png", ["a.png"]])
    return obj


_PLAIN_IMAGE = {"id": 7, "width": 40, "height": 30, "file_name": "a.png"}


def _image_with(name, value):
    """A copy of ``_PLAIN_IMAGE`` with field ``name`` set, or removed for ``...``."""
    obj = dict(_PLAIN_IMAGE)
    if value is ...:
        del obj[name]
    else:
        obj[name] = value
    return obj


_IMAGE_FAULTS = [
    ("missing id", _image_with("id", ...), "image at position 3 missing required field 'id'"),
    *[
        (f"missing {name}", _image_with(name, ...), f"image 7 missing required field '{name}'")
        for name in ("width", "height", "file_name")
    ],
    *[
        (f"id {v!r}", _image_with("id", v), f"image {v} field 'id' must be an integer")
        for v in (True, 3.0, "3", None)
    ],
    *[
        (f"{name} {v!r}", _image_with(name, v), f"image 7 field '{name}' must be an integer")
        for name in ("width", "height")
        for v in (True, 3.0, "3", None)
    ],
    ("width 0", _image_with("width", 0), "image 7 has non-positive dimensions 0x30"),
    ("width -4", _image_with("width", -4), "image 7 has non-positive dimensions -4x30"),
    ("height 0", _image_with("height", 0), "image 7 has non-positive dimensions 40x0"),
    ("height -4", _image_with("height", -4), "image 7 has non-positive dimensions 40x-4"),
    *[
        (f"file_name {v!r}", _image_with("file_name", v), "image 7 field 'file_name' must be a string")
        for v in (None, 3, ["a.png"])
    ],
]


class TestParseImage:
    @pytest.mark.parametrize(
        "obj, message",
        [(o, m) for _, o, m in _IMAGE_FAULTS],
        ids=[name for name, _, _ in _IMAGE_FAULTS],
    )
    def test_each_fault_is_named(self, obj, message):
        assert _outcome(_parse_image, obj) == ("SchemaError", message)

    @settings(max_examples=300)
    @given(st.data())
    def test_a_valid_image_parses_and_a_faulty_one_is_named(self, data):
        obj = data.draw(_image())
        faults = data.draw(st.integers(0, 2))
        for _ in range(faults):
            obj = data.draw(_faulty_image(obj))
        outcome = _outcome(_parse_image, obj)
        if faults:
            assert outcome[0] == "SchemaError"
        else:
            extra = {k: v for k, v in obj.items() if k not in _IMAGE_REQUIRED}
            assert outcome[0] == ImageRecord(obj["id"], obj["width"], obj["height"], obj["file_name"], extra)

    @pytest.mark.parametrize("obj", [None, [1], "image", 7])
    def test_a_non_object_is_named_by_position(self, obj):
        with pytest.raises(SchemaError, match="^image at position 3 is not an object$"):
            _parse_image(obj, 3)


# ---------------------------------------------------------------------------
# records

_RECORDS = [
    ImageRecord(1, 4, 4, "a.png"),
    CategoryRecord(1, "blob"),
    InstanceRecord(1, 1, 1, Polygons(((0.0, 0.0, 4.0, 0.0, 4.0, 4.0),)), (0.0, 0.0, 4.0, 4.0), 8.0, False),
    Polygons(((0.0, 0.0, 4.0, 0.0, 4.0, 4.0),)),
    RleMask((0, 16), 4, 4),
    Detection(1, 1, 1, 0.5, (0.0, 0.0, 4.0, 4.0)),
]


class TestRecords:
    @pytest.mark.parametrize("rec", _RECORDS, ids=lambda r: type(r).__name__)
    def test_every_field_is_read_only(self, rec):
        for name in rec._fields:
            with pytest.raises(AttributeError):
                setattr(rec, name, None)
        assert isinstance(rec, tuple)

    @pytest.mark.parametrize("make", [
        lambda: ImageRecord(1, 4, 4, "a.png"),
        lambda: CategoryRecord(1, "blob"),
        lambda: _RECORDS[2]._replace(id=2),
    ])
    def test_records_built_without_extra_share_no_mutable_default(self, make):
        first, second = make(), make()
        with pytest.raises(TypeError):
            first.extra["note"] = 1
        assert first.extra == second.extra == {} and not first.extra and repr(first).endswith("extra={})")
        assert pickle.loads(pickle.dumps(first)) == copy.deepcopy(first) == first

    def test_parsed_records_keep_their_own_extra(self):
        ds = ds_of([make_ann(i, 1, rect_ring(i, i, 5, 5)) for i in (1, 2)])
        first, second = ds.instances
        assert first.extra == second.extra == {} and first.extra is not second.extra


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

    def test_each_shape_issue_is_named_exactly(self):
        block = np.zeros((100, 100), dtype=bool)
        block[20:30, 40:50] = True
        rle = {"counts": list(encode_rle(block).counts), "size": [100, 100]}
        anns = [
            make_ann(1, 1, rect_ring(0, 0, 10, 10), area=100),
            make_ann(2, 1, rle, iscrowd=1, bbox=[40, 20, 10, 10], area=100),
            make_ann(3, 1, rect_ring(0, 0, 5, 5), area=999),
            make_ann(4, 1, [0, 0, 5, 0], bbox=[0, 0, 5, 1], area=999),
            make_ann(5, 1, [rect_ring(0, 0, 10, 10), [0, 0, 5, 0]], area=999),
            make_ann(6, 1, rect_ring(-2, 5, 10, 10), bbox=[0, 5, 8, 10], area=80),
            make_ann(7, 1, {"counts": [3000], "size": [50, 60]}, iscrowd=1, bbox=[0, 0, 5, 5], area=999),
            make_ann(8, 2, {"counts": [0, 2400], "size": [40, 60]}, iscrowd=1, bbox=[0, 0, 60, 40], area=2400),
            make_ann(9, 2, rect_ring(10, 10, 50, 30), area=1200),
        ]
        anns[0]["iscrowd"] = 1  # a crowd drawn as polygons
        anns[1]["iscrowd"] = 0  # a non-crowd drawn as RLE
        anns[2]["segmentation"] = []
        images = make_images(1) + [{"id": 2, "width": 60, "height": 40, "file_name": "img_2.png"}]
        ds = parse_dataset(make_coco(images, anns))
        assert validate(ds) == [
            Issue(IssueCode.ENCODING_MISMATCH, "crowd annotation 1 uses polygons", 1),
            Issue(IssueCode.ENCODING_MISMATCH, "non-crowd annotation 2 uses RLE", 2),
            Issue(IssueCode.DEGENERATE_POLYGON, "annotation 3 has no rings", 3),
            Issue(IssueCode.DEGENERATE_POLYGON, "annotation 4 has a ring with 2 vertices", 4),
            Issue(IssueCode.DEGENERATE_POLYGON, "annotation 5 has a ring with 2 vertices", 5),
            Issue(IssueCode.BAD_COORDINATE, "annotation 6 has negative coordinates", 6),
            Issue(IssueCode.RLE_GRID_MISMATCH, "annotation 7 RLE grid 50x60 != image 100x100", 7),
            Issue(IssueCode.AREA_MISMATCH, "annotation 9 stored area 1200.0 vs rasterized 1500", 9),
        ]

    def test_shapes_built_past_the_parser_are_counted_by_the_same_rule(self):
        # an odd coordinate count, and a grid of zero width: rasterization
        # rejects both, so neither gets an area check
        odd = Polygons(((0.0, 0.0, 9.0, 0.0, 9.0, 9.0, 0.0),))
        square = Polygons((tuple(map(float, rect_ring(0, 0, 4, 4))),))
        odd = InstanceRecord(1, 1, 1, odd, (0.0, 0.0, 9.0, 9.0), 999.0, False)
        flat = InstanceRecord(2, 2, 1, square, (0.0, 0.0, 0.0, 4.0), 999.0, False)
        images = (ImageRecord(1, 20, 20, "a.png"), ImageRecord(2, 0, 20, "b.png"))
        ds = AnnotationDataset(images, (CategoryRecord(1, "c"),), (odd, flat))
        assert [(i.code, i.instance_id) for i in validate(ds)] == [(IssueCode.ZERO_EXTENT_BBOX, 2)]


class TestLoad:
    def test_load_fixture_counts(self):
        ds = load_dataset(FIXTURES / "tiny_pair_a.json")
        assert len(ds.images) == 3
        assert len(ds.instances) == 5
        assert len(ds.categories) == 2

    def test_serialize_is_deterministic(self, tiny_a):
        assert serialize(tiny_a) == serialize(tiny_a)
        assert b'"annotations"' in serialize(tiny_a)
