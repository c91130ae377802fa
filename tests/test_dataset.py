import copy
import json
import math
import pickle
import tempfile
from itertools import chain
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import annodiff.dataset
from annodiff.cli import main
from annodiff.dataset import (
    _annotation_by_field,
    _parse_annotations,
    _parse_image,
    CategoryRecord,
    ImageRecord,
    InstanceRecord,
    load_dataset,
    parse_dataset,
    single_polygon_view,
)
from annodiff.deteval import Detection, EvalParams, EvalResult
from annodiff.errors import IntegrityError, ParseError, SchemaError
from annodiff.matching import MatchSet
from annodiff.report import AuditConfig, canonical_report_bytes
from annodiff.shapes import Polygons, RleMask
from annodiff.stats import DatasetSummary

from conftest import FIXTURES, make_ann, make_coco, make_images, rect_ring, tiny_docs, write_pair


def ds_of(annotations, n_images=2, **kw):
    return parse_dataset(make_coco(make_images(n_images), annotations, **kw))


def _command_outputs(source: dict, target: dict, directory: Path) -> tuple[dict, dict]:
    """What every command gives on the pair ``source``, ``target``: each
    exit code, and the bytes of each file written, the diff reports without
    their timings. The pair is written to ``a.json`` and ``b.json`` in
    ``directory``, so that the reports of calls with the same directory
    echo the same paths."""
    a, b = write_pair([source, target], directory)
    out = Path(tempfile.mkdtemp(dir=directory))
    runs = {"eval": ["eval", a, b, "--task", "both"]}
    for mode in ("box", "mask"):
        runs[f"diff-{mode}"] = [
            "diff", a, b, "--iou-mode", mode, "--eval", "both",
            "--pairs-out", out / f"pairs-{mode}.ndjson", "--csv-dir", out / f"csv-{mode}",
        ]
        runs[f"match-{mode}"] = ["match", a, b, "--iou-mode", mode]
    for side, path in (("a", a), ("b", b)):
        for flags in ((), ("--recompute-areas",), ("--dims-buckets",)):
            runs[" ".join(["stats", side, *flags])] = ["stats", path, *flags]
    codes = {name: main([*map(str, argv), "--out", str(out / name)]) for name, argv in runs.items()}
    files = {p.relative_to(out).as_posix(): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
    for mode in ("box", "mask"):
        files[f"diff-{mode}"] = canonical_report_bytes(json.loads(files[f"diff-{mode}"]))
    return codes, files


class TestParse:
    def test_record_order_does_not_matter(self):
        anns = [make_ann(i, 1, rect_ring(i, i, 5, 5)) for i in (3, 1, 2)]
        forward = ds_of(anns)
        backward = ds_of(list(reversed(anns)))
        assert forward == backward
        assert [a.id for a in forward.instances] == [1, 2, 3]

    @pytest.mark.parametrize("overflow", [False, True], ids=["batch", "field-by-field"])
    def test_unknown_fields_are_ignored(self, overflow, tmp_path, monkeypatch):
        known = [{key: doc[key] for key in ("images", "categories", "annotations")} for doc in tiny_docs()]
        if overflow:  # finite coordinates whose sum is not: the batch check fails
            ring = [1e308, 0.0, 1e308, 10.0, 9e307, 10.0]
            known[0]["annotations"].append(make_ann(6, 3, ring, bbox=[9e307, 0.0, 1e307, 10.0], area=1.0))
        noisy = copy.deepcopy(known)
        for doc in noisy:
            doc.update(info={"year": 2024}, licenses=[{"id": 1, "name": "x"}])
            for key in ("images", "categories", "annotations"):
                for obj in doc[key]:
                    obj.update(note=None, attributes={"occluded": True}, id_=[1.5, "x"])
        calls = _count_by_field_calls(monkeypatch)
        for side, doc in enumerate(known):
            calls.clear()
            assert parse_dataset(json.dumps(noisy[side])) == parse_dataset(json.dumps(doc))
            # each annotation takes the same path with and without the fields
            every = overflow and side == 0
            by_field = [pos for pos, obj in enumerate(doc["annotations"]) if every or obj["iscrowd"]]
            assert calls == by_field * 2
        codes, files = _command_outputs(*known, tmp_path)
        assert set(codes.values()) == {0} and (codes, files) == _command_outputs(*noisy, tmp_path)

    def test_malformed_json_reports_byte_offset(self):
        with pytest.raises(ParseError) as e:
            parse_dataset('{"images": [},')
        assert e.value.byte_offset == '{"images": [},'.index("}")

    def test_deeply_nested_json_is_a_parse_error(self):
        with pytest.raises(ParseError, match="^malformed JSON: nested too deeply$") as e:
            parse_dataset("[" * 100_000)
        assert e.value.byte_offset is None

    @pytest.mark.parametrize("encode", [str, str.encode], ids=["str", "bytes"])
    def test_multibyte_text_keeps_byte_offsets(self, encode):
        # 6 ASCII bytes + 6 bytes of CJK before the bad token, in text or bytes
        with pytest.raises(ParseError, match="^malformed JSON at byte 12: ") as e:
            parse_dataset(encode('{"你好": [}'))
        assert e.value.byte_offset == len('{"你好": ['.encode("utf-8"))

    def test_bytes_not_utf8_are_a_parse_error(self):
        with pytest.raises(ParseError, match="^not UTF-8 at byte 2$") as e:
            parse_dataset(b'{"\xff": 1}')
        assert e.value.byte_offset == 2

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
# the batch of plain polygon annotations against the field-by-field path

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
    and float coordinates or an RLE, sometimes with unknown keys, with a
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
    unknown = st.sampled_from(["score", "attributes", "id_"])
    obj.update(draw(st.dictionaries(unknown, _numbers | st.text(max_size=3), max_size=2)))
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
        "field not a list", "huge ints that cancel",
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
    elif fault == "huge ints that cancel":
        for value in (10**400, -(10**400)):
            container, key = pick(_places(obj))
            container[key] = value
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


def _parse_one_by_one(objs):
    return [_annotation_by_field(obj, pos) for pos, obj in enumerate(objs)]


def _list_outcome(parse, objs):
    """The records and their ``repr``, or the text of the ``SchemaError``."""
    try:
        recs = parse(objs)
    except SchemaError as e:
        return "SchemaError", str(e)
    return recs, repr(recs)


def _count_by_field_calls(monkeypatch) -> list[int]:
    """The position of each ``_annotation_by_field`` call made from here on."""
    calls = []
    by_field = annodiff.dataset._annotation_by_field

    def counting(obj, pos):
        calls.append(pos)
        return by_field(obj, pos)

    monkeypatch.setattr(annodiff.dataset, "_annotation_by_field", counting)
    return calls


_RLE = {
    "id": 9, "image_id": 1, "category_id": 1, "segmentation": {"counts": [0, 16], "size": [4, 4]},
    "area": 16, "bbox": [0, 0, 4, 4], "iscrowd": 1,
}
_valid_neighbours = st.lists(st.sampled_from([_PLAIN, _RLE]).map(copy.deepcopy) | _annotation(), max_size=6)


class TestBatch:
    @pytest.mark.parametrize("obj", [o for _, o in _FAULT_TABLE], ids=[name for name, _ in _FAULT_TABLE])
    def test_each_fault_is_named_alone(self, obj):
        outcome = _list_outcome(_parse_annotations, [obj])
        assert outcome[0] == "SchemaError" and outcome == _list_outcome(_parse_one_by_one, [obj])

    @pytest.mark.parametrize("obj", [o for _, o in _FAULT_TABLE], ids=[name for name, _ in _FAULT_TABLE])
    @settings(max_examples=5)
    @given(st.data())
    def test_each_fault_is_named_among_valid_annotations(self, obj, data):
        objs = data.draw(_valid_neighbours)
        objs.insert(data.draw(st.integers(0, len(objs))), copy.deepcopy(obj))
        outcome = _list_outcome(_parse_annotations, objs)
        assert outcome[0] == "SchemaError" and outcome == _list_outcome(_parse_one_by_one, objs)

    @pytest.mark.parametrize("iscrowd", [0, 1, 0.0, 1.0, True, False])
    def test_every_iscrowd_flag_is_plain(self, iscrowd, monkeypatch):
        objs = [_with("iscrowd", iscrowd)]
        expected = _list_outcome(_parse_one_by_one, objs)
        calls = _count_by_field_calls(monkeypatch)
        (rec,) = _parse_annotations(objs)
        assert not calls and rec.iscrowd is bool(iscrowd) and repr([rec]) == expected[1]

    @settings(max_examples=150)
    @given(st.data())
    def test_agrees_with_the_field_by_field_path(self, data):
        objs = data.draw(st.lists(_annotation(), max_size=6))
        for _ in range(data.draw(st.integers(0, 2)) if objs else 0):
            pos = data.draw(st.integers(0, len(objs) - 1))
            objs[pos] = data.draw(_faulty(objs[pos]))
        assert _list_outcome(_parse_annotations, objs) == _list_outcome(_parse_one_by_one, objs)

    @pytest.mark.parametrize("obj", [None, [1], "annotation", 7])
    def test_a_non_object_is_named_by_position(self, obj):
        with pytest.raises(SchemaError, match="^annotation at position 3 is not an object$"):
            _parse_annotations([_PLAIN, _RLE, _PLAIN, obj, _with("iscrowd", 2)])

    def test_a_fault_the_batch_finds_is_named_before_a_later_one(self):
        objs = [_with("id", 1), _with("bbox", 0, float("nan")), _RLE, _with("area", ...)]
        expected = ("SchemaError", "annotation 7 field 'bbox' must be finite")
        assert _list_outcome(_parse_annotations, objs) == _list_outcome(_parse_one_by_one, objs) == expected

    def test_only_the_rle_goes_field_by_field(self, monkeypatch):
        objs = [_with("id", 1), _RLE, _with("extra", [1]), _with("segmentation", [])]
        expected = _list_outcome(_parse_one_by_one, objs)
        calls = _count_by_field_calls(monkeypatch)
        recs = _parse_annotations(objs)
        assert calls == [1] and repr(recs) == expected[1]

    @pytest.mark.parametrize("pos", [0, 1, 2])
    @pytest.mark.parametrize("place", [("segmentation", 0, 0), ("segmentation", 0, 5), ("bbox", 3)])
    def test_one_true_value_anywhere_is_named(self, pos, place):
        objs = [_with("id", i) for i in range(3)]
        container = objs[pos]
        for key in place[:-1]:
            container = container[key]
        container[place[-1]] = True
        expected = ("SchemaError", f"annotation {pos} field '{place[0]}' must be a number")
        assert _list_outcome(_parse_annotations, objs) == _list_outcome(_parse_one_by_one, objs) == expected

    def test_finite_values_whose_sum_overflows_parse(self):
        obj = _with("segmentation", 0, [1e308, 1e308, 1e308, 0.0, 0.0, 0.0])
        assert not math.isfinite(sum(obj["segmentation"][0]))
        objs = [_with("id", 1), obj, _RLE]
        outcome = _list_outcome(_parse_annotations, objs)
        assert outcome[0][1].segmentation.rings == ((1e308, 1e308, 1e308, 0.0, 0.0, 0.0),)
        assert outcome == _list_outcome(_parse_one_by_one, objs)

    def test_huge_ints_that_cancel_are_named(self):
        objs = [
            {**_with("id", i), "segmentation": [[0, 0, 4, 0, 4, 4]], "bbox": [0, 0, 4, 4], "area": 8}
            for i in (1, 2, 3)
        ]
        objs[1]["segmentation"][0][2:4] = [10**400, -(10**400)]
        # every value is an int, so a sum over all of them is exact, and finite
        assert math.isfinite(sum(v for obj in objs for v in [obj["area"], *obj["bbox"], *obj["segmentation"][0]]))
        expected = ("SchemaError", "annotation 2 field 'segmentation' must be finite")
        assert _list_outcome(_parse_annotations, objs) == _list_outcome(_parse_one_by_one, objs) == expected

    def test_a_file_goes_field_by_field_only_for_its_rles(self, monkeypatch):
        path = FIXTURES / "synthetic_a.json"
        objs = json.loads(path.read_text())["annotations"]
        rles = [pos for pos, obj in enumerate(objs) if isinstance(obj["segmentation"], dict)]
        calls = _count_by_field_calls(monkeypatch)
        ds = load_dataset(path)
        assert rles and calls == rles and len(ds.instances) == len(objs)

    @pytest.mark.parametrize("path", ["batch", "field by field"])
    def test_every_value_is_a_float(self, path, monkeypatch):
        objs = [
            {
                **_with("id", 1),
                "segmentation": [[0, 0, 4, 0, 4, 4], [1, 1.5, 2, 1, 2, 2]],
                "bbox": [0, 0, 4, 4],
                "area": 8,
            },
            _with("id", 2),
        ]
        if path == "field by field":  # finite values whose sum overflows fail the batch check
            objs.append({**_with("id", 3), "bbox": [1e308, 1e308, 1e308, 1]})
        calls = _count_by_field_calls(monkeypatch)
        recs = _parse_annotations(objs)
        assert calls == ([] if path == "batch" else list(range(len(objs))))
        assert recs[0].segmentation.rings == ((0.0, 0.0, 4.0, 0.0, 4.0, 4.0), (1.0, 1.5, 2.0, 1.0, 2.0, 2.0))
        values = [v for rec in recs for v in (rec.area, *rec.bbox, *chain.from_iterable(rec.segmentation.rings))]
        assert {type(v) for v in values} == {float}


# ---------------------------------------------------------------------------
# images, field by field

_IMAGE_REQUIRED = ("id", "width", "height", "file_name")


@st.composite
def _image(draw):
    """A valid image object, as ``json.loads`` gives it, sometimes with unknown keys."""
    obj = {
        "id": draw(st.integers(-5, 10**12)),
        "width": draw(st.integers(1, 2**64)),
        "height": draw(st.integers(1, 5000)),
        "file_name": draw(st.text(max_size=5)),
    }
    unknown = st.sampled_from(["license", "coco_url", "id_"])
    obj.update(draw(st.dictionaries(unknown, _numbers | st.text(max_size=3), max_size=2)))
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
            assert outcome[0] == ImageRecord(obj["id"], obj["width"], obj["height"], obj["file_name"])

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
        lambda: EvalResult("bbox", None, None, None, None, None),
        MatchSet,
        DatasetSummary,
    ], ids=["EvalResult", "MatchSet", "DatasetSummary"])
    def test_checked_records_built_with_defaults_own_their_containers(self, make):
        first, second = make(), make()
        mutable = {k: v for k, v in type(first)._field_defaults.items() if isinstance(v, (list, dict))}
        assert mutable
        for name, default in mutable.items():
            assert getattr(first, name) == default and getattr(first, name) is not getattr(second, name)
        assert pickle.loads(pickle.dumps(first)) == copy.deepcopy(first) == first

    def test_checked_records_check_every_instance_they_build(self, tiny_a):
        dangling = tiny_a.instances[0]._replace(image_id=99)
        with pytest.raises(IntegrityError, match="image 99"):
            tiny_a._replace(instances=(dangling,))
        with pytest.raises(ValueError, match="^bins must be >= 1$"):
            AuditConfig()._replace(bins=0)
        with pytest.raises(ValueError, match="^max_detections must be >= 1$"):
            EvalParams._make(("bbox", 0))
        again = pickle.loads(pickle.dumps(tiny_a))
        assert again == tiny_a and again.instance(5) == tiny_a.instance(5)


class TestAccessors:
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


class TestLoad:
    def test_load_fixture_counts(self):
        ds = load_dataset(FIXTURES / "tiny_pair_a.json")
        assert len(ds.images) == 3
        assert len(ds.instances) == 5
        assert len(ds.categories) == 2
