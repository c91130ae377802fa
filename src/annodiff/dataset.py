"""COCO-format annotation corpus: strict parsing, indexing, views.

Parsing is structural and strict: required fields, types, id uniqueness and
reference integrity are enforced (``SchemaError`` / ``IntegrityError``).
Geometry is not checked: a degenerate ring, an out-of-bounds box or a stale
area parses, and each command that rasterizes a shape says what it does
with one it cannot rasterize. Unknown JSON fields, at the top level or on
any record, are accepted and ignored. Nothing writes a dataset back out.

Every record type is a ``NamedTuple``: immutable, and cheap to build once
per object. So are the configs and results (``AnnotationDataset`` here,
``EvalParams``, ``MatchConfig``, ``AuditConfig`` and the rest), so that
importing the package generates no code. One that checks its values, or
builds an index, does so in ``_check``, on every instance it builds
(:class:`_Checked`).

The ``annotations`` array is parsed as one batch. One pass picks out the
*plain* polygon annotations: objects with the seven required fields,
``int`` ids, a plain-number ``area``, an ``iscrowd`` of 0 or 1, a ``bbox``
list of 4 items, and rings that are lists of even length. Then one check
covers all of them at once: the types of all their numbers must be plain
``int`` or ``float``, and one sum of those numbers and the areas must be
finite (a finite sum means each value is; a sum that overflows fails the
check). If it passes, their records are built directly, and only then do
the other annotations (RLE crowds, anything else) go field by field, so the
first fault raised is the first by position. If it fails, the whole array
goes field by field. The field-by-field path is the reference and the one
place that names a fault: on any input, both give the same records or the
same ``SchemaError``. An image or a category always goes field by field.
"""

import json
import math
from itertools import chain, count
from operator import attrgetter
from typing import Any, NamedTuple

from .errors import IntegrityError, ParseError, SchemaError
from .raster import _PLAIN_NUMBERS
from .shapes import Polygons, RleMask, ShapeSpec

class ImageRecord(NamedTuple):
    id: int
    width: int
    height: int
    file_name: str


class CategoryRecord(NamedTuple):
    id: int
    name: str
    supercategory: str | None = None


class InstanceRecord(NamedTuple):
    id: int
    image_id: int
    category_id: int
    segmentation: ShapeSpec
    bbox: tuple[float, float, float, float]
    area: float
    iscrowd: bool


class _Checked:
    """Base of a subclass of a ``NamedTuple`` that checks its instances.

    Each instance the subclass builds (by a call, ``_make``, ``_replace``,
    a copy or an unpickling) goes through ``_check``, which raises for a bad
    value. First, a ``list`` or ``dict`` field left at its default gets a
    copy of its own, so that no two instances share one.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        defaults = cls._field_defaults
        fresh = {k: type(v)(v) for k, v in defaults.items() if type(v) in (list, dict) and getattr(self, k) is v}
        if fresh:
            self = tuple.__new__(cls, [fresh.get(k, v) for k, v in zip(cls._fields, self)])
        self._check()
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def _check(self) -> None:
        pass


class _AnnotationDataset(NamedTuple):
    images: tuple[ImageRecord, ...]
    categories: tuple[CategoryRecord, ...]
    instances: tuple[InstanceRecord, ...]


class AnnotationDataset(_Checked, _AnnotationDataset):
    """Parsed corpus: its records, plus a map from id to record for each of
    images, categories and instances.

    Ids are unique per namespace and every instance reference resolves;
    violations raise ``IntegrityError`` at construction time.
    """

    def _check(self):
        self._images_by_id = _unique_by_id(self.images, "image")
        self._categories_by_id = _unique_by_id(self.categories, "category")
        self._instances_by_id = _unique_by_id(self.instances, "annotation")
        for inst in self.instances:
            if inst.image_id not in self._images_by_id:
                raise IntegrityError(f"annotation {inst.id} -> image {inst.image_id}")
            if inst.category_id not in self._categories_by_id:
                raise IntegrityError(f"annotation {inst.id} -> category {inst.category_id}")

    def image(self, image_id: int) -> ImageRecord:
        return self._images_by_id[image_id]

    def instance(self, instance_id: int) -> InstanceRecord:
        return self._instances_by_id[instance_id]


def _unique_by_id(records, what: str) -> dict:
    by_id = {}
    for rec in records:
        if rec.id in by_id:
            raise IntegrityError(f"duplicate {what} id {rec.id}")
        by_id[rec.id] = rec
    return by_id


# ---------------------------------------------------------------------------
# parsing


def _finite(value, what: str, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{what} field '{name}' must be a number")
    try:
        value = float(value)
    except OverflowError:  # an integer beyond the float range
        raise SchemaError(f"{what} field '{name}' must be finite") from None
    if not math.isfinite(value):
        raise SchemaError(f"{what} field '{name}' must be finite")
    return value


_FLOATS = frozenset((float,))
_PLAIN_INTS = frozenset((int,))
_CROWD_FLAGS = (0, 1, True, False)
_BY_ID = attrgetter("id")
_new = tuple.__new__  # builds a NamedTuple record without its generated __new__


def _floats(values: list) -> tuple[float, ...]:
    """``values`` as floats. Raises ``OverflowError`` for an integer beyond
    the float range."""
    return tuple(map(float, values))


def _finite_tuple(values: list, what: str, name: str) -> tuple[float, ...]:
    """Every value through :func:`_finite`."""
    return tuple(_finite(v, what, name) for v in values)


def _integer(value, what: str, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{what} field '{name}' must be an integer")
    return value


def _required(obj: dict, name: str, what: str):
    if name not in obj:
        raise SchemaError(f"{what} missing required field '{name}'")
    return obj[name]


def _parse_image(obj, pos: int) -> ImageRecord:
    if not isinstance(obj, dict):
        raise SchemaError(f"image at position {pos} is not an object")
    what = f"image {obj['id']}" if "id" in obj else f"image at position {pos}"
    rec_id = _integer(_required(obj, "id", what), what, "id")
    width = _integer(_required(obj, "width", what), what, "width")
    height = _integer(_required(obj, "height", what), what, "height")
    if width < 1 or height < 1:
        raise SchemaError(f"{what} has non-positive dimensions {width}x{height}")
    file_name = _required(obj, "file_name", what)
    if not isinstance(file_name, str):
        raise SchemaError(f"{what} field 'file_name' must be a string")
    return ImageRecord(rec_id, width, height, file_name)


def _parse_category(obj, pos: int) -> CategoryRecord:
    if not isinstance(obj, dict):
        raise SchemaError(f"category at position {pos} is not an object")
    what = f"category {obj['id']}" if "id" in obj else f"category at position {pos}"
    rec_id = _integer(_required(obj, "id", what), what, "id")
    name = _required(obj, "name", what)
    if not isinstance(name, str) or not name:
        raise SchemaError(f"{what} field 'name' must be a non-empty string")
    supercategory = obj.get("supercategory")
    if supercategory is not None and not isinstance(supercategory, str):
        raise SchemaError(f"{what} field 'supercategory' must be a string")
    return CategoryRecord(rec_id, name, supercategory)


def _parse_segmentation(seg, what: str) -> ShapeSpec:
    if isinstance(seg, dict):
        counts = _required(seg, "counts", what)
        size = _required(seg, "size", what)
        if not isinstance(counts, list):
            raise SchemaError(
                f"{what} has non-list RLE counts (compressed RLE is not supported)"
            )
        # plain ints are taken in one pass; anything else goes value by
        # value, which names the fault (a bool is not an integer here)
        if not _PLAIN_INTS.issuperset(map(type, counts)):
            counts = [_integer(c, what, "counts") for c in counts]
        counts = tuple(counts)
        if counts and min(counts) < 0:
            raise SchemaError(f"{what} has negative RLE counts")
        if not isinstance(size, list) or len(size) != 2:
            raise SchemaError(f"{what} field 'size' must be [height, width]")
        h = _integer(size[0], what, "size")
        w = _integer(size[1], what, "size")
        if h < 0 or w < 0:
            raise SchemaError(f"{what} has negative RLE size {h}x{w}")
        if sum(counts) != h * w:
            raise SchemaError(f"{what} RLE counts sum {sum(counts)} != {h}x{w} grid")
        return RleMask(counts, h, w)
    if isinstance(seg, list):
        rings = []
        for ring in seg:
            if not isinstance(ring, list):
                raise SchemaError(f"{what} polygon ring must be a coordinate list")
            if len(ring) % 2 != 0:
                raise SchemaError(f"{what} polygon ring has odd coordinate count {len(ring)}")
            rings.append(_finite_tuple(ring, what, "segmentation"))
        return Polygons(tuple(rings))
    raise SchemaError(f"{what} field 'segmentation' must be polygons or RLE")


def _annotation_by_field(obj, pos: int) -> InstanceRecord:
    """One annotation, checked field by field; the one place that names an
    annotation's fault."""
    if not isinstance(obj, dict):
        raise SchemaError(f"annotation at position {pos} is not an object")
    what = f"annotation {obj['id']}" if "id" in obj else f"annotation at position {pos}"
    rec_id = _integer(_required(obj, "id", what), what, "id")
    image_id = _integer(_required(obj, "image_id", what), what, "image_id")
    category_id = _integer(_required(obj, "category_id", what), what, "category_id")
    bbox = _required(obj, "bbox", what)
    if not isinstance(bbox, list) or len(bbox) != 4:
        raise SchemaError(f"{what} field 'bbox' must be [x, y, w, h]")
    bbox = _finite_tuple(bbox, what, "bbox")
    area = _finite(_required(obj, "area", what), what, "area")
    iscrowd = _required(obj, "iscrowd", what)
    if iscrowd not in _CROWD_FLAGS:
        raise SchemaError(f"{what} field 'iscrowd' must be 0 or 1")
    segmentation = _parse_segmentation(_required(obj, "segmentation", what), what)
    return InstanceRecord(rec_id, image_id, category_id, segmentation, bbox, area, bool(iscrowd))


def _parse_annotations(objs: list) -> list[InstanceRecord]:
    """The record of each annotation of ``objs``, in order, or the first
    fault by position: the same outcome as :func:`_annotation_by_field` on
    each in turn.

    The plain polygon annotations are checked as one batch: one pass over
    the types of all their numbers, which must be plain ``int`` or
    ``float``, and one sum of them, which must be finite. Their records are
    then built directly. Only then do the others go field by field, so the
    first fault raised is the first by position. If the batch check fails
    (an ``OverflowError`` on the way counts as a failure), the whole list
    goes field by field.
    """
    records: list = [None] * len(objs)
    plain, others, numbers, areas = [], [], [], []
    for pos, obj in enumerate(objs):
        if type(obj) is dict:
            try:
                rec_id, image_id, category_id = obj["id"], obj["image_id"], obj["category_id"]
                seg, bbox, area, iscrowd = obj["segmentation"], obj["bbox"], obj["area"], obj["iscrowd"]
            except KeyError:
                pass
            else:
                if (
                    type(rec_id) is int
                    and type(image_id) is int
                    and type(category_id) is int
                    and type(area) in _PLAIN_NUMBERS
                    and iscrowd in _CROWD_FLAGS
                    and type(bbox) is list
                    and len(bbox) == 4
                    and type(seg) is list
                ):
                    for ring in seg:
                        if type(ring) is not list or len(ring) % 2:
                            break
                    else:
                        plain.append((pos, rec_id, image_id, category_id, seg, bbox, area, iscrowd))
                        numbers.append(bbox)
                        numbers += seg
                        areas.append(area)
                        continue
        others.append(pos)

    types = set(map(type, chain.from_iterable(numbers)))
    floats = tuple if types <= _FLOATS else _floats
    try:
        # the sum is finite only if every value is; an int beyond the float
        # range that another cancels overflows in float() instead
        valid = types <= _PLAIN_NUMBERS and math.isfinite(sum(chain.from_iterable(numbers), sum(areas)))
        if valid:
            for pos, rec_id, image_id, category_id, seg, bbox, area, iscrowd in plain:
                shape = _new(Polygons, (tuple(map(floats, seg)),))
                records[pos] = _new(
                    InstanceRecord,
                    (rec_id, image_id, category_id, shape, floats(bbox), float(area), bool(iscrowd)),
                )
    except OverflowError:
        valid = False
    if not valid:
        return list(map(_annotation_by_field, objs, count()))
    for pos in others:
        records[pos] = _annotation_by_field(objs[pos], pos)
    return records


def _load_json(raw: bytes | str) -> Any:
    """Decode UTF-8 JSON bytes or text.

    Raises:
        ParseError: not UTF-8 or not JSON, with the offset in the UTF-8
            bytes, or ``None`` where the JSON nests too deeply to decode.
    """
    if isinstance(raw, bytes):
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as e:
            raise ParseError(f"not UTF-8 at byte {e.start}", e.start) from None
    else:
        text = raw
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        offset = len(text[: e.pos].encode("utf-8"))
        raise ParseError(f"malformed JSON at byte {offset}: {e.msg}", offset) from None
    except RecursionError:  # the decoder recurses once per level of nesting
        raise ParseError("malformed JSON: nested too deeply", None) from None


def parse_dataset(raw: bytes | str) -> AnnotationDataset:
    """Parse COCO-format JSON bytes or text into an indexed, immutable dataset.

    The parse is order-independent: records are canonicalized by id, so any
    permutation of the same records yields an equal dataset.

    Raises:
        ParseError: not UTF-8 or not JSON (carries the byte offset, or
            ``None`` where the JSON nests too deeply to decode).
        SchemaError: a record is missing a field or has a malformed one.
        IntegrityError: duplicate ids or dangling image/category references.
    """
    doc = _load_json(raw)
    if not isinstance(doc, dict):
        raise SchemaError("top level must be a JSON object")
    for key in ("images", "annotations", "categories"):
        if key not in doc:
            raise SchemaError(f"missing top-level key '{key}'")
        if not isinstance(doc[key], list):
            raise SchemaError(f"top-level key '{key}' must be a list")

    # each record from its object and position, canonicalized by id
    images = tuple(sorted(map(_parse_image, doc["images"], count()), key=_BY_ID))
    categories = tuple(sorted(map(_parse_category, doc["categories"], count()), key=_BY_ID))
    instances = tuple(sorted(_parse_annotations(doc["annotations"]), key=_BY_ID))
    return AnnotationDataset(images, categories, instances)


def load_dataset(path) -> AnnotationDataset:
    """Read and parse a COCO JSON file."""
    with open(path, "rb") as f:
        return parse_dataset(f.read())


# ---------------------------------------------------------------------------
# views


def single_polygon_view(ds: AnnotationDataset) -> list[InstanceRecord]:
    """Instances eligible for shape matching: non-crowd, exactly one ring."""
    return [
        inst
        for inst in ds.instances
        if not inst.iscrowd
        and isinstance(inst.segmentation, Polygons)
        and inst.segmentation.ring_count == 1
    ]
