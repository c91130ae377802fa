"""COCO-format annotation corpus: strict parsing, indexing, validation, views.

Parsing is structural and strict: required fields, types, id uniqueness and
reference integrity are enforced (``SchemaError`` / ``IntegrityError``),
while geometric defects (degenerate polygons, out-of-bounds boxes, stale
areas) are reported by :func:`validate` as data, not failures. Unknown JSON
fields are preserved on every record and at the top level so files round-trip.

Every record type is a ``NamedTuple``: immutable, and cheap to build once
per object. A record built without ``extra`` gets an empty read-only mapping.

An annotation takes one of two paths. The fast path takes a *plain* polygon
annotation: an object with the seven required fields, ``int`` ids, a
``bbox`` of 4 plain ``int`` or ``float`` values, a plain-number ``area``, an
``iscrowd`` of 0 or 1, and rings that are lists of an even number of plain
numbers, every value finite. One combined test accepts it (a finite sum of
all the values means each is finite; a sum that overflows goes the other
way), and its record is built directly. Anything else (an RLE, a value of
another type, any fault) takes the naming path, which checks field by field
and names the first fault. The naming path is the reference: on any object,
both give the same record or the same ``SchemaError``. An image takes the
same two paths: a *plain* image (``int`` id, width and height, both sides at
least 1, and a ``str`` file name) is built directly.
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from enum import Enum
from itertools import count
from operator import attrgetter
from typing import Any, BinaryIO, NamedTuple

from .errors import IntegrityError, ParseError, SchemaError
from .raster import count_overlaps, rasterizable
from .shapes import Polygons, RleMask, ShapeSpec

_IMAGE_FIELDS = {"id", "width", "height", "file_name"}
_CATEGORY_FIELDS = {"id", "name", "supercategory"}
_ANNOTATION_FIELDS = {"id", "image_id", "category_id", "segmentation", "area", "bbox", "iscrowd"}


class _NoExtra(Mapping):
    """The ``extra`` of a record built without one: empty and read-only, so
    no two records share a mutable default; unlike a ``MappingProxyType``,
    it pickles and deep-copies."""

    def __getitem__(self, key):
        raise KeyError(key)

    def __iter__(self):
        return iter(())

    def __len__(self) -> int:
        return 0

    def __repr__(self) -> str:
        return "{}"


_NO_EXTRA = _NoExtra()


class ImageRecord(NamedTuple):
    id: int
    width: int
    height: int
    file_name: str
    extra: Mapping[str, Any] = _NO_EXTRA


class CategoryRecord(NamedTuple):
    id: int
    name: str
    supercategory: str | None = None
    extra: Mapping[str, Any] = _NO_EXTRA


class InstanceRecord(NamedTuple):
    id: int
    image_id: int
    category_id: int
    segmentation: ShapeSpec
    bbox: tuple[float, float, float, float]
    area: float
    iscrowd: bool
    extra: Mapping[str, Any] = _NO_EXTRA


@dataclass
class AnnotationDataset:
    """Parsed corpus with an image-id -> instance-ids index.

    Ids are unique per namespace and every instance reference resolves;
    violations raise ``IntegrityError`` at construction time.
    """

    images: tuple[ImageRecord, ...]
    categories: tuple[CategoryRecord, ...]
    instances: tuple[InstanceRecord, ...]
    extra: dict = field(default_factory=dict)
    index: dict[int, tuple[int, ...]] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        self._images_by_id = _unique_by_id(self.images, "image")
        self._categories_by_id = _unique_by_id(self.categories, "category")
        self._instances_by_id = _unique_by_id(self.instances, "annotation")
        per_image: dict[int, list[int]] = {img.id: [] for img in self.images}
        for inst in self.instances:
            if inst.image_id not in self._images_by_id:
                raise IntegrityError(f"annotation {inst.id} -> image {inst.image_id}")
            if inst.category_id not in self._categories_by_id:
                raise IntegrityError(f"annotation {inst.id} -> category {inst.category_id}")
            per_image[inst.image_id].append(inst.id)
        self.index = {k: tuple(sorted(v)) for k, v in per_image.items()}

    def image(self, image_id: int) -> ImageRecord:
        return self._images_by_id[image_id]

    def category(self, category_id: int) -> CategoryRecord:
        return self._categories_by_id[category_id]

    def instance(self, instance_id: int) -> InstanceRecord:
        return self._instances_by_id[instance_id]

    def instances_in(self, image_id: int) -> tuple[InstanceRecord, ...]:
        return tuple(self._instances_by_id[i] for i in self.index.get(image_id, ()))


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


_PLAIN_NUMBERS = frozenset((int, float))
_PLAIN_INTS = frozenset((int,))
_CROWD_FLAGS = (0, 1, True, False)
_BY_ID = attrgetter("id")


def _plain_floats(values: list) -> tuple[float, ...] | None:
    """``values`` as floats if each is a plain ``int`` or ``float``, else
    ``None``. Raises ``OverflowError`` for an integer beyond the float range."""
    if _PLAIN_NUMBERS.issuperset(map(type, values)):
        return tuple(map(float, values))
    return None


def _finite_tuple(values: list, what: str, name: str) -> tuple[float, ...]:
    """Every value through :func:`_finite`. Plain ints and floats are taken in
    one pass; anything else, or any fault, goes value by value, which names it."""
    try:
        out = _plain_floats(values)
    except OverflowError:
        out = None
    if out is not None and all(map(math.isfinite, out)):
        return out
    return tuple(_finite(v, what, name) for v in values)


def _integer(value, what: str, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{what} field '{name}' must be an integer")
    return value


def _required(obj: dict, name: str, what: str):
    if name not in obj:
        raise SchemaError(f"{what} missing required field '{name}'")
    return obj[name]


def _plain_image(obj) -> ImageRecord | None:
    """The record of a plain image, from one combined test, or ``None`` for
    anything else: a missing field, a value of another type, or a side
    below 1."""
    if type(obj) is not dict:
        return None
    try:
        rec_id, width, height, file_name = obj["id"], obj["width"], obj["height"], obj["file_name"]
    except KeyError:
        return None
    if not (
        type(rec_id) is int
        and type(width) is int
        and type(height) is int
        and type(file_name) is str
        and width >= 1
        and height >= 1
    ):
        return None
    extra = {} if len(obj) == 4 else {k: v for k, v in obj.items() if k not in _IMAGE_FIELDS}
    return ImageRecord(rec_id, width, height, file_name, extra)


def _image_by_field(obj, pos: int) -> ImageRecord:
    """One image, checked field by field; the one place that names an
    image's fault."""
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
    extra = {k: v for k, v in obj.items() if k not in _IMAGE_FIELDS}
    return ImageRecord(rec_id, width, height, file_name, extra)


def _parse_image(obj, pos: int) -> ImageRecord:
    """One image: a plain image is built directly, and anything else goes
    field by field, to the same record or the fault."""
    rec = _plain_image(obj)
    return _image_by_field(obj, pos) if rec is None else rec


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
    extra = {k: v for k, v in obj.items() if k not in _CATEGORY_FIELDS}
    return CategoryRecord(rec_id, name, supercategory, extra)


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


def _plain_annotation(obj) -> InstanceRecord | None:
    """The record of a plain polygon annotation, from one combined test, or
    ``None`` for anything else: an RLE, a missing field, a value of another
    type, or a value that is not finite."""
    if type(obj) is not dict:
        return None
    try:
        rec_id, image_id, category_id = obj["id"], obj["image_id"], obj["category_id"]
        seg, bbox, area, iscrowd = obj["segmentation"], obj["bbox"], obj["area"], obj["iscrowd"]
    except KeyError:
        return None
    if not (
        type(rec_id) is int
        and type(image_id) is int
        and type(category_id) is int
        and type(area) in _PLAIN_NUMBERS
        and iscrowd in _CROWD_FLAGS
        and type(bbox) is list
        and len(bbox) == 4
        and type(seg) is list
    ):
        return None
    rings = []
    try:
        for ring in seg:
            if type(ring) is not list or len(ring) % 2:
                return None
            rings.append(_plain_floats(ring))
        bbox = _plain_floats(bbox)
        area = float(area)
    except OverflowError:  # an integer beyond the float range
        return None
    if bbox is None or None in rings:
        return None
    # the sum is finite only if every value is; one that overflows goes
    # field by field, which accepts it
    if not math.isfinite(sum(map(sum, rings)) + sum(bbox) + area):
        return None
    extra = {} if len(obj) == 7 else {k: v for k, v in obj.items() if k not in _ANNOTATION_FIELDS}
    return InstanceRecord(
        rec_id, image_id, category_id, Polygons(tuple(rings)), bbox, area, bool(iscrowd), extra
    )


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
    extra = {k: v for k, v in obj.items() if k not in _ANNOTATION_FIELDS}
    return InstanceRecord(
        rec_id, image_id, category_id, segmentation, bbox, area, bool(iscrowd), extra
    )


def _parse_annotation(obj, pos: int) -> InstanceRecord:
    """One annotation: a plain polygon annotation is built directly, and
    anything else goes field by field, to the same record or the fault."""
    rec = _plain_annotation(obj)
    return _annotation_by_field(obj, pos) if rec is None else rec


def _load_json(raw: bytes | bytearray | str) -> Any:
    """Decode UTF-8 JSON bytes or text.

    Raises:
        ParseError: not UTF-8 or not JSON, with the offset in the UTF-8
            bytes, or ``None`` where the JSON nests too deeply to decode.
    """
    if isinstance(raw, (bytes, bytearray)):
        try:
            text = bytes(raw).decode("utf-8")
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


def parse_dataset(raw: bytes | str | BinaryIO) -> AnnotationDataset:
    """Parse COCO-format JSON bytes into an indexed, immutable dataset.

    The parse is order-independent: records are canonicalized by id, so any
    permutation of the same records yields an equal dataset.

    Raises:
        ParseError: not UTF-8 or not JSON (carries the byte offset, or
            ``None`` where the JSON nests too deeply to decode).
        SchemaError: a record is missing a field or has a malformed one.
        IntegrityError: duplicate ids or dangling image/category references.
    """
    if hasattr(raw, "read"):
        raw = raw.read()
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
    instances = tuple(sorted(map(_parse_annotation, doc["annotations"], count()), key=_BY_ID))
    extra = {k: v for k, v in doc.items() if k not in ("images", "annotations", "categories")}
    return AnnotationDataset(images, categories, instances, extra)


def load_dataset(path) -> AnnotationDataset:
    """Read and parse a COCO JSON file."""
    with open(path, "rb") as f:
        return parse_dataset(f)


# ---------------------------------------------------------------------------
# serialization


def to_coco(ds: AnnotationDataset) -> dict:
    """Rebuild the COCO-format dict, unknown fields included."""

    def seg_json(seg: ShapeSpec):
        if isinstance(seg, RleMask):
            return {"counts": list(seg.counts), "size": [seg.height, seg.width]}
        return [list(r) for r in seg.rings]

    return {
        **ds.extra,
        "images": [
            {"id": r.id, "width": r.width, "height": r.height, "file_name": r.file_name, **r.extra}
            for r in ds.images
        ],
        "annotations": [
            {
                "id": r.id,
                "image_id": r.image_id,
                "category_id": r.category_id,
                "segmentation": seg_json(r.segmentation),
                "area": r.area,
                "bbox": list(r.bbox),
                "iscrowd": int(r.iscrowd),
                **r.extra,
            }
            for r in ds.instances
        ],
        "categories": [
            {
                "id": r.id,
                "name": r.name,
                **({"supercategory": r.supercategory} if r.supercategory is not None else {}),
                **r.extra,
            }
            for r in ds.categories
        ],
    }


def serialize(ds: AnnotationDataset) -> bytes:
    """Canonical JSON bytes; ``parse_dataset(serialize(ds)) == ds``."""
    return json.dumps(to_coco(ds), sort_keys=True, separators=(",", ":")).encode("utf-8")


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


# ---------------------------------------------------------------------------
# validation


class IssueCode(Enum):
    DEGENERATE_POLYGON = "degenerate_polygon"
    BBOX_OUT_OF_BOUNDS = "bbox_out_of_bounds"
    ZERO_EXTENT_BBOX = "zero_extent_bbox"
    AREA_MISMATCH = "area_mismatch"
    NEGATIVE_AREA = "negative_area"
    BAD_COORDINATE = "bad_coordinate"
    ENCODING_MISMATCH = "encoding_mismatch"
    RLE_GRID_MISMATCH = "rle_grid_mismatch"


@dataclass(frozen=True)
class Issue:
    code: IssueCode
    message: str
    instance_id: int


def _pixel_areas(ds: AnnotationDataset, instances) -> dict[int, int]:
    """Rasterized pixel area, by id, of each of ``instances`` that
    :func:`~annodiff.raster.rasterizable` accepts on its image, from one
    overlap count keyed by image; any other shape (a degenerate ring, no
    ring, an RLE of another grid, an image side beyond 2**52 px) gets no
    area.
    """
    size = {img.id: (img.width, img.height) for img in ds.images}
    countable = [inst for inst in instances if rasterizable(inst.segmentation, *size[inst.image_id])]
    # keyed by image, among the images of countable shapes: the grid of any
    # other image may be one that count_overlaps rejects
    key = {i: k for k, i in enumerate(dict.fromkeys(inst.image_id for inst in countable))}
    items = [(inst.segmentation, key[inst.image_id]) for inst in countable]
    ov = count_overlaps(items, [], [size[i] for i in key])
    return dict(zip([inst.id for inst in countable], ov.area_a.tolist()))


def _issues(inst: InstanceRecord, image: ImageRecord, pixels: int | None, area_tolerance: float | None):
    """``(code, message)`` of each defect of one instance, in report order;
    ``pixels`` is its rasterized area, ``None`` where it is not counted."""
    seg = inst.segmentation
    if isinstance(seg, Polygons):
        if inst.iscrowd:
            yield IssueCode.ENCODING_MISMATCH, f"crowd annotation {inst.id} uses polygons"
        if seg.ring_count == 0:
            yield IssueCode.DEGENERATE_POLYGON, f"annotation {inst.id} has no rings"
        for n in (len(ring) // 2 for ring in seg.rings if len(ring) < 6):
            yield IssueCode.DEGENERATE_POLYGON, f"annotation {inst.id} has a ring with {n} vertices"
        if any(v < 0 for ring in seg.rings for v in ring):
            yield IssueCode.BAD_COORDINATE, f"annotation {inst.id} has negative coordinates"
    else:
        if not inst.iscrowd:
            yield IssueCode.ENCODING_MISMATCH, f"non-crowd annotation {inst.id} uses RLE"
        if (seg.height, seg.width) != (image.height, image.width):
            yield (
                IssueCode.RLE_GRID_MISMATCH,
                f"annotation {inst.id} RLE grid {seg.height}x{seg.width} != image {image.height}x{image.width}",
            )

    x, y, w, h = inst.bbox
    if w < 0 or h < 0 or x < 0 or y < 0 or x + w > image.width or y + h > image.height:
        yield (
            IssueCode.BBOX_OUT_OF_BOUNDS,
            f"annotation {inst.id} bbox {inst.bbox} outside {image.width}x{image.height}",
        )
    elif w == 0 or h == 0:
        yield IssueCode.ZERO_EXTENT_BBOX, f"annotation {inst.id} bbox has zero extent"

    if inst.area < 0:
        yield IssueCode.NEGATIVE_AREA, f"annotation {inst.id} area {inst.area} < 0"
    elif pixels is not None and abs(inst.area - pixels) > area_tolerance * max(pixels, 1):
        yield IssueCode.AREA_MISMATCH, f"annotation {inst.id} stored area {inst.area} vs rasterized {pixels}"


def validate(ds: AnnotationDataset, *, area_tolerance: float | None = 0.1) -> list[Issue]:
    """Report geometric and consistency defects without mutating the dataset.

    ``area_tolerance`` compares the stored area against the rasterized pixel
    count (relative to the latter); pass ``None`` to skip rasterization.
    """
    areas = {} if area_tolerance is None else _pixel_areas(ds, ds.instances)
    return [
        Issue(code, message, inst.id)
        for inst in ds.instances
        for code, message in _issues(inst, ds.image(inst.image_id), areas.get(inst.id), area_tolerance)
    ]
