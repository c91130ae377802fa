"""COCO-protocol average precision, for scoring one annotation set against another.

The protocol constants are fixed at the published benchmark values: ten IoU
thresholds 0.50:0.05:0.95 (``IOU_THRESHOLDS``), 101 recall sample points
(``RECALL_POINTS``) and the area strata all, small, medium and large
(``AREA_RANGES``), in which a ground truth is placed by its stored ``area``.
Only the task and the number of detections kept per image and category
(100 by default) are parameters (``EvalParams``). Matching semantics follow the
reference evaluator: per image and category, detections in descending score
order greedily take the not-yet-matched ground truth of highest IoU at or
above the threshold; crowd ground truths act as ignore regions (their overlap
is intersection over detection area, they can absorb any number of
detections, and matching one neither scores nor penalizes); ground truths
outside the area range under evaluation are likewise ignored, as are
unmatched detections whose own area falls outside it. Precision is made
monotonically non-increasing from the right and sampled at the recall points.

One deliberate difference from the reference implementation: precision is
tp / (tp + fp) with an explicit empty-denominator guard instead of adding a
floating-point epsilon to the denominator, so a perfect predictor scores
exactly 1.0 (the reference lands a few ulps below).

Strata with no ground truth are undefined rather than zero; they are dropped
from every average and surface as ``None``.

The engine matches in batches. A cell is one (category, image). Each cell's
detections are ordered by (descending score, id) and cut to
``max_detections``. Cells with detections are grouped into blocks of similar
size, padded into (C, D, G) IoU arrays with -1 in the padding. A block holds
at most ``_BLOCK`` elements, counted as C x max(D*G, A*T*max(G, D)); a cell
over the cap is a block of its own. One greedy pass per block walks detection
rank and, for every cell, area range and threshold at once, gives each
detection the free ground truth of highest IoU with IoU >= min(t, 1 - 1e-10).
It keeps the per-cell scan's rules exactly, so results are bit-equal to it:

- a real ground truth always beats an ignore region;
- among equal IoUs, the last ground truth in input order wins;
- a crowd is never taken.

Each category's detections are then ranked by a stable sort on descending
score, over the detections in image order, and precision is accumulated one
area range at a time.

For masks, every shape in a cell with detections is scan-converted once into
row runs, and one overlap count (:func:`annodiff.raster.count_overlaps`)
gives each shape's pixel area and the intersection of every detection with
every ground truth of its cell. A block's IoUs come from those integers, and
a detection's area, which places it in or out of an area range, is its pixel
count. ``cross_table`` counts a's shapes against b's once and derives both
directions from the one table: IoU is symmetric except at crowds, whose
denominator is the detection's own area, and ``max_detections`` is applied
per direction. A shape is counted on the grid of its direction's ground
truth, so an image whose size differs between the two datasets keeps one
grid per direction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .dataset import AnnotationDataset, _finite, _finite_tuple, _load_json, _parse_segmentation
from .errors import EvalError, GeometryError, SchemaError
from .raster import Overlaps, bbox_of_mask, bbox_of_polygon, box_overlaps, count_overlaps, decode_rle, iou
from .shapes import Polygons, RleMask, ShapeSpec

IOU_THRESHOLDS: tuple[float, ...] = tuple(np.linspace(0.5, 0.95, 10).tolist())
RECALL_POINTS: tuple[float, ...] = tuple(np.linspace(0.0, 1.0, 101).tolist())
AREA_RANGES: tuple[tuple[str, float, float], ...] = (
    ("all", 0.0, math.inf),
    ("small", 0.0, 32.0**2),
    ("medium", 32.0**2, 96.0**2),
    ("large", 96.0**2, math.inf),
)


class Detection(NamedTuple):
    """One scored prediction; ``segmentation`` is required for the segm task."""

    id: int
    image_id: int
    category_id: int
    score: float
    bbox: tuple[float, float, float, float]
    segmentation: ShapeSpec | None = None


@dataclass(frozen=True)
class DetectionSet:
    detections: tuple[Detection, ...] = ()

    def __len__(self) -> int:
        return len(self.detections)


@dataclass(frozen=True)
class EvalParams:
    task: str = "bbox"
    max_detections: int = 100

    def __post_init__(self) -> None:
        if self.task not in ("bbox", "segm"):
            raise ValueError(f"task must be 'bbox' or 'segm', got {self.task!r}")
        if self.max_detections < 1:
            raise ValueError("max_detections must be >= 1")


@dataclass(frozen=True)
class EvalResult:
    """Average-precision table; a ``None`` entry means the stratum had no
    ground truth and is excluded from every mean, never counted as zero."""

    task: str
    map: float | None
    map_50: float | None
    map_small: float | None
    map_medium: float | None
    map_large: float | None
    per_category: dict[int, float | None] = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "task": self.task,
            "mAP": self.map,
            "mAP@50": self.map_50,
            "mAP Large": self.map_large,
            "mAP Medium": self.map_medium,
            "mAP Small": self.map_small,
            "per_category": {str(k): v for k, v in sorted(self.per_category.items())},
        }


def annotations_as_detections(ds: AnnotationDataset) -> DetectionSet:
    """Re-cast every non-crowd instance as a score-1.0 prediction.

    Crowds are never emitted: they play their part as ignore regions on the
    ground-truth side only. Output is ordered by instance id.
    """
    # the parser stores each bbox as a tuple of floats
    return DetectionSet(
        tuple(
            Detection(inst.id, inst.image_id, inst.category_id, 1.0, inst.bbox, inst.segmentation)
            for inst in ds.instances
            if not inst.iscrowd
        )
    )


def _derived_bbox(seg: ShapeSpec) -> tuple[float, float, float, float]:
    if isinstance(seg, Polygons):
        return tuple(bbox_of_polygon(seg))
    return tuple(float(v) for v in bbox_of_mask(decode_rle(seg)))


def detections_from_results(raw) -> DetectionSet:
    """Parse the standard results-format JSON array.

    Entries are ``{image_id, category_id, bbox, score, segmentation?}``;
    ``bbox`` may be omitted when a segmentation is present (it is then derived
    from the shape). Detection ids are assigned by file position, starting
    at 1, which also fixes the score-tie order.

    Raises:
        ParseError: bytes that are not UTF-8, or text that is not JSON, as
            ``parse_dataset`` raises it.
        SchemaError: the array or an entry is malformed.
    """
    if isinstance(raw, (bytes, str)):
        raw = _load_json(raw)
    if not isinstance(raw, list):
        raise SchemaError("results file must be a JSON array of detections")
    dets = []
    for pos, entry in enumerate(raw):
        what = f"detection #{pos}"
        if not isinstance(entry, dict):
            raise SchemaError(f"{what} is not an object")
        for name in ("image_id", "category_id", "score"):
            if name not in entry:
                raise SchemaError(f"{what} missing required field '{name}'")
        image_id = entry["image_id"]
        category_id = entry["category_id"]
        if not isinstance(image_id, int) or isinstance(image_id, bool):
            raise SchemaError(f"{what} field 'image_id' must be an integer")
        if not isinstance(category_id, int) or isinstance(category_id, bool):
            raise SchemaError(f"{what} field 'category_id' must be an integer")
        score = _finite(entry["score"], what, "score")
        if not 0.0 <= score <= 1.0:
            raise SchemaError(f"{what} score {score} outside [0, 1]")
        seg = entry.get("segmentation")
        if seg is not None:
            seg = _parse_segmentation(seg, what)
        bbox = entry.get("bbox")
        if bbox is None:
            if seg is None:
                raise SchemaError(f"{what} needs a bbox or a segmentation")
            bbox = _derived_bbox(seg)
        else:
            if not isinstance(bbox, list) or len(bbox) != 4:
                raise SchemaError(f"{what} field 'bbox' must be [x, y, w, h]")
            bbox = _finite_tuple(bbox, what, "bbox")
        dets.append(
            Detection(
                id=pos + 1,
                image_id=image_id,
                category_id=category_id,
                score=score,
                bbox=bbox,
                segmentation=seg,
            )
        )
    return DetectionSet(tuple(dets))


# ---------------------------------------------------------------------------
# evaluation engine


# elements per block of cells, counted as C x max(D*G, A*T*max(G, D))
_BLOCK = 2**15


def _mask_iou_with_crowd(inter, d_area, g_area, crowd) -> np.ndarray:
    """:func:`iou` of a block's pixel counts ``inter`` (C, D, G), ``d_area``
    (C, D) and ``g_area`` (C, G), by the crowd rule where ``crowd`` (C, G) is
    set; a step of its own, which perfbench traces as a layer."""
    return iou(inter, d_area[:, :, None], g_area[:, None, :], crowd[:, None, :])


def _match_image(thresholds, ious, gt_ignore, crowd) -> tuple[np.ndarray, np.ndarray]:
    """Greedy matching of a block of cells, at every area range and threshold at once.

    ``ious`` is (C, D, G) with each cell's detections in rank order and -1 in
    the padding; ``gt_ignore`` is (C, A, G) and ``crowd`` (C, G). Returns
    ``matched`` and ``matched_ignore`` (the detection took an ignore region),
    both (C, A, T, D).
    """
    C, D, G = ious.shape
    A, T = gt_ignore.shape[1], len(thresholds)
    # Dense ranks keep the order and the ties of the IoUs exactly. Lifting each
    # real ground truth by the number of ranks puts it above every ignore
    # region, so one argmax applies both rules. Columns run in reverse, so the
    # argmax, which returns the first of equal keys, picks the last ground
    # truth in input order.
    values, rank = np.unique(ious[:, :, ::-1], return_inverse=True)
    rank = rank.reshape(C, D, 1, 1, G)
    ignore = gt_ignore[:, :, ::-1]
    lift = np.where(ignore, 0, values.size)[:, :, None, :]  # (C, A, 1, G)
    floor = np.searchsorted(values, np.minimum(thresholds, 1.0 - 1e-10))[:, None]  # (T, 1)
    free = np.ones((C, A, T, G), dtype=bool)
    rows = np.arange(C * A * T)  # one per (cell, area range, threshold)
    row_crowd = np.repeat(crowd[:, ::-1], A * T, axis=0)
    taken = np.empty((D, rows.size), dtype=np.intp)  # column taken, -1 for none
    for d in range(D):
        r = rank[:, d]
        key = np.where((r >= floor) & free, r + lift, -1).reshape(-1, G)
        m = key.argmax(axis=1)
        hit = key[rows, m] >= 0
        taken[d] = np.where(hit, m, -1)
        grab = rows[hit & ~row_crowd[rows, m]]  # a crowd is never taken
        free.reshape(-1, G)[grab, m[grab]] = False
    taken = taken.T.reshape(C, A, T * D)
    on_ignore = np.take_along_axis(ignore, np.maximum(taken, 0), axis=2)
    matched = taken >= 0
    return matched.reshape(C, A, T, D), (matched & on_ignore).reshape(C, A, T, D)


def _blocks(n_dt: np.ndarray, n_gt: np.ndarray, width: int):
    """Indices of the cells with detections, in blocks of similar size.

    Cells are sorted by detection count, then ground-truth count, and a block
    is cut before it would pass ``_BLOCK`` elements, counted as
    C x max(D*G, width*max(G, D)): the (C, D, G) IoUs, and the (C, A, T, G)
    free columns and (D, C*A*T) matches of the greedy pass. A cell over the
    cap is a block of its own.
    """
    live = np.flatnonzero(n_dt)
    live = live[np.lexsort((n_gt[live], n_dt[live]))].tolist()
    n_dt, n_gt = n_dt.tolist(), n_gt.tolist()
    block: list[int] = []
    g_max = 0
    for c in live:
        d, g = n_dt[c], max(g_max, n_gt[c])  # d never falls: cells come sorted
        if block and (len(block) + 1) * max(d * g, width * max(g, d)) > _BLOCK:
            yield np.array(block)
            block, g = [], n_gt[c]
        block.append(c)
        g_max = g
    if block:
        yield np.array(block)


def _pad(values: np.ndarray, ok: np.ndarray, fill) -> np.ndarray:
    """Scatter flat per-cell rows into a (C, N, ...) array at ``ok``; ``fill`` elsewhere."""
    out = np.full(ok.shape + values.shape[1:], fill, dtype=values.dtype)
    out[ok] = values
    return out


def _sampled_precision(tp: np.ndarray, fp: np.ndarray, n_positive: int, rec_thrs) -> np.ndarray:
    """(T, R) precision at the recall points, from (T, n) ranked tp/fp flags."""
    tps = np.cumsum(tp, axis=1, dtype=np.float64)
    fps = np.cumsum(fp, axis=1, dtype=np.float64)
    rc = tps / n_positive
    fps += tps
    # one zero column past the end: recall points out of reach read it
    pr = np.zeros((tps.shape[0], tps.shape[1] + 1), dtype=np.float64)
    np.divide(tps, fps, out=pr[:, :-1], where=fps > 0)
    pr = np.maximum.accumulate(pr[:, ::-1], axis=1)[:, ::-1]
    hits = np.array([np.searchsorted(row, rec_thrs, side="left") for row in rc])
    return np.take_along_axis(pr, hits, axis=1)


class _Cells(NamedTuple):
    """One scoring direction's (category, image) cells, in key order, with
    their ground truths and their ranked detections cut to
    ``max_detections``; ``gts`` and ``dts`` lay them out flat, cell after cell."""

    gt: AnnotationDataset
    keys: list[tuple[int, int]]
    cell_gts: list[list]
    cell_dts: list[list[Detection]]

    @property
    def gts(self) -> list:
        return [g for group in self.cell_gts for g in group]

    @property
    def dts(self) -> list[Detection]:
        return [d for group in self.cell_dts for d in group]


def _cells(dets: DetectionSet, gt: AnnotationDataset, params: EvalParams) -> _Cells:
    """Check the detections against the ground truth and group both into cells.

    Raises:
        EvalError: a detection references a category or image the ground
            truth does not define, or lacks a segmentation on the segm task.
    """
    cat_set, img_set = {c.id for c in gt.categories}, {i.id for i in gt.images}
    for d in dets.detections:
        if d.category_id not in cat_set:
            raise EvalError(f"detection {d.id} has unknown category {d.category_id}")
        if d.image_id not in img_set:
            raise EvalError(f"detection {d.id} has unknown image {d.image_id}")
        if params.task == "segm" and d.segmentation is None:
            raise EvalError(f"detection {d.id} has no segmentation (segm task)")
    gts_by: dict[tuple[int, int], list] = {}
    for inst in gt.instances:
        gts_by.setdefault((inst.category_id, inst.image_id), []).append(inst)
    dts_by: dict[tuple[int, int], list[Detection]] = {}
    for d in dets.detections:
        dts_by.setdefault((d.category_id, d.image_id), []).append(d)
    for group in dts_by.values():
        group.sort(key=lambda d: (-d.score, d.id))
        del group[params.max_detections :]
    keys = sorted(gts_by.keys() | dts_by.keys())
    return _Cells(gt, keys, [gts_by.get(k, []) for k in keys], [dts_by.get(k, []) for k in keys])


def _shapes(keys: dict, dets_of: _Cells | None = None, gts_of: _Cells | None = None):
    """The shapes one dataset brings to an overlap count: its detections in
    ``dets_of`` and its ground truths in the cells of ``gts_of`` that have
    detections, each once per grid.

    Returns the ``(shape, key)`` items, and each item's position among
    ``dets_of.dts`` and among ``gts_of.gts`` (-1 for none). ``keys`` maps
    (category, image, width, height) to a key, shared by both sides of the
    count; a shape lies on the grid of its direction's ground truth.

    Raises:
        GeometryError: an RLE's grid is not its image's; the error names
            the annotation, as ``validate`` does.
    """
    items: list = []
    d_pos: list[int] = []
    g_pos: list[int] = []
    seen: dict = {}
    for c, pos in ((dets_of, d_pos), (gts_of, g_pos)):
        if c is None:
            continue
        p = 0
        for (cat, img), gts, dts in zip(c.keys, c.cell_gts, c.cell_dts):
            group = dts if pos is d_pos else gts
            if dts:
                rec = c.gt.image(img)
                key = keys.setdefault((cat, img, rec.width, rec.height), len(keys))
                for q, inst in enumerate(group, p):
                    at = seen.setdefault((inst.id, key), len(items))
                    if at == len(items):
                        seg = inst.segmentation
                        if isinstance(seg, RleMask) and (seg.height, seg.width) != (rec.height, rec.width):
                            raise GeometryError(
                                f"annotation {inst.id} RLE grid {seg.height}x{seg.width}"
                                f" != image {rec.height}x{rec.width}"
                            )
                        items.append((seg, key))
                        d_pos.append(-1)
                        g_pos.append(-1)
                    pos[at] = q
            p += len(group)
    return items, np.array(d_pos, dtype=np.intp), np.array(g_pos, dtype=np.intp)


def _direction(ov: Overlaps, d_pos: np.ndarray, g_pos: np.ndarray, c: _Cells) -> Overlaps:
    """One direction's counts, over its flat detections (side a) and ground
    truths (side b), from an overlap count whose side a holds its detections
    at ``d_pos`` and side b its ground truths at ``g_pos``."""
    d_area = np.zeros(sum(map(len, c.cell_dts)), dtype=np.int64)
    g_area = np.zeros(sum(map(len, c.cell_gts)), dtype=np.int64)
    ok = d_pos >= 0
    d_area[d_pos[ok]] = ov.area_a[ok]
    ok = g_pos >= 0
    g_area[g_pos[ok]] = ov.area_b[ok]
    d, g = d_pos[ov.a], g_pos[ov.b]
    keep = (d >= 0) & (g >= 0)
    return Overlaps(d_area, g_area, d[keep], g[keep], ov.inter[keep])


def _pixel_counts(ab: _Cells, ba: _Cells | None = None) -> list[Overlaps]:
    """Segm pixel counts of direction ``ab``, and of the opposite direction
    ``ba`` when given, from one overlap count of ``ab``'s detections and
    ``ba``'s ground truths (one dataset's shapes) against the other's.

    Raises:
        GeometryError: a shape in a cell with detections has a degenerate
            ring or none, or an RLE does not fit its image.
    """
    keys: dict = {}
    side_a, ab_d, ba_g = _shapes(keys, dets_of=ab, gts_of=ba)
    side_b, ba_d, ab_g = _shapes(keys, dets_of=ba, gts_of=ab)
    ov = count_overlaps(side_a, side_b, [(w, h) for _, _, w, h in keys])
    counts = [_direction(ov, ab_d, ab_g, ab)]
    if ba is not None:
        counts.append(_direction(ov.transposed(), ba_d, ba_g, ba))
    return counts


def evaluate(dets: DetectionSet, gt: AnnotationDataset, params: EvalParams | None = None) -> EvalResult:
    """Score a detection set against ground truth; see the module docstring.

    Raises:
        EvalError: a detection references a category or image the ground
            truth does not define.
        GeometryError: on the segm task, a shape in a cell with detections
            has a degenerate ring or none, or an RLE does not fit its image.
    """
    params = params or EvalParams()
    c = _cells(dets, gt, params)
    if params.task == "bbox":
        return _score(c, params)
    (pixels,) = _pixel_counts(c)
    return _score(c, params, pixels)


def _score(c: _Cells, params: EvalParams, pixels: Overlaps | None = None) -> EvalResult:
    """The evaluation of one direction's cells: box IoUs, or mask IoUs from
    the pixel counts ``pixels`` (side a its detections) on the segm task."""
    cat_ids = sorted(cat.id for cat in c.gt.categories)
    gts, dts = c.gts, c.dts
    n_gt = np.array([len(group) for group in c.cell_gts], dtype=np.intp)
    n_dt = np.array([len(group) for group in c.cell_dts], dtype=np.intp)
    gt_start, dt_start = np.cumsum(n_gt) - n_gt, np.cumsum(n_dt) - n_dt

    T, R, K, A = len(IOU_THRESHOLDS), len(RECALL_POINTS), len(cat_ids), len(AREA_RANGES)
    ranges = np.array([(lo, hi) for _, lo, hi in AREA_RANGES], dtype=np.float64)

    def out_of_range(area: np.ndarray) -> np.ndarray:  # (A, n)
        return (area < ranges[:, :1]) | (area > ranges[:, 1:])

    cat_index = {cat: k for k, cat in enumerate(cat_ids)}
    gt_cat = np.array([cat_index[g.category_id] for g in gts], dtype=np.intp)
    crowd = np.array([g.iscrowd for g in gts], dtype=bool)
    gt_box = np.array([g.bbox for g in gts], dtype=np.float64).reshape(-1, 4)
    gt_area = np.array([g.area for g in gts], dtype=np.float64)
    gt_ignore = crowd | out_of_range(gt_area)  # (A, n_gt)
    n_positive = np.array([np.bincount(gt_cat[~ig], minlength=K) for ig in gt_ignore])  # (A, K)

    dt_cat = np.array([cat_index[d.category_id] for d in dts], dtype=np.intp)
    dt_score = np.array([d.score for d in dts], dtype=np.float64)
    dt_box = np.array([d.bbox for d in dts], dtype=np.float64).reshape(-1, 4)
    blocks = list(_blocks(n_dt, n_gt, A * T))
    if pixels is None:
        dt_area = dt_box[:, 2] * dt_box[:, 3]
    else:
        dt_area = pixels.area_a.astype(np.float64)
        # each intersection's cell and that cell's slot in its block; the
        # intersections grouped by block
        pair_cell = np.repeat(np.arange(n_dt.size), n_dt)[pixels.a]
        block_of, slot_of = np.empty(n_dt.size, dtype=np.intp), np.empty(n_dt.size, dtype=np.intp)
        for i, block in enumerate(blocks):
            block_of[block], slot_of[block] = i, np.arange(block.size)
        by_block = np.argsort(block_of[pair_cell], kind="stable")
        block_bounds = np.searchsorted(block_of[pair_cell][by_block], np.arange(len(blocks) + 1))
    matched = np.zeros((A, T, len(dts)), dtype=bool)
    on_ignore = np.zeros((A, T, len(dts)), dtype=bool)
    for i, block in enumerate(blocks):
        # a block of cells without ground truth still gets one padding column
        D, G = int(n_dt[block].max()), max(1, int(n_gt[block].max()))
        dt_ok = np.arange(D) < n_dt[block, None]
        gt_ok = np.arange(G) < n_gt[block, None]
        dt_at = (dt_start[block, None] + np.arange(D))[dt_ok]
        gt_at = (gt_start[block, None] + np.arange(G))[gt_ok]
        block_crowd = _pad(crowd[gt_at], gt_ok, False)
        if pixels is None:
            inter, d_area, g_area = box_overlaps(_pad(dt_box[dt_at], dt_ok, 0.0), _pad(gt_box[gt_at], gt_ok, 0.0))
            ious = iou(inter, d_area, g_area, block_crowd[:, None, :])
        else:
            at = by_block[block_bounds[i] : block_bounds[i + 1]]
            cell = pair_cell[at]
            inter = np.zeros((block.size, D, G), dtype=np.int64)
            inter[slot_of[cell], pixels.a[at] - dt_start[cell], pixels.b[at] - gt_start[cell]] = pixels.inter[at]
            ious = _mask_iou_with_crowd(
                inter, _pad(pixels.area_a[dt_at], dt_ok, 0), _pad(pixels.area_b[gt_at], gt_ok, 0), block_crowd
            )
        ious[~(dt_ok[:, :, None] & gt_ok[:, None, :])] = -1.0
        block_ignore = _pad(gt_ignore.T[gt_at], gt_ok, True).transpose(0, 2, 1)
        hit, hit_ignore = _match_image(IOU_THRESHOLDS, ious, block_ignore, block_crowd)
        matched[:, :, dt_at] = hit.transpose(1, 2, 0, 3)[:, :, dt_ok]
        on_ignore[:, :, dt_at] = hit_ignore.transpose(1, 2, 0, 3)[:, :, dt_ok]
    # unmatched detections outside the area range neither score nor penalize
    ignored = np.where(matched, on_ignore, out_of_range(dt_area)[:, None, :])

    # -1 marks undefined (category, area) strata, excluded from every mean
    precision = -np.ones((T, R, K, A), dtype=np.float64)
    rec_thrs = np.asarray(RECALL_POINTS, dtype=np.float64)
    # per category, a stable sort by score over the detections in image order
    order = np.lexsort((-dt_score, dt_cat))
    bounds = np.searchsorted(dt_cat[order], np.arange(K + 1))
    for a in range(A):
        tp = (matched[a] & ~ignored[a])[:, order]
        fp = (~matched[a] & ~ignored[a])[:, order]
        for k in np.flatnonzero(n_positive[a]):
            span = slice(bounds[k], bounds[k + 1])
            precision[:, :, k, a] = _sampled_precision(tp[:, span], fp[:, span], n_positive[a, k], rec_thrs)

    def stratum(t, a) -> float | None:  # a: all, small, medium, large
        block = precision[t, :, :, a]
        vals = block[block > -1]
        return float(vals.mean()) if vals.size else None

    per_category = {}
    for k, cat in enumerate(cat_ids):
        block = precision[:, :, k, 0]
        vals = block[block > -1]
        per_category[cat] = float(vals.mean()) if vals.size else None
    return EvalResult(
        task=params.task,
        map=stratum(slice(None), 0),
        map_50=stratum(0, 0),  # IOU_THRESHOLDS[0] is 0.5
        map_small=stratum(slice(None), 1),
        map_medium=stratum(slice(None), 2),
        map_large=stratum(slice(None), 3),
        per_category=per_category,
    )


def cross_table(
    a: AnnotationDataset,
    b: AnnotationDataset,
    tasks: tuple[str, ...] = ("bbox",),
    params: EvalParams | None = None,
) -> dict[str, dict[str, EvalResult]]:
    """Score each dataset against the other, per task.

    Returns ``{task: {"a_vs_b": ..., "b_vs_a": ...}}`` where ``a_vs_b`` treats
    a's annotations as the predictions and b as ground truth. On the segm
    task one overlap count of a's shapes against b's serves both directions.
    """
    out: dict[str, dict[str, EvalResult]] = {}
    for task in tasks:
        p = replace(params or EvalParams(), task=task)
        if task == "bbox":
            out[task] = {
                "a_vs_b": evaluate(annotations_as_detections(a), b, p),
                "b_vs_a": evaluate(annotations_as_detections(b), a, p),
            }
            continue
        ab = _cells(annotations_as_detections(a), b, p)
        ba = _cells(annotations_as_detections(b), a, p)
        ab_pixels, ba_pixels = _pixel_counts(ab, ba)
        out[task] = {"a_vs_b": _score(ab, p, ab_pixels), "b_vs_a": _score(ba, p, ba_pixels)}
    return out
