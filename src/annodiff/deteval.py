"""COCO-protocol average precision, for scoring one annotation set against another.

The protocol constants are fixed at the published benchmark values: ten IoU
thresholds 0.50:0.05:0.95 (``IOU_THRESHOLDS``), 101 recall sample points
(``RECALL_POINTS``) and the area strata all, small, medium and large
(``AREA_RANGES``), in which a ground truth is placed by its stored ``area``.
Only the task and the number of detections kept per image and category
(``MAX_DETECTIONS`` by default) are parameters: :func:`evaluate` takes both in
``EvalParams``, and :func:`cross_table` takes its tasks and the cap. Matching
semantics follow the reference evaluator: per image and category, detections
in descending score order greedily take the not-yet-matched ground truth of
highest IoU at or above the threshold; crowd ground truths act as ignore
regions (their overlap is intersection over detection area, they can absorb
any number of detections, and matching one neither scores nor penalizes);
ground truths outside the area range under evaluation are likewise ignored, as
are unmatched detections whose own area falls outside it. Precision is made
monotonically non-increasing from the right and sampled at the recall points.

One deliberate difference from the reference implementation: precision is
tp / (tp + fp) with an explicit empty-denominator guard instead of adding a
floating-point epsilon to the denominator, so a perfect predictor scores
exactly 1.0 (the reference lands a few ulps below).

Strata with no ground truth are undefined rather than zero; they are dropped
from every average and surface as ``None``.

The engine works on columns. Each dataset's instances, or ``evaluate``'s
detections, are turned into arrays once per call: id, image, category,
score, crowd flag, bbox (n x 4) and area, with the shapes kept by position.
A cell is one (category, image), keyed by one integer per row: category
place x image count + image place, among the sorted ids of the call's
datasets. One ``np.unique`` gives the sorted cell keys, a stable argsort
keeps each cell's ground truths in input order, and one lexsort by (cell,
descending score, id) ranks the detections, which a rank cut trims to
``max_detections``. ``cross_table`` builds no ``Detection``: a dataset's
non-crowd rows are its detections, scored by the same engine as
``evaluate``'s. A detection's fault (an unknown category or image, or no
segmentation on the segm task) is named for the first faulty detection by
position.

Cells with detections are grouped into blocks of similar size, padded into
(C, D, G) IoU arrays with -1 in the padding. A block holds at most
``_BLOCK`` elements, counted as C x max(D*G, A*T*max(G, D)); a cell over the
cap is a block of its own. One greedy pass per block walks detection rank
and, for every cell, area range and threshold at once, gives each detection
the free ground truth of highest IoU with IoU >= min(t, 1 - 1e-10). It keeps
the per-cell scan's rules exactly, so results are bit-equal to it:

- a real ground truth always beats an ignore region;
- among equal IoUs, the last ground truth in input order wins;
- a crowd is never taken.

Most (cell, area range, threshold) rows of a block pose the same problem as
another row of their cell, so the pass runs once per problem class and its
result is copied back to every row of the class. Two facts make this exact.
The thresholds ascend, so the IoUs each admits are nested: thresholds that
admit as many of a cell's IoUs admit the same ones and form a run, and a
threshold that admits none matches nothing. A range whose ignore flags are
all set, or all clear, on the cell's ground truths shifts every key by the
same amount, so all such ranges take the same ground truths; each range
still reads its own flags for whether a match took an ignore region.

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
grid per direction. The count's shapes are picked from the shape column by
row; an instance that is a detection of one direction and a ground truth of
the other, on the same grid, is counted once. The first shape that the count
reports (:func:`_named_fault`) fails the evaluation.
"""

import math
from collections.abc import Sequence
from itertools import chain, count, repeat
from operator import is_
from typing import NamedTuple

import numpy as np

from .dataset import AnnotationDataset, _Checked
from .errors import DegenerateShape, EvalError, GeometryError
from .raster import Overlaps, box_areas, box_overlaps, count_overlaps, iou
from .shapes import RleMask, ShapeSpec

IOU_THRESHOLDS: tuple[float, ...] = tuple(np.linspace(0.5, 0.95, 10).tolist())
RECALL_POINTS: tuple[float, ...] = tuple(np.linspace(0.0, 1.0, 101).tolist())
AREA_RANGES: tuple[tuple[str, float, float], ...] = (
    ("all", 0.0, math.inf),
    ("small", 0.0, 32.0**2),
    ("medium", 32.0**2, 96.0**2),
    ("large", 96.0**2, math.inf),
)
MAX_DETECTIONS = 100  # the default cap of detections per image and category


class Detection(NamedTuple):
    """One scored prediction; ``segmentation`` is required for the segm task."""

    id: int
    image_id: int
    category_id: int
    score: float
    bbox: tuple[float, float, float, float]
    segmentation: ShapeSpec | None = None


def _check_task(task: str) -> None:
    if task not in ("bbox", "segm"):
        raise ValueError(f"task must be 'bbox' or 'segm', got {task!r}")


class _EvalParams(NamedTuple):
    task: str = "bbox"
    max_detections: int = MAX_DETECTIONS


class EvalParams(_Checked, _EvalParams):
    __slots__ = ()

    def _check(self) -> None:
        _check_task(self.task)
        if self.max_detections < 1:
            raise ValueError("max_detections must be >= 1")


class _EvalResult(NamedTuple):
    task: str
    map: float | None
    map_50: float | None
    map_small: float | None
    map_medium: float | None
    map_large: float | None
    per_category: dict[int, float | None] = {}


class EvalResult(_Checked, _EvalResult):
    """Average-precision table; a ``None`` entry means the stratum had no
    ground truth and is excluded from every mean, never counted as zero."""

    __slots__ = ()

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


def annotations_as_detections(ds: AnnotationDataset) -> tuple[Detection, ...]:
    """Re-cast every non-crowd instance as a score-1.0 prediction.

    Crowds are never emitted: they play their part as ignore regions on the
    ground-truth side only. Output is ordered by instance id.
    """
    # the parser stores each bbox as a tuple of floats
    return tuple(
        Detection(inst.id, inst.image_id, inst.category_id, 1.0, inst.bbox, inst.segmentation)
        for inst in ds.instances
        if not inst.iscrowd
    )


# ---------------------------------------------------------------------------
# evaluation engine


# elements per block of cells, counted as C x max(D*G, A*T*max(G, D))
_BLOCK = 2**15


def _mask_iou_with_crowd(inter, d_area, g_area, crowd) -> np.ndarray:
    """:func:`iou` of a block's pixel counts ``inter`` (C, D, G), ``d_area``
    (C, D) and ``g_area`` (C, G), by the crowd rule where ``crowd`` (C, G) is
    set; a step of its own, which perfbench traces as a layer."""
    return iou(inter, d_area[:, :, None], g_area[:, None, :], crowd[:, None, :])


def _problems(rank: np.ndarray, floor: np.ndarray, ignore: np.ndarray, gt_ok: np.ndarray):
    """The distinct greedy problems of a block, one row each.

    ``rank`` is (C, D, G), ``floor`` the least rank each threshold admits,
    and ``ignore`` (C, A, G) and ``gt_ok`` (C, G) are in ``rank``'s column
    order. Returns each problem's flat (cell, area range, threshold) index,
    in order, and the 1-based row of the problem that each (C, A, T) entry
    poses, 0 where its threshold admits no IoU of the cell.

    Two thresholds that admit as many of a cell's entries admit the same
    ones, since the floors ascend; such thresholds are runs, posed by the
    run's first. A range whose flags are all set, or all clear, on the
    cell's real ground truths lifts every key by the same amount, so all
    such ranges pose the problem of the first of them.
    """
    C, A, T = *ignore.shape[:2], floor.size
    # how many thresholds admit each entry, counted per cell
    level = np.searchsorted(floor, rank.reshape(C, -1), side="right")
    level += np.arange(0, C * (T + 1), T + 1)[:, None]
    seen = np.bincount(level.ravel(), minlength=C * (T + 1)).reshape(C, T + 1)
    live = np.cumsum(seen[:, :0:-1], axis=1)[:, ::-1] > 0  # (C, T): admits an entry
    first = live.copy()
    first[:, 1:] &= seen[:, 1:T] > 0  # admits fewer than the threshold before it
    n_set = np.count_nonzero(ignore & gt_ok[:, None, :], axis=2)
    uniform = (n_set == 0) | (n_set == np.count_nonzero(gt_ok, axis=1)[:, None])
    alike = np.where(uniform, uniform.argmax(axis=1)[:, None], np.arange(A))
    rows = (alike == np.arange(A))[:, :, None] & first[:, None, :]
    # along a range's thresholds, the running count of rows is the row of
    # each run's first
    number = np.cumsum(rows).reshape(C * A, T)
    number = number[(alike + np.arange(0, C * A, A)[:, None]).ravel()].reshape(C, A, T)
    number *= live[:, None, :]
    return np.flatnonzero(rows), number


def _match_image(thresholds, ious, gt_ignore, crowd, dt_ok, gt_ok) -> tuple[np.ndarray, np.ndarray]:
    """Greedy matching of a block of cells, at every area range and threshold at once.

    ``ious`` is (C, D, G) with each cell's detections in rank order and -1 in
    the padding; ``gt_ignore`` is (C, A, G), ``crowd`` (C, G), and ``dt_ok``
    (C, D) and ``gt_ok`` (C, G) mark the real detections and ground truths.
    Returns ``matched`` and ``matched_ignore`` (the detection took an ignore
    region), both (n, A, T) over the block's n real detections in (cell,
    rank) order. The pass runs once per distinct problem (:func:`_problems`),
    whose result serves each (cell, area range, threshold) that poses it.
    """
    C, D, G = ious.shape
    A, T = gt_ignore.shape[1], len(thresholds)
    # Dense ranks keep the order and the ties of the IoUs exactly. Lifting each
    # real ground truth by the number of ranks puts it above every ignore
    # region, so one argmax applies both rules. Columns run in reverse, so the
    # argmax, which returns the first of equal keys, picks the last ground
    # truth in input order.
    values, rank = np.unique(ious[:, :, ::-1], return_inverse=True)
    rank = rank.reshape(C, D, G)
    ignore = np.ascontiguousarray(gt_ignore[:, :, ::-1])
    floor = np.searchsorted(values, np.minimum(thresholds, 1.0 - 1e-10))
    rows, problem = _problems(rank, floor, ignore, gt_ok[:, ::-1])
    P = rows.size
    cell_range, t = np.divmod(rows, T)
    cells = cell_range // A
    lift = np.where(ignore.reshape(C * A, G)[cell_range], 0, values.size)
    least = floor[t, None]
    # a ground truth once taken is keyed below every rank; a crowd never is
    spent = np.where(crowd[cells, ::-1], lift, -2 * values.size - 2).ravel()
    lift = lift.ravel()
    by_rank = rank.transpose(1, 0, 2)
    starts = np.arange(0, P * G, G)
    taken = np.full((P + 1, D), -1, dtype=np.intp)  # column taken, -1 for none; row 0 for no problem
    for d in range(D):
        r = by_rank[d][cells]
        key = np.where(r >= least, r + lift.reshape(P, G), -1)
        m = key.argmax(axis=1) + starts
        hit = key.ravel()[m] >= 0
        taken[1:, d] = np.where(hit, m - starts, -1)
        grab = m[hit]
        lift[grab] = spent[grab]
    c, d = np.nonzero(dt_ok)
    taken = taken.ravel()[problem[c] * D + d[:, None, None]]
    matched = taken >= 0
    # each range reads its own flags (where nothing was taken, column -1
    # reads a neighbour's flag, which ``matched`` masks off)
    on_ignore = ignore.ravel()[taken + np.arange(0, C * A * G, G).reshape(C, A, 1)[c]]
    return matched, matched & on_ignore


def _blocks(n_dt: np.ndarray, n_gt: np.ndarray, width: int):
    """Indices of the cells with detections, in blocks of similar size.

    Cells are sorted by detection count, then ground-truth count, and a block
    is cut before it would pass ``_BLOCK`` elements, counted as
    C x max(D*G, width*max(G, D)): the (C, D, G) IoUs, and the (P, G) keys
    and (P, D) matches of the greedy pass, whose P problems number C*A*T at
    most. A cell over the cap is a block of its own.
    """
    live = np.flatnonzero(n_dt)
    live = live[np.lexsort((n_gt[live], n_dt[live]))]
    d, g = n_dt[live], n_gt[live]
    # every cell costs at least ``width``: no block holds more cells than this
    span = max(1, _BLOCK // width)
    start = 0
    while start < live.size:
        stop = min(start + span, live.size)
        # D is the last cell's count, since cells come sorted; G the most of any
        D, G = d[start:stop], np.maximum.accumulate(g[start:stop])
        cost = np.arange(1, stop - start + 1) * np.maximum(D * G, width * np.maximum(G, D))
        over = cost[1:] > _BLOCK
        end = start + 1 + int(over.argmax()) if over.any() else stop
        yield live[start:end]
        start = end


def _pad(values: np.ndarray, ok: np.ndarray, fill) -> np.ndarray:
    """Scatter flat per-cell rows into a (C, N, ...) array at ``ok``; ``fill`` elsewhere."""
    out = np.full(ok.shape + values.shape[1:], fill, dtype=values.dtype)
    out[ok] = values
    return out


def _sampled_precision(tp: np.ndarray, fp: np.ndarray, n_positive: int, rec_thrs) -> np.ndarray:
    """(T, R) precision at the recall points, from (T, n) ranked tp/fp flags."""
    (T, n), R = tp.shape, rec_thrs.size
    tps = np.cumsum(tp, axis=1)
    fps = np.cumsum(fp, axis=1)
    fps += tps
    # one zero column past the end: recall points out of reach read it
    pr = np.zeros((T, n + 1), dtype=np.float64)
    np.divide(tps, fps, out=pr[:, :-1], where=fps > 0)
    pr = np.maximum.accumulate(pr[:, ::-1], axis=1)[:, ::-1]
    # A recall point reads the first column whose recall reaches it: the
    # number of columns whose recall is below it. A column's recall is one of
    # the n + 1 values (0..n) / n_positive; one search gives the number of
    # recall points at or below each, and a column is below every point
    # past those.
    reached = np.searchsorted(rec_thrs, np.arange(n + 1) / n_positive, side="right")[tps]
    reached += np.arange(0, T * (R + 1), R + 1)[:, None]
    below = np.bincount(reached.ravel(), minlength=T * (R + 1)).reshape(T, R + 1)
    return np.take_along_axis(pr, np.cumsum(below[:, :R], axis=1), axis=1)


def _index(*datasets: AnnotationDataset) -> tuple[dict, dict]:
    """The image and the category ids of ``datasets``, each mapped to its
    place in sorted order."""
    images = sorted({img.id for ds in datasets for img in ds.images})
    categories = sorted({cat.id for ds in datasets for cat in ds.categories})
    return dict(zip(images, count())), dict(zip(categories, count()))


def _places(place: dict, ids) -> np.ndarray:
    """The place of each of ``ids``, -1 for an id that ``place`` lacks."""
    return np.fromiter(map(place.get, ids, repeat(-1)), dtype=np.intp, count=len(ids))


def _ints(values) -> np.ndarray:
    """Python ints as int64, or kept as they are where one is beyond it."""
    try:
        return np.fromiter(values, dtype=np.int64, count=len(values))
    except OverflowError:
        return np.array(values, dtype=object)


def _column(values, dtype=np.float64, width: int = 1) -> np.ndarray:
    """Numbers, or rows of ``width`` numbers, as an (n,) or (n, width) array."""
    if width == 1:
        return np.fromiter(values, dtype=dtype, count=len(values))
    return np.fromiter(chain.from_iterable(values), dtype=dtype, count=width * len(values)).reshape(-1, width)


class _Rows(NamedTuple):
    """Instances or detections as columns, one row each, in input order.
    ``image`` and ``category`` are places in the call's :func:`_index`, and
    ``records`` the rows as given, for the values an error names. An
    instance scores 1.0; a detection has no crowd flag or area (``None``)."""

    records: Sequence
    id: np.ndarray  # int64, or Python ints beyond it, which sort as ids do
    image: np.ndarray
    category: np.ndarray
    score: np.ndarray
    crowd: np.ndarray | None
    bbox: np.ndarray
    area: np.ndarray | None
    shape: tuple


def _instance_rows(ds: AnnotationDataset, index: tuple[dict, dict]) -> _Rows:
    ids, images, cats, shapes, boxes, areas, crowds = tuple(zip(*ds.instances)) or ((),) * 7
    place = _places(index[0], images), _places(index[1], cats)
    return _Rows(
        ds.instances, _ints(ids), *place, np.ones(len(ids)),
        _column(crowds, bool), _column(boxes, width=4), _column(areas), shapes,
    )


def _detection_rows(dets: Sequence[Detection], index: tuple[dict, dict]) -> _Rows:
    ids, images, cats, scores, boxes, shapes = tuple(zip(*dets)) or ((),) * 6
    place = _places(index[0], images), _places(index[1], cats)
    return _Rows(dets, _ints(ids), *place, _column(scores), None, _column(boxes, width=4), None, shapes)


class _Cells(NamedTuple):
    """One scoring direction's (category, image) cells, in key order.

    ``gts`` and ``dts`` are rows of ``gt`` and ``dt``, cell after cell: the
    ground truths in input order, and the detections ranked by (descending
    score, id) and cut to ``max_detections``; ``n_gt`` and ``n_dt`` count
    them per cell. ``cat_ids`` are the ground truth's categories, sorted,
    and ``cat`` maps a category's place in the index to its place among
    them. ``size`` is the (width, height) of each of the ground truth's
    images, by place in the index.
    """

    gt: _Rows
    dt: _Rows
    keys: np.ndarray  # category place x image count + image place
    gts: np.ndarray
    dts: np.ndarray
    n_gt: np.ndarray
    n_dt: np.ndarray
    cat_ids: list
    cat: np.ndarray
    size: np.ndarray


def _cells(
    dt: _Rows, rows: np.ndarray, gt: _Rows, truth: AnnotationDataset, index: tuple[dict, dict],
    max_detections: int, segm: bool,
) -> _Cells:
    """Check detections ``rows`` of ``dt`` against the ground truth ``gt``,
    the instances of ``truth``, and group both into cells.

    Raises:
        EvalError: a detection references a category or image the ground
            truth does not define, or lacks a segmentation when ``segm`` is
            set; the first such detection by position is named.
    """
    n_img = len(index[0])
    image_ids, widths, heights = (tuple(zip(*truth.images)) or ((),) * 4)[:3]
    at = _places(index[0], image_ids)
    # one spare place past the end, which -1 (an id the index lacks) reads
    has_image = np.zeros(n_img + 1, dtype=bool)
    has_image[at] = True
    sides = _ints(widths + heights)  # a side beyond int64 is kept, for count_overlaps to name
    size = np.zeros((n_img, 2), dtype=sides.dtype)
    size[at] = sides.reshape(2, -1).T
    cat_ids = sorted(cat.id for cat in truth.categories)
    has_cat = np.zeros(len(index[1]) + 1, dtype=bool)
    has_cat[_places(index[1], cat_ids)] = True

    d_cat, d_img = dt.category[rows], dt.image[rows]
    bad = ~has_cat[d_cat] | ~has_image[d_img]
    if segm:
        bad |= np.fromiter(map(is_, dt.shape, repeat(None)), dtype=bool, count=len(dt.shape))[rows]
    if bad.any():
        at = int(rows[bad.argmax()])
        d = dt.records[at]
        if not has_cat[dt.category[at]]:
            raise EvalError(f"detection {d.id} has unknown category {d.category_id}")
        if not has_image[dt.image[at]]:
            raise EvalError(f"detection {d.id} has unknown image {d.image_id}")
        raise EvalError(f"detection {d.id} has no segmentation (segm task)")

    g_key = gt.category * n_img + gt.image
    keys, cell = np.unique(np.concatenate([g_key, d_cat * n_img + d_img]), return_inverse=True)
    g_cell, d_cell = cell[: g_key.size], cell[g_key.size :]
    order = np.lexsort((dt.id[rows], -dt.score[rows], d_cell))
    d_cell = d_cell[order]
    n_all = np.bincount(d_cell, minlength=keys.size)
    keep = np.arange(d_cell.size) - (np.cumsum(n_all) - n_all)[d_cell] < max_detections
    n_gt, n_dt = np.bincount(g_cell, minlength=keys.size), np.bincount(d_cell[keep], minlength=keys.size)
    gts, dts = np.argsort(g_cell, kind="stable"), rows[order[keep]]
    return _Cells(gt, dt, keys, gts, dts, n_gt, n_dt, cat_ids, np.cumsum(has_cat[:-1]) - 1, size)


def _shapes(dets=None, gts=None):
    """The shapes one dataset brings to an overlap count: the detections of
    direction ``dets`` and the ground truths of direction ``gts`` in its
    cells with detections, each once per grid. Each direction comes as
    ``(cells, key)``, where ``key`` is the grid key of each of its cells.

    Returns the ``(shape, key)`` items, each item's row among the dataset's
    columns, and its position among the flat detections of ``dets`` and
    among the flat ground truths of ``gts`` (-1 for none).
    """
    empty = np.zeros(0, dtype=np.intp)
    d_rows = d_key = g_rows = g_key = g_at = empty
    if dets is not None:
        c, key = dets
        table, d_rows, d_key = c.dt, c.dts, np.repeat(key, c.n_dt)
    if gts is not None:
        c, key = gts
        g_at = np.flatnonzero(np.repeat(c.n_dt > 0, c.n_gt))
        table, g_rows, g_key = c.gt, c.gts[g_at], np.repeat(key, c.n_gt)[g_at]
    # a ground truth that is also one of the detections, on the same grid,
    # is the same item
    det_key = np.full(len(table.shape), -1)
    det_key[d_rows] = d_key
    det_item = np.full(len(table.shape), -1)
    det_item[d_rows] = np.arange(d_rows.size)
    shared = det_key[g_rows] == g_key
    rows = np.concatenate([d_rows, g_rows[~shared]])
    keys = np.concatenate([d_key, g_key[~shared]])
    d_pos = np.full(rows.size, -1)
    d_pos[: d_rows.size] = np.arange(d_rows.size)
    g_pos = np.full(rows.size, -1)
    g_pos[d_rows.size :] = g_at[~shared]
    g_pos[det_item[g_rows[shared]]] = g_at[shared]

    shapes = map(table.shape.__getitem__, rows.tolist())
    return list(zip(shapes, keys.tolist())), rows, d_pos, g_pos


def _direction(ov: Overlaps, d_pos: np.ndarray, g_pos: np.ndarray, c: _Cells) -> Overlaps:
    """One direction's counts, over its flat detections (side a) and ground
    truths (side b), from an overlap count whose side a holds its detections
    at ``d_pos`` and side b its ground truths at ``g_pos``."""
    d_area = np.zeros(c.dts.size, dtype=np.int64)
    g_area = np.zeros(c.gts.size, dtype=np.int64)
    ok = d_pos >= 0
    d_area[d_pos[ok]] = ov.area_a[ok]
    ok = g_pos >= 0
    g_area[g_pos[ok]] = ov.area_b[ok]
    d, g = d_pos[ov.a], g_pos[ov.b]
    keep = (d >= 0) & (g >= 0)
    return Overlaps(d_area, g_area, d[keep], g[keep], ov.inter[keep], {})


def _named_fault(ov: Overlaps, sides, grids: list):
    """The error of the first shape that ``ov`` reports, naming its
    annotation where the shape is at fault: a degenerate ring or none, or
    an RLE of another grid than its image's. Each side is ``(items, rows,
    table)``: the items and rows of :func:`_shapes`, and the columns the
    rows are of; ``grids`` holds the (width, height) of each key."""
    at, exc = next(iter(ov.faults.items()))
    for items, rows, table in sides:
        if at < len(items):
            break
        at -= len(items)
    (seg, key), ann = items[at], table.records[rows[at]].id
    if isinstance(exc, DegenerateShape):
        return DegenerateShape(f"annotation {ann} has " + (f"a {exc}" if seg.rings else "no rings"))
    width, height = grids[key]
    if isinstance(seg, RleMask) and (seg.height, seg.width) != (height, width):
        return GeometryError(f"annotation {ann} RLE grid {seg.height}x{seg.width} != image {height}x{width}")
    return exc


def _grid_keys(directions: list[_Cells]) -> tuple[np.ndarray, list[np.ndarray]]:
    """The grid key of each cell with detections of each direction (-1 for
    a cell without), and each key's (width, height) row.

    A cell lies on the grid of its direction's ground truth. A cell of the
    second direction shares the first's key where both grids agree: its
    code is twice its key, plus one where they differ.
    """
    live = [np.flatnonzero(c.n_dt) for c in directions]
    image = [c.keys[cells] % len(c.size) for c, cells in zip(directions, live)]
    grids = [c.size[img] for c, img in zip(directions, image)]
    codes = [c.keys[cells] * 2 for c, cells in zip(directions, live)]
    if len(directions) == 2:
        codes[1] += (grids[1] != directions[0].size[image[1]]).any(axis=1)
    _, first, code_key = np.unique(np.concatenate(codes), return_index=True, return_inverse=True)
    keys = []
    for c, cells, part in zip(directions, live, np.split(code_key, [live[0].size])):
        key = np.full(c.keys.size, -1)
        key[cells] = part
        keys.append(key)
    return np.concatenate(grids)[first], keys


def _pixel_counts(ab: _Cells, ba: _Cells | None = None) -> list[Overlaps]:
    """Segm pixel counts of direction ``ab``, and of the opposite direction
    ``ba`` when given, from one overlap count of ``ab``'s detections and
    ``ba``'s ground truths (one dataset's shapes) against the other's.

    Raises:
        GeometryError: a shape in a cell with detections has a degenerate
            ring or none, an RLE does not fit its image, or the image has a
            side beyond 2**52 px; the first such shape in the count is named.
    """
    directions = [ab] if ba is None else [ab, ba]
    sizes, keys = _grid_keys(directions)
    fwd = ab, keys[0]
    back = None if ba is None else (ba, keys[1])
    side_a, a_rows, ab_d, ba_g = _shapes(dets=fwd, gts=back)
    side_b, b_rows, ba_d, ab_g = _shapes(dets=back, gts=fwd)
    grids = sizes.tolist()
    ov = count_overlaps(side_a, side_b, grids)
    if ov.faults:
        raise _named_fault(ov, ((side_a, a_rows, ab.dt), (side_b, b_rows, ab.gt)), grids)
    counts = [_direction(ov, ab_d, ab_g, ab)]
    if ba is not None:
        counts.append(_direction(ov.transposed(), ba_d, ba_g, ba))
    return counts


def evaluate(
    dets: Sequence[Detection], gt: AnnotationDataset, params: EvalParams | None = None
) -> EvalResult:
    """Score detections against ground truth; see the module docstring.

    Raises:
        EvalError: a detection references a category or image the ground
            truth does not define, or lacks a segmentation on the segm task;
            the first such detection by position is named.
        GeometryError: on the segm task, a shape in a cell with detections
            has a degenerate ring or none, or an RLE does not fit its image.
    """
    params = params or EvalParams()
    segm = params.task == "segm"
    index = _index(gt)
    dt = _detection_rows(dets, index)
    c = _cells(dt, np.arange(len(dt.shape)), _instance_rows(gt, index), gt, index, params.max_detections, segm)
    return _score(c, params, *(_pixel_counts(c) if segm else ()))


def _score(c: _Cells, params: EvalParams, pixels: Overlaps | None = None) -> EvalResult:
    """The evaluation of one direction's cells: box IoUs, or mask IoUs from
    the pixel counts ``pixels`` (side a its detections) on the segm task."""
    cat_ids, n_gt, n_dt = c.cat_ids, c.n_gt, c.n_dt
    gt_start, dt_start = np.cumsum(n_gt) - n_gt, np.cumsum(n_dt) - n_dt

    T, R, K, A = len(IOU_THRESHOLDS), len(RECALL_POINTS), len(cat_ids), len(AREA_RANGES)
    ranges = np.array([(lo, hi) for _, lo, hi in AREA_RANGES], dtype=np.float64)

    def out_of_range(area: np.ndarray) -> np.ndarray:  # (A, n)
        return (area < ranges[:, :1]) | (area > ranges[:, 1:])

    gt_cat = c.cat[c.gt.category[c.gts]]
    crowd = c.gt.crowd[c.gts]
    gt_box = c.gt.bbox[c.gts]
    gt_ignore = crowd | out_of_range(c.gt.area[c.gts])  # (A, n_gt)
    n_positive = np.array([np.bincount(gt_cat[~ig], minlength=K) for ig in gt_ignore])  # (A, K)

    dt_cat = c.cat[c.dt.category[c.dts]]
    dt_score = c.dt.score[c.dts]
    dt_box = c.dt.bbox[c.dts]
    blocks = list(_blocks(n_dt, n_gt, A * T))
    if pixels is None:
        dt_area = box_areas(dt_box)
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
    matched = np.zeros((dt_cat.size, A, T), dtype=bool)
    on_ignore = np.zeros((dt_cat.size, A, T), dtype=bool)
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
        matched[dt_at], on_ignore[dt_at] = _match_image(IOU_THRESHOLDS, ious, block_ignore, block_crowd, dt_ok, gt_ok)

    # -1 marks undefined (category, area) strata, excluded from every mean
    precision = -np.ones((T, R, K, A), dtype=np.float64)
    rec_thrs = np.asarray(RECALL_POINTS, dtype=np.float64)
    # per category, a stable sort by score over the detections in image order
    order = np.lexsort((-dt_score, dt_cat))
    bounds = np.searchsorted(dt_cat[order], np.arange(K + 1))
    in_range = ~out_of_range(dt_area)
    for a in range(A):
        # a match scores unless it took an ignore region; an unmatched
        # detection outside the area range neither scores nor penalizes
        tp = (matched[:, a] & ~on_ignore[:, a])[order].T
        fp = (~matched[:, a] & in_range[a, :, None])[order].T
        for k in np.flatnonzero(n_positive[a]):
            span = slice(bounds[k], bounds[k + 1])
            precision[:, :, k, a] = _sampled_precision(tp[:, span], fp[:, span], n_positive[a, k], rec_thrs)

    def mean(block) -> float | None:  # over the defined strata
        vals = block[block > -1]
        return float(vals.mean()) if vals.size else None

    # the last axis is the area range: all, small, medium, large
    return EvalResult(
        task=params.task,
        map=mean(precision[..., 0]),
        map_50=mean(precision[0, ..., 0]),  # IOU_THRESHOLDS[0] is 0.5
        map_small=mean(precision[..., 1]),
        map_medium=mean(precision[..., 2]),
        map_large=mean(precision[..., 3]),
        per_category={cat: mean(precision[:, :, k, 0]) for k, cat in enumerate(cat_ids)},
    )


def cross_table(
    a: AnnotationDataset,
    b: AnnotationDataset,
    tasks: tuple[str, ...] = ("bbox",),
    max_detections: int = MAX_DETECTIONS,
) -> dict[str, dict[str, EvalResult]]:
    """Score each dataset against the other, per task.

    Returns ``{task: {"a_vs_b": ..., "b_vs_a": ...}}`` where ``a_vs_b`` treats
    a's annotations as the predictions and b as ground truth, as
    ``evaluate(annotations_as_detections(a), b, EvalParams(task, max_detections))``
    would. On the segm task one overlap count of a's shapes against b's
    serves both directions.
    """
    # the cap and every task are checked before any cell is cut
    EvalParams(max_detections=max_detections)
    for task in tasks:
        _check_task(task)
    index = _index(a, b)
    rows_a, rows_b = _instance_rows(a, index), _instance_rows(b, index)
    # the cells of each direction serve every task; crowds are never detections
    cells = max_detections, "segm" in tasks
    ab = _cells(rows_a, np.flatnonzero(~rows_a.crowd), rows_b, b, index, *cells)
    ba = _cells(rows_b, np.flatnonzero(~rows_b.crowd), rows_a, a, index, *cells)
    out: dict[str, dict[str, EvalResult]] = {}
    for task in tasks:
        p = EvalParams(task, max_detections)
        pixels = _pixel_counts(ab, ba) if task == "segm" else (None, None)
        out[task] = {"a_vs_b": _score(ab, p, pixels[0]), "b_vs_a": _score(ba, p, pixels[1])}
    return out
