"""COCO-protocol average precision, for scoring one annotation set against another.

The protocol constants (ten IoU thresholds 0.50:0.05:0.95, 101 recall sample
points, exactly the standard area strata, 100 detections per image and
category) are the published benchmark defaults. Matching semantics follow the
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
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .dataset import AnnotationDataset, _parse_segmentation
from .errors import EvalError, ParseError, SchemaError
from .raster import bbox_of_mask, bbox_of_polygon, decode_rle, window_intersection, window_of
from .shapes import Polygons, RleMask, ShapeSpec

IOU_THRESHOLDS: tuple[float, ...] = tuple(np.linspace(0.5, 0.95, 10).tolist())
RECALL_POINTS: tuple[float, ...] = tuple(np.linspace(0.0, 1.0, 101).tolist())
AREA_RANGES: tuple[tuple[str, float, float], ...] = (
    ("all", 0.0, math.inf),
    ("small", 0.0, 32.0**2),
    ("medium", 32.0**2, 96.0**2),
    ("large", 96.0**2, math.inf),
)


@dataclass(frozen=True)
class Detection:
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
    iou_thresholds: tuple[float, ...] = IOU_THRESHOLDS
    recall_points: tuple[float, ...] = RECALL_POINTS
    area_ranges: tuple[tuple[str, float, float], ...] = AREA_RANGES
    max_detections: int = 100
    # ground-truth stratification area: "stored" uses the annotation's area
    # field, "bbox" uses box width*height.
    area_source: str = "stored"

    def __post_init__(self) -> None:
        if self.task not in ("bbox", "segm"):
            raise ValueError(f"task must be 'bbox' or 'segm', got {self.task!r}")
        thr = self.iou_thresholds
        if not thr or any(b <= a for a, b in zip(thr, thr[1:])):
            raise ValueError("iou_thresholds must be strictly increasing")
        if min(thr) <= 0.0 or max(thr) > 1.0:
            raise ValueError("iou_thresholds must lie in (0, 1]")
        rp = self.recall_points
        if not rp or any(b <= a for a, b in zip(rp, rp[1:])):
            raise ValueError("recall_points must be strictly increasing")
        if min(rp) < 0.0 or max(rp) > 1.0:
            raise ValueError("recall_points must lie in [0, 1]")
        if self.max_detections < 1:
            raise ValueError("max_detections must be >= 1")
        if not self.area_ranges or self.area_ranges[0][0] != "all":
            raise ValueError("area_ranges must start with the 'all' range")
        if self.area_source not in ("stored", "bbox"):
            raise ValueError(f"area_source must be 'stored' or 'bbox', got {self.area_source!r}")


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
    return DetectionSet(
        tuple(
            Detection(
                id=inst.id,
                image_id=inst.image_id,
                category_id=inst.category_id,
                score=1.0,
                bbox=tuple(float(v) for v in inst.bbox),
                segmentation=inst.segmentation,
            )
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
    """
    if isinstance(raw, (bytes, str)):
        try:
            raw = json.loads(raw)
        except json.JSONDecodeError as e:
            raise ParseError(f"results JSON is invalid: {e.msg}", e.pos) from e
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
        score = entry["score"]
        if not isinstance(score, (int, float)) or isinstance(score, bool) or not math.isfinite(score):
            raise SchemaError(f"{what} field 'score' must be a finite number")
        score = float(score)
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
            bbox = tuple(float(v) for v in bbox)
            if any(not math.isfinite(v) for v in bbox):
                raise SchemaError(f"{what} has non-finite bbox values")
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


def _box_iou_with_crowd(dts, gts, crowd_flags) -> np.ndarray:
    d = np.array([dt.bbox for dt in dts], dtype=np.float64).reshape(-1, 4)
    g = np.array([gt.bbox for gt in gts], dtype=np.float64).reshape(-1, 4)
    ix0 = np.maximum(d[:, 0][:, None], g[:, 0][None, :])
    iy0 = np.maximum(d[:, 1][:, None], g[:, 1][None, :])
    ix1 = np.minimum((d[:, 0] + d[:, 2])[:, None], (g[:, 0] + g[:, 2])[None, :])
    iy1 = np.minimum((d[:, 1] + d[:, 3])[:, None], (g[:, 1] + g[:, 3])[None, :])
    inter = np.clip(ix1 - ix0, 0.0, None) * np.clip(iy1 - iy0, 0.0, None)
    d_area = (d[:, 2] * d[:, 3])[:, None]
    g_area = (g[:, 2] * g[:, 3])[None, :]
    denom = np.where(np.asarray(crowd_flags, bool)[None, :], d_area, d_area + g_area - inter)
    out = np.zeros_like(inter)
    np.divide(inter, denom, out=out, where=denom > 0)
    return out


def _mask_iou_with_crowd(dt_windows, gt_windows, crowd_flags) -> np.ndarray:
    """Pairwise IoU of mask windows ``(row0, col0, mask)``; over the detection's
    area for a crowd. Areas come from the windows, and disjoint windows score 0."""
    out = np.zeros((len(dt_windows), len(gt_windows)), dtype=np.float64)
    d_areas = [int(np.count_nonzero(m)) for _, _, m in dt_windows]
    g_areas = [int(np.count_nonzero(m)) for _, _, m in gt_windows]
    for j, gw in enumerate(gt_windows):
        for i, dw in enumerate(dt_windows):
            inter = window_intersection(dw, gw)
            denom = d_areas[i] if crowd_flags[j] else d_areas[i] + g_areas[j] - inter
            if denom > 0:
                out[i, j] = inter / denom
    return out


@dataclass
class _ImageEval:
    """Match outcome for one (category, area range, image) cell."""

    dt_scores: np.ndarray  # (D,) already in evaluation order
    dt_matched: np.ndarray  # (T, D) bool
    dt_ignore: np.ndarray  # (T, D) bool
    gt_ignore: np.ndarray  # (G,) bool


def _match_image(thresholds, ious, gt_ignore, crowd_flags, dt_area_out) -> _ImageEval:
    T = len(thresholds)
    D, G = ious.shape if ious.size else (len(dt_area_out), len(gt_ignore))
    dt_matched = np.zeros((T, D), dtype=bool)
    dt_ignore = np.zeros((T, D), dtype=bool)
    gt_matched = np.zeros((T, G), dtype=bool)
    for ti, t in enumerate(thresholds):
        floor = min(t, 1.0 - 1e-10)
        for di in range(D):
            best = floor
            m = -1
            for gi in range(G):
                if gt_matched[ti, gi] and not crowd_flags[gi]:
                    continue
                # gts are ordered ignore-last: once a real gt is matched,
                # ignore regions cannot improve on it
                if m > -1 and not gt_ignore[m] and gt_ignore[gi]:
                    break
                if ious[di, gi] < best:
                    continue
                best = ious[di, gi]
                m = gi
            if m == -1:
                continue
            dt_matched[ti, di] = True
            dt_ignore[ti, di] = gt_ignore[m]
            gt_matched[ti, m] = True
    # unmatched detections outside the area range neither score nor penalize
    if D:
        dt_ignore |= ~dt_matched & np.asarray(dt_area_out, bool)[None, :]
    return _ImageEval(
        dt_scores=np.empty(0),  # filled by caller
        dt_matched=dt_matched,
        dt_ignore=dt_ignore,
        gt_ignore=np.asarray(gt_ignore, bool),
    )


def evaluate(dets: DetectionSet, gt: AnnotationDataset, params: EvalParams | None = None) -> EvalResult:
    """Score a detection set against ground truth; see the module docstring.

    Raises:
        EvalError: a detection references a category or image the ground
            truth does not define.
    """
    params = params or EvalParams()
    cat_ids = sorted(c.id for c in gt.categories)
    img_ids = sorted(i.id for i in gt.images)
    cat_set, img_set = set(cat_ids), set(img_ids)
    for d in dets.detections:
        if d.category_id not in cat_set:
            raise EvalError(f"detection {d.id} has unknown category {d.category_id}")
        if d.image_id not in img_set:
            raise EvalError(f"detection {d.id} has unknown image {d.image_id}")
        if params.task == "segm" and d.segmentation is None:
            raise EvalError(f"detection {d.id} has no segmentation (segm task)")

    gts_by: dict[tuple[int, int], list] = {}
    for inst in gt.instances:
        gts_by.setdefault((inst.image_id, inst.category_id), []).append(inst)
    dts_by: dict[tuple[int, int], list[Detection]] = {}
    for d in dets.detections:
        dts_by.setdefault((d.image_id, d.category_id), []).append(d)
    for key, group in dts_by.items():
        group.sort(key=lambda d: (-d.score, d.id))
        del group[params.max_detections :]

    def gt_area(inst) -> float:
        if params.area_source == "bbox":
            return float(inst.bbox[2] * inst.bbox[3])
        return float(inst.area)

    T = len(params.iou_thresholds)
    R = len(params.recall_points)
    K = len(cat_ids)
    A = len(params.area_ranges)
    # -1 marks undefined (category, area) strata, excluded from every mean
    precision = -np.ones((T, R, K, A), dtype=np.float64)
    rec_thrs = np.asarray(params.recall_points, dtype=np.float64)

    for k, cat in enumerate(cat_ids):
        cells: list[list[_ImageEval | None]] = [[] for _ in range(A)]
        for img in img_ids:
            gts = gts_by.get((img, cat), [])
            dts = dts_by.get((img, cat), [])
            if not gts and not dts:
                for a in range(A):
                    cells[a].append(None)
                continue
            crowd = [bool(g.iscrowd) for g in gts]
            if params.task == "bbox":
                ious = _box_iou_with_crowd(dts, gts, crowd) if dts and gts else np.zeros((len(dts), len(gts)))
                dt_areas = [d.bbox[2] * d.bbox[3] for d in dts]
            else:
                rec = gt.image(img)
                gt_windows = [window_of(g.segmentation, rec.width, rec.height) for g in gts]
                dt_windows = [window_of(d.segmentation, rec.width, rec.height) for d in dts]
                ious = _mask_iou_with_crowd(dt_windows, gt_windows, crowd)
                dt_areas = [float(np.count_nonzero(m)) for _, _, m in dt_windows]
            g_areas = [gt_area(g) for g in gts]
            scores = np.array([d.score for d in dts], dtype=np.float64)
            for a, (_, lo, hi) in enumerate(params.area_ranges):
                gt_ig = np.array(
                    [c or ga < lo or ga > hi for c, ga in zip(crowd, g_areas)], dtype=bool
                )
                order = np.argsort(gt_ig, kind="stable")
                cell = _match_image(
                    params.iou_thresholds,
                    ious[:, order] if ious.size else ious,
                    gt_ig[order],
                    [crowd[j] for j in order],
                    [da < lo or da > hi for da in dt_areas],
                )
                cell.dt_scores = scores
                cells[a].append(cell)

        for a in range(A):
            live = [c for c in cells[a] if c is not None]
            if not live:
                continue
            gt_ig = np.concatenate([c.gt_ignore for c in live])
            n_positive = int(np.count_nonzero(~gt_ig))
            if n_positive == 0:
                continue
            scores = np.concatenate([c.dt_scores for c in live])
            order = np.argsort(-scores, kind="stable")
            matched = np.concatenate([c.dt_matched for c in live], axis=1)[:, order]
            ignored = np.concatenate([c.dt_ignore for c in live], axis=1)[:, order]
            tps = np.cumsum(matched & ~ignored, axis=1, dtype=np.float64)
            fps = np.cumsum(~matched & ~ignored, axis=1, dtype=np.float64)
            for ti in range(T):
                tp, fp = tps[ti], fps[ti]
                rc = tp / n_positive
                pr = np.zeros_like(tp)
                np.divide(tp, tp + fp, out=pr, where=(tp + fp) > 0)
                for i in range(pr.size - 1, 0, -1):
                    if pr[i] > pr[i - 1]:
                        pr[i - 1] = pr[i]
                q = np.zeros(R, dtype=np.float64)
                hits = np.searchsorted(rc, rec_thrs, side="left")
                valid = hits < pr.size
                q[valid] = pr[hits[valid]]
                precision[ti, :, k, a] = q

    def stratum(t_slice, a_name) -> float | None:
        for a, (name, _, _) in enumerate(params.area_ranges):
            if name == a_name:
                block = precision[t_slice, :, :, a]
                vals = block[block > -1]
                return float(vals.mean()) if vals.size else None
        return None

    t50 = [i for i, t in enumerate(params.iou_thresholds) if abs(t - 0.5) < 1e-9]
    per_category = {}
    for k, cat in enumerate(cat_ids):
        block = precision[:, :, k, 0]
        vals = block[block > -1]
        per_category[cat] = float(vals.mean()) if vals.size else None
    return EvalResult(
        task=params.task,
        map=stratum(slice(None), "all"),
        map_50=stratum(t50[0], "all") if t50 else None,
        map_small=stratum(slice(None), "small"),
        map_medium=stratum(slice(None), "medium"),
        map_large=stratum(slice(None), "large"),
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
    a's annotations as the predictions and b as ground truth.
    """
    out: dict[str, dict[str, EvalResult]] = {}
    for task in tasks:
        p = replace(params or EvalParams(), task=task)
        out[task] = {
            "a_vs_b": evaluate(annotations_as_detections(a), b, p),
            "b_vs_a": evaluate(annotations_as_detections(b), a, p),
        }
    return out
