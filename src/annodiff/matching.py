"""Cross-dataset instance correspondence by highest IoU above a threshold.

:func:`match_datasets` is the one way in. Matching is per image and greedy:
all eligible cross pairs of an image are ranked by descending IoU (ties
broken by ascending source then target id) and accepted while both endpoints
are free and the IoU strictly exceeds the threshold. Each instance therefore
appears in at most one pair, and the result is invariant to the order
instances arrive in.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .dataset import AnnotationDataset, InstanceRecord, single_polygon_view
from .errors import DegenerateShape
from .raster import box_iou_matrix, count_overlaps, iou

_IOU_MODES = ("box", "mask")


@dataclass(frozen=True)
class MatchConfig:
    """Knobs for the correspondence search.

    ``iou_threshold`` is strict (a pair needs IoU > threshold). ``iou_mode``
    selects the overlap signal: stored bounding boxes (robust to contour
    noise) or rasterized masks. ``same_category_required`` restricts pairs to
    one category.
    """

    iou_threshold: float = 0.90
    iou_mode: str = "box"
    same_category_required: bool = True

    def __post_init__(self):
        if not 0.0 < self.iou_threshold <= 1.0:
            raise ValueError(f"iou_threshold {self.iou_threshold} outside (0, 1]")
        if self.iou_mode not in _IOU_MODES:
            raise ValueError(f"iou_mode must be one of {_IOU_MODES}")


@dataclass(frozen=True)
class MatchPair:
    source_instance_id: int
    target_instance_id: int
    image_id: int
    category_id: int  # source side when cross-category matching is enabled
    iou: float


@dataclass
class MatchSet:
    """Pairs plus the leftovers, split by why they are left over.

    ``unmatched_*`` hold eligible instances that found no partner;
    ``ineligible_*`` hold instances excluded up front (crowds, multi-ring
    or ringless segmentations).
    """

    pairs: list[MatchPair] = field(default_factory=list)
    unmatched_source: list[int] = field(default_factory=list)
    unmatched_target: list[int] = field(default_factory=list)
    ineligible_source: list[int] = field(default_factory=list)
    ineligible_target: list[int] = field(default_factory=list)


def _mask_ious(images):
    """The mask IoU matrix of each image's source and target instances, from
    one overlap count keyed by image; ``images`` holds ``(source, target,
    (width, height))`` per image. A degenerate ring counts as empty rather
    than failing the search; a shape on a grid the count rejects fails it."""
    a = [(s.segmentation, k) for k, (source, _, _) in enumerate(images) for s in source]
    b = [(t.segmentation, k) for k, (_, target, _) in enumerate(images) for t in target]
    ov = count_overlaps(a, b, [size for _, _, size in images])
    grid = next((exc for exc in ov.faults.values() if not isinstance(exc, DegenerateShape)), None)
    if grid is not None:
        raise grid
    # the pairs come in (a, b) order, so each image's pairs are one slice
    a0 = b0 = 0
    for source, target, _ in images:
        a1, b1 = a0 + len(source), b0 + len(target)
        lo, hi = np.searchsorted(ov.a, [a0, a1])
        inter = np.zeros((len(source), len(target)), dtype=np.int64)
        inter[ov.a[lo:hi] - a0, ov.b[lo:hi] - b0] = ov.inter[lo:hi]
        yield iou(inter, ov.area_a[a0:a1, None], ov.area_b[None, b0:b1])
        a0, b0 = a1, b1


def _greedy(
    source: list[InstanceRecord], target: list[InstanceRecord], iou, cfg: MatchConfig, result: MatchSet
) -> None:
    """Greedy one-to-one matching of one image's matchable instances, given
    the IoU matrix of ``source`` against ``target`` (``None`` when either is
    empty). Pairs are added to ``result`` by source id; the unmatched ids are
    added unsorted."""
    if iou is None:
        result.unmatched_source += (s.id for s in source)
        result.unmatched_target += (t.id for t in target)
        return

    candidates = []
    for i, s in enumerate(source):
        for j, t in enumerate(target):
            if cfg.same_category_required and s.category_id != t.category_id:
                continue
            if iou[i, j] > cfg.iou_threshold:
                candidates.append((-iou[i, j], s.id, t.id, i, j))
    candidates.sort()

    used_src: set[int] = set()
    used_tgt: set[int] = set()
    pairs = []
    for neg, sid, tid, i, j in candidates:
        if i in used_src or j in used_tgt:
            continue
        used_src.add(i)
        used_tgt.add(j)
        pairs.append(MatchPair(sid, tid, source[i].image_id, source[i].category_id, float(-neg)))
    result.pairs += sorted(pairs, key=lambda p: p.source_instance_id)
    result.unmatched_source += (s.id for i, s in enumerate(source) if i not in used_src)
    result.unmatched_target += (t.id for j, t in enumerate(target) if j not in used_tgt)


def match_datasets(
    source: AnnotationDataset,
    target: AnnotationDataset,
    cfg: MatchConfig = MatchConfig(),
) -> MatchSet:
    """Match every shared image independently and merge the per-image results.

    Images present on one side only contribute unmatched instances. Pairs come
    out canonically ordered by (image_id, source_instance_id). In mask mode,
    the masks of every image with instances on both sides are counted in one
    overlap count keyed by image.
    """
    eligible_src = {inst.id for inst in single_polygon_view(source)}
    eligible_tgt = {inst.id for inst in single_polygon_view(target)}
    result = MatchSet()
    result.ineligible_source = sorted(i.id for i in source.instances if i.id not in eligible_src)
    result.ineligible_target = sorted(i.id for i in target.instances if i.id not in eligible_tgt)

    image_ids = sorted({img.id for img in source.images} | {img.id for img in target.images})
    images = [
        (
            [i for i in source.instances_in(image_id) if i.id in eligible_src],
            [i for i in target.instances_in(image_id) if i.id in eligible_tgt],
            image_id,
        )
        for image_id in image_ids
    ]
    both = [(src, tgt, image_id) for src, tgt, image_id in images if src and tgt]
    if cfg.iou_mode == "mask":
        sizes = [source.image(i) if i in source.index else target.image(i) for _, _, i in both]
        ious = _mask_ious([(src, tgt, (img.width, img.height)) for (src, tgt, _), img in zip(both, sizes)])
    else:
        ious = (
            box_iou_matrix(np.array([s.bbox for s in src]), np.array([t.bbox for t in tgt]))
            for src, tgt, _ in both
        )
    for src, tgt, _ in images:
        _greedy(src, tgt, next(ious) if src and tgt else None, cfg, result)
    result.unmatched_source.sort()
    result.unmatched_target.sort()
    return result


def pairs_to_ndjson(match_set: MatchSet) -> str:
    """One JSON object per pair, one pair per line, in canonical order."""
    lines = [
        json.dumps(
            {
                "image_id": p.image_id,
                "source_id": p.source_instance_id,
                "target_id": p.target_instance_id,
                "iou": p.iou,
                "category_id": p.category_id,
            }
        )
        for p in match_set.pairs
    ]
    return "\n".join(lines) + ("\n" if lines else "")
