"""Cross-dataset instance correspondence by highest IoU above a threshold.

Matching is per image and greedy: all eligible cross pairs are ranked by
descending IoU (ties broken by ascending source then target id) and accepted
while both endpoints are free and the IoU strictly exceeds the threshold.
Each instance therefore appears in at most one pair, and the result is
invariant to the order instances arrive in.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .dataset import AnnotationDataset, InstanceRecord, single_polygon_view
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
    config: MatchConfig = field(default_factory=MatchConfig)


def _iou_matrix(
    source: list[InstanceRecord],
    target: list[InstanceRecord],
    cfg: MatchConfig,
    image_size: tuple[int, int] | None,
) -> np.ndarray:
    if cfg.iou_mode == "box":
        return box_iou_matrix(
            np.array([s.bbox for s in source]), np.array([t.bbox for t in target])
        )
    if image_size is None:
        raise ValueError("mask IoU matching needs image_size=(width, height)")
    # a degenerate ring counts as empty rather than failing the search
    ov = count_overlaps(
        [(s.segmentation, 0) for s in source],
        [(t.segmentation, 0) for t in target],
        [image_size],
        skip_invalid=True,
    )
    inter = np.zeros((len(source), len(target)), dtype=np.int64)
    inter[ov.a, ov.b] = ov.inter
    return iou(inter, ov.area_a[:, None], ov.area_b[None, :])


def match_image(
    source: list[InstanceRecord],
    target: list[InstanceRecord],
    cfg: MatchConfig = MatchConfig(),
    image_size: tuple[int, int] | None = None,
) -> MatchSet:
    """Greedy one-to-one matching of two instance lists from the same image.

    Inputs are expected to be pre-filtered to matchable shapes (see
    :func:`annodiff.dataset.single_polygon_view`); :func:`match_datasets`
    does this for whole corpora.
    """
    result = MatchSet(config=cfg)
    if not source or not target:
        result.unmatched_source = sorted(s.id for s in source)
        result.unmatched_target = sorted(t.id for t in target)
        return result

    iou = _iou_matrix(source, target, cfg, image_size)
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
    for neg, sid, tid, i, j in candidates:
        if i in used_src or j in used_tgt:
            continue
        used_src.add(i)
        used_tgt.add(j)
        result.pairs.append(
            MatchPair(sid, tid, source[i].image_id, source[i].category_id, float(-neg))
        )
    result.pairs.sort(key=lambda p: p.source_instance_id)
    result.unmatched_source = sorted(s.id for i, s in enumerate(source) if i not in used_src)
    result.unmatched_target = sorted(t.id for j, t in enumerate(target) if j not in used_tgt)
    return result


def match_datasets(
    source: AnnotationDataset,
    target: AnnotationDataset,
    cfg: MatchConfig = MatchConfig(),
) -> MatchSet:
    """Match every shared image independently and merge the per-image results.

    Images present on one side only contribute unmatched instances. Pairs come
    out canonically ordered by (image_id, source_instance_id).
    """
    eligible_src = {inst.id for inst in single_polygon_view(source)}
    eligible_tgt = {inst.id for inst in single_polygon_view(target)}
    result = MatchSet(config=cfg)
    result.ineligible_source = sorted(i.id for i in source.instances if i.id not in eligible_src)
    result.ineligible_target = sorted(i.id for i in target.instances if i.id not in eligible_tgt)

    image_ids = sorted({img.id for img in source.images} | {img.id for img in target.images})
    for image_id in image_ids:
        src = [i for i in source.instances_in(image_id) if i.id in eligible_src]
        tgt = [i for i in target.instances_in(image_id) if i.id in eligible_tgt]
        size = None
        if cfg.iou_mode == "mask":
            img = source.image(image_id) if image_id in source.index else target.image(image_id)
            size = (img.width, img.height)
        local = match_image(src, tgt, cfg, image_size=size)
        result.pairs.extend(local.pairs)
        result.unmatched_source.extend(local.unmatched_source)
        result.unmatched_target.extend(local.unmatched_target)
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
