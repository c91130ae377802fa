"""Cross-dataset instance correspondence by highest IoU above a threshold.

:func:`match_datasets` is the one way in. Matching is greedy, on one
candidate list for the whole dataset pair: every same-image (source, target)
pair whose IoU strictly exceeds the threshold (and whose categories match,
where that is required) is ranked by descending IoU, ties broken by
ascending source then target id, and accepted while both endpoints are free.
An instance belongs to one image, so this one global order gives each
image's greedy order. Each instance therefore appears in at most one pair,
and the result is invariant to the order instances arrive in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, compress, count
from operator import attrgetter

import numpy as np

from .dataset import AnnotationDataset, single_polygon_view
from .errors import DegenerateShape
from .raster import box_overlaps, count_overlaps, iou

_IOU_MODES = ("box", "mask")
_BY_ID, _IMAGE_ID, _BBOX = attrgetter("id"), attrgetter("image_id"), attrgetter("bbox")


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


def _box_candidates(src: list, tgt: list, sel_s, sel_t, per_s, per_t):
    """Every (source, target) pair of each shared image, and its box IoU,
    from one box overlap over the paired rows. ``sel_*`` index the
    instances of the shared images in ``src`` and ``tgt``, by (image, id),
    and ``per_*`` give each image's count of them. Pairs come in (image,
    source, target) order."""
    rep = np.repeat(per_t, per_s)  # each source pairs with its image's targets
    start = np.cumsum(rep) - rep
    first_t = np.repeat(np.cumsum(per_t) - per_t, per_s)
    a = np.repeat(sel_s, rep)
    b = sel_t[np.arange(rep.sum()) - np.repeat(start - first_t, rep)]
    boxes_s, boxes_t = (
        np.fromiter(chain.from_iterable(map(_BBOX, side)), dtype=np.float64, count=4 * len(side)).reshape(-1, 1, 4)
        for side in (src, tgt)
    )
    return a, b, iou(*box_overlaps(boxes_s[a], boxes_t[b])).ravel()


def _mask_candidates(src: list, tgt: list, sel_s, sel_t, per_s, per_t, sizes: list):
    """The (source, target) pairs of each shared image that share a pixel,
    and their mask IoU, from one overlap count keyed by image. A degenerate
    ring counts as empty rather than failing the search; a shape on a grid
    the count rejects fails it. Pairs come in (image, source, target) order."""
    a, b = (
        [(side[r].segmentation, k) for r, k in zip(sel.tolist(), np.repeat(np.arange(per.size), per).tolist())]
        for side, sel, per in ((src, sel_s, per_s), (tgt, sel_t, per_t))
    )
    ov = count_overlaps(a, b, sizes)
    grid = next((exc for exc in ov.faults.values() if not isinstance(exc, DegenerateShape)), None)
    if grid is not None:
        raise grid
    return sel_s[ov.a], sel_t[ov.b], iou(ov.inter, ov.area_a[ov.a], ov.area_b[ov.b])


def match_datasets(
    source: AnnotationDataset,
    target: AnnotationDataset,
    cfg: MatchConfig = MatchConfig(),
) -> MatchSet:
    """Match the instances of every shared image in one greedy pass.

    Images present on one side only contribute unmatched instances. Pairs come
    out canonically ordered by (image_id, source_instance_id). The candidates
    are the same-image pairs of the whole dataset pair: in box mode all of
    them, from one box overlap; in mask mode those that share a pixel, from
    one overlap count keyed by image (a pair that shares none has IoU 0 and
    never passes the threshold). An instance is known by its place among its
    side's eligible instances in id order, so ids of any size rank as ids.
    """
    images = sorted({img.id for img in source.images} | {img.id for img in target.images})
    place = dict(zip(images, count()))
    src, tgt = (sorted(single_polygon_view(ds), key=_BY_ID) for ds in (source, target))
    ids_s, ids_t = ({inst.id for inst in side} for side in (src, tgt))
    ineligible_s = sorted(i.id for i in source.instances if i.id not in ids_s)
    ineligible_t = sorted(i.id for i in target.instances if i.id not in ids_t)

    # each side's instances of the images both sides hold, by (image, id)
    img_s, img_t = (
        np.fromiter(map(place.__getitem__, map(_IMAGE_ID, side)), dtype=np.intp, count=len(side))
        for side in (src, tgt)
    )
    n_s, n_t = (np.bincount(img, minlength=len(images)) for img in (img_s, img_t))
    shared = (n_s > 0) & (n_t > 0)
    sel_s, sel_t = (np.flatnonzero(shared[img]) for img in (img_s, img_t))
    sel_s, sel_t = (sel[np.argsort(img[sel], kind="stable")] for img, sel in ((img_s, sel_s), (img_t, sel_t)))
    per_s, per_t = n_s[shared], n_t[shared]
    if cfg.iou_mode == "mask":
        grids = (source.image(images[k]) for k in np.flatnonzero(shared).tolist())
        a, b, ious = _mask_candidates(src, tgt, sel_s, sel_t, per_s, per_t, [(g.width, g.height) for g in grids])
    else:
        a, b, ious = _box_candidates(src, tgt, sel_s, sel_t, per_s, per_t)

    keep = np.flatnonzero(ious > cfg.iou_threshold)
    if cfg.same_category_required:
        same = (src[i].category_id == tgt[j].category_id for i, j in zip(a[keep].tolist(), b[keep].tolist()))
        keep = keep[np.fromiter(same, dtype=bool, count=keep.size)]
    a, b, ious = a[keep].tolist(), b[keep].tolist(), ious[keep]
    # one greedy pass over every image's candidates at once
    free_s, free_t = [True] * len(src), [True] * len(tgt)
    taken = []
    for k in np.lexsort((b, a, -ious)).tolist():
        i, j = a[k], b[k]
        if free_s[i] and free_t[j]:
            free_s[i] = free_t[j] = False
            taken.append(k)
    # candidates come in (image, source) order, and so do the pairs
    taken.sort()
    ious = ious.tolist()
    pairs = [MatchPair(src[a[k]].id, tgt[b[k]].id, src[a[k]].image_id, src[a[k]].category_id, ious[k]) for k in taken]
    unmatched = (list(compress(map(_BY_ID, side), free)) for side, free in ((src, free_s), (tgt, free_t)))
    return MatchSet(pairs, *unmatched, ineligible_s, ineligible_t)


def pairs_to_ndjson(match_set: MatchSet) -> str:
    """One JSON object per pair, one pair per line, in canonical order."""
    lines = [
        f'{{"image_id": {p.image_id}, "source_id": {p.source_instance_id}, "target_id": {p.target_instance_id},'
        f' "iou": {p.iou!r}, "category_id": {p.category_id}}}'
        for p in match_set.pairs
    ]
    return "\n".join(lines) + ("\n" if lines else "")
