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

from itertools import chain, compress, count
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from .dataset import AnnotationDataset, _Checked, single_polygon_view
from .errors import DegenerateShape
from .raster import _chunks, box_overlaps, count_overlaps, iou

_IOU_MODES = ("box", "mask")
_BY_ID, _IMAGE_ID, _BBOX = attrgetter("id"), attrgetter("image_id"), attrgetter("bbox")


class _MatchConfig(NamedTuple):
    iou_threshold: float = 0.90
    iou_mode: str = "box"
    same_category_required: bool = True


class MatchConfig(_Checked, _MatchConfig):
    """Knobs for the correspondence search.

    ``iou_threshold`` is strict (a pair needs IoU > threshold). ``iou_mode``
    selects the overlap signal: stored bounding boxes (robust to contour
    noise) or rasterized masks. ``same_category_required`` restricts pairs to
    one category.
    """

    __slots__ = ()

    def _check(self):
        if not 0.0 < self.iou_threshold <= 1.0:
            raise ValueError(f"iou_threshold {self.iou_threshold} outside (0, 1]")
        if self.iou_mode not in _IOU_MODES:
            raise ValueError(f"iou_mode must be one of {_IOU_MODES}")


class MatchPair(NamedTuple):
    source_instance_id: int
    target_instance_id: int
    image_id: int
    category_id: int  # source side when cross-category matching is enabled
    iou: float


class _MatchSet(NamedTuple):
    pairs: list[MatchPair] = []
    unmatched_source: list[int] = []
    unmatched_target: list[int] = []
    ineligible_source: list[int] = []
    ineligible_target: list[int] = []


class MatchSet(_Checked, _MatchSet):
    """Pairs plus the leftovers, split by why they are left over.

    ``unmatched_*`` hold eligible instances that found no partner;
    ``ineligible_*`` hold instances excluded up front (crowds, multi-ring
    or ringless segmentations).
    """

    __slots__ = ()


# Same-image pairs whose boxes one ``box_overlaps`` call takes at most, about
# 100 bytes each. Set by measurement on seed 4242: from 2**12 to 2**17, box
# mode matched 1,000 and 10,000 images as fast as with one call for all.
_RUN = 2**14


def _box_candidates(src: list, tgt: list, sel_s, sel_t, per_s, per_t, threshold: float):
    """The (source, target) pairs of each shared image whose box IoU exceeds
    ``threshold``, and that IoU. ``sel_*`` index the instances of the shared
    images in ``src`` and ``tgt``, by (image, id), and ``per_*`` give each
    image's count of them. One box overlap per run of images of at most
    ``_RUN`` pairs (or of one image) bounds memory. Pairs come in (image,
    source, target) order."""
    boxes_s, boxes_t = (
        np.fromiter(chain.from_iterable(map(_BBOX, side)), dtype=np.float64, count=4 * len(side)).reshape(-1, 1, 4)
        for side in (src, tgt)
    )
    rep = np.repeat(per_t, per_s)  # each source pairs with its image's targets
    # pair p of source row r pairs it with target row p - shift[r]
    shift = np.cumsum(rep) - rep - np.repeat(np.cumsum(per_t) - per_t, per_s)
    # cut[k]: the source rows, or the pairs, of the shared images before image k
    cut_s, cut = (np.concatenate(([0], np.cumsum(n))) for n in (per_s, per_s * per_t))
    out = []
    for i0, i1 in _chunks(per_s * per_t, _RUN):
        rows = slice(cut_s[i0], cut_s[i1])
        a = np.repeat(sel_s[rows], rep[rows])
        b = sel_t[np.arange(cut[i0], cut[i1]) - np.repeat(shift[rows], rep[rows])]
        ious = iou(*box_overlaps(boxes_s[a], boxes_t[b])).ravel()
        keep = ious > threshold
        out.append((a[keep], b[keep], ious[keep]))
    return tuple(map(np.concatenate, zip(*out)))


def _mask_candidates(src: list, tgt: list, sel_s, sel_t, per_s, per_t, sizes: list, threshold: float):
    """The (source, target) pairs of each shared image whose mask IoU exceeds
    ``threshold``, and that IoU, from one overlap count keyed by image (a
    pair that shares no pixel has IoU 0). A degenerate ring counts as empty
    rather than failing the search; a shape on a grid the count rejects
    fails it. Pairs come in (image, source, target) order."""
    a, b = (
        [(side[r].segmentation, k) for r, k in zip(sel.tolist(), np.repeat(np.arange(per.size), per).tolist())]
        for side, sel, per in ((src, sel_s, per_s), (tgt, sel_t, per_t))
    )
    ov = count_overlaps(a, b, sizes)
    grid = next((exc for exc in ov.faults.values() if not isinstance(exc, DegenerateShape)), None)
    if grid is not None:
        raise grid
    ious = iou(ov.inter, ov.area_a[ov.a], ov.area_b[ov.b])
    keep = ious > threshold
    return sel_s[ov.a[keep]], sel_t[ov.b[keep]], ious[keep]


def match_datasets(
    source: AnnotationDataset,
    target: AnnotationDataset,
    cfg: MatchConfig = MatchConfig(),
) -> MatchSet:
    """Match the instances of every shared image in one greedy pass.

    Images present on one side only contribute unmatched instances. Pairs come
    out canonically ordered by (image_id, source_instance_id). The candidates
    are the same-image pairs of the whole dataset pair whose IoU passes the
    threshold: in box mode from one box overlap per run of images; in mask
    mode from one overlap count keyed by image. An instance is known by its
    place among its side's eligible instances in id order, so ids of any
    size rank as ids.
    """
    images = sorted({img.id for img in source.images} | {img.id for img in target.images})
    place = dict(zip(images, count()))
    src, tgt = (sorted(single_polygon_view(ds), key=_BY_ID) for ds in (source, target))
    sides = ((source, src), (target, tgt))
    ineligible = [sorted(set(map(_BY_ID, ds.instances)).difference(map(_BY_ID, side))) for ds, side in sides]

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
        sizes = [(g.width, g.height) for g in map(source.image, compress(images, shared.tolist()))]
        a, b, ious = _mask_candidates(src, tgt, sel_s, sel_t, per_s, per_t, sizes, cfg.iou_threshold)
    else:
        a, b, ious = _box_candidates(src, tgt, sel_s, sel_t, per_s, per_t, cfg.iou_threshold)

    if cfg.same_category_required:
        same = (src[i].category_id == tgt[j].category_id for i, j in zip(a.tolist(), b.tolist()))
        keep = np.fromiter(same, dtype=bool, count=a.size)
        a, b, ious = a[keep], b[keep], ious[keep]
    # one greedy pass over every image's candidates at once
    free_s, free_t = bytearray(b"\x01") * len(src), bytearray(b"\x01") * len(tgt)
    took = bytearray(a.size)
    order = np.lexsort((b, a, -ious))
    for k, i, j in zip(order.tolist(), a[order].tolist(), b[order].tolist()):
        if free_s[i] and free_t[j]:
            free_s[i] = free_t[j] = 0
            took[k] = 1
    # candidates come in (image, source) order, and so do the pairs
    taken = np.flatnonzero(np.frombuffer(took, dtype=bool))
    rows = zip(a[taken].tolist(), b[taken].tolist(), ious[taken].tolist())
    pairs = [MatchPair(src[i].id, tgt[j].id, src[i].image_id, src[i].category_id, v) for i, j, v in rows]
    unmatched = (list(compress(map(_BY_ID, side), free)) for side, free in ((src, free_s), (tgt, free_t)))
    return MatchSet(pairs, *unmatched, *ineligible)


def pairs_to_ndjson(match_set: MatchSet) -> str:
    """One JSON object per pair, one pair per line, in canonical order."""
    lines = [
        f'{{"image_id": {p.image_id}, "source_id": {p.source_instance_id}, "target_id": {p.target_instance_id},'
        f' "iou": {p.iou!r}, "category_id": {p.category_id}}}'
        for p in match_set.pairs
    ]
    return "\n".join(lines) + ("\n" if lines else "")
