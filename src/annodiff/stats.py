"""Corpus-level descriptive statistics and distance distributions.

Object size strata follow the usual area boundaries (10x10, 32x32, 96x96
squares, i.e. 100 / 1024 / 9216 square pixels, boundary areas landing in the
lower stratum). Distance histograms keep values strictly above one pixel and
clip the domain at three standard deviations above the mean of the kept
population; everything is tallied so nothing silently disappears.
"""

from collections import Counter
from enum import Enum
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from .dataset import AnnotationDataset
from .errors import StatsError
from .raster import count_overlaps
from .shapes import Polygons
from .surface import PairTable


class SizeBucket(Enum):
    VERY_SMALL = "very_small"  # area <= 10*10
    SMALL = "small"  # 10*10 < area <= 32*32
    MEDIUM = "medium"  # 32*32 < area <= 96*96
    LARGE = "large"  # area > 96*96


# Upper bounds of the strata below LARGE, in ``SizeBucket`` order.
_BUCKET_BOUNDS = ((SizeBucket.VERY_SMALL, 100.0), (SizeBucket.SMALL, 1024.0), (SizeBucket.MEDIUM, 9216.0))
_SIDE_BOUNDS = ((SizeBucket.VERY_SMALL, 10.0), (SizeBucket.SMALL, 32.0), (SizeBucket.MEDIUM, 96.0))


def size_bucket(area: float) -> SizeBucket:
    """Stratum for an object area in square pixels."""
    if area < 0:
        raise StatsError(f"negative area {area}")
    for bucket, bound in _BUCKET_BOUNDS:
        if area <= bound:
            return bucket
    return SizeBucket.LARGE


def size_bucket_of_dims(w: float, h: float) -> SizeBucket:
    """Alternative stratum rule: both box dimensions within the bound."""
    if w < 0 or h < 0:
        raise StatsError(f"negative extent {w}x{h}")
    for bucket, side in _SIDE_BOUNDS:
        if w <= side and h <= side:
            return bucket
    return SizeBucket.LARGE


class DatasetSummary(NamedTuple):
    image_count: int
    instance_count: int
    crowd_count: int
    vertex_count: int
    per_category: dict[int, int]
    size_buckets: dict[SizeBucket, int]


def _pixel_areas(ds: AnnotationDataset, instances) -> dict[int, int]:
    """Rasterized pixel area, by id, of each of ``instances``, for the
    ``"recomputed"`` rule of :func:`summarize`, from one overlap count keyed
    by image; a shape the count reports (a degenerate ring, no ring, an RLE
    of another grid, an image side beyond 2**52 px) gets no area.
    """
    key = {img.id: k for k, img in enumerate(ds.images)}
    items = [(inst.segmentation, key[inst.image_id]) for inst in instances]
    ov = count_overlaps(items, [], [(img.width, img.height) for img in ds.images])
    return {inst.id: area for k, (inst, area) in enumerate(zip(instances, ov.area_a.tolist())) if k not in ov.faults}


def summarize(ds: AnnotationDataset, *, buckets: str = "stored") -> DatasetSummary:
    """Exact corpus counts: categories, crowds, vertices, size strata.

    The size histogram excludes crowd instances. ``buckets`` picks what
    sets an instance's stratum: ``"stored"``, its stored area field;
    ``"recomputed"``, its rasterized pixel count wherever
    :func:`_pixel_areas` counts one, while any other shape (a degenerate
    ring, no ring, an RLE of another grid) keeps its stored area;
    ``"dims"``, its bounding-box dimensions.

    Raises:
        StatsError: a bucketed instance has a negative area or box extent;
            the message names the annotation.
    """
    if buckets not in ("stored", "recomputed", "dims"):
        raise ValueError(f"buckets must be 'stored', 'recomputed' or 'dims', got {buckets!r}")
    instances = ds.instances
    plain = [inst for inst in instances if not inst.iscrowd]
    if buckets == "dims":
        values = np.array([inst.bbox[2:] for inst in plain], dtype=np.float64).reshape(-1, 2)
        bounds = _SIDE_BOUNDS
    else:
        pixels = _pixel_areas(ds, plain) if buckets == "recomputed" else {}
        areas = [pixels.get(inst.id, inst.area) for inst in plain]
        values = np.array(areas, dtype=np.float64).reshape(-1, 1)
        bounds = _BUCKET_BOUNDS
    bad = (values < 0).any(axis=1)
    # A stratum is the first whose bound is at or above every value of the
    # instance (``side="left"``); a NaN sorts past every bound, into LARGE,
    # where the scalar rules put it too.
    stratum = np.searchsorted([bound for _, bound in bounds], values, side="left").max(axis=1, initial=0)
    if bad.any():  # the first by position, named by the scalar rule
        k = int(np.argmax(bad))
        inst = plain[k]
        try:
            size_bucket_of_dims(*inst.bbox[2:]) if buckets == "dims" else size_bucket(areas[k])
        except StatsError as e:
            raise StatsError(f"annotation {inst.id} has {e}") from None
    counts = np.bincount(stratum, minlength=len(SizeBucket)).tolist()
    shapes = map(attrgetter("segmentation"), instances)
    return DatasetSummary(
        image_count=len(ds.images),
        instance_count=len(ds.instances),
        crowd_count=len(instances) - len(plain),
        vertex_count=sum(shape.vertex_count for shape in shapes if isinstance(shape, Polygons)),
        per_category=dict(Counter(map(attrgetter("category_id"), instances))),
        size_buckets=dict(zip(SizeBucket, counts)),
    )


class DatasetDelta(NamedTuple):
    """Signed differences, target minus source, over the category union."""

    per_category: dict[int, int]
    categories_where_target_greater: int
    size_buckets: dict[SizeBucket, int]
    image_delta: int
    instance_delta: int
    crowd_delta: int
    vertex_delta: int


def compare(a: DatasetSummary, b: DatasetSummary) -> DatasetDelta:
    """Field-wise deltas ``b - a``; missing categories count as zero."""
    cats = sorted(set(a.per_category) | set(b.per_category))
    per_category = {c: b.per_category.get(c, 0) - a.per_category.get(c, 0) for c in cats}
    greater = sum(
        1 for c in cats if b.per_category.get(c, 0) > a.per_category.get(c, 0)
    )
    return DatasetDelta(
        per_category=per_category,
        categories_where_target_greater=greater,
        size_buckets={k: b.size_buckets[k] - a.size_buckets[k] for k in SizeBucket},
        image_delta=b.image_count - a.image_count,
        instance_delta=b.instance_count - a.instance_count,
        crowd_delta=b.crowd_count - a.crowd_count,
        vertex_delta=b.vertex_count - a.vertex_count,
    )


class DistanceHistogram(NamedTuple):
    """Distribution of one surface metric over a matched-pair population.

    Values must exceed one pixel to be included; the binned domain is
    ``(1, mean + 3 * std]`` over the kept values (population statistics),
    uniform bins, left-open right-closed. Values beyond the clip land in
    ``overflow``; ``included + excluded_below + overflow == total``.
    """

    metric: str
    edges: list[float]
    counts: list[int]
    mean: float
    std: float
    clip: float
    included: int
    excluded_below: int
    overflow: int
    total: int


def distance_histogram(table: PairTable, metric: str = "d_avg", bins: int = 50) -> DistanceHistogram:
    """Histogram one metric over a table's measured pairs; see DistanceHistogram.

    Raises:
        StatsError: no values exceed the one-pixel floor.
    """
    if metric not in ("d_avg", "d_max"):
        raise ValueError(f"metric must be 'd_avg' or 'd_max', got {metric!r}")
    if bins < 1:
        raise ValueError("bins must be >= 1")
    values = getattr(table, metric)[table.measured]
    total = values.size
    kept = values[values > 1.0]
    excluded_below = int(total - kept.size)
    if kept.size == 0:
        raise StatsError("no distances greater than one pixel")
    mean = float(kept.mean())
    std = float(kept.std())
    clip = mean + 3.0 * std
    included = kept[kept <= clip]
    overflow = int(kept.size - included.size)
    width = (clip - 1.0) / bins
    idx = np.ceil((included - 1.0) / width).astype(np.int64) - 1
    np.clip(idx, 0, bins - 1, out=idx)
    counts = np.bincount(idx, minlength=bins)
    edges = (1.0 + width * np.arange(bins + 1)).tolist()
    edges[-1] = clip
    return DistanceHistogram(
        metric=metric,
        edges=edges,
        counts=counts.tolist(),
        mean=mean,
        std=std,
        clip=clip,
        included=int(included.size),
        excluded_below=excluded_below,
        overflow=overflow,
        total=int(total),
    )
