"""Corpus-level descriptive statistics and distance distributions.

Object size strata follow the usual area boundaries (10x10, 32x32, 96x96
squares, i.e. 100 / 1024 / 9216 square pixels, boundary areas landing in the
lower stratum). Distance histograms keep values strictly above one pixel and
clip the domain at three standard deviations above the mean of the kept
population; everything is tallied so nothing silently disappears.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .dataset import AnnotationDataset, _pixel_areas
from .errors import StatsError
from .shapes import Polygons
from .surface import SurfaceDistanceResult


class SizeBucket(Enum):
    VERY_SMALL = "very_small"  # area <= 10*10
    SMALL = "small"  # 10*10 < area <= 32*32
    MEDIUM = "medium"  # 32*32 < area <= 96*96
    LARGE = "large"  # area > 96*96


_BUCKET_BOUNDS = ((SizeBucket.VERY_SMALL, 100.0), (SizeBucket.SMALL, 1024.0), (SizeBucket.MEDIUM, 9216.0))


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
    for bucket, side in ((SizeBucket.VERY_SMALL, 10.0), (SizeBucket.SMALL, 32.0), (SizeBucket.MEDIUM, 96.0)):
        if w <= side and h <= side:
            return bucket
    return SizeBucket.LARGE


@dataclass
class DatasetSummary:
    image_count: int = 0
    instance_count: int = 0
    crowd_count: int = 0
    vertex_count: int = 0
    per_category: dict[int, int] = field(default_factory=dict)
    size_buckets: dict[SizeBucket, int] = field(
        default_factory=lambda: {b: 0 for b in SizeBucket}
    )


def summarize(
    ds: AnnotationDataset,
    *,
    area_mode: str = "stored",
    dims_mode: bool = False,
) -> DatasetSummary:
    """Exact corpus counts: categories, crowds, vertices, size strata.

    The size histogram excludes crowd instances. ``area_mode="recomputed"``
    buckets by rasterized pixel count instead of the stored area field,
    wherever ``dataset._pixel_areas`` counts one, as ``validate`` does; any
    other shape (a degenerate ring, no ring, an RLE of another grid) keeps
    its stored area. ``dims_mode`` buckets by bounding-box dimensions instead
    of area, so the two cannot be combined (``ValueError``).

    Raises:
        StatsError: a bucketed instance has a negative area or box extent;
            the message names the annotation.
    """
    if area_mode not in ("stored", "recomputed"):
        raise ValueError(f"area_mode must be 'stored' or 'recomputed', got {area_mode!r}")
    if dims_mode and area_mode == "recomputed":
        raise ValueError("dims_mode buckets by box dimensions, not area: area_mode must be 'stored'")
    areas = {}
    if area_mode == "recomputed":
        areas = _pixel_areas(ds, [inst for inst in ds.instances if not inst.iscrowd])
    per_category = Counter()
    buckets = {b: 0 for b in SizeBucket}
    crowd_count = 0
    vertex_count = 0
    for inst in ds.instances:
        per_category[inst.category_id] += 1
        if isinstance(inst.segmentation, Polygons):
            vertex_count += inst.segmentation.vertex_count
        if inst.iscrowd:
            crowd_count += 1
            continue
        try:
            if dims_mode:
                bucket = size_bucket_of_dims(inst.bbox[2], inst.bbox[3])
            else:
                bucket = size_bucket(areas.get(inst.id, inst.area))
        except StatsError as e:
            raise StatsError(f"annotation {inst.id} has {e}") from None
        buckets[bucket] += 1
    return DatasetSummary(
        image_count=len(ds.images),
        instance_count=len(ds.instances),
        crowd_count=crowd_count,
        vertex_count=vertex_count,
        per_category=dict(per_category),
        size_buckets=buckets,
    )


@dataclass
class DatasetDelta:
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


@dataclass
class DistanceHistogram:
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


def distance_histogram(
    results: list[SurfaceDistanceResult],
    metric: str = "d_avg",
    bins: int = 50,
) -> DistanceHistogram:
    """Histogram one metric of a result population; see DistanceHistogram.

    Raises:
        StatsError: no values exceed the one-pixel floor.
    """
    if metric not in ("d_avg", "d_max"):
        raise ValueError(f"metric must be 'd_avg' or 'd_max', got {metric!r}")
    if bins < 1:
        raise ValueError("bins must be >= 1")
    values = np.array([getattr(r, metric) for r in results], dtype=np.float64)
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
