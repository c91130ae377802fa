"""Contour disagreement metrics for matched shape pairs.

For a pair of masks, each boundary is the foreground removed by one binary
erosion, and each boundary gets an exact Euclidean distance map. The average
surface distance sums each contour's distances under the opposite contour's
map and divides by the total contour length; the maximum surface distance is
the symmetric worst case (discrete Hausdorff distance between the contour
pixel sets). Distances are exact: integer squared pixel distances with the
square root taken only at read-out.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import AnnotationDataset
from .errors import DegenerateShape, GeometryError
from .matching import MatchPair
from .raster import contour, edt_squared, rasterize
from .shapes import Polygons


@dataclass(frozen=True)
class SurfaceDistanceResult:
    pair: MatchPair
    d_avg: float
    d_max: float
    contour_len_source: int
    contour_len_target: int


def _directed_read(sq_map: np.ndarray, at: np.ndarray) -> tuple[np.ndarray, int]:
    """Squared distances sampled at contour pixels, row-major, plus the max."""
    values = sq_map[at]
    return np.sqrt(values.astype(np.float64)), int(values.max())


def surface_distances(cx: np.ndarray, cy: np.ndarray) -> tuple[float, float, int, int]:
    """Both surface metrics for two same-grid contour masks.

    Returns ``(d_avg, d_max, |cx|, |cy|)``.

    Raises:
        GeometryError: either contour is empty or the grids differ.
    """
    cx = np.asarray(cx, dtype=bool)
    cy = np.asarray(cy, dtype=bool)
    if cx.shape != cy.shape:
        raise GeometryError(f"contour grids differ: {cx.shape} vs {cy.shape}")
    nx = int(np.count_nonzero(cx))
    ny = int(np.count_nonzero(cy))
    if nx == 0 or ny == 0:
        raise GeometryError("surface distance of an empty contour")
    # one envelope pass serves both maps; each row pass stays in its own mask
    dist_to_cy, dist_to_cx = edt_squared(np.stack([cy, cx]))
    from_cx, max_x = _directed_read(dist_to_cy, cx)
    from_cy, max_y = _directed_read(dist_to_cx, cy)
    d_avg = float((from_cx.sum() + from_cy.sum()) / (nx + ny))
    d_max = float(np.sqrt(max(max_x, max_y)))
    return d_avg, d_max, nx, ny


def average_surface_distance(cx: np.ndarray, cy: np.ndarray) -> float:
    """Mean boundary-to-boundary distance, symmetric in its arguments."""
    return surface_distances(cx, cy)[0]


def max_surface_distance(cx: np.ndarray, cy: np.ndarray) -> float:
    """Worst boundary-to-boundary distance (symmetric Hausdorff form)."""
    return surface_distances(cx, cy)[1]


def _single_ring(segmentation) -> tuple[float, ...]:
    if not isinstance(segmentation, Polygons) or segmentation.ring_count != 1:
        raise DegenerateShape("instance is not a single polygon ring")
    return segmentation.rings[0]


def ring_pair_metrics(
    src_ring,
    tgt_ring,
    width: int,
    height: int,
    *,
    mode: str = "crop",
    footprint: str = "cross",
) -> tuple[float, float, int, int]:
    """Full pipeline for one ring pair: rasterize, contour, EDT, both metrics.

    ``mode="crop"`` runs on the union bounding box padded by one pixel;
    ``mode="full"`` runs on the whole image grid. Both yield identical values
    (distances only ever reach the nearest contour pixel, which the crop
    contains). The audit always measures on the crop; ``mode="full"`` is
    kept as the reference that the tests check the crop against.

    Raises:
        DegenerateShape: a ring has fewer than 3 vertices or rasterizes to
            an empty mask.
    """
    if mode not in ("full", "crop"):
        raise ValueError(f"mode must be 'full' or 'crop', got {mode!r}")
    masks = []
    for ring in (src_ring, tgt_ring):
        if len(ring) < 6:
            raise DegenerateShape(f"ring with {len(ring) // 2} vertices")
        mask = rasterize([ring], width, height)
        if not mask.any():
            raise DegenerateShape("shape rasterizes to an empty mask")
        masks.append(mask)
    mx, my = masks

    if mode == "crop":
        both = mx | my
        rows = np.flatnonzero(both.any(axis=1))
        cols = np.flatnonzero(both.any(axis=0))
        r0, r1 = max(int(rows[0]) - 1, 0), min(int(rows[-1]) + 2, height)
        c0, c1 = max(int(cols[0]) - 1, 0), min(int(cols[-1]) + 2, width)
        mx = mx[r0:r1, c0:c1]
        my = my[r0:r1, c0:c1]

    return surface_distances(contour(mx, footprint), contour(my, footprint))


def pair_rings(
    pair: MatchPair,
    source: AnnotationDataset,
    target: AnnotationDataset,
) -> tuple[tuple[float, ...], tuple[float, ...], int, int]:
    """``(source ring, target ring, width, height)`` of one matched pair.

    Raises:
        DegenerateShape: either instance is not a single polygon ring.
    """
    image = source.image(pair.image_id) if pair.image_id in source.index else target.image(pair.image_id)
    return (
        _single_ring(source.instance(pair.source_instance_id).segmentation),
        _single_ring(target.instance(pair.target_instance_id).segmentation),
        image.width,
        image.height,
    )


def pair_metrics(
    pair: MatchPair,
    source: AnnotationDataset,
    target: AnnotationDataset,
    *,
    footprint: str = "cross",
) -> SurfaceDistanceResult:
    """Surface metrics for one matched pair, resolved from its datasets."""
    d_avg, d_max, nx, ny = ring_pair_metrics(*pair_rings(pair, source, target), footprint=footprint)
    return SurfaceDistanceResult(pair, d_avg, d_max, nx, ny)
