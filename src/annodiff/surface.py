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
from .raster import contour, edt_squared, rasterize_window
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

    Each ring is rasterized onto its own window, and both windows are pasted
    into one grid: with ``mode="crop"`` their union window padded by one
    pixel and clipped to the image, with ``mode="full"`` the whole image.
    Both yield identical values (distances only ever reach the nearest
    contour pixel, which the crop contains). The audit always measures on
    the crop; ``mode="full"`` is kept as the reference that the tests check
    the crop against.

    Raises:
        DegenerateShape: a ring has fewer than 3 vertices or rasterizes to
            an empty mask.
    """
    if mode not in ("full", "crop"):
        raise ValueError(f"mode must be 'full' or 'crop', got {mode!r}")
    windows = []
    for ring in (src_ring, tgt_ring):
        if len(ring) < 6:
            raise DegenerateShape(f"ring with {len(ring) // 2} vertices")
        window = rasterize_window([ring], width, height)
        if window[2].size == 0:
            raise DegenerateShape("shape rasterizes to an empty mask")
        windows.append(window)

    r0, r1, c0, c1 = 0, height, 0, width
    if mode == "crop":
        (ar, ac, am), (br, bc, bm) = windows
        r0 = max(min(ar, br) - 1, 0)
        r1 = min(max(ar + am.shape[0], br + bm.shape[0]) + 1, height)
        c0 = max(min(ac, bc) - 1, 0)
        c1 = min(max(ac + am.shape[1], bc + bm.shape[1]) + 1, width)
    mx, my = np.zeros((2, r1 - r0, c1 - c0), dtype=bool)
    for grid, (r, c, m) in zip((mx, my), windows):
        grid[r - r0 : r - r0 + m.shape[0], c - c0 : c - c0 + m.shape[1]] = m
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
