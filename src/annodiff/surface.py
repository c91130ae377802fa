"""Contour disagreement metrics for matched shape pairs.

For a pair of masks, each boundary is the foreground removed by one binary
erosion, taken as the set of its pixel centers. Every contour pixel gets the
distance to its nearest pixel of the other contour, found by comparing the
two point sets directly, block by block (no distance map is built). The
average surface distance sums these distances over both contours and divides
by the total contour length; the maximum surface distance is the symmetric
worst case (discrete Hausdorff distance between the contour pixel sets).
These are the metrics of Taha & Hanbury, "Metrics for evaluating 3D medical
image segmentation" (BMC Medical Imaging, 2015). Distances are exact:
integer squared pixel distances with the square root taken only at read-out.
They are taken on grid-relative coordinates in the narrowest integer type
that holds them: int16 when both grid sides are at most 128 (a squared
distance is then at most 2 * 127**2 = 32258, below 2**15 - 1), int32 when
both are below 2**15 (at most 2 * 32766**2, below 2**31 - 1), and int64
otherwise. Contour coordinates come from each mask's flat row-major indices
(``np.flatnonzero``), split into rows and columns by ``np.divmod`` in that
type: a flat index is below the pixel count, so below ``2**15`` on an int16
grid and below ``2**30`` on an int32 one. Their row-major order fixes the
summation order of the average. A matched pair is measured on the window of
its two shapes' foreground, not on the image, so most pairs take int16, and
only a pair whose window side reaches 2**15 takes int64. The pair's two masks
are filled on that window straight from the pixel toggles of both rings
(:func:`~annodiff.raster.rasterize_stack`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import AnnotationDataset
from .errors import DegenerateShape, GeometryError
from .matching import MatchPair
from .raster import contour, rasterize_stack
from .shapes import Polygons


@dataclass(frozen=True)
class SurfaceDistanceResult:
    pair: MatchPair
    d_avg: float
    d_max: float
    contour_len_source: int
    contour_len_target: int


# Element cap of one block of pairwise squared distances: 2**16 values,
# 128 KB (int16), 256 KB (int32) or 512 KB (int64) per temporary, however
# long the contours are.
_BLOCK = 1 << 16

# Grids whose sides are all below this take int16 coordinates: every squared
# distance between two of their pixels is at most 2 * 127**2 = 32258, below
# the int16 maximum 32767.
_INT16_SIDE = 129

# Grids whose sides are all below this take int32 coordinates: every squared
# distance between two of their pixels is at most 2 * (2**15 - 2)**2 < 2**31 - 1.
_INT32_SIDE = 1 << 15


def _distance_dtype(shape) -> type:
    """The narrowest integer dtype that holds every squared distance between
    two pixels of a grid of ``shape``, and every flat pixel index."""
    side = max(shape)
    return np.int16 if side < _INT16_SIDE else np.int32 if side < _INT32_SIDE else np.int64


def _nearest_squared(x, y) -> tuple[np.ndarray, np.ndarray]:
    """Squared distance from each point of ``x`` to its nearest point of
    ``y``, and from each point of ``y`` to its nearest point of ``x``.

    ``x`` and ``y`` are ``(rows, cols)`` pairs of coordinate arrays of one
    integer dtype, which the distances keep: int16 is exact for coordinates
    below ``_INT16_SIDE - 1``, int32 below ``_INT32_SIDE - 1``, int64 for any
    grid. The pairwise block is built ``_BLOCK`` elements at a time, from
    separate row and column differences. The first block of each point's
    comparisons starts its running minimum, and each later one lowers it.
    """
    (xr, xc), (yr, yc) = x, y
    cols = min(yr.size, _BLOCK)
    rows = max(_BLOCK // cols, 1)
    to_y = np.empty(xr.size, dtype=xr.dtype)
    to_x = np.empty(yr.size, dtype=xr.dtype)
    for j in range(0, yr.size, cols):
        br, bc, near_x = yr[j : j + cols], yc[j : j + cols], to_x[j : j + cols]
        for i in range(0, xr.size, rows):
            d = xr[i : i + rows, None] - br
            d *= d
            dc = xc[i : i + rows, None] - bc
            dc *= dc
            d += dc
            near_y = to_y[i : i + rows]
            if j:
                np.minimum(near_y, d.min(axis=1), out=near_y)
            else:
                d.min(axis=1, out=near_y)
            if i:
                np.minimum(near_x, d.min(axis=0), out=near_x)
            else:
                d.min(axis=0, out=near_x)
    return to_y, to_x


def _points(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(rows, cols)`` of the foreground of a 2-D mask in row-major order,
    in the mask's :func:`_distance_dtype`, from its flat indices."""
    dtype = _distance_dtype(mask.shape)
    at = np.flatnonzero(mask).astype(dtype, copy=False)
    return np.divmod(at, dtype(mask.shape[1]))


def surface_distances(cx: np.ndarray, cy: np.ndarray) -> tuple[float, float, int, int]:
    """Both surface metrics for two same-grid contour masks.

    Returns ``(d_avg, d_max, |cx|, |cy|)``. Distances are exact: in int16
    when both grid sides are at most 128, in int32 when both are below
    ``2**15``, and in int64 otherwise.

    Raises:
        GeometryError: either contour is empty, the grids differ, or they
            are not 2-D.
    """
    cx = np.asarray(cx, dtype=bool)
    cy = np.asarray(cy, dtype=bool)
    if cx.shape != cy.shape:
        raise GeometryError(f"contour grids differ: {cx.shape} vs {cy.shape}")
    if cx.ndim != 2:
        raise GeometryError(f"surface distance of {cx.ndim}-D contours")
    # pixel coordinates in row-major order, which fixes the summation order
    x, y = _points(cx), _points(cy)
    nx, ny = x[0].size, y[0].size
    if nx == 0 or ny == 0:
        raise GeometryError("surface distance of an empty contour")
    sq_x, sq_y = _nearest_squared(x, y)
    from_cx = np.sqrt(sq_x, dtype=np.float64)
    from_cy = np.sqrt(sq_y, dtype=np.float64)
    d_avg = float((from_cx.sum() + from_cy.sum()) / (nx + ny))
    d_max = float(np.sqrt(max(int(sq_x.max()), int(sq_y.max()))))
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
    """Full pipeline for one ring pair: rasterize, contour, both metrics.

    Both rings are scan-converted in one pass and filled into one stack of
    two masks on their union window (:func:`~annodiff.raster.rasterize_stack`).
    The stack is eroded once, with a one-pixel background border, which gives
    the same contour pixels as the whole image grid. Distances are taken on
    window-relative coordinates, so a pair takes the exact int16 branch of
    :func:`surface_distances` while its window side is at most 128, and
    int32 until that side reaches ``2**15``.

    ``mode`` selects nothing: ``"crop"`` and ``"full"`` give the same values
    and run the same code. It is accepted, and validated, only because the
    benchmark still passes ``mode="crop"`` (ROADMAP item 2).

    Raises:
        DegenerateShape: a ring has fewer than 3 vertices or rasterizes to
            an empty mask.
        GeometryError: otherwise, a ring's coordinates do not pair up into
            vertices, or the grid is invalid.
    """
    if mode not in ("full", "crop"):
        raise ValueError(f"mode must be 'full' or 'crop', got {mode!r}")
    _, _, stack = rasterize_stack([[src_ring], [tgt_ring]], width, height)
    if not stack.any(axis=(1, 2)).all():
        raise DegenerateShape("shape rasterizes to an empty mask")
    cx, cy = contour(stack, footprint)
    return surface_distances(cx, cy)


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
