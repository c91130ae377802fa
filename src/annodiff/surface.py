"""Contour disagreement metrics for matched shape pairs.

For a pair of masks, each boundary is the foreground removed by one binary
erosion, taken as the set of its pixel centers. Every contour pixel gets the
distance to its nearest pixel of the other contour, found from the two point
sets directly (no distance map is built). The average surface distance sums
these distances over both contours and divides by the total contour length;
the maximum surface distance is the symmetric worst case (discrete Hausdorff
distance between the contour pixel sets). These are the metrics of Taha &
Hanbury, "Metrics for evaluating 3D medical image segmentation" (BMC Medical
Imaging, 2015). Distances are exact: integer squared pixel distances with the
square root taken only at read-out.

Matched pairs are measured in chunks (:func:`ring_pairs_metrics`). A pair's
window is the bounding box of its two rings' pixel toggles. The rings of a
chunk are scan-converted in one pass, and every layer (one per ring) is
filled into one flat boolean buffer by the running parity of its toggles,
the fill :func:`~annodiff.raster.rasterize_stack` uses too. All layers share
one row stride, and each has a blank row above it and a blank column left of
it, so one parity pass fills them all and one erosion by shifted ANDs (±1 and
± the stride, plus the diagonals for ``square``) gives the same contour
pixels as the whole image grid. A chunk closes at
``_CHUNK_PX`` buffer pixels, unless one pair's window alone exceeds that, so
memory stays bounded however many pairs there are; sorting a group of pairs
by window width keeps the shared stride close to each window's own.

The contour points of a chunk are its buffer's flat indices, sorted, so each
layer's points are already in row-major order, which fixes the summation
order of the average. The nearest point of the other contour is searched in
an expanding band of rows: for each row offset, the point's column is looked
up among the other contour's points of that row (``np.searchsorted``). A
distance is final once it is at most ``(k + 1)**2`` after rows ``|dr| <= k``,
since every point farther out is at least that far, or once no rows are
left. Points still open after ``_BAND`` rows on either side are compared
with every point of the other contour (:func:`_nearest_squared`), in blocks
of ``_BLOCK`` squared distances, in the narrowest integer type that holds
them: int16 when both window sides are at most 128 (a squared distance is
then at most 2 * 127**2 = 32258, below 2**15 - 1), int32 when both are below
2**15 (at most 2 * 32766**2, below 2**31 - 1), and int64 otherwise.
:func:`surface_distances` runs the same search on a two-layer buffer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import AnnotationDataset
from .errors import DegenerateShape, GeometryError
from .matching import MatchPair
from .raster import (
    _FOOTPRINTS,
    _Vertices,
    _check_grid,
    _crossings,
    _next_center,
    _parity_fill,
    _ring_vertices,
    _rings,
)
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

# Pairs whose vertices are gathered at once, and whose windows are sorted by
# width and cut into chunks; the report's pool takes one group per task.
# Larger groups pack chunks more tightly and cost more memory: on a
# 1,000-image pair (4,889 pairs, one process on 2 shared CPUs), groups of
# 16, 64, 128 and 256 pairs took 746, 631, 585 and 575 ms, with tracemalloc
# peaks of 1.9, 2.3, 2.6 and 3.0 MiB.
_GROUP = 128

# Pixel cap of one chunk's fill buffer: each of the few temporaries of its
# fill and erosion takes one byte per pixel.
_CHUNK_PX = 1 << 18

# Row offsets searched on each side of a contour point before it is compared
# with every point of the other contour. With pairs matched at a box IoU of
# 0.90, nearly every contour point lies within 2 px of the other contour.
_BAND = 4

# Window bounds of a pair with no toggles at all.
_NONE = 1 << 60


def _distance_dtype(shape) -> type:
    """The narrowest integer dtype that holds every squared distance between
    two pixels of a grid of ``shape``, and every coordinate."""
    side = max(shape)
    return np.int16 if side < _INT16_SIDE else np.int32 if side < _INT32_SIDE else np.int64


def _nearest_squared(x, y) -> np.ndarray:
    """Squared distance from each point of ``x`` to its nearest point of
    ``y``.

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
    near = np.empty(xr.size, dtype=xr.dtype)
    for j in range(0, yr.size, cols):
        br, bc = yr[j : j + cols], yc[j : j + cols]
        for i in range(0, xr.size, rows):
            d = xr[i : i + rows, None] - br
            d *= d
            dc = xc[i : i + rows, None] - bc
            dc *= dc
            d += dc
            part = near[i : i + rows]
            if j:
                np.minimum(part, d.min(axis=1), out=part)
            else:
                d.min(axis=1, out=part)
    return near


def _row_gaps(ends: np.ndarray, t: np.ndarray, far: int) -> np.ndarray:
    """Squared column distance from each key of ``t`` to the nearest sorted
    key of ``ends[1:-1]``, clipped to ``far``. ``ends`` holds a sentinel key
    at each end, at least ``far`` beyond every target, so both neighbours of
    a target always exist; a neighbour in another row lies ``far`` or more
    away, so a gap of ``far`` means the row holds no point."""
    at = np.searchsorted(ends[1:-1], t)
    after = ends[1:].take(at)
    after -= t
    before = ends[:-1].take(at)
    np.subtract(t, before, out=before)
    np.minimum(after, before, out=after)
    np.minimum(after, far, out=after)
    after *= after
    return after


def _nearest(points: np.ndarray, stride: int, top: np.ndarray, height: np.ndarray, width: np.ndarray):
    """Squared distance from each contour point to the nearest point of its
    partner layer, and the bounds of each layer's points.

    ``points`` are the sorted flat indices of every layer's contour points in
    a buffer of row ``stride``. Layer ``l`` starts with the blank buffer row
    ``top[l]``, and ``top[-1]`` is the blank row after the last layer. Layers
    ``2j`` and ``2j + 1`` are the two contours of pair ``j``, both on its
    window of ``height[j]`` rows (after the blank row) and buffer columns
    ``1..width[j] - 1``, so a point and its partner row share one column.
    Returns ``(best, bounds)``: the points of layer ``l`` are
    ``points[bounds[l]:bounds[l + 1]]``. A point whose partner layer is
    empty gets no distance (its value is meaningless).
    """
    layers = top.size - 1
    bounds = np.searchsorted(points, top * stride)
    lay = np.repeat(np.arange(layers), np.diff(bounds))
    # Search keys: ``step`` keys per buffer row, and _BAND more blank rows
    # after each layer, so that no row searched from a layer's window reaches
    # into a neighbouring layer. ``far`` exceeds every column distance within
    # a row and every distance within a window.
    far = stride + int(height.max()) + _BAND + 2
    step = far + stride
    rows, cols = np.divmod(points, stride)
    rows += lay * _BAND
    keys = rows * step
    keys += cols
    start = top + np.arange(layers + 1) * _BAND  # first key row of each layer
    ends = np.concatenate(([-(_BAND + 2) * step], keys, [(int(start[-1]) + _BAND + 2) * step]))
    shift = (start[np.arange(layers) ^ 1] - start[:-1]) * step
    target = keys + shift[lay]
    best = _row_gaps(ends, target, far)
    open_ = np.flatnonzero(best > 1)
    # rows to the window's far edge: once searched, a distance is final
    window_row = rows[open_] - start[lay[open_]]
    reach = np.maximum(window_row - 1, np.repeat(height, 2)[lay[open_]] - window_row)
    open_, reach = open_[reach > 0], reach[reach > 0]
    for k in range(1, _BAND + 1):
        if not open_.size:
            break
        gap = _row_gaps(ends, np.add.outer((k * step, -k * step), target[open_]).ravel(), far)
        d = gap.reshape(2, -1).min(axis=0)
        d += k * k
        np.minimum(d, best[open_], out=d)
        best[open_] = d
        still = (d > (k + 1) ** 2) & (reach > k)
        open_, reach = open_[still], reach[still]
    if open_.size:
        _finish(best, open_, bounds, points, stride, top, height, width)
    return best, bounds


def _finish(best, open_, bounds, points, stride, top, height, width) -> None:
    """Set the exact distance of each point of ``open_`` by comparing it with
    every point of its partner layer (:func:`_nearest_squared`), one call per
    layer with open points, on window coordinates: rows ``0..height[j] - 1``
    and columns ``0..width[j] - 2`` (the window's last column is blank)."""
    def window(lo, hi, layer, dtype):
        rows, cols = np.divmod(points[lo:hi], stride)
        rows -= top[layer] + 1
        cols -= 1
        return rows.astype(dtype), cols.astype(dtype)

    cut = np.searchsorted(open_, bounds).tolist()
    b = bounds.tolist()
    for j in np.flatnonzero(np.diff(cut[::2])).tolist():
        a, m, e = b[2 * j : 2 * j + 3]
        if a == m or m == e:
            continue  # an empty layer: the pair is not measured
        dtype = _distance_dtype((int(height[j]), int(width[j]) - 1))
        xa, xb = window(a, m, 2 * j, dtype), window(m, e, 2 * j + 1, dtype)
        for layer, x, y in ((2 * j, xa, xb), (2 * j + 1, xb, xa)):
            at = open_[cut[layer] : cut[layer + 1]] - b[layer]
            if at.size:
                best[b[layer] + at] = _nearest_squared((x[0][at], x[1][at]), y)


def _read_out(best: np.ndarray, bounds: np.ndarray) -> list:
    """``(d_avg, d_max, |cx|, |cy|)`` of each pair of layers, or ``None``
    where a layer has no point. Each contour's distances are summed as one
    contiguous float64 array in row-major order, and the maximum is taken on
    the integer squares."""
    dist = np.sqrt(best, dtype=np.float64)
    largest = np.maximum.reduceat(np.append(best, 0), bounds[:-1]).tolist()
    b = bounds.tolist()
    out = []
    for j in range(0, len(b) - 1, 2):
        a, m, e = b[j : j + 3]
        if a == m or m == e:
            out.append(None)
            continue
        d_avg = float((np.add.reduce(dist[a:m]) + np.add.reduce(dist[m:e])) / (e - a))
        out.append((d_avg, float(np.sqrt(max(largest[j], largest[j + 1]))), m - a, e - m))
    return out


def surface_distances(cx: np.ndarray, cy: np.ndarray) -> tuple[float, float, int, int]:
    """Both surface metrics for two same-grid contour masks.

    Returns ``(d_avg, d_max, |cx|, |cy|)``. The two masks are laid out as
    the two layers of a buffer, as a matched pair is, and searched the same
    way; distances are exact.

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
    h, w = cx.shape
    buffer = np.zeros((2 * h + 3, w + 1), dtype=bool)
    buffer[1 : h + 1, 1:] = cx
    buffer[h + 2 : 2 * h + 2, 1:] = cy
    points = np.flatnonzero(buffer)
    top = np.array([0, h + 1, 2 * h + 2])
    if not (points.size and points[0] < top[1] * (w + 1) <= points[-1]):
        raise GeometryError("surface distance of an empty contour")
    best, bounds = _nearest(points, w + 1, top, np.array([h]), np.array([w + 1]))
    return _read_out(best, bounds)[0]


def average_surface_distance(cx: np.ndarray, cy: np.ndarray) -> float:
    """Mean boundary-to-boundary distance, symmetric in its arguments."""
    return surface_distances(cx, cy)[0]


def max_surface_distance(cx: np.ndarray, cy: np.ndarray) -> float:
    """Worst boundary-to-boundary distance (symmetric Hausdorff form)."""
    return surface_distances(cx, cy)[1]


def _contour_points(toggles: np.ndarray, size: int, stride: int, footprint: str) -> np.ndarray:
    """Sorted flat indices of the contour pixels of a buffer of ``size``
    pixels and row ``stride``, filled from the flat indices of its pixel
    toggles. The first and last buffer rows are blank, and so is the first
    column of every row."""
    mask = _parity_fill(toggles, size)
    # erosion of the pixels [lo, hi), which hold every foreground pixel
    lo, hi = stride + 1, size - stride - 1
    eroded = mask[lo - 1 : hi - 1] & mask[lo + 1 : hi + 1]
    eroded &= mask[lo - stride : hi - stride]
    eroded &= mask[lo + stride : hi + stride]
    if footprint == "square":
        for offset in (-stride - 1, -stride + 1, stride - 1, stride + 1):
            eroded &= mask[lo + offset : hi + offset]
    np.greater(mask[lo:hi], eroded, out=eroded)  # foreground and not eroded
    points = np.flatnonzero(eroded)
    points += lo
    return points


def _chunks(width: np.ndarray, rows: np.ndarray) -> list[np.ndarray]:
    """Pair indices cut into chunks of at most ``_CHUNK_PX`` buffer pixels,
    by window width: a chunk's stride is its widest window plus one, and a
    pair adds ``rows[j]`` buffer rows. A pair over the cap is a chunk alone."""
    order = np.argsort(width, kind="stable")
    chunks, lo, total = [], 0, 1
    for i, (w, r) in enumerate(zip(width[order].tolist(), rows[order].tolist())):
        if i > lo and (w + 1) * (total + r) > _CHUNK_PX:
            chunks.append(order[lo:i])
            lo, total = i, 1
        total += r
    chunks.append(order[lo:])
    return chunks


def _measure_chunk(v: _Vertices, start: np.ndarray, sel: np.ndarray, width, height, footprint: str) -> list:
    """:func:`_read_out` of the pairs ``sel`` of a group: the rings of pair
    ``j`` are the vertices of owners ``2j`` and ``2j + 1`` of ``v``, which
    start at ``start[owner]``; ``width`` and ``height`` are per owner."""
    lay = np.stack((2 * sel, 2 * sel + 1), axis=1).ravel()
    n = start[lay + 1] - start[lay]
    idx = np.arange(int(n.sum())) + np.repeat(start[lay] - (np.cumsum(n) - n), n)
    succ = v.succ[idx] - idx
    succ += np.arange(idx.size)
    chunk = _Vertices(v.x[idx], v.y[idx], succ, np.repeat(np.arange(lay.size), n))
    owner, rows, cols = _crossings(chunk, width[lay], height[lay])
    cut = np.searchsorted(owner, np.arange(lay.size + 1))
    filled = np.flatnonzero(np.diff(cut))
    if not filled.size:
        return [None] * sel.size
    # A pair's window spans the toggles of both its layers; each layer's are
    # contiguous, and an empty layer adds none.
    at, rc = cut[filled], np.stack((rows, cols))
    lo = np.full((2, lay.size), _NONE)
    lo[:, filled] = np.minimum.reduceat(rc, at, axis=1)
    hi = np.full((2, lay.size), -_NONE)
    hi[:, filled] = np.maximum.reduceat(rc, at, axis=1)
    lo, hi = lo.reshape(2, -1, 2).min(axis=2), hi.reshape(2, -1, 2).max(axis=2)
    # a pair's window: rows lo..hi, columns lo..hi, the last column blank
    h, w = np.maximum(hi - lo + 1, 0)
    stride = int(w.max()) + 1
    top = np.zeros(lay.size + 1, dtype=np.int64)
    np.cumsum(np.repeat(h + 1, 2), out=top[1:])
    row_off = top[:-1] + 1 - np.repeat(lo[0], 2)
    col_off = 1 - np.repeat(lo[1], 2)
    toggles = (rows + row_off[owner]) * stride + cols + col_off[owner]
    points = _contour_points(toggles, (int(top[-1]) + 1) * stride, stride, footprint)
    if not points.size:
        return [None] * sel.size
    best, bounds = _nearest(points, stride, top, h, w)
    return _read_out(best, bounds)


def _measure_pairs(pairs, footprint: str) -> list:
    """Per pair, ``(d_avg, d_max, |cx|, |cy|)``, or the ``DegenerateShape``
    that excludes it."""
    if footprint not in _FOOTPRINTS:
        raise ValueError(f"footprint must be one of {_FOOTPRINTS}")
    out: list = [None] * len(pairs)
    for lo in range(0, len(pairs), _GROUP):
        rings: list = []
        ids, sizes = [], []
        for k in range(lo, min(lo + _GROUP, len(pairs))):
            ring_a, ring_b, width, height = pairs[k]
            try:
                own = _rings((ring_a,)) + _rings((ring_b,))
            except DegenerateShape as exc:
                out[k] = exc
                continue
            _check_grid(width, height)
            rings += own
            ids.append(k)
            sizes.append((width, height))
        if not ids:
            continue
        v = _ring_vertices(rings, list(range(len(rings))))
        start = np.searchsorted(v.owner, np.arange(len(rings) + 1))
        width, height = np.repeat(np.array(sizes, dtype=np.int64), 2, axis=0).T
        # Window estimates from vertex extents: exact rows, and columns that
        # the crossings may pass by one where they round.
        first = start[:-1]
        extent = np.stack([ufunc.reduceat(xy, first) for xy in (v.y, v.x) for ufunc in (np.minimum, np.maximum)])
        r0, r1 = _next_center(extent[0:2], height)
        c0, c1 = _next_center(extent[2:4], width)
        rows = np.maximum(r1.reshape(-1, 2).max(axis=1) - r0.reshape(-1, 2).min(axis=1), 0)
        cols = c1.reshape(-1, 2).max(axis=1) - c0.reshape(-1, 2).min(axis=1) + 1
        for sel in _chunks(cols, 2 * (rows + 1)):
            for j, metrics in zip(sel.tolist(), _measure_chunk(v, start, sel, width, height, footprint)):
                out[ids[j]] = metrics if metrics is not None else DegenerateShape("shape rasterizes to an empty mask")
    return out


def ring_pairs_metrics(pairs, *, footprint: str = "cross") -> list:
    """Surface metrics of many ring pairs, measured chunk by chunk.

    ``pairs`` holds ``(source ring, target ring, width, height)`` items.
    Returns, per pair and in order, ``(d_avg, d_max, |cx|, |cy|)``, or
    ``None`` for a degenerate pair: a ring of fewer than 3 vertices, or one
    that fills no pixel center. Each value is the one :func:`ring_pair_metrics`
    gives for that pair alone, to the bit, whatever the other pairs.

    Raises:
        GeometryError: a ring's coordinates do not pair up into vertices, or
            a grid is invalid (each only where the pair is not already
            degenerate by its vertex count).
        ValueError: an unknown footprint.
    """
    return [None if isinstance(m, DegenerateShape) else m for m in _measure_pairs(pairs, footprint)]


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

    A chunk of one pair of :func:`ring_pairs_metrics`: both rings are
    scan-converted in one pass, filled on their union window with a blank
    border, and eroded there, which gives the same contour pixels as the
    whole image grid.

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
    (metrics,) = _measure_pairs([(src_ring, tgt_ring, width, height)], footprint)
    if isinstance(metrics, DegenerateShape):
        raise metrics
    return metrics


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
