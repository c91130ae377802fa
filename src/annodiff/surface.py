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

Matched pairs are measured in chunks (:func:`ring_pairs_metrics`). The rings
of a group of pairs are read as the overlap count reads its shapes
(:func:`~annodiff.raster._read_shapes`), each ring a shape of its own, and
the first fault by pair order that is not a degenerate ring is raised. A
pair's window is taken once, from its rings' vertex extents: exact rows, and
the columns with a spare one on each side for a crossing that rounds past
them (:func:`_windows`). The rings of a chunk are scan-converted in one
pass, and every layer (one per ring) is filled into one flat boolean buffer
by the running parity of its toggles, the fill
:func:`~annodiff.raster.rasterize` uses too. All layers share one row
stride. Each window has two blank rows above and below it, and every row a
blank first column; a window's last column, a closing toggle's, is blank
too. The buffer has one more blank row at each end, so that no lookup below
indexes outside it. So one parity pass fills them all, and one erosion by
shifted ANDs (±1 and ± the stride, plus the diagonals for ``square``) gives
the same contour pixels as the whole image grid. The contour is written back
into the fill buffer, which is then the chunk's contour bitmap. A chunk
closes at ``_CHUNK_PX`` buffer pixels, unless one pair's window alone
exceeds that, so memory stays bounded however many pairs there are; sorting
a group of pairs by window width keeps the shared stride close to each
window's own.

The contour points of a chunk are its bitmap's flat indices, sorted, so
each layer's points are already in row-major order, which fixes the
summation order of the average. A point's partner position is its pixel in
the other layer of its pair. The 5 x 5 block around it reads only that
layer's window and blank pixels, so gathers from the bitmap at its 25
offsets, in order of squared distance (0, 1, 2, 4, 5, 8), settle every
point within √8 px of the other contour. The points left lie at least 3 px
from it, and are searched in an expanding band of rows: for each row
offset, the flat index in the target row is looked up among the sorted
points (``np.searchsorted``), and its neighbours count only if they lie
between that row's start and end. A distance is final once it is at most
``(k + 1)**2`` after rows ``|dr| <= k``, since every point farther out is at
least that far, or once the band has reached both edges of the pair's
window. The band grows one row on each side per step while any point is
open, so a pair whose contours lie far apart in rows takes one step per
window row; that is the worst case. :func:`surface_distances` lays its two
masks out as the two layers of a pair and runs the same search.
"""

from itertools import compress
from typing import NamedTuple

import numpy as np

from .dataset import AnnotationDataset
from .errors import DegenerateShape, GeometryError
from .matching import MatchPair
from .raster import (
    _Vertices,
    _check_footprint,
    _check_grid,
    _crossings,
    _error,
    _next_center,
    _parity_fill,
    _read_shapes,
    _ring_vertices,
)
from .shapes import Polygons


class PairTable(NamedTuple):
    """Matched pairs in canonical order, one row each, their surface values
    as columns. ``measured`` is false for a degenerate pair, whose values read 0."""

    pairs: list[MatchPair]  # the ids stay Python ints
    d_avg: np.ndarray  # float64
    d_max: np.ndarray  # float64
    contour_len_source: np.ndarray  # int64
    contour_len_target: np.ndarray  # int64
    measured: np.ndarray  # bool


# Pairs whose vertices are gathered at once, and whose windows are sorted by
# width and cut into chunks; the report's pool takes one group per task.
# Larger groups pack chunks more tightly and cost more memory: on a
# 1,000-image pair (4,889 pairs, one process on 2 shared CPUs), groups of
# 16, 64, 128 and 256 pairs took 746, 631, 585 and 575 ms, with tracemalloc
# peaks of 1.9, 2.3, 2.6 and 3.0 MiB.
_GROUP = 128

# Pixel cap of one chunk's fill buffer: each of the few temporaries of its
# fill and erosion takes one byte per pixel. 1 << 20 is faster warm (surface
# stage of a 100-image pair 28.0 -> 24.3 ms), but a command is a fresh process,
# which page-faults every buffer it first touches: surface-audit read wall_s
# 0.0579-0.0591 -> 0.0594-0.0602 s, peak_rss_mb 36.3 -> 38.6 (3 pairs of 10 s).
_CHUNK_PX = 1 << 18


# The 25 offsets ``(dr, dc)`` of a 5 x 5 block, by squared distance: a point
# whose partner position holds a contour pixel at one of them is settled by
# the first such distance, 0, 1, 2, 4, 5 or 8.
_BLOCK = [
    (d2, [(dr, dc) for dr in range(-2, 3) for dc in range(-2, 3) if dr * dr + dc * dc == d2])
    for d2 in (0, 1, 2, 4, 5, 8)
]


def _row_search(points: np.ndarray, q: np.ndarray, col: np.ndarray, stride: int, far: int) -> np.ndarray:
    """Column distance from each flat index of ``q`` to the nearest of the
    sorted ``points`` in its buffer row, or ``far`` where the row holds
    none. ``q`` has one row per row offset, each holding the flat indices
    of the same open points moved by that offset, and ``col`` holds their
    columns.

    The nearest points on either side of a flat index are its neighbours in
    ``points``; each counts only if it lies between the row's start
    ``q - col`` and its end ``q - col + stride``."""
    at = np.searchsorted(points, q)
    # clipped, a missing neighbour is a point on the wrong side of q
    after = points.take(at, mode="clip")
    after -= q
    after[(after < 0) | (after >= stride - col)] = far
    before = points.take(at - 1, mode="clip")
    np.subtract(q, before, out=before)
    before[(before <= 0) | (before > col)] = far
    np.minimum(after, before, out=after)
    return after


def _nearest(bitmap: np.ndarray, points: np.ndarray, stride: int, first: np.ndarray, height: np.ndarray):
    """Squared distance from each contour point to the nearest point of its
    partner layer, and the bounds of each layer's points.

    ``bitmap`` is a flat buffer of row ``stride`` whose set pixels are the
    contour points, and ``points`` their sorted flat indices. Layer ``l``
    holds its window's rows from buffer row ``first[l]``, and ``first[-1]``
    is where a next layer would start (:func:`_layer_rows`). Layers ``2j``
    and ``2j + 1`` are the two contours of pair ``j``, both on its window
    of ``height[j]`` rows and the same buffer columns, so a point and its
    partner position share one column. Every window has two blank rows
    above and below it, the buffer one more at each end, and the first and
    the last column of every row are blank, so the 5 x 5 block around any
    partner position reads only its partner layer's window and blank
    pixels.

    A point is settled by the first squared distance of :data:`_BLOCK` at
    which the bitmap holds a partner pixel. The others lie at least 3 px
    from every partner point; they are searched in a band of rows that
    grows by one row on each side per step (:func:`_row_search`), and a
    distance is final once it is at most ``(k + 1)**2`` after rows
    ``|dr| <= k``, since every point farther out is at least that far, or
    once the band has reached both edges of the window.
    Returns ``(best, bounds)``: the points of layer ``l`` are
    ``points[bounds[l]:bounds[l + 1]]``. A point whose partner layer is
    empty gets no distance (its value is meaningless).
    """
    layers = first.size - 1
    bounds = np.searchsorted(points, first * stride)
    count = np.diff(bounds)
    partner = np.arange(layers) ^ 1
    shift = (first[partner] - first[:-1]) * stride
    # partner positions less ``base``, so that every block offset is a
    # non-negative start of a view of the bitmap
    base = 2 * stride + 2
    at = np.repeat(shift - base, count)
    at += points
    best = np.zeros(points.size, dtype=np.int64)
    hit = bitmap[base:].take(at)
    open_ = np.flatnonzero(~hit)
    at = at[open_]
    for d2, offsets in _BLOCK[1:]:
        views = [bitmap[base + dr * stride + dc :] for dr, dc in offsets]
        hit = views[0].take(at)
        for view in views[1:]:
            hit |= view.take(at)
        best[open_[hit]] = d2
        np.logical_not(hit, out=hit)
        open_, at = open_[hit], at[hit]
    # the band search, for the points left that have a partner point
    lay = np.searchsorted(bounds, open_, side="right") - 1
    kept = count[partner[lay]] > 0
    open_, at, lay = open_[kept], at[kept] + base, lay[kept]
    if not open_.size:
        return best, bounds
    row, col = np.divmod(at, stride)
    row -= first[partner[lay]]  # row in the window
    below = height[lay >> 1] - 1 - row  # rows below it in the window
    reach = np.maximum(row, below)
    far = stride + int(height.max())  # beyond every distance in a window
    d = np.full(open_.size, far * far)
    dr, k = np.zeros(1, dtype=np.int64), 0
    while True:
        gap = _row_search(points, np.add.outer(dr * stride, at), col, stride, far)
        gap[np.less.outer(dr, -row) | np.greater.outer(dr, below)] = far  # rows outside the window
        gap *= gap
        gap += (dr * dr)[:, None]
        np.minimum(d, gap.min(axis=0), out=d)
        best[open_] = d
        still = (d > (k + 1) ** 2) & (reach > k)
        open_, at, col, row, below, reach, d = (a[still] for a in (open_, at, col, row, below, reach, d))
        if not open_.size:
            return best, bounds
        k += 1
        dr = np.array([-k, k])


def _read_out(best: np.ndarray, bounds: np.ndarray) -> list:
    """``(d_avg, d_max, |cx|, |cy|)`` of each pair of layers, or ``None``
    where a layer has no point. Each contour's distances are summed as one
    contiguous float64 array in row-major order, and the maximum is taken on
    the integer squares."""
    count = np.diff(bounds)
    full = count > 0
    largest = np.zeros(count.size, dtype=np.int64)
    largest[full] = np.maximum.reduceat(best, bounds[:-1][full])
    d_max = np.sqrt(np.maximum(largest[0::2], largest[1::2]), dtype=np.float64).tolist()
    measured = (full[0::2] & full[1::2]).tolist()
    dist = np.sqrt(best, dtype=np.float64)
    b, n = bounds.tolist(), count.tolist()
    out = []
    for j, ok in enumerate(measured):
        if not ok:
            out.append(None)
            continue
        a, m, e = b[2 * j : 2 * j + 3]
        d_avg = float((np.add.reduce(dist[a:m]) + np.add.reduce(dist[m:e])) / (e - a))
        out.append((d_avg, d_max[j], n[2 * j], n[2 * j + 1]))
    return out


def surface_distances(cx: np.ndarray, cy: np.ndarray) -> tuple[float, float, int, int]:
    """Both surface metrics for two same-grid contour masks.

    Returns ``(d_avg, d_max, |cx|, |cy|)``. The two masks are laid out as
    the two layers of a buffer, as a matched pair is: each after a blank
    column and before another, with two blank rows above and below, and
    one more at each end of the buffer. They are searched the same way;
    distances are exact.

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
    first = _layer_rows(np.array([h, h]))
    buffer = np.zeros((first[-1] + 1, w + 2), dtype=bool)
    buffer[first[0] : first[0] + h, 1:-1] = cx
    buffer[first[1] : first[1] + h, 1:-1] = cy
    bitmap = buffer.ravel()
    points = np.flatnonzero(bitmap)
    if not (points.size and points[0] < first[1] * (w + 2) <= points[-1]):
        raise GeometryError("surface distance of an empty contour")
    best, bounds = _nearest(bitmap, points, w + 2, first, np.array([h]))
    return _read_out(best, bounds)[0]


def _layer_rows(heights: np.ndarray) -> np.ndarray:
    """The first buffer row of each layer of ``heights`` rows, then the
    buffer's last row: two blank rows above and below every layer, and one
    more at each end, which :func:`_nearest`'s unchecked lookups need."""
    return np.concatenate(([3], 3 + np.cumsum(heights + 2, dtype=np.int64)))


def _contour_points(toggles: np.ndarray, size: int, stride: int, footprint: str) -> tuple[np.ndarray, np.ndarray]:
    """The contour bitmap of a buffer of ``size`` pixels and row ``stride``,
    filled from the flat indices of its pixel toggles, and the sorted flat
    indices of its set pixels. The first and last buffer rows are blank,
    and so is the first column of every row. The contour is written into
    the fill buffer, which is returned as the bitmap."""
    mask = _parity_fill(toggles, size)
    # erosion of the pixels [lo, hi), which hold every foreground pixel
    lo, hi = stride + 1, size - stride - 1
    eroded = mask[lo - 1 : hi - 1] & mask[lo + 1 : hi + 1]
    eroded &= mask[lo - stride : hi - stride]
    eroded &= mask[lo + stride : hi + stride]
    if footprint == "square":
        for offset in (-stride - 1, -stride + 1, stride - 1, stride + 1):
            eroded &= mask[lo + offset : hi + offset]
    np.greater(mask[lo:hi], eroded, out=mask[lo:hi])  # foreground and not eroded
    return mask, np.flatnonzero(mask)


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


def _measure_chunk(v: _Vertices, start: np.ndarray, sel: np.ndarray, grid, window, footprint: str) -> list:
    """:func:`_read_out` of the pairs ``sel`` of a group: the rings of pair
    ``j`` are the vertices of owners ``2j`` and ``2j + 1`` of ``v``, which
    start at ``start[owner]``. Per pair, ``grid`` holds its width and
    height, and ``window`` the first row, the rows, the first column and
    the columns that hold all its toggles (:func:`_windows`)."""
    lay = np.stack((2 * sel, 2 * sel + 1), axis=1).ravel()
    n = start[lay + 1] - start[lay]
    idx = np.arange(int(n.sum())) + np.repeat(start[lay] - (np.cumsum(n) - n), n)
    succ = v.succ[idx] - idx
    succ += np.arange(idx.size)
    chunk = _Vertices(v.x[idx], v.y[idx], succ, np.repeat(np.arange(lay.size), n))
    width, height = grid[:, sel].repeat(2, axis=1)
    owner, rows, cols = _crossings(chunk, width, height)
    # a pair's window in each of its two layers, after a blank column; its
    # last column, a closing toggle's, is blank too
    r0, h, c0, w = window[:, sel]
    stride = int(w.max()) + 1
    first = _layer_rows(np.repeat(h, 2))
    row_off = first[:-1] - np.repeat(r0, 2)
    col_off = 1 - np.repeat(c0, 2)
    toggles = (rows + row_off[owner]) * stride + cols + col_off[owner]
    bitmap, points = _contour_points(toggles, (int(first[-1]) + 1) * stride, stride, footprint)
    if not points.size:
        return [None] * sel.size
    best, bounds = _nearest(bitmap, points, stride, first, h)
    return _read_out(best, bounds)


def _windows(v: _Vertices, first: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """``(first row, rows, first column, columns)`` of each pair's window,
    from the extents of its vertices, which start at ``first[j]``, on its
    grid ``grid[:, j]`` (width, height).

    An edge crosses exactly the row centers ``[ceil(ylo - 0.5), ceil(yhi -
    0.5))`` (:func:`~annodiff.raster._crossings`), so the rows are exact. A
    computed crossing differs from the exact one, which lies within the
    edge's x extent, by less than 13 units of roundoff (2**-53) times ``M``,
    the largest magnitude of a coordinate of the pair, and by less than 11
    where it is interpolated because the slope overflows. So it lands at most
    ``floor(M * 2**-49) + 1`` columns past the columns of the pair's x
    extent (one column below ``M = 2**49``), and the window takes that many
    spare columns on each side, clipped to the grid.
    """
    ylo, yhi, xlo, xhi = (f.reduceat(xy, first) for xy in (v.y, v.x) for f in (np.minimum, np.maximum))
    width, height = grid
    r0, r1 = _next_center(np.stack((ylo, yhi)), height)
    c0, c1 = _next_center(np.stack((xlo, xhi)), width)
    magnitude = np.maximum(np.maximum(-ylo, yhi), np.maximum(-xlo, xhi))
    spare = np.minimum(np.floor(magnitude * 2.0**-49) + 1, width).astype(np.int64)
    c0 = np.maximum(c0 - spare, 0)
    return np.stack((r0, r1 - r0, c0, np.minimum(c1 + spare, width) - c0 + 1))


def _measure_pairs(pairs, footprint: str) -> list:
    """Per pair, ``(d_avg, d_max, |cx|, |cy|)``, or the ``DegenerateShape``
    that excludes it.

    Each ring of a group is read as a shape of its own, keyed by its pair
    (:func:`~annodiff.raster._read_shapes`). A pair's fault is ring a's,
    else ring b's, else its grid's; the first fault of a group that is not
    a ``DegenerateShape``, by pair order, is raised.
    """
    _check_footprint(footprint)
    out: list = [None] * len(pairs)
    for lo in range(0, len(pairs), _GROUP):
        group = pairs[lo : lo + _GROUP]
        sizes = [(width, height) for _, _, width, height in group]
        shapes = [(ring,) for ring_a, ring_b, _, _ in group for ring in (ring_a, ring_b)]
        rings, _, ring_rank, _, own = _read_shapes(shapes, sizes, np.arange(len(shapes)) // 2, [None] * len(group))
        for j, size in enumerate(sizes):
            fault = own.get(2 * j) or own.get(2 * j + 1) or _error(_check_grid, *size)
            if fault and not isinstance(fault, DegenerateShape):
                raise fault
            out[lo + j] = fault
        measured = np.array([fault is None for fault in out[lo : lo + len(group)]])
        if not measured.any():
            continue
        kept = np.flatnonzero(measured).tolist()
        rings = list(compress(rings, measured[ring_rank // 2].tolist()))
        v = _ring_vertices(rings, list(range(len(rings))))
        start = np.searchsorted(v.owner, np.arange(len(rings) + 1))
        grid = np.array([sizes[j] for j in kept], dtype=np.int64).T
        window = _windows(v, start[:-1:2], grid)
        _, rows, _, cols = window
        for sel in _chunks(cols, 2 * (rows + 1)):
            for j, metrics in zip(sel.tolist(), _measure_chunk(v, start, sel, grid, window, footprint)):
                out[lo + kept[j]] = metrics if metrics is not None else DegenerateShape("shape rasterizes to an empty mask")
    return out


def ring_pairs_metrics(pairs, *, footprint: str = "cross") -> list:
    """Surface metrics of many ring pairs, measured chunk by chunk.

    ``pairs`` holds ``(source ring, target ring, width, height)`` items.
    Returns, per pair and in order, ``(d_avg, d_max, |cx|, |cy|)``, or
    ``None`` for a degenerate pair: a ring of fewer than 3 vertices, or one
    that fills no pixel center. Each value is the one :func:`ring_pair_metrics`
    gives for that pair alone, to the bit, whatever the other pairs.

    Raises:
        GeometryError: a ring's coordinates do not pair up into vertices or
            one is not a finite float, or a grid is invalid (each only where
            the pair is not already degenerate by its vertex count).
        ValueError: an unknown footprint.
    """
    return [None if isinstance(m, DegenerateShape) else m for m in _measure_pairs(pairs, footprint)]


def _single_ring(segmentation) -> tuple[float, ...]:
    """The ring of a single-ring ``Polygons``; ``()`` for any other shape."""
    if isinstance(segmentation, Polygons) and segmentation.ring_count == 1:
        return segmentation.rings[0]
    return ()


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
    benchmark still passes ``mode="crop"`` (ROADMAP item 1).

    Raises:
        DegenerateShape: a ring has fewer than 3 vertices or rasterizes to
            an empty mask.
        GeometryError: otherwise, a ring's coordinates do not pair up into
            vertices or one is not a finite float, or the grid is invalid.
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
    """``(source ring, target ring, width, height)`` of one matched pair, on its source image's grid.

    An instance that is not a single polygon ring gives the empty ring
    ``()``, which the ring reader names a degenerate ring, so
    :func:`ring_pairs_metrics` gives ``None`` for the pair.
    """
    inst = source.instance(pair.source_instance_id)
    image = source.image(inst.image_id)
    ring = _single_ring(inst.segmentation)
    return ring, _single_ring(target.instance(pair.target_instance_id).segmentation), image.width, image.height
