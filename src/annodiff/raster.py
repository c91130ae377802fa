"""Deterministic raster kernel: polygon fill, RLE codec, morphology, exact EDT, IoU.

Masks are boolean numpy arrays of shape ``(height, width)``, row-major. Pixel
``(r, c)`` covers the unit square whose center is ``(x, y) = (c + 0.5, r + 0.5)``;
all distances are Euclidean between pixel centers, in pixel units.

Fill convention
---------------
A pixel is foreground iff its center lies inside the polygon under the
even-odd (crossing parity) rule, counting edge crossings of the horizontal
ray towards +x with half-open vertical edge spans ``[ymin, ymax)`` and a
strict ``x_center < x_crossing`` comparison. Centers exactly on a top or
left edge are inside, on a bottom or right edge outside, so abutting
polygons tile the grid without overlap.

The span test is exact, but the crossing is not: it is computed in float64
as ``x1 + (y_center - y1) * slope``, with ``slope = (x2 - x1) / (y2 - y1)``
taken first. On horizontal and vertical edges that is exact. On a slanted
edge the crossing may be rounded, so a center that lies within rounding of
it (a center on a polygon vertex, or on the edge itself) is decided by the
rounded crossing, and can land on the other side from the exact rule.

Windows
-------
A shape is filled by one vectorized scanline pass onto the tight window of
its foreground, ``(row0, col0, mask)`` (:func:`rasterize_window`,
:func:`window_of`). Crossings are computed in absolute grid coordinates, so
no pixel depends on the window. Whole-grid masks paste the window into a
zero grid; pixel counts and overlaps (:func:`window_intersection`) need
only windows.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import GeometryError, SchemaError
from .shapes import Polygons, RleMask

# Sentinel for "no source in this row"; BIG**2 must stay well inside int64.
_BIG = np.int64(1) << 20
_INF_SQ = _BIG * _BIG


class Box(NamedTuple):
    """Axis-aligned box in continuous pixel units, origin top-left."""

    x: float
    y: float
    w: float
    h: float


# ---------------------------------------------------------------------------
# polygon rasterization


def _ring_points(ring) -> np.ndarray:
    """Normalize a ring (flat list or (k, 2) array) to a float (k, 2) array."""
    pts = np.asarray(ring, dtype=np.float64)
    if pts.ndim == 1:
        if pts.size % 2 != 0:
            raise GeometryError(f"ring has odd coordinate count {pts.size}")
        pts = pts.reshape(-1, 2)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise GeometryError(f"ring has invalid shape {pts.shape}")
    return pts


def _gather_edges(poly) -> np.ndarray:
    """Closed edge list (x1, y1, x2, y2) over all rings; degenerate rings raise."""
    rings = poly.rings if isinstance(poly, Polygons) else poly
    edges = []
    for ring in rings:
        pts = _ring_points(ring)
        if len(pts) < 3:
            raise GeometryError(f"degenerate ring with {len(pts)} vertices")
        closed = np.concatenate([pts, pts[:1]])
        edges.append(np.concatenate([closed[:-1], closed[1:]], axis=1))
    if not edges:
        raise GeometryError("polygon has no rings")
    return np.concatenate(edges)


def _empty_window() -> tuple[int, int, np.ndarray]:
    return 0, 0, np.zeros((0, 0), dtype=bool)


def rasterize_window(poly, width: int, height: int) -> tuple[int, int, np.ndarray]:
    """Rasterize polygon rings onto the tight window of their foreground.

    Returns ``(row0, col0, mask)``: pixel ``(r, c)`` of ``mask`` is pixel
    ``(row0 + r, col0 + c)`` of the ``width`` x ``height`` grid, filled under
    the module convention, and the first and last rows and columns of
    ``mask`` each hold foreground. A shape with no foreground on the grid
    gives ``(0, 0)`` and a ``(0, 0)`` mask.

    Every (edge, row) pair that passes the span test yields one crossing;
    sorted by (row, x), consecutive crossings pair up into the inside runs
    of each row, which one running parity paints. Multiple rings combine by
    crossing parity over all edges (even-odd), so disjoint rings union and
    nested rings punch holes. Crossings are rounded in float64 (see the
    module docstring).

    Args:
        poly: ``Polygons`` or a sequence of rings (flat lists or (k, 2) arrays).
        width, height: grid dimensions in pixels.

    Raises:
        GeometryError: a ring has fewer than 3 vertices, or dims are invalid.
    """
    if width < 1 or height < 1:
        raise GeometryError(f"invalid grid {width}x{height}")
    edges = _gather_edges(poly)
    # horizontal edges never cross a scanline
    x1, y1, x2, y2 = edges[edges[:, 1] != edges[:, 3]].T
    ylo = np.minimum(y1, y2)
    yhi = np.maximum(y1, y2)
    slope = (x2 - x1) / (y2 - y1)

    # Every row r with ylo <= r + 0.5 < yhi lies in [floor(ylo), ceil(yhi)).
    # Expand those candidates per edge, clipped to the grid, then keep exactly
    # the pairs that pass the span test.
    first, stop = np.clip([np.floor(ylo), np.ceil(yhi)], 0, height).astype(np.int64)
    span = np.maximum(stop - first, 0)
    e = np.repeat(np.arange(span.size), span)
    rows = first[e] + np.arange(e.size) - np.repeat(np.cumsum(span) - span, span)
    py = rows + 0.5
    hit = (ylo[e] <= py) & (py < yhi[e])
    e, rows, py = e[hit], rows[hit], py[hit]
    xs = x1[e] + (py - y1[e]) * slope[e]
    order = np.lexsort((xs, rows))
    rows, xs = rows[order], xs[order]

    # Each row has an even number of crossings, so after the sort crossing
    # parity makes [xs[2i], xs[2i+1]) the disjoint inside runs. Pixel centers
    # in [a, b) are the columns [ceil(a - 0.5), ceil(b - 0.5)).
    c0 = np.maximum(np.ceil(xs[0::2] - 0.5), 0)
    c1 = np.minimum(np.ceil(xs[1::2] - 0.5), width)
    run = c0 < c1
    if not run.any():
        return _empty_window()
    rows, c0, c1 = rows[0::2][run], c0[run].astype(np.int64), c1[run].astype(np.int64)
    row0, col0 = int(rows[0]), int(c0.min())
    h, w = int(rows[-1]) - row0 + 1, int(c1.max()) - col0
    # Toggle at each run's first column and just past its last; the runs are
    # disjoint, so the running parity is set exactly inside them. Every row
    # holds an even number of toggles, so one flat pass serves all rows.
    stride = w + 1
    base = (rows - row0) * stride - col0
    toggles = np.zeros(h * stride, dtype=bool)
    toggles[base + c0] = True
    toggles[base + c1] ^= True  # a run may end where the next one starts
    mask = np.logical_xor.accumulate(toggles).reshape(h, stride)[:, :w]
    return row0, col0, mask


def rasterize(poly, width: int, height: int) -> np.ndarray:
    """Rasterize polygon rings to a whole-grid boolean mask: the window of
    :func:`rasterize_window`, whose arguments and errors it shares, pasted
    into a zero grid."""
    row0, col0, window = rasterize_window(poly, width, height)
    mask = np.zeros((height, width), dtype=bool)
    mask[row0 : row0 + window.shape[0], col0 : col0 + window.shape[1]] = window
    return mask


# ---------------------------------------------------------------------------
# run-length codec (column-major, first run background)


def decode_rle(rle: RleMask) -> np.ndarray:
    """Decode a column-major RLE into a boolean ``(height, width)`` mask."""
    counts = np.asarray(rle.counts, dtype=np.int64)
    if counts.size and counts.min() < 0:
        raise SchemaError("RLE counts must be non-negative")
    total = int(counts.sum())
    if total != rle.height * rle.width:
        raise SchemaError(
            f"RLE counts sum {total} != {rle.height}x{rle.width} grid"
        )
    values = np.arange(counts.size, dtype=np.int64) % 2 == 1
    flat = np.repeat(values, counts)
    return flat.reshape((rle.width, rle.height)).T


def encode_rle(mask: np.ndarray) -> RleMask:
    """Encode a boolean mask as column-major RLE; inverse of :func:`decode_rle`."""
    mask = np.asarray(mask, dtype=bool)
    h, w = mask.shape
    flat = mask.T.ravel()
    if flat.size == 0:
        raise GeometryError("cannot encode empty grid")
    change = np.flatnonzero(flat[1:] != flat[:-1]) + 1
    bounds = np.concatenate([[0], change, [flat.size]])
    counts = np.diff(bounds).tolist()
    if flat[0]:
        counts = [0] + counts
    return RleMask(counts=tuple(int(c) for c in counts), height=h, width=w)


def mask_of(shape, width: int, height: int) -> np.ndarray:
    """Rasterize either shape encoding onto a ``width`` x ``height`` grid."""
    if isinstance(shape, RleMask):
        m = decode_rle(shape)
        if m.shape != (height, width):
            raise GeometryError(
                f"RLE grid {m.shape} does not match image {height}x{width}"
            )
        return m
    return rasterize(shape, width, height)


def window_of(shape, width: int, height: int) -> tuple[int, int, np.ndarray]:
    """Either shape encoding as a tight window ``(row0, col0, mask)`` of a
    ``width`` x ``height`` grid; see :func:`rasterize_window`. An RLE is
    decoded once and cropped."""
    if not isinstance(shape, RleMask):
        return rasterize_window(shape, width, height)
    mask = mask_of(shape, width, height)
    rows = np.flatnonzero(mask.any(axis=1))
    if rows.size == 0:
        return _empty_window()
    cols = np.flatnonzero(mask.any(axis=0))
    r0, c0 = int(rows[0]), int(cols[0])
    # a copy, so the whole decoded grid is not kept alive by the window
    return r0, c0, mask[r0 : rows[-1] + 1, c0 : cols[-1] + 1].copy()


def window_intersection(a, b) -> int:
    """Foreground pixels shared by two windows ``(row0, col0, mask)`` of one
    grid, counted on the overlap of the windows only."""
    (ar, ac, am), (br, bc, bm) = a, b
    r0, r1 = max(ar, br), min(ar + am.shape[0], br + bm.shape[0])
    c0, c1 = max(ac, bc), min(ac + am.shape[1], bc + bm.shape[1])
    if r0 >= r1 or c0 >= c1:
        return 0
    return int(
        np.count_nonzero(am[r0 - ar : r1 - ar, c0 - ac : c1 - ac] & bm[r0 - br : r1 - br, c0 - bc : c1 - bc])
    )


# ---------------------------------------------------------------------------
# morphology


_FOOTPRINTS = ("cross", "square")


def erode(mask: np.ndarray, footprint: str = "cross") -> np.ndarray:
    """Binary erosion; pixels outside the grid count as background.

    ``cross`` uses the 4-connected structuring element, ``square`` the full
    3x3 neighborhood.
    """
    if footprint not in _FOOTPRINTS:
        raise ValueError(f"footprint must be one of {_FOOTPRINTS}")
    mask = np.asarray(mask, dtype=bool)
    p = np.zeros((mask.shape[0] + 2, mask.shape[1] + 2), dtype=bool)
    p[1:-1, 1:-1] = mask
    out = p[1:-1, 1:-1] & p[:-2, 1:-1] & p[2:, 1:-1] & p[1:-1, :-2] & p[1:-1, 2:]
    if footprint == "square":
        out &= p[:-2, :-2] & p[:-2, 2:] & p[2:, :-2] & p[2:, 2:]
    return out


def contour(mask: np.ndarray, footprint: str = "cross") -> np.ndarray:
    """Boundary pixels: the foreground removed by one erosion."""
    mask = np.asarray(mask, dtype=bool)
    return mask & ~erode(mask, footprint)


# ---------------------------------------------------------------------------
# exact Euclidean distance transform


def _row_distances(source: np.ndarray) -> np.ndarray:
    """Per pixel, column distance to the nearest source pixel in its own row.

    Returns int64 with the ``_BIG`` sentinel where the row has no source.
    """
    cols = np.arange(source.shape[1], dtype=np.int64)
    left = np.where(source, cols, -_BIG)
    np.maximum.accumulate(left, axis=1, out=left)
    d = cols - left
    right = np.where(source, cols, 3 * _BIG)
    right = np.minimum.accumulate(right[:, ::-1], axis=1)[:, ::-1]
    np.minimum(d, right - cols, out=d)
    np.minimum(d, _BIG, out=d)
    return d


# Stack levels tested per step of the envelope pass. A new parabola rarely
# pops more than a few, so most rows settle every column in one step.
_LOOKAHEAD = 4


def _lower_envelope(f: np.ndarray) -> np.ndarray:
    """Per column, lower envelope of the parabolas ``(r - q)^2 + f[q, c]``.

    The pass of Felzenszwalb & Huttenlocher (2012), run over the rows in
    order and vectorized across the independent columns. Each column keeps
    a stack of parabolas, level ``l`` of column ``c`` at flat index
    ``l * m + c``: apex rows ``v``, apex values ``a = f[v] + v^2`` and
    breakpoints ``z`` (``-inf`` at level 0, so nothing pops the bottom).
    Entries ``>= _INF_SQ`` mark absent parabolas; every column must hold at
    least one present one. Integer arithmetic throughout; floats appear only
    in the crossing abscissae, whose rounding cannot flip the integer
    minima. Linear in the pixel count.
    """
    n, m = f.shape
    present = f < _INF_SQ
    apex = f + np.arange(n, dtype=np.int64)[:, None] ** 2
    every = np.arange(m)
    v = np.zeros((n, m), np.int64)
    v[0] = present.argmax(axis=0)  # each column's first parabola seeds its stack
    present[v[0], every] = False
    a = np.zeros((n, m), np.int64)
    a[0] = apex[v[0], every]
    z = np.full((n, m), np.inf)
    z[0] = -np.inf
    top = every.copy()  # flat index of each column's top level
    vf, af, zf = v.reshape(-1), a.reshape(-1), z.reshape(-1)
    depth = np.arange(_LOOKAHEAD)[:, None] * m
    for q in np.flatnonzero(present.any(axis=1)).tolist():
        cols = np.flatnonzero(present[q])
        at, fq = top[cols], apex[q, cols]
        while cols.size:
            # crossings with the top levels at once: pop up to the first
            # level whose breakpoint lies left of the crossing
            lv = np.maximum(at - depth, cols)
            s = (fq - af[lv]) / (2.0 * (q - vf[lv]))
            stop = s > zf[lv]
            i, idx = stop.argmax(axis=0), np.arange(cols.size)
            done = stop[i, idx]
            t = lv[i, idx][done] + m
            top[cols[done]] = t
            vf[t] = q
            af[t] = fq[done]
            zf[t] = s[i, idx][done]
            rest = ~done
            cols, at, fq = cols[rest], at[rest] - _LOOKAHEAD * m, fq[rest]

    # Read-out. Row r lies in segment j = #{1 <= l <= k : z[l] < r}, k the
    # column's top level; breakpoints above k are stale, left by pops. For
    # an integer r, z[l] < r holds exactly from row floor(z[l]) + 1 on.
    live = np.arange(1, n)[:, None] <= top // m
    first = np.clip(np.floor(z[1:]) + 1, 0, n).astype(np.int64)
    starts = np.bincount((first * m + every)[live], minlength=(n + 1) * m)
    j = np.cumsum(starts[: n * m].reshape(n, m), axis=0)
    p = np.take_along_axis(v, j, axis=0)
    r = np.arange(n, dtype=np.int64)[:, None]
    return (r - p) ** 2 + np.take_along_axis(f, p, axis=0)


def edt_squared(source: np.ndarray) -> np.ndarray:
    """Exact squared Euclidean distance to the nearest source pixel center.

    ``source`` is one ``(h, w)`` mask. Two separable passes: per-row
    nearest-source column distances, then a per-column lower envelope over
    parabolas. Exact in int64; linear in the pixel count per dimension.

    Raises:
        GeometryError: the mask is not 2-D, or the source set is empty
            (distance undefined).
    """
    source = np.asarray(source, dtype=bool)
    if source.ndim != 2:
        raise GeometryError(f"distance transform of a {source.ndim}-D array")
    if not source.any():
        raise GeometryError("distance transform of an empty source set")
    g = _row_distances(source)
    return _lower_envelope(g * g)


def edt(source: np.ndarray) -> np.ndarray:
    """Exact Euclidean distance transform, in pixels (float64)."""
    return np.sqrt(edt_squared(source).astype(np.float64))


# ---------------------------------------------------------------------------
# overlap measures and bounds


def box_iou(a, b) -> float:
    """Intersection over union of two (x, y, w, h) boxes; 0 when the union is empty."""
    ax, ay, aw, ah = (float(v) for v in a)
    bx, by, bw, bh = (float(v) for v in b)
    iw = min(ax + aw, bx + bw) - max(ax, bx)
    ih = min(ay + ah, by + bh) - max(ay, by)
    inter = max(0.0, iw) * max(0.0, ih)
    union = aw * ah + bw * bh - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def box_iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise box IoU for (n, 4) and (m, 4) arrays of (x, y, w, h) rows."""
    a = np.asarray(a, dtype=np.float64).reshape(-1, 4)
    b = np.asarray(b, dtype=np.float64).reshape(-1, 4)
    ax0, ay0 = a[:, 0], a[:, 1]
    ax1, ay1 = a[:, 0] + a[:, 2], a[:, 1] + a[:, 3]
    bx0, by0 = b[:, 0], b[:, 1]
    bx1, by1 = b[:, 0] + b[:, 2], b[:, 1] + b[:, 3]
    iw = np.minimum(ax1[:, None], bx1[None, :]) - np.maximum(ax0[:, None], bx0[None, :])
    ih = np.minimum(ay1[:, None], by1[None, :]) - np.maximum(ay0[:, None], by0[None, :])
    inter = np.clip(iw, 0.0, None) * np.clip(ih, 0.0, None)
    union = (a[:, 2] * a[:, 3])[:, None] + (b[:, 2] * b[:, 3])[None, :] - inter
    out = np.zeros_like(inter)
    np.divide(inter, union, out=out, where=union > 0)
    return out


def mask_iou(a: np.ndarray, b: np.ndarray) -> float:
    """Foreground IoU of two same-grid boolean masks."""
    a = np.asarray(a, dtype=bool)
    b = np.asarray(b, dtype=bool)
    if a.shape != b.shape:
        raise GeometryError(f"mask grids differ: {a.shape} vs {b.shape}")
    inter = int(np.count_nonzero(a & b))
    union = int(np.count_nonzero(a | b))
    if union == 0:
        return 0.0
    return inter / union


def bbox_of_mask(mask: np.ndarray) -> Box:
    """Tight bounds of a mask's foreground; pixel (r, c) occupies (c, r, 1, 1)."""
    mask = np.asarray(mask, dtype=bool)
    rows = np.flatnonzero(mask.any(axis=1))
    if rows.size == 0:
        raise GeometryError("bounding box of an empty mask")
    cols = np.flatnonzero(mask.any(axis=0))
    r0, r1 = int(rows[0]), int(rows[-1])
    c0, c1 = int(cols[0]), int(cols[-1])
    return Box(float(c0), float(r0), float(c1 - c0 + 1), float(r1 - r0 + 1))


def bbox_of_polygon(poly) -> Box:
    """Tight axis-aligned bounds of polygon vertices, in continuous units."""
    if isinstance(poly, Polygons):
        pts = poly.all_points()
    else:
        parts = [_ring_points(r) for r in poly]
        pts = np.concatenate(parts) if parts else np.empty((0, 2))
    if pts.size == 0:
        raise GeometryError("bounding box of an empty polygon")
    x0, y0 = pts.min(axis=0)
    x1, y1 = pts.max(axis=0)
    return Box(float(x0), float(y0), float(x1 - x0), float(y1 - y0))
