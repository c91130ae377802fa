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

The span test is never evaluated pixel by pixel. An edge spanning
``[ymin, ymax)`` crosses the center lines of exactly the rows
``[ceil(ymin - 0.5), ceil(ymax - 0.5))``, and a crossing at ``x`` puts the
next pixel center in column ``ceil(x - 0.5)``; both are clipped to the grid.
In float64 this rule is exact on any grid whose sides are at most 2**52 px
(``_next_center``); a larger grid is rejected. The crossing is not exact: it
is computed in float64 as ``x1 + (y_center - y1) * slope``, with
``slope = (x2 - x1) / (y2 - y1)`` taken first. On horizontal and vertical
edges that is exact. On a slanted edge the crossing may be rounded, so a
center that lies within rounding of it (a center on a polygon vertex, or on
the edge itself) is decided by the rounded crossing, and can land on the
other side from the exact rule.

Pixel toggles and row runs
--------------------------
One vectorized scanline pass turns any number of shapes into their pixel
toggles ``(owner, row, col)``: the center line of ``row`` crosses an edge of
shape ``owner`` at ``x``, and ``col = ceil(x - 0.5)``, clipped to the grid, is
the first pixel column whose center lies at or past that crossing. Crossings
are computed in absolute grid coordinates, so no pixel depends on which
shapes share the pass. The column map is monotone in ``x``, so sorted by
column, the toggles of a row pair up into its row runs ``(row, c0, c1)``:
columns ``[c0, c1)`` of ``row`` are inside, and a pair at one column is an
empty run. An RLE is decoded and read off as toggles too, one at each change
along a row. Pixel areas and pairwise intersections (:func:`count_overlaps`)
are counted on the runs alone: two shapes intersect where their runs on a
shared row overlap. Masks are not painted from runs. :func:`rasterize_stack`
fills the masks of several shapes straight from their unsorted toggles, by
their running parity along each row, into a stack on their shared window
``(row0, col0, stack)``, the tight bounds of their union; the surface
metrics fill a chunk of matched pairs with the same parity fill, from one
scanline pass. Since the order of the toggles does not matter to their
parity, this gives exactly the pixels of the runs. A whole-grid mask
(:func:`rasterize`) pastes a one-shape stack into a zero grid. Every IoU, of
boxes or of pixel counts, is :func:`iou` of an intersection and two areas.
"""

from __future__ import annotations

from itertools import chain
from typing import NamedTuple

import numpy as np

from .errors import DegenerateShape, GeometryError, SchemaError
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


class _Vertices(NamedTuple):
    """Every vertex of every ring of a list of polygon shapes: its
    coordinates, the index of its successor on its ring, and its shape."""

    x: np.ndarray
    y: np.ndarray
    succ: np.ndarray
    owner: np.ndarray


# Containers that a ring of plain ``int`` and ``float`` coordinates may come
# in and still be read as flat ``(x1, y1, x2, y2, ...)`` coordinates as it is.
_FLAT_RINGS = frozenset((tuple, list))
_PLAIN_NUMBERS = frozenset((int, float))


def _rings(shape) -> list:
    """The rings of a polygon shape as flat ``(x1, y1, x2, y2, ...)``
    coordinates. ``DegenerateShape`` if there is no ring or a ring has fewer
    than 6 coordinates (3 vertices); past that rule, ``GeometryError`` if a
    ring's coordinates do not pair up into vertices.

    The rings of ``Polygons`` are stored flat, and so is a raw ring that is a
    tuple or list of plain ints and floats; these are taken as they are. Any
    other raw ring (an array, a list of pairs) goes through NumPy."""
    if isinstance(shape, Polygons):
        own = list(shape.rings)
    else:
        own = [
            ring
            if type(ring) in _FLAT_RINGS and _PLAIN_NUMBERS.issuperset(map(type, ring))
            else np.asarray(ring, dtype=np.float64)
            for ring in shape
        ]
    for ring in own:
        array = type(ring) is np.ndarray
        size = ring.size if array else len(ring)
        if size < 6:
            raise DegenerateShape(f"degenerate ring with {size // 2} vertices")
        if not array and size % 2:
            raise GeometryError(f"ring has odd coordinate count {size}")
    if not own:
        raise DegenerateShape("polygon has no rings")
    return [_ring_points(ring).reshape(-1) if type(ring) is np.ndarray else ring for ring in own]


def _vertices(shapes, skip_invalid: bool = False) -> _Vertices:
    """The vertices of every polygon shape, in one gather; ``RleMask``
    shapes add none. A shape that :func:`_rings` rejects raises
    ``GeometryError``, or adds none when ``skip_invalid`` is set."""
    rings: list = []  # flat (x1, y1, x2, y2, ...) coordinates per ring
    owners: list[int] = []
    for k, shape in enumerate(shapes):
        if isinstance(shape, RleMask):
            continue
        try:
            own = _rings(shape)
        except GeometryError:
            if not skip_invalid:
                raise
            continue
        rings += own
        owners += [k] * len(own)
    return _ring_vertices(rings, owners)


def _ring_vertices(rings: list, owners: list[int]) -> _Vertices:
    """The vertices of rings as :func:`_rings` returns them, in one gather;
    ring ``i`` belongs to shape ``owners[i]``."""
    n = np.array([len(r) // 2 for r in rings], dtype=np.intp)
    flat = np.fromiter(chain.from_iterable(rings), dtype=np.float64, count=2 * int(n.sum()))
    # the last vertex of a ring closes it back to the first
    end = np.cumsum(n)
    succ = np.arange(1, flat.size // 2 + 1)
    succ[end - 1] = end - n
    return _Vertices(flat[0::2], flat[1::2], succ, np.repeat(np.array(owners, dtype=np.intp), n))


def _next_center(v: np.ndarray, lim) -> np.ndarray:
    """Index ``i`` of the first pixel whose center ``i + 0.5`` lies at or past
    each coordinate of ``v``: ``ceil(v - 0.5)``, clipped to ``[0, lim]``.

    Exact for any finite float64 ``v``, and so the same rule as the span test
    ``v <= i + 0.5``. ``v - 0.5`` is exact for ``0.25 <= v < 2**52``.
    Elsewhere it may round, but rounding is monotone: for ``v < 0.25`` the
    exact and the rounded ``ceil`` are both at most 0, and for ``v >= 2**52``
    both are at least ``2**52``, so the clip maps them to the same bound (a
    grid side is at most ``2**52``).
    """
    out = v - 0.5
    np.ceil(out, out=out)
    np.maximum(out, 0, out=out)
    np.minimum(out, lim, out=out)
    return out.astype(np.int64)


def _crossings(v: _Vertices, width: np.ndarray, height: np.ndarray, at=slice(None)):
    """Pixel toggles ``(owner, row, col)`` of the shapes of vertices ``at``,
    unsorted: the ray along the center line of ``row`` crosses an edge of
    ``owner``, whose grid is ``width[owner]`` x ``height[owner]``, at an ``x``
    whose next pixel center is in column ``col``. Every row of a shape holds
    an even number of them.

    Each vertex and its successor make an edge, which spans ``[ylo, yhi)``.
    It crosses the center lines of the rows ``r`` with
    ``ylo <= r + 0.5 < yhi``, which are exactly the rows
    ``[ceil(ylo - 0.5), ceil(yhi - 0.5))``; clipped to the grid
    (:func:`_next_center`), each of them yields one crossing.
    """
    x1, y1, owner, succ = v.x[at], v.y[at], v.owner[at], v.succ[at]
    y2 = v.y[succ]
    dy = y2 - y1
    # a horizontal edge has an empty row range, so its slope is never read
    slope = np.divide(v.x[succ] - x1, dy, out=np.zeros_like(dy), where=dy != 0)
    # rows [first, first + span) of each edge, in one pass for both bounds
    ends = np.empty((2, dy.size))
    np.minimum(y1, y2, out=ends[0])
    np.maximum(y1, y2, out=ends[1])
    first, span = _next_center(ends, height[owner])
    span -= first
    e = np.repeat(np.arange(span.size), span)
    rows = np.arange(e.size) + np.repeat(first - (np.cumsum(span) - span), span)
    owner = owner[e]
    # Pixel centers in a run [a, b) are the columns [ceil(a - 0.5),
    # ceil(b - 0.5)); clipped to the grid, an off-grid run becomes empty.
    xs = rows + 0.5
    xs -= y1[e]
    xs *= slope[e]
    xs += x1[e]
    return owner, rows, _next_center(xs, width[owner])


def _runs(owner: np.ndarray, rows: np.ndarray, cols: np.ndarray):
    """Row runs ``(owner, row, c0, c1)`` of pixel toggles, sorted by
    (row, owner, c0): columns ``[c0, c1)`` of ``row`` are inside ``owner``.

    The toggles of each (owner, row) are sorted by column and paired up:
    every row of a shape holds an even number of them, so crossing parity
    makes each pair an inside run, and the runs are disjoint. Multiple rings
    of a shape combine by parity (even-odd), so disjoint rings union and
    nested rings punch holes; a pair at one column is dropped as empty.
    """
    if not rows.size:
        return owner, rows, cols, cols
    n, w = int(owner.max()) + 1, int(cols.max()) + 1
    if (int(rows.max()) + 1) * n * w <= 2**63:
        # every combined key fits int64 (the product is taken in Python
        # integers): sort them in place and take the three keys back out,
        # which is much faster than np.lexsort of the three
        key = (rows * n + owner) * w + cols
        key.sort()
        key, cols = np.divmod(key, w)
        rows, owner = np.divmod(key, n)
    else:  # keys too far apart to combine exactly
        order = np.lexsort((cols, owner, rows))
        owner, rows, cols = owner[order], rows[order], cols[order]
    c0, c1 = cols[0::2], cols[1::2]
    run = c0 < c1
    return owner[0::2][run], rows[0::2][run], c0[run], c1[run]


# The largest grid side: ``_next_center`` is exact on grids up to it, and
# every pixel center ``r + 0.5`` below it is exact in float64.
_MAX_SIDE = 2**52


def _check_grid(width: int, height: int) -> None:
    if width < 1 or height < 1:
        raise GeometryError(f"invalid grid {width}x{height}")
    if width > _MAX_SIDE or height > _MAX_SIDE:
        raise GeometryError(f"grid {width}x{height} has a side beyond 2**52 px")


def rasterizable(shape, width: int, height: int) -> bool:
    """Whether ``shape`` can be rasterized on a ``width`` x ``height`` grid:
    an RLE of exactly that grid, or polygons that :func:`rasterize_stack`
    takes without a ``GeometryError``."""
    if isinstance(shape, RleMask):
        return (shape.height, shape.width) == (height, width)
    try:
        _check_grid(width, height)
        _rings(shape)
    except GeometryError:
        return False
    return True


def _parity_fill(toggles: np.ndarray, size: int) -> np.ndarray:
    """A flat mask of ``size`` pixels, set by the running parity of its pixel
    toggles (flat indices, in any order).

    The running parity of a row's toggles is set exactly inside its runs,
    and toggles at one position cancel, as an empty run does. Every row of
    the buffer must hold an even number of toggles: the parity is then 0
    again at the end of each row, so one pass fills every row of every
    layer in the buffer.
    """
    mask = np.zeros(size, dtype=bool)
    np.logical_xor.at(mask, toggles, True)
    return np.logical_xor.accumulate(mask, out=mask)


def rasterize_stack(shapes, width: int, height: int) -> tuple[int, int, np.ndarray]:
    """Rasterize several shapes, from one scanline pass, onto one shared window.

    Returns ``(row0, col0, stack)``: pixel ``(r, c)`` of ``stack[k]`` is pixel
    ``(row0 + r, col0 + c)`` of shape ``k`` on the ``width`` x ``height``
    grid, and the window is the tight bounds of the union of their
    foreground. With no foreground at all, the window is ``(0, 0)`` and
    ``stack`` has shape ``(len(shapes), 0, 0)``.

    Raises:
        DegenerateShape: a ring has fewer than 3 vertices, or a shape none.
        GeometryError: otherwise, a ring's coordinates do not pair up into
            vertices, or a side is below 1 or beyond 2**52 px.
    """
    v = _vertices(shapes)
    _check_grid(width, height)
    n = len(shapes)
    owner, rows, cols = _crossings(v, np.full(n, width), np.full(n, height))
    if not rows.size:
        return 0, 0, np.zeros((n, 0, 0), dtype=bool)
    # Each flat index lies inside the allocated window, so it cannot overflow.
    row0, col0 = int(rows.min()), int(cols.min())
    h, stride = int(rows.max()) - row0 + 1, int(cols.max()) - col0 + 1
    stack = _parity_fill((owner * h + rows - row0) * stride + cols - col0, n * h * stride).reshape(n, h, stride)
    # trim to the tight bounds of the foreground
    fg = stack.any(axis=0)
    r = np.flatnonzero(fg.any(axis=1))
    if not r.size:
        return 0, 0, np.zeros((n, 0, 0), dtype=bool)
    c = np.flatnonzero(fg.any(axis=0))
    stack = stack[:, r[0] : r[-1] + 1, c[0] : c[-1] + 1]
    return row0 + int(r[0]), col0 + int(c[0]), stack


def rasterize(poly, width: int, height: int) -> np.ndarray:
    """Rasterize polygon rings to a whole-grid boolean mask: the one-shape
    window of :func:`rasterize_stack`, whose errors it shares, pasted into a
    zero grid.

    Args:
        poly: ``Polygons`` or a sequence of rings (flat lists or (k, 2) arrays).
        width, height: grid dimensions in pixels.
    """
    row0, col0, (window,) = rasterize_stack([poly], width, height)
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


# ---------------------------------------------------------------------------
# overlap counts on row runs


class Overlaps(NamedTuple):
    """Pixel counts of two sides of shapes: each shape's area, and the
    intersection ``inter[i]`` of shape ``a[i]`` of side a with shape ``b[i]``
    of side b, for every pair that shares foreground."""

    area_a: np.ndarray
    area_b: np.ndarray
    a: np.ndarray
    b: np.ndarray
    inter: np.ndarray

    def transposed(self) -> "Overlaps":
        return Overlaps(self.area_b, self.area_a, self.b, self.a, self.inter)


# Elements per chunk of the overlap count: polygon coordinates gathered at
# once; then (edge, row) crossings plus one per grid row of an RLE scanned
# at once; and run pairs joined at once. About 64 bytes each.
_CHUNK = 2**13


def _chunks(cost: np.ndarray):
    """``(lo, hi)`` bounds of consecutive runs of keys whose cost stays
    within ``_CHUNK``; a key over the cap is a run of its own."""
    lo, total = 0, 0
    for k, c in enumerate(cost.tolist()):
        if total and total + c > _CHUNK:
            yield lo, k
            lo, total = k, 0
        total += c
    yield lo, cost.size


def _coordinates(shape) -> int:
    """Coordinates of a polygon shape's rings (0 for an RLE), before any check."""
    if isinstance(shape, RleMask):
        return 0
    return sum(map(len, shape.rings if isinstance(shape, Polygons) else shape))


def _reduce(codes: list, inter: list) -> tuple[list, list]:
    """Sum the intersections of equal pair codes, as one pair of arrays."""
    code, at = np.unique(np.concatenate(codes), return_inverse=True)
    return [code], [np.bincount(at, weights=np.concatenate(inter), minlength=code.size)]


def _join(item, group, c0, c1, n_a: int, n_b: int):
    """Pair codes ``a * n_b + b`` and intersections of the runs of side a
    (``item < n_a``) and side b that share a join group, the runs sorted by
    group; runs of one shape are disjoint, so the overlaps of their run pairs
    sum to the intersection."""
    side_a = item < n_a
    ia, ib = np.flatnonzero(side_a), np.flatnonzero(~side_a)
    if not (ia.size and ib.size):
        return [], []
    kb = group[ib]
    lo = np.searchsorted(kb, group[ia], "left")
    n = np.searchsorted(kb, group[ia], "right") - lo
    ends = np.cumsum(n)
    codes, inter = [np.empty(0, np.int64)], [np.empty(0)]
    s = pending = 0
    while s < ia.size:  # slices of at most _CHUNK run pairs, one a-run at least
        t = max(s + 1, int(np.searchsorted(ends, (ends[s - 1] if s else 0) + _CHUNK, "right")))
        m = n[s:t]
        ra = np.repeat(ia[s:t], m)
        rb = ib[np.repeat(lo[s:t] - (np.cumsum(m) - m), m) + np.arange(ra.size)]
        overlap = np.minimum(c1[ra], c1[rb]) - np.maximum(c0[ra], c0[rb])
        hit = overlap > 0
        codes.append(item[ra[hit]] * n_b + (item[rb[hit]] - n_a))
        inter.append(overlap[hit])
        pending += codes[-1].size
        if pending > _CHUNK:
            codes, inter = _reduce(codes, inter)
            pending = 0
        s = t
    return _reduce(codes, inter)


def count_overlaps(a, b, sizes, *, skip_invalid: bool = False) -> Overlaps:
    """Pixel areas of two sides of shapes, and the intersections of their pairs.

    ``a`` and ``b`` hold ``(shape, key)`` items, either shape encoding; a
    shape lies on the grid ``sizes[key] = (width, height)``, and only pairs
    of a shape of side a and one of side b with the same key are counted.
    Every shape is scan-converted once into pixel toggles (RLEs are decoded
    by :func:`mask_of` and read off the mask), which one sort pairs into row
    runs, and each pair's intersection is the sum of the overlaps of its runs
    on shared rows. Work goes in runs of keys, cut at ``_CHUNK`` elements.

    Raises:
        DegenerateShape: a polygon has a ring of fewer than 3 vertices, or
            none (unless ``skip_invalid``, which counts such a shape as empty).
        GeometryError: a ring's coordinates do not pair up into vertices
            (unless ``skip_invalid``), an RLE does not match its grid, or a
            grid of ``sizes`` has a side below 1 or beyond 2**52 px.
    """
    n_a, n_b = len(a), len(b)
    items = [*a, *b]
    # shapes ranked in key order, so a run of keys is a run of ranks; the
    # toggles are owned by rank
    key = np.array([k for _, k in items], dtype=np.intp)
    order = np.argsort(key, kind="stable")
    ranked = key[order]
    shapes = [items[i][0] for i in order.tolist()]
    for w, h in sizes:
        _check_grid(w, h)
    sizes = np.asarray(sizes, dtype=np.int64).reshape(-1, 2)
    width, height = sizes[ranked, 0], sizes[ranked, 1]
    coordinates = [_coordinates(shape) for shape in shapes]
    area = np.zeros(len(items), dtype=np.int64)
    codes, inter = [np.empty(0, np.int64)], [np.empty(0)]
    # gather the vertices of a run of keys, then scan and join sub-runs
    for k0, k1 in _chunks(np.bincount(ranked, weights=coordinates, minlength=len(sizes))):
        r0, r1 = np.searchsorted(ranked, [k0, k1])
        v = _vertices(shapes[r0:r1], skip_invalid)
        v = v._replace(owner=r0 + v.owner)
        vertex_key = ranked[v.owner] - k0
        rle = np.array([r for r in range(r0, r1) if isinstance(shapes[r], RleMask)], dtype=np.intp)
        rle_key = ranked[rle] - k0
        # an edge crosses at most |dy| + 1 row centers, an RLE has about one
        # run per row
        dy = v.y[v.succ]
        dy -= v.y
        cost = np.bincount(
            np.concatenate([vertex_key, rle_key]),
            weights=np.concatenate([np.abs(dy, out=dy) + 1, height[rle]]),
            minlength=k1 - k0,
        )
        for j0, j1 in _chunks(cost):
            lo, hi = np.searchsorted(vertex_key, [j0, j1])
            parts = [_crossings(v, width, height, slice(lo, hi))]
            lo, hi = np.searchsorted(rle_key, [j0, j1])
            for r in rle[lo:hi].tolist():
                # a mask toggles at each change along a row, from and to the
                # background beyond the grid border
                mask = mask_of(shapes[r], int(width[r]), int(height[r]))
                rows, cols = np.nonzero(np.diff(mask, axis=1, prepend=False, append=False))
                parts.append((np.full(rows.size, r), rows, cols))
            rank, rows, c0, c1 = _runs(*(np.concatenate(p) for p in zip(*parts)))
            item = order[rank]
            np.add.at(area, item, c1 - c0)
            # Within a row, runs come in rank order and so in key order: each
            # (row, key) is one group of consecutive runs.
            change = (rows[1:] != rows[:-1]) | (ranked[rank[1:]] != ranked[rank[:-1]])
            group = np.concatenate([[0], np.cumsum(change)])
            more_codes, more_inter = _join(item, group, c0, c1, n_a, n_b)
            codes += more_codes
            inter += more_inter
    # runs of keys are disjoint, so each pair comes from one of them
    code, total = np.concatenate(codes), np.concatenate(inter)
    pa, pb = np.divmod(code, max(n_b, 1))
    return Overlaps(area[:n_a], area[n_a:], pa, pb, total.astype(np.int64))


# ---------------------------------------------------------------------------
# morphology


_FOOTPRINTS = ("cross", "square")


def erode(mask: np.ndarray, footprint: str = "cross") -> np.ndarray:
    """Binary erosion; pixels outside the grid count as background.

    ``cross`` uses the 4-connected structuring element, ``square`` the full
    3x3 neighborhood. A stack ``(..., h, w)`` of masks is eroded at once,
    each mask on its own.
    """
    if footprint not in _FOOTPRINTS:
        raise ValueError(f"footprint must be one of {_FOOTPRINTS}")
    mask = np.asarray(mask, dtype=bool)
    p = np.zeros((*mask.shape[:-2], mask.shape[-2] + 2, mask.shape[-1] + 2), dtype=bool)
    p[..., 1:-1, 1:-1] = mask
    out = p[..., :-2, 1:-1] & p[..., 2:, 1:-1]
    out &= p[..., 1:-1, :-2]
    out &= p[..., 1:-1, 2:]
    out &= mask
    if footprint == "square":
        out &= p[..., :-2, :-2]
        out &= p[..., :-2, 2:]
        out &= p[..., 2:, :-2]
        out &= p[..., 2:, 2:]
    return out


def contour(mask: np.ndarray, footprint: str = "cross") -> np.ndarray:
    """Boundary pixels: the foreground removed by one erosion (of each mask
    of a stack)."""
    mask = np.asarray(mask, dtype=bool)
    out = erode(mask, footprint)
    return np.greater(mask, out, out=out)  # mask and not eroded


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


def box_overlaps(a, b) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pairwise intersections of (..., n, 4) boxes ``a`` with (..., m, 4)
    boxes ``b``, rows (x, y, w, h), broadcast over leading dimensions.

    Returns ``(inter, area_a, area_b)``: ``inter`` is (..., n, m), ``area_a``
    (..., n, 1) and ``area_b`` (..., 1, m), ready for :func:`iou`.
    """
    a = np.asarray(a, dtype=np.float64)[..., :, None, :]
    b = np.asarray(b, dtype=np.float64)[..., None, :, :]
    iw = np.minimum(a[..., 0] + a[..., 2], b[..., 0] + b[..., 2]) - np.maximum(a[..., 0], b[..., 0])
    ih = np.minimum(a[..., 1] + a[..., 3], b[..., 1] + b[..., 3]) - np.maximum(a[..., 1], b[..., 1])
    inter = np.clip(iw, 0.0, None) * np.clip(ih, 0.0, None)
    return inter, a[..., 2] * a[..., 3], b[..., 2] * b[..., 3]


def iou(inter, area_a, area_b, crowd=None) -> np.ndarray:
    """Intersection over union from an intersection and the two areas, all
    broadcast together: ``inter / (area_a + area_b - inter)``, and
    ``inter / area_a`` where ``crowd`` is set (the crowd rule, which divides
    by the detection's own area). 0 where the denominator is not positive."""
    denom = area_a + area_b - inter
    if crowd is not None:
        denom = np.where(crowd, area_a, denom)
    out = np.zeros(np.shape(denom))
    np.divide(inter, denom, out=out, where=denom > 0)
    return out


def box_iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise box IoU for (n, 4) and (m, 4) arrays of (x, y, w, h) rows."""
    a = np.asarray(a, dtype=np.float64).reshape(-1, 4)
    b = np.asarray(b, dtype=np.float64).reshape(-1, 4)
    return iou(*box_overlaps(a, b))


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
