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
``slope = (x2 - x1) / (y2 - y1)`` taken first, or, where that slope or
``y2 - y1`` overflows, as ``x1 * (1 - t) + x2 * t`` with
``t = (y_center - y1) / (y2 - y1)``. On horizontal and vertical edges that
is exact. On a slanted edge the crossing may be rounded, so a center that
lies within rounding of it (a center on a polygon vertex, or on the edge
itself) is decided by the rounded crossing, and can land on the other side
from the exact rule.

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
empty run. An RLE gives toggles too, one at each change along a row, read
straight off its column-major counts without decoding it
(:func:`_rle_toggles`): the toggles at column ``c`` are the rows where
columns ``c - 1`` and ``c`` differ. Pixel areas and pairwise intersections
(:func:`count_overlaps`) are counted on the runs alone: two shapes intersect
where their runs on a shared row overlap. The count raises for no shape: a
shape that :func:`mask_of` rejects, or one on a rejected grid, counts as
empty and is reported with the error that says why, so each caller decides
what a fault means to it. Masks are not painted from runs:
:func:`rasterize` fills the whole grid straight from the toggles, by their
running parity along each row (:func:`_parity_fill`), and the surface
metrics fill a chunk of matched pairs the same way, from one scanline pass.
The fill sorts the flat toggles once and repeats an alternating False/True
pattern by the gaps between them: one sort and one write of the buffer,
with no running XOR over every pixel. Toggles at one position cancel, as in
the runs, so this gives exactly the pixels of the runs. Every IoU, of boxes
or of pixel counts, is :func:`iou` of an intersection and two areas.
"""

import math
from itertools import chain, compress
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


def _bad_ring(size):
    """Whether a flat ring of ``size`` coordinates is one that :func:`_rings`
    rejects: fewer than 6 coordinates (3 vertices), or an odd count. Takes an
    int or an array of them."""
    return (size < 6) | (size % 2 == 1)


def _float_ring(ring) -> np.ndarray:
    """A raw ring as a float64 array of its shape. One holding an int beyond
    the float range is all ``inf``, which :func:`_rings` rejects once the
    vertex-count rule has passed it."""
    try:
        return np.asarray(ring, dtype=np.float64)
    except OverflowError:
        return np.full(np.shape(np.asarray(ring, dtype=object)), np.inf)


def _finite(ring) -> bool:
    """Whether every coordinate of a flat ring is a finite float64; an int
    beyond the float range is not."""
    if type(ring) is np.ndarray:
        return bool(np.isfinite(ring).all())
    try:
        # the sum is finite if every value is, unless it overflows; only
        # then is each value tested
        return math.isfinite(sum(ring, 0.0)) or all(map(math.isfinite, ring))
    except OverflowError:
        return False


def _rings(shape) -> list:
    """The rings of a polygon shape as flat ``(x1, y1, x2, y2, ...)``
    coordinates. ``DegenerateShape`` if there is no ring or a ring has fewer
    than 6 coordinates (3 vertices); past that rule, ``GeometryError`` if a
    ring's coordinates do not pair up into vertices (:func:`_bad_ring`), if
    a raw ring holds a coordinate that is not a finite float, or for an
    ``RleMask``, which has no rings.

    The rings of ``Polygons`` are stored flat, and so is a raw ring that is a
    tuple or list of plain ints and floats; these are taken as they are. Any
    other raw ring (an array, a list of pairs) goes through NumPy. The
    coordinates of ``Polygons`` are trusted to be finite, as parsing leaves
    them."""
    if isinstance(shape, RleMask):
        raise GeometryError("an RLE mask has no rings; mask_of decodes it")
    raw = not isinstance(shape, Polygons)
    if raw:
        own = [
            ring if type(ring) in _FLAT_RINGS and _PLAIN_NUMBERS.issuperset(map(type, ring)) else _float_ring(ring)
            for ring in shape
        ]
    else:
        own = list(shape.rings)
    for ring in own:
        array = type(ring) is np.ndarray
        size = ring.size if array else len(ring)
        if size < 6:
            raise DegenerateShape(f"degenerate ring with {size // 2} vertices")
        if not array and _bad_ring(size):
            raise GeometryError(f"ring has odd coordinate count {size}")
    if not own:
        raise DegenerateShape("polygon has no rings")
    rings = [_ring_points(ring).reshape(-1) if type(ring) is np.ndarray else ring for ring in own]
    if raw and not all(map(_finite, rings)):
        raise GeometryError("ring has a coordinate that is not a finite float")
    return rings


def _ring_vertices(rings: list, owners: list[int]) -> _Vertices:
    """The vertices of rings as :func:`_rings` returns them, in one gather;
    ring ``i`` belongs to shape ``owners[i]``."""
    n = np.fromiter(map(len, rings), dtype=np.intp, count=len(rings)) // 2
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
    (:func:`_next_center`), each of them yields one crossing, at
    ``x1 + (r + 0.5 - y1) * slope``. Where the slope or ``dy`` is not
    finite, it is at ``x1 * (1 - t) + x2 * t`` instead, with ``t`` taken on
    halved coordinates, so that no difference of two of them overflows.
    """
    x1, y1, owner, succ = v.x[at], v.y[at], v.owner[at], v.succ[at]
    y2 = v.y[succ]
    with np.errstate(over="ignore", invalid="ignore"):
        dy = y2 - y1
        # a horizontal edge has an empty row range, so its slope is never read
        slope = np.divide(v.x[succ] - x1, dy, out=np.zeros_like(dy), where=dy != 0)
    steep = np.flatnonzero(np.isinf(slope) | np.isinf(dy))  # a NaN slope is inf / inf
    slope[steep] = 0.0
    # rows [first, first + span) of each edge, in one pass for both bounds
    ends = np.empty((2, dy.size))
    np.minimum(y1, y2, out=ends[0])
    np.maximum(y1, y2, out=ends[1])
    first, span = _next_center(ends, height[owner])
    span -= first
    # each edge's values are spread over its crossings
    rows = np.arange(int(span.sum())) + np.repeat(first - (np.cumsum(span) - span), span)
    owner = np.repeat(owner, span)
    # Pixel centers in a run [a, b) are the columns [ceil(a - 0.5),
    # ceil(b - 0.5)); clipped to the grid, an off-grid run becomes empty.
    xs = rows + 0.5
    xs -= np.repeat(y1, span)
    xs *= np.repeat(slope, span)
    xs += np.repeat(x1, span)
    if steep.size:
        cross, n = np.repeat(np.isin(np.arange(span.size), steep), span), span[steep]
        y1h, y2h = (np.repeat(y[steep] * 0.5, n) for y in (y1, y2))
        t = ((rows[cross] + 0.5) * 0.5 - y1h) / (y2h - y1h)
        xs[cross] = np.repeat(x1[steep], n) * (1 - t) + np.repeat(v.x[succ[steep]], n) * t
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
    rows, owner, c0, c1 = _sorted_pairs(rows, owner, cols)
    run = c0 < c1
    return owner[run], rows[run], c0[run], c1[run]


def _sorted_pairs(major: np.ndarray, middle: np.ndarray, minor: np.ndarray):
    """Non-empty int64 triples of non-negative values, sorted by (major,
    middle, minor) and taken two at a time: the major and the middle of the
    first of each pair, and the minors of both.

    Where the three fit in 63 bits, they are packed into one int64 key with
    shifts, sorted in place and unpacked with masks, which is much faster
    than ``np.lexsort`` of the three; elsewhere ``np.lexsort`` sorts them.
    """
    bm, bn = int(middle.max()).bit_length(), int(minor.max()).bit_length()
    if int(major.max()).bit_length() + bm + bn > 63:
        order = np.lexsort((minor, middle, major))
        first = order[0::2]
        return major[first], middle[first], minor[first], minor[order[1::2]]
    key = major << (bm + bn)
    key |= middle << bn
    key |= minor
    key.sort()
    first = key[0::2]
    low = (1 << bn) - 1
    return first >> (bm + bn), (first >> bn) & ((1 << bm) - 1), first & low, key[1::2] & low


# The largest grid side: ``_next_center`` is exact on grids up to it, and
# every pixel center ``r + 0.5`` below it is exact in float64.
_MAX_SIDE = 2**52


def _check_grid(width: int, height: int) -> None:
    if width < 1 or height < 1:
        raise GeometryError(f"invalid grid {width}x{height}")
    if width > _MAX_SIDE or height > _MAX_SIDE:
        raise GeometryError(f"grid {width}x{height} has a side beyond 2**52 px")


def _parity_fill(toggles: np.ndarray, size: int) -> np.ndarray:
    """A flat mask of ``size`` pixels, set by the running parity of its pixel
    toggles (flat indices, in any order).

    The running parity of a row's toggles is set exactly inside its runs,
    and toggles at one position cancel, as an empty run does. Every row of
    the buffer must hold an even number of toggles: the parity is then 0
    again at the end of each row, so one pass fills every row of every
    layer in the buffer. The sorted toggles cut the buffer into segments of
    alternating parity, so the mask is that alternation repeated by the
    segment lengths; toggles at one position make an empty segment.
    """
    lengths = np.diff(np.sort(toggles), prepend=0, append=size)
    return np.repeat(np.arange(lengths.size) % 2 == 1, lengths)


def rasterize(poly, width: int, height: int) -> np.ndarray:
    """Rasterize polygon rings to a C-contiguous ``(height, width)`` boolean
    mask, from one scanline pass and one parity fill of the whole grid.

    The fill's rows are ``width + 1`` pixels apart: a run that reaches the
    right border closes with a toggle at column ``width``, in the spare
    column, which is dropped.

    Args:
        poly: ``Polygons`` or a sequence of rings (flat lists or (k, 2) arrays).
        width, height: grid dimensions in pixels.

    Raises:
        DegenerateShape: a ring has fewer than 3 vertices, or there is none.
        GeometryError: ``poly`` is an ``RleMask`` (:func:`mask_of` takes it), or else a
            ring's coordinates do not pair up into vertices, a raw ring's coordinate is not a
            finite float, or a side is below 1 or beyond 2**52 px.
    """
    rings = _rings(poly)
    _check_grid(width, height)
    _, rows, cols = _crossings(_ring_vertices(rings, [0] * len(rings)), np.full(1, width), np.full(1, height))
    stride = width + 1
    mask = _parity_fill(rows * stride + cols, height * stride)
    return np.ascontiguousarray(mask.reshape(height, stride)[:, :width])


# ---------------------------------------------------------------------------
# run-length codec (column-major, first run background)


def _check_rle(rle: RleMask, width: int | None = None, height: int | None = None) -> None:
    """Raise what is wrong with an RLE: ``SchemaError`` for a negative count
    or counts that do not sum to its grid, then ``GeometryError`` if that
    grid is not ``width`` x ``height`` (when given)."""
    if len(rle.counts) and min(rle.counts) < 0:
        raise SchemaError("RLE counts must be non-negative")
    total = sum(rle.counts)
    if total != rle.height * rle.width:
        raise SchemaError(f"RLE counts sum {total} != {rle.height}x{rle.width} grid")
    if width is not None and (rle.height, rle.width) != (height, width):
        raise GeometryError(f"RLE grid {(rle.height, rle.width)} does not match image {height}x{width}")


def decode_rle(rle: RleMask) -> np.ndarray:
    """Decode a column-major RLE into a boolean ``(height, width)`` mask."""
    _check_rle(rle)
    counts = np.asarray(rle.counts, dtype=np.int64)
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
        _check_rle(shape, width, height)
        return decode_rle(shape)
    return rasterize(shape, width, height)


# ---------------------------------------------------------------------------
# overlap counts on row runs


class Overlaps(NamedTuple):
    """Pixel counts of two sides of shapes: each shape's area, and the
    intersection ``inter[i]`` of shape ``a[i]`` of side a with shape ``b[i]``
    of side b, for every pair that shares foreground. ``faults`` maps the
    position in ``[*a, *b]`` of each shape that could not be counted, which
    counts as empty, to the error that says why, in position order."""

    area_a: np.ndarray
    area_b: np.ndarray
    a: np.ndarray
    b: np.ndarray
    inter: np.ndarray
    faults: dict

    def transposed(self) -> "Overlaps":
        n_a, n = self.area_a.size, self.area_a.size + self.area_b.size
        faults = dict(sorted(((p - n_a) % n, exc) for p, exc in self.faults.items()))
        return Overlaps(self.area_b, self.area_a, self.b, self.a, self.inter, faults)


# Elements per chunk of the overlap count: polygon coordinates gathered at
# once; then (edge, row) crossings, and an RLE's toggles and segment ends,
# scanned at once; and run pairs joined at once. Set by measurement on the
# segm counts of 200 and 1,000 image pairs: 2**14 ran 6 and 15 % faster than
# 2**13, and the count's peak memory grows with it, about 100 bytes each.
_CHUNK = 2**14


def _chunks(cost: np.ndarray, cap: int):
    """``(lo, hi)`` bounds of consecutive runs of keys whose cost stays
    within ``cap``, each run as long as that allows; a key over the cap is
    a run of its own, and no key gives the one run ``(0, 0)``."""
    ends = np.cumsum(cost)
    lo = 0
    while True:
        hi = max(lo + 1, int(np.searchsorted(ends, (ends[lo - 1] if lo else 0) + cap, "right")))
        yield lo, min(hi, ends.size)
        if hi >= ends.size:
            return
        lo = hi


def _error(check, *args) -> GeometryError | SchemaError | None:
    """The ``GeometryError`` or ``SchemaError`` that ``check(*args)`` raises, if any."""
    try:
        check(*args)
    except (GeometryError, SchemaError) as exc:
        return exc
    return None


def _plain(rings: list) -> bool:
    """Whether every ring is a tuple or list of plain ints and floats, and
    the sum of all their coordinates is finite, which :func:`_rings` asks
    of a raw ring that it takes as it is."""
    try:
        return (
            _FLAT_RINGS.issuperset(map(type, rings))
            and _PLAIN_NUMBERS.issuperset(map(type, chain.from_iterable(rings)))
            and math.isfinite(sum(chain.from_iterable(rings), 0.0))
        )
    except OverflowError:  # an int beyond the float range
        return False


def _read_shapes(shapes: list, sizes: list, ranked: np.ndarray, grid_faults: list):
    """One pass over shapes, in rank order: the flat rings of the polygon
    shapes (as :func:`_rings` takes them), each ring's length and shape, the
    ranks of the RLE shapes, and the error of each shape that cannot be
    counted, by rank. Shape ``r`` lies on the grid ``sizes[ranked[r]]``,
    and ``grid_faults`` holds the error of each grid, ``None`` for one that
    :func:`_check_grid` accepts.

    A ``Polygons`` is taken as it is, and so are the raw shapes (sequences
    of rings) if all the rings pass :func:`_plain` together; otherwise
    every raw shape goes through :func:`_rings`. Ring lengths are then
    checked in one pass.

    A shape's own error comes first, as :func:`mask_of` raises it: an RLE's,
    as :func:`_check_rle` names it, or a polygon shape's, as :func:`_rings`
    names it; past it, its grid's. A shape with an error adds no rings and
    is not among the RLEs.
    """
    read: list = []
    rle: list[int] = []
    raw: list[int] = []
    for r, shape in enumerate(shapes):
        if type(shape) is Polygons:
            read.append(shape.rings)
        elif isinstance(shape, RleMask):
            read.append(())
            rle.append(r)
        else:
            read.append(shape)
            raw.append(r)
    rings = list(chain.from_iterable(read))
    if raw and not _plain(rings):
        for r in raw:
            try:
                read[r] = _rings(shapes[r])
            except GeometryError:  # no rings: a fault, named below
                read[r] = ()
        rings = list(chain.from_iterable(read))
    n_rings = list(map(len, read))
    ring_len = np.fromiter(map(len, rings), dtype=np.intp, count=len(rings))
    ring_rank = np.repeat(np.arange(len(shapes)), n_rings)
    # the RLEs, the polygon shapes that _rings rejects, and the shapes on
    # rejected grids
    suspect = (np.array(n_rings) == 0) | np.array([e is not None for e in grid_faults], dtype=bool)[ranked]
    suspect[ring_rank[_bad_ring(ring_len)]] = True
    faults = {}
    for r in np.flatnonzero(suspect).tolist():
        shape, key = shapes[r], ranked[r]
        own = _error(_check_rle, shape, *sizes[key]) if isinstance(shape, RleMask) else _error(_rings, shape)
        if fault := own or grid_faults[key]:
            faults[r] = fault
    if faults:
        keep = ~np.isin(ring_rank, list(faults))
        rings = list(compress(rings, keep.tolist()))
        ring_len, ring_rank = ring_len[keep], ring_rank[keep]
    return rings, ring_len, ring_rank, np.array([r for r in rle if r not in faults], dtype=np.intp), faults


def _rle_toggles(rles: list, owner: np.ndarray):
    """Pixel toggles ``(owner, row, col)`` of RLE masks, read off their
    column-major counts without decoding them; ``rles[i]`` is shape
    ``owner[i]``.

    Each foreground run is split into per-column segments of rows
    ``[r0, r1)``. A column is inside at row ``r`` where an odd number of its
    segments' ends lie at or above ``r``, so column ``c`` differs from column
    ``c - 1`` where an odd number of the ends of both columns do; those rows
    are the toggles at ``c`` (columns ``-1`` and ``width`` are background).
    Sorted, the ends of each (mask, ``c``) pair up into the row ranges of its
    toggles, so the work follows the masks' boundaries, not their grids.
    """
    n = np.fromiter((len(r.counts) for r in rles), dtype=np.intp, count=len(rles))
    height = np.fromiter((r.height for r in rles), dtype=np.int64, count=len(rles))
    counts = np.fromiter(chain.from_iterable(r.counts for r in rles), dtype=np.int64, count=int(n.sum()))
    # flat start of each count in its mask; every second one is foreground
    first = np.cumsum(n) - n
    start = np.cumsum(counts) - counts
    start -= np.repeat(start[first], n)
    fg = (np.arange(counts.size) - np.repeat(first, n)) % 2 == 1
    fg &= counts > 0
    mask = np.repeat(np.arange(len(rles)), n)[fg]
    if not mask.size:
        return owner[:0], mask, mask
    start, h = start[fg], height[mask]
    c_first, r_first = np.divmod(start, h)
    c_last, r_last = np.divmod(start + counts[fg] - 1, h)
    # segments: rows [r0, r1) of column col, the first and the last of each
    # run cut at its ends, the others whole
    k = c_last - c_first + 1
    lead = np.cumsum(k) - k
    seg = np.repeat(np.arange(k.size), k)
    col = np.arange(seg.size) + np.repeat(c_first - lead, k)
    r0 = np.zeros(seg.size, dtype=np.int64)
    r0[lead] = r_first
    r1 = h[seg]
    r1[lead + k - 1] = r_last + 1
    # each end counts in its own column and in the next one
    at, col, row, end = _sorted_pairs(
        np.tile(mask[seg], 4), np.concatenate([col, col, col + 1, col + 1]), np.concatenate([r0, r1, r0, r1])
    )
    span = end - row
    e = np.repeat(np.arange(span.size), span)
    return owner[at[e]], np.arange(e.size) + np.repeat(row - (np.cumsum(span) - span), span), col[e]


def _reduce(codes: list, inter: list, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Sum the intersections of equal pair codes, each in ``[0, size)``, and
    keep the positive sums: by one dense ``np.bincount`` where ``size`` is
    at most ``_CHUNK`` or the number of codes, which is the faster, and by
    ``np.unique`` elsewhere, so that a key of many shapes, with far more
    codes than pairs, takes memory by its pairs."""
    code, inter = np.concatenate(codes), np.concatenate(inter)
    if size <= max(_CHUNK, code.size):
        total = np.bincount(code, weights=inter, minlength=size)
        code = np.flatnonzero(total)
        return code, total[code]
    code, at = np.unique(code, return_inverse=True)
    total = np.bincount(at, weights=inter, minlength=code.size)
    hit = total > 0
    return code[hit], total[hit]


def _join(part, side_a, key, rows, c0, c1, offset: int, size: int):
    """Pair codes ``part[i] + part[j] - offset``, each in ``[0, size)``, and
    intersections of the a-runs ``i`` (``side_a``) and the b-runs ``j``, the
    runs sorted by (row, rank).

    Each (row, key) is a group of consecutive runs, and side a's runs come
    before side b's in it, so an a-run meets the b-runs of its group as one
    slice. Runs of one shape are disjoint, so the overlaps of a pair's runs
    sum to its intersection.
    """
    change = np.empty(key.size, dtype=bool)
    change[0] = True
    np.not_equal(rows[1:], rows[:-1], out=change[1:])
    change[1:] |= key[1:] != key[:-1]
    start = np.flatnonzero(change)
    ia = np.flatnonzero(side_a)
    g = np.cumsum(change)[ia] - 1
    lo = start[g] + np.bincount(g, minlength=start.size)[g]
    n = np.append(start[1:], key.size)[g] - lo
    codes, inter = [np.empty(0, np.int64)], [np.empty(0)]
    pending = 0
    for s, t in _chunks(n, _CHUNK):  # slices of at most _CHUNK run pairs, one a-run at least
        m = n[s:t]
        ra = np.repeat(ia[s:t], m)
        rb = np.arange(ra.size) + np.repeat(lo[s:t] - (np.cumsum(m) - m), m)
        overlap = np.minimum(c1[ra], c1[rb])
        overlap -= np.maximum(c0[ra], c0[rb])
        code = part[ra]
        code += part[rb]
        code -= offset
        codes.append(code)
        inter.append(np.maximum(overlap, 0, out=overlap))
        pending += code.size
        if pending > _CHUNK:
            code, total = _reduce(codes, inter, size)
            codes, inter, pending = [code], [total], 0
    return _reduce(codes, inter, size)


def count_overlaps(a, b, sizes) -> Overlaps:
    """Pixel areas of two sides of shapes, and the intersections of their pairs.

    ``a`` and ``b`` hold ``(shape, key)`` items, either shape encoding; a
    shape lies on the grid ``sizes[key] = (width, height)``, and only pairs
    of a shape of side a and one of side b with the same key are counted,
    in (a, b) order. Every shape is turned once into pixel toggles (polygons
    by the scanline pass, RLEs read off their counts by
    :func:`_rle_toggles`), which one sort pairs into row runs, and each
    pair's intersection is the sum of the overlaps of its runs on shared
    rows. Work goes in runs of keys, cut at ``_CHUNK`` elements.

    Raises for no shape: a shape that :func:`mask_of` rejects on its grid,
    or one on a grid with a side below 1 or beyond 2**52 px, counts as
    empty, and ``faults`` holds its position in ``[*a, *b]`` and the error
    that says why (:func:`_read_shapes`).
    """
    n_a, n_b = len(a), len(b)
    items = [*a, *b]
    # shapes ranked in key order, so a run of keys is a run of ranks; the
    # toggles are owned by rank
    key = np.array([k for _, k in items], dtype=np.intp)
    order = np.argsort(key, kind="stable")
    ranked = key[order]
    shapes = [items[i][0] for i in order.tolist()]
    grid_faults = [_error(_check_grid, w, h) for w, h in sizes]
    rings, ring_len, ring_rank, rle, faults = _read_shapes(shapes, sizes, ranked, grid_faults)
    n_keys = len(sizes)
    # a rejected grid holds no shape to count, and its sides may be beyond int64
    sizes = np.array([(0, 0) if e else s for s, e in zip(sizes, grid_faults)], dtype=np.int64).reshape(-1, 2)
    width, height = sizes[ranked, 0], sizes[ranked, 1]
    # Within a key, the ranks of side a come before those of side b. Its
    # pairs take the codes [base[k], base[k + 1]): the code of a pair is the
    # part of its shape of side a (base, plus the shape's place among side a
    # times the key's count of side b) plus the part of its shape of side b
    # (its place among side b).
    side_a = order < n_a
    count_a = np.bincount(ranked[side_a], minlength=n_keys)
    count = np.bincount(ranked, minlength=n_keys)
    count_b = count - count_a
    base = np.concatenate([[0], np.cumsum(count_a * count_b)])
    first = np.cumsum(count) - count
    place = np.arange(ranked.size) - first[ranked]
    part = np.where(side_a, base[ranked] + place * count_b[ranked], place - count_a[ranked])
    # an RLE has about two toggles per row; its foreground runs, cut at the
    # columns, give at most one segment per run and one per column, and each
    # segment has four ends
    n_counts = np.array([len(shapes[r].counts) for r in rle.tolist()], dtype=np.int64)
    rle_cost = height[rle] + 4 * width[rle] + 2 * n_counts
    area = np.zeros(ranked.size, dtype=np.int64)
    codes, inter = [np.empty(0, np.int64)], [np.empty(0)]
    # gather the vertices of a run of keys, then scan and join sub-runs
    for k0, k1 in _chunks(np.bincount(ranked[ring_rank], weights=ring_len, minlength=n_keys), _CHUNK):
        r0, r1 = np.searchsorted(ranked, [k0, k1])
        i0, i1 = np.searchsorted(ring_rank, [r0, r1])
        v = _ring_vertices(rings[i0:i1], ring_rank[i0:i1])
        vertex_key = ranked[v.owner] - k0
        q0, q1 = np.searchsorted(rle, [r0, r1])
        rle_key = ranked[rle[q0:q1]] - k0
        # an edge crosses at most |dy| + 1 row centers
        dy = v.y[v.succ]
        dy -= v.y
        cost = np.bincount(
            np.concatenate([vertex_key, rle_key]),
            weights=np.concatenate([np.abs(dy, out=dy) + 1, rle_cost[q0:q1]]),
            minlength=k1 - k0,
        )
        for j0, j1 in _chunks(cost, _CHUNK):
            lo, hi = np.searchsorted(vertex_key, [j0, j1])
            toggles = _crossings(v, width, height, slice(lo, hi))
            lo, hi = q0 + np.searchsorted(rle_key, [j0, j1])
            if lo < hi:
                more = _rle_toggles([shapes[r] for r in rle[lo:hi].tolist()], rle[lo:hi])
                toggles = [np.concatenate(p) for p in zip(toggles, more)]
                del more
            rank, rows, c0, c1 = _runs(*toggles)
            # the toggles are freed before the join, and the runs before the
            # next sub-chunk's scan, which bounds the peak memory
            del toggles
            if rank.size:
                np.add.at(area, rank, c1 - c0)
                b0, b1 = base[k0 + j0], base[k0 + j1]
                code, total = _join(part[rank], side_a[rank], ranked[rank], rows, c0, c1, b0, b1 - b0)
                codes.append(code + b0)
                inter.append(total)
            del rank, rows, c0, c1
    # runs of keys are disjoint, so each pair comes from one of them; the
    # pairs are put in (a, b) order
    code, total = np.concatenate(codes), np.concatenate(inter)
    k = np.searchsorted(base, code, "right") - 1
    pa, pb = np.divmod(code - base[k], count_b[k])
    pa, pb = order[first[k] + pa], order[first[k] + count_a[k] + pb] - n_a
    by_pair = np.lexsort((pb, pa))
    by_item = np.empty_like(area)
    by_item[order] = area
    faults = dict(sorted(zip(order[list(faults)].tolist(), faults.values())))
    return Overlaps(by_item[:n_a], by_item[n_a:], pa[by_pair], pb[by_pair], total[by_pair].astype(np.int64), faults)


# ---------------------------------------------------------------------------
# morphology


_FOOTPRINTS = ("cross", "square")


def _check_footprint(footprint: str) -> None:
    if footprint not in _FOOTPRINTS:
        raise ValueError(f"footprint must be one of {_FOOTPRINTS}, got {footprint!r}")


def contour(mask: np.ndarray, footprint: str = "cross") -> np.ndarray:
    """Boundary pixels of a 2-D mask: the foreground removed by one binary
    erosion, in which pixels outside the grid count as background.

    ``cross`` erodes with the 4-connected structuring element, ``square``
    with the full 3x3 neighborhood. This whole-grid form is the reference
    for the contours that :mod:`annodiff.surface` traces chunk by chunk.

    Raises:
        GeometryError: the mask is not 2-D.
    """
    _check_footprint(footprint)
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 2:
        raise GeometryError(f"contour of a {mask.ndim}-D array")
    p = np.zeros((mask.shape[0] + 2, mask.shape[1] + 2), dtype=bool)
    p[1:-1, 1:-1] = mask
    out = p[:-2, 1:-1] & p[2:, 1:-1]
    out &= p[1:-1, :-2]
    out &= p[1:-1, 2:]
    if footprint == "square":
        out &= p[:-2, :-2]
        out &= p[:-2, 2:]
        out &= p[2:, :-2]
        out &= p[2:, 2:]
    # ``out`` marks the pixels whose neighbours are all foreground, so the
    # centre need not be tested: foreground and not eroded
    return np.greater(mask, out, out=out)


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


# ---------------------------------------------------------------------------
# overlap measures and bounds


def box_areas(boxes: np.ndarray) -> np.ndarray:
    """``w * h`` of each (..., 4) box row (x, y, w, h); inf where it overflows."""
    with np.errstate(over="ignore"):
        return boxes[..., 2] * boxes[..., 3]


def box_overlaps(a, b) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pairwise intersections of (..., n, 4) boxes ``a`` with (..., m, 4)
    boxes ``b``, rows (x, y, w, h), broadcast over leading dimensions.

    Returns ``(inter, area_a, area_b)``: ``inter`` is (..., n, m), ``area_a``
    (..., n, 1) and ``area_b`` (..., 1, m), ready for :func:`iou`. Nothing
    that overflows float64 warns: it reads inf, or NaN for 0 * inf.
    """
    a = np.asarray(a, dtype=np.float64)[..., :, None, :]
    b = np.asarray(b, dtype=np.float64)[..., None, :, :]
    with np.errstate(over="ignore", invalid="ignore"):
        iw = np.minimum(a[..., 0] + a[..., 2], b[..., 0] + b[..., 2]) - np.maximum(a[..., 0], b[..., 0])
        ih = np.minimum(a[..., 1] + a[..., 3], b[..., 1] + b[..., 3]) - np.maximum(a[..., 1], b[..., 1])
        inter = np.clip(iw, 0.0, None) * np.clip(ih, 0.0, None)
    return inter, box_areas(a), box_areas(b)


def iou(inter, area_a, area_b, crowd=None) -> np.ndarray:
    """Intersection over union from an intersection and the two areas, all
    broadcast together: ``inter / (area_a + area_b - inter)``, and
    ``inter / area_a`` where ``crowd`` is set (the crowd rule, which divides
    by the detection's own area). 0 where the denominator is not positive
    or is NaN, as inf - inf makes it, without a warning."""
    with np.errstate(over="ignore", invalid="ignore"):
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
    return float(iou(np.count_nonzero(a & b), np.count_nonzero(a), np.count_nonzero(b)))


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
    """Tight axis-aligned bounds of polygon vertices, in continuous units;
    ``poly`` is a :class:`Polygons` or a list of raw rings."""
    parts = [_ring_points(r) for r in (poly.rings if isinstance(poly, Polygons) else poly)]
    pts = np.concatenate(parts) if parts else np.empty((0, 2))
    if pts.size == 0:
        raise GeometryError("bounding box of an empty polygon")
    x0, y0 = pts.min(axis=0)
    x1, y1 = pts.max(axis=0)
    return Box(float(x0), float(y0), float(x1 - x0), float(y1 - y0))
