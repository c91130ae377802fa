import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annodiff import surface
from annodiff.errors import DegenerateShape, GeometryError
from annodiff.matching import MatchConfig, match_datasets
from annodiff.report import compute_surface_results
from annodiff.raster import contour, edt_squared, rasterize, rasterize_stack
from annodiff.shapes import Polygons
from annodiff.surface import (
    average_surface_distance,
    max_surface_distance,
    pair_metrics,
    pair_rings,
    ring_pair_metrics,
    ring_pairs_metrics,
    surface_distances,
)

from conftest import random_simple_rings, rect_ring
from oracles import surface_metrics_oracle


def pixel(r, c, shape=(12, 12)):
    m = np.zeros(shape, dtype=bool)
    m[r, c] = True
    return m


class TestCore:
    def test_two_single_pixel_contours(self):
        # contours 5 pixels apart: sums are 5 + 5 over 1 + 1 pixels
        cx = pixel(2, 2)
        cy = pixel(2, 7)
        d_avg, d_max, nx, ny = surface_distances(cx, cy)
        assert (d_avg, d_max, nx, ny) == (5.0, 5.0, 1, 1)

    def test_identical_contours_are_zero(self):
        ring = rect_ring(2, 2, 6, 5)
        c = contour(rasterize([ring], 12, 12))
        d_avg, d_max, *_ = surface_distances(c, c)
        assert d_avg == 0.0 and d_max == 0.0

    def test_symmetry(self):
        cx = contour(rasterize([rect_ring(1, 1, 5, 5)], 16, 16))
        cy = contour(rasterize([rect_ring(3, 2, 6, 7)], 16, 16))
        fwd = surface_distances(cx, cy)
        rev = surface_distances(cy, cx)
        assert fwd[:2] == rev[:2]
        assert (fwd[2], fwd[3]) == (rev[3], rev[2])

    def test_diagonal_distance_is_euclidean(self):
        d_avg, d_max, *_ = surface_distances(pixel(0, 0), pixel(3, 4))
        assert d_avg == 5.0 and d_max == 5.0
        d_avg2, *_ = surface_distances(pixel(0, 0), pixel(1, 1))
        assert d_avg2 == pytest.approx(np.sqrt(2.0), abs=0)

    def test_empty_contour_raises(self):
        with pytest.raises(GeometryError, match="empty"):
            surface_distances(np.zeros((4, 4), bool), pixel(1, 1, (4, 4)))

    def test_grid_mismatch_raises(self):
        with pytest.raises(GeometryError, match="grids differ"):
            surface_distances(np.ones((4, 4), bool), np.ones((4, 5), bool))

    @pytest.mark.parametrize("shape", [(4,), (2, 4, 4), ()])
    def test_contours_that_are_not_2d_raise(self, shape):
        with pytest.raises(GeometryError, match="-D contours"):
            surface_distances(np.ones(shape, bool), np.ones(shape, bool))

    def test_convenience_wrappers(self):
        cx, cy = pixel(2, 2), pixel(2, 7)
        assert average_surface_distance(cx, cy) == 5.0
        assert max_surface_distance(cx, cy) == 5.0

    def test_asymmetric_contour_sizes_weight_the_mean(self):
        # three pixels at distance d sum 3d against one pixel whose nearest
        # is distance d: (3d + d) / 4 = d; widen one side to break symmetry.
        cx = np.zeros((10, 10), bool)
        cx[2, 2:5] = True  # pixels (2,2),(2,3),(2,4)
        cy = pixel(2, 7, (10, 10))
        # from cx: 5, 4, 3 ; from cy: 3
        d_avg, d_max, nx, ny = surface_distances(cx, cy)
        assert d_avg == pytest.approx((5 + 4 + 3 + 3) / 4, abs=0)
        assert d_max == 5.0
        assert (nx, ny) == (3, 1)


class TestOracle:
    def test_matches_oracle_bit_exactly(self):
        rng = np.random.default_rng(2024)
        for _ in range(60):
            w = int(rng.integers(16, 40))
            h = int(rng.integers(16, 40))
            ra = random_simple_rings(rng, width=w, height=h)[0]
            rb = random_simple_rings(rng, width=w, height=h)[0]
            ma = rasterize([ra], w, h)
            mb = rasterize([rb], w, h)
            ca, cb = contour(ma), contour(mb)
            if not ca.any() or not cb.any():
                continue
            got = surface_distances(ca, cb)
            want = surface_metrics_oracle(ca, cb)
            assert got[0] == want[0]  # exact equality, no tolerance
            assert got[1] == want[1]
            assert got[2:] == (int(ca.sum()), int(cb.sum()))

    @settings(max_examples=30)
    @given(st.integers(0, 6), st.integers(0, 6))
    def test_translation_equivariance(self, dr, dc):
        base = contour(rasterize([rect_ring(1, 1, 6, 4)], 30, 30))
        other = contour(rasterize([rect_ring(3, 2, 5, 6)], 30, 30))
        moved_base = np.roll(np.roll(base, dr, axis=0), dc, axis=1)
        moved_other = np.roll(np.roll(other, dr, axis=0), dc, axis=1)
        assert surface_distances(base, other) == surface_distances(moved_base, moved_other)


def edt_reference(cx, cy):
    """Both metrics from whole-grid distance maps read at the contour pixels:
    an algorithm independent of the point-set kernel, with the same read-out."""
    to_y, to_x = edt_squared(cy)[cx], edt_squared(cx)[cy]
    from_x, from_y = np.sqrt(to_y.astype(np.float64)), np.sqrt(to_x.astype(np.float64))
    d_avg = float((from_x.sum() + from_y.sum()) / (to_y.size + to_x.size))
    d_max = float(np.sqrt(max(int(to_y.max()), int(to_x.max()))))
    return d_avg, d_max, to_y.size, to_x.size


def random_contour_pair(rng, w, h):
    while True:
        ca, cb = (contour(rasterize(random_simple_rings(rng, width=w, height=h), w, h)) for _ in range(2))
        if ca.any() and cb.any():
            return ca, cb


class TestPointSetKernel:
    def test_matches_edt_reference_on_random_rings(self):
        rng = np.random.default_rng(41)
        for _ in range(40):
            w, h = int(rng.integers(16, 80)), int(rng.integers(16, 80))
            ca, cb = random_contour_pair(rng, w, h)
            assert surface_distances(ca, cb) == edt_reference(ca, cb)

    def test_matches_edt_reference_on_single_pixels_and_identical_contours(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            h, w = int(rng.integers(1, 30)), int(rng.integers(1, 30))
            a = pixel(rng.integers(h), rng.integers(w), (h, w))
            b = pixel(rng.integers(h), rng.integers(w), (h, w))
            assert surface_distances(a, b) == edt_reference(a, b)
        ca, _ = random_contour_pair(rng, 40, 40)
        assert surface_distances(ca, ca) == edt_reference(ca, ca) == (0.0, 0.0, ca.sum(), ca.sum())
        assert surface_distances(ca, pixel(3, 5, ca.shape)) == edt_reference(ca, pixel(3, 5, ca.shape))

    def test_int32_is_exact_up_to_the_side_bound(self):
        # the farthest two pixels of a grid with sides just below 2**15
        side = surface._INT32_SIDE - 1
        x = (np.array([0], np.int32), np.array([0], np.int32))
        y = (np.array([side - 1], np.int32), np.array([side - 1], np.int32))
        to_y, to_x = surface._nearest_squared(x, y), surface._nearest_squared(y, x)
        assert to_y.dtype == np.int32
        assert int(to_y[0]) == int(to_x[0]) == 2 * (side - 1) ** 2 < np.iinfo(np.int32).max

    def test_int16_is_exact_up_to_the_side_bound(self):
        # the farthest two pixels of a 128 px side, 2 * 127**2 = 32258 apart
        # squared, stay below the int16 maximum
        side = surface._INT16_SIDE - 1
        assert side == 128
        x = (np.array([0], np.int16), np.array([0], np.int16))
        y = (np.array([side - 1], np.int16), np.array([side - 1], np.int16))
        to_y, to_x = surface._nearest_squared(x, y), surface._nearest_squared(y, x)
        assert to_y.dtype == to_x.dtype == np.int16
        assert int(to_y[0]) == int(to_x[0]) == 2 * 127**2 < np.iinfo(np.int16).max
        corners = pixel(0, 0, (side, side)), pixel(side - 1, side - 1, (side, side))
        assert surface._distance_dtype((side, side)) == np.int16
        d = float(np.sqrt(2 * 127**2))
        assert surface_distances(*corners) == edt_reference(*corners) == (d, d, 1, 1)

    @pytest.mark.parametrize("shape", [(129, 129), (129, 3), (3, 129)])
    def test_a_129_px_side_takes_int32(self, shape):
        # 2 * 128**2 = 32768 would wrap around in int16
        assert surface._distance_dtype(shape) == np.int32
        h, w = shape
        corners = pixel(0, 0, shape), pixel(h - 1, w - 1, shape)
        d = float(np.sqrt((h - 1) ** 2 + (w - 1) ** 2))
        assert surface_distances(*corners) == edt_reference(*corners) == (d, d, 1, 1)

    @pytest.mark.parametrize("cap", [7, 97, 1001])
    def test_ragged_chunks_match_edt_reference(self, monkeypatch, cap):
        # caps below the contour lengths split both point sets into chunks
        # whose last one is short
        monkeypatch.setattr(surface, "_BLOCK", cap)
        rng = np.random.default_rng(cap)
        for _ in range(8):
            ca, cb = random_contour_pair(rng, 90, 70)
            assert surface_distances(ca, cb) == edt_reference(ca, cb)

    def test_peak_memory_is_bounded_for_long_contours(self):
        # two parallel 10 010 px lines: an unchunked 10 010 x 10 010 int64
        # block would take 800 MB
        cx = np.zeros((12, 10_010), dtype=bool)
        cy = np.zeros_like(cx)
        cx[1] = True
        cy[10, 5:] = True
        cy[3, :5] = True
        tracemalloc.start()
        try:
            d_avg, d_max, nx, ny = surface_distances(cx, cy)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (nx, ny) == (10_010, 10_010)
        assert d_max == 9.0 and 2.0 < d_avg < 9.0
        assert peak < 4 * 2**20


def nonzero_reference(cx, cy):
    """Both metrics from 2-D ``np.nonzero`` coordinates in int64 and one
    unchunked block of squared distances, read out in row-major order."""
    (xr, xc), (yr, yc) = (np.nonzero(np.asarray(c, dtype=bool)) for c in (cx, cy))
    sq = (xr[:, None] - yr) ** 2 + (xc[:, None] - yc) ** 2
    to_y, to_x = sq.min(axis=1), sq.min(axis=0)
    from_x, from_y = np.sqrt(to_y.astype(np.float64)), np.sqrt(to_x.astype(np.float64))
    d_avg = float((from_x.sum() + from_y.sum()) / (to_y.size + to_x.size))
    d_max = float(np.sqrt(max(int(to_y.max()), int(to_x.max()))))
    return d_avg, d_max, to_y.size, to_x.size


def scattered(rng, shape, n):
    """A mask of ``shape`` with ``n`` random pixels and two opposite corners set."""
    m = np.zeros(shape, dtype=bool)
    m[rng.integers(shape[0], size=n), rng.integers(shape[1], size=n)] = True
    m[0, 0] = m[-1, -1] = True
    return m


class TestContourCoordinates:
    """``surface_distances`` reads contour coordinates from flat indices in
    the distance dtype; they must be the row-major ``np.nonzero`` coordinates,
    whatever the memory layout, so that ``d_avg`` sums in the same order."""

    def test_non_contiguous_views_and_fortran_order(self):
        rng = np.random.default_rng(61)
        for _ in range(10):
            ca, cb = random_contour_pair(rng, 70, 50)
            want = nonzero_reference(ca, cb)
            assert surface_distances(ca, cb) == want
            assert surface_distances(np.asfortranarray(ca), np.asfortranarray(cb)) == want
            assert surface_distances(ca.T, cb.T) == nonzero_reference(ca.T, cb.T)
            assert not ca[1::2, ::3].flags.contiguous
            assert surface_distances(ca[1::2, ::3] | cb[::2, ::3], cb[::2, ::3]) == nonzero_reference(
                ca[1::2, ::3] | cb[::2, ::3], cb[::2, ::3]
            )

    @pytest.mark.parametrize(
        "side, dtype", [(128, np.int16), (129, np.int32), (2**15 - 1, np.int32), (2**15, np.int64)]
    )
    def test_windows_at_each_dtype_bound(self, side, dtype):
        rng = np.random.default_rng(side)
        for shape in ((side, 5), (5, side), (side, side) if side < 200 else (side, 2)):
            assert surface._distance_dtype(shape) == dtype
            cx, cy = scattered(rng, shape, 40), scattered(rng, shape, 30)
            assert surface_distances(cx, cy) == nonzero_reference(cx, cy)
            assert surface_distances(np.asfortranarray(cx), cy[::-1]) == nonzero_reference(cx, cy[::-1])


def full_grid_reference(ra, rb, w, h, footprint="cross"):
    """``ring_pair_metrics`` built from whole-image masks: each ring rasterized
    onto the ``w`` x ``h`` grid, contoured there, and measured there."""
    ca, cb = (contour(rasterize([ring], w, h), footprint) for ring in (ra, rb))
    return surface_distances(ca, cb)


def random_ring(rng, w, h, overhang):
    """A random simple ring shifted by up to ``overhang`` times the grid, so
    it may be clipped by any border."""
    ring = np.reshape(random_simple_rings(rng, width=w, height=h)[0], (-1, 2))
    ring += rng.uniform(-overhang, overhang, size=2) * (w, h)
    return [round(float(v), 2) for v in ring.reshape(-1)]


class TestRingPipeline:
    @pytest.mark.parametrize("footprint", ["cross", "square"])
    def test_equals_full_grid_reference(self, footprint):
        rng = np.random.default_rng(7)
        measured = 0
        for k in range(60):
            w, h = 64, 48
            ra, rb = (random_ring(rng, w, h, overhang=0.5 * (k % 2)) for _ in range(2))
            try:
                got = ring_pair_metrics(ra, rb, w, h, footprint=footprint)
            except DegenerateShape:
                continue
            assert got == full_grid_reference(ra, rb, w, h, footprint)
            assert ring_pair_metrics(ra, rb, w, h, mode="full", footprint=footprint) == got
            measured += 1
        assert measured > 40

    @pytest.mark.parametrize("footprint", ["cross", "square"])
    def test_far_apart_and_clipped_rings_equal_full_grid_reference(self, footprint):
        w, h = 200, 150
        pairs = [
            (rect_ring(1, 1, 6, 4), [190.5, 140.2, 197.3, 143.9, 193.1, 148.6]),  # opposite corners
            (rect_ring(-3, -2, 9, 7), rect_ring(195, 144, 10, 10)),  # clipped at all four borders
            (rect_ring(-5, 20, 210, 3), [100.2, -4.0, 104.9, 160.0, 96.1, 155.5]),  # clipped spans
        ]
        for ra, rb in pairs:
            got = ring_pair_metrics(ra, rb, w, h, footprint=footprint)
            assert got == full_grid_reference(ra, rb, w, h, footprint)
            assert ring_pair_metrics(rb, ra, w, h, footprint=footprint) == (*got[:2], got[3], got[2])

    def test_wide_window_takes_the_int64_branch(self):
        # the union window is 59 992 px wide; squared distances near
        # 59 989**2 overflow int32
        w, h = 60_000, 6
        ra, rb = rect_ring(1, 1, 3, 3), rect_ring(59_990, 1, 3, 3)
        got = ring_pair_metrics(ra, rb, w, h)
        assert got == full_grid_reference(ra, rb, w, h)
        assert got[1] == 59_989.0 and got[2:] == (8, 8)

    @pytest.mark.parametrize("side", [128, 129])
    def test_window_at_the_int16_bound_equals_full_grid_reference(self, side):
        # two squares in opposite corners of a side x side union window: the
        # block of pairwise distances holds their farthest contour pixels,
        # 2 * (side - 1)**2 apart squared, which int16 holds at 128 px and
        # not at 129
        ra, rb = rect_ring(2, 3, 4, 4), rect_ring(side - 2, side - 1, 4, 4)
        assert rasterize_stack([[ra], [rb]], 200, 200)[2].shape == (2, side, side)
        # every contour point lies beyond the band, so the finisher measures
        # them all, in int16 up to 128 px and in int32 past it
        dtypes = []
        real = surface._nearest_squared

        def spy(x, y):
            dtypes.append(x[0].dtype)
            return real(x, y)

        with mock.patch.object(surface, "_nearest_squared", spy):
            got = ring_pair_metrics(ra, rb, 200, 200)
        assert got == full_grid_reference(ra, rb, 200, 200)
        assert dtypes == [np.dtype(np.int16 if side == 128 else np.int32)] * 2

    def test_ring_containers_give_identical_values(self):
        # a stored ring is a tuple of floats and takes the flat path; lists of
        # plain numbers take it too, arrays are converted: all give one value
        rng = np.random.default_rng(11)
        measured = 0
        for _ in range(30):
            ra, rb = (random_ring(rng, 64, 48, overhang=0.2) for _ in range(2))
            forms = [
                (tuple(ra), tuple(rb)),
                (list(ra), list(rb)),
                ([int(v) if v == int(v) else v for v in ra], rb),
                (np.array(ra), np.array(rb)),
                (np.reshape(ra, (-1, 2)), np.reshape(rb, (-1, 2))),
                (np.reshape(ra, (-1, 2)).tolist(), tuple(rb)),
            ]
            try:
                want = ring_pair_metrics(*forms[0], 64, 48)
            except DegenerateShape:
                continue
            assert all(ring_pair_metrics(a, b, 64, 48) == want for a, b in forms)
            shapes = [Polygons((tuple(ra),)), Polygons((tuple(rb),))]
            row0, col0, stack = rasterize_stack(shapes, 64, 48)
            for a, b in forms:
                got = rasterize_stack([[a], [b]], 64, 48)
                assert got[:2] == (row0, col0) and got[2].shape == stack.shape and (got[2] == stack).all()
            measured += 1
        assert measured > 20

    def test_square_footprint_contour_differs(self):
        # a diamond's staircase edges: the 3x3 footprint also keeps the
        # pixels that touch the background only at a corner
        diamond = [12, 2, 22, 12, 12, 22, 2, 12]
        shifted = [13, 3, 22, 12, 12, 21, 3, 12]
        cross = ring_pair_metrics(diamond, shifted, 24, 24, footprint="cross")
        square = ring_pair_metrics(diamond, shifted, 24, 24, footprint="square")
        assert cross[2] < square[2] and cross[3] < square[3]
        assert cross == full_grid_reference(diamond, shifted, 24, 24, "cross")
        assert square == full_grid_reference(diamond, shifted, 24, 24, "square")

    def test_too_few_vertices_raises(self):
        with pytest.raises(DegenerateShape, match="vertices"):
            ring_pair_metrics([0, 0, 5, 5], rect_ring(0, 0, 5, 5), 10, 10)

    @pytest.mark.parametrize("short, width", [([0, 0, 5], 10), ([0, 0, 5, 5], 0)])
    def test_vertex_rule_comes_before_other_geometry_rules(self, short, width):
        # an odd count, or an invalid grid, is not reached by a short ring
        with pytest.raises(DegenerateShape, match="vertices"):
            ring_pair_metrics(short, rect_ring(0, 0, 5, 5), width, 10)
        with pytest.raises(DegenerateShape, match="vertices"):
            ring_pair_metrics(rect_ring(0, 0, 5, 5), short, width, 10)

    def test_odd_ring_and_invalid_grid_raise_geometry_errors(self):
        for ring, width in (([0, 0, 5, 0, 5, 5, 0], 10), (rect_ring(0, 0, 5, 5), 0)):
            with pytest.raises(GeometryError) as info:
                ring_pair_metrics(ring, rect_ring(0, 0, 5, 5), width, 10)
            assert not isinstance(info.value, DegenerateShape)

    def test_empty_rasterization_raises(self):
        sliver = [0.9, 0.9, 0.95, 0.9, 0.95, 0.95]  # no pixel center inside
        with pytest.raises(DegenerateShape, match="empty mask"):
            ring_pair_metrics(sliver, rect_ring(0, 0, 5, 5), 10, 10)

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            ring_pair_metrics(rect_ring(0, 0, 5, 5), rect_ring(0, 0, 5, 5), 10, 10, mode="fast")


def whole_grid_oracle(ra, rb, w, h, footprint):
    """``ring_pairs_metrics`` of one pair from whole-image masks and the
    brute-force oracle, or None where the pair is degenerate."""
    if len(ra) < 6 or len(rb) < 6:
        return None
    ma, mb = rasterize([ra], w, h), rasterize([rb], w, h)
    if not (ma.any() and mb.any()):
        return None
    ca, cb = contour(ma, footprint), contour(mb, footprint)
    return (*surface_metrics_oracle(ca, cb), int(ca.sum()), int(cb.sum()))


def jittered(rng, ring, amount):
    return [round(v + float(rng.uniform(-amount, amount)), 2) for v in ring]


def chunk_pair(rng, kind):
    """One ring pair ``(ring a, ring b, width, height)`` of the given kind."""
    if kind == "close":
        w, h = int(rng.integers(16, 90)), int(rng.integers(16, 90))
        ra = random_ring(rng, w, h, overhang=0.3)
        return ra, jittered(rng, ra, 1.5), w, h
    if kind == "shifted":
        # some points within the band of rows, others beyond it
        w, h = 120, 100
        ra = random_ring(rng, w, h, overhang=0.0)
        dx, dy = (float(v) for v in rng.uniform(-9, 9, size=2))
        return ra, [v + (dx if i % 2 == 0 else dy) for i, v in enumerate(ra)], w, h
    if kind == "far":
        # every nearest point lies beyond the band: only the finisher measures
        w, h = 200, 150
        ra = [v / 5 for v in random_simple_rings(rng, width=w, height=h)[0]]
        rb = [v / 5 + (150 if i % 2 == 0 else 110) for i, v in enumerate(random_simple_rings(rng, width=w, height=h)[0])]
        return (ra, rb, w, h) if rng.random() < 0.5 else (rb, ra, w, h)
    if kind == "wide":
        # a window wider than 128 px: the finisher takes int32
        w, h = 400, 60
        ra = [5.5, 10.2, 300.7, 12.9, 297.1, 30.4, 8.8, 25.0]
        return jittered(rng, ra, 2.0), [260.0, 40.0, 380.0, 41.5, 379.0, 55.0, 255.0, 52.0], w, h
    if kind == "thin":
        # bars of 1 to 3 rows, or columns, a few rows apart: windows whose
        # rows run out before the band does
        bars = []
        for _ in range(2):
            x, y = round(float(rng.uniform(0, 30)), 2), int(rng.integers(0, 6))
            bar = rect_ring(x, y, round(float(rng.uniform(1, 10)), 2), int(rng.integers(1, 4)))
            bars.append(bar if rng.random() < 0.5 else [bar[i ^ 1] for i in range(len(bar))])
        return (*bars, 40, 40)
    if kind == "short":
        short = [float(v) for v in rng.uniform(0, 30, size=2 * int(rng.integers(1, 3)))]
        ring = random_ring(rng, 32, 32, overhang=0.0)
        return (short, ring, 32, 32) if rng.random() < 0.5 else (ring, short, 32, 32)
    # "empty": a triangle inside one pixel, clear of its center
    x, y = (int(v) for v in rng.integers(0, 30, size=2))
    sliver = [x + 0.1, y + 0.1, x + 0.4, y + 0.1, x + 0.4, y + 0.4]
    ring = random_ring(rng, 32, 32, overhang=0.0)
    return (sliver, ring, 32, 32) if rng.random() < 0.5 else (ring, sliver, 32, 32)


KINDS = ["close", "shifted", "far", "wide", "thin", "short", "empty"]


class TestRingPairsMetrics:
    """The chunked kernel against whole-grid masks and the brute-force
    oracle, to the bit, on chunks that mix every kind of pair."""

    @given(
        kinds=st.lists(st.sampled_from(KINDS), min_size=1, max_size=10),
        footprint=st.sampled_from(["cross", "square"]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40)
    def test_mixed_chunks_equal_the_whole_grid_oracle(self, kinds, footprint, seed):
        rng = np.random.default_rng(seed)
        pairs = [chunk_pair(rng, kind) for kind in kinds]
        got = ring_pairs_metrics(pairs, footprint=footprint)
        assert got == [whole_grid_oracle(*p, footprint) for p in pairs]
        for size in (1, 2):
            split = [m for i in range(0, len(pairs), size) for m in ring_pairs_metrics(pairs[i : i + size], footprint=footprint)]
            assert split == got
        # one pair per chunk and per group inside the kernel
        with mock.patch.object(surface, "_CHUNK_PX", 1), mock.patch.object(surface, "_GROUP", 1):
            assert ring_pairs_metrics(pairs, footprint=footprint) == got

    def test_far_pairs_are_finished_and_partial_ones_too(self):
        # the far kind leaves every point open after the band, the shifted
        # kind some of them
        rng = np.random.default_rng(3)
        calls = []
        real = surface._nearest_squared

        def spy(x, y):
            calls.append((x[0].size, y[0].size))
            return real(x, y)

        pairs = [chunk_pair(rng, kind) for kind in ["far", "shifted", "shifted", "far", "close"]]
        with mock.patch.object(surface, "_nearest_squared", spy):
            got = ring_pairs_metrics(pairs)
        assert got == [whole_grid_oracle(*p, "cross") for p in pairs]
        # a far pair compares each whole contour with the other; a shifted
        # one only its open points, fewer than any whole contour
        assert got[0][2:] in calls and got[0][2:][::-1] in calls
        assert min(nx for nx, _ in calls) < min(min(m[2:]) for m in got)

    def test_one_pair_equals_ring_pair_metrics(self):
        rng = np.random.default_rng(5)
        pairs = [chunk_pair(rng, kind) for kind in KINDS * 3]
        for pair, metrics in zip(pairs, ring_pairs_metrics(pairs, footprint="square")):
            if metrics is None:
                with pytest.raises(DegenerateShape):
                    ring_pair_metrics(*pair, footprint="square")
            else:
                assert ring_pair_metrics(*pair, footprint="square") == metrics

    def test_empty_pair_list(self):
        assert ring_pairs_metrics([]) == []

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_zero_match_diff(self, jobs, tiny_a, tiny_b):
        ms = match_datasets(tiny_a, tiny_b, MatchConfig(iou_threshold=0.999))
        assert ms.pairs == []
        assert compute_surface_results(ms, tiny_a, tiny_b, jobs=jobs) == ([], [])

    def test_malformed_ring_raises_and_bad_footprint_is_rejected(self):
        good = rect_ring(2, 2, 5, 5)
        with pytest.raises(GeometryError) as info:
            ring_pairs_metrics([(good, good, 10, 10), (good, [0, 0, 5, 0, 5, 5, 0], 10, 10)])
        assert not isinstance(info.value, DegenerateShape)
        with pytest.raises(ValueError, match="footprint"):
            ring_pairs_metrics([(good, good, 10, 10)], footprint="disk")


class TestPairMetrics:
    def test_resolves_instances_and_image(self, tiny_a, tiny_b):
        ms = match_datasets(tiny_a, tiny_b)
        pair = next(p for p in ms.pairs if p.source_instance_id == 1)
        res = pair_metrics(pair, tiny_a, tiny_b)
        assert res.pair is pair
        # target box is one pixel taller: every bottom-contour pixel moved by
        # one, all others match, so 0 < d_avg < 1 and d_max == 1
        assert 0.0 < res.d_avg < 1.0
        assert res.d_max == 1.0
        assert res.contour_len_source > 0 and res.contour_len_target > 0

    def test_crop_matches_full_on_fixture(self, tiny_a, tiny_b):
        ms = match_datasets(tiny_a, tiny_b)
        for pair in ms.pairs:
            res = pair_metrics(pair, tiny_a, tiny_b)
            full = full_grid_reference(*pair_rings(pair, tiny_a, tiny_b))
            assert (res.d_avg, res.d_max, res.contour_len_source, res.contour_len_target) == full

    def test_crowd_pair_is_degenerate(self, tiny_a, tiny_b):
        ms = match_datasets(tiny_a, tiny_b, MatchConfig(same_category_required=False))
        crowd_inst = tiny_a.instance(5)
        fake = ms.pairs[0].__class__(5, 101, 1, crowd_inst.category_id, 1.0)
        with pytest.raises(DegenerateShape):
            pair_metrics(fake, tiny_a, tiny_b)
