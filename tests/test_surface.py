import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annodiff import surface
from annodiff.errors import DegenerateShape, GeometryError
from annodiff.matching import MatchConfig, match_datasets
from annodiff.raster import contour, edt_squared, rasterize
from annodiff.surface import (
    average_surface_distance,
    max_surface_distance,
    pair_metrics,
    pair_rings,
    ring_pair_metrics,
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


class TestRingPipeline:
    def test_crop_equals_full(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            w, h = 64, 48
            ra = random_simple_rings(rng, width=w, height=h)[0]
            rb = random_simple_rings(rng, width=w, height=h)[0]
            try:
                full = ring_pair_metrics(ra, rb, w, h, mode="full")
                crop = ring_pair_metrics(ra, rb, w, h, mode="crop")
            except DegenerateShape:
                continue
            assert crop == full

    def test_square_footprint_contour_differs(self):
        ring = rect_ring(2, 2, 8, 8)
        cross = ring_pair_metrics(ring, rect_ring(2, 2, 8, 7), 16, 16, footprint="cross")
        square = ring_pair_metrics(ring, rect_ring(2, 2, 8, 7), 16, 16, footprint="square")
        # an 8x8 solid square: cross keeps the 28-pixel frame either way here,
        # so just assert both run and agree on contour lengths
        assert cross[2] > 0 and square[2] > 0

    def test_too_few_vertices_raises(self):
        with pytest.raises(DegenerateShape, match="vertices"):
            ring_pair_metrics([0, 0, 5, 5], rect_ring(0, 0, 5, 5), 10, 10)

    def test_empty_rasterization_raises(self):
        sliver = [0.9, 0.9, 0.95, 0.9, 0.95, 0.95]  # no pixel center inside
        with pytest.raises(DegenerateShape, match="empty mask"):
            ring_pair_metrics(sliver, rect_ring(0, 0, 5, 5), 10, 10)

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            ring_pair_metrics(rect_ring(0, 0, 5, 5), rect_ring(0, 0, 5, 5), 10, 10, mode="fast")


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
            full = ring_pair_metrics(*pair_rings(pair, tiny_a, tiny_b), mode="full")
            assert (res.d_avg, res.d_max, res.contour_len_source, res.contour_len_target) == full

    def test_crowd_pair_is_degenerate(self, tiny_a, tiny_b):
        ms = match_datasets(tiny_a, tiny_b, MatchConfig(same_category_required=False))
        crowd_inst = tiny_a.instance(5)
        fake = ms.pairs[0].__class__(5, 101, 1, crowd_inst.category_id, 1.0)
        with pytest.raises(DegenerateShape):
            pair_metrics(fake, tiny_a, tiny_b)
