import itertools
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from annodiff.dataset import parse_dataset
from annodiff.deteval import Detection, EvalParams, cross_table, evaluate
from annodiff.errors import DegenerateShape, GeometryError, SchemaError
import annodiff.raster as raster
from annodiff.raster import (
    Box,
    bbox_of_mask,
    bbox_of_polygon,
    box_iou_matrix,
    box_overlaps,
    contour,
    count_overlaps,
    decode_rle,
    edt_squared,
    encode_rle,
    iou,
    mask_iou,
    mask_of,
    rasterize,
)
from annodiff.shapes import Polygons, RleMask
from annodiff.surface import ring_pair_metrics, ring_pairs_metrics

from conftest import make_ann, make_coco, make_images, random_mask, random_simple_rings, rect_ring
from oracles import box_iou_oracle, edt_squared_oracle, rasterize_oracle, surface_metrics_oracle

# the one GeometryError for a raw shape that is not a list or tuple of flat
# rings of plain int and float coordinates
FORMAT = "^polygon is not a list or tuple of flat rings of int and float coordinates$"


def poly(*rings):
    return Polygons(tuple(tuple(float(v) for v in r) for r in rings))


def vertices(shapes):
    """The vertices of every ring of ``shapes``, in one gather, each owned
    by its shape's position."""
    own = [raster._rings(shape) for shape in shapes]
    return raster._ring_vertices([r for rings in own for r in rings], [k for k, rings in enumerate(own) for _ in rings])


class TestRasterize:
    def test_axis_aligned_square_pixel_count(self):
        mask = rasterize(poly(rect_ring(2, 3, 10, 10)), 32, 32)
        assert mask.sum() == 100
        assert mask[3:13, 2:12].all()

    def test_half_open_convention_excludes_right_bottom(self):
        mask = rasterize(poly(rect_ring(0, 0, 4, 4)), 8, 8)
        assert mask[:4, :4].all()
        assert not mask[4, :].any() and not mask[:, 4].any()

    def test_pixel_center_rule_fractional_box(self):
        # x in [1.5, 3.5): center 1.5 sits on the left edge (inside, left
        # edges are inclusive), center 3.5 on the right edge (outside)
        mask = rasterize(poly(rect_ring(1.5, 0, 2, 2)), 8, 8)
        assert set(np.flatnonzero(mask.any(axis=0))) == {1, 2}

    def test_degenerate_sliver_is_empty(self):
        assert rasterize(poly([0, 0, 5, 0, 5, 0, 0, 0]), 8, 8).sum() == 0

    def test_multi_ring_even_odd_hole(self):
        outer = rect_ring(0, 0, 10, 10)
        inner = rect_ring(3, 3, 4, 4)
        mask = rasterize(poly(outer, inner), 16, 16)
        assert mask.sum() == 100 - 16
        assert not mask[4, 4]

    def test_matches_point_in_polygon_oracle_on_random_stars(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            rings = random_simple_rings(rng, n_rings=int(rng.integers(1, 3)))
            got = rasterize(poly(*rings), 64, 64)
            want = rasterize_oracle(rings, 64, 64)
            assert np.array_equal(got, want)

    def test_rle_mask_is_rejected_not_filled_empty(self):
        rle = RleMask((2, 4, 10), 4, 4)
        with pytest.raises(GeometryError, match="mask_of") as e:
            rasterize(rle, 4, 4)
        assert not isinstance(e.value, DegenerateShape)
        assert mask_of(rle, 4, 4).sum() == 4


def wild_rings(rng, n, width, height, sort_angles=True):
    """Star rings that may stick out of the grid on any side; unsorted angles
    make them self-intersect."""
    rings = []
    for _ in range(n):
        k = int(rng.integers(3, 14))
        cx = float(rng.uniform(-0.3 * width, 1.3 * width))
        cy = float(rng.uniform(-0.3 * height, 1.3 * height))
        angles = rng.uniform(0.0, 2.0 * np.pi, size=k)
        if sort_angles:
            angles.sort()
        radii = rng.uniform(0.2, 1.0, size=k) * float(rng.uniform(3.0, 1.2 * max(width, height)))
        rings.append(
            [round(v, 2) for a, r in zip(angles, radii) for v in (cx + r * np.cos(a), cy + r * np.sin(a))]
        )
    return rings


class TestRasterizeWindow:
    def check(self, rings, width, height):
        mask = rasterize(poly(*rings), width, height)
        assert mask.shape == (height, width) and mask.flags.c_contiguous
        assert np.array_equal(mask, rasterize_oracle(rings, width, height))
        return mask

    def test_rings_across_every_border(self):
        rng = np.random.default_rng(41)
        sides = set()
        for _ in range(40):
            w, h = int(rng.integers(8, 48)), int(rng.integers(8, 48))
            rings = wild_rings(rng, int(rng.integers(1, 3)), w, h)
            self.check(rings, w, h)
            x, y = np.concatenate([np.reshape(r, (-1, 2)) for r in rings]).T
            outside = {"left": x < 0, "top": y < 0, "right": x > w, "bottom": y > h}
            sides.update(side for side, out in outside.items() if out.any())
        assert sides == {"left", "top", "right", "bottom"}

    def test_ring_covering_the_whole_grid(self):
        # every run closes at the right border, in the fill's spare column
        assert self.check([[-5, -5, 40, -5, 40, 30, -5, 30]], 20, 12).all()

    def test_self_intersecting_rings(self):
        rng = np.random.default_rng(43)
        for _ in range(40):
            w, h = int(rng.integers(8, 48)), int(rng.integers(8, 48))
            self.check(wild_rings(rng, int(rng.integers(1, 3)), w, h, sort_angles=False), w, h)
        bowtie = self.check([[2, 2, 18, 14, 18, 2, 2, 14]], 20, 16)
        assert bbox_of_mask(bowtie) == (2, 2, 16, 12)
        assert not bowtie[2:14, 10].all()  # the crossing pinches the waist

    def test_rings_with_holes(self):
        rng = np.random.default_rng(47)
        for _ in range(25):
            outer = random_simple_rings(rng, width=64, height=64)[0]
            xs, ys = np.array(outer[0::2]), np.array(outer[1::2])
            cx, cy = xs.mean(), ys.mean()
            inner = [
                round(float(v), 2) for x, y in zip(xs, ys) for v in (cx + 0.4 * (x - cx), cy + 0.4 * (y - cy))
            ]
            self.check([outer, inner], 64, 64)
        holed = self.check([rect_ring(0, 0, 10, 10), rect_ring(3, 3, 4, 4)], 16, 16)
        assert bbox_of_mask(holed) == (0, 0, 10, 10) and holed.sum() == 84 and not holed[4, 4]

    def test_vertex_on_a_pixel_center(self):
        # every crossing here is exact: slopes are +-1, +-1/2 and vertical
        diamond = self.check([[5.5, 1.5, 9.5, 5.5, 5.5, 9.5, 1.5, 5.5]], 12, 12)
        # the top vertex's two crossings meet at x = 5.5: an empty run
        assert bbox_of_mask(diamond)[:2] == (1, 2)  # (x, y): row 2, column 1
        self.check([[2.5, 3.5, 6.5, 11.5, 0.5, 7.5]], 10, 14)
        self.check([[3.5, 0.5, 3.5, 6.5, 7.5, 6.5]], 10, 10)

    def test_sliver_and_off_grid_rings_give_an_empty_mask(self):
        for rings in (
            [[0, 0, 5, 0, 5, 0, 0, 0]],
            [[0.1, 2.0, 6.0, 2.0, 3.0, 2.4]],  # no pixel center inside
            [rect_ring(-20, 3, 10, 4)],
            [rect_ring(3, 9, 4, 4)],  # starts on the bottom edge of a 9-row grid
            [rect_ring(12, -30, 5, 29.5)],
        ):
            assert not self.check(rings, 12, 9).any()

    def test_several_shapes_in_one_scanline_pass(self):
        # shapes scanned together, an empty one among them, paint from their
        # runs exactly what each one's own fill gives
        rng = np.random.default_rng(73)
        for _ in range(20):
            w, h = int(rng.integers(8, 48)), int(rng.integers(8, 48))
            shapes = [wild_rings(rng, int(rng.integers(1, 3)), w, h) for _ in range(int(rng.integers(0, 5)))]
            shapes.insert(int(rng.integers(len(shapes) + 1)), [[0, 0, 5, 0, 5, 0]])  # an empty one
            grids = grids_from_runs([poly(*rings) for rings in shapes], w, h)
            for rings, grid in zip(shapes, grids):
                assert np.array_equal(grid, rasterize_oracle(rings, w, h))
                assert np.array_equal(rasterize(poly(*rings), w, h), grid)
        assert grids_from_runs([], 4, 4).shape == (0, 4, 4)

    def test_invalid_input_raises(self):
        for args in ((poly(rect_ring(0, 0, 2, 2)), 0, 4), (poly([0, 0, 4, 4]), 8, 8)):
            with pytest.raises(GeometryError):
                rasterize(*args)

    def test_count_overlaps_reports_the_shapes_that_mask_of_rejects(self):
        shapes = [
            poly(rect_ring(0, 0, 2, 2)),
            [np.array([[0, 0], [4, 0], [0, 4]])],  # not the raw ring form
            poly([0, 0, 4, 4]),
            Polygons(((0.0, 0.0, 4.0, 0.0, 0.0, 4.0, 1.0),)),
            Polygons(()),
            encode_rle(np.ones((8, 8), bool)),
            encode_rle(np.ones((4, 8), bool)),
            [[0, 0, 4, 0, 0, 4]],
        ]
        grids = [(8, 8), (8, 4), (0, 8), (8, 0)]
        items = [(shape, key) for shape in shapes for key in range(len(grids))]
        got = count_overlaps(items[::2], items[1::2], grids)  # both sides in one count
        areas = np.concatenate([got.area_a, got.area_b])
        for at, (shape, key) in enumerate(items[::2] + items[1::2]):
            try:
                mask = mask_of(shape, *grids[key])
            except GeometryError as exc:
                fault = got.faults.get(at)
                assert (type(fault), str(fault)) == (type(exc), str(exc))
                assert areas[at] == 0
            else:
                assert at not in got.faults and areas[at] == mask.sum()
        faults = count_overlaps([(s, 0) for s in shapes], [], [(8, 8)]).faults
        assert list(faults) == [1, 2, 3, 4, 6]
        assert type(faults[1]) is GeometryError and re.match(FORMAT, str(faults[1]))


class TestNonFiniteCoordinates:
    """A raw ring with a coordinate that is not a finite float is a
    ``GeometryError`` past the vertex-count rule, in a list or a tuple; in
    an object array or as a list of pairs, it is not in the raw ring form,
    which is the one ``GeometryError`` that comes first."""

    # each container, and the error its ring gives
    FORMS = [
        (list, "not a finite float"),
        (tuple, "not a finite float"),
        (lambda r: np.array(r, dtype=object), FORMAT),
        (lambda r: [r[i : i + 2] for i in range(0, len(r), 2)], FORMAT),
    ]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 10**400, -(10**400)])
    @pytest.mark.parametrize("form", range(len(FORMS)))
    def test_raises_a_geometry_error(self, bad, form):
        container, error = self.FORMS[form]
        ring = container([1, 1, bad, 1, 8, 8, 1, 8])
        square = rect_ring(2, 2, 5, 5)
        for call in (
            lambda: rasterize([ring], 10, 10),
            lambda: mask_of([square, ring], 10, 10),
            lambda: ring_pair_metrics(ring, square, 10, 10),
            lambda: ring_pair_metrics(square, ring, 10, 10),
            lambda: ring_pairs_metrics([(square, square, 10, 10), (square, ring, 10, 10)]),
        ):
            with pytest.raises(GeometryError, match=error) as info:
                call()
            assert not isinstance(info.value, DegenerateShape)
        fault = count_overlaps([([ring], 0), ([square], 0)], [], [(10, 10)]).faults
        assert list(fault) == [0] and re.search(error, str(fault[0]))

    @pytest.mark.parametrize("bad", [math.nan, 10**400])
    def test_the_vertex_rule_comes_first(self, bad):
        for ring in ([1, 1, bad, 1], (1, 1, bad, 1)):
            with pytest.raises(DegenerateShape, match="2 vertices"):
                rasterize([ring], 10, 10)
        # the form rule comes before both
        with pytest.raises(GeometryError, match=FORMAT) as info:
            rasterize([np.array([[1, 1], [bad, 1]], dtype=object)], 10, 10)
        assert not isinstance(info.value, DegenerateShape)

    def test_finite_values_whose_sum_overflows_are_kept(self):
        ring = [1e308, 1.0, 1e308, 2.0, 1e308, 3.0]
        assert raster._rings([ring]) == [ring]
        assert raster._rings([tuple(ring)]) == [tuple(ring)]

    def test_stored_polygons_are_trusted(self):
        # the parse leaves every stored coordinate finite; they are not checked again
        assert raster._rings(Polygons(((1.0, 1.0, math.nan, 1.0, 8.0, 8.0),))) == [(1.0, 1.0, math.nan, 1.0, 8.0, 8.0)]


@pytest.mark.filterwarnings("error")
class TestSteepEdges:
    """An edge whose slope, or whose extent in y, overflows float64 is
    crossed at the interpolated point instead."""

    # the first edge of each rises 2**-29, 2**-40 or 1.5 * 2**-30 px over
    # 1e300 or 2e300 px; it crosses the center line of row 0 at x = 0, at
    # x = 0, and at x = 1e300 / 3, past the grid
    RINGS = [
        ([-1e300, 0.5 - 2**-30, 1e300, 0.5 + 2**-30, 1e300, 5.0, -1e300, 5.0], 40),
        ([0.0, 0.5, 1e300, 0.5 + 2**-40, 1e300, 5.0, 0.0, 5.0], 40),
        ([-1e300, 0.5 - 2**-30, 1e300, 0.5 + 2**-31, 1e300, 5.0, -1e300, 5.0], 50),
    ]

    @pytest.mark.parametrize("ring, area", RINGS)
    def test_equals_the_oracle(self, ring, area):
        want = rasterize_oracle([ring], 10, 10)
        assert want.sum() == area and want[1:5].all()
        assert np.array_equal(rasterize([ring], 10, 10), want)
        got = count_overlaps([(poly(ring), 0), ([ring], 0)], [], [(10, 10)])
        assert got.area_a.tolist() == [area, area] and not got.faults

    def test_a_y_extent_beyond_the_float_range(self):
        # y2 - y1 overflows: the slanted edge crosses every center line near
        # x = 5e307, and the vertical one at x = 0, so every pixel is inside
        ring = [0.0, -1.7e308, 1e308, 1.7e308, 0.0, 1.7e308]
        assert rasterize([ring], 10, 10).all()


def _outcome(call):
    """What ``call()`` gives: its value, or the ``GeometryError`` it raises.
    Any other error fails the test that calls it."""
    try:
        return call()
    except GeometryError as exc:
        return exc


class TestMalformedRawShapes:
    """A malformed raw shape never escapes as an error from outside the
    library: every call that takes it returns a value or raises a
    ``GeometryError``, and the overlap count reports, without raising, the
    error that ``mask_of`` raises for the shape alone."""

    SQUARE = rect_ring(2, 2, 5, 5)

    @staticmethod
    def malformed_rings(rng) -> dict:
        """Rings around a random ring of plain floats, each malformed, by
        the error it gives."""
        ring = random_simple_rings(rng, width=20, height=20)[0]
        at = int(rng.integers(len(ring)))

        def put(bad):
            return ring[:at] + [bad] + ring[at + 1 :]

        return {
            "array": (np.array(ring), FORMAT),
            "pairs": ([ring[i : i + 2] for i in range(0, len(ring), 2)], FORMAT),
            "string": (" ".join(map(str, ring)), FORMAT),
            "None": (None, FORMAT),
            "number": (ring[0], FORMAT),
            "bool coordinate": (put(True), FORMAT),
            "string coordinate": (put(str(ring[at])), FORMAT),
            "nan coordinate": (put(math.nan), "^ring has a coordinate that is not a finite float$"),
            "huge coordinate": (put(10**400), "^ring has a coordinate that is not a finite float$"),
            "2 coordinates": (ring[:2], "^degenerate ring with 1 vertices$"),
            "7 coordinates": ((ring + ring)[:7], "^ring has odd coordinate count 7$"),
        }

    @pytest.mark.parametrize("seed", range(4))
    def test_returns_or_raises_a_geometry_error(self, seed):
        square = self.SQUARE
        rings = self.malformed_rings(np.random.default_rng(seed))
        for ring, error in rings.values():
            for call in (
                lambda: ring_pair_metrics(ring, square, 20, 20),
                lambda: ring_pair_metrics(square, ring, 20, 20),
            ):
                assert re.match(error, str(_outcome(call)))
            got = _outcome(lambda: ring_pairs_metrics([(square, square, 20, 20), (square, ring, 20, 20)]))
            if isinstance(got, list):  # a degenerate pair
                assert got[1] is None and error.startswith("^degenerate")
            else:
                assert re.match(error, str(got))
        # each ring alone and after a good one, and shapes that are not a
        # list or tuple of rings, some not iterable
        shapes = [(shape, error) for ring, error in rings.values() for shape in ([ring], (tuple(square), ring))]
        shapes += [(None, FORMAT), (5, FORMAT), ("abc", FORMAT), (np.array([square]), FORMAT)]
        errors = []
        for shape, error in shapes:
            got = [_outcome(lambda: rasterize(shape, 20, 20)), _outcome(lambda: mask_of(shape, 20, 20))]
            got.append(_outcome(lambda: bbox_of_polygon(shape)))
            assert all(isinstance(exc, GeometryError) and re.match(error, str(exc)) for exc in got)
            exc = got[1]  # mask_of's
            errors.append(exc)
            (fault,) = count_overlaps([(shape, 0)], [], [(20, 20)]).faults.values()
            assert (type(fault), str(fault)) == (type(exc), str(exc))
        # counted together, beside a good shape, each is reported as alone
        together = count_overlaps([([square], 0)] + [(shape, 0) for shape, _ in shapes], [], [(20, 20)])
        assert together.area_a[0] == 25 and not together.area_a[1:].any()
        assert [(at, type(f), str(f)) for at, f in together.faults.items()] == [
            (at, type(exc), str(exc)) for at, exc in enumerate(errors, 1)
        ]


def _library_outcome(call):
    """What ``call()`` gives: its value, or the ``SchemaError`` or
    ``GeometryError`` it raises. Any other error fails the test that calls it."""
    try:
        return call()
    except (SchemaError, GeometryError) as exc:
        return exc


class TestMalformedRleMasksAndGrids:
    """A malformed RLE mask or grid never escapes as an error from outside
    the library: every call that takes it returns a value or raises a
    ``SchemaError`` or ``GeometryError``, the overlap count reports for a
    shape the error ``mask_of`` raises for it alone, and an RLE mask breaks
    the parser's rule with the parser's words."""

    @staticmethod
    def malformed_masks(rng) -> list[RleMask]:
        """RLE masks around a random one, each breaking the RLE rule once."""
        h, w = (int(v) for v in rng.integers(3, 12, size=2))
        counts = list(encode_rle(random_mask(rng, h, w, p=0.3)).counts)
        at = int(rng.integers(len(counts)))

        def put(*bad):
            return tuple(counts[:at] + list(bad) + counts[at + 1 :])

        return [
            RleMask(put(str(counts[at])), h, w),
            RleMask(put(float(counts[at])), h, w),
            RleMask(put(True, counts[at] - 1), h, w),
            RleMask(put(-1, counts[at] + 1), h, w),  # the sum still holds
            RleMask(tuple(counts), -h, -w),  # and here too
            RleMask((), -h, 0),
            RleMask(tuple(counts), float(h), w),
            RleMask(tuple(counts), h, str(w)),
            RleMask(tuple(counts), True, w),
            RleMask(tuple(counts) + (1,), h, w),
            RleMask(tuple(counts), h + 1, w),
        ]

    @pytest.mark.parametrize("seed", range(4))
    def test_masks_raise_the_rle_rule_of_the_parser(self, seed):
        rng = np.random.default_rng(seed)
        for rle in self.malformed_masks(rng):
            width, height = rng.integers(3, 12, size=2).tolist()
            grid = rle.width, rle.height
            decoded = _library_outcome(lambda: decode_rle(rle))
            own = _library_outcome(lambda: mask_of(rle, *grid))
            other = _library_outcome(lambda: mask_of(rle, width, height))
            assert type(decoded) is type(own) is type(other) is SchemaError
            assert str(decoded) == str(own) == str(other) and str(own).startswith("RLE mask ")
            for size in (grid, (width, height)):
                (fault,) = count_overlaps([(rle, 0)], [], [size]).faults.values()
                assert (type(fault), str(fault)) == (SchemaError, str(own))
            # as JSON, the parser gives the same words for the annotation,
            # and evaluate names the detection with them
            seg = {"counts": list(rle.counts), "size": [rle.height, rle.width]}
            ann = make_ann(7, 1, seg, iscrowd=1, bbox=[0, 0, 1, 1])
            named = str(own).replace("RLE mask", "annotation 7", 1)
            with pytest.raises(SchemaError) as parsed:
                parse_dataset(make_coco(make_images(1, width, height), [ann]))
            assert str(parsed.value) == named
            gt = parse_dataset(make_coco(make_images(1, width, height), [make_ann(1, 1, rect_ring(0, 0, 2, 2))]))
            found = Detection(7, 1, 1, 0.5, (0.0, 0.0, 1.0, 1.0), rle)
            got = _library_outcome(lambda: evaluate([found], gt, EvalParams(task="segm")))
            assert (type(got), str(got)) == (SchemaError, named)

    @pytest.mark.parametrize("bad", [10.5, 10.0, True, "10", np.float64(10)])
    def test_grids_break_one_grid_rule(self, bad):
        ring = rect_ring(2, 2, 5, 5)
        for grid in ((bad, 10), (10, bad)):
            text = f"grid {grid[0]!r}x{grid[1]!r} has a side that is not an integer"
            shapes = [[ring], poly(ring), encode_rle(np.ones((10, 10), bool)), RleMask((0,), 0, 0)]
            for shape in shapes:
                exc = _library_outcome(lambda: mask_of(shape, *grid))
                assert isinstance(exc, (SchemaError, GeometryError))
                (fault,) = count_overlaps([(shape, 0)], [], [grid]).faults.values()
                assert (type(fault), str(fault)) == (type(exc), str(exc))
            for call in (
                lambda: rasterize([ring], *grid),
                lambda: mask_of([ring], *grid),
                lambda: ring_pairs_metrics([(ring, ring, 10, 10), (ring, ring, *grid)]),
                lambda: ring_pair_metrics(ring, ring, *grid),
            ):
                exc = _library_outcome(call)
                assert (type(exc), str(exc)) == (GeometryError, text)


class TestRawShapesInOneCount:
    SQUARE = rect_ring(2, 2, 5, 5)
    TRI = [1, 1, 9, 2, 4, 8]
    # tuples and lists of plain numbers, taken as they are, with the faults
    # that their lengths show
    PLAIN = [[SQUARE], (tuple(SQUARE),), [SQUARE, TRI], [TRI, rect_ring(3, 3, 2, 2)], [SQUARE + [1.0]], [[0, 0, 4, 4]], [[]], []]
    # plain containers whose sum is not finite
    NOT_FINITE = [[[1, 1, math.nan, 1, 8, 8]], [(1.0, 1.0, math.inf, 1.0, 8.0, 8.0)], [TRI, [1, 1, 10**400, 1, 8, 8]]]
    # rings in other containers, not in the raw ring form
    OTHER = [
        [np.array(TRI, dtype=float)],
        [np.array(TRI, dtype=object)],
        [np.reshape(TRI, (-1, 2)).tolist()],
        [np.array(SQUARE[:4])],
        [np.arange(7.0)],
    ]

    @pytest.mark.parametrize(
        "shapes, plain",
        [(PLAIN, True), (PLAIN + NOT_FINITE, False), (OTHER + PLAIN, False), (NOT_FINITE[::-1] + OTHER + [poly(TRI)], False)],
    )
    def test_areas_and_faults_equal_mask_of_shape_by_shape(self, shapes, plain):
        # each raw shape fails the screen or not with the others, and every
        # area and fault is the one mask_of gives for that shape alone
        assert raster._plain([ring for shape in shapes if type(shape) is not Polygons for ring in shape]) == plain
        got = count_overlaps([(shape, 0) for shape in shapes], [], [(10, 10)])
        for at, shape in enumerate(shapes):
            try:
                area = int(mask_of(shape, 10, 10).sum())
            except GeometryError as exc:
                fault = got.faults.get(at)
                assert (type(fault), str(fault)) == (type(exc), str(exc))
                assert got.area_a[at] == 0
            else:
                assert at not in got.faults and got.area_a[at] == area

    @pytest.mark.parametrize("other", range(len(OTHER) - 2))
    def test_the_rings_read_are_those_of_rings(self, other):
        # a ring of plain numbers in another container is the one form
        # fault, and adds no ring; the rings read beside it are those of
        # _rings, as they are
        shapes = [[self.SQUARE], [self.TRI, tuple(self.SQUARE)], self.OTHER[other]]
        rings, _, _, _, faults = raster._read_shapes(shapes, [(10, 10)], np.zeros(len(shapes), dtype=np.intp), [None])
        want = [ring for shape in shapes[:2] for ring in raster._rings(shape)]
        assert [(type(r), list(map(type, r)), list(r)) for r in rings] == [
            (type(r), list(map(type, r)), list(r)) for r in want
        ]
        assert list(faults) == [2] and type(faults[2]) is GeometryError and re.match(FORMAT, str(faults[2]))


def grids_from_runs(shapes, width, height):
    """``(len(shapes), height, width)`` whole-grid masks painted run by run
    from :func:`raster._runs` (the sorted pixel toggles paired into runs) of
    one scanline pass over all the shapes."""
    n = len(shapes)
    owner, rows, c0, c1 = raster._runs(*raster._crossings(vertices(shapes), np.full(n, width), np.full(n, height)))
    grids = np.zeros((n, height, width), dtype=bool)
    for k, r, a, b in zip(owner.tolist(), rows.tolist(), c0.tolist(), c1.tolist()):
        assert a < b and not grids[k, r, a:b].any()  # disjoint, non-empty runs
        grids[k, r, a:b] = True
    return grids


def surface_reference(ring_a, ring_b, width, height):
    """``ring_pairs_metrics`` of one pair from whole-grid masks and the
    brute-force oracle."""
    ca, cb = (contour(rasterize([ring], width, height)) for ring in (ring_a, ring_b))
    return (*surface_metrics_oracle(ca, cb), int(ca.sum()), int(cb.sum()))


class TestCrossingFill:
    """``rasterize`` toggles at every crossing, unsorted; it must paint
    exactly the runs that the sorted crossings pair into."""

    def check(self, shapes, width, height):
        shapes = [poly(*rings) for rings in shapes]
        masks = np.array([rasterize(shape, width, height) for shape in shapes])
        assert np.array_equal(masks, grids_from_runs(shapes, width, height))
        return masks

    def test_rings_with_holes(self):
        rng = np.random.default_rng(101)
        for _ in range(30):
            outer = random_simple_rings(rng, width=64, height=64)[0]
            xs, ys = np.array(outer[0::2]), np.array(outer[1::2])
            cx, cy, scale = xs.mean(), ys.mean(), float(rng.uniform(0.2, 0.7))
            inner = [round(float(v), 2) for x, y in zip(xs, ys) for v in (cx + scale * (x - cx), cy + scale * (y - cy))]
            # a holed shape, and one of three rings that may overlap
            self.check([[outer, inner], wild_rings(rng, 3, 64, 64)], 64, 64)
        holed = self.check([[rect_ring(0, 0, 10, 10), rect_ring(3, 3, 4, 4)]], 16, 16)[0]
        assert holed.sum() == 84 and not holed[4, 4]

    def test_self_intersecting_rings(self):
        rng = np.random.default_rng(103)
        for _ in range(40):
            w, h = int(rng.integers(8, 80)), int(rng.integers(8, 80))
            shapes = [wild_rings(rng, int(rng.integers(1, 4)), w, h, sort_angles=False) for _ in range(2)]
            self.check(shapes, w, h)

    def test_rings_clipped_at_the_border(self):
        rng = np.random.default_rng(107)
        sides = set()
        for _ in range(40):
            w, h = int(rng.integers(8, 80)), int(rng.integers(8, 80))
            shapes = [wild_rings(rng, int(rng.integers(1, 3)), w, h) for _ in range(int(rng.integers(1, 4)))]
            self.check(shapes, w, h)
            x, y = np.concatenate([np.reshape(r, (-1, 2)) for rings in shapes for r in rings]).T
            outside = {"left": x < 0, "top": y < 0, "right": x > w, "bottom": y > h}
            sides.update(side for side, out in outside.items() if out.any())
        assert sides == {"left", "top", "right", "bottom"}

    def test_vertex_on_a_pixel_center(self):
        # the seed-109 ring: its vertex (61.5, 103.5) is the center of pixel
        # (103, 61)
        ring = [117.1, 161.16, 61.5, 103.5, 130.0, 90.0]
        self.check([[ring]], 200, 200)
        self.check([[ring], [rect_ring(50, 95, 20, 20)]], 200, 200)
        self.check([[[5.5, 1.5, 9.5, 5.5, 5.5, 9.5, 1.5, 5.5]]], 12, 12)

    def test_sliver_of_empty_runs(self):
        # every row crosses the sliver at x = 3.6 and 3.9, both of which put
        # the next pixel center at column 4: each row's two toggles cancel
        sliver = [3.6, 0.0, 3.9, 0.0, 3.9, 10.0, 3.6, 10.0]
        owner, rows, cols = raster._crossings(vertices([poly(sliver)]), np.full(1, 12), np.full(1, 12))
        assert rows.size == 20 and (cols == 4).all()
        assert not grids_from_runs([poly(sliver)], 12, 12).any()
        assert not self.check([[sliver]], 12, 12).any()
        # beside another shape's runs, its toggles still paint nothing
        masks = self.check([[sliver], [rect_ring(1, 2, 8, 6)]], 12, 12)
        assert not masks[0].any() and masks[1].sum() == 48

    def test_far_corner_of_a_2_41_px_grid(self):
        # pixel rows and columns near 2**40 are exact in float64, and the
        # surface metrics fill the pair's window with the same parity fill,
        # its index small however far the window lies from the origin
        far, side = 2**40, 2**41
        got = ring_pairs_metrics([(rect_ring(far, far, 10, 10), rect_ring(far + 5, far + 5, 10, 10), side, side)])
        near = (rect_ring(0, 0, 10, 10), rect_ring(5, 5, 10, 10), 20, 20)
        assert got == ring_pairs_metrics([near]) == [surface_reference(*near)]
        # 36 contour pixels each; the farthest is a corner, 5 px across and
        # down from the other square's contour
        assert got[0][1:] == (math.sqrt(50), 36, 36)

    def test_parity_fill_is_the_running_parity_of_its_toggles(self):
        # the fill is the parity of the count of toggles at or before each
        # pixel, with repeated positions, toggles at both ends of the buffer,
        # none at all, and an odd count that leaves the tail set
        rng = np.random.default_rng(113)
        cases = [(np.zeros(0, np.intp), 7), (np.array([0, 6]), 7), (np.array([3, 3, 3]), 7), (np.array([6]), 7)]
        for _ in range(200):
            size = int(rng.integers(1, 300))
            toggles = rng.integers(0, size, size=int(rng.integers(0, 2 * size)))
            ends = rng.choice([0, size - 1], size=int(rng.integers(0, 4)))
            toggles = np.concatenate([toggles, ends, toggles[: int(rng.integers(0, 5))]]).astype(np.intp)
            cases.append((rng.permutation(toggles), size))
        for toggles, size in cases:
            want = np.cumsum(np.bincount(toggles, minlength=size)) % 2 == 1
            got = raster._parity_fill(toggles, size)
            assert got.dtype == bool and np.array_equal(got, want)
        assert raster._parity_fill(np.array([0, 0, 6]), 7).tolist() == [False] * 6 + [True]


def exact_next_center(v: float, lim: int) -> int:
    """``ceil(v - 1/2)`` in exact rationals, clipped to ``[0, lim]``."""
    return min(max(math.ceil(Fraction(v) - Fraction(1, 2)), 0), lim)


def candidate_crossings(v, width, height):
    """The toggles of ``raster._crossings`` by the candidate-and-filter rule:
    every row in ``[floor(ymin), ceil(ymax))`` of each edge, clipped to the
    grid, is a candidate, and those whose center ``r + 0.5`` passes the span
    test ``ymin <= r + 0.5 < ymax`` each yield a crossing."""
    y2 = v.y[v.succ]
    edge = np.flatnonzero(v.y != y2)
    x1, y1, owner, succ = v.x[edge], v.y[edge], v.owner[edge], v.succ[edge]
    x2, y2 = v.x[succ], v.y[succ]
    ylo, yhi = np.minimum(y1, y2), np.maximum(y1, y2)
    slope = (x2 - x1) / (y2 - y1)
    lim = height[owner]
    first = np.clip(np.floor(ylo), 0, lim).astype(np.int64)
    span = np.maximum(np.clip(np.ceil(yhi), 0, lim).astype(np.int64) - first, 0)
    e = np.repeat(np.arange(span.size), span)
    rows = np.arange(e.size) + np.repeat(first - (np.cumsum(span) - span), span)
    py = rows + 0.5
    hit = (ylo[e] <= py) & (py < yhi[e])
    e, rows, py = e[hit], rows[hit], py[hit]
    owner = owner[e]
    xs = x1[e] + (py - y1[e]) * slope[e]
    return owner, rows, np.clip(np.ceil(xs - 0.5), 0, width[owner]).astype(np.int64)


_ULP = lambda v, toward: float(np.nextafter(v, toward))  # noqa: E731
# coordinates where ``v - 0.5`` rounds or sits on a pixel center or border
_ADVERSARIAL = [
    0.0, -0.0, 2**-60, -(2**-60), 0.25, _ULP(0.25, 0), 0.5, _ULP(0.5, 0), _ULP(0.5, 1), 1.5, 7.5, 7.0,
    -0.5, _ULP(-0.5, 0), _ULP(-0.5, -1), -1.5, _ULP(-1.5, 0), _ULP(-1.5, -2),
    2.0**52 - 0.5, _ULP(2.0**52 - 0.5, 0), 2.0**52 - 1.5, 2.0**52, 2.0**52 + 1, 2.0**53 + 2,
    1e300, -1e300,
]
_LIMITS = [0, 1, 7, 2**31, 2**52 - 1, 2**52]


class TestNextCenter:
    """``raster._next_center`` computes ``ceil(v - 0.5)`` in float64, clipped:
    the row range of an edge and the column of a crossing."""

    @pytest.mark.parametrize("lim", _LIMITS)
    def test_adversarial_coordinates_equal_the_exact_rule(self, lim):
        got = raster._next_center(np.array(_ADVERSARIAL), lim).tolist()
        assert got == [exact_next_center(v, lim) for v in _ADVERSARIAL]

    @given(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(_LIMITS) | st.integers(0, 2**52))
    def test_any_float_equals_the_exact_rule(self, v, lim):
        assert raster._next_center(np.array([v]), lim).tolist() == [exact_next_center(v, lim)]

    @given(
        st.floats(-12, 40, allow_nan=False) | st.sampled_from([-1.5, -0.5, 0.5, 2**-60, 0.25]),
        st.floats(-12, 40, allow_nan=False) | st.sampled_from([-1.5, -0.5, 0.5, 2**-60, 0.25]),
        st.integers(1, 30),
    )
    def test_row_range_is_the_span_test(self, a, b, height):
        ylo, yhi = min(a, b), max(a, b)
        first, end = raster._next_center(np.array([ylo, yhi]), height).tolist()
        half = Fraction(1, 2)
        assert list(range(first, end)) == [r for r in range(height) if ylo <= r + half < yhi]

    def test_crossings_equal_the_candidate_and_filter_rule(self):
        rng = np.random.default_rng(151)
        for trial in range(150):
            w, h = (int(v) for v in rng.integers(3, 60, size=2))
            shapes = [poly(*wild_rings(rng, int(rng.integers(1, 3)), w, h, sort_angles=bool(trial % 2)))
                      for _ in range(int(rng.integers(1, 4)))]
            if trial % 3 == 0:  # vertices on pixel centers, borders and half-way points
                shapes = [poly(*[[round(2 * c) / 2 for c in r] for r in s.rings]) for s in shapes]
            width = rng.integers(1, 60, size=len(shapes))
            height = rng.integers(1, 60, size=len(shapes))
            v = vertices(shapes)
            got = raster._crossings(v, width, height)
            want = candidate_crossings(v, width, height)
            for g, x in zip(got, want):
                assert g.tolist() == x.tolist()


def assert_counts_match_full_grids(a, b, sizes):
    """``count_overlaps`` on ``(shape, key)`` items equals pixel counts of
    full-grid masks: every area, and the intersection of every same-key pair."""
    got = count_overlaps(a, b, sizes)
    grids = [[mask_of(s, *sizes[k]) for s, k in side] for side in (a, b)]
    assert got.area_a.tolist() == [int(m.sum()) for m in grids[0]]
    assert got.area_b.tolist() == [int(m.sum()) for m in grids[1]]
    want = {
        (i, j): int(np.count_nonzero(ma & mb))
        for i, ((_, ka), ma) in enumerate(zip(a, grids[0]))
        for j, ((_, kb), mb) in enumerate(zip(b, grids[1]))
        if ka == kb and (ma & mb).any()
    }
    assert dict(zip(zip(got.a.tolist(), got.b.tolist()), got.inter.tolist())) == want
    return got


class TestCountOverlaps:
    SIZES = [(64, 48), (23, 31), (64, 48), (1, 7)]

    def shapes(self, rng, n, key):
        """Random shapes of every kind on the grid of ``key``."""
        w, h = self.SIZES[key]
        out = []
        for _ in range(n):
            kind = rng.integers(6)
            if kind == 0:  # an RLE crowd, maybe empty
                out.append(encode_rle(random_mask(rng, h, w, p=float(rng.uniform(0.0, 0.4)))))
            elif kind == 1 and min(w, h) > 12:  # multi-ring, with a hole
                outer = random_simple_rings(rng, width=w, height=h)[0]
                xs, ys = np.array(outer[0::2]), np.array(outer[1::2])
                cx, cy = xs.mean(), ys.mean()
                inner = [float(v) for x, y in zip(xs, ys) for v in (cx + 0.4 * (x - cx), cy + 0.4 * (y - cy))]
                out.append(poly(outer, inner, *random_simple_rings(rng, width=w, height=h)))
            elif kind == 2:  # empty: a sliver or wholly off the grid
                out.append(poly(rect_ring(-20, 3, 10, 4) if rng.integers(2) else [0, 0, 5, 0, 5, 0]))
            else:  # clipped at the borders, possibly self-intersecting
                out.append(poly(*wild_rings(rng, int(rng.integers(1, 3)), w, h, sort_angles=bool(kind < 5))))
        return out

    @pytest.mark.parametrize("cap", [1, 7, None])
    def test_equals_full_grid_counts_at_every_chunk_size(self, monkeypatch, cap):
        rng = np.random.default_rng(67)
        for _ in range(40):
            sides = []
            for _ in range(2):
                keys = rng.integers(len(self.SIZES), size=int(rng.integers(0, 7))).tolist()
                sides.append([(s, k) for k in keys for s in self.shapes(rng, 1, k)])
            with monkeypatch.context() as m:
                if cap is not None:
                    m.setattr(raster, "_CHUNK", cap)
                got = assert_counts_match_full_grids(*sides, self.SIZES)
            # the arrays themselves do not depend on the chunk size: the
            # pairs come in (a, b) order
            want = count_overlaps(*sides, self.SIZES)
            assert got.faults == want.faults == {}
            for field in ("area_a", "area_b", "a", "b", "inter"):
                value = getattr(got, field)
                assert value.dtype == np.int64 and value.tolist() == getattr(want, field).tolist(), field
            pairs = list(zip(got.a.tolist(), got.b.tolist()))
            assert pairs == sorted(set(pairs))

    def test_counts_the_shared_pixels_of_rle_masks(self):
        rng = np.random.default_rng(59)
        for _ in range(60):
            w, h = int(rng.integers(4, 40)), int(rng.integers(4, 40))
            a, b = ((encode_rle(random_mask(rng, h, w, p=0.05)), 0) for _ in range(2))
            one = assert_counts_match_full_grids([a], [b], [(w, h)])
            two = count_overlaps([b], [a], [(w, h)])
            assert one.inter.tolist() == two.inter.tolist()
        # foreground on the first and last columns, beside a polygon with the
        # same key that also spans the grid from border to border
        edges = np.zeros((6, 9), bool)
        edges[1:4, 0] = edges[2:6, 8] = edges[3] = True
        full_width = poly(rect_ring(-1, 2, 11, 3))
        assert_counts_match_full_grids([(encode_rle(edges), 0)], [(full_width, 0)], [(9, 6)])
        assert_counts_match_full_grids([(full_width, 0), (encode_rle(edges), 0)], [(encode_rle(edges), 0)], [(9, 6)])
        nothing = encode_rle(np.zeros((3, 3), bool))
        got = assert_counts_match_full_grids([(nothing, 0)], [(encode_rle(np.ones((3, 3), bool)), 0)], [(3, 3)])
        assert got.area_a.tolist() == [0] and got.a.size == 0

    def test_pairs_only_within_a_key(self):
        square = poly(rect_ring(2, 2, 10, 10))
        got = count_overlaps([(square, 0), (square, 1)], [(square, 1)], [(16, 16), (16, 16)])
        assert (got.a.tolist(), got.b.tolist(), got.inter.tolist()) == ([1], [0], [100])
        assert got.transposed().a.tolist() == [0] and got.transposed().area_a.tolist() == [100]

    def test_no_shapes(self):
        got = count_overlaps([], [], [])
        assert got.area_a.size == got.area_b.size == got.inter.size == 0

    def test_rle_faults_are_those_of_decode_rle_and_mask_of(self):
        square = poly(rect_ring(2, 2, 10, 10))
        faults = [
            (RleMask((3, -1, 14), 4, 4), SchemaError, "RLE mask has negative RLE counts"),
            (RleMask((3, 4), 4, 4), SchemaError, "RLE mask RLE counts sum 7 != 4x4 grid"),
            (RleMask((3, 4), 2, 2), SchemaError, "RLE mask RLE counts sum 7 != 2x2 grid"),  # and the grid
            (RleMask((16,), 4, 4), GeometryError, "RLE mask RLE grid 4x4 != image 16x16"),
        ]
        for rle, kind, message in faults:
            with pytest.raises(kind) as seen:
                mask_of(rle, 16, 16)
            assert str(seen.value) == message
            got = count_overlaps([(square, 0)], [(square, 0), (rle, 0)], [(16, 16)])
            assert list(got.faults) == [2] and type(got.faults[2]) is kind and str(got.faults[2]) == message
            # the faulty RLE counts as empty; the squares are still counted
            assert (got.area_a.tolist(), got.area_b.tolist(), got.inter.tolist()) == ([100], [100, 0], [100])
        # every faulty shape is reported, each with its own error, in
        # position order whatever the key order
        degenerate, bad_grid = poly([0, 0, 4, 4]), RleMask((16,), 4, 4)
        for keys in ((1, 0), (0, 1)):
            got = count_overlaps([(bad_grid, keys[0])], [(degenerate, keys[1])], [(16, 16)] * 2)
            assert [(at, str(exc)) for at, exc in got.faults.items()] == [
                (0, "RLE mask RLE grid 4x4 != image 16x16"),
                (1, "degenerate ring with 2 vertices"),
            ]
            assert isinstance(got.faults[1], DegenerateShape)

    def test_invalid_shapes_count_as_empty_and_are_reported(self):
        square, degenerate = poly(rect_ring(2, 2, 10, 10)), poly([0, 0, 4, 4])
        odd = poly(rect_ring(2, 2, 10, 10), [1, 1, 5, 1, 5, 5, 1])
        for bad, message in ((degenerate, "2 vertices"), (Polygons(()), "no rings"), (odd, "odd coordinate count 7")):
            got = count_overlaps([(square, 0)], [(bad, 0)], [(16, 16)])
            assert list(got.faults) == [1] and message in str(got.faults[1])
            assert isinstance(got.faults[1], GeometryError)
            assert got.area_a.tolist() == [100] and got.area_b.tolist() == [0] and got.inter.size == 0
            assert list(got.transposed().faults) == [0]
        # the grid-size check of mask_of
        got = count_overlaps([(RleMask((0, 4), 2, 2), 0)], [], [(3, 3)])
        assert str(got.faults[0]) == "RLE mask RLE grid 2x2 != image 3x3"

    @pytest.mark.parametrize("x, y", [(2**40, 2**40), (2**41 - 20, 2**40 + 12345)])
    def test_exact_on_a_grid_with_a_2_41_px_side(self, x, y):
        # rows and columns both span about 2**40 here, so (row, shape, column)
        # does not fit one int64 sort key: the runs must still pair exactly
        side = 2**41
        a = [(poly(rect_ring(x, y, 10, 10)), 0), (poly(rect_ring(1, 1, 5, 5)), 0)]
        b = [(poly(rect_ring(x + 5, y + 5, 10, 10)), 0), (poly(rect_ring(20, 20, 4, 4)), 0)]
        got = count_overlaps(a, b, [(side, side)])
        assert (got.area_a.tolist(), got.area_b.tolist()) == ([100, 25], [100, 16])
        assert (got.a.tolist(), got.b.tolist(), got.inter.tolist()) == ([0], [0], [25])
        toggles = raster._crossings(vertices([s for s, _ in a + b]), np.full(4, side), np.full(4, side))
        runs = sorted(zip(*(k.tolist() for k in raster._runs(*toggles))))
        boxes = [(0, x, y, 10), (1, 1, 1, 5), (2, x + 5, y + 5, 10), (3, 20, 20, 4)]
        assert runs == sorted((k, r, c, c + n) for k, c, r0, n in boxes for r in range(r0, r0 + n))

    @pytest.mark.parametrize("width, height", [(64, 2**52), (2**52, 2**52)])
    def test_exact_on_the_last_rows_of_a_2_52_px_side(self, width, height):
        # the last pixel center, 2**52 - 0.5, is still exact in float64
        last = rect_ring(width - 10, height - 10, 10, 10)
        half = rect_ring(width - 10.5, height - 10.5, 10, 10)
        got = count_overlaps([(poly(last), 0)], [(poly(half), 0)], [(width, height)])
        assert (got.area_a.tolist(), got.area_b.tolist(), got.inter.tolist()) == ([100], [100], [81])
        # the surface metrics of the pair equal those of its copy on the last
        # rows and columns of a 20 px grid, whose borders clip it alike
        near = (rect_ring(10, 10, 10, 10), rect_ring(9.5, 9.5, 10, 10), 20, 20)
        assert ring_pairs_metrics([(last, half, width, height)]) == [surface_reference(*near)]

    @pytest.mark.parametrize("width, height", [(2**52 + 1, 64), (64, 2**52 + 1), (2**64, 40)])
    def test_a_side_beyond_2_52_px_is_rejected(self, width, height):
        # every shape on the grid is reported, whatever its kind; the other
        # grid is still counted, and a side beyond int64 does not overflow
        square, rle = poly(rect_ring(0, 0, 10, 10)), RleMask((height * width,), height, width)
        got = count_overlaps([(square, 0), (square, 1)], [(rle, 1)], [(16, 16), (width, height)])
        assert list(got.faults) == [1, 2] and got.area_a.tolist() == [100, 0] and got.area_b.tolist() == [0]
        for exc in got.faults.values():
            assert type(exc) is GeometryError and str(exc) == f"grid {width}x{height} has a side beyond 2**52 px"
        with pytest.raises(GeometryError, match=r"side beyond 2\*\*52 px"):
            rasterize(square, width, height)

    def test_dense_scene_peak_stays_under_8_mb(self):
        # 40 images of 400 x 300 px, each with 30 detections and 30 ground
        # truths piled onto one spot, plus an RLE crowd covering the image
        rng = np.random.default_rng(71)
        w, h = 400, 300
        crowd = encode_rle(np.ones((h, w), bool))
        a, b = [], []
        for key in range(40):
            for side in (a, b):
                side += [(poly(*random_simple_rings(rng, max_vertices=40, width=w, height=h)), key) for _ in range(30)]
            b.append((crowd, key))
        tracemalloc.start()
        try:
            got = count_overlaps(a, b, [(w, h)] * 40)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.area_b[30] == w * h
        assert peak < 8 * 2**20, f"peak {peak / 2**20:.1f} MB"

    def test_one_key_of_many_shapes_peak_stays_under_8_mb(self):
        # 2,000 small squares on each side of one key: 4 M pair codes, of
        # which 2,000 pairs share pixels
        squares = [poly(rect_ring(4 * (i % 100), 4 * (i // 100), 2, 2)) for i in range(2000)]
        tracemalloc.start()
        try:
            got = count_overlaps([(s, 0) for s in squares], [(s, 0) for s in squares], [(400, 400)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.a.tolist() == got.b.tolist() == list(range(2000))
        assert got.inter.tolist() == [4] * 2000
        assert peak < 8 * 2**20, f"peak {peak / 2**20:.1f} MB"

    def test_wide_rle_crowds_peak_stays_under_4_mb(self):
        # 60 single-row images 4,000 px wide, each with a crowd of one run
        # across all its columns: few counts, but 4,000 column segments each
        w = 4000
        crowd = RleMask(counts=(0, w), height=1, width=w)
        square = poly(rect_ring(0, 0, 10, 1))
        tracemalloc.start()
        try:
            got = count_overlaps([(square, k) for k in range(60)], [(crowd, k) for k in range(60)], [(w, 1)] * 60)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.area_b.tolist() == [w] * 60
        assert got.inter.tolist() == [10] * 60
        assert peak < 4 * 2**20, f"peak {peak / 2**20:.1f} MB"


class TestChunks:
    """``raster._chunks`` cuts keys into runs for the overlap count, the
    run join and the box candidates."""

    @pytest.mark.parametrize(
        "cost, cap",
        [
            ([], 5),
            ([0, 0, 0], 5),
            ([0, 0, 7, 0, 3, 0, 0], 5),
            ([9, 1, 9], 5),
            ([2, 3, 0, 6, 0, 0, 1, 5, 5, 0, 12], 5),
            ([1] * 10, 1),
            ([0.0, 3.0, 2.0, 9.0, 0.0], 5),
            *[(np.random.default_rng(seed).integers(0, 12, size=40) * (seed % 3 > 0), 10) for seed in range(6)],
        ],
    )
    def test_runs_cover_the_keys_within_the_cap_and_cannot_grow(self, cost, cap):
        cost = np.asarray(cost)
        # a cut that never advances would yield forever: take at most one
        # run per key, and one more
        runs = list(itertools.islice(raster._chunks(cost, cap), cost.size + 1))
        if not cost.size:
            assert runs == [(0, 0)]
            return
        assert runs[0][0] == 0 and runs[-1][1] == cost.size
        for (lo, hi), (nxt, _) in zip(runs, runs[1:]):
            assert hi == nxt
        for k, (lo, hi) in enumerate(runs):
            assert lo < hi
            assert cost[lo:hi].sum() <= cap or hi - lo == 1
            if k < len(runs) - 1:
                assert cost[lo : hi + 1].sum() > cap


def diff_toggles(rle: RleMask) -> list:
    """The row toggles ``(row, col)`` of an RLE from its decoded mask: where
    a pixel differs from its left neighbour, the grid bordered by background."""
    rows, cols = np.nonzero(np.diff(decode_rle(rle), axis=1, prepend=False, append=False))
    return sorted(zip(rows.tolist(), cols.tolist()))


def random_rle(rng, height: int, width: int) -> RleMask:
    """Counts that cut the grid at random places, repeated cuts giving
    zero-length runs, and runs that wrap across columns."""
    cuts = np.sort(rng.integers(0, height * width + 1, size=int(rng.integers(0, 12))))
    return RleMask(tuple(np.diff(cuts, prepend=0, append=height * width).tolist()), height, width)


class TestRleReadOff:
    def check(self, rles):
        owner = np.arange(len(rles)) * 3 + 5
        got_owner, rows, cols = raster._rle_toggles(rles, owner)
        for k, rle in enumerate(rles):
            mine = got_owner == owner[k]
            assert sorted(zip(rows[mine].tolist(), cols[mine].tolist())) == diff_toggles(rle)
        assert np.isin(got_owner, owner).all()

    def test_equals_the_decoded_mask_on_random_grids(self):
        rng = np.random.default_rng(83)
        for _ in range(300):
            rles = [random_rle(rng, *(int(v) for v in rng.integers(1, 41, size=2))) for _ in range(rng.integers(1, 5))]
            self.check(rles)

    @pytest.mark.parametrize(
        "rle",
        [
            RleMask((1,), 1, 1),  # empty 1x1
            RleMask((0, 1), 1, 1),  # full 1x1
            RleMask((40 * 40,), 40, 40),
            RleMask((0, 40 * 40), 40, 40),  # one run over every column
            RleMask((0, 5, 0, 3), 4, 2),  # zero-length runs join two runs
            RleMask((0, 5, 0, 3), 2, 4),
            RleMask((0, 0, 0, 8), 8, 1),  # a single column
            RleMask((3, 0, 0, 5), 1, 8),  # a single row
            RleMask((2, 7, 3), 4, 3),  # a run across a whole column
            RleMask((4, 4, 4), 4, 3),  # full middle column
        ],
    )
    def test_edge_cases_equal_the_decoded_mask(self, rle):
        self.check([rle])
        self.check([rle, random_rle(np.random.default_rng(5), 7, 9), rle])

    def test_no_foreground_gives_no_toggles(self):
        owner, rows, cols = raster._rle_toggles([RleMask((6,), 2, 3), RleMask((0, 0, 4), 2, 2)], np.array([1, 2]))
        assert owner.size == rows.size == cols.size == 0

    def test_counts_areas_and_intersections_of_random_rles(self):
        rng = np.random.default_rng(89)
        for _ in range(40):
            w, h = (int(v) for v in rng.integers(1, 41, size=2))
            side = lambda: [(random_rle(rng, h, w), 0) for _ in range(rng.integers(0, 4))]  # noqa: E731
            assert_counts_match_full_grids(side(), side(), [(w, h)])

    def test_segm_cross_table_decodes_no_rle(self, monkeypatch, synthetic_a, synthetic_b):
        want = cross_table(synthetic_a, synthetic_b, ("segm",))
        assert any(isinstance(i.segmentation, RleMask) for i in synthetic_a.instances)

        def refuse(*args):
            raise AssertionError("an RLE was decoded")

        monkeypatch.setattr(raster, "decode_rle", refuse)
        assert cross_table(synthetic_a, synthetic_b, ("segm",)) == want


class TestRle:
    def test_column_major_decode_spec_example(self):
        mask = decode_rle(RleMask((1, 2, 1), 2, 2))
        # column-major: skip (0,0); set (1,0) and (0,1); skip (1,1)
        assert mask[1, 0] and mask[0, 1]
        assert not mask[0, 0] and not mask[1, 1]

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            m = random_mask(rng, int(rng.integers(1, 20)), int(rng.integers(1, 20)))
            assert np.array_equal(decode_rle(encode_rle(m)), m)

    def test_leading_zero_run_when_origin_foreground(self):
        m = np.ones((2, 2), dtype=bool)
        rle = encode_rle(m)
        assert rle.counts[0] == 0

    def test_count_sum_mismatch_rejected(self):
        with pytest.raises(SchemaError):
            decode_rle(RleMask((1, 2), 2, 2))

    def test_mask_of_grid_mismatch(self):
        with pytest.raises(GeometryError):
            mask_of(RleMask((0, 4), 2, 2), 3, 3)


class TestMorphology:
    def test_contour_of_square_is_perimeter(self):
        mask = rasterize(poly(rect_ring(2, 2, 10, 10)), 16, 16)
        assert contour(mask).sum() == 36

    def test_cross_erosion_drops_border(self):
        mask = np.ones((5, 5), dtype=bool)
        edge = contour(mask, footprint="cross")
        assert edge.sum() == 16  # all but the 3x3 core: grid edge counts as background
        assert not edge[1:4, 1:4].any()

    def test_square_footprint_erodes_diagonals_too(self):
        mask = np.zeros((5, 5), dtype=bool)
        mask[1:4, 1:4] = True
        mask[0, 0] = True
        centre = np.pad([[True]], 2)
        for footprint in ("cross", "square"):
            assert np.array_equal(contour(mask, footprint=footprint), mask & ~centre)
        mask[1, 1] = False  # a diagonal neighbour of the centre
        assert np.array_equal(contour(mask, footprint="cross"), mask & ~centre)
        assert np.array_equal(contour(mask, footprint="square"), mask)

    def test_single_pixel_is_its_own_contour(self):
        mask = np.zeros((3, 3), dtype=bool)
        mask[1, 1] = True
        assert np.array_equal(contour(mask), mask)


class TestEdt:
    def test_spec_pattern_three_four_five(self):
        src = np.zeros((8, 8), dtype=bool)
        src[0, 0] = True
        assert edt_squared(src)[4, 3] == 25

    def test_zero_on_sources(self):
        rng = np.random.default_rng(11)
        m = random_mask(rng, 12, 12)
        assert (edt_squared(m)[m] == 0).all()

    def test_empty_source_raises(self):
        with pytest.raises(GeometryError):
            edt_squared(np.zeros((4, 4), dtype=bool))

    @pytest.mark.parametrize("shape", [(4,), (2, 4, 4)])
    @pytest.mark.parametrize("fn", [edt_squared, contour], ids=lambda fn: fn.__name__)
    def test_non_2d_source_raises(self, fn, shape):
        with pytest.raises(GeometryError, match="-D"):
            fn(np.ones(shape, dtype=bool))

    def test_exact_on_random_masks(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            h, w = int(rng.integers(1, 40)), int(rng.integers(1, 40))
            m = random_mask(rng, h, w)
            assert np.array_equal(edt_squared(m), edt_squared_oracle(m))

    def test_translation_invariance(self):
        rng = np.random.default_rng(13)
        core = random_mask(rng, 10, 10)
        a = np.zeros((30, 30), dtype=bool)
        b = np.zeros((30, 30), dtype=bool)
        a[2:12, 3:13] = core
        b[9:19, 14:24] = core
        da, db = edt_squared(a), edt_squared(b)
        assert np.array_equal(da[2:12, 3:13], db[9:19, 14:24])

    def test_exact_on_ring_contours(self):
        # the surface pipeline feeds thin closed curves, where envelope pops go deep
        rng = np.random.default_rng(17)
        checked = 0
        while checked < 60:
            w, h = int(rng.integers(16, 72)), int(rng.integers(16, 72))
            rings = random_simple_rings(rng, n_rings=int(rng.integers(1, 3)), width=w, height=h)
            c = contour(rasterize(poly(*rings), w, h))
            if not c.any():
                continue
            assert np.array_equal(edt_squared(c), edt_squared_oracle(c))
            checked += 1

    def test_exact_on_single_pixels(self):
        rng = np.random.default_rng(19)
        for _ in range(40):
            h, w = int(rng.integers(1, 48)), int(rng.integers(1, 48))
            m = np.zeros((h, w), dtype=bool)
            m[rng.integers(h), rng.integers(w)] = True
            assert np.array_equal(edt_squared(m), edt_squared_oracle(m))

    @pytest.mark.parametrize("shape", [(1, 1), (1, 37), (37, 1), (1, 64), (64, 1)])
    def test_exact_on_single_row_and_column_grids(self, shape):
        rng = np.random.default_rng(29)
        for p in (0.0, 0.05, 0.5):
            m = random_mask(rng, *shape, p=p)
            assert np.array_equal(edt_squared(m), edt_squared_oracle(m))


class TestOverlap:
    def test_box_iou_shifted_square(self):
        assert box_iou_matrix((0, 0, 10, 10), (5, 0, 10, 10))[0, 0] == pytest.approx(1 / 3)

    def test_box_iou_disjoint_and_identical(self):
        assert box_iou_matrix((0, 0, 2, 2), (5, 5, 1, 1))[0, 0] == 0.0
        assert box_iou_matrix((1, 2, 3, 4), (1, 2, 3, 4))[0, 0] == 1.0

    def test_box_iou_matrix_agrees_with_scalar(self):
        rng = np.random.default_rng(17)
        a = rng.uniform(0, 20, size=(5, 4))
        b = rng.uniform(0, 20, size=(7, 4))
        mat = box_iou_matrix(a, b)
        for i in range(5):
            for j in range(7):
                assert mat[i, j] == pytest.approx(box_iou_oracle(a[i], b[j]), abs=1e-12)

    def test_box_overlaps_broadcast_over_leading_dimensions(self):
        rng = np.random.default_rng(19)
        a = rng.uniform(0, 20, size=(3, 5, 4))
        b = rng.uniform(0, 20, size=(3, 7, 4))
        inter, area_a, area_b = box_overlaps(a, b)
        assert inter.shape == (3, 5, 7) and area_a.shape == (3, 5, 1) and area_b.shape == (3, 1, 7)
        for c in range(3):
            assert np.array_equal(iou(inter[c], area_a[c], area_b[c]), box_iou_matrix(a[c], b[c]))
            for i in range(5):
                for j in range(7):
                    assert iou(inter[c, i, j], area_a[c, i, 0], area_b[c, 0, j]) == pytest.approx(
                        box_iou_oracle(a[c, i], b[c, j]), abs=1e-12
                    )

    def test_iou_crowd_rule_and_empty_denominators(self):
        inter = np.array([[50, 0], [0, 0]])
        area_a = np.array([[100], [0]])
        area_b = np.array([[100, 0]])
        assert iou(inter, area_a, area_b).tolist() == [[50 / 150, 0.0], [0.0, 0.0]]
        crowd = np.array([[True, False]])  # over the detection's own area
        assert iou(inter, area_a, area_b, crowd).tolist() == [[0.5, 0.0], [0.0, 0.0]]
        assert iou(0.0, 0.0, 0.0) == 0.0

    def test_mask_iou_shifted_square(self):
        a = rasterize(poly(rect_ring(0, 0, 10, 10)), 20, 20)
        b = rasterize(poly(rect_ring(5, 0, 10, 10)), 20, 20)
        assert mask_iou(a, b) == pytest.approx(50 / 150)

    def test_mask_iou_empty_union_is_zero(self):
        z = np.zeros((4, 4), dtype=bool)
        assert mask_iou(z, z) == 0.0

    def test_mask_iou_grid_mismatch(self):
        with pytest.raises(GeometryError):
            mask_iou(np.zeros((2, 2), bool), np.zeros((3, 3), bool))


class TestBounds:
    def test_bbox_of_mask_pixel_convention(self):
        m = np.zeros((10, 10), dtype=bool)
        m[2:5, 3:9] = True
        assert bbox_of_mask(m) == Box(3.0, 2.0, 6.0, 3.0)

    def test_bbox_of_polygon_continuous(self):
        b = bbox_of_polygon(poly([1.5, 2.25, 4.0, 2.25, 4.0, 7.5]))
        assert b == Box(1.5, 2.25, 2.5, 5.25)

    def test_bbox_of_empty_mask_raises(self):
        with pytest.raises(GeometryError):
            bbox_of_mask(np.zeros((3, 3), bool))
