import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annodiff.dataset import AnnotationDataset, CategoryRecord, ImageRecord, InstanceRecord
from annodiff.errors import StatsError
from annodiff.matching import MatchPair
from annodiff.raster import mask_of
from annodiff.shapes import Polygons
from annodiff.stats import (
    _pixel_areas,
    DatasetSummary,
    SizeBucket,
    compare,
    distance_histogram,
    size_bucket,
    size_bucket_of_dims,
    summarize,
)
from annodiff.surface import SurfaceDistanceResult

from conftest import rect_ring
from oracles import histogram_oracle


def results_of(values, metric="d_avg"):
    dummy = MatchPair(1, 1, 1, 1, 1.0)
    out = []
    for v in values:
        kw = {"d_avg": float(v), "d_max": float(v)}
        kw[metric] = float(v)
        out.append(SurfaceDistanceResult(dummy, kw["d_avg"], kw["d_max"], 10, 10))
    return out


class TestBuckets:
    @pytest.mark.parametrize(
        "area,expected",
        [
            (0, SizeBucket.VERY_SMALL),
            (100, SizeBucket.VERY_SMALL),
            (100.5, SizeBucket.SMALL),
            (1024, SizeBucket.SMALL),
            (1025, SizeBucket.MEDIUM),
            (9216, SizeBucket.MEDIUM),
            (9217, SizeBucket.LARGE),
            (1e9, SizeBucket.LARGE),
        ],
    )
    def test_area_boundaries(self, area, expected):
        assert size_bucket(area) is expected

    def test_negative_area_raises(self):
        with pytest.raises(StatsError, match="negative"):
            size_bucket(-0.5)

    def test_dims_rule_requires_both_within(self):
        assert size_bucket_of_dims(10, 10) is SizeBucket.VERY_SMALL
        assert size_bucket_of_dims(10, 11) is SizeBucket.SMALL
        assert size_bucket_of_dims(32, 96) is SizeBucket.MEDIUM
        assert size_bucket_of_dims(96.5, 5) is SizeBucket.LARGE

    def test_bucket_values_are_snake_case(self):
        assert [b.value for b in SizeBucket] == ["very_small", "small", "medium", "large"]


class TestSummarize:
    def test_fixture_counts(self, tiny_a):
        s = summarize(tiny_a)
        assert s.image_count == 3
        assert s.instance_count == 5
        assert s.crowd_count == 1
        assert s.vertex_count == 19
        assert s.per_category == {1: 3, 2: 2}
        assert s.size_buckets == {
            SizeBucket.VERY_SMALL: 1,
            SizeBucket.SMALL: 2,
            SizeBucket.MEDIUM: 1,
            SizeBucket.LARGE: 0,
        }

    def test_crowds_count_everywhere_but_buckets(self, tiny_a):
        s = summarize(tiny_a)
        assert sum(s.size_buckets.values()) == s.instance_count - s.crowd_count

    def test_recomputed_areas_can_move_buckets(self, tiny_a):
        stored = summarize(tiny_a)
        recomputed = summarize(tiny_a, buckets="recomputed")
        # triangle: stored area 200 (area formula) vs 190 rasterized pixels --
        # both small, so bucket counts agree here; totals must be conserved
        assert sum(recomputed.size_buckets.values()) == sum(stored.size_buckets.values())

    def test_recomputed_areas_are_whole_grid_pixel_counts(self, synthetic_a):
        want = {b: 0 for b in SizeBucket}
        for inst in synthetic_a.instances:
            if not inst.iscrowd:
                image = synthetic_a.image(inst.image_id)
                want[size_bucket(float(mask_of(inst.segmentation, image.width, image.height).sum()))] += 1
        assert summarize(synthetic_a, buckets="recomputed").size_buckets == want

    def test_recomputed_areas_keep_the_stored_area_of_shapes_built_past_the_parser(self):
        # an odd coordinate count, and a grid of zero width: rasterization
        # rejects both, so both keep their stored area; the good square is
        # recounted
        odd = Polygons(((0.0, 0.0, 9.0, 0.0, 9.0, 9.0, 0.0),))
        square = Polygons((tuple(map(float, rect_ring(0, 0, 4, 4))),))
        instances = (
            InstanceRecord(1, 1, 1, odd, (0.0, 0.0, 9.0, 9.0), 999.0, False),
            InstanceRecord(2, 2, 1, square, (0.0, 0.0, 0.0, 4.0), 999.0, False),
            InstanceRecord(3, 1, 1, square, (0.0, 0.0, 4.0, 4.0), 999.0, False),
        )
        images = (ImageRecord(1, 20, 20, "a.png"), ImageRecord(2, 0, 20, "b.png"))
        ds = AnnotationDataset(images, (CategoryRecord(1, "c"),), instances)
        assert _pixel_areas(ds, instances) == {3: 16}
        assert summarize(ds, buckets="recomputed").size_buckets == {
            SizeBucket.VERY_SMALL: 1,
            SizeBucket.SMALL: 2,
            SizeBucket.MEDIUM: 0,
            SizeBucket.LARGE: 0,
        }

    def test_dims_buckets_use_bbox_extents(self, tiny_a):
        s = summarize(tiny_a, buckets="dims")
        # ann 1 bbox 30x40 -> medium; ann 2 20x20 and ann 3 20x10 -> small;
        # ann 4 spans 71x71 (two distant rings) -> medium, though its area
        # (100 px) put it in very_small under the area rule
        assert s.size_buckets == {
            SizeBucket.VERY_SMALL: 0,
            SizeBucket.SMALL: 2,
            SizeBucket.MEDIUM: 2,
            SizeBucket.LARGE: 0,
        }

    def test_bad_buckets_rejected(self, tiny_a):
        with pytest.raises(ValueError, match="buckets must be 'stored', 'recomputed' or 'dims'"):
            summarize(tiny_a, buckets="guessed")



def summarize_by_instance(ds, buckets):
    """The per-instance loop that :func:`summarize` replaces, as the
    reference: each bucketed instance goes through the scalar rule."""
    areas = _pixel_areas(ds, [inst for inst in ds.instances if not inst.iscrowd]) if buckets == "recomputed" else {}
    per_category = Counter()
    size_buckets = {b: 0 for b in SizeBucket}
    crowd_count = vertex_count = 0
    for inst in ds.instances:
        per_category[inst.category_id] += 1
        if isinstance(inst.segmentation, Polygons):
            vertex_count += inst.segmentation.vertex_count
        if inst.iscrowd:
            crowd_count += 1
            continue
        try:
            if buckets == "dims":
                bucket = size_bucket_of_dims(inst.bbox[2], inst.bbox[3])
            else:
                bucket = size_bucket(areas.get(inst.id, inst.area))
        except StatsError as e:
            raise StatsError(f"annotation {inst.id} has {e}") from None
        size_buckets[bucket] += 1
    return DatasetSummary(len(ds.images), len(ds.instances), crowd_count, vertex_count, dict(per_category), size_buckets)


EDGE_VALUES = [0.0, -0.0, 5.0, 10.0, 10.5, 32.0, 96.0, 96.5, 100.0, 100.5, 1024.0, 1025.0, 9216.0, 9217.0, 1e9, math.nan]


class TestSummarizeAgainstTheLoop:
    @pytest.mark.parametrize("buckets", ["stored", "recomputed", "dims"])
    @pytest.mark.parametrize("seed", range(12))
    def test_equals_the_per_instance_loop(self, synthetic_a, buckets, seed):
        # stored areas and box sides on every bound, NaNs, and in some
        # seeds negative values, of crowds too: the same summary, or the
        # same first error, as the loop gives
        rng = np.random.default_rng(seed)
        instances = []
        for inst in synthetic_a.instances:
            area, w, h = (float(rng.choice(EDGE_VALUES)) for _ in range(3))
            if seed % 3 and rng.random() < 0.02:
                area, w, h = -float(rng.integers(1, 9)), -0.5, float(rng.choice([-2.0, 3.0]))
            instances.append(inst._replace(area=area, bbox=(*inst.bbox[:2], w, h), iscrowd=inst.iscrowd or rng.random() < 0.05))
        ds = AnnotationDataset(synthetic_a.images, synthetic_a.categories, tuple(instances), synthetic_a.extra)

        def outcome(fn):
            try:
                return fn()
            except StatsError as e:
                return str(e)

        want = outcome(lambda: summarize_by_instance(ds, buckets))
        assert outcome(lambda: summarize(ds, buckets=buckets)) == want
        if seed % 3 == 0:
            assert isinstance(want, DatasetSummary)

    def test_negative_values_are_named_as_the_scalar_rules_name_them(self, tiny_a):
        first = tiny_a.instances[0]
        ds = AnnotationDataset(
            tiny_a.images, tiny_a.categories, (first._replace(area=-5.0, bbox=(*first.bbox[:2], -1.5, 2.0)),), tiny_a.extra
        )
        with pytest.raises(StatsError, match=f"^annotation {first.id} has negative area -5.0$"):
            summarize(ds)
        with pytest.raises(StatsError, match=f"^annotation {first.id} has negative extent -1.5x2.0$"):
            summarize(ds, buckets="dims")

class TestCompare:
    def test_delta_is_target_minus_source(self, tiny_a, tiny_b):
        delta = compare(summarize(tiny_a), summarize(tiny_b))
        assert delta.instance_delta == 3 - 5
        assert delta.crowd_delta == -1
        assert delta.image_delta == 0
        assert delta.per_category == {1: -1, 2: -1}
        assert delta.categories_where_target_greater == 0

    def test_disjoint_categories_union(self, tiny_a, tiny_b):
        a = summarize(tiny_a)
        b = summarize(tiny_b)
        b.per_category = {3: 4}
        delta = compare(a, b)
        assert delta.per_category == {1: -3, 2: -2, 3: 4}
        assert delta.categories_where_target_greater == 1

    def test_self_compare_is_zero(self, tiny_a):
        delta = compare(summarize(tiny_a), summarize(tiny_a))
        assert delta.instance_delta == 0
        assert all(v == 0 for v in delta.per_category.values())
        assert all(v == 0 for v in delta.size_buckets.values())


class TestHistogram:
    def test_no_values_above_floor_raises(self):
        with pytest.raises(StatsError, match="one pixel"):
            distance_histogram(results_of([0.2, 0.9, 1.0]))

    def test_conservation_and_shape(self):
        rng = np.random.default_rng(5)
        values = rng.uniform(0.0, 8.0, size=400)
        h = distance_histogram(results_of(values), bins=50)
        assert h.included + h.excluded_below + h.overflow == h.total == 400
        assert sum(h.counts) == h.included
        assert len(h.edges) == 51 and len(h.counts) == 50
        assert h.edges[0] == 1.0 and h.edges[-1] == h.clip
        assert all(e1 < e2 for e1, e2 in zip(h.edges, h.edges[1:]))

    def test_matches_oracle(self):
        rng = np.random.default_rng(12)
        for trial in range(20):
            n = int(rng.integers(2, 120))
            bins = int(rng.integers(1, 60))
            values = rng.uniform(0.5, 6.0, size=n)
            if not (values > 1.0).any():
                continue
            h = distance_histogram(results_of(values), bins=bins)
            want = histogram_oracle(values.tolist(), bins)
            assert h.mean == pytest.approx(want["mean"], rel=1e-12)
            assert h.std == pytest.approx(want["std"], rel=1e-12)
            assert h.clip == pytest.approx(want["clip"], rel=1e-12)
            assert h.counts == want["counts"]
            assert h.overflow == want["overflow"]
            assert h.excluded_below == want["excluded_below"]

    def test_identical_values_land_in_last_bin(self):
        h = distance_histogram(results_of([2.5] * 7), bins=10)
        assert h.std == 0.0 and h.clip == h.mean == 2.5
        assert h.counts == [0] * 9 + [7]
        assert h.overflow == 0

    def test_population_std_not_sample(self):
        h = distance_histogram(results_of([2.0, 4.0]))
        assert h.mean == 3.0
        assert h.std == 1.0  # ddof=0; sample std would be sqrt(2)

    def test_metric_selects_field(self):
        dummy = MatchPair(1, 1, 1, 1, 1.0)
        rs = [SurfaceDistanceResult(dummy, 0.5, 3.0, 4, 4)] * 5
        with pytest.raises(StatsError):
            distance_histogram(rs, metric="d_avg")
        h = distance_histogram(rs, metric="d_max")
        assert h.included == 5

    def test_bad_metric_and_bins_rejected(self):
        rs = results_of([2.0])
        with pytest.raises(ValueError):
            distance_histogram(rs, metric="d_median")
        with pytest.raises(ValueError):
            distance_histogram(rs, bins=0)

    @settings(max_examples=60)
    @given(
        st.lists(st.floats(0.25, 16.0, allow_nan=False), min_size=1, max_size=80),
        st.integers(1, 40),
    )
    def test_conservation_property(self, values, bins):
        if not any(v > 1.0 for v in values):
            with pytest.raises(StatsError):
                distance_histogram(results_of(values), bins=bins)
            return
        h = distance_histogram(results_of(values), bins=bins)
        assert h.included + h.excluded_below + h.overflow == h.total == len(values)
        assert sum(h.counts) == h.included
        assert h.edges[0] == 1.0
        assert h.edges[-1] == pytest.approx(h.clip, abs=0)

    def test_additivity_of_counts_under_concatenation(self):
        # histogramming a+b with frozen edges equals summing per-part counts;
        # our edges are data-dependent, so check the invariant on raw counting
        rng = np.random.default_rng(3)
        a = rng.uniform(1.2, 4.0, 64)
        b = rng.uniform(1.2, 4.0, 64)
        whole = distance_histogram(results_of(np.concatenate([a, b])), bins=12)
        assert whole.total == 128
        assert whole.excluded_below == 0
