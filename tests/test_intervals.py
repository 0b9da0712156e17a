import math

import numpy as np
import pytest

from binconformal import pipelines
from binconformal.conformal import calibrate
from binconformal.errors import ConfigurationError, DataError
from binconformal.intervals import (
    IntervalSet,
    PredictionInterval,
    bins_from_cutpoints,
    bins_from_percentiles,
    bins_from_spec,
    union,
)
from binconformal.models import OutcomeTransform
from binconformal.pipelines import make_intervals

INF = math.inf


class TestPredictionInterval:
    def test_lower_above_upper_rejected(self):
        with pytest.raises(ValueError):
            PredictionInterval(3.0, 1.0)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            PredictionInterval(float("nan"), 1.0)

    def test_degenerate_allowed(self):
        iv = PredictionInterval(3.0, 3.0)
        assert iv.width == 0.0
        assert iv.contains(3.0)

    def test_unbounded_upper(self):
        iv = PredictionInterval(0.0, INF)
        assert iv.width == INF
        assert iv.contains(1e12)

    def test_contains_is_closed(self):
        iv = PredictionInterval(1.0, 2.0)
        assert iv.contains(1.0) and iv.contains(2.0)
        assert not iv.contains(2.0000001)

    def test_int_inputs_coerced(self):
        assert PredictionInterval(1, 3) == PredictionInterval(1.0, 3.0)


class TestUnion:
    def test_overlap_merges(self):
        s = union([PredictionInterval(1, 3), PredictionInterval(2, 5)])
        assert s.segments == (PredictionInterval(1, 5),)

    def test_disjoint_preserved(self):
        s = union([PredictionInterval(1, 2), PredictionInterval(4, 5)])
        assert s.segments == (PredictionInterval(1, 2), PredictionInterval(4, 5))

    def test_empty_input(self):
        assert union([]).is_empty
        assert union([]).total_width() == 0.0

    def test_touching_endpoints_merge(self):
        s = union([PredictionInterval(1, 2), PredictionInterval(2, 3)])
        assert s.segments == (PredictionInterval(1, 3),)

    def test_degenerate_absorbed(self):
        s = union([PredictionInterval(1, 4), PredictionInterval(2, 2)])
        assert s.segments == (PredictionInterval(1, 4),)

    def test_union_preserves_membership_on_grid(self):
        # segments must cover exactly the same points as the raw inputs
        rng = np.random.default_rng(20240817)
        for _ in range(50):
            k = rng.integers(1, 8)
            ivs = []
            for _ in range(k):
                lo = rng.uniform(-10, 10)
                ivs.append(PredictionInterval(lo, lo + rng.uniform(0, 5)))
            merged = union(ivs)
            for y in np.linspace(-12, 17, 300):
                raw = any(iv.contains(y) for iv in ivs)
                assert merged.contains(y) == raw

    def test_union_sorted_and_disjoint(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            ivs = []
            for _ in range(rng.integers(1, 10)):
                lo = rng.uniform(-5, 5)
                ivs.append(PredictionInterval(lo, lo + rng.uniform(0, 2)))
            segs = union(ivs).segments
            for a, b in zip(segs, segs[1:]):
                assert a.upper < b.lower  # strictly separated after merging


class TestHull:
    def test_spanning(self):
        s = union([PredictionInterval(1, 2), PredictionInterval(4, 5)])
        assert s.hull() == PredictionInterval(1, 5)

    def test_degenerate(self):
        assert union([PredictionInterval(3, 3)]).hull() == PredictionInterval(3, 3)

    def test_unbounded(self):
        s = union([PredictionInterval(0, 1), PredictionInterval(10, INF)])
        assert s.hull() == PredictionInterval(0, INF)

    def test_empty_set_raises(self):
        with pytest.raises(DataError):
            IntervalSet().hull()

    def test_hull_contains_every_input(self):
        rng = np.random.default_rng(99)
        for _ in range(30):
            ivs = []
            for _ in range(rng.integers(1, 6)):
                lo = rng.uniform(-5, 5)
                ivs.append(PredictionInterval(lo, lo + rng.uniform(0, 3)))
            h = union(ivs).hull()
            for iv in ivs:
                assert h.lower <= iv.lower and iv.upper <= h.upper


class TestSetQueries:
    def test_contains_gap(self):
        s = union([PredictionInterval(1, 2), PredictionInterval(4, 5)])
        assert not s.contains(3.0)
        assert s.contains(4.0)

    def test_contains_closed_endpoint(self):
        assert union([PredictionInterval(1, 2)]).contains(2.0)

    def test_total_width(self):
        s = union([PredictionInterval(1, 2), PredictionInterval(4, 6)])
        assert s.total_width() == 3.0

    def test_total_width_infinite(self):
        s = union([PredictionInterval(0, 1), PredictionInterval(5, INF)])
        assert s.total_width() == INF


class TestBinPartition:
    def test_counts_and_bounds(self):
        p = bins_from_cutpoints([1, 3, 8, 21, 55, 149], support_min=0.0)
        assert p.n_bins == 7
        assert p.bin_bounds(1) == (0.0, 1.0)
        assert p.bin_bounds(2) == (1.0, 3.0)
        assert p.bin_bounds(5) == (21.0, 55.0)
        assert p.bin_bounds(7) == (149.0, INF)

    def test_zero_versus_nonzero_split(self):
        p = bins_from_cutpoints([1], support_min=0.0)
        assert p.n_bins == 2
        assert p.assign(0) == 1
        assert p.assign(1) == 2
        assert p.assign(0.5) == 1

    def test_non_increasing_cutpoints_rejected(self):
        with pytest.raises(ConfigurationError):
            bins_from_cutpoints([3, 2], support_min=0.0)
        with pytest.raises(ConfigurationError):
            bins_from_cutpoints([1, 1], support_min=0.0)

    def test_cutpoint_at_support_min_rejected(self):
        with pytest.raises(ConfigurationError):
            bins_from_cutpoints([0], support_min=0.0)

    def test_empty_cutpoints_single_bin(self):
        p = bins_from_cutpoints([], support_min=0.0)
        assert p.n_bins == 1
        assert p.bin_bounds(1) == (0.0, INF)

    def test_assign_breakpoint_goes_right(self):
        p = bins_from_cutpoints([1, 3], support_min=-INF)
        assert p.assign(1.0) == 2
        assert p.assign(0.999) == 1
        assert p.assign(1e9) == 3

    def test_assign_below_support_raises(self):
        p = bins_from_cutpoints([1, 3], support_min=0.0)
        with pytest.raises(DataError):
            p.assign(-0.5)

    def test_assign_is_total_and_consistent(self):
        p = bins_from_cutpoints([1, 3, 8], support_min=0.0)
        rng = np.random.default_rng(5)
        ys = rng.uniform(0, 20, size=200)
        idx = p.assign_many(ys)
        for y, i in zip(ys, idx):
            assert p.assign(y) == i
            lo, hi = p.bin_bounds(int(i))
            assert lo <= y < hi
            # no other bin contains it
            for j in range(1, p.n_bins + 1):
                if j != i:
                    lo2, hi2 = p.bin_bounds(j)
                    assert not (lo2 <= y < hi2)

    def test_transformed_partition(self, monkeypatch):
        # the partition make_intervals hands calibrate on the log1p scale
        seen = {}

        def spy(*args, **kwargs):
            seen.update(kwargs)
            return calibrate(*args, **kwargs)

        monkeypatch.setattr(pipelines, "calibrate", spy)
        p = bins_from_cutpoints([1, 3, 8], support_min=0.0)
        y = [0.0, 0.5, 1.0, 2.0, 3.0, 7.9, 8.0, 100.0]
        make_intervals("bccp-d", y, y, y, alpha=0.1,
                       transform=OutcomeTransform.LOG1P, bins=p)
        q = seen["partition"]
        assert q.support_min == 0.0
        assert q.breakpoints == tuple(np.log1p([1.0, 3.0, 8.0]))
        # bin membership is preserved under a monotone map
        for v in y:
            assert p.assign(v) == q.assign(np.log1p(v))


class TestBinsFromPercentiles:
    def test_quartiles_of_1_to_100(self):
        p = bins_from_percentiles(np.arange(1, 101), k=4)
        assert p.breakpoints == (25.75, 50.5, 75.25)

    def test_constant_data_rejected(self):
        with pytest.raises(DataError):
            bins_from_percentiles([5, 5, 5, 5], k=2)

    def test_half_zeros_median_split(self):
        y = np.concatenate([np.zeros(100), np.arange(1, 101)])
        p = bins_from_percentiles(y, k=2)
        assert p.breakpoints == (0.5,)
        counts = np.bincount(p.assign_many(y), minlength=3)
        assert counts[1] == 100  # all zeros land in bin 1
        assert counts[2] == 100

    def test_duplicate_breakpoints_collapse_with_warning(self):
        y = np.concatenate([np.zeros(90), np.arange(1, 11)])
        with pytest.warns(UserWarning, match="collapsed"):
            p = bins_from_percentiles(y, k=4)
        assert p.n_bins < 4

    def test_breakpoints_at_support_min_dropped(self):
        y = np.concatenate([np.zeros(90), np.arange(1, 11)])
        with pytest.warns(UserWarning):
            p = bins_from_percentiles(y, k=4, support_min=0.0)
        assert all(b > 0.0 for b in p.breakpoints)

    def test_breakpoint_at_the_minimum_dropped(self):
        # without a support floor a breakpoint at the smallest value would
        # open with the empty bin [-inf, 0.0)
        y = np.concatenate([np.zeros(36), [1.0, 2.0, 3.0, 4.0]])
        with pytest.warns(UserWarning, match="collapsed"):
            p = bins_from_percentiles(y, k=4)
        assert p.breakpoints == ()
        y = np.concatenate([np.zeros(20), np.arange(1.0, 21.0)])
        with pytest.warns(UserWarning, match="reduced to 3"):
            p = bins_from_percentiles(y, k=4)
        assert p.breakpoints[0] > 0.0
        assert np.bincount(p.assign_many(y))[1:].all()

    def test_k_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError):
            bins_from_percentiles([1.0, 2.0, 3.0], k=5)
        with pytest.raises(ConfigurationError):
            bins_from_percentiles(np.arange(10), k=1)

    def test_balanced_counts_on_distinct_values(self):
        rng = np.random.default_rng(11)
        for k in (2, 4, 5):
            y = rng.normal(size=237)
            p = bins_from_percentiles(y, k=k)
            counts = np.bincount(p.assign_many(y))[1:]
            assert counts.max() - counts.min() <= 1


class TestBinsFromSpec:
    def test_percentiles(self):
        y = np.arange(1, 101)
        assert bins_from_spec("percentiles:4", y, -INF) == bins_from_percentiles(y, k=4)

    def test_cutpoints(self):
        assert bins_from_spec("1,8,55", None, -INF) == bins_from_cutpoints(
            [1.0, 8.0, 55.0], support_min=-INF
        )

    @pytest.mark.parametrize("spec", ["percentiles:x", "1,,2"])
    def test_unparsable_spec_is_config_error(self, spec):
        with pytest.raises(ConfigurationError, match="cannot parse bin spec"):
            bins_from_spec(spec, np.arange(10.0), -INF)

    def test_support_min_passed_through(self):
        y = np.arange(1, 101)
        assert bins_from_spec("1,3", y, 0.0).support_min == 0.0
        assert bins_from_spec("percentiles:2", y, 0.0) == bins_from_percentiles(
            y, k=2, support_min=0.0
        )
        with pytest.raises(ConfigurationError):
            bins_from_spec("1,3", y, 2.0)  # first cutpoint not above support_min
