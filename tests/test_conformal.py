import math

import numpy as np
import pytest

from binconformal.conformal import (
    bccp_contiguous,
    bccp_discontiguous,
    bccp_per_bin_interval,
    calibrate,
    finite_sample_quantile,
    grid_interval,
    scp_interval,
)
from binconformal.errors import ConfigurationError, DataError
from binconformal.intervals import BinPartition, PredictionInterval, bins_from_cutpoints

INF = math.inf


def two_bin_calibration(alpha=0.1, score1=1.0, score2=5.0, n_per_bin=19):
    """Calibration over bins [0,10) and [10,inf) with constant per-bin scores.

    With 19 records per bin and alpha=0.1 the per-bin rank is 18 <= 19, so
    each bin quantile equals its constant score exactly.
    """
    partition = bins_from_cutpoints([10.0], support_min=0.0)
    y_true = np.array([5.0] * n_per_bin + [15.0] * n_per_bin)
    y_pred = np.array([5.0 - score1] * n_per_bin + [15.0 - score2] * n_per_bin)
    return calibrate(y_true, y_pred, alpha, partition=partition, support_min=0.0)


class TestFiniteSampleQuantile:
    def test_rank_90_of_99(self):
        assert finite_sample_quantile(np.arange(1, 100), 0.1) == 90.0

    def test_single_score_is_infinite(self):
        assert finite_sample_quantile([5.0], 0.1) == INF

    def test_all_zero_scores(self):
        assert finite_sample_quantile([0.0, 0.0, 0.0], 0.5) == 0.0

    def test_exact_rank_boundary_not_pushed_to_infinity(self):
        # (n+1)(1-alpha) = 9 exactly for n=9, alpha=0.1; float drift in
        # (1-alpha) must not bump the rank past n
        assert finite_sample_quantile(np.arange(1, 10), 0.1) == 9.0

    def test_empty_scores_raise(self):
        with pytest.raises(DataError):
            finite_sample_quantile([], 0.1)

    def test_alpha_out_of_range(self):
        for alpha in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ConfigurationError):
                finite_sample_quantile([1.0, 2.0], alpha)

    def test_monotone_nonincreasing_in_alpha(self):
        rng = np.random.default_rng(12)
        scores = rng.exponential(size=40)
        alphas = np.linspace(0.02, 0.98, 25)
        values = [finite_sample_quantile(scores, a) for a in alphas]
        assert all(v1 >= v2 for v1, v2 in zip(values, values[1:]))

    def test_nondecreasing_under_new_max_score(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            scores = rng.exponential(size=rng.integers(2, 30))
            alpha = rng.uniform(0.05, 0.9)
            before = finite_sample_quantile(scores, alpha)
            after = finite_sample_quantile(
                np.append(scores, scores.max() + 1.0), alpha
            )
            assert after >= before


class TestScpInterval:
    def test_symmetric_interval(self):
        cal = calibrate([2.0] * 19, np.zeros(19), 0.1)
        assert cal.quantile == 2.0
        assert scp_interval(5.0, cal) == PredictionInterval(3.0, 7.0)

    def test_degenerate_with_zero_quantile(self):
        cal = calibrate([0.0] * 19, np.zeros(19), 0.1)
        assert scp_interval(5.0, cal) == PredictionInterval(5.0, 5.0)

    def test_infinite_quantile_clipped_to_support(self):
        cal = calibrate([1.0], np.zeros(1), 0.1, support_min=0.0)
        assert scp_interval(5.0, cal) == PredictionInterval(0.0, INF)

    def test_prediction_below_support_clamped(self):
        cal = calibrate([2.0] * 19, np.zeros(19), 0.1, support_min=0.0)
        assert scp_interval(-3.0, cal) == PredictionInterval(0.0, 2.0)


class TestCalibrate:
    def test_mismatched_lengths(self):
        with pytest.raises(DataError):
            calibrate([1.0, 2.0], [1.0], 0.1)

    def test_empty_records(self):
        with pytest.raises(DataError):
            calibrate([], [], 0.1)

    def test_outcome_below_support(self):
        with pytest.raises(DataError):
            calibrate([-1.0, 2.0], [0.0, 2.0], 0.1, support_min=0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_outcome_or_prediction_rejected(self, bad):
        y = np.arange(1.0, 21.0)
        for y_true, y_pred in ((np.append(y, bad), np.append(y, 1.0)),
                               (np.append(y, 1.0), np.append(y, bad))):
            with pytest.raises(DataError, match="finite"):
                calibrate(y_true, y_pred, 0.1)

    def test_empty_bin_raises_by_default(self):
        partition = bins_from_cutpoints([10.0], support_min=0.0)
        with pytest.raises(DataError, match="bin 2"):
            calibrate([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], 0.1, partition=partition,
                      support_min=0.0)

    def test_empty_bin_fallback_spans_whole_bin(self):
        partition = bins_from_cutpoints([10.0], support_min=0.0)
        cal = calibrate(
            np.linspace(1, 9, 25), np.linspace(1, 9, 25) + 0.5, 0.1,
            partition=partition, support_min=0.0, allow_empty_bins=True,
        )
        assert cal.bin_quantiles[2] == INF
        assert bccp_per_bin_interval(5.0, 2, cal) == PredictionInterval(10.0, INF)

    def test_scores_follow_true_outcome_bins(self):
        partition = bins_from_cutpoints([10.0], support_min=0.0)
        # y_true=5 in bin 1 even though y_pred=15 is in bin 2
        cal = calibrate([5.0, 15.0], [15.0, 5.0], 0.5, partition=partition,
                        support_min=0.0)
        assert list(cal.bin_indices) == [1, 2]


class TestBccpPerBin:
    def test_far_bin_is_empty(self):
        cal = two_bin_calibration()
        assert bccp_per_bin_interval(2.0, 1, cal) == PredictionInterval(1.0, 3.0)
        assert bccp_per_bin_interval(2.0, 2, cal) is None

    def test_interval_inside_first_bin(self):
        cal = two_bin_calibration(score1=0.2)
        piece = bccp_per_bin_interval(9.5, 1, cal)
        assert piece.lower == pytest.approx(9.3)
        assert piece.upper == pytest.approx(9.7)

    def test_infinite_quantile_returns_whole_bin(self):
        # a single calibration record in bin 2 forces an infinite quantile
        partition = bins_from_cutpoints([10.0], support_min=0.0)
        cal = calibrate(
            [5.0] * 19 + [15.0], [4.0] * 19 + [14.0], 0.1,
            partition=partition, support_min=0.0,
        )
        assert cal.bin_quantiles[2] == INF
        assert bccp_per_bin_interval(2.0, 2, cal) == PredictionInterval(10.0, INF)

    def test_segment_reduced_to_open_edge_is_empty(self):
        cal = two_bin_calibration()  # q1 = 1
        # [11-1, 11+1] meets [0,10) only at the excluded point 10
        assert bccp_per_bin_interval(11.0, 1, cal) is None

    def test_interval_cut_at_bin_edges(self):
        cal = two_bin_calibration()  # q2 = 5
        assert bccp_per_bin_interval(9.0, 2, cal) == PredictionInterval(10.0, 14.0)

    def test_bin_index_out_of_range(self):
        cal = two_bin_calibration()
        with pytest.raises(ConfigurationError):
            bccp_per_bin_interval(2.0, 3, cal)

    @pytest.mark.parametrize("support", [-INF, 0.0])
    @pytest.mark.parametrize("scores", [[0.0] * 19, [1.5] * 19, [0.5, 2.0]])
    def test_calibration_without_partition_is_one_bin_scp(self, support, scores):
        # a calibration built without bins holds the one all-support bin,
        # and BCCP over it is SCP to the sign of a zero: a -0.0 prediction
        # meeting a zero quantile at an edge of 0 gives a lower bound of 0.0
        cal = calibrate(scores, np.zeros(len(scores)), 0.1, support_min=support)
        assert cal.partition == BinPartition((), support)
        for y_hat in (-0.0, 0.0, -1.0, 2.0, 1e300):
            want = scp_interval(y_hat, cal)
            (got,) = bccp_discontiguous(y_hat, cal).segments
            for a, b in ((got.lower, want.lower), (got.upper, want.upper)):
                assert a == b and math.copysign(1, a) == math.copysign(1, b)


class TestBccpCombined:
    def test_touching_segments_merge(self):
        cal = two_bin_calibration()  # q1=1, q2=5
        result = bccp_discontiguous(9.0, cal)
        assert result.segments == (PredictionInterval(8.0, 14.0),)

    def test_discontiguous_segments(self):
        cal = two_bin_calibration(score1=0.2)  # q1=0.2, q2=5
        result = bccp_discontiguous(9.5, cal)
        assert result.n_segments == 2
        assert result.segments[0].lower == pytest.approx(9.3)
        assert result.segments[0].upper == pytest.approx(9.7)
        assert result.segments[1] == PredictionInterval(10.0, 14.5)

    def test_contiguous_is_hull(self):
        cal = two_bin_calibration(score1=0.2)
        assert bccp_contiguous(9.5, cal) == PredictionInterval(
            bccp_discontiguous(9.5, cal).segments[0].lower, 14.5
        )

    def test_nonempty_for_any_in_support_prediction(self):
        cal = two_bin_calibration(score1=0.0, score2=0.0)
        for y_hat in (0.0, 5.0, 9.999, 10.0, 250.0):
            assert not bccp_discontiguous(y_hat, cal).is_empty

    def test_prediction_below_support_clamped(self):
        cal = two_bin_calibration()
        assert bccp_discontiguous(-4.0, cal) == bccp_discontiguous(0.0, cal)

    def test_single_all_support_bin_equals_scp_exactly(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            n = rng.integers(2, 60)
            y_true = rng.lognormal(mean=1.0, sigma=0.8, size=n)
            y_pred = np.abs(y_true + rng.normal(scale=0.8, size=n))
            alpha = rng.uniform(0.05, 0.6)
            partition = BinPartition((), support_min=0.0)
            binned = calibrate(y_true, y_pred, alpha, partition=partition,
                               support_min=0.0)
            plain = calibrate(y_true, y_pred, alpha, support_min=0.0)
            for y_hat in rng.uniform(0, 20, size=5):
                via_bins = bccp_discontiguous(y_hat, binned)
                assert via_bins.n_segments == 1
                assert via_bins.segments[0] == scp_interval(y_hat, plain)

    def test_contiguous_contains_discontiguous_pointwise(self):
        rng = np.random.default_rng(77)
        partition = bins_from_cutpoints([2.0, 5.0, 11.0], support_min=0.0)
        y_true = rng.uniform(0, 20, size=120)
        y_pred = rng.uniform(0, 20, size=120)
        cal = calibrate(y_true, y_pred, 0.2, partition=partition, support_min=0.0)
        for y_hat in rng.uniform(0, 20, size=40):
            disc = bccp_discontiguous(y_hat, cal)
            cont = bccp_contiguous(y_hat, cal)
            for y in np.linspace(0, 25, 400):
                if disc.contains(y):
                    assert cont.contains(y)


class TestGridInterval:
    def test_matches_analytic_scp_on_fixed_example(self):
        scores = np.arange(1.0, 20.0)  # quantile at alpha=0.1 is 18
        cal = calibrate(scores, np.zeros(scores.size), 0.1)
        assert cal.quantile == 18.0
        grid = np.arange(-25.0, 25.0 + 1e-9, 0.01)
        result = grid_interval(0.0, scores, grid, alpha=0.1)
        assert result.n_segments == 1
        seg = result.segments[0]
        analytic = scp_interval(0.0, cal)
        assert abs(seg.lower - analytic.lower) <= 0.01 + 1e-12
        assert abs(seg.upper - analytic.upper) <= 0.01 + 1e-12

    def test_extreme_alpha_can_reject_every_grid_point(self):
        # with all-zero scores and alpha this high only y == y_hat is
        # accepted, and the grid does not contain it
        result = grid_interval(0.05, [0.0, 0.0], np.linspace(-5, 5, 101), alpha=0.9)
        assert result.is_empty

    def test_grid_restricted_to_bin_matches_per_bin_interval(self):
        cal = two_bin_calibration()  # q1 = 1
        step = 0.005
        grid = np.arange(0.0, 10.0, step)  # bin 1 only, right edge excluded
        result = grid_interval(9.0, cal.scores_in_bin(1), grid, alpha=0.1)
        piece = bccp_per_bin_interval(9.0, 1, cal)
        assert result.n_segments == 1
        assert abs(result.segments[0].lower - piece.lower) <= step + 1e-12
        assert abs(result.segments[0].upper - piece.upper) <= step + 1e-12

    def test_unsorted_grid_rejected(self):
        with pytest.raises(ConfigurationError):
            grid_interval(0.0, [1.0], [1.0, 0.5], alpha=0.1)

    def test_empty_scores_raise(self):
        with pytest.raises(DataError):
            grid_interval(0.0, [], [0.0, 1.0], alpha=0.1)


class TestMarginalValidity:
    def test_scp_coverage_within_finite_sample_bounds(self):
        # exchangeable scores: coverage lands in [1-a, 1-a + 1/(n+1)]
        # up to Monte Carlo error
        rng = np.random.default_rng(314)
        alpha, n_cal, n_test, reps = 0.1, 100, 100, 300
        rates = []
        for _ in range(reps):
            y_cal = rng.lognormal(mean=1.0, sigma=0.7, size=n_cal)
            y_test = rng.lognormal(mean=1.0, sigma=0.7, size=n_test)
            cal = calibrate(y_cal, np.full(n_cal, 2.0), alpha, support_min=0.0)
            iv = scp_interval(2.0, cal)
            rates.append(np.mean([iv.contains(y) for y in y_test]))
        mean_rate = float(np.mean(rates))
        se = float(np.std(rates, ddof=1)) / math.sqrt(reps)
        assert 1 - alpha - 3 * se <= mean_rate <= 1 - alpha + 1 / (n_cal + 1) + 3 * se
