import math

import numpy as np
import pytest

from binconformal.errors import ConfigurationError
from binconformal.simulation import (
    CALIBRATION,
    TEST,
    TRAIN,
    derive_rng,
    lognormal_dgp,
    split,
    zero_inflated_count_dgp,
)


class TestLognormalDgp:
    def test_log_mean_matches_generator(self):
        # E[log y] = E[x1] + E[x2] = 1.0
        ds = lognormal_dgp(100_000, seed=101)
        logy = np.log(ds.y)
        tol = 3 * logy.std() / np.sqrt(len(logy))
        assert abs(logy.mean() - 1.0) < tol

    def test_log_variance_matches_generator(self):
        # Var[log y] = 1/12 + 1/12 + 0.25
        ds = lognormal_dgp(100_000, seed=101)
        assert abs(np.log(ds.y).var(ddof=1) - (1 / 12 + 1 / 12 + 0.25)) < 0.0055

    def test_features_are_uniform_unit_square(self):
        ds = lognormal_dgp(10_000, seed=5)
        assert ds.features.shape == (10_000, 2)
        assert ds.features.min() >= 0.0 and ds.features.max() <= 1.0
        assert abs(ds.features.mean() - 0.5) < 0.02

    def test_same_seed_bit_identical(self):
        a = lognormal_dgp(500, seed=7)
        b = lognormal_dgp(500, seed=7)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.y, b.y)

    def test_different_seed_differs(self):
        a = lognormal_dgp(500, seed=7)
        b = lognormal_dgp(500, seed=8)
        assert not np.array_equal(a.y, b.y)

    def test_invalid_n(self):
        with pytest.raises(ConfigurationError):
            lognormal_dgp(0, seed=1)


class TestZeroInflatedCountDgp:
    def test_all_zero_when_prob_one(self):
        ds = zero_inflated_count_dgp(1000, zero_prob=1.0, seed=3)
        assert np.all(ds.y == 0.0)

    def test_zero_fraction_binomial(self):
        n = 100_000
        ds = zero_inflated_count_dgp(n, seed=102)
        tol = 3 * np.sqrt(0.867 * 0.133 / n)
        assert abs(np.mean(ds.y == 0) - 0.867) < tol

    def test_outcomes_are_nonnegative_integers(self):
        ds = zero_inflated_count_dgp(20_000, seed=11)
        assert np.all(ds.y >= 0)
        assert np.all(ds.y == np.floor(ds.y))

    def test_right_skew(self):
        ds = zero_inflated_count_dgp(50_000, seed=12)
        nonzero = ds.y[ds.y > 0]
        assert np.mean(nonzero) > np.median(nonzero)
        assert nonzero.max() > 149  # the heavy tail reaches the top bin

    def test_same_seed_bit_identical(self):
        a = zero_inflated_count_dgp(800, seed=9)
        b = zero_inflated_count_dgp(800, seed=9)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.y, b.y)

    def test_invalid_zero_prob(self):
        with pytest.raises(ConfigurationError):
            zero_inflated_count_dgp(10, zero_prob=0.0, seed=1)


class TestSplit:
    def test_exact_counts_small(self):
        ds = split(lognormal_dgp(10, seed=1), (0.7, 0.2, 0.1), seed=2)
        assert np.sum(ds.split == TRAIN) == 7
        assert np.sum(ds.split == CALIBRATION) == 2
        assert np.sum(ds.split == TEST) == 1

    def test_exact_counts_study_sizes(self):
        ds = split(lognormal_dgp(10_000, seed=1), (0.5, 0.25, 0.25), seed=2)
        assert np.sum(ds.split == TRAIN) == 5000
        assert np.sum(ds.split == CALIBRATION) == 2500
        assert np.sum(ds.split == TEST) == 2500

    def test_remainder_goes_to_train(self):
        ds = split(lognormal_dgp(11, seed=1), (0.5, 0.25, 0.25), seed=2)
        assert np.sum(ds.split == TRAIN) == 7  # floor gives 5, remainder 2
        assert np.sum(ds.split == CALIBRATION) == 2
        assert np.sum(ds.split == TEST) == 2

    def test_every_row_labeled_once(self):
        ds = split(lognormal_dgp(97, seed=4), (0.6, 0.2, 0.2), seed=5)
        assert sorted(np.unique(ds.split)) == sorted({TRAIN, CALIBRATION, TEST})
        assert len(ds.split) == 97

    def test_same_seed_identical_assignment(self):
        base = lognormal_dgp(200, seed=6)
        a = split(base, (0.5, 0.25, 0.25), seed=9)
        b = split(base, (0.5, 0.25, 0.25), seed=9)
        assert np.array_equal(a.split, b.split)

    def test_rows_accessor(self):
        ds = split(lognormal_dgp(40, seed=6), (0.5, 0.25, 0.25), seed=9)
        X_cal, y_cal = ds.rows(CALIBRATION)
        assert len(X_cal) == len(y_cal) == 10

    def test_unsplit_rows_raise(self):
        with pytest.raises(ConfigurationError):
            lognormal_dgp(10, seed=1).rows(TRAIN)

    @pytest.mark.parametrize("n, props, empty", [
        (3, (0.5, 0.25, 0.25), "calibration"),
        (9, (0.8, 0.1, 0.1), "calibration"),
        (19, (0.6, 0.35, 0.05), "test"),
    ])
    def test_empty_part_rejected(self, n, props, empty):
        with pytest.raises(ConfigurationError, match=f"the {empty} part"):
            split(lognormal_dgp(n, seed=1), props, seed=2)

    def test_invalid_proportions(self):
        ds = lognormal_dgp(10, seed=1)
        with pytest.raises(ConfigurationError):
            split(ds, (0.7, 0.3, 0.0), seed=1)
        with pytest.raises(ConfigurationError):
            split(ds, (0.7, 0.2, 0.2), seed=1)
        with pytest.raises(ConfigurationError, match="must be positive"):
            split(ds, (0.5, 0.5, math.nan), seed=1)


class TestDerivedStreams:
    def test_streams_are_independent(self):
        a = derive_rng(1, 0).normal(size=5)
        b = derive_rng(1, 1).normal(size=5)
        assert not np.array_equal(a, b)

    def test_streams_are_reproducible(self):
        assert np.array_equal(
            derive_rng(3, 1, 4).normal(size=5), derive_rng(3, 1, 4).normal(size=5)
        )
