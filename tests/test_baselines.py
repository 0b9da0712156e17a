import math
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.special import ndtri
from scipy.stats import nbinom, norm, poisson

from binconformal import baselines
from binconformal.baselines import (
    QuantRegFit,
    QuantRegModel,
    bootstrap_intervals,
    estimate_nb_dispersion,
    lognormal_interval,
    negbinom_intervals,
    normal_quantile,
    pinball_loss,
    poisson_intervals,
    quantreg_fit,
    quantreg_pair,
    residual_sigma,
)
from binconformal.errors import ConfigurationError, DataError, NumericalError
from binconformal.intervals import PredictionInterval
from binconformal.models import LinearModel, OutcomeTransform, predict
from binconformal.pipelines import make_intervals

IDENTITY = OutcomeTransform.IDENTITY
LOG = OutcomeTransform.LOG
LOG1P = OutcomeTransform.LOG1P


class TestBootstrap:
    def test_zero_residuals_degenerate(self):
        iv = bootstrap_intervals([4.2], np.zeros(50), 0.1, rng=0)[0].segments[0]
        assert iv == PredictionInterval(4.2, 4.2)

    def test_symmetric_two_point_pool(self):
        residuals = np.array([-1.0, 1.0] * 50)
        iv = bootstrap_intervals([10.0], residuals, alpha=0.5, n_draws=4000, rng=3)[0].segments[0]
        assert iv.lower == pytest.approx(9.0, abs=1e-9)
        assert iv.upper == pytest.approx(11.0, abs=1e-9)

    def test_bounds_stay_on_the_residuals_scale(self):
        # log-scale residuals around a log-scale prediction: the bounds are
        # not exponentiated here, the pipeline does that
        residuals = np.array([-0.1, 0.1] * 50)
        iv = bootstrap_intervals([1.0], residuals, alpha=0.5, n_draws=4000, rng=3)[0].segments[0]
        assert iv.lower == pytest.approx(0.9, abs=1e-9)
        assert iv.upper == pytest.approx(1.1, abs=1e-9)

    def test_skewed_pool_reflects_into_interval(self):
        # basic form: a long right tail in the errors stretches the LOWER
        # bound, not the upper one
        residuals = np.array([-1.0] * 80 + [10.0] * 20)
        iv = bootstrap_intervals([0.0], residuals, alpha=0.2, n_draws=4000, rng=6)[0].segments[0]
        assert iv.lower == pytest.approx(-10.0, abs=1e-9)
        assert iv.upper == pytest.approx(1.0, abs=1e-9)

    def test_clamped_at_support(self):
        # residuals of +-5 around 10, so the raw interval at 1.0 is [-4, 6]
        y_pred = np.full(100, 10.0)
        y_true = y_pred + np.array([-5.0, 5.0] * 50)
        result = make_intervals("bootstrap", y_true, y_pred, [1.0], alpha=0.5,
                                n_draws=2000, rng=1, support_min=0.0)
        assert result.sets[0].segments[0].lower == 0.0

    def test_endpoints_stable_under_doubling_draws(self):
        rng = np.random.default_rng(55)
        residuals = rng.normal(size=200)
        a = bootstrap_intervals([0.0], residuals, 0.1, n_draws=2000, rng=10)[0].segments[0]
        b = bootstrap_intervals([0.0], residuals, 0.1, n_draws=4000, rng=11)[0].segments[0]
        assert abs(a.lower - b.lower) < 0.1
        assert abs(a.upper - b.upper) < 0.1

    def test_same_seed_is_deterministic(self):
        residuals = np.random.default_rng(2).normal(size=80)
        a = bootstrap_intervals([1.0], residuals, 0.2, rng=42)[0].segments[0]
        b = bootstrap_intervals([1.0], residuals, 0.2, rng=42)[0].segments[0]
        assert a == b

    def test_batch_matches_independent_columns(self):
        residuals = np.random.default_rng(4).normal(size=60)
        ivs = bootstrap_intervals([0.0, 10.0], residuals, 0.2, n_draws=2000, rng=9)
        assert len(ivs) == 2
        # shifting the prediction shifts the interval, width stays comparable
        assert abs(ivs[1].total_width() - ivs[0].total_width()) < 0.5

    def test_empty_pool_raises(self):
        with pytest.raises(DataError):
            bootstrap_intervals([0.0], np.array([]), 0.1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_pool_raises(self, bad):
        with pytest.raises(DataError, match="NaN or infinite"):
            bootstrap_intervals([0.0], np.array([0.5, bad, -1.0]), 0.1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_prediction_raises(self, bad):
        with pytest.raises(DataError, match="bootstrap predictions must be finite"):
            bootstrap_intervals([bad, 1.0], np.ones(5), 0.1)

    @pytest.mark.parametrize("seed", [-1, (3, -1), 1.5, ((3, 4), 2)])
    def test_invalid_seed_rejected(self, seed):
        with pytest.raises(ConfigurationError, match="seeds must be non-negative integers"):
            bootstrap_intervals([0.0], np.ones(5), 0.1, rng=seed)

    def test_too_few_draws_rejected(self):
        with pytest.raises(ConfigurationError):
            bootstrap_intervals([0.0], np.ones(5), 0.1, n_draws=50)


def one_shot_bootstrap(y_hats, res, alpha, n_draws, rng):
    """The whole-batch bootstrap: one (n, n_draws) draw, one quantile call."""
    y_hats = np.asarray(y_hats, dtype=float).ravel()
    idx = np.random.default_rng(rng).integers(0, res.size, size=(y_hats.size, n_draws))
    lo, hi = np.quantile(y_hats[:, None] - res[idx], [alpha / 2, 1 - alpha / 2], axis=1)
    return lo, hi


def assert_same_bytes(batch, lo, hi):
    assert batch.lower.shape == (lo.size, 1)
    assert batch.lower[:, 0].tobytes() == lo.tobytes()
    assert batch.upper[:, 0].tobytes() == hi.tobytes()


class TestBootstrapBlocks:
    """The row-block kernel against the one-shot formula, byte for byte."""

    @pytest.mark.parametrize("n_draws", [101, 2000, 2001])
    @pytest.mark.parametrize("rows", [
        pytest.param(lambda block: 0, id="0"),
        pytest.param(lambda block: 1, id="1"),
        pytest.param(lambda block: block - 1, id="block-1"),
        pytest.param(lambda block: block, id="block"),
        pytest.param(lambda block: block + 1, id="block+1"),
        pytest.param(lambda block: 3 * block + 7, id="3*block+7"),
    ])
    def test_matches_one_shot(self, rows, n_draws):
        n = rows(baselines._block_rows(n_draws))
        data = np.random.default_rng(n_draws + n)
        # signed zeros among the predictions: with a zero pool their sign
        # must survive the subtraction and the quantile
        y = data.normal(size=n)
        y[::5] = 0.0
        y[1::5] = -0.0
        for size in (1, 5000):
            residuals = np.zeros(1) if size == 1 else data.normal(size=size)
            got = bootstrap_intervals(y, residuals, 0.1, n_draws, rng=n)
            assert_same_bytes(got, *one_shot_bootstrap(y, residuals, 0.1, n_draws, n))

    @pytest.mark.parametrize("rows", [1, 64])
    def test_block_size_does_not_change_output(self, monkeypatch, rows):
        residuals = np.random.default_rng(8).normal(size=300)
        y = np.random.default_rng(9).normal(size=3 * baselines._block_rows(2000) + 7)
        default = bootstrap_intervals(y, residuals, 0.1, rng=4)
        monkeypatch.setattr(baselines, "_BLOCK_BYTES", rows * 8 * 2000)
        assert baselines._block_rows(2000) == rows
        pinned = bootstrap_intervals(y, residuals, 0.1, rng=4)
        assert_same_bytes(pinned, default.lower[:, 0], default.upper[:, 0])

    def test_shared_generator_continues_the_same_stream(self):
        residuals = np.random.default_rng(3).normal(size=50)
        y = np.zeros(baselines._block_rows(2000) + 1)
        rng = np.random.default_rng(12)
        bootstrap_intervals(y, residuals, 0.1, rng=rng)
        oracle = np.random.default_rng(12)
        oracle.integers(0, 50, size=(y.size, 2000))
        assert rng.integers(0, 2**62) == oracle.integers(0, 2**62)

    def test_two_dimensional_predictions_are_flattened(self):
        residuals = np.random.default_rng(5).normal(size=40)
        y = np.arange(6.0).reshape(2, 3)
        got = bootstrap_intervals(y, residuals, 0.1, rng=2)
        assert_same_bytes(got, *one_shot_bootstrap(y.ravel(), residuals, 0.1, 2000, 2))

    def test_peak_memory_is_bounded_by_the_block(self):
        residuals = np.random.default_rng(6).normal(size=3000)
        tracemalloc.start()
        try:
            bootstrap_intervals(np.zeros(10_000), residuals, 0.1, rng=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the whole-batch draw peaks at about 458 MB here
        assert peak < 8 * 2**20

    def test_runs_in_the_calling_thread(self, monkeypatch):
        def refuse(thread):
            raise AssertionError(f"bootstrap_intervals started {thread!r}")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        residuals = np.random.default_rng(7).normal(size=100)
        y = np.random.default_rng(8).normal(size=2 * baselines._block_rows(2000) + 1)
        got = bootstrap_intervals(y, residuals, 0.1, rng=3)
        assert_same_bytes(got, *one_shot_bootstrap(y, residuals, 0.1, 2000, 3))

    @pytest.mark.parametrize("kind, scale", [
        ("bootstrap", IDENTITY), ("bootstrap-log", LOG1P),
    ])
    def test_pipeline_clips_at_support(self, kind, scale):
        # the floor is the pipeline's: the raw endpoints of the clamped
        # predictions, each raised to support_min
        data = np.random.default_rng(10)
        y_true = data.exponential(2.0, size=300)
        y_pred = y_true * data.uniform(0.5, 1.5, size=300) + data.uniform(-0.5, 0.5, 300)
        p_test = data.uniform(-1.0, 6.0, size=baselines._block_rows(2000) + 3)
        got = make_intervals(kind, y_true, y_pred, p_test, alpha=0.1,
                             transform=LOG1P, n_draws=2000, rng=5, support_min=0.5)
        residuals = scale.forward(y_true) - scale.forward(np.maximum(y_pred, 0.5))
        lo, hi = map(scale.inverse, one_shot_bootstrap(
            scale.forward(np.maximum(p_test, 0.5)), residuals, 0.1, 2000, 5
        ))
        assert np.any(lo < 0.5) and np.any(hi > 0.5)
        assert_same_bytes(got.sets, np.maximum(0.5, lo), np.maximum(0.5, hi))


@st.composite
def bootstrap_cases(draw):
    """A residual pool, predictions, alpha and B for the rank kernel."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = draw(st.one_of(st.integers(1, 5), st.integers(1, 5000)))
    res = rng.normal(scale=draw(st.sampled_from([1e-3, 1.0, 50.0])), size=size)
    decimals = draw(st.sampled_from([None, 0, 1, 3]))
    if decimals is not None:  # tie-heavy, and rounding leaves zeros of both signs
        res = res.round(decimals)
    # one zero sign per pool: with both, a -0.0 prediction's ties differ in
    # sign (see test_mixed_signed_zero_pool_matches_by_value)
    res[res == 0] = draw(st.sampled_from([0.0, -0.0]))
    y = np.concatenate([
        rng.normal(size=draw(st.integers(0, 40))),
        draw(st.lists(st.sampled_from([0.0, -0.0, 1.0]), max_size=4)),
    ])
    n_draws = draw(st.one_of(st.integers(100, 2500), st.sampled_from([101, 1001, 2001])))
    # at B = 101, 1001 or 2001, alpha 0.1 and 0.2 put both positions on whole
    # numbers (gamma == 0)
    alpha = draw(st.one_of(st.floats(1e-3, 0.5), st.sampled_from([0.1, 0.2])))
    return res, y, alpha, n_draws


class TestRankKernel:
    """The sorted-rank quantiles against np.quantile, byte for byte."""

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(bootstrap_cases(), st.integers(0, 2**16))
    def test_matches_np_quantile(self, case, seed):
        res, y, alpha, n_draws = case
        got = bootstrap_intervals(y, res, alpha, n_draws, rng=seed)
        assert_same_bytes(got, *one_shot_bootstrap(y, res, alpha, n_draws, seed))

    def test_mixed_signed_zero_pool_matches_by_value(self):
        # The one case that cannot match byte for byte: at a -0.0
        # prediction, -0.0 - 0.0 is -0.0 and -0.0 - -0.0 is +0.0, equal
        # values whose order after np.quantile's partition depends on
        # where introselect leaves the ties. The rank kernel puts the +0.0
        # residual's outcome (-0.0) below the other.
        residuals = np.array([-0.0, 0.0])
        y = np.array([-0.0, -0.0, 0.0, 1.0])
        got = bootstrap_intervals(y, residuals, 0.1, rng=0)
        lo, hi = one_shot_bootstrap(y, residuals, 0.1, 2000, 0)
        assert np.array_equal(got.lower[:, 0], lo)
        assert np.array_equal(got.upper[:, 0], hi)
        assert math.copysign(1.0, got.lower[0, 0]) == -1.0


class TestLognormalInterval:
    def test_unit_case(self):
        iv = lognormal_interval(0.0, 1.0, 0.1)
        assert iv.lower == pytest.approx(math.exp(-1.6449), abs=1e-3)
        assert iv.upper == pytest.approx(math.exp(1.6449), abs=1e-3)

    def test_shrinks_to_point_as_sigma_vanishes(self):
        iv = lognormal_interval(1.0, 1e-12, 0.1)
        assert iv.lower == pytest.approx(math.e, rel=1e-9)
        assert iv.upper == pytest.approx(math.e, rel=1e-9)

    def test_nonpositive_sigma_rejected(self):
        for sigma in (0.0, -1.0):
            with pytest.raises(NumericalError):
                lognormal_interval(0.0, sigma, 0.1)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, 3.0, math.nan])
    def test_alpha_outside_unit_interval_rejected(self, alpha):
        with pytest.raises(ConfigurationError):
            lognormal_interval(0.0, 1.0, alpha)

    def test_endpoints_increase_with_sigma(self):
        widths = []
        uppers = []
        for sigma in (0.1, 0.5, 1.0, 2.0):
            iv = lognormal_interval(0.0, sigma, 0.1)
            widths.append(iv.width)
            uppers.append(iv.upper)
        assert all(a < b for a, b in zip(uppers, uppers[1:]))
        assert all(a < b for a, b in zip(widths, widths[1:]))

    def test_multiplicative_shift(self):
        base = lognormal_interval(0.0, 0.7, 0.1)
        shifted = lognormal_interval(1.3, 0.7, 0.1)
        assert shifted.lower == pytest.approx(base.lower * math.exp(1.3))
        assert shifted.upper == pytest.approx(base.upper * math.exp(1.3))

    def test_residual_sigma(self):
        y_true = np.array([math.e, math.e, 1.0, 1.0])
        y_pred = np.ones(4)
        # log residuals are (1, 1, 0, 0): sd with ddof=1 is sqrt(1/3)
        residuals = LOG.forward(y_true) - LOG.forward(y_pred)
        assert residual_sigma(residuals) == pytest.approx(math.sqrt(1 / 3))


def brute_count_quantiles(pmf, alpha, k_max=10_000):
    """Direct CDF summation: smallest k with CDF >= alpha/2 and 1 - alpha/2."""
    cdf = 0.0
    lo = hi = None
    for k in range(k_max):
        cdf += pmf(k)
        if lo is None and cdf >= alpha / 2:
            lo = k
        if hi is None and cdf >= 1 - alpha / 2:
            hi = k
            break
    return lo, hi


class TestCountIntervals:
    def test_poisson_zero_mean(self):
        assert poisson_intervals([0.0], 0.1)[0].segments[0] == PredictionInterval(0, 0)

    def test_poisson_mu4_against_cdf_summation(self):
        mu = 4.0
        lo, hi = brute_count_quantiles(
            lambda k: math.exp(-mu) * mu**k / math.factorial(k), alpha=0.1
        )
        assert (lo, hi) == (1, 8)
        assert poisson_intervals([mu], 0.1)[0].segments[0] == PredictionInterval(lo, hi)

    def test_negbinom_against_pmf_summation(self):
        mu, theta, alpha = 4.0, 2.0, 0.1
        p = theta / (theta + mu)
        lo, hi = brute_count_quantiles(lambda k: nbinom.pmf(k, theta, p), alpha)
        assert (lo, hi) == (0, 11)
        iv = negbinom_intervals([mu], theta, alpha)[0].segments[0]
        assert iv == PredictionInterval(lo, hi)

    def test_negbinom_zero_mean(self):
        assert negbinom_intervals([0.0], 1.5, 0.1)[0].segments[0] == PredictionInterval(0, 0)

    def test_negative_mean_rejected(self):
        with pytest.raises(DataError):
            poisson_intervals([-1.0], 0.1)
        with pytest.raises(DataError):
            negbinom_intervals([-1.0], 1.0, 0.1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_mean_rejected(self, bad):
        with pytest.raises(DataError, match="Poisson means must be finite"):
            poisson_intervals([bad, 1.0], 0.1)
        with pytest.raises(DataError, match="negative-binomial means must be finite"):
            negbinom_intervals([bad, 1.0], 2.0, 0.1)

    def test_nonpositive_dispersion_rejected(self):
        with pytest.raises(NumericalError):
            negbinom_intervals([4.0], 0.0, 0.1)

    def test_integer_endpoints_and_mass_at_least_nominal(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            mu = rng.uniform(0.1, 40)
            alpha = rng.uniform(0.02, 0.5)
            iv = poisson_intervals([mu], alpha)[0].segments[0]
            assert iv.lower == int(iv.lower) and iv.upper == int(iv.upper)
            assert iv.lower >= 0
            mass = poisson.cdf(iv.upper, mu) - poisson.cdf(iv.lower - 1, mu)
            assert mass >= 1 - alpha - 1e-12

            theta = rng.uniform(0.2, 5)
            iv = negbinom_intervals([mu], theta, alpha)[0].segments[0]
            p = theta / (theta + mu)
            mass = nbinom.cdf(iv.upper, theta, p) - nbinom.cdf(iv.lower - 1, theta, p)
            assert iv.lower >= 0
            assert mass >= 1 - alpha - 1e-12

    def test_dispersion_estimate_moment_identity(self):
        # var(y_true)=38/3, mean(y_pred)=2: theta = 4 / (38/3 - 2) = 0.375
        theta = estimate_nb_dispersion([0.0, 1.0, 3.0, 8.0], [2.0, 2.0, 2.0, 2.0])
        assert theta == pytest.approx(0.375)

    def test_dispersion_underdispersed_falls_back(self):
        assert estimate_nb_dispersion([2.0, 2.0, 2.0], [2.0, 2.0, 2.0]) is None

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, -0.1, math.nan])
    def test_alpha_outside_unit_interval_rejected(self, alpha):
        with pytest.raises(ConfigurationError, match="alpha must be strictly inside"):
            poisson_intervals([2.0], alpha)
        with pytest.raises(ConfigurationError, match="alpha must be strictly inside"):
            negbinom_intervals([2.0], 1.0, alpha)

    @pytest.mark.parametrize("alpha", [1e-17, 1e-300])
    def test_alpha_below_double_resolution_has_unbounded_upper(self, alpha):
        # 1 - alpha/2 rounds to 1.0, whose quantile is +inf; scipy is not
        # asked for it, and a zero mean keeps [0, 0]
        mus, theta = np.array([0.0, 0.5, 4.0, 1e6]), 2.0
        for batch, oracle in (
            (poisson_intervals(mus, alpha), poisson.ppf(alpha / 2, mus[1:])),
            (negbinom_intervals(mus, theta, alpha),
             nbinom.ppf(alpha / 2, theta, theta / (theta + mus[1:]))),
        ):
            assert batch[0].segments[0] == PredictionInterval(0, 0)
            assert batch.lower[1:, 0].tolist() == oracle.tolist()
            assert batch.upper[1:, 0].tolist() == [math.inf] * 3

    def test_poisson_mean_scipy_cannot_invert_is_numerical_error(self):
        # pdtrik returns NaN from a mean of about 1e11; 1e10 still works
        assert np.all(np.isfinite(poisson_intervals([1e10], 0.1).upper))
        with pytest.raises(NumericalError, match="Poisson quantiles of mean 100000000000.0"):
            poisson_intervals([3.0, 1e11, 1e12], 0.1)


# means of every magnitude the baselines meet, and the edges where scipy's
# special functions change regime
ORACLE_MEANS = np.concatenate([
    np.random.default_rng(17).lognormal(1.0, 2.0, size=2_000),
    [1e-300, 1e-12, 1e-3, 0.5, 1.0, 1e6, 1e9],
])
ORACLE_ALPHAS = (0.01, 0.05, 0.1, 0.2, 0.5, 0.9)


def assert_same_bytes(batch, lower, upper):
    assert batch.lower.ravel().tobytes() == lower.tobytes()
    assert batch.upper.ravel().tobytes() == upper.tobytes()


class TestScipyStatsOracle:
    """The parametric baselines take their quantiles from scipy.special;
    scipy.stats' ppf, which calls the same functions through its argument
    checks, is the reference, byte for byte. The negative binomial calls
    the private ``scipy.special._ufuncs._nbinom_ppf``, so a scipy release
    that moves or changes it fails here rather than changing any output."""

    @pytest.mark.parametrize("alpha", ORACLE_ALPHAS)
    def test_poisson(self, alpha):
        assert_same_bytes(poisson_intervals(ORACLE_MEANS, alpha),
                          poisson.ppf(alpha / 2, ORACLE_MEANS),
                          poisson.ppf(1 - alpha / 2, ORACLE_MEANS))

    @pytest.mark.parametrize("alpha", ORACLE_ALPHAS)
    @pytest.mark.parametrize("k", [1e-3, 0.05, 0.37, 1.0, 2.5, 30.0])
    def test_negbinom(self, alpha, k):
        p = k / (k + ORACLE_MEANS)
        assert_same_bytes(negbinom_intervals(ORACLE_MEANS, k, alpha),
                          nbinom.ppf(alpha / 2, k, p), nbinom.ppf(1 - alpha / 2, k, p))

    @pytest.mark.parametrize("mu", [1.0, 2.0, 3.0])
    def test_poisson_tail_probability_equal_to_a_cdf_value(self, mu):
        # q = alpha/2 = P(Y = 0): ceil(pdtrik(q, mu)) can land one above the
        # quantile (it does at mu = 1), and the pdtr check steps it back to 0
        alpha = 2 * math.exp(-mu)
        got = poisson_intervals([mu], alpha)
        assert got.lower[0, 0] == 0.0
        assert_same_bytes(got, poisson.ppf(alpha / 2, [mu]),
                          poisson.ppf(1 - alpha / 2, [mu]))

    def test_negbinom_mean_whose_success_probability_rounds_to_one(self):
        k, mu = 30.0, np.array([1e-20])
        p = k / (k + mu)
        assert p[0] == 1.0
        assert_same_bytes(negbinom_intervals(mu, k, 0.1),
                          nbinom.ppf(0.05, k, p), nbinom.ppf(0.95, k, p))

    @pytest.mark.parametrize("alpha", ORACLE_ALPHAS)
    def test_lognormal_interval(self, alpha):
        z = norm.ppf(1 - alpha / 2)
        for y_hat_log, sigma in ((0.0, 1.0), (1.3, 0.7), (-4.2, 1e-9), (9.5, 2.25)):
            iv = lognormal_interval(y_hat_log, sigma, alpha)
            assert iv.lower == math.exp(y_hat_log - z * sigma)
            assert iv.upper == math.exp(y_hat_log + z * sigma)

    @pytest.mark.parametrize("alpha", ORACLE_ALPHAS)
    @pytest.mark.parametrize("transform", [LOG, LOG1P])
    def test_lognormal_builder(self, alpha, transform):
        rng = np.random.default_rng(4)
        y_cal = np.round(rng.lognormal(1.0, 1.0, size=300)) + 1.0
        p_cal = y_cal * rng.lognormal(0.0, 0.5, size=300)
        p_test = ORACLE_MEANS
        got = make_intervals("lognormal", y_cal, p_cal, p_test, alpha=alpha,
                             transform=transform).sets
        sigma = residual_sigma(transform.forward(y_cal) - transform.forward(p_cal))
        z = float(norm.ppf(1 - alpha / 2))
        p_t = transform.forward(p_test)
        floor = transform.support_min
        assert_same_bytes(got, np.maximum(floor, transform.inverse(p_t - z * sigma)),
                          np.maximum(floor, transform.inverse(p_t + z * sigma)))


# the quantile's three rational approximations: the central one, the tail
# one while x = sqrt(-2 log min(p, 1 - p)) < 8, and the far-tail one
EXP_M2, EXP_M32 = math.exp(-2), math.exp(-32)


def ndtri_points():
    """At least 10^5 probabilities in (0, 1) that reach every branch of
    ndtri in both halves of the unit interval."""
    rng = np.random.default_rng(23)
    below_one = 1.0 - np.arange(1, 2_001) * 2.0 ** -53  # the doubles nearest 1
    p = np.concatenate([
        rng.random(40_000),
        10.0 ** rng.uniform(-300, 0, 40_000),
        1.0 - 10.0 ** rng.uniform(-16, 0, 20_000),
        below_one,
        1 - np.array(ORACLE_ALPHAS) / 2,
        [5e-324, EXP_M2, 1 - EXP_M2, EXP_M32, 1 - EXP_M32, 0.5],
    ])
    return p[(p > 0) & (p < 1)]


class TestNormalQuantile:
    """``normal_quantile`` is a port of Cephes ndtri, the code behind
    scipy.special.ndtri (and so scipy.stats.norm.ppf); it must return the
    same bytes, so a scipy release that changes ndtri fails here."""

    def test_matches_ndtri_bit_for_bit(self):
        p = ndtri_points()
        assert p.size >= 100_000
        got = np.array([normal_quantile(v) for v in p])
        assert got.tobytes() == ndtri(p).tobytes()

    def test_points_reach_every_branch_in_both_halves(self):
        p = ndtri_points()
        tail = np.minimum(p, 1 - p)
        x = np.sqrt(-2 * np.log(tail))
        for half in (p < 0.5, p > 0.5):
            assert np.sum(half & (tail > EXP_M2)) >= 1_000  # central
            assert np.sum(half & (tail <= EXP_M2) & (x < 8)) >= 1_000
            assert np.sum(half & (tail <= EXP_M2) & (x >= 8)) >= 100

    def test_oracle_alphas(self):
        for alpha in ORACLE_ALPHAS:
            assert normal_quantile(1 - alpha / 2) == ndtri(1 - alpha / 2)
            assert normal_quantile(1 - alpha / 2) == norm.ppf(1 - alpha / 2)

    def test_endpoints_are_infinite(self):
        assert normal_quantile(0.0) == -math.inf
        assert normal_quantile(1.0) == math.inf

    @pytest.mark.parametrize("p", [-0.1, 1.5, math.nan, -math.inf, math.inf])
    def test_outside_unit_interval_rejected(self, p):
        with pytest.raises(ConfigurationError):
            normal_quantile(p)


def refined_grid_min(X, y, tau, center, span, stages=3, points=81):
    """Brute-force pinball minimum over a shrinking 2-coefficient grid."""
    a0, b0 = center
    best = (math.inf, a0, b0)
    for _ in range(stages):
        a_grid = np.linspace(a0 - span, a0 + span, points)
        b_grid = np.linspace(b0 - span, b0 + span, points)
        for a in a_grid:
            u = y - a - b_grid[:, None] * X
            losses = np.mean(u * (tau - (u < 0)), axis=1)
            j = int(np.argmin(losses))
            if losses[j] < best[0]:
                best = (float(losses[j]), float(a), float(b_grid[j]))
        a0, b0 = best[1], best[2]
        span /= 10.0
    return best[0]


class TestQuantReg:
    def test_constant_outcome(self):
        X = np.random.default_rng(1).normal(size=(40, 2))
        model = quantreg_pair(X, np.full(40, 3.0), alpha=0.1)
        row = X[None, 0]
        lo, hi = sorted((model.lower.predict(row)[0], model.upper.predict(row)[0]))
        assert lo == pytest.approx(3.0, abs=1e-9)
        assert hi == pytest.approx(3.0, abs=1e-9)
        assert model.lower.coefficients == pytest.approx([3.0, 0.0, 0.0], abs=1e-6)

    def test_median_fit_matches_brute_force_grid(self):
        rng = np.random.default_rng(123)
        x = np.linspace(0, 1, 60)
        y = 1.0 + 2.0 * x + rng.uniform(-0.5, 0.5, size=60)
        fit = quantreg_fit(x, y, tau=0.5)
        grid_min = refined_grid_min(x, y, 0.5, center=(1.0, 2.0), span=1.0)
        assert abs(fit.loss - grid_min) <= 1e-4

    def test_upper_tau_matches_brute_force_grid(self):
        rng = np.random.default_rng(321)
        x = np.linspace(0, 2, 80)
        y = 0.5 + 1.5 * x + rng.normal(scale=0.4, size=80)
        fit = quantreg_fit(x, y, tau=0.9)
        grid_min = refined_grid_min(x, y, 0.9, center=(1.0, 1.5), span=1.5)
        assert abs(fit.loss - grid_min) <= 1e-4

    def test_loss_beats_zero_coefficient_model(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(100, 2))
        y = 2.0 + X @ np.array([1.0, -0.5]) + rng.normal(size=100)
        for tau in (0.05, 0.5, 0.95):
            fit = quantreg_fit(X, y, tau)
            assert fit.loss <= pinball_loss(y, tau) + 1e-12

    def test_crossed_quantiles_swapped(self, monkeypatch):
        lower = QuantRegFit(0.05, np.array([5.0]), 1, 0.0)
        upper = QuantRegFit(0.95, np.array([3.0]), 1, 0.0)
        model = QuantRegModel(lower=lower, upper=upper)
        x = np.empty((1, 0))
        lo, hi = model.lower.predict(x)[0], model.upper.predict(x)[0]
        assert lo > hi
        # the pipeline swaps a crossed pair into one interval and flags it
        monkeypatch.setattr(baselines, "quantreg_pair", lambda *a, **k: model)
        design = (np.empty((3, 0)), np.ones(3), np.empty((1, 0)))
        result = make_intervals(
            "quantreg", np.ones(3), np.ones(3), np.ones(1), alpha=0.1,
            quantreg_design=design,
        )
        assert result.sets[0].segments[0] == PredictionInterval(3.0, 5.0)
        assert result.flags == [("crossed",)]

    def test_nonconvergence_raises_with_diagnostics(self, monkeypatch):
        rng = np.random.default_rng(2)
        x = rng.normal(size=50)
        y = x + rng.normal(size=50)
        monkeypatch.setattr(baselines, "_MAX_ITER", 1)
        monkeypatch.setattr(baselines, "_TOL", 0.0)
        with pytest.raises(NumericalError, match="did not converge"):
            quantreg_fit(x, y, 0.5)

    @pytest.mark.parametrize("x", [np.ones((1, 3)), np.ones((4, 3))], ids=["row", "matrix"])
    def test_feature_count_mismatch_is_data_error(self, x):
        # one slope coefficient, three features: in one row or in four
        coefficients = np.array([1.0, 2.0])
        fit = QuantRegFit(0.5, coefficients, 1, 0.0)
        with pytest.raises(DataError, match="expected 1 features, got 3"):
            fit.predict(x)
        model = LinearModel(coefficients, OutcomeTransform.IDENTITY)
        with pytest.raises(DataError, match="expected 1 features, got 3"):
            predict(model, x)

    def test_tau_out_of_range(self):
        with pytest.raises(ConfigurationError):
            quantreg_fit(np.ones(5), np.ones(5), tau=1.0)
