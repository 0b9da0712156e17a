import math

import numpy as np
import pytest

from binconformal.baselines import quantreg_fit
from binconformal.errors import DataError, NumericalError
from binconformal.intervals import PredictionInterval
from binconformal.models import (
    LinearModel,
    OutcomeTransform,
    ols_fit,
    predict,
    round_count_interval,
)

IDENTITY = OutcomeTransform.IDENTITY
LOG = OutcomeTransform.LOG
LOG1P = OutcomeTransform.LOG1P


class TestTransforms:
    @pytest.mark.parametrize("transform,lo", [(IDENTITY, -50.0), (LOG, 1e-6), (LOG1P, 0.0)])
    def test_round_trip(self, transform, lo):
        rng = np.random.default_rng(3)
        y = rng.uniform(lo, 50.0, size=500)
        back = transform.inverse(transform.forward(y))
        assert np.max(np.abs(back - y)) <= 1e-12 * np.maximum(1.0, np.abs(y)).max()

    def test_log_rejects_zero(self):
        with pytest.raises(DataError):
            LOG.forward([1.0, 0.0])

    def test_log1p_rejects_negative(self):
        with pytest.raises(DataError):
            LOG1P.forward([-0.5])

    def test_log1p_inverse_clamped_at_zero(self):
        assert LOG1P.inverse(-0.1) == 0.0

    def test_scalar_in_scalar_out(self):
        assert isinstance(LOG.forward(2.0), float)
        assert isinstance(LOG.inverse(0.0), float)

    def test_support_min(self):
        assert IDENTITY.support_min == -math.inf
        assert LOG.support_min == 0.0
        assert LOG1P.support_min == 0.0


class TestOlsFit:
    def test_exact_linear_data(self):
        x = np.linspace(0, 10, 40)[:, None]
        model = ols_fit(x, 2.0 * x[:, 0], IDENTITY)
        assert model.coefficients == pytest.approx([0.0, 2.0], abs=1e-10)

    def test_residuals_orthogonal_to_features(self):
        rng = np.random.default_rng(17)
        X = rng.normal(size=(300, 3))
        y = 1.5 + X @ np.array([0.5, -2.0, 3.0]) + rng.normal(size=300)
        model = ols_fit(X, y, IDENTITY)
        resid = y - predict(model, X)[0]
        for j in range(3):
            col = X[:, j]
            assert abs(resid @ col) <= 1e-8 * np.linalg.norm(resid) * np.linalg.norm(col)

    def test_recovers_lognormal_generator_coefficients(self):
        # y = exp(N(x1 + x2, 0.5)) so log y regressed on (x1, x2) has
        # coefficients (0, 1, 1); at n=5000 each standard error is ~0.024.
        rng = np.random.default_rng(2024)
        n = 5000
        X = rng.uniform(size=(n, 2))
        y = np.exp(rng.normal(X[:, 0] + X[:, 1], 0.5))
        model = ols_fit(X, y, LOG)
        assert model.coefficients == pytest.approx([0.0, 1.0, 1.0], abs=0.08)

    def test_log_with_zero_outcome_raises(self):
        with pytest.raises(DataError):
            ols_fit(np.ones((3, 1)), [1.0, 0.0, 2.0], LOG)

    def test_singular_design_raises(self):
        x = np.linspace(0, 1, 20)
        X = np.column_stack([x, 2.0 * x])
        with pytest.raises(NumericalError):
            ols_fit(X, x, IDENTITY)

    def test_too_few_rows_raises(self):
        with pytest.raises(DataError):
            ols_fit(np.ones((2, 2)), [1.0, 2.0], IDENTITY)


class TestPredict:
    def test_log_scale_example(self):
        model = LinearModel(np.array([0.0, 1.0, 1.0]), LOG)
        z, y = predict(model, np.array([[0.5, 0.5]]))
        assert z[0] == pytest.approx(1.0)
        assert y[0] == pytest.approx(math.e)

    def test_log1p_negative_prediction_clamped(self):
        model = LinearModel(np.array([-0.1]), LOG1P)
        z, y = predict(model, np.empty((1, 0)))
        assert z[0] == pytest.approx(-0.1)
        assert y[0] == 0.0

    def test_identity_transform_matches(self):
        model = LinearModel(np.array([1.0, 2.0]), IDENTITY)
        z, y = predict(model, np.array([3.0]))
        assert z == y == 7.0

    def test_matrix_prediction_matches_rowwise(self):
        model = LinearModel(np.array([0.3, 1.2, -0.5]), LOG1P)
        X = np.random.default_rng(0).normal(size=(10, 2))
        z, y = predict(model, X)
        for i in range(10):
            zi, yi = predict(model, X[None, i])
            assert z[i] == pytest.approx(zi[0])
            assert y[i] == pytest.approx(yi[0])

    def test_one_dimensional_features_are_one_column(self):
        # a 1-D input is one feature, as ols_fit and quantreg_fit read it
        rng = np.random.default_rng(5)
        x = rng.uniform(0.0, 3.0, size=20)
        y = np.exp(0.5 + x + rng.normal(0.0, 0.1, size=20))
        model = ols_fit(x, y, LOG)
        z, y_hat = predict(model, x)
        z_col, y_col = predict(model, x[:, None])
        assert z.shape == y_hat.shape == (20,)
        assert z.tobytes() == z_col.tobytes()
        assert y_hat.tobytes() == y_col.tobytes()
        fit = quantreg_fit(x, np.log(y), 0.5)
        assert fit.predict(x).tobytes() == fit.predict(x[:, None]).tobytes()


class TestRoundCountInterval:
    def test_basic(self):
        assert round_count_interval(PredictionInterval(2.4, 7.6)) == PredictionInterval(2, 8)

    def test_clamp_and_round(self):
        assert round_count_interval(PredictionInterval(-0.3, 0.2)) == PredictionInterval(0, 0)

    def test_half_goes_up(self):
        assert round_count_interval(PredictionInterval(3.5, 3.5)) == PredictionInterval(4, 4)

    def test_infinite_upper_preserved(self):
        out = round_count_interval(PredictionInterval(1.2, math.inf))
        assert out == PredictionInterval(1, math.inf)

    def test_idempotent(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            lo = rng.uniform(-3, 50)
            iv = PredictionInterval(lo, lo + rng.uniform(0, 20))
            once = round_count_interval(iv)
            assert round_count_interval(once) == once
            assert once.lower <= once.upper
            assert once.lower >= 0.0
