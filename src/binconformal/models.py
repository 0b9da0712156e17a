"""Point-prediction models: ordinary least squares on a transformed outcome.

The interval methods are model-agnostic; this module supplies the simple
linear models the bundled studies use, plus the invertible outcome
transforms and the integer rounding rule for count-scale intervals.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DataError, NumericalError
from .intervals import PredictionInterval


class OutcomeTransform(Enum):
    """Invertible transform applied to the outcome before modeling.

    ``log`` requires y > 0; ``log1p`` requires y >= 0 and its inverse
    (expm1) is clamped at 0 on the raw scale.
    """

    IDENTITY = "identity"
    LOG = "log"
    LOG1P = "log1p"

    @property
    def support_min(self) -> float:
        """Smallest raw outcome the transform admits (-inf for identity)."""
        return -math.inf if self is OutcomeTransform.IDENTITY else 0.0

    def forward(self, y):
        arr = np.asarray(y, dtype=float)
        if self is OutcomeTransform.IDENTITY:
            out = arr
        elif self is OutcomeTransform.LOG:
            if np.any(arr <= 0):
                raise DataError(
                    "log transform requires strictly positive values; "
                    "use log1p for count-like data"
                )
            out = np.log(arr)
        else:
            if np.any(arr < 0):
                raise DataError("log1p transform requires nonnegative outcomes")
            out = np.log1p(arr)
        return float(out) if arr.ndim == 0 else out

    def inverse(self, z):
        arr = np.asarray(z, dtype=float)
        if self is OutcomeTransform.IDENTITY:
            out = arr
        elif self is OutcomeTransform.LOG:
            out = np.exp(arr)
        else:
            out = np.maximum(0.0, np.expm1(arr))
        return float(out) if arr.ndim == 0 else out


@dataclass(frozen=True, eq=False)
class LinearModel:
    """OLS fit on the transformed outcome: intercept first, then one
    coefficient per feature."""

    coefficients: np.ndarray
    transform: OutcomeTransform


def design_matrix(features) -> np.ndarray:
    """Intercept column, then the features; a 1-D input is one feature."""
    X = np.asarray(features, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    return np.column_stack([np.ones(X.shape[0]), X])


def linear_predict(coefficients, x) -> np.ndarray:
    """``design_matrix(x) @ coefficients``; a 1-D input is one feature.
    DataError unless ``x`` has one feature per slope."""
    X = design_matrix(x)
    if X.shape[1] != len(coefficients):
        raise DataError(
            f"expected {len(coefficients) - 1} features, got {X.shape[1] - 1}"
        )
    return X @ coefficients


def ols_fit(features, y, transform: OutcomeTransform = OutcomeTransform.IDENTITY) -> LinearModel:
    """Least-squares fit of transform(y) on an intercept plus the features.

    Raises
    ------
    DataError
        Fewer rows than coefficients, or a transform domain violation.
    NumericalError
        Rank-deficient design matrix.
    """
    X = design_matrix(features)
    z = transform.forward(np.asarray(y, dtype=float))
    n, p = X.shape
    if len(z) != n:
        raise DataError(f"feature rows ({n}) and outcomes ({len(z)}) differ")
    if n < p + 1:
        raise DataError(f"need at least {p + 1} rows to fit {p} coefficients, got {n}")
    beta, _, rank, _ = np.linalg.lstsq(X, z, rcond=None)
    if rank < p:
        raise NumericalError("singular design matrix: features are collinear")
    return LinearModel(coefficients=beta, transform=transform)


def predict(model: LinearModel, x) -> tuple:
    """Predict each row of a feature matrix; a 1-D input is one feature.

    Returns (transformed-scale predictions, raw-scale predictions); the raw
    values apply the inverse transform, with log1p clamped at 0.
    """
    z_hat = linear_predict(model.coefficients, x)
    return z_hat, model.transform.inverse(z_hat)


def round_count_interval(interval: PredictionInterval) -> PredictionInterval:
    """Round both bounds half-up to integers and clamp at 0 (count scale).

    Infinite bounds pass through; idempotent on already-integer intervals.
    """
    def round_clamp(v: float) -> float:
        return float(max(0.0, np.floor(v + 0.5)))

    return PredictionInterval(round_clamp(interval.lower), round_clamp(interval.upper))


def round_count_bounds(values) -> np.ndarray:
    """:func:`round_count_interval`'s rule for an array of endpoints.

    ``np.where`` mirrors ``max(0.0, v)``, which turns -0.0 into 0.0; NaN
    (an unused slot) stays NaN.
    """
    v = np.asarray(values, dtype=float)
    rounded = np.floor(v + 0.5)
    return np.where(rounded > 0.0, rounded, np.where(np.isnan(v), v, 0.0))
