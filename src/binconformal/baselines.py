"""Comparison interval methods: residual bootstrap, parametric log-normal,
Poisson and negative-binomial count intervals, and linear quantile
regression.

These are the non-conformal baselines the replication studies evaluate
alongside the conformal constructions. Each is standard; the point of
carrying them is to measure their coverage across the outcome range under
the same harness.
"""

import math
from dataclasses import dataclass

import numpy as np

from .conformal import _validate_alpha, require_finite
from .errors import ConfigurationError, DataError, NumericalError
from .intervals import IntervalBatch, PredictionInterval
from .models import OutcomeTransform, design_matrix, linear_predict
from .simulation import derive_rng

INF = math.inf

# the parametric intervals take their quantiles from the scipy.special
# functions that the scipy.stats distributions call, and load them inside
# the function that calls them: scipy.stats itself costs about a second
# and 45 MB at start-up


# ---------------------------------------------------------------------------
# residual bootstrap


@dataclass(frozen=True, eq=False)
class ResidualPool:
    """Calibration residuals on a declared scale (raw, log, or log1p)."""

    residuals: np.ndarray
    scale: OutcomeTransform = OutcomeTransform.IDENTITY


def residual_pool(
    y_true, y_pred, scale: OutcomeTransform = OutcomeTransform.IDENTITY
) -> ResidualPool:
    """Pool of transform(y_true) - transform(y_pred) over calibration pairs."""
    yt = np.asarray(y_true, dtype=float).ravel()
    yp = np.asarray(y_pred, dtype=float).ravel()
    if yt.size != yp.size:
        raise DataError(f"y_true ({yt.size}) and y_pred ({yp.size}) lengths differ")
    return ResidualPool(residuals=scale.forward(yt) - scale.forward(yp), scale=scale)


def _as_rng(rng) -> np.random.Generator:
    """``rng`` itself if it is a generator, a fresh one for None, else
    the generator :func:`derive_rng` seeds from it."""
    if isinstance(rng, np.random.Generator):
        return rng
    if rng is None:
        return np.random.default_rng()
    return derive_rng(rng)


# bytes of one block's draws: 65 rows at 2,000 draws, so that the block's
# int64 draws and int32 ranks stay in a core's L2 cache
_BLOCK_BYTES = 1 << 20


def _block_rows(n_draws: int) -> int:
    """Test rows per bootstrap block at ``n_draws`` draws per row."""
    return max(1, _BLOCK_BYTES // (8 * n_draws))


def bootstrap_intervals(
    y_hats,
    pool: ResidualPool,
    alpha: float,
    n_draws: int = 2000,
    rng=None,
) -> IntervalBatch:
    """Bootstrap intervals for many predictions sharing one residual pool.

    ``y_hats`` are on the pool's scale. Each prediction gets ``n_draws``
    residuals resampled with replacement and SUBTRACTED from it (the basic
    reverse-percentile form, which reflects skew in the error pool); the
    interval is the empirical [alpha/2, 1 - alpha/2] quantile range of the
    simulated outcomes (numpy's default linear method), back-transformed
    to the raw scale. For symmetric pools this coincides with adding the
    residuals.

    Rows are processed in blocks of about 1 MB of draws. Each block's
    indices are drawn from ``rng`` in row order, which yields the same
    integers as one (n, n_draws) draw, and its quantiles are taken from
    the sorted ranks of its draws. A row's bounds depend only on its own
    draws, so the result does not depend on the block size, and memory
    stays O(block) instead of O(n).
    """
    res = pool.residuals
    if res.size == 0:
        raise DataError("empty calibration: residual pool has no records")
    if not np.all(np.isfinite(res)):
        raise DataError("residual pool holds NaN or infinite values")
    if n_draws < 100:
        raise ConfigurationError(f"bootstrap needs at least 100 draws, got {n_draws}")
    alpha = _validate_alpha(alpha)
    y_hats = require_finite(y_hats, "bootstrap predictions")
    rng = _as_rng(rng)
    order = np.argsort(res, kind="stable")
    sorted_res = res[order]
    rank = np.empty(res.size, dtype=np.int32)
    rank[order] = np.arange(res.size, dtype=np.int32)
    # numpy's "linear" (Hyndman-Fan type 7) positions, counted from the top
    # of a row's sorted ranks
    v = (n_draws - 1) * np.array([alpha / 2, 1 - alpha / 2])
    prev = np.floor(v)
    gamma = (v - prev)[:, None]
    top = n_draws - 1 - prev.astype(np.intp)
    cols = (top, np.maximum(top - 1, 0))
    bounds = np.empty((2, y_hats.size))
    rows = _block_rows(n_draws)
    for start in range(0, y_hats.size, rows):
        block = slice(start, start + rows)
        r = rank[rng.integers(0, res.size, size=(y_hats[block].size, n_draws))]
        r.sort(axis=1)
        # fl(y - x) never increases with x, so the j-th smallest simulated
        # outcome of a row is y minus its (B-1-j)-th smallest drawn residual
        a, b = (y_hats[block] - sorted_res[r[:, c]].T for c in cols)
        # numpy's _lerp, operation for operation, so the bytes match
        diff = b - a
        out = bounds[:, block]
        np.add(a, diff * gamma, out=out)
        np.subtract(b, diff * (1 - gamma), out=out, where=gamma >= 0.5)
    return IntervalBatch.from_bounds(
        pool.scale.inverse(bounds[0]), pool.scale.inverse(bounds[1])
    )


# ---------------------------------------------------------------------------
# parametric intervals


def lognormal_interval(y_hat_log: float, sigma_hat: float, alpha: float) -> PredictionInterval:
    """exp(y_hat_log +/- z_{1-alpha/2} * sigma_hat)."""
    if not sigma_hat > 0:
        raise NumericalError(f"dispersion must be positive, got {sigma_hat}")
    from scipy.special import ndtri
    z = ndtri(1 - alpha / 2)  # scipy.stats.norm.ppf
    return PredictionInterval(
        math.exp(y_hat_log - z * sigma_hat), math.exp(y_hat_log + z * sigma_hat)
    )


def residual_sigma(y_true, y_pred, scale: OutcomeTransform = OutcomeTransform.LOG) -> float:
    """Sample standard deviation of calibration residuals on ``scale``."""
    pool = residual_pool(y_true, y_pred, scale)
    if pool.residuals.size < 2:
        raise DataError("need at least 2 calibration records to estimate dispersion")
    return float(np.std(pool.residuals, ddof=1))


def _count_quantiles(mus, alpha: float, what: str, quantile) -> IntervalBatch:
    """Central [alpha/2, 1-alpha/2] intervals from ``quantile(q, means)``,
    the ``_ppf`` of a scipy.stats count distribution; a zero mean gives
    [0, 0]."""
    alpha = _validate_alpha(alpha)
    mus = require_finite(mus, f"{what} means")
    if np.any(mus < 0):
        raise DataError(f"{what} mean must be nonnegative")
    lo = np.zeros_like(mus)
    hi = np.zeros_like(mus)
    positive = mus > 0
    if np.any(positive):
        # rv_discrete.ppf returns _ppf(q, ...) + loc for q in (0, 1), and
        # its loc of 0 turns a -0.0 into 0.0
        lo[positive] = quantile(alpha / 2, mus[positive]) + 0.0
        hi[positive] = quantile(1 - alpha / 2, mus[positive]) + 0.0
        failed = np.isnan(lo) | np.isnan(hi)
        if np.any(failed):
            raise NumericalError(
                f"scipy cannot compute the {what} quantiles of mean "
                f"{float(mus[failed][0])!r}"
            )
    return IntervalBatch.from_bounds(lo, hi)


def _poisson_ppf(q, mu):
    """scipy.stats.poisson._ppf: the smallest k with pdtr(k, mu) >= q."""
    from scipy.special import pdtr, pdtrik
    v = np.ceil(pdtrik(q, mu))
    v1 = np.maximum(v - 1, 0)
    return np.where(pdtr(v1, mu) >= q, v1, v)


def poisson_intervals(mus, alpha: float) -> IntervalBatch:
    """Central [alpha/2, 1-alpha/2] Poisson quantile intervals, one per mean."""
    return _count_quantiles(mus, alpha, "Poisson", _poisson_ppf)


def negbinom_intervals(mus, dispersion: float, alpha: float) -> IntervalBatch:
    """Negative-binomial quantile intervals with variance mu + mu^2/dispersion."""
    if not dispersion > 0:
        raise NumericalError(f"dispersion must be positive, got {dispersion}")

    def quantile(q, mu):
        # scipy.stats.nbinom._ppf; a private name, so the byte-oracle tests
        # against scipy.stats fail if a scipy release moves or changes it
        from scipy.special._ufuncs import _nbinom_ppf
        with np.errstate(over="ignore"):
            return _nbinom_ppf(q, dispersion, dispersion / (dispersion + mu))

    return _count_quantiles(mus, alpha, "negative-binomial", quantile)


def estimate_nb_dispersion(y_true, y_pred) -> float | None:
    """Method-of-moments dispersion from calibration pairs.

    Solves var(y_true) = mu + mu^2/dispersion with the mean prediction as
    the mu proxy. Returns None when the data are not overdispersed
    (variance <= mean), signalling a Poisson fallback.
    """
    yt = np.asarray(y_true, dtype=float).ravel()
    yp = np.asarray(y_pred, dtype=float).ravel()
    if yt.size < 2:
        raise DataError("need at least 2 calibration records to estimate dispersion")
    mu = float(np.mean(yp))
    var = float(np.var(yt, ddof=1))
    if mu <= 0 or var <= mu:
        return None
    return mu * mu / (var - mu)


# ---------------------------------------------------------------------------
# linear quantile regression


def pinball_loss(residuals, tau: float) -> float:
    """Mean pinball loss rho_tau(u) = u * (tau - 1{u < 0})."""
    u = np.asarray(residuals, dtype=float)
    return float(np.mean(u * (tau - (u < 0))))


@dataclass(frozen=True, eq=False)
class QuantRegFit:
    """One fitted conditional quantile: intercept first, then slopes."""

    tau: float
    coefficients: np.ndarray
    iterations: int
    loss: float

    def predict(self, x):
        """Prediction for one feature vector (a float) or a feature matrix."""
        out, single = linear_predict(self.coefficients, x)
        return float(out[0]) if single else out


@dataclass(frozen=True, eq=False)
class QuantRegModel:
    """Lower and upper conditional-quantile fits for an interval pair."""

    lower: QuantRegFit
    upper: QuantRegFit


# IRLS settings: iteration cap, coefficient-change tolerance, pinball
# weight floor, and the plateau length that counts as converged
_MAX_ITER = 5000
_TOL = 1e-8
_EPS = 1e-6
_PLATEAU = 100


def quantreg_fit(features, y, tau: float) -> QuantRegFit:
    """Fit one conditional tau-quantile by iteratively reweighted least
    squares with epsilon-smoothed pinball weights.

    Converges when the coefficient change drops below ``_TOL``, or when the
    pinball loss has stopped improving for ``_PLATEAU`` consecutive
    iterations: near the optimum the smoothed fixed-point drift can decay
    too slowly for the coefficient test even though the objective is flat
    to machine precision.

    Raises
    ------
    NumericalError
        Neither convergence test fired within ``_MAX_ITER`` iterations (the
        error message carries diagnostics).
    """
    if not 0.0 < tau < 1.0:
        raise ConfigurationError(f"tau must be strictly inside (0, 1), got {tau}")
    X = design_matrix(features)
    yv = np.asarray(y, dtype=float).ravel()
    if yv.size != X.shape[0]:
        raise DataError(f"feature rows ({X.shape[0]}) and outcomes ({yv.size}) differ")
    if yv.size < X.shape[1]:
        raise DataError("fewer rows than coefficients")

    beta, *_ = np.linalg.lstsq(X, yv, rcond=None)
    change = INF
    best_loss = INF
    stalled = 0
    for iteration in range(1, _MAX_ITER + 1):
        u = yv - X @ beta
        loss = pinball_loss(u, tau)
        if loss < best_loss - 1e-12 * (1.0 + abs(loss)):
            best_loss = loss
            stalled = 0
        else:
            stalled += 1
        weights = np.abs(tau - (u < 0)) / np.maximum(np.abs(u), _EPS)
        w_sqrt = np.sqrt(weights)
        beta_new, *_ = np.linalg.lstsq(X * w_sqrt[:, None], yv * w_sqrt, rcond=None)
        change = float(np.max(np.abs(beta_new - beta)))
        beta = beta_new
        if change < _TOL or stalled >= _PLATEAU:
            return QuantRegFit(
                tau=tau, coefficients=beta, iterations=iteration,
                loss=pinball_loss(yv - X @ beta, tau),
            )
    raise NumericalError(
        f"quantile regression (tau={tau}) did not converge: last coefficient "
        f"change {change:.3e} after {_MAX_ITER} iterations "
        f"(loss {pinball_loss(yv - X @ beta, tau):.6g})"
    )


def quantreg_pair(features, y, alpha: float) -> QuantRegModel:
    """Fit the (alpha/2, 1 - alpha/2) quantile pair for interval prediction."""
    alpha = _validate_alpha(alpha)
    return QuantRegModel(
        lower=quantreg_fit(features, y, alpha / 2),
        upper=quantreg_fit(features, y, 1 - alpha / 2),
    )
