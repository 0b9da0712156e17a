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
from .models import design_matrix, linear_predict
from .simulation import derive_rng

INF = math.inf

# the normal quantile is computed here (normal_quantile, a port of the
# Cephes ndtri that scipy.special.ndtri runs), so the log-normal intervals
# need no scipy; the count intervals load the scipy.special functions that
# the scipy.stats distributions call, inside the function that calls them:
# scipy.special costs a fresh process about 0.3 s and 16 MB, scipy.stats
# about a second and 45 MB


# ---------------------------------------------------------------------------
# normal quantile: Cephes ndtri.c (Stephen L. Moshier), coefficient for
# coefficient, so that its results match scipy.special.ndtri bit for bit

_S2PI = 2.50662827463100050242e0  # sqrt(2 pi)
_EXP_M2 = 0.13533528323661269189  # exp(-2)

# |p - 1/2| <= 1/2 - exp(-2)
_P0 = (
    -5.99633501014107895267e1, 9.80010754185999661536e1,
    -5.66762857469070293439e1, 1.39312609387279679503e1,
    -1.23916583867381258016e0,
)
_Q0 = (
    1.95448858338141759834e0, 4.67627912898881538453e0,
    8.63602421390890590575e1, -2.25462687854119370527e2,
    2.00260212380060660359e2, -8.20372256168333339912e1,
    1.59056225126211695515e1, -1.18331621121330003142e0,
)
# x = sqrt(-2 log y) in [2, 8), y = min(p, 1 - p) in [exp(-32), exp(-2)]
_P1 = (
    4.05544892305962419923e0, 3.15251094599893866154e1,
    5.71628192246421288162e1, 4.40805073893200834700e1,
    1.46849561928858024014e1, 2.18663306850790267539e0,
    -1.40256079171354495875e-1, -3.50424626827848203418e-2,
    -8.57456785154685413611e-4,
)
_Q1 = (
    1.57799883256466749731e1, 4.53907635128879210584e1,
    4.13172038254672030440e1, 1.50425385692907503408e1,
    2.50464946208309415979e0, -1.42182922854787788574e-1,
    -3.80806407691578277194e-2, -9.33259480895457427372e-4,
)
# x in [8, 64): y below exp(-32)
_P2 = (
    3.23774891776946035970e0, 6.91522889068984211695e0,
    3.93881025292474443415e0, 1.33303460815807542389e0,
    2.01485389549179081538e-1, 1.23716634817820021358e-2,
    3.01581553508235416007e-4, 2.65806974686737550832e-6,
    6.23974539184983293730e-9,
)
_Q2 = (
    6.02427039364742014255e0, 3.67983563856160859403e0,
    1.37702099489081330271e0, 2.16236993594496635890e-1,
    1.34204006088543189037e-2, 3.28014464682127739104e-4,
    2.89247864745380683936e-6, 6.79019408009981274425e-9,
)


def _polevl(x: float, coef) -> float:
    """Cephes polevl: sum of coef[i] * x**(N - i), by Horner's rule."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x: float, coef) -> float:
    """Cephes p1evl: polevl with an implied leading coefficient of 1."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def normal_quantile(p: float) -> float:
    """Standard normal quantile Phi^-1(p), what scipy.stats.norm.ppf and
    scipy.special.ndtri return: -inf at 0, +inf at 1."""
    p = float(p)
    if p == 0.0:
        return -INF
    if p == 1.0:
        return INF
    if not 0.0 < p < 1.0:
        raise ConfigurationError(f"normal quantile needs p in [0, 1], got {p}")
    lower = True
    y = p
    if y > 1.0 - _EXP_M2:
        y = 1.0 - y
        lower = False
    if y > _EXP_M2:
        y = y - 0.5
        y2 = y * y
        x = y + y * (y2 * _polevl(y2, _P0) / _p1evl(y2, _Q0))
        return x * _S2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    if x < 8.0:  # y > exp(-32)
        x1 = z * _polevl(z, _P1) / _p1evl(z, _Q1)
    else:
        x1 = z * _polevl(z, _P2) / _p1evl(z, _Q2)
    x = x0 - x1
    return -x if lower else x


# ---------------------------------------------------------------------------
# residual bootstrap


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
    residuals,
    alpha: float,
    n_draws: int = 2000,
    rng=None,
) -> IntervalBatch:
    """Bootstrap intervals for many predictions sharing one residual pool.

    ``y_hats`` and ``residuals`` are on one scale, and so are the returned
    bounds. Each prediction gets ``n_draws`` residuals resampled with
    replacement and SUBTRACTED from it (the basic reverse-percentile form,
    which reflects skew in the error pool); the interval is the empirical
    [alpha/2, 1 - alpha/2] quantile range of the simulated outcomes
    (numpy's default linear method). For symmetric pools this coincides
    with adding the residuals.

    Rows are processed in blocks of about 1 MB of draws. Each block's
    indices are drawn from ``rng`` in row order, which yields the same
    integers as one (n, n_draws) draw, and its quantiles are taken from
    the sorted ranks of its draws. A row's bounds depend only on its own
    draws, so the result does not depend on the block size, and memory
    stays O(block) instead of O(n).
    """
    res = np.asarray(residuals, dtype=float).ravel()
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
    return IntervalBatch.from_bounds(bounds[0], bounds[1])


# ---------------------------------------------------------------------------
# parametric intervals


def lognormal_interval(y_hat_log: float, sigma_hat: float, alpha: float) -> PredictionInterval:
    """exp(y_hat_log +/- z_{1-alpha/2} * sigma_hat)."""
    if not sigma_hat > 0:
        raise NumericalError(f"dispersion must be positive, got {sigma_hat}")
    z = normal_quantile(1 - _validate_alpha(alpha) / 2)
    return PredictionInterval(
        math.exp(y_hat_log - z * sigma_hat), math.exp(y_hat_log + z * sigma_hat)
    )


def residual_sigma(residuals) -> float:
    """Sample standard deviation of calibration residuals."""
    res = np.asarray(residuals, dtype=float).ravel()
    if res.size < 2:
        raise DataError("need at least 2 calibration records to estimate dispersion")
    return float(np.std(res, ddof=1))


def _count_quantiles(mus, alpha: float, what: str, quantile) -> IntervalBatch:
    """Central [alpha/2, 1-alpha/2] intervals from ``quantile(q, means)``,
    the ``_ppf`` of a scipy.stats count distribution; a zero mean gives
    [0, 0], and an alpha so small that 1 - alpha/2 rounds to 1 gives an
    upper bound of +inf."""
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
        q_hi = 1 - alpha / 2
        hi[positive] = math.inf if q_hi == 1.0 else quantile(q_hi, mus[positive]) + 0.0
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
        """Prediction per row of a feature matrix; a 1-D input is one feature."""
        return linear_predict(self.coefficients, x)


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
