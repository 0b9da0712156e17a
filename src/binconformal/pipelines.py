"""Interval construction for every supported method, on a declared scale.

One entry point builds test-set intervals from calibration pairs plus test
predictions, handling the scale bookkeeping shared by the CLI and the
replication harness: transform inputs, clamp out-of-support predictions,
construct intervals on the transformed scale, back-transform the
endpoints, and optionally round to the integer count scale. Every step
works on whole arrays of test rows and ends in one
:class:`~binconformal.intervals.IntervalBatch`.
"""

import math
import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import baselines
from .conformal import (
    _validate_alpha,
    bccp_bounds,
    calibrate,
    require_finite,
    require_records,
)
from .errors import ConfigurationError, DataError
from .intervals import BinPartition, IntervalBatch
from .models import OutcomeTransform, round_count_bounds

INF = math.inf

BINNED_KINDS = ("bccp-d", "bccp-c")
LOG_FAMILY = (OutcomeTransform.LOG, OutcomeTransform.LOG1P)

# every possible row-flag tuple, in file order, indexed by
# clamped + 2 * unbounded + 4 * crossed
FLAG_NAMES = ("clamped", "unbounded", "crossed")
FLAG_TUPLES = tuple(
    tuple(name for bit, name in enumerate(FLAG_NAMES) if code & (1 << bit))
    for code in range(8)
)


@dataclass(frozen=True, eq=False)
class MethodIntervals:
    """Test-row interval sets with their row flags."""

    sets: IntervalBatch
    flags: list


@dataclass(frozen=True, eq=False)
class _Inputs:
    """Validated inputs of one :func:`make_intervals` call, as every
    builder reads them: finite float arrays, predictions already raised to
    ``floor``, the call's one support floor on the raw scale."""

    y_true_cal: np.ndarray
    y_pred_cal: np.ndarray
    y_pred_test: np.ndarray
    alpha: float
    transform: OutcomeTransform
    bins: BinPartition | None
    allow_empty_bins: bool
    n_draws: int
    rng: object
    floor: float
    quantreg_design: tuple | None


def make_intervals(
    kind: str,
    y_true_cal,
    y_pred_cal,
    y_pred_test,
    *,
    alpha: float,
    transform: OutcomeTransform = OutcomeTransform.IDENTITY,
    bins: BinPartition | None = None,
    round_counts: bool = False,
    allow_empty_bins: bool = False,
    n_draws: int = 2000,
    rng=None,
    support_min: float | None = None,
    quantreg_design: tuple | None = None,
) -> MethodIntervals:
    """Intervals for each test prediction under one method.

    ``transform`` declares the scale the method operates on: conformal
    scores, bootstrap-log residuals, log-normal dispersions, and quantile
    regressions are computed on transform(y), and interval endpoints are
    mapped back to the raw outcome scale. ``bins`` is a raw-scale
    partition, required by the bccp-* methods and rejected by every other
    one. The call has one support floor, the largest of
    ``transform.support_min``, ``support_min`` and ``bins.support_min``
    (an absent one counts as -inf): predictions below it are raised to it
    and flagged ``clamped``, the conformal bins start at it, and every
    method clips both endpoints of its intervals at it. A NaN or +inf
    ``support_min`` raises ConfigurationError.
    ``quantreg_design`` optionally supplies
    (train_features, train_y_raw, test_features); without it the quantile
    regression uses the transformed point prediction as its one regressor,
    fit on the calibration pairs. NaN or infinite calibration outcomes,
    calibration predictions or test predictions raise DataError; an
    ``alpha`` outside (0, 1) raises ConfigurationError. Method notes, such
    as bins that fell back to an infinite quantile, are UserWarnings.
    """
    alpha = _validate_alpha(alpha)
    if kind not in BUILDERS:
        raise ConfigurationError(
            f"unknown method {kind!r}; expected one of {', '.join(METHOD_KINDS)}"
        )
    if kind in BINNED_KINDS and bins is None:
        raise ConfigurationError(f"method {kind} requires outcome bins")
    if kind not in BINNED_KINDS and bins is not None:
        raise ConfigurationError("bins only apply to the bccp-* methods")
    if support_min is not None and not float(support_min) < INF:
        raise ConfigurationError(
            f"support_min must be a real number or -inf, got {support_min}"
        )
    floor = max(
        transform.support_min,
        -INF if support_min is None else float(support_min),
        -INF if bins is None else bins.support_min,
    )
    yt_cal = require_finite(y_true_cal, "calibration outcomes")
    yp_cal = np.maximum(require_finite(y_pred_cal, "calibration predictions"), floor)
    yp_test = require_finite(y_pred_test, "test predictions")
    clamped = yp_test < floor
    yp_test = np.maximum(yp_test, floor)
    if yt_cal.size != yp_cal.size:
        raise DataError(
            f"calibration outcomes ({yt_cal.size}) and predictions "
            f"({yp_cal.size}) lengths differ"
        )
    batch, crossed = BUILDERS[kind](_Inputs(
        yt_cal, yp_cal, yp_test, alpha, transform, bins, allow_empty_bins,
        n_draws, rng, floor, quantreg_design,
    ))
    if round_counts:
        batch = IntervalBatch.from_slots(
            round_count_bounds(batch.lower), round_count_bounds(batch.upper)
        )
    codes = clamped + 2 * (batch.total_width() == INF) + 4 * crossed
    flags = [FLAG_TUPLES[c] for c in codes.tolist()]
    return MethodIntervals(sets=batch, flags=flags)


def _back_transform(lower, upper, transform, snap):
    """Map the used slot endpoints back to the raw scale, in place, with
    one inverse call.

    ``snap`` maps transformed breakpoint values to their exact raw
    counterparts: endpoints that bind at a bin edge must land exactly on
    the raw cutpoint, not a float ulp away from it, or outcomes sitting on
    the cutpoint would drop out of the interval.
    """
    used = ~np.isnan(lower)
    values = np.concatenate([lower[used], upper[used]])
    raw = transform.inverse(values)
    for transformed, cutpoint in snap.items():
        raw[values == transformed] = cutpoint
    lower[used], upper[used] = np.split(raw, 2)


# Each builder maps the validated inputs to (batch, crossed): the raw-scale
# IntervalBatch and a per-row mask of crossed quantile pairs (False where no
# pair can cross). Notes are UserWarnings aimed at make_intervals' caller.


def _conformal(contiguous, inputs):
    # SCP is BCCP-d over the one all-support bin
    transform, floor = inputs.transform, inputs.floor
    bins = BinPartition(inputs.bins.breakpoints if inputs.bins else (), floor)
    # the same bins on the method's scale; log maps a 0 floor to -inf
    partition = BinPartition(
        map(transform.forward, bins.breakpoints),
        -INF if transform is OutcomeTransform.LOG and floor == 0
        else transform.forward(floor),
    )
    snap = dict(zip(partition.breakpoints, bins.breakpoints))
    snap[partition.support_min] = floor  # a -inf here is -inf or the log of 0
    # an empty bin is named by its raw bounds
    cal = calibrate(
        transform.forward(inputs.y_true_cal), transform.forward(inputs.y_pred_cal),
        inputs.alpha, partition=partition, allow_empty_bins=True,
    )
    if not inputs.allow_empty_bins:
        require_records(bins, cal.bin_indices)
    for b, q in cal.bin_quantiles.items():
        if q == INF:  # named, like an empty bin, by its raw bounds
            warnings.warn("bin {} [{}, {}) fell back to an infinite quantile".format(
                b, *bins.bin_bounds(b)), stacklevel=3)
    lower, upper = bccp_bounds(transform.forward(inputs.y_pred_test), cal)
    if contiguous:  # on the method's scale, so hull endpoints snap too
        hull = IntervalBatch.from_slots(lower, upper).hull()
        lower, upper = hull.lower, hull.upper
    # back-transform (in place: the bounds are fresh arrays), then merge
    # once on the raw scale; the inverse is monotone and snapping maps
    # equal values to equal values, so this equals merging on both scales
    if transform is not OutcomeTransform.IDENTITY:
        _back_transform(lower, upper, transform, snap)
    return IntervalBatch.from_slots(lower, upper), False


def _log_scale(inputs, method):
    if inputs.transform not in LOG_FAMILY:
        raise ConfigurationError(f"{method} requires the log or log1p transform")
    return inputs.transform


def _clipped(lower, upper, inputs):
    """One segment per row, both endpoints raised to the floor."""
    floor = inputs.floor
    return IntervalBatch.from_bounds(np.maximum(floor, lower), np.maximum(floor, upper))


def _residuals(inputs, scale):
    """Calibration residuals ``forward(y_true) - forward(y_pred)`` on ``scale``."""
    return scale.forward(inputs.y_true_cal) - scale.forward(inputs.y_pred_cal)


def _bootstrap(inputs, scale=OutcomeTransform.IDENTITY):
    batch = baselines.bootstrap_intervals(
        scale.forward(inputs.y_pred_test), _residuals(inputs, scale), inputs.alpha,
        n_draws=inputs.n_draws, rng=inputs.rng,
    )
    lower, upper = scale.inverse(batch.lower), scale.inverse(batch.upper)
    return _clipped(lower, upper, inputs), False


def _bootstrap_log(inputs):
    return _bootstrap(inputs, _log_scale(inputs, "bootstrap-log"))


def _lognormal(inputs):
    transform = _log_scale(inputs, "the log-normal method")
    sigma = baselines.residual_sigma(_residuals(inputs, transform))
    if sigma <= 0:
        raise DataError("calibration residuals have zero dispersion")
    # the normal quantile is computed in the package, so this method loads
    # no extension module beyond numpy
    z = baselines.normal_quantile(1 - inputs.alpha / 2)
    p_t = transform.forward(inputs.y_pred_test)
    batch = _clipped(
        transform.inverse(p_t - z * sigma), transform.inverse(p_t + z * sigma), inputs
    )
    return batch, False


def _count_means(inputs):
    if np.any(inputs.y_true_cal < 0):
        raise DataError("count-distribution methods need nonnegative outcomes")
    return np.maximum(0.0, inputs.y_pred_test)


def _poisson(inputs):
    batch = baselines.poisson_intervals(_count_means(inputs), inputs.alpha)
    return _clipped(batch.lower, batch.upper, inputs), False


def _negbinom(inputs):
    mus = _count_means(inputs)
    dispersion = baselines.estimate_nb_dispersion(
        inputs.y_true_cal, np.maximum(0.0, inputs.y_pred_cal)
    )
    if dispersion is None:
        warnings.warn("no overdispersion in calibration; using Poisson quantiles",
                      stacklevel=3)
        batch = baselines.poisson_intervals(mus, inputs.alpha)
    else:
        batch = baselines.negbinom_intervals(mus, dispersion, inputs.alpha)
    return _clipped(batch.lower, batch.upper, inputs), False


def _quantreg(inputs):
    transform = inputs.transform
    if inputs.quantreg_design is not None:
        X_fit, y_fit_raw, X_test = inputs.quantreg_design
        y_fit = transform.forward(y_fit_raw)
    else:
        X_fit = transform.forward(inputs.y_pred_cal)
        y_fit = transform.forward(inputs.y_true_cal)
        X_test = transform.forward(inputs.y_pred_test)
    model = baselines.quantreg_pair(X_fit, y_fit, inputs.alpha)
    lo_t = model.lower.predict(X_test)
    hi_t = model.upper.predict(X_test)
    batch = _clipped(
        transform.inverse(np.minimum(lo_t, hi_t)),
        transform.inverse(np.maximum(lo_t, hi_t)),
        inputs,
    )
    return batch, lo_t > hi_t


# builders look calibrate and the baselines up as module globals at call
# time, so a wrapper installed on those bindings sees every call
BUILDERS = {
    "scp": partial(_conformal, False),
    "bccp-d": partial(_conformal, False),
    "bccp-c": partial(_conformal, True),
    "bootstrap": _bootstrap,
    "bootstrap-log": _bootstrap_log,
    "lognormal": _lognormal,
    "poisson": _poisson,
    "negbinom": _negbinom,
    "quantreg": _quantreg,
}
METHOD_KINDS = tuple(BUILDERS)
