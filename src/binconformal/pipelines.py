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
    """Test-row interval sets with row flags and method-level notes."""

    sets: IntervalBatch
    flags: list
    notes: tuple = ()


@dataclass(frozen=True, eq=False)
class _Inputs:
    """Validated inputs of one :func:`make_intervals` call, as every
    builder reads them: finite float arrays, predictions already clamped,
    ``support_min`` on the raw scale."""

    y_true_cal: np.ndarray
    y_pred_cal: np.ndarray
    y_pred_test: np.ndarray
    alpha: float
    transform: OutcomeTransform
    bins: BinPartition | None
    allow_empty_bins: bool
    n_draws: int
    rng: object
    support_min: float
    quantreg_design: tuple | None


def _clamp_predictions(arr, transform, support_min):
    """Clamp raw predictions below ``max(support_min, transform.support_min)``
    to that floor; report which."""
    floor = max(support_min, transform.support_min)
    if not math.isfinite(floor):
        return arr, np.zeros(arr.size, dtype=bool)
    clamped = arr < floor
    return np.maximum(arr, floor), clamped


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
    one. ``support_min`` defaults to the transform's domain minimum; every
    method clips both endpoints of its intervals at it.
    ``quantreg_design`` optionally supplies
    (train_features, train_y_raw, test_features); without it the quantile
    regression uses the transformed point prediction as its one regressor,
    fit on the calibration pairs. NaN or infinite calibration outcomes,
    calibration predictions or test predictions raise DataError; an
    ``alpha`` outside (0, 1) raises ConfigurationError.
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
    smin_raw = transform.support_min if support_min is None else float(support_min)
    yt_cal = require_finite(y_true_cal, "calibration outcomes")
    yp_cal, _ = _clamp_predictions(
        require_finite(y_pred_cal, "calibration predictions"), transform, smin_raw
    )
    yp_test, clamped = _clamp_predictions(
        require_finite(y_pred_test, "test predictions"), transform, smin_raw
    )
    if yt_cal.size != yp_cal.size:
        raise DataError(
            f"calibration outcomes ({yt_cal.size}) and predictions "
            f"({yp_cal.size}) lengths differ"
        )
    batch, notes, crossed = BUILDERS[kind](_Inputs(
        yt_cal, yp_cal, yp_test, alpha, transform, bins, allow_empty_bins,
        n_draws, rng, smin_raw, quantreg_design,
    ))
    if round_counts:
        batch = IntervalBatch.from_slots(
            round_count_bounds(batch.lower), round_count_bounds(batch.upper)
        )
    codes = clamped + 2 * (batch.total_width() == INF) + 4 * crossed
    flags = [FLAG_TUPLES[c] for c in codes.tolist()]
    return MethodIntervals(sets=batch, flags=flags, notes=notes)


def _transformed_support(transform, smin_raw):
    """A raw lower bound on the method's scale; -inf where the transform
    maps it below every finite value (``log`` of 0 or less)."""
    if not math.isfinite(smin_raw):
        return -INF
    if transform is OutcomeTransform.LOG and smin_raw <= 0:
        return -INF
    return float(transform.forward(smin_raw))


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


# Each builder maps the validated inputs to (batch, notes, crossed): the
# raw-scale IntervalBatch, a tuple of method-level notes, and a per-row
# mask of crossed quantile pairs (False where no pair can cross).


def _conformal(contiguous, inputs):
    # SCP is BCCP-d over the one all-support bin
    transform = inputs.transform
    bins = inputs.bins or BinPartition((), inputs.support_min)
    partition = BinPartition(
        map(transform.forward, bins.breakpoints),
        _transformed_support(transform, bins.support_min),
    )
    snap = dict(zip(partition.breakpoints, bins.breakpoints))
    if math.isfinite(partition.support_min):
        snap[partition.support_min] = bins.support_min
    # empty bins are checked against the raw bins, whose bounds the user gave
    cal = calibrate(
        transform.forward(inputs.y_true_cal), transform.forward(inputs.y_pred_cal),
        inputs.alpha, partition=partition,
        support_min=_transformed_support(transform, inputs.support_min),
        allow_empty_bins=True,
    )
    if not inputs.allow_empty_bins:
        require_records(bins, cal.bin_indices)
    notes = ()
    if any(math.isinf(q) for q in cal.bin_quantiles.values()):
        notes = ("one or more bins fell back to an infinite quantile",)
    lower, upper = bccp_bounds(transform.forward(inputs.y_pred_test), cal)
    if contiguous:  # on the method's scale, so hull endpoints snap too
        hull = IntervalBatch.from_slots(lower, upper).hull()
        lower, upper = hull.lower, hull.upper
    # back-transform (in place: the bounds are fresh arrays), then merge
    # once on the raw scale; the inverse is monotone and snapping maps
    # equal values to equal values, so this equals merging on both scales
    if transform is not OutcomeTransform.IDENTITY:
        _back_transform(lower, upper, transform, snap)
    return IntervalBatch.from_slots(lower, upper), notes, False


def _log_scale(inputs, method):
    if inputs.transform not in LOG_FAMILY:
        raise ConfigurationError(f"{method} requires the log or log1p transform")
    return inputs.transform


def _clipped(lower, upper, inputs):
    """One segment per row, both endpoints raised to ``support_min``."""
    floor = inputs.support_min
    return IntervalBatch.from_bounds(np.maximum(floor, lower), np.maximum(floor, upper))


def _bootstrap(inputs, scale=OutcomeTransform.IDENTITY):
    pool = baselines.residual_pool(inputs.y_true_cal, inputs.y_pred_cal, scale)
    batch = baselines.bootstrap_intervals(
        scale.forward(inputs.y_pred_test), pool, inputs.alpha,
        n_draws=inputs.n_draws, rng=inputs.rng,
    )
    return _clipped(batch.lower, batch.upper, inputs), (), False


def _bootstrap_log(inputs):
    return _bootstrap(inputs, _log_scale(inputs, "bootstrap-log"))


def _lognormal(inputs):
    transform = _log_scale(inputs, "the log-normal method")
    sigma = baselines.residual_sigma(inputs.y_true_cal, inputs.y_pred_cal, transform)
    if sigma <= 0:
        raise DataError("calibration residuals have zero dispersion")
    # the normal quantile is computed in the package, so this method loads
    # no extension module beyond numpy
    z = baselines.normal_quantile(1 - inputs.alpha / 2)
    p_t = transform.forward(inputs.y_pred_test)
    batch = _clipped(
        transform.inverse(p_t - z * sigma), transform.inverse(p_t + z * sigma), inputs
    )
    return batch, (), False


def _count_means(inputs):
    if np.any(inputs.y_true_cal < 0):
        raise DataError("count-distribution methods need nonnegative outcomes")
    return np.maximum(0.0, inputs.y_pred_test)


def _poisson(inputs):
    batch = baselines.poisson_intervals(_count_means(inputs), inputs.alpha)
    return _clipped(batch.lower, batch.upper, inputs), (), False


def _negbinom(inputs):
    mus = _count_means(inputs)
    dispersion = baselines.estimate_nb_dispersion(
        inputs.y_true_cal, np.maximum(0.0, inputs.y_pred_cal)
    )
    notes = ()
    if dispersion is None:
        notes = ("no overdispersion in calibration; using Poisson quantiles",)
        batch = baselines.poisson_intervals(mus, inputs.alpha)
    else:
        batch = baselines.negbinom_intervals(mus, dispersion, inputs.alpha)
    return _clipped(batch.lower, batch.upper, inputs), notes, False


def _quantreg(inputs):
    transform = inputs.transform
    if inputs.quantreg_design is not None:
        X_fit, y_fit_raw, X_test = inputs.quantreg_design
        y_fit = transform.forward(np.asarray(y_fit_raw, dtype=float).ravel())
    else:
        X_fit = transform.forward(inputs.y_pred_cal)[:, None]
        y_fit = transform.forward(inputs.y_true_cal)
        X_test = transform.forward(inputs.y_pred_test)[:, None]
    model = baselines.quantreg_pair(X_fit, y_fit, inputs.alpha)
    lo_t = model.lower.predict(np.asarray(X_test, dtype=float))
    hi_t = model.upper.predict(np.asarray(X_test, dtype=float))
    batch = _clipped(
        transform.inverse(np.minimum(lo_t, hi_t)),
        transform.inverse(np.maximum(lo_t, hi_t)),
        inputs,
    )
    return batch, (), lo_t > hi_t


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
