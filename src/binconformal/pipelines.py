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

import numpy as np
from scipy.stats import norm

from . import baselines
from .conformal import (
    bccp_bounds,
    bccp_contiguous_bounds,
    calibrate,
    require_finite,
    scp_bounds,
)
from .errors import ConfigurationError, DataError
from .intervals import BinPartition, IntervalBatch
from .models import OutcomeTransform, round_count_bounds

INF = math.inf

METHOD_KINDS = (
    "scp",
    "bccp-d",
    "bccp-c",
    "bootstrap",
    "bootstrap-log",
    "lognormal",
    "poisson",
    "negbinom",
    "quantreg",
)

CONFORMAL_BOUNDS = {
    "scp": scp_bounds,
    "bccp-d": bccp_bounds,
    "bccp-c": bccp_contiguous_bounds,
}
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


def _clamp_predictions(y_pred, transform, support_min):
    """Clamp raw predictions the transform cannot accept; report which."""
    arr = np.asarray(y_pred, dtype=float).ravel()
    if transform is OutcomeTransform.LOG:
        if np.any(arr <= 0):
            raise DataError(
                "log-scale method needs strictly positive predictions; "
                "use log1p for count-like data"
            )
        return arr, np.zeros(arr.size, dtype=bool)
    floor = max(support_min, transform.support_min)
    if not math.isfinite(floor):
        return arr, np.zeros(arr.size, dtype=bool)
    clamped = arr < floor
    return np.maximum(arr, floor), clamped


def _finish(batch, clamped, round_counts, notes=(), crossed=None):
    if round_counts:
        batch = IntervalBatch.from_slots(
            round_count_bounds(batch.lower), round_count_bounds(batch.upper)
        )
    codes = clamped + 2 * (batch.total_width() == INF)
    if crossed is not None:
        codes = codes + 4 * crossed
    flags = [FLAG_TUPLES[c] for c in codes.tolist()]
    return MethodIntervals(sets=batch, flags=flags, notes=tuple(notes))


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
    partition (bcc methods only). ``support_min`` defaults to the
    transform's domain minimum. ``quantreg_design`` optionally supplies
    (train_features, train_y_raw, test_features); without it the quantile
    regression uses the transformed point prediction as its one regressor,
    fit on the calibration pairs. NaN or infinite calibration outcomes,
    calibration predictions or test predictions raise DataError.
    """
    if kind not in METHOD_KINDS:
        raise ConfigurationError(
            f"unknown method {kind!r}; expected one of {', '.join(METHOD_KINDS)}"
        )
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

    if kind in CONFORMAL_BOUNDS:
        return _conformal_intervals(
            kind, yt_cal, yp_cal, yp_test, clamped, alpha, transform, bins,
            round_counts, allow_empty_bins, smin_raw,
        )
    if kind in ("bootstrap", "bootstrap-log"):
        return _bootstrap_intervals(
            kind, yt_cal, yp_cal, yp_test, clamped, alpha, transform,
            round_counts, n_draws, rng, smin_raw,
        )
    if kind == "lognormal":
        return _lognormal_intervals(
            yt_cal, yp_cal, yp_test, clamped, alpha, transform, round_counts
        )
    if kind in ("poisson", "negbinom"):
        return _count_intervals(
            kind, yt_cal, yp_cal, yp_test, clamped, alpha, round_counts
        )
    return _quantreg_intervals(
        yt_cal, yp_cal, yp_test, clamped, alpha, transform, round_counts,
        quantreg_design,
    )


def _transformed_support(transform, smin_raw):
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


def _conformal_intervals(
    kind, yt_cal, yp_cal, yp_test, clamped, alpha, transform, bins,
    round_counts, allow_empty_bins, smin_raw,
):
    if kind in ("bccp-d", "bccp-c") and bins is None:
        raise ConfigurationError(f"method {kind} requires outcome bins")
    if kind == "scp" and bins is not None:
        raise ConfigurationError("bins only apply to the bccp-* methods")
    t_smin = _transformed_support(transform, smin_raw)
    partition = None
    snap = {}
    if bins is not None:
        if transform is OutcomeTransform.IDENTITY:
            partition = bins
        else:
            partition = bins.transformed(transform.forward)
            snap = dict(zip(partition.breakpoints, bins.breakpoints))
            if math.isfinite(partition.support_min):
                snap[partition.support_min] = bins.support_min
    cal = calibrate(
        transform.forward(yt_cal), transform.forward(yp_cal), alpha,
        partition=partition, support_min=t_smin, allow_empty_bins=allow_empty_bins,
    )
    notes = []
    if cal.bin_quantiles and any(math.isinf(q) for q in cal.bin_quantiles.values()):
        notes.append("one or more bins fell back to an infinite quantile")
    lower, upper = CONFORMAL_BOUNDS[kind](transform.forward(yp_test), cal)
    # back-transform (in place: the bounds are fresh arrays), then merge
    # once on the raw scale; the inverse is monotone and snapping maps
    # equal values to equal values, so this equals merging on both scales
    if transform is not OutcomeTransform.IDENTITY:
        _back_transform(lower, upper, transform, snap)
    return _finish(IntervalBatch.from_slots(lower, upper), clamped, round_counts, notes)


def _bootstrap_intervals(
    kind, yt_cal, yp_cal, yp_test, clamped, alpha, transform,
    round_counts, n_draws, rng, smin_raw,
):
    if kind == "bootstrap":
        scale = OutcomeTransform.IDENTITY
    else:
        if transform not in LOG_FAMILY:
            raise ConfigurationError(
                "bootstrap-log requires the log or log1p transform"
            )
        scale = transform
    pool = baselines.residual_pool(yt_cal, yp_cal, scale)
    y_hats = scale.forward(yp_test)
    intervals = baselines.bootstrap_intervals(
        y_hats, pool, alpha, n_draws=n_draws, rng=rng, support_min=smin_raw
    )
    return _finish(intervals, clamped, round_counts)


def _lognormal_intervals(yt_cal, yp_cal, yp_test, clamped, alpha, transform, round_counts):
    if transform not in LOG_FAMILY:
        raise ConfigurationError(
            "the log-normal method requires the log or log1p transform"
        )
    sigma = baselines.residual_sigma(yt_cal, yp_cal, transform)
    if sigma <= 0:
        raise DataError("calibration residuals have zero dispersion")
    z = float(norm.ppf(1 - alpha / 2))
    p_t = transform.forward(yp_test)
    intervals = IntervalBatch.from_bounds(
        transform.inverse(p_t - z * sigma), transform.inverse(p_t + z * sigma)
    )
    return _finish(intervals, clamped, round_counts)


def _count_intervals(kind, yt_cal, yp_cal, yp_test, clamped, alpha, round_counts):
    if np.any(yt_cal < 0):
        raise DataError("count-distribution methods need nonnegative outcomes")
    mus = np.maximum(0.0, yp_test)
    notes = []
    if kind == "negbinom":
        dispersion = baselines.estimate_nb_dispersion(yt_cal, np.maximum(0.0, yp_cal))
        if dispersion is None:
            notes.append("no overdispersion in calibration; using Poisson quantiles")
            intervals = baselines.poisson_intervals(mus, alpha)
        else:
            intervals = baselines.negbinom_intervals(mus, dispersion, alpha)
    else:
        intervals = baselines.poisson_intervals(mus, alpha)
    return _finish(intervals, clamped, round_counts, notes)


def _quantreg_intervals(
    yt_cal, yp_cal, yp_test, clamped, alpha, transform, round_counts, quantreg_design,
):
    if quantreg_design is not None:
        X_fit, y_fit_raw, X_test = quantreg_design
        y_fit = transform.forward(np.asarray(y_fit_raw, dtype=float).ravel())
    else:
        X_fit = transform.forward(yp_cal)[:, None]
        y_fit = transform.forward(yt_cal)
        X_test = transform.forward(yp_test)[:, None]
    model = baselines.quantreg_pair(X_fit, y_fit, alpha)
    lo_t = model.lower.predict(np.asarray(X_test, dtype=float))
    hi_t = model.upper.predict(np.asarray(X_test, dtype=float))
    intervals = IntervalBatch.from_bounds(
        transform.inverse(np.minimum(lo_t, hi_t)),
        transform.inverse(np.maximum(lo_t, hi_t)),
    )
    return _finish(intervals, clamped, round_counts, crossed=lo_t > hi_t)
