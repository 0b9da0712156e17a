"""Inductive conformal prediction with optional conditioning on outcome bins.

The standard split conformal (SCP) interval for an absolute-error
nonconformity score is ``[y_hat - q, y_hat + q]`` where q is the
finite-sample-corrected quantile of calibration scores. Under an outcome
transform f the scores are ``|f(y) - f(y_hat)|`` and the interval is
``[f^-1(f(y_hat) - q), f^-1(f(y_hat) + q)]``. The bin-conditional variant
(BCCP) computes a separate quantile from the calibration records whose
observed outcome falls in each bin, intersects each bin's interval with the
bin itself, and combines the pieces: as the discontiguous union (BCCPd) or
as its contiguized hull (BCCPc). SCP is BCCP with the single all-support
bin, which a calibration built without a partition holds.

Conventions, fixed here so results are deterministic:

* The calibration quantile is the ``ceil((n+1)(1-alpha))``-th smallest
  score, +inf when that rank exceeds n (the conservative small-sample
  case). This is what makes the >= 1-alpha coverage guarantee exact.
* p-values count ties as "as large or larger"; no randomized smoothing.
* Per-bin intervals are cut at the right-open bin edge; when segments from
  adjacent bins touch at a breakpoint the union closes the joint. A
  segment that would consist solely of the excluded right edge is empty.
* The partition's ``support_min`` is the one support floor: predictions
  below it are clamped to it before interval construction, and calibration
  outcomes below it are a DataError. The partition is on the raw outcome
  axis, whatever the transform: calibration records are assigned there,
  and each bin's back-transformed segment is cut at its raw edges, so a
  record is scored in the bin that evaluation puts it in.
* A calibration of bare scores ``s`` is ``calibrate(s, np.zeros(n), alpha)``.

The per-row functions (:func:`scp_interval`, :func:`bccp_discontiguous`,
:func:`bccp_contiguous`) are the reference. :func:`bccp_bounds`, every
bin's segment for a whole array of predictions at once, in fresh arrays
the caller owns, is the one batch kernel the pipelines run; SCP is its
one-bin case and BCCPc the hull of its merged slots. The tie rule: a
lower endpoint is ``max(lo_b, f^-1(f(y_hat) - q_b))`` and an upper one
``min(f^-1(f(y_hat) + q_b), hi_b)``, and Python's ``max(a, b)`` returns
``b`` only when ``b > a``, so on a tie the bin edge is kept (a ``-0.0``
meeting an edge of ``0.0`` gives ``0.0``). The kernel spells out that
comparison with ``np.copyto`` and a ``where`` mask; ``np.maximum`` would
pick a different zero.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, DataError
from .intervals import (
    BinPartition,
    IntervalSet,
    PredictionInterval,
    union,
)
from .models import OutcomeTransform

INF = math.inf


def require_finite(values, what: str) -> np.ndarray:
    """Values as a flat float array; DataError on any NaN or infinity."""
    arr = np.asarray(values, dtype=float).ravel()
    bad = ~np.isfinite(arr)
    if bad.any():
        raise DataError(
            f"{what} must be finite: {int(bad.sum())} NaN or infinite values "
            f"(first at position {int(np.argmax(bad))}: {float(arr[bad][0])!r})"
        )
    return arr


def _validate_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise ConfigurationError(f"alpha must be strictly inside (0, 1), got {alpha}")
    return alpha


def finite_sample_quantile(scores, alpha: float) -> float:
    """Finite-sample-corrected upper quantile of nonconformity scores.

    Returns the r-th smallest score with r = ceil((n+1)(1-alpha)), taken
    without interpolation, or +inf when r > n.
    """
    arr = np.asarray(scores, dtype=float).ravel()
    n = arr.size
    if n == 0:
        raise DataError("empty calibration: no nonconformity scores")
    alpha = _validate_alpha(alpha)
    # ceil((n+1)(1-a)) == (n+1) - floor((n+1)a); the floor form avoids the
    # float drift of (1-a) pushing the ceiling up one rank
    rank = n + 1 - math.floor((n + 1) * alpha + 1e-9)
    if rank > n:
        return INF
    return float(np.partition(arr, rank - 1)[rank - 1])


@dataclass(frozen=True, eq=False)
class ConformalCalibration:
    """Calibration scores with precomputed per-bin quantiles.

    ``scores`` are the absolute errors on the method's scale,
    ``|f(y_true) - f(y_pred)|`` for the ``transform`` f; ``bin_indices``
    follow the raw observed outcome ``y_true``, never the prediction, in
    the raw ``partition``. Without a partition of its own the calibration
    holds the one all-support bin, whose quantile is the global one.
    """

    scores: np.ndarray
    alpha: float
    bin_quantiles: dict  # 1-based bin index -> per-bin quantile
    partition: BinPartition
    bin_indices: np.ndarray
    transform: OutcomeTransform = OutcomeTransform.IDENTITY

    @cached_property
    def quantile(self) -> float:
        """Global quantile of all scores, computed on first read: the
        pipelines read only ``bin_quantiles``."""
        return finite_sample_quantile(self.scores, self.alpha)

    def scores_in_bin(self, index: int) -> np.ndarray:
        return self.scores[self.bin_indices == index]

    def clamp(self, y_hat: float) -> float:
        smin = self.partition.support_min
        return y_hat if y_hat >= smin else smin


def calibrate(
    y_true,
    y_pred,
    alpha: float,
    *,
    partition: BinPartition = BinPartition(),
    allow_empty_bins: bool = False,
    transform: OutcomeTransform = OutcomeTransform.IDENTITY,
) -> ConformalCalibration:
    """Build a conformal calibration from held-out raw (y_true, y_pred) pairs.

    Scores ``|f(y_true) - f(y_pred)|`` are computed on the scale of
    ``transform`` f and grouped by the bin of the raw observed outcome, and
    a per-bin quantile is stored for each bin; the default partition is the
    one bin over the whole real line. An outcome below ``partition.support_min``
    raises DataError. A bin with no calibration records raises unless
    ``allow_empty_bins`` is set, in which case its quantile is +inf (the
    whole-bin fallback). NaN or infinite outcomes and predictions, values
    outside the transform's domain, and scores that overflow to infinity,
    raise DataError.
    """
    alpha = _validate_alpha(alpha)
    yt = require_finite(y_true, "calibration outcomes")
    yp = require_finite(y_pred, "calibration predictions")
    if yt.size != yp.size:
        raise DataError(f"y_true ({yt.size}) and y_pred ({yp.size}) lengths differ")
    if yt.size == 0:
        raise DataError("empty calibration: no records")
    with np.errstate(over="ignore"):
        scores = np.abs(transform.forward(yt) - transform.forward(yp))
    scores = require_finite(scores, "calibration scores")
    bin_indices = partition.assign_many(yt)
    counts = np.bincount(bin_indices, minlength=partition.n_bins + 1)[1:]
    if not (allow_empty_bins or counts.all()):
        lo, hi = partition.bin_bounds(b := int(np.argmin(counts)) + 1)
        raise DataError(
            f"bin {b} [{lo}, {hi}) has no calibration records; "
            f"widen the bins or enable the whole-bin fallback"
        )
    bin_quantiles = {}
    for b in range(1, partition.n_bins + 1):
        in_bin = scores[bin_indices == b]
        bin_quantiles[b] = finite_sample_quantile(in_bin, alpha) if in_bin.size else INF

    return ConformalCalibration(
        scores=scores,
        alpha=alpha,
        bin_quantiles=bin_quantiles,
        partition=partition,
        bin_indices=bin_indices,
        transform=transform,
    )


def scp_interval(y_hat: float, calibration: ConformalCalibration) -> PredictionInterval:
    """Split conformal interval [y_hat - q, y_hat + q] on the calibration's
    scale, mapped back to the raw outcome and clipped to the support."""
    f = calibration.transform
    y0 = f.forward(calibration.clamp(float(y_hat)))
    q = calibration.quantile
    lower = max(calibration.partition.support_min, f.inverse(y0 - q))
    return PredictionInterval(lower, f.inverse(y0 + q))


def bccp_per_bin_interval(
    y_hat: float, bin_index: int, calibration: ConformalCalibration
) -> PredictionInterval | None:
    """One bin's contribution: [y_hat - q_b, y_hat + q_b] on the
    calibration's scale, mapped back to the raw outcome and cut to the bin.

    Returns None when the intersection is empty. An infinite per-bin
    quantile returns the whole bin. The right-open bin edge is closed in
    the returned segment, except that a segment consisting solely of that
    excluded edge point is empty.
    """
    lo_bin, hi_bin = calibration.partition.bin_bounds(bin_index)
    q_b = calibration.bin_quantiles[bin_index]
    if math.isinf(q_b):
        return PredictionInterval(lo_bin, hi_bin)
    f = calibration.transform
    y0 = f.forward(calibration.clamp(float(y_hat)))
    lo = max(lo_bin, f.inverse(y0 - q_b))
    hi = min(f.inverse(y0 + q_b), hi_bin)
    if lo > hi:
        return None
    if lo == hi == hi_bin and math.isfinite(hi_bin):
        return None  # only the excluded right edge remains
    return PredictionInterval(lo, hi)


def bccp_discontiguous(y_hat: float, calibration: ConformalCalibration) -> IntervalSet:
    """Union of every bin's interval; non-empty for any in-support y_hat."""
    pieces = []
    for b in range(1, calibration.partition.n_bins + 1):
        piece = bccp_per_bin_interval(y_hat, b, calibration)
        if piece is not None:
            pieces.append(piece)
    return union(pieces)


def bccp_contiguous(y_hat: float, calibration: ConformalCalibration) -> PredictionInterval:
    """Contiguized variant: the hull of the discontiguous union."""
    return bccp_discontiguous(y_hat, calibration).hull()


def bccp_bounds(y_hats, calibration: ConformalCalibration) -> tuple:
    """:func:`bccp_per_bin_interval` for every prediction and bin at once.

    Returns (n, n_bins) lower and upper arrays, column b-1 holding bin b's
    segment and NaN where the bin contributes none. Slots come in bin
    order, so they are sorted; segments touching at a breakpoint are not
    merged here. With a one-bin partition these are the
    :func:`scp_interval` endpoints. An endpoint whose inverse overflows is
    +inf, without a warning.
    """
    partition, f = calibration.partition, calibration.transform
    smin = partition.support_min
    bins = range(1, partition.n_bins + 1)
    lo_bin, hi_bin = np.array([partition.bin_bounds(b) for b in bins]).T
    q = np.array([calibration.bin_quantiles[b] for b in bins])
    y = np.asarray(y_hats, dtype=float).ravel()[:, None]
    y0 = f.forward(np.where(y >= smin, y, smin))  # ConformalCalibration.clamp
    # for finite y0 an infinite q_b yields the whole bin [lo_b, hi_b] here
    with np.errstate(over="ignore"):
        lower, upper = f.inverse(y0 - q), f.inverse(y0 + q)
    np.copyto(lower, lo_bin, where=lo_bin >= lower)  # max(lo_b, lower)
    np.copyto(upper, hi_bin, where=hi_bin < upper)  # min(upper, hi_b)
    empty = (lower > upper) | (
        (lower == upper) & (upper == hi_bin) & np.isfinite(hi_bin)
    )  # the second term: only the excluded right edge remains
    lower[empty] = np.nan
    upper[empty] = np.nan
    return lower, upper


def grid_interval(
    y_hat: float,
    scores,
    y_grid,
    alpha: float,
) -> IntervalSet:
    """Brute-force conformal set: grid points whose p-value exceeds alpha.

    Maximal runs of accepted grid points become closed intervals from the
    first to the last point of the run. This is the slow oracle the
    analytic constructions are checked against; the result can be empty
    for extreme alpha with few scores.
    """
    arr = np.sort(np.asarray(scores, dtype=float).ravel())
    if arr.size == 0:
        raise DataError("empty calibration: no nonconformity scores")
    alpha = _validate_alpha(alpha)
    grid = np.asarray(y_grid, dtype=float).ravel()
    if grid.size == 0:
        raise ConfigurationError("y_grid must be non-empty")
    if np.any(np.diff(grid) < 0):
        raise ConfigurationError("y_grid must be sorted ascending")
    candidate_scores = np.abs(grid - float(y_hat))
    count_ge = arr.size - np.searchsorted(arr, candidate_scores, side="left")
    accepted = (1 + count_ge) / (arr.size + 1) > alpha

    segments = []
    start = None
    for i, ok in enumerate(accepted):
        if ok and start is None:
            start = i
        elif not ok and start is not None:
            segments.append(PredictionInterval(grid[start], grid[i - 1]))
            start = None
    if start is not None:
        segments.append(PredictionInterval(grid[start], grid[-1]))
    return IntervalSet(tuple(segments))

