"""Inductive conformal prediction with optional conditioning on outcome bins.

The standard split conformal (SCP) interval for an absolute-error
nonconformity score is ``[y_hat - q, y_hat + q]`` where q is the
finite-sample-corrected quantile of calibration scores. The bin-conditional
variant (BCCP) computes a separate quantile from the calibration records
whose observed outcome falls in each bin, intersects each bin's interval
with the bin itself, and combines the pieces: as the discontiguous union
(BCCPd) or as its contiguized hull (BCCPc). SCP is BCCP with the single
all-support bin, which a calibration built without a partition holds.

Conventions, fixed here so results are deterministic:

* The calibration quantile is the ``ceil((n+1)(1-alpha))``-th smallest
  score, +inf when that rank exceeds n (the conservative small-sample
  case). This is what makes the >= 1-alpha coverage guarantee exact.
* p-values count ties as "as large or larger"; no randomized smoothing.
* Per-bin intervals are cut at the right-open bin edge; when segments from
  adjacent bins touch at a breakpoint the union closes the joint. A
  segment that would consist solely of the excluded right edge is empty.
* Predictions below the declared support minimum are clamped to it before
  interval construction. The support minimum, like the partition, is on
  the scale the scores are computed on; the pipelines map a raw bound
  there with one rule (``log`` of 0 is -inf).
* A calibration of bare scores ``s`` is ``calibrate(s, np.zeros(n), alpha)``.

The per-row functions (:func:`scp_interval`, :func:`bccp_discontiguous`,
:func:`bccp_contiguous`) are the reference. :func:`bccp_bounds`, every
bin's segment for a whole array of predictions at once, in fresh arrays
the caller owns, is the one batch kernel the pipelines run; SCP is its
one-bin case and BCCPc the hull of its merged slots. The tie rule: a lower endpoint is
``max(lo_b, y_hat - q_b)`` and an upper one ``min(y_hat + q_b, hi_b)``,
and Python's ``max(a, b)`` returns ``b`` only when ``b > a``, so on a tie
the bin edge is kept (a ``-0.0`` meeting an edge of ``0.0`` gives
``0.0``). The kernel spells out that comparison with ``np.copyto`` and a
``where`` mask; ``np.maximum`` would pick a different zero.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DataError
from .intervals import (
    BinPartition,
    IntervalSet,
    PredictionInterval,
    union,
)

INF = math.inf


def require_finite(values, what: str) -> np.ndarray:
    """Values as a flat float array; DataError on any NaN or infinity."""
    arr = np.asarray(values, dtype=float).ravel()
    bad = ~np.isfinite(arr)
    if bad.any():
        raise DataError(
            f"{what} must be finite: {int(bad.sum())} NaN or infinite values "
            f"(first at position {int(np.argmax(bad))}: {arr[bad][0]!r})"
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


def require_records(partition: BinPartition, bin_indices) -> None:
    """DataError naming the first bin of ``partition`` not in ``bin_indices``."""
    counts = np.bincount(bin_indices, minlength=partition.n_bins + 1)[1:]
    if not counts.all():
        lo, hi = partition.bin_bounds(b := int(np.argmin(counts)) + 1)
        raise DataError(
            f"bin {b} [{lo}, {hi}) has no calibration records; "
            f"widen the bins or enable the whole-bin fallback"
        )


@dataclass(frozen=True, eq=False)
class ConformalCalibration:
    """Calibration scores with precomputed global and per-bin quantiles.

    ``scores`` are the absolute errors ``|y_true - y_pred|``;
    ``bin_indices`` follow the observed outcome ``y_true``, never the
    prediction. Without a partition of its own the calibration holds the
    one all-support bin, whose quantile is the global one.
    """

    scores: np.ndarray
    alpha: float
    support_min: float
    quantile: float
    bin_quantiles: dict  # 1-based bin index -> per-bin quantile
    partition: BinPartition
    bin_indices: np.ndarray

    def scores_in_bin(self, index: int) -> np.ndarray:
        return self.scores[self.bin_indices == index]

    def clamp(self, y_hat: float) -> float:
        return y_hat if y_hat >= self.support_min else self.support_min


def calibrate(
    y_true,
    y_pred,
    alpha: float,
    *,
    partition: BinPartition | None = None,
    support_min: float = -INF,
    allow_empty_bins: bool = False,
) -> ConformalCalibration:
    """Build a conformal calibration from held-out (y_true, y_pred) pairs.

    Scores are grouped by the bin of the observed outcome and a per-bin
    quantile is stored for each bin; without a partition the one bin
    ``BinPartition((), support_min)`` holds them all. A bin with no
    calibration records raises unless ``allow_empty_bins`` is set, in
    which case its quantile is +inf (the whole-bin fallback). NaN or
    infinite outcomes and predictions raise DataError.
    """
    alpha = _validate_alpha(alpha)
    yt = require_finite(y_true, "calibration outcomes")
    yp = require_finite(y_pred, "calibration predictions")
    if yt.size != yp.size:
        raise DataError(f"y_true ({yt.size}) and y_pred ({yp.size}) lengths differ")
    if yt.size == 0:
        raise DataError("empty calibration: no records")
    if np.any(yt < support_min):
        raise DataError("calibration outcome below the declared support minimum")
    scores = np.abs(yt - yp)
    if partition is None:
        partition = BinPartition((), support_min)
    bin_indices = partition.assign_many(yt)
    if not allow_empty_bins:
        require_records(partition, bin_indices)
    bin_quantiles = {}
    for b in range(1, partition.n_bins + 1):
        in_bin = scores[bin_indices == b]
        bin_quantiles[b] = finite_sample_quantile(in_bin, alpha) if in_bin.size else INF

    return ConformalCalibration(
        scores=scores,
        alpha=alpha,
        support_min=float(support_min),
        quantile=finite_sample_quantile(scores, alpha),
        bin_quantiles=bin_quantiles,
        partition=partition,
        bin_indices=bin_indices,
    )


def scp_interval(y_hat: float, calibration: ConformalCalibration) -> PredictionInterval:
    """Split conformal interval [y_hat - q, y_hat + q], clipped to the support."""
    y0 = calibration.clamp(float(y_hat))
    q = calibration.quantile
    lower = max(calibration.support_min, y0 - q)
    return PredictionInterval(lower, y0 + q)


def bccp_per_bin_interval(
    y_hat: float, bin_index: int, calibration: ConformalCalibration
) -> PredictionInterval | None:
    """One bin's contribution: [y_hat - q_b, y_hat + q_b] cut to the bin.

    Returns None when the intersection is empty. An infinite per-bin
    quantile returns the whole bin. The right-open bin edge is closed in
    the returned segment, except that a segment consisting solely of that
    excluded edge point is empty.
    """
    lo_bin, hi_bin = calibration.partition.bin_bounds(bin_index)
    q_b = calibration.bin_quantiles[bin_index]
    if math.isinf(q_b):
        return PredictionInterval(lo_bin, hi_bin)
    y0 = calibration.clamp(float(y_hat))
    lo = max(lo_bin, y0 - q_b)
    hi = min(y0 + q_b, hi_bin)
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
    merged here. With the one all-support bin of a calibration built
    without a partition these are the :func:`scp_interval` endpoints.
    """
    partition, smin = calibration.partition, calibration.support_min
    bins = range(1, partition.n_bins + 1)
    lo_bin, hi_bin = np.array([partition.bin_bounds(b) for b in bins]).T
    q = np.array([calibration.bin_quantiles[b] for b in bins])
    y = np.asarray(y_hats, dtype=float).ravel()[:, None]
    y0 = np.where(y >= smin, y, smin)  # ConformalCalibration.clamp
    # for finite y0 an infinite q_b yields the whole bin [lo_b, hi_b] here
    lower, upper = y0 - q, y0 + q
    np.copyto(lower, lo_bin, where=lo_bin >= lower)  # max(lo_b, y0 - q_b)
    np.copyto(upper, hi_bin, where=hi_bin < upper)  # min(y0 + q_b, hi_b)
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

