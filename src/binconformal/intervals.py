"""Closed intervals, disjoint interval sets, and outcome bins.

Everything here is immutable and pure: construction validates and
normalizes, operations return new values, so all types are safe to share
across threads. These primitives underpin every interval-producing method
in the package. :class:`IntervalBatch` holds the interval sets of many
rows as two arrays; it is what every method builds and every metric
reads. The per-row types serve single intervals, tests and CSV files.

Bins are numbered from 1. A partition with k breakpoints has k+1 bins,
each left-closed and right-open, with the last bin extending to +inf.
"""

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigurationError, DataError, note

INF = math.inf


@dataclass(frozen=True)
class PredictionInterval:
    """Closed interval [lower, upper] on the outcome axis.

    Degenerate intervals (lower == upper) are allowed. ``upper`` may be
    +inf for intervals unbounded above; ``lower`` may be -inf.
    """

    lower: float
    upper: float

    def __post_init__(self):
        lower = float(self.lower)
        upper = float(self.upper)
        if math.isnan(lower) or math.isnan(upper):
            raise ValueError("interval endpoints must not be NaN")
        if lower > upper:
            raise ValueError(f"invalid interval: lower {lower} > upper {upper}")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @property
    def width(self) -> float:
        return self.upper - self.lower

    def contains(self, y: float) -> bool:
        """Closed-interval membership: endpoints count as covered."""
        return self.lower <= y <= self.upper


def _merged_segments(
    intervals: Iterable[PredictionInterval],
) -> tuple[PredictionInterval, ...]:
    items = sorted(intervals, key=lambda iv: (iv.lower, iv.upper))
    merged: list[PredictionInterval] = []
    for iv in items:
        if merged and iv.lower <= merged[-1].upper:
            if iv.upper > merged[-1].upper:
                merged[-1] = PredictionInterval(merged[-1].lower, iv.upper)
        else:
            merged.append(iv)
    return tuple(merged)


@dataclass(frozen=True)
class IntervalSet:
    """Ordered union of pairwise-disjoint closed intervals.

    Overlapping or touching inputs are merged on construction, so two sets
    covering the same points always compare equal.
    """

    segments: tuple[PredictionInterval, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "segments", _merged_segments(self.segments))

    @property
    def is_empty(self) -> bool:
        return not self.segments

    @property
    def n_segments(self) -> int:
        return len(self.segments)

    def contains(self, y: float) -> bool:
        return any(seg.contains(y) for seg in self.segments)

    def total_width(self) -> float:
        """Sum of segment widths; +inf when any segment is unbounded."""
        return sum(seg.width for seg in self.segments) if self.segments else 0.0

    def hull(self) -> PredictionInterval:
        """Single interval spanning the minimum lower and maximum upper endpoint."""
        if not self.segments:
            raise DataError("cannot take the hull of an empty interval set")
        return PredictionInterval(self.segments[0].lower, self.segments[-1].upper)

    def __iter__(self):
        return iter(self.segments)


def union(intervals: Iterable[PredictionInterval]) -> IntervalSet:
    """Minimal sorted disjoint representation of a collection of intervals."""
    return IntervalSet(tuple(intervals))


@dataclass(frozen=True, eq=False)
class IntervalBatch:
    """Interval sets of n rows as two float arrays of shape (n, k).

    Slot j of row i is the closed segment [lower[i, j], upper[i, j]]; NaN
    in both arrays marks an unused slot, and unused slots may sit anywhere
    in a row. The used slots of a row are sorted and pairwise disjoint,
    not even touching, so row i covers exactly the points of ``self[i]``.
    """

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = np.asarray(self.lower, dtype=float)
        upper = np.asarray(self.upper, dtype=float)
        if lower.ndim != 2 or lower.shape != upper.shape:
            raise ValueError(
                f"endpoint arrays must share one (n, k) shape, got "
                f"{lower.shape} and {upper.shape}"
            )
        if not np.array_equal(np.isnan(lower), np.isnan(upper)):
            raise ValueError("interval endpoints must not be NaN")
        if np.any(lower > upper):
            raise ValueError("invalid interval: lower > upper")
        # with sorted disjoint slots the running max upper is the previous
        # used slot's upper; NaN compares False
        reach = np.full(lower.shape[0], np.nan)
        for lo, hi in zip(lower.T, upper.T):
            if np.any(lo <= reach):
                raise ValueError("segments of a row must be sorted and disjoint")
            reach = np.fmax(reach, hi)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @classmethod
    def from_bounds(cls, lower, upper) -> "IntervalBatch":
        """One segment per row from two 1-D endpoint arrays."""
        lo = np.asarray(lower, dtype=float).ravel()
        hi = np.asarray(upper, dtype=float).ravel()
        if np.any(np.isnan(lo)) or np.any(np.isnan(hi)):
            raise ValueError("interval endpoints must not be NaN")
        return cls(lo[:, None], hi[:, None])

    @classmethod
    def from_slots(cls, lower, upper) -> "IntervalBatch":
        """Merge each row's overlapping or touching slots into one batch.

        The used slots of a row must come in order of their lower
        endpoints. Like :class:`IntervalSet`, a slot joins the open segment
        when its lower endpoint does not exceed the open upper endpoint,
        which grows only when the slot's upper endpoint is strictly larger.
        """
        lower = np.array(lower, dtype=float)
        upper = np.array(upper, dtype=float)
        rows = np.arange(lower.shape[0])
        open_col = np.full(lower.shape[0], -1)
        for j in range(lower.shape[1]):
            open_hi = np.where(open_col >= 0, upper[rows, open_col], np.nan)
            used = ~np.isnan(lower[:, j])
            joins = lower[:, j] <= open_hi
            if joins.any():
                r, c = rows[joins], open_col[joins]
                grown = upper[r, j] > upper[r, c]
                upper[r, c] = np.where(grown, upper[r, j], upper[r, c])
                lower[r, j] = upper[r, j] = np.nan
            open_col = np.where(used & ~joins, j, open_col)
        return cls(lower, upper)

    @classmethod
    def from_sets(cls, interval_sets) -> "IntervalBatch":
        """Batch of a sequence of :class:`IntervalSet`, one row each."""
        sets = list(interval_sets)
        k = max((s.n_segments for s in sets), default=0)
        lower = np.full((len(sets), k), np.nan)
        upper = np.full((len(sets), k), np.nan)
        for i, s in enumerate(sets):
            for j, seg in enumerate(s.segments):
                lower[i, j] = seg.lower
                upper[i, j] = seg.upper
        return cls(lower, upper)

    def __len__(self) -> int:
        return self.lower.shape[0]

    def __getitem__(self, i) -> IntervalSet:
        used = ~np.isnan(self.lower[i])
        return IntervalSet(tuple(
            PredictionInterval(lo, hi) for lo, hi in
            zip(self.lower[i][used].tolist(), self.upper[i][used].tolist())
        ))

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    @property
    def n_segments(self) -> np.ndarray:
        return np.count_nonzero(~np.isnan(self.lower), axis=1)

    def contains(self, y) -> np.ndarray:
        """Per-row closed membership of y[i] in row i."""
        y = np.asarray(y, dtype=float).reshape(-1, 1)
        return np.any((self.lower <= y) & (y <= self.upper), axis=1)

    def hull(self) -> "IntervalBatch":
        """Each row's :meth:`IntervalSet.hull`: its first lower and last
        upper endpoint as one segment."""
        used = ~np.isnan(self.lower)
        if not used.any(axis=1).all():
            raise DataError("cannot take the hull of an empty interval set")
        rows = np.arange(len(self))
        first = used.argmax(axis=1)
        last = used.shape[1] - 1 - used[:, ::-1].argmax(axis=1)
        return IntervalBatch(
            self.lower[rows, first][:, None], self.upper[rows, last][:, None]
        )

    def total_width(self) -> np.ndarray:
        """Per-row sum of segment widths, added left to right from 0.0."""
        total = np.zeros(len(self))
        with np.errstate(invalid="ignore"):  # inf - inf in an [inf, inf] slot
            for lo, hi in zip(self.lower.T, self.upper.T):
                total = total + np.where(np.isnan(lo), 0.0, hi - lo)
        return total


@dataclass(frozen=True)
class BinPartition:
    """Contiguous outcome bins defined by ordered breakpoints.

    k breakpoints define k+1 bins numbered 1..k+1, each left-closed and
    right-open: bin i is [b_{i-1}, b_i), the last bin is [b_k, +inf). The
    first bin starts at ``support_min`` (default -inf, i.e. the whole real
    line below the first breakpoint).
    """

    breakpoints: tuple[float, ...] = ()
    support_min: float = -INF

    def __post_init__(self):
        bps = tuple(float(b) for b in self.breakpoints)
        smin = float(self.support_min)
        if math.isnan(smin) or smin == INF:
            raise ConfigurationError("support_min must be a real number or -inf")
        for b in bps:
            if not math.isfinite(b):
                raise ConfigurationError(f"breakpoints must be finite, got {b}")
        if any(b2 <= b1 for b1, b2 in zip(bps, bps[1:])):
            raise ConfigurationError(f"breakpoints must be strictly increasing: {bps}")
        if bps and bps[0] <= smin:
            raise ConfigurationError(
                f"first breakpoint {bps[0]} must exceed support_min {smin}"
            )
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "support_min", smin)

    @property
    def n_bins(self) -> int:
        return len(self.breakpoints) + 1

    def bin_bounds(self, index: int) -> tuple[float, float]:
        """(lower, upper) of bin ``index``; the bin is [lower, upper).

        ``upper`` is +inf for the last bin.
        """
        if not 1 <= index <= self.n_bins:
            raise ConfigurationError(
                f"bin index {index} out of range 1..{self.n_bins}"
            )
        lo = self.support_min if index == 1 else self.breakpoints[index - 2]
        hi = INF if index == self.n_bins else self.breakpoints[index - 1]
        return lo, hi

    def assign(self, y: float) -> int:
        """Index of the unique bin containing ``y``.

        Values on a breakpoint belong to the bin on the right.
        """
        y = float(y)
        if math.isnan(y):
            raise DataError("cannot assign NaN to a bin")
        if y < self.support_min:
            raise DataError(
                f"value {y} below declared support minimum {self.support_min}"
            )
        return bisect_right(self.breakpoints, y) + 1

    def assign_many(self, y_values) -> np.ndarray:
        """Vectorized :meth:`assign`; returns 1-based bin indices."""
        arr = np.asarray(y_values, dtype=float)
        if np.any(np.isnan(arr)):
            raise DataError("cannot assign NaN to a bin")
        if np.any(arr < self.support_min):
            bad = float(arr[arr < self.support_min][0])
            raise DataError(
                f"value {bad} below declared support minimum {self.support_min}"
            )
        return np.searchsorted(np.asarray(self.breakpoints), arr, side="right") + 1


def bins_from_cutpoints(
    cutpoints: Sequence[float], support_min: float
) -> BinPartition:
    """Partition [support_min, +inf) at explicit cutpoints.

    Cutpoints must be strictly increasing and exceed ``support_min``. An
    empty cutpoint sequence yields the single all-support bin.
    """
    return BinPartition(tuple(float(c) for c in cutpoints), float(support_min))


def bins_from_percentiles(
    y_values, k: int, support_min: float = -INF
) -> BinPartition:
    """Partition the outcome axis at empirical (j/k)-quantiles, j = 1..k-1.

    Quantiles use linear order-statistic interpolation (quantile p sits at
    index 1+(n-1)p, one-based). Duplicate breakpoints, and breakpoints not
    above both ``support_min`` and the smallest value, are dropped with a
    warning, yielding fewer bins; so no bin starts out empty.

    Raises
    ------
    DataError
        Fewer than 2 distinct values (degenerate partition).
    ConfigurationError
        k outside 2..number of distinct values.
    """
    arr = np.asarray(y_values, dtype=float).ravel()
    if arr.size == 0:
        raise DataError("cannot build percentile bins from empty data")
    if np.any(np.isnan(arr)):
        raise DataError("cannot build percentile bins from NaN values")
    n_distinct = np.unique(arr).size
    if n_distinct < 2:
        raise DataError(
            "degenerate partition: need at least 2 distinct values to form bins"
        )
    if not 2 <= k <= n_distinct:
        raise ConfigurationError(
            f"bin count k={k} must be between 2 and the number of "
            f"distinct values ({n_distinct})"
        )
    probs = [j / k for j in range(1, k)]
    raw = np.quantile(arr, probs)
    # a breakpoint at the smallest value would open with an empty bin
    kept = np.unique(raw[raw > max(support_min, arr.min())])
    if kept.size < len(probs):
        note(
            f"duplicate or out-of-support percentile breakpoints collapsed: "
            f"{k} requested bins reduced to {kept.size + 1}",
            stacklevel=2,
        )
    return BinPartition(tuple(float(b) for b in kept), float(support_min))


def bins_from_spec(spec: str, y_values, support_min: float) -> BinPartition:
    """Partition from a text spec, as the command line takes it.

    ``percentiles:k`` cuts at the empirical quantiles of ``y_values`` (see
    :func:`bins_from_percentiles`); anything else is read as
    comma-separated cutpoints (see :func:`bins_from_cutpoints`).
    """
    percentiles = spec.startswith("percentiles:")
    try:
        if percentiles:
            k = int(spec.split(":", 1)[1])
        else:
            cutpoints = tuple(float(c) for c in spec.split(","))
    except ValueError:
        raise ConfigurationError(f"cannot parse bin spec {spec!r}") from None
    if percentiles:
        return bins_from_percentiles(y_values, k, support_min=support_min)
    return bins_from_cutpoints(cutpoints, support_min)
