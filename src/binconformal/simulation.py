"""Synthetic data generators and train/calibration/test splitting.

All randomness flows through numpy's PCG64 generator seeded from
explicit integer streams, so equal seeds reproduce equal datasets on any
platform. Replicated studies derive one stream per (replicate, purpose)
pair; the purpose tags live here so every module derives streams the same
way.
"""

import math
import operator
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError

TRAIN = "train"
CALIBRATION = "calibration"
TEST = "test"
SPLIT_LABELS = (TRAIN, CALIBRATION, TEST)

# purpose tags for derived RNG streams
STREAM_DGP = 0
STREAM_SPLIT = 1
STREAM_METHOD = 2


def derive_rng(seed, *stream: int) -> np.random.Generator:
    """Independent generator for (seed, stream tags...).

    ``seed`` may be an int or a sequence of ints (e.g. (base, replicate)),
    none of them negative.
    """
    parts = list(seed) if isinstance(seed, (tuple, list)) else [seed]
    try:
        return np.random.default_rng([*map(operator.index, parts), *stream])
    except (TypeError, ValueError):
        raise ConfigurationError(
            f"seeds must be non-negative integers, got {seed!r}"
        ) from None


@dataclass(frozen=True, eq=False)
class Dataset:
    """Feature matrix, outcomes, and optional per-row split labels."""

    features: np.ndarray
    y: np.ndarray
    split: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.y)

    def rows(self, label: str) -> tuple[np.ndarray, np.ndarray]:
        """(features, y) for one split label."""
        if self.split is None:
            raise ConfigurationError("dataset has not been split")
        mask = self.split == label
        return self.features[mask], self.y[mask]


def lognormal_dgp(n: int, seed=0) -> Dataset:
    """Two uniform features; y = exp(Normal(x1 + x2, 0.5)).

    Heavily right-skewed with many near-zero outcomes.
    """
    if n < 1:
        raise ConfigurationError(f"n must be positive, got {n}")
    rng = derive_rng(seed, STREAM_DGP)
    features = rng.uniform(size=(n, 2))
    y = np.exp(rng.normal(features[:, 0] + features[:, 1], 0.5))
    return Dataset(features=features, y=y)


def zero_inflated_count_dgp(n: int, zero_prob: float = 0.867, seed=0) -> Dataset:
    """Zero-inflated counts with a heavy right tail.

    With probability ``zero_prob`` the outcome is 0; otherwise it is the
    rounded log-normal count exp(Normal(2 x1 + 2 x2, 1)), clamped at 1 so
    the zero fraction is exactly Bernoulli(zero_prob). Features are
    generated for every row, so the point model has signal on the count
    component.
    """
    if n < 1:
        raise ConfigurationError(f"n must be positive, got {n}")
    if not 0.0 < zero_prob <= 1.0:
        raise ConfigurationError(f"zero_prob must be in (0, 1], got {zero_prob}")
    rng = derive_rng(seed, STREAM_DGP)
    features = rng.uniform(size=(n, 2))
    is_zero = rng.random(n) < zero_prob
    mu = 2.0 * features[:, 0] + 2.0 * features[:, 1]
    counts = np.maximum(1.0, np.rint(np.exp(rng.normal(mu, 1.0))))
    y = np.where(is_zero, 0.0, counts)
    return Dataset(features=features, y=y)


def generate(dgp: str, n: int, seed=0, zero_prob: float = 0.867) -> Dataset:
    """Unsplit dataset from the named generator, "lognormal" or "zicount";
    ``zero_prob`` applies to "zicount" only."""
    # generators are looked up as module globals at call time, so a wrapper
    # installed on those bindings sees every call
    if dgp == "lognormal":
        return lognormal_dgp(n, seed=seed)
    if dgp == "zicount":
        return zero_inflated_count_dgp(n, zero_prob=zero_prob, seed=seed)
    raise ConfigurationError(f"unknown data generator {dgp!r}")


def split(dataset: Dataset, proportions: tuple, seed=0) -> Dataset:
    """Assign train/calibration/test labels by uniform random permutation.

    Counts are exact: each part gets floor(p * n) rows and the remainder
    goes to the training set. A part left with no rows is an error.
    """
    props = tuple(float(p) for p in proportions)
    if len(props) != 3:
        raise ConfigurationError("proportions must be (train, calibration, test)")
    if any(not p > 0 for p in props):  # NaN too
        raise ConfigurationError(f"all split proportions must be positive: {props}")
    if abs(sum(props) - 1.0) > 1e-9:
        raise ConfigurationError(f"split proportions must sum to 1: {props}")
    n = len(dataset)
    counts = [math.floor(p * n + 1e-9) for p in props]
    counts[0] += n - sum(counts)
    empty = [label for label, count in zip(SPLIT_LABELS, counts) if count == 0]
    if empty:
        raise ConfigurationError(f"the {empty[0]} part of a {n}-row split by {props} is empty")
    rng = derive_rng(seed, STREAM_SPLIT)
    order = rng.permutation(n)
    labels = np.empty(n, dtype="<U11")
    start = 0
    for label, count in zip(SPLIT_LABELS, counts):
        labels[order[start:start + count]] = label
        start += count
    return replace(dataset, split=labels)
