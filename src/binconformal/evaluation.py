"""Coverage, width, and discontiguity metrics plus the replication harness.

The harness runs a configured study end to end, R times with derived
seeds: generate data, split, fit the point model, build every method's
intervals, and score them against the held-out test outcomes. Metrics are
reported in aggregate and within groups of the TRUE outcome (empirical
quartiles or explicit bins), with Monte Carlo standard errors across
replicates.
"""

import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .errors import BinConformalError, ConfigurationError, DataError
from .intervals import (
    BinPartition,
    IntervalBatch,
    bins_from_cutpoints,
    bins_from_percentiles,
)
from .models import OutcomeTransform, ols_fit, predict
from .pipelines import BINNED_KINDS, METHOD_KINDS, make_intervals
from .simulation import CALIBRATION, STREAM_METHOD, TEST, TRAIN, derive_rng, generate, split

AGGREGATE = "aggregate"
QUARTILES = "quartiles"

INF = math.inf


# ---------------------------------------------------------------------------
# grouping and per-run metrics


def _group_codes(y: np.ndarray, grouping) -> tuple:
    """(1-based group index per row, group names) for a coverage grouping."""
    if grouping is None:
        return np.zeros(y.size, dtype=int), ()
    if isinstance(grouping, BinPartition):
        partition, prefix = grouping, "bin_"
    elif grouping == QUARTILES:
        partition, prefix = bins_from_percentiles(y, 4), "Q"
    else:
        raise ConfigurationError(f"unknown grouping {grouping!r}")
    names = tuple(f"{prefix}{i}" for i in range(1, partition.n_bins + 1))
    return partition.assign_many(y), names


@dataclass(frozen=True)
class GroupTally:
    """Exact per-group counts from one evaluation pass."""

    n: int
    covered: int
    finite_width_sum: float
    finite_width_count: int
    inf_width_count: int
    multi_segment_count: int

    @property
    def coverage(self) -> float:
        return self.covered / self.n if self.n else math.nan

    @property
    def mean_width(self) -> float:
        if self.finite_width_count == 0:
            return math.nan
        return self.finite_width_sum / self.finite_width_count

    @property
    def discontiguity_rate(self) -> float:
        return self.multi_segment_count / self.n if self.n else math.nan


def coverage(interval_sets: IntervalBatch, y_true, grouping=None) -> dict:
    """Group-wise tallies of contains(interval_i, y_i).

    ``grouping`` is None (aggregate only), the string "quartiles", or a
    BinPartition applied to the true outcomes. The aggregate tally is the
    exact sum of the group tallies.
    """
    y = np.asarray(y_true, dtype=float).ravel()
    if len(interval_sets) != y.size:
        raise DataError(
            f"interval count ({len(interval_sets)}) does not match outcome "
            f"count ({y.size})"
        )
    codes, names = _group_codes(y, grouping)
    covered = interval_sets.contains(y)
    widths = interval_sets.total_width()
    infinite = np.isinf(widths)
    multi = interval_sets.n_segments > 1

    tallies = {}
    for code, group in enumerate((AGGREGATE, *names)):
        mask = np.ones(y.size, dtype=bool) if code == 0 else codes == code
        finite = widths[mask & ~infinite]
        tallies[group] = GroupTally(
            n=int(np.count_nonzero(mask)),
            covered=int(np.count_nonzero(covered & mask)),
            # row-order sum, as a running total would add them
            finite_width_sum=float(np.cumsum(finite)[-1]) if finite.size else 0.0,
            finite_width_count=int(finite.size),
            inf_width_count=int(np.count_nonzero(infinite & mask)),
            multi_segment_count=int(np.count_nonzero(multi & mask)),
        )
    return tallies


# ---------------------------------------------------------------------------
# replication harness


@dataclass(frozen=True)
class MethodSpec:
    """One report row: a method kind plus its scale and binning choices."""

    name: str
    kind: str
    transform: OutcomeTransform = OutcomeTransform.IDENTITY
    n_bins: int | None = None
    cutpoints: tuple | None = None

    def __post_init__(self):
        if self.kind not in METHOD_KINDS:
            raise ConfigurationError(f"unknown method kind {self.kind!r}")
        if self.kind in BINNED_KINDS and not (self.n_bins or self.cutpoints):
            raise ConfigurationError(f"method {self.name} needs bins")
        if self.n_bins is not None and self.cutpoints is not None:
            raise ConfigurationError(
                f"method {self.name}: set n_bins or cutpoints, not both"
            )
        if self.kind not in BINNED_KINDS and (
            self.n_bins is not None or self.cutpoints is not None
        ):
            raise ConfigurationError(
                f"method {self.name}: bins only apply to the bccp-* methods"
            )


@dataclass(frozen=True)
class StudyConfig:
    dgp: str                       # "lognormal" | "zicount"
    n: int
    proportions: tuple
    alpha: float
    methods: tuple
    replications: int
    base_seed: int
    model_transform: OutcomeTransform
    grouping: object               # QUARTILES or a cutpoint tuple
    support_min: float = -INF
    round_counts: bool = False
    bootstrap_draws: int = 2000
    zero_prob: float = 0.867

    def as_dict(self) -> dict:
        """Every field as JSON-ready values, transforms by name;
        ``zero_prob`` only for the zicount generator, the one that reads it."""
        out = asdict(self, dict_factory=lambda items: {
            k: v.value if isinstance(v, OutcomeTransform) else v for k, v in items
        })
        if self.dgp != "zicount":
            del out["zero_prob"]
        return out


@dataclass(frozen=True)
class GroupStats:
    """Cross-replicate summary for one (method, group) cell."""

    n: int
    coverage: float
    coverage_se: float
    mean_width: float
    width_se: float
    inf_width_count: int
    discontiguity_rate: float


@dataclass(frozen=True, eq=False)
class CoverageReport:
    methods: tuple
    groups: tuple
    replications: int
    alpha: float
    stats: dict                    # (method, group) -> GroupStats
    config: dict

    def get(self, method: str, group: str = AGGREGATE) -> GroupStats:
        return self.stats[(method, group)]


def _mean_se(values) -> tuple:
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return math.nan, math.nan
    if arr.size == 1:
        return float(arr[0]), math.nan
    return float(arr.mean()), float(arr.std(ddof=1) / math.sqrt(arr.size))


def _resolve_bins(spec: MethodSpec, y_cal, support_min) -> BinPartition | None:
    if spec.cutpoints is not None:
        return bins_from_cutpoints(spec.cutpoints, support_min)
    if spec.n_bins is not None:
        return bins_from_percentiles(y_cal, spec.n_bins, support_min=support_min)
    return None


def _run_replicate(config: StudyConfig, rep: int) -> dict:
    seed = (config.base_seed, rep)
    ds = split(
        generate(config.dgp, config.n, seed, config.zero_prob),
        config.proportions, seed=seed,
    )
    X_train, y_train = ds.rows(TRAIN)
    X_cal, y_cal = ds.rows(CALIBRATION)
    X_test, y_test = ds.rows(TEST)
    model = ols_fit(X_train, y_train, config.model_transform)
    _, p_cal = predict(model, X_cal)
    _, p_test = predict(model, X_test)

    if config.grouping == QUARTILES:
        grouping = QUARTILES
    else:
        grouping = bins_from_cutpoints(config.grouping, config.support_min)

    out = {}
    for index, spec in enumerate(config.methods):
        bins = _resolve_bins(spec, y_cal, config.support_min)
        result = make_intervals(
            spec.kind, y_cal, p_cal, p_test,
            alpha=config.alpha,
            transform=spec.transform,
            bins=bins,
            round_counts=config.round_counts,
            n_draws=config.bootstrap_draws,
            rng=derive_rng(seed, STREAM_METHOD, index),
            support_min=config.support_min,
            quantreg_design=(
                (X_train, y_train, X_test) if spec.kind == "quantreg" else None
            ),
        )
        out[spec.name] = coverage(result.sets, y_test, grouping)
    return out


def run_replications(config: StudyConfig) -> CoverageReport:
    """Run the configured study R times and aggregate across replicates.

    Deterministic given the base seed; any per-replicate failure aborts
    with the replicate index and cause.
    """
    if config.replications < 1:
        raise ConfigurationError("need at least one replication")
    names = [m.name for m in config.methods]
    if len(set(names)) != len(names):
        raise ConfigurationError("method names must be unique")

    cells: dict = {}               # (method, group) -> tally per replicate
    for rep in range(config.replications):
        try:
            tallies_by_method = _run_replicate(config, rep)
        except BinConformalError as exc:
            raise type(exc)(f"replicate {rep}: {exc}") from exc
        for name, tallies in tallies_by_method.items():
            for group, tally in tallies.items():
                cells.setdefault((name, group), []).append(tally)

    groups = {group for _, group in cells} - {AGGREGATE}
    ordered_groups = (AGGREGATE, *sorted(groups, key=lambda g: (len(g), g)))
    stats = {}
    for name in names:
        for group in ordered_groups:
            tallies = cells.get((name, group))
            if tallies is None:
                continue
            seen = [t for t in tallies if t.n > 0]
            cov, cov_se = _mean_se([t.coverage for t in seen])
            width, width_se = _mean_se(
                [t.mean_width for t in tallies if t.finite_width_count > 0]
            )
            multi, _ = _mean_se([t.discontiguity_rate for t in seen])
            stats[(name, group)] = GroupStats(
                n=sum(t.n for t in tallies), coverage=cov, coverage_se=cov_se,
                mean_width=width, width_se=width_se,
                inf_width_count=sum(t.inf_width_count for t in tallies),
                discontiguity_rate=multi,
            )
    return CoverageReport(
        methods=tuple(names),
        groups=ordered_groups,
        replications=config.replications,
        alpha=config.alpha,
        stats=stats,
        config=config.as_dict(),
    )


# ---------------------------------------------------------------------------
# study presets

LOG = OutcomeTransform.LOG
LOG1P = OutcomeTransform.LOG1P
IDENTITY = OutcomeTransform.IDENTITY

# exponentially widening count bins (0; 1-2; 3-7; 8-20; 21-54; 55-148; 149+)
# and the coarser merges used by the zero-inflated count study
SEVEN_BIN_CUTPOINTS = (1.0, 3.0, 8.0, 21.0, 55.0, 149.0)
FOUR_BIN_CUTPOINTS = (1.0, 8.0, 55.0)
TWO_BIN_CUTPOINTS = (1.0,)


def lognormal_study(**changes) -> StudyConfig:
    """Right-skewed continuous study: log-scale OLS, raw-scale conformal.

    Coverage is reported in aggregate and across the empirical quartiles
    of the test outcomes. ``changes`` replace any ``StudyConfig`` field.
    """
    return replace(StudyConfig(
        dgp="lognormal",
        n=10_000,
        proportions=(0.5, 0.25, 0.25),
        alpha=0.1,
        methods=(
            MethodSpec("scp", "scp", IDENTITY),
            MethodSpec("bccp-c-2", "bccp-c", IDENTITY, n_bins=2),
            MethodSpec("bccp-c-4", "bccp-c", IDENTITY, n_bins=4),
            MethodSpec("bccp-c-6", "bccp-c", IDENTITY, n_bins=6),
            MethodSpec("bccp-d-2", "bccp-d", IDENTITY, n_bins=2),
            MethodSpec("bccp-d-4", "bccp-d", IDENTITY, n_bins=4),
            MethodSpec("bccp-d-6", "bccp-d", IDENTITY, n_bins=6),
            MethodSpec("bootstrap", "bootstrap", IDENTITY),
            MethodSpec("bootstrap-log", "bootstrap-log", LOG),
            MethodSpec("lognormal", "lognormal", LOG),
            MethodSpec("quantreg", "quantreg", LOG),
        ),
        replications=100,
        base_seed=20240501,
        model_transform=LOG,
        grouping=QUARTILES,
        support_min=0.0,
    ), **changes)


def zicount_study(**changes) -> StudyConfig:
    """Zero-inflated count study: log1p OLS, log1p-scale intervals.

    Coverage is reported for true zeros versus non-zeros by default; pass
    ``grouping=SEVEN_BIN_CUTPOINTS`` for the per-bin view (``changes``
    replace any ``StudyConfig`` field). Interval bounds are NOT rounded
    to integers here: with a weak point model, half-up rounding pulls
    every near-zero lower bound down to 0 and inflates zero-bin coverage
    far above the nominal level, defeating the bin-conditional
    calibration this study measures. Rounding stays available as a CLI
    option for count-scale outputs.
    """
    return replace(StudyConfig(
        dgp="zicount",
        n=40_000,
        proportions=(0.7, 0.2, 0.1),
        alpha=0.1,
        methods=(
            MethodSpec("scp", "scp", LOG1P),
            MethodSpec("bccp-d-2", "bccp-d", LOG1P, cutpoints=TWO_BIN_CUTPOINTS),
            MethodSpec("bccp-d-4", "bccp-d", LOG1P, cutpoints=FOUR_BIN_CUTPOINTS),
            MethodSpec("bccp-d-7", "bccp-d", LOG1P, cutpoints=SEVEN_BIN_CUTPOINTS),
            MethodSpec("bootstrap-log", "bootstrap-log", LOG1P),
            MethodSpec("bootstrap", "bootstrap", IDENTITY),
            MethodSpec("lognormal", "lognormal", LOG1P),
            MethodSpec("negbinom", "negbinom", IDENTITY),
            MethodSpec("poisson", "poisson", IDENTITY),
            MethodSpec("quantreg", "quantreg", LOG1P),
        ),
        replications=50,
        base_seed=20240502,
        model_transform=LOG1P,
        grouping=TWO_BIN_CUTPOINTS,
        support_min=0.0,
        zero_prob=0.867,
    ), **changes)


# study presets by the name of their data generator
STUDIES = {"lognormal": lognormal_study, "zicount": zicount_study}
