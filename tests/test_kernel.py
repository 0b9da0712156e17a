"""Property tests: the whole-batch interval kernel against the per-row oracle.

The oracle is the per-row construction the batch kernel replaced:
``scp_interval`` / ``bccp_discontiguous`` / ``bccp_contiguous`` for each
test prediction, every endpoint back-transformed on its own (0-d
``OutcomeTransform.inverse``, exact snapping of transformed breakpoints),
merged with ``union`` and optionally rounded with ``round_count_interval``.
Endpoints must agree as floats, including the sign of zero, because the
CSV writers print ``repr`` of each value.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from binconformal.conformal import (
    bccp_bounds,
    bccp_contiguous,
    bccp_discontiguous,
    bccp_per_bin_interval,
    calibrate,
    scp_interval,
)
from binconformal.errors import BinConformalError
from binconformal.evaluation import AGGREGATE, QUARTILES, GroupTally, coverage
from binconformal.intervals import (
    BinPartition,
    IntervalBatch,
    IntervalSet,
    PredictionInterval,
    bins_from_cutpoints,
    union,
)
from binconformal.models import OutcomeTransform, round_count_interval
from binconformal.pipelines import make_intervals

INF = math.inf
IDENTITY = OutcomeTransform.IDENTITY
LOG = OutcomeTransform.LOG
LOG1P = OutcomeTransform.LOG1P

SETTINGS = settings(
    max_examples=250, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def same_float(a: float, b: float) -> bool:
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def same_set(a: IntervalSet, b: IntervalSet) -> bool:
    return a.n_segments == b.n_segments and all(
        same_float(x.lower, y.lower) and same_float(x.upper, y.upper)
        for x, y in zip(a.segments, b.segments)
    )


def oracle_rows(kind, y_cal, p_cal, p_test, alpha, transform, bins, round_counts,
                support_min=None):
    """Intervals and flags built one row at a time, the reference way."""
    # the one floor: the largest of the transform's, the caller's and the bins'
    floor = max(
        transform.support_min,
        -INF if support_min is None else support_min,
        -INF if bins is None else bins.support_min,
    )
    p_cal = np.maximum(np.asarray(p_cal, dtype=float), floor)
    p_test = np.asarray(p_test, dtype=float)
    clamped = p_test < floor
    p_test = np.maximum(p_test, floor)

    def on_scale(raw):
        # a raw lower bound on the method's scale: log maps 0 to -inf
        if raw == -INF or (transform is LOG and raw <= 0):
            return -INF
        return float(transform.forward(raw))

    cutpoints = () if bins is None else bins.breakpoints
    partition = BinPartition(
        tuple(float(transform.forward(b)) for b in cutpoints), on_scale(floor)
    )
    snap = {}
    if transform is not IDENTITY:
        snap = dict(zip(partition.breakpoints, cutpoints))
        if math.isfinite(partition.support_min):
            snap[partition.support_min] = floor
    cal = calibrate(
        transform.forward(y_cal), transform.forward(p_cal), alpha,
        partition=partition, allow_empty_bins=True,
    )

    def back(v):
        return snap[v] if v in snap else float(transform.inverse(v))

    sets, flags = [], []
    for p, was_clamped in zip(transform.forward(p_test), clamped):
        if kind == "scp":
            s = IntervalSet((scp_interval(p, cal),))
        elif kind == "bccp-d":
            s = bccp_discontiguous(p, cal)
        else:
            s = IntervalSet((bccp_contiguous(p, cal),))
        if transform is not IDENTITY:
            s = union(PredictionInterval(back(g.lower), back(g.upper)) for g in s)
        if round_counts:
            s = union(round_count_interval(g) for g in s)
        sets.append(s)
        flags.append(
            (("clamped",) if was_clamped else ())
            + (("unbounded",) if s.total_width() == INF else ())
        )
    return sets, flags, cal


@st.composite
def conformal_cases(draw):
    transform = draw(st.sampled_from([IDENTITY, LOG, LOG1P]))
    kind = draw(st.sampled_from(["scp", "bccp-d", "bccp-c"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(3, 60))
    if transform is IDENTITY:
        y_cal = rng.normal(5.0, 6.0, size=n).round(draw(st.sampled_from([0, 2, 6])))
    elif transform is LOG:
        y_cal = np.exp(rng.normal(1.0, 1.0, size=n))
    else:  # zero-inflated counts
        y_cal = np.where(rng.random(n) < 0.5, 0.0, rng.integers(1, 60, size=n)).astype(float)
    # the caller's floor and the bins' are drawn apart; the calibration
    # outcomes are raised to the larger so that most cases calibrate
    support = transform.support_min
    support_min = draw(st.sampled_from([None, -INF, -1.0, 0.0, 0.5]))
    bins_min = draw(st.sampled_from([support, -1.0, 0.0, 0.5]))
    floor = max(-INF if support_min is None else support_min,
                bins_min if kind != "scp" else -INF)
    y_cal = np.maximum(y_cal, floor)
    p_cal = y_cal + rng.normal(0.0, draw(st.sampled_from([0.0, 0.5, 3.0])), size=n)
    if transform is not IDENTITY:
        p_cal = np.abs(p_cal) + (1e-3 if transform is LOG else 0.0)
    cutpoints = ()
    if kind != "scp":
        pool = [1.0, 3.0, 8.0, 21.0, 55.0] if transform is LOG1P else list(np.unique(y_cal))
        lo = max(floor, support)
        pool = [c for c in pool if c > lo]
        if pool:
            cutpoints = tuple(sorted(set(draw(st.lists(
                st.sampled_from(pool), min_size=1, max_size=4)))))
    specials = [1e-9 if transform is LOG else 0.0, -1.0, -0.0]
    for c in cutpoints:
        specials += [c, float(np.nextafter(c, -INF)), float(np.nextafter(c, INF))]
    p_test = np.concatenate([
        rng.uniform(-2.0, 70.0, size=draw(st.integers(1, 12))),
        draw(st.lists(st.sampled_from(specials), max_size=8)),
    ])
    if transform is LOG:
        p_test = np.where(p_test > 0, p_test, 1e-9)
    alpha = draw(st.sampled_from([0.05, 0.1, 0.2, 0.35]))
    bins = bins_from_cutpoints(cutpoints, bins_min) if kind != "scp" else None
    return dict(
        kind=kind, y_cal=y_cal, p_cal=p_cal, p_test=p_test, alpha=alpha,
        transform=transform, bins=bins, round_counts=draw(st.booleans()),
        support_min=support_min,
    )


def kernel_rows(case):
    return make_intervals(
        case["kind"], case["y_cal"], case["p_cal"], case["p_test"],
        alpha=case["alpha"], transform=case["transform"], bins=case["bins"],
        round_counts=case["round_counts"], allow_empty_bins=True,
        support_min=case.get("support_min"),
    )


def assert_same_rows(got, want_sets, want_flags):
    assert len(got.sets) == len(want_sets)
    for i, want in enumerate(want_sets):
        assert same_set(got.sets[i], want), (i, got.sets[i], want)
    assert got.flags == want_flags


class TestKernelMatchesOracle:
    @SETTINGS
    @given(conformal_cases())
    def test_make_intervals_equals_per_row_oracle(self, case):
        try:
            want_sets, want_flags, _ = oracle_rows(**case)
        except BinConformalError:
            with pytest.raises(BinConformalError):
                kernel_rows(case)
            return
        assert_same_rows(kernel_rows(case), want_sets, want_flags)

    @pytest.mark.parametrize("round_counts", [False, True])
    @pytest.mark.parametrize("kind", ["bccp-d", "bccp-c"])
    def test_log_scale_bccp_reaches_the_comparison(self, kind, round_counts):
        # the partition's support 0 is -inf on the log scale; no row here
        # may end in an error, so the comparison below always runs
        rng = np.random.default_rng(11)
        y_cal = np.exp(rng.normal(1.0, 1.0, size=80))
        p_cal = y_cal * np.exp(rng.normal(0.0, 0.4, size=80))
        cuts = (1.0, 3.0, 8.0)
        p_test = np.array([
            v for c in cuts
            for v in (np.nextafter(c, -INF), c, np.nextafter(c, INF))
        ])
        case = dict(
            kind=kind, y_cal=y_cal, p_cal=p_cal, p_test=p_test, alpha=0.1,
            transform=LOG, bins=bins_from_cutpoints(cuts, 0.0),
            round_counts=round_counts,
        )
        want_sets, want_flags, _ = oracle_rows(**case)
        assert_same_rows(kernel_rows(case), want_sets, want_flags)

    @SETTINGS
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([-INF, 0.0]),
        st.sampled_from([0.0, 0.5, 2.0]),
        st.lists(st.sampled_from([-0.0, 0.0, 0.5, 2.5, 7.0, 12.0, 30.0]), max_size=3),
        st.sampled_from([0.1, 0.3]),
    )
    def test_bounds_equal_scalar_functions(self, seed, support, noise, cuts, alpha):
        # called directly, the kernel sees what make_intervals never passes
        # on: -0.0 predictions and cutpoints, zero quantiles, and
        # predictions whose interval ends exactly on a cutpoint
        rng = np.random.default_rng(seed)
        y_cal = rng.normal(5.0, 6.0, size=int(rng.integers(3, 50))).round(1)
        if support == 0.0:
            y_cal = np.abs(y_cal)
        p_cal = y_cal + noise * rng.normal(size=y_cal.size)
        partition = bins_from_cutpoints(sorted({c for c in cuts if c > support}), support)
        plain = calibrate(y_cal, p_cal, alpha, partition=BinPartition((), support))
        binned = calibrate(
            y_cal, p_cal, alpha, partition=partition,
            allow_empty_bins=True,
        )
        y_hats = [-0.0, 0.0, -1.0, 40.0, *rng.uniform(-3.0, 35.0, size=5)]
        quantiles = [plain.quantile, *binned.bin_quantiles.values()]
        for c in partition.breakpoints:
            y_hats += [c, float(np.nextafter(c, -INF))]
            y_hats += [c + s * q for q in quantiles if math.isfinite(q) for s in (-1, 1)]
        lower, upper = bccp_bounds(y_hats, plain)
        per_bin = bccp_bounds(y_hats, binned)
        merged = IntervalBatch.from_slots(*per_bin).hull()
        hull = merged.lower, merged.upper
        for i, y_hat in enumerate(y_hats):
            want = scp_interval(y_hat, plain)
            assert same_float(lower[i, 0], want.lower)
            assert same_float(upper[i, 0], want.upper)
            for b in range(1, partition.n_bins + 1):
                piece = bccp_per_bin_interval(y_hat, b, binned)
                if piece is None:
                    assert np.isnan(per_bin[0][i, b - 1])
                    assert np.isnan(per_bin[1][i, b - 1])
                else:
                    assert same_float(per_bin[0][i, b - 1], piece.lower)
                    assert same_float(per_bin[1][i, b - 1], piece.upper)
            want = bccp_contiguous(y_hat, binned)
            assert same_float(hull[0][i, 0], want.lower)
            assert same_float(hull[1][i, 0], want.upper)

    def test_infinite_quantile_bins_are_covered(self):
        # bin 2 holds 3 records: at alpha 0.1 its rank exceeds n, so the
        # whole bin [5, 10] must come back, for the batch and the oracle
        y_cal = np.array([1.0] * 30 + [6.0, 7.0, 8.0] + [20.0] * 30)
        p_cal = y_cal + 0.25
        bins = bins_from_cutpoints([5.0, 10.0], support_min=0.0)
        case = dict(
            kind="bccp-d", y_cal=y_cal, p_cal=p_cal,
            p_test=np.array([0.0, 4.99, 5.0, 9.0, 30.0]), alpha=0.1,
            transform=LOG1P, bins=bins, round_counts=False,
        )
        want, _, cal = oracle_rows(**case)
        assert math.isinf(cal.bin_quantiles[2])
        with pytest.warns(UserWarning) as notes:
            got = make_intervals(
                "bccp-d", y_cal, p_cal, case["p_test"], alpha=0.1,
                transform=LOG1P, bins=bins,
            )
        for i, s in enumerate(want):
            assert same_set(got.sets[i], s)
            assert s.contains(5.0) and s.contains(10.0)
        # one note, naming the raw bin, raised at make_intervals' caller
        assert [str(w.message) for w in notes] == [
            "bin 2 [5.0, 10.0) fell back to an infinite quantile"
        ]
        assert notes[0].filename == __file__


class TestNestingInAlpha:
    @SETTINGS
    @given(conformal_cases(), st.sampled_from([0.02, 0.05, 0.1, 0.2, 0.35, 0.5]))
    def test_smaller_alpha_set_contains_larger_alpha_set(self, case, other):
        # a1 < a2 gives a no smaller calibration rank in every bin, and the
        # back-transform and count rounding are monotone, so every a2 set
        # lies inside its a1 set
        assume(case["transform"] is not LOG and other != case["alpha"])
        a1, a2 = sorted((case["alpha"], other))
        args = (case["kind"], case["y_cal"], case["p_cal"], case["p_test"])
        kwargs = dict(transform=case["transform"], bins=case["bins"],
                      round_counts=case["round_counts"], allow_empty_bins=True,
                      support_min=case["support_min"])
        wide = make_intervals(*args, alpha=a1, **kwargs).sets
        narrow = make_intervals(*args, alpha=a2, **kwargs).sets
        for i, (outer, inner) in enumerate(zip(wide, narrow)):
            assert all(
                any(o.lower <= g.lower and g.upper <= o.upper for o in outer)
                for g in inner
            ), (i, outer, inner)


def random_sets(rng, n):
    sets = []
    for _ in range(n):
        segs = []
        for _ in range(int(rng.integers(0, 4))):
            lo = round(float(rng.normal(scale=5.0)), int(rng.integers(0, 3)))
            segs.append(PredictionInterval(lo, lo + float(rng.choice([0.0, 0.5, 2.0, INF]))))
        sets.append(union(segs))
    return sets


def per_row_tally(sets, y, mask) -> GroupTally:
    covered = fw_count = inf_count = multi = 0
    fw_sum = 0.0
    for s, value, keep in zip(sets, y, mask):
        if not keep:
            continue
        covered += s.contains(value)
        w = s.total_width()
        if math.isinf(w):
            inf_count += 1
        else:
            fw_sum += w
            fw_count += 1
        multi += s.n_segments > 1
    return GroupTally(
        n=int(sum(mask)), covered=covered, finite_width_sum=fw_sum,
        finite_width_count=fw_count, inf_width_count=inf_count,
        multi_segment_count=multi,
    )


class TestBatchAgainstIntervalSets:
    @SETTINGS
    @given(st.integers(0, 2**32 - 1), st.integers(4, 80))
    def test_coverage_equals_per_row_tally(self, seed, n):
        rng = np.random.default_rng(seed)
        sets = random_sets(rng, n)
        y = rng.normal(scale=6.0, size=n).round(1)
        partition = bins_from_cutpoints([-2.0, 0.0, 3.5], support_min=-INF)
        for grouping in (None, partition):
            tallies = coverage(IntervalBatch.from_sets(sets), y, grouping)
            assert tallies[AGGREGATE] == per_row_tally(sets, y, [True] * n)
            if grouping is not None:
                codes = partition.assign_many(y)
                for b in range(1, partition.n_bins + 1):
                    assert tallies[f"bin_{b}"] == per_row_tally(sets, y, codes == b)

    def test_quartile_grouping_matches_labels(self):
        rng = np.random.default_rng(3)
        sets = random_sets(rng, 40)
        y = rng.normal(size=40)
        tallies = coverage(IntervalBatch.from_sets(sets), y, QUARTILES)
        order = np.argsort(y, kind="stable")
        assert sum(tallies[f"Q{q}"].n for q in range(1, 5)) == 40
        assert tallies["Q1"] == per_row_tally(sets, y, np.isin(np.arange(40), order[:10]))

    @SETTINGS
    @given(st.integers(0, 2**32 - 1))
    def test_batch_methods_equal_interval_set_methods(self, seed):
        rng = np.random.default_rng(seed)
        sets = random_sets(rng, 30)
        y = rng.normal(scale=6.0, size=30).round(1)
        batch = IntervalBatch.from_sets(sets)
        assert len(batch) == 30
        assert batch.n_segments.tolist() == [s.n_segments for s in sets]
        assert batch.contains(y).tolist() == [s.contains(v) for s, v in zip(sets, y)]
        widths = batch.total_width().tolist()
        assert all(same_float(w, s.total_width()) for w, s in zip(widths, sets))
        assert all(batch[i] == s for i, s in enumerate(sets))

    @SETTINGS
    @given(st.integers(0, 2**32 - 1))
    def test_from_slots_merges_like_union(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 6))
        lower = rng.integers(0, 12, size=(20, k)).astype(float)
        upper = lower + rng.choice([0.0, 1.0, 3.0, INF], size=(20, k))
        lower[rng.random((20, k)) < 0.3] = np.nan
        upper[np.isnan(lower)] = np.nan
        order = np.argsort(np.where(np.isnan(lower), INF, lower), axis=1, kind="stable")
        lower = np.take_along_axis(lower, order, axis=1)
        upper = np.take_along_axis(upper, order, axis=1)
        batch = IntervalBatch.from_slots(lower, upper)
        for i in range(20):
            used = ~np.isnan(lower[i])
            want = union(
                PredictionInterval(lo, hi) for lo, hi in zip(lower[i][used], upper[i][used])
            )
            assert batch[i] == want

    @pytest.mark.parametrize("lower, upper", [
        ([[0.0, np.nan]], [[1.0, 2.0]]),        # NaN on one side only
        ([[2.0]], [[1.0]]),                     # lower > upper
        ([[0.0, 1.0]], [[1.0, 2.0]]),           # touching slots
        ([[3.0, 0.0]], [[4.0, 1.0]]),           # unsorted slots
        ([[0.0, np.nan, 0.5]], [[1.0, np.nan, 2.0]]),  # overlap across a hole
        ([0.0, 1.0], [1.0, 2.0]),               # not two-dimensional
    ])
    def test_invalid_batches_rejected(self, lower, upper):
        with pytest.raises(ValueError):
            IntervalBatch(np.array(lower), np.array(upper))

    def test_nan_bounds_rejected(self):
        with pytest.raises(ValueError):
            IntervalBatch.from_bounds([0.0, np.nan], [1.0, np.nan])

    def test_round_trip_through_sets_keeps_signed_zero(self):
        batch = IntervalBatch(np.array([[-0.0, 2.0], [0.0, np.nan]]),
                              np.array([[1.0, 3.0], [-0.0, np.nan]]))
        again = IntervalBatch.from_sets(batch)
        assert np.array_equal(np.signbit(again.lower), np.signbit(batch.lower))
        assert np.array_equal(np.signbit(again.upper), np.signbit(batch.upper))
