import json
import math
import sys
import threading
import warnings
from dataclasses import astuple

import numpy as np
import pytest

from binconformal import evaluation
from binconformal.errors import ConfigurationError, DataError
from binconformal.evaluation import (
    AGGREGATE,
    IDENTITY,
    LOG1P,
    QUARTILES,
    SEVEN_BIN_CUTPOINTS,
    MethodSpec,
    StudyConfig,
    coverage,
    lognormal_study,
    run_replications,
    zicount_study,
)
from binconformal.intervals import (
    IntervalBatch,
    PredictionInterval,
    bins_from_cutpoints,
    bins_from_percentiles,
    union,
)
from binconformal.models import OutcomeTransform, ols_fit, predict
from binconformal.pipelines import BINNED_KINDS, METHOD_KINDS, make_intervals
from binconformal.simulation import (
    CALIBRATION,
    STREAM_METHOD,
    TEST,
    TRAIN,
    derive_rng,
    generate,
    split,
)

INF = math.inf

# json.dumps(as_dict(), sort_keys=True) of the configs in
# test_config_json_unchanged; each report CSV's "# config:" line is this JSON
CONFIG_JSON = (
    (
        '{"alpha": 0.1, "base_seed": 20240501, "bootstrap_draws": 2000, "dgp": '
        '"lognormal", "grouping": "quartiles", "methods": [{"cutpoints": null, '
        '"kind": "scp", "n_bins": null, "name": "scp", "transform": '
        '"identity"}, {"cutpoints": null, "kind": "bccp-c", "n_bins": 2, '
        '"name": "bccp-c-2", "transform": "identity"}, {"cutpoints": null, '
        '"kind": "bccp-c", "n_bins": 4, "name": "bccp-c-4", "transform": '
        '"identity"}, {"cutpoints": null, "kind": "bccp-c", "n_bins": 6, '
        '"name": "bccp-c-6", "transform": "identity"}, {"cutpoints": null, '
        '"kind": "bccp-d", "n_bins": 2, "name": "bccp-d-2", "transform": '
        '"identity"}, {"cutpoints": null, "kind": "bccp-d", "n_bins": 4, '
        '"name": "bccp-d-4", "transform": "identity"}, {"cutpoints": null, '
        '"kind": "bccp-d", "n_bins": 6, "name": "bccp-d-6", "transform": '
        '"identity"}, {"cutpoints": null, "kind": "bootstrap", "n_bins": null, '
        '"name": "bootstrap", "transform": "identity"}, {"cutpoints": null, '
        '"kind": "bootstrap-log", "n_bins": null, "name": "bootstrap-log", '
        '"transform": "log"}, {"cutpoints": null, "kind": "lognormal", '
        '"n_bins": null, "name": "lognormal", "transform": "log"}, '
        '{"cutpoints": null, "kind": "quantreg", "n_bins": null, "name": '
        '"quantreg", "transform": "log"}], "model_transform": "log", "n": '
        '10000, "proportions": [0.5, 0.25, 0.25], "replications": 100, '
        '"round_counts": false, "support_min": 0.0}'
    ),
    (
        '{"alpha": 0.1, "base_seed": 20240502, "bootstrap_draws": 2000, "dgp": '
        '"zicount", "grouping": [1.0], "methods": [{"cutpoints": null, "kind": '
        '"scp", "n_bins": null, "name": "scp", "transform": "log1p"}, '
        '{"cutpoints": [1.0], "kind": "bccp-d", "n_bins": null, "name": '
        '"bccp-d-2", "transform": "log1p"}, {"cutpoints": [1.0, 8.0, 55.0], '
        '"kind": "bccp-d", "n_bins": null, "name": "bccp-d-4", "transform": '
        '"log1p"}, {"cutpoints": [1.0, 3.0, 8.0, 21.0, 55.0, 149.0], "kind": '
        '"bccp-d", "n_bins": null, "name": "bccp-d-7", "transform": "log1p"}, '
        '{"cutpoints": null, "kind": "bootstrap-log", "n_bins": null, "name": '
        '"bootstrap-log", "transform": "log1p"}, {"cutpoints": null, "kind": '
        '"bootstrap", "n_bins": null, "name": "bootstrap", "transform": '
        '"identity"}, {"cutpoints": null, "kind": "lognormal", "n_bins": null, '
        '"name": "lognormal", "transform": "log1p"}, {"cutpoints": null, '
        '"kind": "negbinom", "n_bins": null, "name": "negbinom", "transform": '
        '"identity"}, {"cutpoints": null, "kind": "poisson", "n_bins": null, '
        '"name": "poisson", "transform": "identity"}, {"cutpoints": null, '
        '"kind": "quantreg", "n_bins": null, "name": "quantreg", "transform": '
        '"log1p"}], "model_transform": "log1p", "n": 40000, "proportions": '
        '[0.7, 0.2, 0.1], "replications": 50, "round_counts": false, '
        '"support_min": 0.0, "zero_prob": 0.867}'
    ),
    (
        '{"alpha": 0.2, "base_seed": 3, "bootstrap_draws": 2000, "dgp": '
        '"zicount", "grouping": [1.0, 3.0, 8.0, 21.0, 55.0, 149.0], "methods": '
        '[{"cutpoints": [1.0, 8.0], "kind": "bccp-c", "n_bins": null, "name": '
        '"b", "transform": "log1p"}, {"cutpoints": null, "kind": "poisson", '
        '"n_bins": null, "name": "p", "transform": "identity"}], '
        '"model_transform": "log1p", "n": 100, "proportions": [0.7, 0.2, 0.1], '
        '"replications": 1, "round_counts": true, "support_min": 0.0, '
        '"zero_prob": 0.867}'
    ),
)


def sets_of(*pairs):
    return IntervalBatch.from_sets(
        union([PredictionInterval(lo, hi)]) for lo, hi in pairs
    )


class TestCoverage:
    def test_universal_intervals_cover_everything(self):
        sets = sets_of(*[(-INF, INF)] * 5)
        tallies = coverage(sets, [0.0, 1.0, -3.0, 100.0, 7.0])
        assert tallies[AGGREGATE].coverage == 1.0
        assert tallies[AGGREGATE].inf_width_count == 5

    def test_aggregate_is_weighted_mean_of_groups(self):
        rng = np.random.default_rng(31)
        y = rng.uniform(0, 10, size=97)
        sets = []
        for v in rng.uniform(0, 10, size=97):
            lo = v - rng.uniform(0, 2)
            sets.append(union([PredictionInterval(lo, lo + rng.uniform(0, 3))]))
        grouping = bins_from_cutpoints([2.0, 5.0], support_min=0.0)
        tallies = coverage(IntervalBatch.from_sets(sets), y, grouping)
        group_names = [g for g in tallies if g != AGGREGATE]
        assert sum(tallies[g].n for g in group_names) == tallies[AGGREGATE].n
        assert sum(tallies[g].covered for g in group_names) == tallies[AGGREGATE].covered

    def test_invariant_to_record_order(self):
        y = np.array([1.0, 4.0, 9.0, 2.5])
        sets = sets_of((0, 2), (3, 5), (10, 11), (0, 1))
        grouping = bins_from_cutpoints([3.0], support_min=0.0)
        a = coverage(sets, y, grouping)
        perm = [2, 0, 3, 1]
        b = coverage(IntervalBatch.from_sets(sets[i] for i in perm), y[perm], grouping)
        assert a == b

    def test_length_mismatch_raises(self):
        with pytest.raises(DataError):
            coverage(sets_of((0, 1)), [1.0, 2.0])

    def test_discontiguity_counted(self):
        two_seg = union([PredictionInterval(0, 1), PredictionInterval(3, 4)])
        sets = [two_seg, union([PredictionInterval(0, 4)])]
        tallies = coverage(IntervalBatch.from_sets(sets), [0.5, 0.5])
        assert tallies[AGGREGATE].discontiguity_rate == 0.5


class TestMeanWidth:
    def test_degenerate_intervals(self):
        t = coverage(sets_of((3, 3), (5, 5)), [3.0, 5.0])[AGGREGATE]
        assert (t.n, t.mean_width, t.inf_width_count) == (2, 0.0, 0)

    def test_single_interval(self):
        t = coverage(sets_of((0, 10)), [5.0])[AGGREGATE]
        assert (t.n, t.mean_width, t.inf_width_count) == (1, 10.0, 0)

    def test_infinite_width_excluded_and_counted(self):
        sets = sets_of((0, 10), (0, INF))
        t = coverage(sets, [1.0, 2.0])[AGGREGATE]
        assert (t.n, t.mean_width, t.inf_width_count) == (2, 10.0, 1)


class TestMakeIntervals:
    def test_cutpoint_outcomes_stay_covered_after_back_transform(self):
        # integer outcomes on a bin edge must not fall a float-ulp outside
        # the raw-scale segment that binds at that edge
        rng = np.random.default_rng(8)
        y_cal = np.array([0.0] * 40 + [1.0, 2.0] * 20 + [5.0] * 20)
        p_cal = np.maximum(0.0, y_cal + rng.normal(scale=0.5, size=y_cal.size))
        bins = bins_from_cutpoints([1.0, 3.0], support_min=0.0)
        result = make_intervals(
            "bccp-d", y_cal, p_cal, np.array([0.3, 0.8, 1.2]),
            alpha=0.2, transform=OutcomeTransform.LOG1P, bins=bins,
        )
        for s in result.sets:
            for seg in s:
                for cut in (1.0, 3.0):
                    if abs(seg.lower - cut) < 1e-9:
                        assert seg.lower == cut
                    if abs(seg.upper - cut) < 1e-9:
                        assert seg.upper == cut

    def test_scp_matches_direct_construction_on_identity_scale(self):
        from binconformal.conformal import calibrate, scp_interval

        y_cal = np.arange(1.0, 41.0)
        p_cal = y_cal + np.tile([-1.0, 1.0], 20)
        p_test = np.array([5.0, 20.0])
        result = make_intervals("scp", y_cal, p_cal, p_test, alpha=0.1)
        cal = calibrate(y_cal, p_cal, 0.1)
        for s, p in zip(result.sets, p_test):
            assert s.segments == (scp_interval(p, cal),)

    def test_lognormal_matches_baseline_op_on_log_scale(self):
        from binconformal.baselines import lognormal_interval, residual_sigma

        rng = np.random.default_rng(3)
        y_cal = np.exp(rng.normal(1.0, 0.5, size=200))
        p_cal = np.exp(rng.normal(1.0, 0.2, size=200))
        p_test = np.array([2.0, 7.0])
        result = make_intervals(
            "lognormal", y_cal, p_cal, p_test,
            alpha=0.1, transform=OutcomeTransform.LOG,
        )
        log = OutcomeTransform.LOG.forward
        sigma = residual_sigma(log(y_cal) - log(p_cal))
        for s, p in zip(result.sets, p_test):
            expected = lognormal_interval(math.log(p), sigma, 0.1)
            assert s.segments[0].lower == pytest.approx(expected.lower)
            assert s.segments[0].upper == pytest.approx(expected.upper)

    def test_bootstrap_log_requires_log_family(self):
        with pytest.raises(ConfigurationError):
            make_intervals(
                "bootstrap-log", np.ones(10), np.ones(10), np.ones(3), alpha=0.1
            )

    def test_bcc_requires_bins(self):
        with pytest.raises(ConfigurationError):
            make_intervals("bccp-d", np.ones(10), np.ones(10), np.ones(3), alpha=0.1)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            make_intervals("magic", np.ones(3), np.ones(3), np.ones(1), alpha=0.1)

    @pytest.mark.parametrize("kind", ["scp", "bccp-d", "bootstrap", "poisson"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_inputs_rejected(self, kind, bad):
        y = np.arange(1.0, 41.0)
        bins = bins_from_cutpoints([20.0], support_min=0.0) if kind == "bccp-d" else None
        for position in range(3):
            args = [y.copy(), y + 0.5, np.array([3.0, 7.0])]
            args[position][0] = bad
            with pytest.raises(DataError, match="finite"):
                make_intervals(kind, *args, alpha=0.1, bins=bins, support_min=0.0)

    def test_clamped_predictions_flagged(self):
        result = make_intervals(
            "scp", np.arange(20.0), np.arange(20.0) + 0.5, np.array([-2.0, 3.0]),
            alpha=0.2, support_min=0.0,
        )
        assert "clamped" in result.flags[0]
        assert "clamped" not in result.flags[1]

    def test_round_counts_produces_integer_bounds(self):
        result = make_intervals(
            "scp", np.arange(20.0), np.arange(20.0) + 0.7, np.array([4.3]),
            alpha=0.2, round_counts=True, support_min=0.0,
        )
        seg = result.sets[0].segments[0]
        assert seg.lower == int(seg.lower) and seg.upper == int(seg.upper)
        assert seg.lower >= 0.0

    def test_crossed_quantiles_flagged(self):
        # constant outcomes make both quantile fits identical; force a
        # crossing by fitting on opposite trends
        rng = np.random.default_rng(5)
        y_cal = np.concatenate([rng.uniform(0, 1, 50), rng.uniform(9, 10, 50)])
        p_cal = np.concatenate([rng.uniform(9, 10, 50), rng.uniform(0, 1, 50)])
        result = make_intervals(
            "quantreg", y_cal, p_cal, np.array([0.5, 9.5]), alpha=0.2
        )
        # intervals are still well-formed even if crossing occurred
        for s in result.sets:
            assert s.segments[0].lower <= s.segments[0].upper


class TestMethodSpec:
    @pytest.mark.parametrize("kind", [k for k in METHOD_KINDS if k not in BINNED_KINDS])
    @pytest.mark.parametrize("bins", [{"n_bins": 2}, {"cutpoints": (1.0,)}])
    def test_bins_rejected_for_non_binned_kinds(self, kind, bins):
        with pytest.raises(ConfigurationError, match="bins only apply"):
            MethodSpec(kind, kind, **bins)

    @pytest.mark.parametrize("kind", BINNED_KINDS)
    def test_binned_kinds_require_bins(self, kind):
        with pytest.raises(ConfigurationError, match="needs bins"):
            MethodSpec(kind, kind)

    @pytest.mark.parametrize("cutpoints", [(), (1.0,)])
    def test_n_bins_and_cutpoints_together_rejected(self, cutpoints):
        with pytest.raises(ConfigurationError, match="not both"):
            MethodSpec("b", "bccp-d", n_bins=4, cutpoints=cutpoints)


class TestRunReplications:
    def make_tiny_config(self, **overrides):
        base = dict(
            dgp="lognormal",
            n=400,
            proportions=(0.5, 0.25, 0.25),
            alpha=0.1,
            methods=(
                MethodSpec("scp", "scp"),
                MethodSpec("bccp-d-2", "bccp-d", n_bins=2),
            ),
            replications=3,
            base_seed=99,
            model_transform=OutcomeTransform.LOG,
            grouping=QUARTILES,
            support_min=0.0,
        )
        base.update(overrides)
        return StudyConfig(**base)

    def test_single_replicate_is_reproducible(self):
        cfg = self.make_tiny_config(replications=1)
        a = run_replications(cfg)
        b = run_replications(cfg)
        assert a.stats == b.stats
        assert a.groups == b.groups

    def test_aggregate_coverage_near_half_for_alpha_half(self):
        cfg = self.make_tiny_config(alpha=0.5, replications=60)
        report = run_replications(cfg)
        stat = report.get("scp")
        n_cal = 100
        lo = 0.5 - 3 * stat.coverage_se
        hi = 0.5 + 1 / (n_cal + 1) + 3 * stat.coverage_se
        assert lo <= stat.coverage <= hi

    def test_replicate_failures_carry_the_index(self):
        # 500 percentile bins cannot be built from 100 calibration values
        cfg = self.make_tiny_config(
            methods=(MethodSpec("bccp-d-500", "bccp-d", n_bins=500),)
        )
        with pytest.raises(ConfigurationError, match="replicate 0"):
            run_replications(cfg)

    def test_duplicate_method_names_rejected(self):
        cfg = self.make_tiny_config(
            methods=(MethodSpec("scp", "scp"), MethodSpec("scp", "scp"))
        )
        with pytest.raises(ConfigurationError):
            run_replications(cfg)

    def test_reported_se_is_sd_of_replicate_metrics_over_sqrt_r(self):
        from binconformal.evaluation import _run_replicate

        cfg = self.make_tiny_config(replications=5)
        report = run_replications(cfg)
        per_rep = [
            _run_replicate(cfg, r)["scp"][AGGREGATE].coverage for r in range(5)
        ]
        assert report.get("scp").coverage == pytest.approx(np.mean(per_rep))
        assert report.get("scp").coverage_se == pytest.approx(
            np.std(per_rep, ddof=1) / np.sqrt(5)
        )

    def test_report_exposes_expected_cells(self):
        report = run_replications(self.make_tiny_config())
        assert report.methods == ("scp", "bccp-d-2")
        assert report.groups[0] == AGGREGATE
        assert set(report.groups[1:]) == {"Q1", "Q2", "Q3", "Q4"}
        stat = report.get("scp", "Q1")
        assert stat.n == 3 * 25
        assert 0.0 <= stat.coverage <= 1.0

    def test_config_json_unchanged(self):
        # the "# config:" line of every report CSV is this JSON
        spec = StudyConfig(
            dgp="zicount", n=100, proportions=(0.7, 0.2, 0.1), alpha=0.2,
            methods=(
                MethodSpec("b", "bccp-c", OutcomeTransform.LOG1P, cutpoints=(1.0, 8.0)),
                MethodSpec("p", "poisson"),
            ),
            replications=1, base_seed=3, model_transform=OutcomeTransform.LOG1P,
            grouping=SEVEN_BIN_CUTPOINTS, support_min=0.0, round_counts=True,
        )
        for config, expected in zip(
            (lognormal_study(), zicount_study(), spec), CONFIG_JSON
        ):
            assert json.dumps(config.as_dict(), sort_keys=True) == expected

    def test_presets_construct(self):
        t1 = lognormal_study(replications=2)
        assert t1.dgp == "lognormal" and t1.grouping == QUARTILES
        t2 = zicount_study(replications=2)
        assert t2.dgp == "zicount" and t2.grouping == (1.0,)
        assert t2.round_counts is False
        assert lognormal_study(bootstrap_draws=300).bootstrap_draws == 300
        t3 = zicount_study(grouping=SEVEN_BIN_CUTPOINTS)
        assert t3.grouping == SEVEN_BIN_CUTPOINTS and t3.zero_prob == t2.zero_prob
        with pytest.raises(TypeError):
            lognormal_study(no_such_field=1)


def serial_replicate(config, rep):
    """One replicate's tallies from a plain loop over the methods, in order."""
    seed = (config.base_seed, rep)
    ds = split(generate(config.dgp, config.n, seed, config.zero_prob),
               config.proportions, seed=seed)
    X_train, y_train = ds.rows(TRAIN)
    X_cal, y_cal = ds.rows(CALIBRATION)
    X_test, y_test = ds.rows(TEST)
    model = ols_fit(X_train, y_train, config.model_transform)
    _, p_cal = predict(model, X_cal)
    _, p_test = predict(model, X_test)
    grouping = config.grouping
    if grouping != QUARTILES:
        grouping = bins_from_cutpoints(grouping, config.support_min)
    out = {}
    for index, spec in enumerate(config.methods):
        bins = None
        if spec.cutpoints is not None:
            bins = bins_from_cutpoints(spec.cutpoints, config.support_min)
        elif spec.n_bins is not None:
            bins = bins_from_percentiles(y_cal, spec.n_bins, config.support_min)
        result = make_intervals(
            spec.kind, y_cal, p_cal, p_test, alpha=config.alpha,
            transform=spec.transform, bins=bins, round_counts=config.round_counts,
            n_draws=config.bootstrap_draws,
            rng=derive_rng(seed, STREAM_METHOD, index),
            support_min=config.support_min,
            quantreg_design=(X_train, y_train, X_test) if spec.kind == "quantreg" else None,
        )
        out[spec.name] = coverage(result.sets, y_test, grouping)
    return out


def noting(run, *args):
    """run(*args) and the messages of the notes it raised, in order."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = run(*args)
    return result, [str(w.message) for w in caught]


# zicount at n=2000, seed (20240502, 0): the percentile breakpoints of the
# zero-heavy outcomes collapse, and the top bins [55, inf) and [30, inf)
# hold too few records for a finite quantile; each of those three methods
# raises one note, and the baselines between them raise none
NOTED_METHODS = (
    MethodSpec("pct-4", "bccp-d", LOG1P, n_bins=4),
    MethodSpec("bootstrap", "bootstrap", IDENTITY),
    MethodSpec("top-55", "bccp-d", LOG1P, cutpoints=(1.0, 55.0)),
    MethodSpec("quantreg", "quantreg", LOG1P),
    MethodSpec("top-30", "bccp-d", LOG1P, cutpoints=(1.0, 8.0, 30.0)),
    MethodSpec("bootstrap-log", "bootstrap-log", LOG1P),
)


class TestMethodPool:
    @pytest.mark.parametrize("study, n", [(lognormal_study, 1200), (zicount_study, 6000)])
    def test_tallies_equal_a_serial_loop(self, study, n, monkeypatch):
        config = study(n=n, replications=2, bootstrap_draws=500)
        assert {"quantreg", "bootstrap", "bootstrap-log"} <= {m.kind for m in config.methods}
        for rep in range(config.replications):
            assert evaluation._run_replicate(config, rep) == serial_replicate(config, rep)
        pooled, pooled_notes = noting(run_replications, config)
        monkeypatch.setattr(evaluation, "_run_replicate", serial_replicate)
        serial, serial_notes = noting(run_replications, config)
        assert pooled_notes == serial_notes
        assert pooled.groups == serial.groups
        np.testing.assert_equal(
            {cell: astuple(stat) for cell, stat in pooled.stats.items()},
            {cell: astuple(stat) for cell, stat in serial.stats.items()},
        )

    def test_notes_are_raised_in_method_order(self, monkeypatch):
        config = zicount_study(n=2000, replications=2, methods=NOTED_METHODS)
        _, expected = noting(
            lambda: [serial_replicate(config, rep) for rep in range(2)]
        )
        assert len(expected) >= 4
        assert expected[0].startswith("duplicate or out-of-support percentile")
        assert expected[1:3] == [
            "bin 3 [55.0, inf) fell back to an infinite quantile",
            "bin 4 [30.0, inf) fell back to an infinite quantile",
        ]
        # one worker per method, more than the cores, switching often
        monkeypatch.setattr(evaluation, "_usable_cpus", lambda: len(NOTED_METHODS))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(20):
                assert noting(run_replications, config)[1] == expected
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("first, message", [
        ("lognormal", "replicate 0: the log-normal method requires the log"),
        ("bootstrap-log", "replicate 0: bootstrap-log requires the log"),
    ])
    def test_the_earliest_failing_method_raises(self, first, message):
        second = ({"lognormal", "bootstrap-log"} - {first}).pop()
        methods = (
            NOTED_METHODS[2],
            MethodSpec(first, first, IDENTITY),
            NOTED_METHODS[3],
            MethodSpec(second, second, IDENTITY),
            NOTED_METHODS[4],
        )
        config = zicount_study(n=2000, replications=1, methods=methods)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ConfigurationError) as raised:
                run_replications(config)
        assert str(raised.value).startswith(message)
        # the note of the method before the failure, none from after it
        assert [str(w.message) for w in caught] == [
            "bin 3 [55.0, inf) fell back to an infinite quantile"
        ]

    def test_no_thread_outlives_the_call(self):
        before = threading.active_count()
        noting(run_replications,
               zicount_study(n=2000, replications=2, methods=NOTED_METHODS))
        assert threading.active_count() == before
        failing = (MethodSpec("lognormal", "lognormal", IDENTITY),) + NOTED_METHODS
        with pytest.raises(ConfigurationError, match="replicate 0"):
            run_replications(zicount_study(n=2000, replications=1, methods=failing))
        assert threading.active_count() == before
