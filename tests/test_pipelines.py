import math
import warnings

import numpy as np
import pytest

from binconformal import baselines, pipelines
from binconformal.conformal import calibrate
from binconformal.errors import ConfigurationError, DataError
from binconformal.intervals import BinPartition, bins_from_cutpoints
from binconformal.models import OutcomeTransform
from binconformal.pipelines import BINNED_KINDS, METHOD_KINDS, make_intervals

LOG = OutcomeTransform.LOG
LOG1P = OutcomeTransform.LOG1P


def make_intervals_noting(*args, **kwargs):
    """make_intervals' result and the messages of the notes it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = make_intervals(*args, **kwargs)
    return result, [str(w.message) for w in caught]


def test_method_kinds_keep_their_order():
    assert METHOD_KINDS == (
        "scp", "bccp-d", "bccp-c", "bootstrap", "bootstrap-log",
        "lognormal", "poisson", "negbinom", "quantreg",
    )


@pytest.mark.parametrize(
    "kind", ["bootstrap", "bootstrap-log", "lognormal", "poisson", "negbinom", "quantreg"]
)
def test_bins_rejected_for_baseline_kinds(kind):
    y = np.arange(1.0, 41.0)
    with pytest.raises(ConfigurationError, match="bins only apply"):
        make_intervals(
            kind, y, y + 0.5, np.array([3.0]), alpha=0.1,
            transform=OutcomeTransform.LOG1P,
            bins=bins_from_cutpoints([20.0], support_min=0.0),
        )


@pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, -0.2, math.nan])
@pytest.mark.parametrize("kind", METHOD_KINDS)
def test_alpha_outside_unit_interval_rejected_for_every_kind(kind, alpha):
    y = np.arange(1.0, 41.0)
    bins = bins_from_cutpoints([20.0], support_min=0.0) if kind in BINNED_KINDS else None
    with pytest.raises(ConfigurationError, match="alpha must be strictly inside"):
        make_intervals(
            kind, y, y + 0.5, np.array([3.0]), alpha=alpha,
            transform=OutcomeTransform.LOG1P, bins=bins,
        )


@pytest.mark.parametrize("kind", METHOD_KINDS)
def test_prediction_below_support_is_clamped_and_flagged_on_the_log_scale(kind):
    rng = np.random.default_rng(5)
    y = 1.0 + rng.gamma(2.0, 2.0, size=60)
    p_cal = y * rng.uniform(0.8, 1.2, size=60)
    # the floor is the larger of support_min and the bins' support, each
    # side binding in turn
    for support_min, bins_min in ((1.0, 1.0), (1.0, 0.0), (0.0, 1.0)):
        bins = bins_from_cutpoints([3.0], bins_min) if kind in BINNED_KINDS else None
        floor = max(support_min, -math.inf if bins is None else bins_min)
        result = make_intervals(
            kind, y, p_cal, [0.5, 1.0], alpha=0.1,
            transform=OutcomeTransform.LOG, bins=bins, support_min=support_min, rng=0,
        )
        assert ("clamped" in result.flags[0]) == (floor == 1.0)
        assert "clamped" not in result.flags[1]
        assert np.nanmin(result.sets.lower) >= floor
        # each bootstrap row draws anew
        if floor == 1.0 and not kind.startswith("bootstrap"):
            assert result.sets[0] == result.sets[1]
    # a support_min below the transform's own is that of the transform
    bins = bins_from_cutpoints([3.0], 0.0) if kind in BINNED_KINDS else None
    below, at = (
        make_intervals(
            kind, y, p_cal, [-0.5, 0.5, 4.0], alpha=0.1,
            transform=OutcomeTransform.LOG1P, bins=bins, support_min=smin, rng=0,
        )
        for smin in (-1.0, 0.0)
    )
    assert below.sets.lower.tobytes() == at.sets.lower.tobytes()
    assert below.sets.upper.tobytes() == at.sets.upper.tobytes()
    assert below.flags == at.flags
    for bad in (math.nan, math.inf):
        with pytest.raises(ConfigurationError, match="support_min"):
            make_intervals(
                kind, y, p_cal, [1.0], alpha=0.1,
                transform=OutcomeTransform.LOG, bins=bins, support_min=bad, rng=0,
            )


@pytest.mark.parametrize("n_cal", [5, 60])
@pytest.mark.parametrize("support_min", [None, 0.0])
@pytest.mark.parametrize("transform", list(OutcomeTransform))
def test_scp_is_bccp_d_over_the_one_bin(transform, support_min, n_cal):
    # 5 calibration rows at alpha 0.1 give an infinite quantile, which both
    # calls must report with the same note
    rng = np.random.default_rng(n_cal)
    if transform is OutcomeTransform.LOG:
        y = np.exp(rng.normal(1.0, 1.0, size=n_cal))
        p_test = np.exp(rng.normal(1.0, 1.5, size=40))
    else:
        y = np.where(rng.random(n_cal) < 0.4, 0.0, rng.integers(1, 40, size=n_cal))
        p_test = np.concatenate([rng.uniform(-2.0, 50.0, size=40), [-0.0, 0.0, -1.0]])
    p_cal = np.abs(y + rng.normal(0.0, 2.0, size=n_cal)) + 1e-3
    support = transform.support_min if support_min is None else support_min
    args = (y, p_cal, p_test)
    kwargs = dict(alpha=0.1, transform=transform, support_min=support_min)
    scp, scp_notes = make_intervals_noting("scp", *args, **kwargs)
    one_bin, one_bin_notes = make_intervals_noting(
        "bccp-d", *args, bins=BinPartition((), support), **kwargs
    )
    assert scp.sets.lower.tobytes() == one_bin.sets.lower.tobytes()
    assert scp.sets.upper.tobytes() == one_bin.sets.upper.tobytes()
    assert scp.flags == one_bin.flags
    assert scp_notes == one_bin_notes
    assert bool(scp_notes) == (n_cal == 5)


def test_scp_lower_bound_at_the_support_is_the_raw_support():
    # expm1(log1p(0.2)) is 0.20000000000000004; a lower bound clipped at
    # the support is the raw 0.2, as at a bin edge: the cut is on the raw axis
    rng = np.random.default_rng(1)
    y = 0.2 + rng.gamma(2.0, 2.0, size=200)
    p = y * rng.uniform(0.5, 1.5, size=200)
    result = make_intervals(
        "scp", y, p, [0.1, 0.2], alpha=0.1,
        transform=OutcomeTransform.LOG1P, support_min=0.2,
    )
    assert result.sets.lower.ravel().tolist() == [0.2, 0.2]


@pytest.mark.parametrize("kind", ["bccp-d", "bccp-c"])
@pytest.mark.parametrize("transform, cutpoint", [
    (LOG, 5.0), (LOG1P, 1.0), (LOG1P, 3.0), (LOG1P, 149.0),
])
def test_outcome_one_ulp_below_a_cutpoint_is_scored_in_its_raw_bin(
    monkeypatch, kind, transform, cutpoint
):
    # the transform maps the raw value just below the cutpoint onto the
    # cutpoint's image; the record still belongs to the bin below
    below = float(np.nextafter(cutpoint, 0.0))
    assert transform.forward(below) == transform.forward(cutpoint)
    seen = []

    def spy(*args, **kwargs):
        seen.append(calibrate(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(pipelines, "calibrate", spy)
    y_true = np.array([0.5 * cutpoint, below, below, cutpoint, 2.0 * cutpoint] * 4)
    bins = bins_from_cutpoints([cutpoint], 0.0)
    make_intervals_noting(kind, y_true, y_true + 0.25, [below, cutpoint], alpha=0.1,
                          transform=transform, bins=bins)
    assert seen[0].bin_indices.tolist() == bins.assign_many(y_true).tolist()


def test_baselines_bind_no_outcome_transform():
    # every back-transform lives in the pipelines
    assert OutcomeTransform not in vars(baselines).values()


def test_bootstrap_residuals_are_raw_scale_differences():
    # residuals y_true - y_pred of 1 and -2, subtracted from the prediction
    result = make_intervals("bootstrap", [3.0, 5.0] * 50, [2.0, 7.0] * 50, [10.0],
                            alpha=0.5, n_draws=4000, rng=3)
    segment = result.sets[0].segments[0]
    assert segment.lower == pytest.approx(9.0, abs=1e-9)
    assert segment.upper == pytest.approx(12.0, abs=1e-9)


def test_bootstrap_log_residuals_and_bounds_are_on_the_log_scale():
    # log residuals of +-0.1 around a log-scale prediction of 1.0, and the
    # bounds exponentiated; raw residuals would be about -0.26 and +0.29
    y_true = np.exp(1.0 + np.array([-0.1, 0.1] * 50))
    result = make_intervals("bootstrap-log", y_true, np.full(100, math.e), [math.e],
                            alpha=0.5, transform=LOG, n_draws=4000, rng=3)
    segment = result.sets[0].segments[0]
    assert segment.lower == pytest.approx(math.exp(0.9), abs=1e-9)
    assert segment.upper == pytest.approx(math.exp(1.1), abs=1e-9)


def test_bootstrap_log_is_the_clipped_exp_of_the_log_scale_bootstrap():
    data = np.random.default_rng(21)
    y_cal = data.lognormal(1.0, 0.8, size=300)
    p_cal = 1.0 + data.lognormal(1.0, 0.4, size=300)
    p_test = 1.0 + data.lognormal(0.0, 1.0, size=50)
    got = make_intervals("bootstrap-log", y_cal, p_cal, p_test, alpha=0.1,
                         transform=LOG, rng=7, support_min=1.0).sets
    batch = baselines.bootstrap_intervals(
        np.log(p_test), np.log(y_cal) - np.log(p_cal), 0.1, rng=7
    )
    lower, upper = np.exp(batch.lower), np.exp(batch.upper)
    assert np.any(lower < 1.0)  # the clip binds
    assert got.lower.tobytes() == np.maximum(1.0, lower).tobytes()
    assert got.upper.tobytes() == np.maximum(1.0, upper).tobytes()


@pytest.mark.parametrize("kind", ["bootstrap", "bootstrap-log", "lognormal"])
def test_calibration_length_mismatch_is_data_error(kind):
    with pytest.raises(DataError, match="lengths differ"):
        make_intervals(kind, [1.0], [1.0, 2.0], [1.0], alpha=0.1, transform=LOG)
