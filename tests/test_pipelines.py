import math

import numpy as np
import pytest

from binconformal.errors import ConfigurationError
from binconformal.intervals import BinPartition, bins_from_cutpoints
from binconformal.models import OutcomeTransform
from binconformal.pipelines import BINNED_KINDS, METHOD_KINDS, make_intervals


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
    bins = bins_from_cutpoints([3.0], support_min=1.0) if kind in BINNED_KINDS else None
    result = make_intervals(
        kind, y, y * rng.uniform(0.8, 1.2, size=60), [0.5, 1.0], alpha=0.1,
        transform=OutcomeTransform.LOG, bins=bins, support_min=1.0, rng=0,
    )
    assert "clamped" in result.flags[0]
    assert "clamped" not in result.flags[1]
    assert np.nanmin(result.sets.lower) >= 1.0
    if not kind.startswith("bootstrap"):  # each bootstrap row draws anew
        assert result.sets[0] == result.sets[1]


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
    scp = make_intervals("scp", *args, **kwargs)
    one_bin = make_intervals("bccp-d", *args, bins=BinPartition((), support), **kwargs)
    assert scp.sets.lower.tobytes() == one_bin.sets.lower.tobytes()
    assert scp.sets.upper.tobytes() == one_bin.sets.upper.tobytes()
    assert scp.flags == one_bin.flags
    assert scp.notes == one_bin.notes
    assert bool(scp.notes) == (n_cal == 5)


def test_scp_lower_bound_at_the_support_is_the_raw_support():
    # expm1(log1p(0.2)) is 0.20000000000000004; a lower bound clipped at
    # the support snaps back to the raw 0.2, as a bin edge does
    rng = np.random.default_rng(1)
    y = 0.2 + rng.gamma(2.0, 2.0, size=200)
    p = y * rng.uniform(0.5, 1.5, size=200)
    result = make_intervals(
        "scp", y, p, [0.1, 0.2], alpha=0.1,
        transform=OutcomeTransform.LOG1P, support_min=0.2,
    )
    assert result.sets.lower.ravel().tolist() == [0.2, 0.2]
