import math

import numpy as np
import pytest

from binconformal.errors import ConfigurationError
from binconformal.intervals import bins_from_cutpoints
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
