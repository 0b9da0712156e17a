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
