"""Prediction intervals with standard and bin-conditional split conformal
prediction, baseline interval methods, synthetic data generators, and a
replication harness."""

from .baselines import (
    bootstrap_intervals,
    estimate_nb_dispersion,
    lognormal_interval,
    pinball_loss,
    quantreg_fit,
    quantreg_pair,
)
from .conformal import (
    ConformalCalibration,
    bccp_contiguous,
    bccp_discontiguous,
    bccp_per_bin_interval,
    calibrate,
    finite_sample_quantile,
    grid_interval,
    scp_interval,
)
from .errors import (
    BinConformalError,
    ConfigurationError,
    DataError,
    NumericalError,
)
from .evaluation import (
    CoverageReport,
    MethodSpec,
    StudyConfig,
    coverage,
    lognormal_study,
    run_replications,
    zicount_study,
)
from .intervals import (
    BinPartition,
    IntervalBatch,
    IntervalSet,
    PredictionInterval,
    bins_from_cutpoints,
    bins_from_percentiles,
    bins_from_spec,
    union,
)
from .models import (
    LinearModel,
    OutcomeTransform,
    ols_fit,
    predict,
    round_count_interval,
)
from .simulation import Dataset, lognormal_dgp, split, zero_inflated_count_dgp

__version__ = "0.1.0"
