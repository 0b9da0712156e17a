"""Prediction intervals with standard and bin-conditional split conformal
prediction, baseline interval methods, synthetic data generators, and a
replication harness."""

from .baselines import (
    ResidualPool,
    bootstrap_interval,
    bootstrap_intervals,
    estimate_nb_dispersion,
    lognormal_interval,
    negbinom_interval,
    pinball_loss,
    poisson_interval,
    quantreg_fit,
    quantreg_interval,
    quantreg_pair,
    residual_pool,
)
from .conformal import (
    ConformalCalibration,
    NonconformityMeasure,
    bccp_contiguous,
    bccp_discontiguous,
    bccp_per_bin_interval,
    calibrate,
    conformal_pvalue,
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
    mean_width,
    run_replications,
    zicount_study,
)
from .intervals import (
    BinPartition,
    IntervalBatch,
    IntervalSet,
    PredictionInterval,
    assign_bin,
    bins_from_cutpoints,
    bins_from_percentiles,
    hull,
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
