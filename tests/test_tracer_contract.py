"""The span tracer in ``perfbench/tracing.py`` binds package functions and
their parameters by name; these checks keep those names resolving.

The benchmark's own checks (``perfbench/test_perfbench.py``) cover the
same contract end to end but run every workload twice; this is the quick
version: one CLI command pair and one quantile-regression replicate, traced.
"""

import inspect
import os
import sys

import numpy as np
import pytest

import binconformal
import binconformal.cli
from binconformal.evaluation import LOG, MethodSpec, lognormal_study, run_replications

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench"))

from tracing import AFTER, TARGETS, Tracer  # noqa: E402

# the arguments each after-hook reads from its function's bound call
HOOK_ARGUMENTS = {
    "make_intervals": ("kind",),
    "bootstrap_intervals": ("n_draws",),
    "quantreg_pair": (),
    "coverage": (),
    "read_calibration_csv": ("path",),
    "read_test_csv": ("path",),
    "read_intervals_csv": ("path",),
    "write_dataset_csv": ("path", "dataset"),
    "write_intervals_csv": ("path", "interval_sets"),
    "write_report_csv": ("path", "report"),
    "write_report_rows_csv": ("path", "rows"),
    "write_widths_csv": ("path", "row_ids"),
}


def bindings():
    found = {
        (name, attr): value
        for name, module in sys.modules.items() if name.startswith("binconformal")
        for attr, value in vars(module).items() if callable(value)
    }
    found["inverse"] = binconformal.OutcomeTransform.inverse
    for cls in (binconformal.PredictionInterval, binconformal.IntervalSet):
        found[cls.__name__] = cls.__post_init__
    return found


def target(module_name, func):
    owner = sys.modules[f"binconformal.{module_name}"]
    for part in func.split("."):
        owner = getattr(owner, part)
    return owner


@pytest.mark.parametrize("func", sorted(AFTER))
def test_every_hook_argument_is_a_parameter(func):
    module_name = next(t[0] for t in TARGETS if t[1] == func)
    parameters = inspect.signature(target(module_name, func)).parameters
    assert set(HOOK_ARGUMENTS[func]) <= set(parameters)


def write_rows(path, header, rows):
    path.write_text(header + "\n" + "".join(f"{','.join(map(str, r))}\n" for r in rows))


def test_traced_op_runs_and_uninstall_restores_every_binding(tmp_path):
    # install() looks every TARGETS name up, so a renamed one fails here
    rng = np.random.default_rng(0)
    y_cal = rng.lognormal(size=30).tolist()
    y_test = rng.lognormal(size=5).tolist()
    cal, test, truth = tmp_path / "cal.csv", tmp_path / "test.csv", tmp_path / "truth.csv"
    write_rows(cal, "row_id,y_true,y_pred",
               [(i, repr(y), repr(1.1 * y)) for i, y in enumerate(y_cal)])
    write_rows(test, "row_id,y_pred", [(i, repr(1.1 * y)) for i, y in enumerate(y_test)])
    write_rows(truth, "row_id,y_true", [(i, repr(y)) for i, y in enumerate(y_test)])
    study = lognormal_study(
        replications=1, n=400, methods=(MethodSpec("quantreg", "quantreg", LOG),)
    )

    before = bindings()
    tracer = Tracer()
    tracer.install(binconformal)
    try:
        assert bindings() != before
        tracer.begin_op(1)
        assert binconformal.cli.main([
            "intervals", "--method", "scp", "--calibration", str(cal),
            "--test", str(test), "--out", str(tmp_path / "iv.csv"),
        ]) == 0
        assert binconformal.cli.main([
            "evaluate", "--intervals", str(tmp_path / "iv.csv"),
            "--truth", str(truth), "--out", str(tmp_path / "report.csv"),
        ]) == 0
        run_replications(study)
        tracer.end_op(1.0)
    finally:
        tracer.uninstall()
    assert bindings() == before
    op = tracer.ops[0]
    assert op["io.rows_read"] == 30 + 5
    assert op["io.rows_written"] == 5 + 1
    assert op["evaluation.coverage_rows"] > 5
    assert op["baselines.quantreg_iters"] > 0
    assert op["pipelines.make_intervals_s.scp"] > 0
    assert op["pipelines.make_intervals_s.quantreg"] > 0
