"""Command-line interface.

Commands: ``simulate`` (write a synthetic dataset), ``intervals`` (build
prediction intervals from calibration and test CSVs), ``evaluate`` (score
an interval file against true outcomes), ``report`` (run a replicated
study end to end).

Every command is deterministic given its flags; outputs embed the resolved
configuration as a leading comment line; method notes and warnings (such as
collapsed percentile bins) go to stderr as ``note:`` lines. Exit codes: 0
success, 2 configuration error, 3 data error, 4 numerical error.
"""

import argparse
import math
import sys
import warnings
from dataclasses import replace

import numpy as np

from . import io
from .conformal import _validate_alpha
from .errors import BinConformalError, ConfigurationError, DataError
from .evaluation import AGGREGATE, QUARTILES, STUDIES, coverage, run_replications
from .intervals import bins_from_spec
from .models import OutcomeTransform
from .pipelines import METHOD_KINDS, make_intervals
from .simulation import STREAM_METHOD, derive_rng, generate, split


def _parse_proportions(text: str) -> tuple:
    parts = text.split(",")
    if len(parts) != 3:
        raise ConfigurationError(
            f"--proportions needs three comma-separated numbers, got {text!r}"
        )
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        raise ConfigurationError(f"cannot parse proportions {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="binconformal",
        description="Prediction intervals with standard and bin-conditional "
                    "conformal prediction plus baseline methods.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="write a synthetic dataset CSV")
    p_sim.add_argument("--dgp", choices=tuple(STUDIES), required=True)
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--zero-prob", type=float, default=None,
                       help="zicount only (default: the study preset's)")
    p_sim.add_argument("--proportions", default=None,
                       help="train,calibration,test fractions "
                            "(default: the study preset's)")
    p_sim.add_argument("--out", required=True)

    p_int = sub.add_parser("intervals", help="build prediction intervals from CSVs")
    p_int.add_argument("--method", choices=METHOD_KINDS, required=True)
    p_int.add_argument("--calibration", required=True,
                       help="CSV with header row_id,y_true,y_pred")
    p_int.add_argument("--test", required=True,
                       help="CSV with header row_id,y_pred[,y_true]")
    p_int.add_argument("--out", required=True)
    p_int.add_argument("--alpha", type=float, default=0.1)
    p_int.add_argument("--bins", default=None,
                       help="'percentiles:k' or comma-separated cutpoints "
                            "(required for bccp-* methods)")
    p_int.add_argument("--transform", choices=("identity", "log", "log1p"),
                       default="identity")
    p_int.add_argument("--seed", type=int, default=0)
    p_int.add_argument("--bootstrap-b", type=int, default=2000)
    p_int.add_argument("--round-counts", action="store_true")
    p_int.add_argument("--allow-empty-bins", action="store_true")
    p_int.add_argument("--grid-resolution", type=int, default=4001,
                       help="grid size for the brute-force construction "
                            "(recorded for provenance)")

    p_eval = sub.add_parser("evaluate", help="score an interval CSV against truth")
    p_eval.add_argument("--intervals", required=True)
    p_eval.add_argument("--truth", required=True,
                        help="CSV carrying row_id and y_true columns")
    p_eval.add_argument("--out", required=True, help="coverage report CSV")
    p_eval.add_argument("--widths-out", default=None,
                        help="optional per-row width CSV")
    p_eval.add_argument("--group", choices=("none", "quartiles", "bins"),
                        default="none")
    p_eval.add_argument("--bins", default=None,
                        help="bin spec when --group bins")
    p_eval.add_argument("--method-name", default="intervals",
                        help="method label for the report rows")

    p_rep = sub.add_parser("report", help="run a replicated study end to end")
    p_rep.add_argument("--study", choices=tuple(STUDIES), required=True)
    p_rep.add_argument("--replications", type=int, default=None)
    p_rep.add_argument("--seed", type=int, default=None)
    p_rep.add_argument("--n", type=int, default=None)
    p_rep.add_argument("--alpha", type=float, default=None)
    p_rep.add_argument("--zero-prob", type=float, default=None)
    p_rep.add_argument("--bootstrap-b", type=int, default=None)
    p_rep.add_argument("--methods", default=None,
                       help="comma-separated method names to keep")
    p_rep.add_argument("--out", required=True)
    return parser


def cmd_simulate(args) -> int:
    if args.zero_prob is not None and args.dgp != "zicount":
        raise ConfigurationError("--zero-prob only applies to the zicount generator")
    preset = STUDIES[args.dgp]()
    if args.proportions is None:
        proportions = preset.proportions
    else:
        proportions = _parse_proportions(args.proportions)
    zero_prob = preset.zero_prob if args.zero_prob is None else args.zero_prob
    dataset = split(
        generate(args.dgp, args.n, args.seed, zero_prob),
        proportions, seed=args.seed,
    )
    config = {
        "command": "simulate", "dgp": args.dgp, "n": args.n, "seed": args.seed,
        "proportions": list(proportions),
    }
    if args.dgp == "zicount":
        config["zero_prob"] = zero_prob
    io.write_dataset_csv(args.out, dataset, config)
    return 0


def cmd_intervals(args) -> int:
    alpha = _validate_alpha(args.alpha)
    if args.grid_resolution < 2:
        raise ConfigurationError(
            f"--grid-resolution must be at least 2, got {args.grid_resolution}"
        )
    transform = OutcomeTransform(args.transform)
    rng = derive_rng(args.seed, STREAM_METHOD, 0)
    _, y_true_cal, y_pred_cal = io.read_calibration_csv(args.calibration)
    test_ids, y_pred_test = io.read_test_csv(args.test)
    bins = None if args.bins is None else bins_from_spec(
        args.bins, y_true_cal, transform.support_min
    )
    result = make_intervals(
        args.method,
        y_true_cal, y_pred_cal, y_pred_test,
        alpha=alpha,
        transform=transform,
        bins=bins,
        round_counts=args.round_counts,
        allow_empty_bins=args.allow_empty_bins,
        n_draws=args.bootstrap_b,
        rng=rng,
    )
    for note in result.notes:
        print(f"note: {note}", file=sys.stderr)
    config = {
        "command": "intervals", "method": args.method, "alpha": alpha,
        "bins": args.bins, "transform": args.transform, "seed": args.seed,
        "bootstrap_b": args.bootstrap_b, "round_counts": args.round_counts,
        "allow_empty_bins": args.allow_empty_bins,
        "grid_resolution": args.grid_resolution,
    }
    io.write_intervals_csv(args.out, test_ids, result.sets, result.flags, config)
    return 0


def cmd_evaluate(args) -> int:
    if args.group == "bins" and args.bins is None:
        raise ConfigurationError("--group bins requires --bins")
    if args.group != "bins" and args.bins is not None:
        raise ConfigurationError("--bins only applies with --group bins")
    order, intervals, _ = io.read_interval_batch(args.intervals)
    truth_ids, y_true = io.read_truth_csv(args.truth)
    if truth_ids != order:  # a truth file in another order, or other rows
        truth = dict(zip(truth_ids, y_true.tolist()))
        missing = [rid for rid in order if rid not in truth]
        if missing:
            raise DataError(
                f"row_id mismatch: {len(missing)} interval rows have no truth "
                f"record (first: {missing[0]!r})"
            )
        if len(truth) != len(order):
            known = set(order)
            extra = next(rid for rid in truth if rid not in known)
            raise DataError(
                f"row_id mismatch: {len(truth) - len(order)} truth rows have "
                f"no interval (first: {extra!r})"
            )
        y_true = np.array([truth[rid] for rid in order])

    if args.group == "bins":
        grouping = bins_from_spec(args.bins, y_true, -math.inf)
    else:
        grouping = QUARTILES if args.group == "quartiles" else None

    tallies = coverage(intervals, y_true, grouping)
    rows = []
    for group in (AGGREGATE, *[g for g in tallies if g != AGGREGATE]):
        t = tallies[group]
        se = (
            math.sqrt(t.coverage * (1 - t.coverage) / t.n)
            if t.n > 0 else math.nan
        )
        rows.append((
            args.method_name, group, t.n, t.coverage, se,
            t.mean_width, t.inf_width_count, t.discontiguity_rate,
        ))
    config = {
        "command": "evaluate", "group": args.group, "bins": args.bins,
        "method_name": args.method_name,
    }
    io.write_report_rows_csv(args.out, rows, config)
    if args.widths_out:
        io.write_widths_csv(args.widths_out, order, y_true, intervals, config)
    return 0


def cmd_report(args) -> int:
    if args.zero_prob is not None and args.study != "zicount":
        raise ConfigurationError("--zero-prob only applies to the zicount study")
    if args.alpha is not None:
        _validate_alpha(args.alpha)
    overrides = {
        "replications": args.replications, "base_seed": args.seed, "n": args.n,
        "alpha": args.alpha, "zero_prob": args.zero_prob,
    }
    config = STUDIES[args.study](
        **{key: value for key, value in overrides.items() if value is not None}
    )
    if args.methods is not None:
        keep = [name.strip() for name in args.methods.split(",")]
        available = {m.name for m in config.methods}
        unknown = [name for name in keep if name not in available]
        if unknown:
            raise ConfigurationError(
                f"unknown method names {unknown}; available: {sorted(available)}"
            )
        config = replace(
            config, methods=tuple(m for m in config.methods if m.name in keep)
        )
    if args.bootstrap_b is not None:
        config = replace(config, bootstrap_draws=args.bootstrap_b)
    report = run_replications(config)
    io.write_report_csv(args.out, report)
    return 0


COMMANDS = {
    "simulate": cmd_simulate,
    "intervals": cmd_intervals,
    "evaluate": cmd_evaluate,
    "report": cmd_report,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse reports usage errors itself
        return int(exc.code or 0)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("default", UserWarning)
            warnings.showwarning = lambda message, *_: print(
                f"note: {message}", file=sys.stderr
            )
            return COMMANDS[args.command](args)
    except BinConformalError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
