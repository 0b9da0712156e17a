"""CSV schemas: datasets, calibration/test pairs, intervals, and reports.

Formats are fixed for bit-exact round trips: UTF-8, '.' decimal separator,
full round-trip float precision via ``repr``, +infinity as the literal
token ``inf``. Interval files are long-format (one row per segment) so
discontiguous sets are represented losslessly. Writers may embed the
resolved run configuration as a leading ``# config:`` comment line;
readers skip comment lines.
"""

import csv
import json

import numpy as np

from .conformal import require_finite
from .errors import DataError
from .intervals import IntervalSet, PredictionInterval, as_batch

DATASET_HEADER = ("row_id", "x1", "x2", "y", "split")
CALIBRATION_HEADER = ("row_id", "y_true", "y_pred")
TEST_HEADER = ("row_id", "y_pred")
TRUTH_HEADER = ("row_id", "y_true")
INTERVAL_HEADER = ("row_id", "segment_index", "lower", "upper", "flags")
REPORT_HEADER = (
    "method", "group", "n", "coverage", "coverage_se",
    "mean_width", "inf_width_count", "discontiguity_rate",
)
WIDTH_HEADER = ("row_id", "y_true", "total_width", "n_segments", "covered")


def format_real(x: float) -> str:
    return repr(float(x))


def parse_real(token: str, context: str = "value") -> float:
    try:
        return float(token)
    except ValueError:
        raise DataError(f"cannot parse {context} {token!r} as a number") from None


def _config_comment(config: dict | None) -> list:
    if config is None:
        return []
    return ["# config: " + json.dumps(config, sort_keys=True)]


def _write_rows(path, header, rows, config=None):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for line in _config_comment(config):
            fh.write(line + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _read_rows(path, expected_header, optional=()):
    """Rows as dicts keyed by header; enforces the mandatory columns."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = None
        rows = []
        for record in reader:
            if not record or record[0].startswith("#"):
                continue
            if header is None:
                header = [h.strip() for h in record]
                missing = [c for c in expected_header if c not in header]
                if missing:
                    raise DataError(
                        f"{path}: missing required columns {missing}; "
                        f"found {header}"
                    )
                continue
            rows.append(dict(zip(header, record)))
    if header is None:
        raise DataError(f"{path}: empty file, expected header {list(expected_header)}")
    return rows


def write_dataset_csv(path, dataset, config=None):
    rows = []
    split = dataset.split
    for i in range(len(dataset)):
        rows.append((
            i,
            format_real(dataset.features[i, 0]),
            format_real(dataset.features[i, 1]),
            format_real(dataset.y[i]),
            split[i] if split is not None else "",
        ))
    _write_rows(path, DATASET_HEADER, rows, config)


def read_calibration_csv(path):
    """(row_ids, y_true, y_pred) from a calibration file."""
    rows = _read_rows(path, CALIBRATION_HEADER)
    if not rows:
        raise DataError(f"{path}: no calibration records")
    ids = [r["row_id"] for r in rows]
    y_true = [parse_real(r["y_true"], "y_true") for r in rows]
    y_pred = [parse_real(r["y_pred"], "y_pred") for r in rows]
    return ids, y_true, y_pred


def _unique_ids(path, rows):
    ids = [r["row_id"] for r in rows]
    seen = set()
    for rid in ids:
        if rid in seen:
            raise DataError(f"{path}: duplicate row_id {rid!r}")
        seen.add(rid)
    return ids


def read_test_csv(path):
    """(row_ids, y_pred, y_true_or_None) from a test file; row ids are unique."""
    rows = _read_rows(path, TEST_HEADER)
    if not rows:
        raise DataError(f"{path}: no test records")
    ids = _unique_ids(path, rows)
    y_pred = [parse_real(r["y_pred"], "y_pred") for r in rows]
    has_truth = all("y_true" in r and r["y_true"] != "" for r in rows)
    y_true = [parse_real(r["y_true"], "y_true") for r in rows] if has_truth else None
    return ids, y_pred, y_true


def read_truth_csv(path):
    """(row_ids, y_true) from a file carrying row_id and y_true columns;
    row ids are unique and every y_true is finite."""
    rows = _read_rows(path, TRUTH_HEADER)
    if not rows:
        raise DataError(f"{path}: no truth records")
    ids = _unique_ids(path, rows)
    y_true = require_finite(
        [parse_real(r["y_true"], "y_true") for r in rows], f"{path}: y_true"
    )
    return ids, y_true


def write_intervals_csv(path, row_ids, interval_sets, flags=None, config=None):
    """One line per segment; ``interval_sets`` is an IntervalBatch or a
    sequence of IntervalSets, one per row id."""
    batch = as_batch(interval_sets)
    row_ids = list(row_ids)
    if len(row_ids) != len(batch):
        raise DataError(
            f"{len(row_ids)} row ids for {len(batch)} interval sets"
        )
    if flags is None:
        flag_text = [""] * len(row_ids)
    else:
        flag_text = [";".join(f) for f in flags]
    used = ~np.isnan(batch.lower)
    row_of = np.nonzero(used)[0].tolist()
    rows = zip(
        [row_ids[i] for i in row_of],
        (np.cumsum(used, axis=1) - 1)[used].tolist(),
        map(repr, batch.lower[used].tolist()),
        map(repr, batch.upper[used].tolist()),
        [flag_text[i] for i in row_of],
    )
    _write_rows(path, INTERVAL_HEADER, rows, config)


def read_intervals_csv(path):
    """(ordered row_ids, {row_id: IntervalSet}, {row_id: flags tuple}).

    A row id's segment lines must be consecutive, and each segment must
    have non-NaN endpoints with lower <= upper.
    """
    rows = _read_rows(path, INTERVAL_HEADER)
    if not rows:
        raise DataError(f"{path}: no interval records")
    order = []
    segments: dict = {}
    flags: dict = {}
    previous = None
    for r in rows:
        rid = r["row_id"]
        if rid != previous:
            if rid in segments:
                raise DataError(
                    f"{path}: segments of row_id {rid!r} are not on consecutive lines"
                )
            order.append(rid)
            segments[rid] = []
            flags[rid] = tuple(t for t in r["flags"].split(";") if t)
            previous = rid
        lower = parse_real(r["lower"], "lower")
        upper = parse_real(r["upper"], "upper")
        if not lower <= upper:
            raise DataError(
                f"{path}: row_id {rid!r} has an invalid segment "
                f"[{lower!r}, {upper!r}]: endpoints must be numbers with "
                f"lower <= upper"
            )
        segments[rid].append(PredictionInterval(lower, upper))
    sets = {rid: IntervalSet(tuple(segs)) for rid, segs in segments.items()}
    return order, sets, flags


def write_report_csv(path, report, config=None):
    """Serialize a CoverageReport (one row per method x group)."""
    rows = [
        (
            method, group, s.n, s.coverage, s.coverage_se,
            s.mean_width, s.inf_width_count, s.discontiguity_rate,
        )
        for method in report.methods for group in report.groups
        if (s := report.stats.get((method, group))) is not None
    ]
    write_report_rows_csv(path, rows, config or report.config)


def write_report_rows_csv(path, rows, config=None):
    """Serialize pre-built report rows, each a tuple in
    :data:`REPORT_HEADER` order."""
    formatted = [
        (
            method, group, n,
            format_real(cov), format_real(cov_se),
            format_real(width), inf_count, format_real(disc),
        )
        for method, group, n, cov, cov_se, width, inf_count, disc in rows
    ]
    _write_rows(path, REPORT_HEADER, formatted, config)


def write_widths_csv(path, row_ids, y_true, interval_sets, config=None):
    """Per-row width, segment count and coverage; ``interval_sets`` as in
    :func:`write_intervals_csv`."""
    batch = as_batch(interval_sets)
    y = np.asarray(y_true, dtype=float).ravel()
    rows = zip(
        row_ids,
        map(repr, y.tolist()),
        map(repr, batch.total_width().tolist()),
        batch.n_segments.tolist(),
        batch.contains(y).astype(int).tolist(),
    )
    _write_rows(path, WIDTH_HEADER, rows, config)
