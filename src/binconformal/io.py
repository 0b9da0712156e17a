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
from itertools import compress
from operator import itemgetter, ne

import numpy as np

from .conformal import require_finite
from .errors import DataError
from .intervals import IntervalBatch

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


def _read_table(path, columns):
    """(column index by name, data records) of a CSV file.

    Blank lines and lines whose first field starts with '#' are skipped;
    the first remaining record is the header. A name that appears twice
    indexes its last occurrence. Every record must have a field for each
    of ``columns``. Bytes that are not UTF-8, or a field past the csv
    module's size limit, raise DataError.
    """
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            records = [r for r in csv.reader(fh) if r and r[0][:1] != "#"]
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"{path}: not a readable UTF-8 CSV file: {exc}") from None
    if not records:
        raise DataError(f"{path}: empty file, expected header {list(columns)}")
    header = [h.strip() for h in records[0]]
    missing = [c for c in columns if c not in header]
    if missing:
        raise DataError(
            f"{path}: missing required columns {missing}; found {header}"
        )
    index = {name: i for i, name in enumerate(header)}
    body = records[1:]
    width = 1 + max(index[c] for c in columns)
    if body and min(map(len, body)) < width:
        number, record = next(
            (n, r) for n, r in enumerate(body, 1) if len(r) < width
        )
        name = next(c for c in columns if index[c] >= len(record))
        raise DataError(
            f"{path}: record {number} has {len(record)} fields, "
            f"no value for column {name!r}"
        )
    return index, body


def _column(index, records, name) -> list:
    return list(map(itemgetter(index[name]), records))


def _parse_column(tokens, context) -> np.ndarray:
    """Number tokens as a float array; a bad token raises the
    :func:`parse_real` error for the first one."""
    try:
        return np.fromiter(map(float, tokens), float, len(tokens))
    except ValueError:
        for token in tokens:
            parse_real(token, context)
        raise


def _first_repeat(ids):
    """The first id equal to an earlier one, or None."""
    if len(set(ids)) == len(ids):
        return None
    seen = set()
    for rid in ids:
        if rid in seen:
            return rid
        seen.add(rid)


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
    index, records = _read_table(path, CALIBRATION_HEADER)
    if not records:
        raise DataError(f"{path}: no calibration records")
    ids = _column(index, records, "row_id")
    y_true = _parse_column(_column(index, records, "y_true"), "y_true")
    y_pred = _parse_column(_column(index, records, "y_pred"), "y_pred")
    return ids, y_true, y_pred


def _unique_ids(path, index, records):
    ids = _column(index, records, "row_id")
    rid = _first_repeat(ids)
    if rid is not None:
        raise DataError(f"{path}: duplicate row_id {rid!r}")
    return ids


def read_test_csv(path):
    """(row_ids, y_pred) from a test file; row ids are unique. Other
    columns, such as ``y_true``, are not read."""
    index, records = _read_table(path, TEST_HEADER)
    if not records:
        raise DataError(f"{path}: no test records")
    ids = _unique_ids(path, index, records)
    return ids, _parse_column(_column(index, records, "y_pred"), "y_pred")


def read_truth_csv(path):
    """(row_ids, y_true) from a file carrying row_id and y_true columns;
    row ids are unique and every y_true is finite."""
    index, records = _read_table(path, TRUTH_HEADER)
    if not records:
        raise DataError(f"{path}: no truth records")
    ids = _unique_ids(path, index, records)
    y_true = require_finite(
        _parse_column(_column(index, records, "y_true"), "y_true"),
        f"{path}: y_true",
    )
    return ids, y_true


def write_intervals_csv(
    path, row_ids, interval_sets: IntervalBatch, flags=None, config=None
):
    """One line per segment; ``interval_sets`` holds one row per row id."""
    row_ids = list(row_ids)
    if len(row_ids) != len(interval_sets):
        raise DataError(
            f"{len(row_ids)} row ids for {len(interval_sets)} interval sets"
        )
    if flags is None:
        flag_text = [""] * len(row_ids)
    else:
        flag_text = [";".join(f) for f in flags]
    used = ~np.isnan(interval_sets.lower)
    row_of = np.nonzero(used)[0].tolist()
    rows = zip(
        [row_ids[i] for i in row_of],
        (np.cumsum(used, axis=1) - 1)[used].tolist(),
        map(repr, interval_sets.lower[used].tolist()),
        map(repr, interval_sets.upper[used].tolist()),
        [flag_text[i] for i in row_of],
    )
    _write_rows(path, INTERVAL_HEADER, rows, config)


def read_interval_batch(path):
    """(ordered row_ids, IntervalBatch, flags tuple per row) from an
    interval file.

    A row id's segment lines must be consecutive, and each segment must
    have non-NaN endpoints with lower <= upper. A row's segments are sorted
    and merged as :class:`IntervalSet` does; its flags are those of its
    first line.
    """
    index, records = _read_table(path, INTERVAL_HEADER)
    if not records:
        raise DataError(f"{path}: no interval records")
    line_ids = _column(index, records, "row_id")
    n = len(line_ids)
    # a row's first line is where the row id changes
    heads = [0, *compress(range(1, n), map(ne, line_ids[1:], line_ids))]
    row_ids = [line_ids[h] for h in heads]
    rid = _first_repeat(row_ids)
    if rid is not None:
        raise DataError(
            f"{path}: segments of row_id {rid!r} are not on consecutive lines"
        )
    lower = _parse_column(_column(index, records, "lower"), "lower")
    upper = _parse_column(_column(index, records, "upper"), "upper")
    invalid = ~(lower <= upper)
    if invalid.any():
        i = int(invalid.argmax())
        raise DataError(
            f"{path}: row_id {line_ids[i]!r} has an invalid segment "
            f"[{lower[i].item()!r}, {upper[i].item()!r}]: endpoints must be "
            f"numbers with lower <= upper"
        )
    starts = np.array(heads)
    row = np.repeat(np.arange(len(heads)), np.diff(starts, append=n))
    # rows stay in file order; within a row, IntervalSet's (lower, upper) order
    order = np.lexsort((upper, lower, row))
    slot = np.arange(n) - starts[row]
    shape = (len(heads), int(slot.max()) + 1)
    lo, hi = np.full(shape, np.nan), np.full(shape, np.nan)
    lo[row, slot] = lower[order]
    hi[row, slot] = upper[order]
    text = [records[h][index["flags"]] for h in heads]
    parsed = {t: tuple(f for f in t.split(";") if f) for t in set(text)}
    return row_ids, IntervalBatch.from_slots(lo, hi), [parsed[t] for t in text]


def read_intervals_csv(path):
    """(ordered row_ids, {row_id: IntervalSet}, {row_id: flags tuple}):
    :func:`read_interval_batch` keyed by row id."""
    row_ids, batch, flags = read_interval_batch(path)
    return row_ids, dict(zip(row_ids, batch)), dict(zip(row_ids, flags))


def write_report_csv(path, report):
    """Serialize a CoverageReport (one row per method x group) under its
    config."""
    rows = [
        (
            method, group, s.n, s.coverage, s.coverage_se,
            s.mean_width, s.inf_width_count, s.discontiguity_rate,
        )
        for method in report.methods for group in report.groups
        if (s := report.stats.get((method, group))) is not None
    ]
    write_report_rows_csv(path, rows, report.config)


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


def write_widths_csv(
    path, row_ids, y_true, interval_sets: IntervalBatch, config=None
):
    """Per-row width, segment count and coverage of ``interval_sets``,
    one row per row id."""
    y = np.asarray(y_true, dtype=float).ravel()
    rows = zip(
        row_ids,
        map(repr, y.tolist()),
        map(repr, interval_sets.total_width().tolist()),
        interval_sets.n_segments.tolist(),
        interval_sets.contains(y).astype(int).tolist(),
    )
    _write_rows(path, WIDTH_HEADER, rows, config)
