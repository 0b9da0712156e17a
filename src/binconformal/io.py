"""CSV schemas: datasets, calibration/test pairs, intervals, and reports.

Formats are fixed for bit-exact round trips: UTF-8, '.' decimal separator,
full round-trip float precision via ``repr``, +infinity as the literal
token ``inf``. Interval files are long-format (one row per segment) so
discontiguous sets are represented losslessly. Writers may embed the
resolved run configuration as a leading ``# config:`` comment line.
Comment lines (a first field starting with '#') and blank lines may come
before the header; after it, blank lines are skipped and a record whose
first field starts with '#' is a data error.

Readers parse whole chunks of lines into columns (:func:`_read_columns`)
and writers format whole blocks of lines (:func:`_write_lines`); no list
is built per record on either path unless a chunk needs ``csv.reader``.
"""

import csv
import json
import re
from array import array
from io import StringIO
from itertools import chain, compress, islice
from operator import ne

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

_CHUNK_CHARS = 1 << 17   # characters read per chunk, then up to the line end
_CSV_RECORDS = 1 << 12   # records per chunk once csv.reader has taken over
_WRITE_LINES = 1 << 12   # lines formatted per write
# every byte but the ones that decide how csv.reader splits a line (and '#')
_NOT_MARKS = bytes(sorted(set(range(256)) - set(b',\n"\r\0#')))
_NEEDS_QUOTES = re.compile('[,"\n\r]')


def format_real(x: float) -> str:
    return repr(float(x))


def parse_real(token: str, context: str = "value") -> float:
    try:
        return float(token)
    except ValueError:
        raise DataError(f"cannot parse {context} {token!r} as a number") from None


def _field(value) -> str:
    """``str(value)`` as one CSV field: quoted, with its quotes doubled,
    when it holds a comma, a quote or a line break. These are the csv
    module writer's bytes with a ``\\n`` line terminator, except that it
    leaves a ``\\r`` bare, which no reader then reads back."""
    text = str(value)
    if _NEEDS_QUOTES.search(text) is None:
        return text
    return '"' + text.replace('"', '""') + '"'


def _fields(values) -> list:
    """:func:`_field` of each value, with one search for the common case
    that none needs quotes."""
    texts = list(map(str, values))
    if _NEEDS_QUOTES.search("".join(texts)) is None:
        return texts
    return list(map(_field, texts))


def _write_lines(path, header, blocks, config=None):
    """Write the config comment, the header and then each block of
    formatted lines with one join and one write."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if config is not None:
            fh.write(f"# config: {json.dumps(config, sort_keys=True)}\n")
        fh.write(",".join(header) + "\n")
        for lines in blocks:
            fh.write("".join(lines))


def _records(lines):
    """csv.reader's records of ``lines``, blank lines dropped."""
    return filter(None, csv.reader(lines))


def _read_columns(path, columns):
    """Yield, for each chunk of data records of a CSV file, one list of
    field strings per name in ``columns``.

    The first record that is not blank and whose first field does not
    start with '#' is the header. A name that appears twice indexes its
    last occurrence. After the header, blank lines are skipped, a record
    whose first field starts with '#' raises DataError, and every record
    must have a field for each of ``columns``. Bytes that are not UTF-8,
    or a field past the csv module's size limit, raise DataError.

    csv.reader's records are the contract. A chunk of whole lines with no
    quote, carriage return, NUL or '#', no blank line and exactly one
    comma per header name but the last on every line splits into the same
    fields on commas and newlines, so it is split once and each column
    taken as a strided slice. From the first other chunk on, the rest of
    the file goes through csv.reader.
    """
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            header = next((r for r in _records(fh) if r[0][:1] != "#"), None)
            if header is None:
                raise DataError(
                    f"{path}: empty file, expected header {list(columns)}"
                )
            header = [h.strip() for h in header]
            missing = [c for c in columns if c not in header]
            if missing:
                raise DataError(
                    f"{path}: missing required columns {missing}; found {header}"
                )
            index = {name: i for i, name in enumerate(header)}
            wanted = {c: index[c] for c in columns}
            k = len(header)
            line_marks = b"," * (k - 1) + b"\n"
            limit = csv.field_size_limit()
            # a line inside one read is at most ``size`` <= limit long, so
            # only the line that readline() completes can hold a longer field
            size = min(_CHUNK_CHARS, limit)
            number = 0  # data records so far
            while head := fh.read(size):
                rest = "" if head[-1] == "\n" else fh.readline()
                text = head + rest
                marks = text.encode().translate(None, _NOT_MARKS)
                if text[-1] != "\n":  # the last line of a file with no end of line
                    marks += b"\n"
                n = len(marks) // k
                if (len(head) - head.rfind("\n") - 1 + len(rest) > limit
                        or marks != line_marks * n):
                    lines = chain(StringIO(text, newline=""), fh)
                    yield from _csv_chunks(path, _records(lines), wanted, number)
                    return
                tokens = text.replace("\n", ",").split(",")
                if text[-1] == "\n":
                    tokens.pop()
                number += n
                yield [tokens[j::k] for j in wanted.values()]
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"{path}: not a readable UTF-8 CSV file: {exc}") from None


def _csv_chunks(path, records, wanted, number):
    """:func:`_read_columns`' chunks of csv.reader ``records``, the first
    one data record ``number + 1``."""
    width = 1 + max(wanted.values())
    while chunk := list(islice(records, _CSV_RECORDS)):
        for number, record in enumerate(chunk, number + 1):
            if record[0][:1] == "#":
                raise DataError(
                    f"{path}: record {number} starts with '#'; comment lines "
                    f"may only come before the header"
                )
            if len(record) < width:
                name = next(c for c, j in wanted.items() if j >= len(record))
                raise DataError(
                    f"{path}: record {number} has {len(record)} fields, "
                    f"no value for column {name!r}"
                )
        yield [[record[j] for record in chunk] for j in wanted.values()]


def _parse_column(tokens, context) -> np.ndarray:
    """Number tokens as a float array; a bad token raises the
    :func:`parse_real` error for the first one."""
    try:
        return np.fromiter(map(float, tokens), float, len(tokens))
    except ValueError:
        for token in tokens:
            parse_real(token, context)
        raise


def _read_numbers(path, header, what):
    """(row ids, one float array per column of ``header`` after row_id)."""
    ids, numbers = [], [array("d") for _ in header[1:]]
    for chunk_ids, *columns in _read_columns(path, header):
        ids += chunk_ids
        for values, tokens, name in zip(numbers, columns, header[1:]):
            values.frombytes(_parse_column(tokens, name).tobytes())
    if not ids:
        raise DataError(f"{path}: no {what} records")
    return ids, *map(np.frombuffer, numbers)


def _first_repeat(ids):
    """The first id equal to an earlier one, or None."""
    if len(set(ids)) == len(ids):
        return None
    seen = set()
    for rid in ids:
        if rid in seen:
            return rid
        seen.add(rid)


def _unique(path, ids):
    rid = _first_repeat(ids)
    if rid is not None:
        raise DataError(f"{path}: duplicate row_id {rid!r}")
    return ids


def write_dataset_csv(path, dataset, config=None):
    x = np.asarray(dataset.features, dtype=float)
    y = np.asarray(dataset.y, dtype=float)
    split = dataset.split

    def blocks():
        for i in range(0, len(y), _WRITE_LINES):
            j = min(i + _WRITE_LINES, len(y))
            labels = [""] * (j - i) if split is None else _fields(split[i:j].tolist())
            yield [
                f"{row},{x1!r},{x2!r},{value!r},{label}\n"
                for row, x1, x2, value, label in zip(
                    range(i, j), x[i:j, 0].tolist(), x[i:j, 1].tolist(),
                    y[i:j].tolist(), labels,
                )
            ]

    _write_lines(path, DATASET_HEADER, blocks(), config)


def read_calibration_csv(path):
    """(row_ids, y_true, y_pred) from a calibration file."""
    return _read_numbers(path, CALIBRATION_HEADER, "calibration")


def read_test_csv(path):
    """(row_ids, y_pred) from a test file; row ids are unique. Other
    columns, such as ``y_true``, are not read."""
    ids, y_pred = _read_numbers(path, TEST_HEADER, "test")
    return _unique(path, ids), y_pred


def read_truth_csv(path):
    """(row_ids, y_true) from a file carrying row_id and y_true columns;
    row ids are unique and every y_true is finite."""
    ids, y_true = _read_numbers(path, TRUTH_HEADER, "truth")
    return _unique(path, ids), require_finite(y_true, f"{path}: y_true")


def write_intervals_csv(
    path, row_ids, interval_sets: IntervalBatch, flags=None, config=None
):
    """One line per segment; ``interval_sets`` holds one row per id of the
    sequence ``row_ids``, and ``flags``, if given, one tuple per row;
    DataError, before the file is created, if either count differs. A
    row id that starts with '#' raises DataError too, since a reader takes
    its line for a misplaced comment."""
    if len(row_ids) != len(interval_sets):
        raise DataError(
            f"{len(row_ids)} row ids for {len(interval_sets)} interval sets"
        )
    if flags is not None and len(flags) != len(row_ids):
        raise DataError(f"{len(flags)} flag tuples for {len(row_ids)} row ids")
    comment = next((rid for rid in map(str, row_ids) if rid[:1] == "#"), None)
    if comment is not None:
        raise DataError(f"row_id {comment!r} starts with '#', which marks a comment")
    lower, upper = interval_sets.lower, interval_sets.upper
    step = max(1, _WRITE_LINES // max(1, lower.shape[1]))

    def blocks():
        for i in range(0, len(row_ids), step):
            lo, hi = lower[i:i + step], upper[i:i + step]
            used = ~np.isnan(lo)
            row = np.nonzero(used)[0].tolist()
            ids = _fields(row_ids[i:i + step])
            marks = (
                [""] * len(ids) if flags is None
                else _fields(map(";".join, flags[i:i + step]))
            )
            yield [
                f"{ids[r]},{index},{a!r},{b!r},{marks[r]}\n"
                for r, index, a, b in zip(
                    row, (np.cumsum(used, axis=1) - 1)[used].tolist(),
                    lo[used].tolist(), hi[used].tolist(),
                )
            ]

    _write_lines(path, INTERVAL_HEADER, blocks(), config)


def read_interval_batch(path):
    """(ordered row_ids, IntervalBatch, flags tuple per row) from an
    interval file.

    A row id's segment lines must be consecutive, and each segment must
    have non-NaN endpoints with lower <= upper, and be no point at +inf or
    -inf. A row's segments are sorted and merged as :class:`IntervalSet`
    does; its flags are those of its first line.
    """
    row_ids, flags, starts, lower, upper = _interval_lines(path)
    return row_ids, _line_batch(starts, lower, upper), flags


def _line_batch(starts, lower, upper) -> IntervalBatch:
    """The batch whose row r holds the segments of lines ``starts[r]`` up
    to ``starts[r + 1]``, sorted and merged as :class:`IntervalSet` does."""
    n = len(lower)
    counts = np.diff(starts, append=n)
    # each line starts after the previous one of its row ends: already a batch
    apart = lower[1:] > upper[:-1]
    apart[starts[1:] - 1] = True
    merge = not apart.all()
    if merge:
        # a stable sort keeps rows in file order and ties as IntervalSet does
        order = np.lexsort((upper, lower, np.repeat(np.arange(len(starts)), counts)))
        lower, upper = lower[order], upper[order]
    width = int(counts.max())
    # line i of row r goes to flat slot r * width + i - starts[r]: a step of
    # 1 along a row and of width - counts[r - 1] + 1 onto row r's first line
    slot = np.ones(n, np.intp)
    slot[0] = 0
    slot[starts[1:]] = width - counts[:-1] + 1
    np.cumsum(slot, out=slot)
    lo, hi = np.full((len(starts), width), np.nan), np.full((len(starts), width), np.nan)
    np.put(lo, slot, lower)
    np.put(hi, slot, upper)
    return IntervalBatch.from_slots(lo, hi) if merge else IntervalBatch(lo, hi)


def _interval_lines(path):
    """(row ids, flags tuple per row, first line of each row, lower and
    upper per line) of an interval file. Of the row_id and flags columns
    only each row's first line is kept, and each distinct flags text is
    parsed once."""
    row_ids, row_flags, starts, lower, upper = [], [], [], array("d"), array("d")
    parsed = {}
    n, last = 0, None
    for ids, _, lower_text, upper_text, flags in _read_columns(path, INTERVAL_HEADER):
        lo = _parse_column(lower_text, "lower")
        hi = _parse_column(upper_text, "upper")
        invalid = ~(lo <= hi) | (lo == np.inf) | (hi == -np.inf)
        if invalid.any():
            i = int(invalid.argmax())
            raise DataError(
                f"{path}: row_id {ids[i]!r} has an invalid segment "
                f"[{lo[i].item()!r}, {hi[i].item()!r}]: endpoints must be "
                f"numbers with lower <= upper, not a point at infinity"
            )
        # a row's first line is where the row id changes, across chunks too
        heads = np.fromiter(
            compress(range(len(ids)), map(ne, ids, chain((last,), ids))), np.intp
        )
        first = heads.tolist()
        row_ids += map(ids.__getitem__, first)
        texts = list(map(flags.__getitem__, first))
        for text in set(texts) - parsed.keys():
            parsed[text] = tuple(f for f in text.split(";") if f)
        row_flags += map(parsed.__getitem__, texts)
        starts.append(heads + n)
        lower.frombytes(lo.tobytes())
        upper.frombytes(hi.tobytes())
        n += len(ids)
        last = ids[-1]
    if not n:
        raise DataError(f"{path}: no interval records")
    rid = _first_repeat(row_ids)
    if rid is not None:
        raise DataError(
            f"{path}: segments of row_id {rid!r} are not on consecutive lines"
        )
    return (
        row_ids, row_flags, np.concatenate(starts),
        np.frombuffer(lower), np.frombuffer(upper),
    )


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
    lines = [
        f"{_field(method)},{_field(group)},{n},{format_real(cov)},"
        f"{format_real(cov_se)},{format_real(width)},{inf_count},"
        f"{format_real(disc)}\n"
        for method, group, n, cov, cov_se, width, inf_count, disc in rows
    ]
    _write_lines(path, REPORT_HEADER, [lines], config)


def write_widths_csv(
    path, row_ids, y_true, interval_sets: IntervalBatch, config=None
):
    """Per-row width, segment count and coverage of ``interval_sets``,
    one row per id of the sequence ``row_ids``; DataError, before the file
    is created, unless ``y_true`` and ``interval_sets`` have one row per id."""
    y = np.asarray(y_true, dtype=float).ravel()
    if not len(row_ids) == y.size == len(interval_sets):
        raise DataError(
            f"{len(row_ids)} row ids, {y.size} outcomes and "
            f"{len(interval_sets)} interval sets"
        )
    width = interval_sets.total_width()
    n_segments = interval_sets.n_segments
    covered = interval_sets.contains(y).astype(int)

    def blocks():
        for i in range(0, len(row_ids), _WRITE_LINES):
            j = i + _WRITE_LINES
            yield [
                f"{rid},{value!r},{total!r},{count},{hit}\n"
                for rid, value, total, count, hit in zip(
                    _fields(row_ids[i:j]), y[i:j].tolist(), width[i:j].tolist(),
                    n_segments[i:j].tolist(), covered[i:j].tolist(),
                )
            ]

    _write_lines(path, WIDTH_HEADER, blocks(), config)
