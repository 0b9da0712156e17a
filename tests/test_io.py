"""The chunked CSV readers and the join writers against csv.reader and
csv.writer.

The reader oracle below is the former reader: ``csv.reader`` over the
file, one dict per CSV line, one ``PredictionInterval`` per segment and
one merged ``IntervalSet`` per row, converted to a batch with
``IntervalBatch.from_sets``. The chunked reader must give the same used
slots, byte for byte (so the sign of zero too), the same row order and
flags, and, for a file with a single defect, the same ``DataError``
message, at every chunk size. The writers must give ``csv.writer``'s bytes
for every field without a carriage return.
"""

import csv
import io as text_io
import json
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from binconformal import io
from binconformal.conformal import require_finite
from binconformal.errors import DataError
from binconformal.intervals import IntervalBatch, IntervalSet, PredictionInterval
from binconformal.simulation import Dataset

INF = math.inf


# -- the per-line oracle -----------------------------------------------------

def oracle_read_rows(path, expected_header):
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            return oracle_records(path, csv.reader(fh), expected_header)
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"{path}: not a readable UTF-8 CSV file: {exc}") from None


def oracle_records(path, reader, expected_header):
    """One dict per data record; comment lines only before the header."""
    header = None
    rows = []
    for record in reader:
        if not record:
            continue
        if header is None:
            if record[0].startswith("#"):
                continue
            header = [h.strip() for h in record]
            missing = [c for c in expected_header if c not in header]
            if missing:
                raise DataError(
                    f"{path}: missing required columns {missing}; "
                    f"found {header}"
                )
            index = {name: i for i, name in enumerate(header)}
            continue
        number = len(rows) + 1
        if record[0].startswith("#"):
            raise DataError(
                f"{path}: record {number} starts with '#'; comment lines "
                f"may only come before the header"
            )
        short = [c for c in expected_header if index[c] >= len(record)]
        if short:
            raise DataError(
                f"{path}: record {number} has {len(record)} fields, "
                f"no value for column {short[0]!r}"
            )
        rows.append(dict(zip(header, record)))
    if header is None:
        raise DataError(f"{path}: empty file, expected header {list(expected_header)}")
    return rows


def oracle_unique_ids(path, rows):
    seen = set()
    for rid in (r["row_id"] for r in rows):
        if rid in seen:
            raise DataError(f"{path}: duplicate row_id {rid!r}")
        seen.add(rid)


def oracle_read_calibration_csv(path):
    rows = oracle_read_rows(path, io.CALIBRATION_HEADER)
    if not rows:
        raise DataError(f"{path}: no calibration records")
    y_true = [io.parse_real(r["y_true"], "y_true") for r in rows]
    y_pred = [io.parse_real(r["y_pred"], "y_pred") for r in rows]
    return [r["row_id"] for r in rows], y_true, y_pred


def oracle_read_test_csv(path):
    rows = oracle_read_rows(path, io.TEST_HEADER)
    if not rows:
        raise DataError(f"{path}: no test records")
    oracle_unique_ids(path, rows)
    return [r["row_id"] for r in rows], [io.parse_real(r["y_pred"], "y_pred") for r in rows]


def oracle_read_truth_csv(path):
    rows = oracle_read_rows(path, io.TRUTH_HEADER)
    if not rows:
        raise DataError(f"{path}: no truth records")
    oracle_unique_ids(path, rows)
    y_true = require_finite(
        [io.parse_real(r["y_true"], "y_true") for r in rows], f"{path}: y_true"
    )
    return [r["row_id"] for r in rows], y_true


def oracle_read_intervals_csv(path):
    rows = oracle_read_rows(path, io.INTERVAL_HEADER)
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
        lower = io.parse_real(r["lower"], "lower")
        upper = io.parse_real(r["upper"], "upper")
        if not lower <= upper or lower == INF or upper == -INF:
            raise DataError(
                f"{path}: row_id {rid!r} has an invalid segment "
                f"[{lower!r}, {upper!r}]: endpoints must be numbers with "
                f"lower <= upper, not a point at infinity"
            )
        segments[rid].append(PredictionInterval(lower, upper))
    sets = {rid: IntervalSet(tuple(segs)) for rid, segs in segments.items()}
    return order, sets, flags


# -- generated interval files --------------------------------------------------

ENDPOINTS = st.one_of(
    st.sampled_from([-INF, -1.0, -0.0, 0.0, 0.5, 1.0, 2.0, 3.0, INF]),
    st.floats(allow_nan=False),
)
SEGMENTS = st.lists(
    st.tuples(ENDPOINTS, ENDPOINTS).map(lambda p: (p, p[::-1])[p[0] > p[1]]),
    min_size=1, max_size=5,
)
# plain ids keep whole chunks on the split path; the others send the rest
# of the file through csv.reader (a quote, a NUL, a line break in a quoted
# field, a '#' after the first character)
ROW_IDS = st.one_of(
    st.text(alphabet="ab1;é", max_size=4),
    st.text(alphabet='ab1,"\' #;\0\né', max_size=6),
).filter(lambda s: not s.startswith("#"))
FLAGS = st.lists(st.sampled_from(["clamped", "unbounded", "crossed"]), max_size=2)
CHUNK_CHARS = [1, 2, 3, 16, 64, io._CHUNK_CHARS]
CSV_RECORDS = [1, 2, 3, io._CSV_RECORDS]


@st.composite
def interval_files(draw):
    """(header order, lines, line terminator, whether the last line ends)
    of a valid interval file: each line is a dict of column text, with
    ``extra`` fields after the header's, or a str written as it is
    (comments, blank lines)."""
    ids = draw(st.lists(ROW_IDS, min_size=1, max_size=8, unique=True))
    header = draw(st.permutations(io.INTERVAL_HEADER))
    lines = []
    if draw(st.booleans()):
        lines += ['# config: {"command": "intervals", "a": [1, 2]}', ""]
    for rid in ids:
        for j, (lo, hi) in enumerate(draw(SEGMENTS)):
            lines.append({
                "row_id": rid, "segment_index": str(j),
                "lower": repr(lo), "upper": repr(hi),
                "flags": ";".join(draw(FLAGS)),
                "extra": ["x"] * draw(st.sampled_from([0] * 6 + [1, 2])),
            })
            if draw(st.sampled_from([False] * 5 + [True])):
                lines.append("")
    terminator = draw(st.sampled_from(["\n", "\n", "\r\n"]))
    return header, lines, terminator, draw(st.booleans())


def write_file(path, header, lines, terminator="\n", ends=True):
    """Comment lines first, then the header, then records and fillers."""
    out = text_io.StringIO()
    writer = csv.writer(out, lineterminator=terminator)
    head = 0
    while head < len(lines) and isinstance(lines[head], str):
        out.write(lines[head] + terminator)
        head += 1
    writer.writerow(header)
    for line in lines[head:]:
        if isinstance(line, str):
            out.write(line + terminator)
        else:
            writer.writerow([line[c] for c in header] + line.get("extra", []))
    text = out.getvalue()
    path.write_bytes((text if ends else text[:-len(terminator)]).encode("utf-8"))


def outcome(read, path):
    """What ``read`` returns, or the message of the DataError it raises."""
    try:
        return read(path)
    except DataError as exc:
        return f"DataError: {exc}"


def assert_same_used_slots(got: IntervalBatch, want: IntervalBatch):
    assert len(got) == len(want)
    for i in range(len(want)):
        used = ~np.isnan(got.lower[i])
        want_used = ~np.isnan(want.lower[i])
        assert got.lower[i][used].tobytes() == want.lower[i][want_used].tobytes()
        assert got.upper[i][used].tobytes() == want.upper[i][want_used].tobytes()


class TestReadIntervalBatch:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(interval_files(), st.sampled_from(CHUNK_CHARS), st.sampled_from(CSV_RECORDS))
    def test_matches_per_line_reader(self, tmp_path, monkeypatch, case, chars, records):
        monkeypatch.setattr(io, "_CHUNK_CHARS", chars)
        monkeypatch.setattr(io, "_CSV_RECORDS", records)
        path = tmp_path / "iv.csv"
        write_file(path, *case)
        want = outcome(oracle_read_intervals_csv, path)
        got = outcome(io.read_interval_batch, path)
        if isinstance(want, str):
            assert got == want
            return
        order, sets, flags = want
        row_ids, batch, row_flags = got
        assert row_ids == order
        assert row_flags == [flags[rid] for rid in order]
        assert_same_used_slots(batch, IntervalBatch.from_sets(sets[rid] for rid in order))

    def test_adapter_keys_the_batch_by_row_id(self, tmp_path):
        path = tmp_path / "iv.csv"
        write_file(path, io.INTERVAL_HEADER, [
            {"row_id": "b", "segment_index": "0", "lower": "3.0", "upper": "4.0", "flags": "x"},
            {"row_id": "b", "segment_index": "1", "lower": "0.0", "upper": "3.0", "flags": ""},
            {"row_id": "a", "segment_index": "0", "lower": "-inf", "upper": "inf", "flags": ""},
        ])
        assert io.read_intervals_csv(path) == oracle_read_intervals_csv(path)
        assert io.read_intervals_csv(path)[1]["b"] == IntervalSet((PredictionInterval(0.0, 4.0),))


# -- files with exactly one defect ---------------------------------------------

READERS = {
    "calibration": (io.read_calibration_csv, oracle_read_calibration_csv,
                    io.CALIBRATION_HEADER, [("0", "1.0", "1.5"), ("1", "2.0", "2.5")]),
    "test": (io.read_test_csv, oracle_read_test_csv,
             io.TEST_HEADER, [("0", "1.5"), ("1", "2.5")]),
    "truth": (io.read_truth_csv, oracle_read_truth_csv,
              io.TRUTH_HEADER, [("0", "1.0"), ("1", "2.0")]),
    "intervals": (io.read_interval_batch, oracle_read_intervals_csv,
                  io.INTERVAL_HEADER,
                  [("a", "0", "0.0", "1.0", ""), ("a", "1", "2.0", "3.0", ""),
                   ("b", "0", "0.0", "1.0", "clamped")]),
}


def with_token(name, column, token, line=1):
    def edit(header, records):
        records[line] = tuple(
            token if h == column else v for h, v in zip(header, records[line])
        )
        return header, records
    return pytest.param(name, edit, id=f"{name}-{column}-{token}")


def defect(name, label, edit):
    return pytest.param(name, edit, id=f"{name}-{label}")


def in_record(name, line, edit):
    """A defect in record ``line + 1`` only."""
    def apply(header, records):
        records[line] = edit(records[line])
        return header, records
    return pytest.param(name, apply, id=f"{name}-{edit.__name__}")


def comment_id(record):
    return ("#" + record[0], *record[1:])


def short_record(record):
    return record[:1]


def oversized_id(record):
    return ("1" * 140_000, *record[1:])


DEFECTS = [
    with_token("calibration", "y_true", "1.O"),
    with_token("calibration", "y_pred", "x"),
    with_token("test", "y_pred", ""),
    with_token("truth", "y_true", "1,5"),
    with_token("intervals", "lower", "abc"),
    with_token("intervals", "upper", "1e"),
    with_token("intervals", "lower", "5.0", line=2),
    with_token("intervals", "lower", "nan", line=2),
    with_token("intervals", "upper", "nan"),
    with_token("truth", "y_true", "inf"),
    with_token("test", "row_id", "0"),
    with_token("truth", "row_id", "0"),
    defect("intervals", "row-not-consecutive",
           lambda h, r: (h, r + [("a", "2", "5.0", "6.0", "")])),
    *[defect("intervals", f"point-at-{end}",
             lambda h, r, end=end: (h, r + [("c", "0", end, end, "")]))
      for end in ("inf", "-inf")],
    *[defect(name, "empty-file", lambda h, r: (None, [])) for name in READERS],
    *[defect(name, "header-only", lambda h, r: (h, [])) for name in READERS],
    *[defect(name, "missing-column", lambda h, r: (h[:-1], [v[:-1] for v in r]))
      for name in READERS],
    *[in_record(name, 1, edit) for name in READERS
      for edit in (comment_id, short_record, oversized_id)],
]


def assert_one_defect_gives_the_per_line_message(path, name, edit):
    reader, oracle, header, records = READERS[name]
    header, records = edit(tuple(header), list(records))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if header is not None:
            fh.write("# config: {}\n")
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(records)
    with pytest.raises(DataError) as want:
        oracle(path)
    with pytest.raises(DataError) as got:
        reader(path)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("name, edit", DEFECTS)
def test_one_defect_gives_the_per_line_message(tmp_path, name, edit):
    assert_one_defect_gives_the_per_line_message(tmp_path / f"{name}.csv", name, edit)


@pytest.mark.parametrize("chars", CHUNK_CHARS[:-1])
@pytest.mark.parametrize("name, edit", DEFECTS)
def test_one_defect_message_holds_at_every_chunk_size(tmp_path, monkeypatch,
                                                      name, edit, chars):
    monkeypatch.setattr(io, "_CHUNK_CHARS", chars)
    monkeypatch.setattr(io, "_CSV_RECORDS", 1)
    assert_one_defect_gives_the_per_line_message(tmp_path / f"{name}.csv", name, edit)


@pytest.mark.parametrize("name", READERS)
def test_valid_files_read_as_the_per_line_readers(tmp_path, name):
    reader, oracle, header, records = READERS[name]
    path = tmp_path / f"{name}.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(records)
    got, want = reader(path), oracle(path)
    if name == "intervals":
        order, sets, flags = want
        want = (order, IntervalBatch.from_sets(sets[r] for r in order),
                [flags[r] for r in order])
        assert got[0] == want[0] and got[2] == want[2]
        assert_same_used_slots(got[1], want[1])
        return
    assert got[0] == want[0]
    for g, w in zip(got[1:], want[1:]):
        assert np.asarray(g, dtype=float).tobytes() == np.asarray(w, dtype=float).tobytes()


def test_repeated_column_name_reads_its_last_occurrence(tmp_path):
    path = tmp_path / "truth.csv"
    path.write_text("row_id,y_true,y_true\na,junk,1.5\n")
    assert io.read_truth_csv(path)[1].tolist() == [1.5]
    assert oracle_read_truth_csv(path)[1].tolist() == [1.5]


# -- the join writers against csv.writer ---------------------------------------

# every character csv.writer treats specially with a "\n" terminator, a
# leading '#', non-ASCII text and the empty string
WRITTEN_TEXT = st.text(alphabet='ab1,"\' #;\né', max_size=6)
# the interval writer refuses an id that a reader would take for a comment
WRITTEN_IDS = WRITTEN_TEXT.filter(lambda s: not s.startswith("#"))
WRITE_LINES = [1, 2, 3, io._WRITE_LINES]


def csv_writer_bytes(header, rows, config=None) -> bytes:
    """What the writers wrote through ``csv.writer``."""
    out = text_io.StringIO()
    if config is not None:
        out.write("# config: " + json.dumps(config, sort_keys=True) + "\n")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue().encode("utf-8")


def batch_of(segment_lists) -> IntervalBatch:
    return IntervalBatch.from_sets(
        IntervalSet(tuple(PredictionInterval(lo, hi) for lo, hi in segments))
        for segments in segment_lists
    )


DISJOINT = st.lists(ENDPOINTS, min_size=2, max_size=6, unique=True).map(
    lambda ends: list(zip(*[iter(sorted(ends))] * 2))
)


class TestWriters:
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(st.tuples(WRITTEN_IDS, DISJOINT, FLAGS), min_size=1, max_size=8),
           st.sampled_from(WRITE_LINES))
    def test_intervals_match_csv_writer(self, tmp_path, monkeypatch, rows, lines):
        monkeypatch.setattr(io, "_WRITE_LINES", lines)
        ids = [rid for rid, _, _ in rows]
        flags = [tuple(f) for _, _, f in rows]
        path = tmp_path / "iv.csv"
        io.write_intervals_csv(path, ids, batch_of(s for _, s, _ in rows), flags,
                               config={"a": [1, ","]})
        assert path.read_bytes() == csv_writer_bytes(io.INTERVAL_HEADER, [
            (rid, j, repr(lo), repr(hi), ";".join(f))
            for rid, segments, f in rows for j, (lo, hi) in enumerate(segments)
        ], {"a": [1, ","]})

    @pytest.mark.parametrize("rid", ["#a", "#"])
    def test_intervals_refuse_a_comment_row_id(self, tmp_path, rid):
        # no reader takes such a line back, so the id is refused before
        # the file exists
        path = tmp_path / "iv.csv"
        ids = ["a", rid, "b"]
        batch = IntervalBatch.from_bounds([0.0, 1.0, 2.0], [1.0, 2.0, 3.0])
        with pytest.raises(DataError, match=f"row_id '{rid}' starts with '#'"):
            io.write_intervals_csv(path, ids, batch)
        assert not path.exists()

    @pytest.mark.parametrize("n_flags", [2, 4])
    def test_intervals_refuse_a_flag_count_mismatch(self, tmp_path, n_flags):
        path = tmp_path / "iv.csv"
        batch = IntervalBatch.from_bounds([0.0, 1.0, 2.0], [1.0, 2.0, 3.0])
        with pytest.raises(DataError, match=f"{n_flags} flag tuples for 3 row ids"):
            io.write_intervals_csv(path, ["a", "b", "c"], batch, [("clamped",)] * n_flags)
        assert not path.exists()

    @pytest.mark.parametrize("n_ids, n_y, n_sets", [(3, 1, 1), (1, 3, 3), (3, 3, 1)])
    def test_widths_refuse_a_length_mismatch(self, tmp_path, n_ids, n_y, n_sets):
        # zip would write the shortest of the three without a word
        path = tmp_path / "widths.csv"
        batch = IntervalBatch.from_bounds(np.zeros(n_sets), np.ones(n_sets))
        with pytest.raises(DataError, match=f"{n_ids} row ids, {n_y} outcomes"):
            io.write_widths_csv(path, list("abc")[:n_ids], np.full(n_y, 0.5), batch)
        assert not path.exists()

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(st.tuples(WRITTEN_TEXT, DISJOINT, ENDPOINTS.filter(math.isfinite)),
                    min_size=1, max_size=8),
           st.sampled_from(WRITE_LINES))
    def test_widths_match_csv_writer(self, tmp_path, monkeypatch, rows, lines):
        monkeypatch.setattr(io, "_WRITE_LINES", lines)
        ids = [rid for rid, _, _ in rows]
        y = [y for _, _, y in rows]
        batch = batch_of(s for _, s, _ in rows)
        path = tmp_path / "widths.csv"
        io.write_widths_csv(path, ids, y, batch)
        assert path.read_bytes() == csv_writer_bytes(io.WIDTH_HEADER, zip(
            ids, map(repr, y), map(repr, batch.total_width().tolist()),
            batch.n_segments.tolist(), batch.contains(y).astype(int).tolist(),
        ))

    @given(st.lists(st.tuples(WRITTEN_TEXT, WRITTEN_TEXT), min_size=1, max_size=4))
    def test_report_rows_match_csv_writer(self, tmp_path_factory, labels):
        rows = [(m, g, 7, 0.5, 0.1, INF, 2, -0.0) for m, g in labels]
        path = tmp_path_factory.mktemp("report") / "report.csv"
        io.write_report_rows_csv(path, rows, {"command": "evaluate"})
        assert path.read_bytes() == csv_writer_bytes(io.REPORT_HEADER, [
            (m, g, n, *map(repr, (cov, se, width)), inf_count, repr(disc))
            for m, g, n, cov, se, width, inf_count, disc in rows
        ], {"command": "evaluate"})

    @pytest.mark.parametrize("lines", WRITE_LINES)
    def test_dataset_matches_csv_writer(self, tmp_path, monkeypatch, lines):
        monkeypatch.setattr(io, "_WRITE_LINES", lines)
        rng = np.random.default_rng(3)
        labels = np.array(["train", "a,b", 'say "x"', "", "é\nz"])
        for split in (labels, None):
            dataset = Dataset(rng.normal(size=(5, 2)) * [1.0, 1e-9], rng.lognormal(size=5),
                              split)
            path = tmp_path / "data.csv"
            io.write_dataset_csv(path, dataset, {"n": 5})
            assert path.read_bytes() == csv_writer_bytes(io.DATASET_HEADER, [
                (i, *map(io.format_real, (*dataset.features[i], dataset.y[i])),
                 "" if split is None else split[i])
                for i in range(5)
            ], {"n": 5})


# ids the reader takes back: anything but a leading '#', '\r' included
READ_BACK_IDS = st.text(alphabet='ab1,"\' #;\n\ré', max_size=6).filter(
    lambda s: not s.startswith("#")
)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.tuples(READ_BACK_IDS, DISJOINT, FLAGS), min_size=1, max_size=8,
                unique_by=lambda row: row[0]),
       st.sampled_from(CHUNK_CHARS))
def test_reader_reads_back_what_the_writer_wrote(tmp_path, monkeypatch, rows, chars):
    monkeypatch.setattr(io, "_CHUNK_CHARS", chars)
    ids = [rid for rid, _, _ in rows]
    flags = [tuple(f) for _, _, f in rows]
    batch = batch_of(s for _, s, _ in rows)
    path = tmp_path / "iv.csv"
    io.write_intervals_csv(path, ids, batch, flags)
    row_ids, got, got_flags = io.read_interval_batch(path)
    assert row_ids == ids
    assert got_flags == [tuple(x for x in f if x) for f in flags]
    assert_same_used_slots(got, batch)


# -- memory ---------------------------------------------------------------------

def traced_peak(call):
    """(result, bytes still traced after ``call``, peak traced bytes)."""
    tracemalloc.start()
    try:
        result = call()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, held, peak


class TestBoundedMemory:
    def test_interval_reader_keeps_no_line_id_column(self, tmp_path):
        rows, segments = 40_000, 5
        ids = [f"cell-{i:06d}-m{i % 997:03d}" for i in range(rows)]
        path = tmp_path / "iv.csv"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join(io.INTERVAL_HEADER) + "\n")
            fh.writelines(
                f"{rid},{j},{2.0 * j + i / 7!r},{2.0 * j + 1 + i / 7!r},\n"
                for i, rid in enumerate(ids) for j in range(segments)
            )
        # the row_id column as one str per line, as csv.reader gives it
        line_ids = 8 * rows * segments + segments * sum(map(sys.getsizeof, ids))
        (row_ids, batch, _), held, peak = traced_peak(lambda: io.read_interval_batch(path))
        assert row_ids == ids and batch.n_segments.tolist() == [segments] * rows
        # what the reader holds beyond its result, and in all
        assert peak - held < line_ids / 2
        assert peak < line_ids

    def test_interval_writer_peak_does_not_grow_with_rows(self, tmp_path):
        def peak(n):
            lower = np.arange(n, dtype=float)[:, None] + [0.0, 0.5]
            upper = lower + 0.25
            lower[1::2, 1] = upper[1::2, 1] = np.nan
            batch = IntervalBatch(lower, upper)
            ids = [f"r{i}" for i in range(n)]
            flags = [("clamped",)] * n
            return traced_peak(lambda: io.write_intervals_csv(
                tmp_path / "iv.csv", ids, batch, flags, {"n": n}
            ))[2]

        assert peak(100_000) < peak(10_000) + 64 * 1024
